"""Exception hierarchy shared by all modules.

Every domain failure raises a subclass of :class:`BlaschkeError`, so callers
(and the CLI) can map library errors to a single failure channel.
"""


class BlaschkeError(Exception):
    """Base class for all library-specific errors."""


class DomainError(BlaschkeError):
    """An argument lies outside the closed unit disk (or off the circle)."""


class NonConvergence(BlaschkeError):
    """The iterative root finder exhausted its sweep budget."""


class NormalizationError(BlaschkeError):
    """A derived unimodular constant drifted too far from the unit circle."""


class NoSolution(BlaschkeError):
    """No unimodular constant survives the closure and distinctness filters."""


class OrbitNotClosed(BlaschkeError):
    """The orbit of 0 does not return to 0 after the requested step count."""


class OrbitDegenerate(BlaschkeError):
    """Two points of the orbit of 0 coincide within tolerance."""


class NoInteriorFixedPoint(BlaschkeError):
    """The transformation has no fixed point inside the open disk."""


class BadShape(BlaschkeError):
    """Input structure (degree, indices, pairing, document) is malformed."""


class ConditionsUnsatisfied(BlaschkeError):
    """The zeros do not fall into full fibers of any candidate inner factor."""


class NondegeneracyError(BlaschkeError):
    """Focal data does not describe a nondegenerate ellipse."""


class NoConcurrentPairing(BlaschkeError):
    """No chord pairing of the boundary preimages passes through the point."""


class NoIntersection(BlaschkeError):
    """The selected circle does not meet the unit circle in two points."""


class DecompositionError(BlaschkeError):
    """A computed factor pair fails the composition round trip."""
