"""Exception hierarchy, input check and value-type base shared by all modules.

Every domain failure raises a subclass of :class:`BlaschkeError`, so callers
(and the CLI) can map library errors to a single failure channel.
"""

import math
import operator


def require_finite(z: complex) -> complex:
    """Return ``z`` as a built-in complex, rejecting NaN and infinities."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite complex value: {z!r}")
    return z


class Record:
    """Base of the immutable value types, over the attributes named in ``_fields``.

    Equality, hash and repr follow those fields in order; an ``__init__``
    stores its values with :meth:`_set`.  Assigning or deleting an attribute
    raises :class:`AttributeError`.  Instances pickle and copy by their
    ``__dict__``.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # The field values that equality and hash compare, read in C.
        cls._key = staticmethod(operator.attrgetter(*cls._fields))

    def _set(self, **values) -> None:
        self.__dict__.update(values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class BlaschkeError(Exception):
    """Base class for all library-specific errors."""


class DomainError(BlaschkeError):
    """An argument lies outside the closed unit disk (or off the circle)."""


class NonConvergence(BlaschkeError):
    """The iterative root finder exhausted its sweep budget."""


class NormalizationError(BlaschkeError):
    """A derived unimodular constant is off the unit circle, or reads differently at two points."""


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
