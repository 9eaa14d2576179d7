"""Output checks: each compares a program output against the oracle.

Every tolerance below is an acceptance bound the package itself documents
for the operation being checked, so a check fails only when an output
breaks the package's own contract, never because it differs from today's
digits.  Each check records its error in an :class:`Audit`, whose worst
error becomes the run's ``accuracy_digits``.
"""

from __future__ import annotations

import math

import oracle

# moebius.UNIMODULAR_ROOT_TOL: how far from the circle a closure root may be
# and still be accepted as a constant.
CONSTANT_TOL = 1e-6
# moebius.ORBIT_CLOSURE_TOL: how far M^n(0) may be from 0 in a product built
# on a closed orbit.
CLOSURE_TOL = 1e-8
# invariants.GROUP_MATCH_TOL: the |B(M z) - B(z)| at which a candidate
# invariant is accepted.
INVARIANCE_TOL = 1e-7
# invariants: an iterate counts as the identity within 1e-7 in (c, alpha);
# |M(z) - z| <= |c - 1| + 2 |alpha| on the closed disk, hence 3 x 1e-7.
IDENTITY_TOL = 3e-7
# decompose.ROUNDTRIP_TOL: accepted |outer(inner z) - B(z)| of a split; the
# same bound is what the package asks of a composition.
ROUNDTRIP_TOL = 1e-7
# products.CIRCLE_ROOT_TOL: accepted distance of a boundary preimage from
# the circle before it is projected onto it.
PREIMAGE_TOL = 1e-8
# numerics.RESIDUAL_LIMIT: poly_roots returns a root r of p with |r| <= 1 only
# when |p(r)| <= RESIDUAL_LIMIT * max|coefficient of p|.
ROOT_RESIDUAL_LIMIT = 1e-10
# poncelet.CHORD_TOL (= CONDITION_TOL): accepted chord-to-point distance.
CHORD_TOL = 1e-7

# Errors below double-precision rounding are reported as rounding.
EPS = 2.0 ** -52
MAX_KEPT_FAILURES = 20


class Audit:
    """The checks of one run: the worst error seen and the failed checks."""

    def __init__(self) -> None:
        self.worst = 0.0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < MAX_KEPT_FAILURES:
            self.failures.append(message)

    def error(self, what: str, err: float, tol: float) -> None:
        """Record an error that must not exceed ``tol`` (NaN fails)."""
        if not err <= tol:
            self._fail(f"{what}: error {err:.3e} exceeds {tol:.1e}")
        else:
            self.worst = max(self.worst, err)

    def require(self, what: str, ok: bool) -> None:
        if not ok:
            self._fail(what)

    @property
    def ok(self) -> bool:
        return self.failed == 0



def digits(err: float) -> float:
    """``-log10`` of an error, at most double precision."""
    return -math.log10(max(err, EPS))


def _nearest(z: complex, candidates) -> float:
    return min((abs(z - w) for w in candidates), default=math.inf)


def check_constants(audit: Audit, alpha_abs: float, n: int, found) -> None:
    """``found`` is the closed-form set: phi(n) constants, each within CONSTANT_TOL."""
    expected = oracle.orbit_constants(alpha_abs, n)
    audit.require(
        f"n={n}: {len(found)} constants returned, closed form has {len(expected)}",
        len(found) == len(expected),
    )
    err = max(max(_nearest(c, found) for c in expected), max(_nearest(c, expected) for c in found))
    audit.error(f"n={n}: constants vs closed form", err, CONSTANT_TOL)


def check_orbit_product(audit: Audit, c: complex, alpha: complex, n: int, product) -> None:
    """``product`` is the canonical product on the orbit of 0 under (c, alpha)."""
    constant, zeros = product
    expected = oracle.orbit_of_zero(c, alpha, n)
    audit.require(f"n={n}: orbit product has {len(zeros)} zeros", len(zeros) == n)
    audit.error(f"n={n}: orbit product constant", abs(constant - 1.0), CLOSURE_TOL)
    err = max((_nearest(z, zeros) for z in expected), default=math.inf)
    audit.error(f"n={n}: orbit product zeros", err, CLOSURE_TOL)


def check_invariance(audit: Audit, product, c: complex, alpha: complex, points) -> None:
    """``|B(M z) - B(z)|`` at interior points."""
    constant, zeros = product
    err = max(
        abs(oracle.blaschke(constant, zeros, oracle.moebius(c, alpha, z)) - oracle.blaschke(constant, zeros, z))
        for z in points
    )
    audit.error("invariance B(M z) = B(z)", err, INVARIANCE_TOL)


def check_generator_order(audit: Audit, c: complex, alpha: complex, n: int) -> None:
    """Iterating the generator on 0 returns after exactly n steps, not before."""
    z = 0j
    gaps = []
    for _ in range(n):
        z = oracle.moebius(c, alpha, z)
        gaps.append(abs(z))
    audit.error(f"order {n}: M^n(0) = 0", gaps[-1], IDENTITY_TOL)
    audit.require(
        f"order {n}: an earlier iterate M^k(0) returns to 0", min(gaps[:-1], default=1.0) > IDENTITY_TOL
    )


def check_split(audit: Audit, product, inner, outer, points) -> None:
    """A nontrivial split with ``outer(inner z) = B(z)``."""
    n, k, m = len(product[1]), len(inner[1]), len(outer[1])
    audit.require(f"split of degree {n} into {k} x {m} is not a nontrivial split", k > 1 and m > 1 and k * m == n)
    err = max(
        abs(oracle.blaschke(*outer, oracle.blaschke(*inner, z)) - oracle.blaschke(*product, z))
        for z in points
    )
    audit.error(f"degree {n}: split round trip", err, ROUNDTRIP_TOL)


def check_composition(audit: Audit, inner, outer, composed, points) -> None:
    """``composed(z) = outer(inner z)`` with degree deg(inner) * deg(outer)."""
    audit.require(
        "composition has the wrong degree", len(composed[1]) == len(inner[1]) * len(outer[1])
    )
    err = max(
        abs(oracle.blaschke(*composed, z) - oracle.blaschke(*outer, oracle.blaschke(*inner, z)))
        for z in points
    )
    audit.error("composition vs outer(inner z)", err, ROUNDTRIP_TOL)


def check_preimages(audit: Audit, product, lam: complex, points) -> None:
    """n distinct boundary points, each close to a solution of B = lam.

    The error is the Newton distance ``|B(z) - lam| / |B'(z)|`` along the
    circle to the nearest solution.  Its bound follows from the root
    finder's: the roots solve ``p = num - lam den = den (B - lam)`` with
    ``|p(r)| <= ROOT_RESIDUAL_LIMIT * max|coeff|``, which is a Newton distance
    of at most that over ``|den(z)| |B'(z)|``; projecting onto the circle
    adds at most PREIMAGE_TOL.  Twice the sum allows for the first-order
    estimate.
    """
    constant, zeros = product
    n = len(zeros)
    audit.require(f"degree {n}: {len(points)} preimages returned", len(points) == n)
    if not points:
        return
    scale = max(abs(x) for x in oracle.preimage_polynomial(constant, zeros, lam))
    for z in points:
        speed = oracle.boundary_speed(zeros, z)
        den = math.prod(abs(z - a) for a in zeros)  # |1 - conj(a) z| = |z - a| on the circle
        err = max(abs(abs(z) - 1.0), abs(oracle.blaschke(constant, zeros, z) - lam) / speed)
        tol = 2.0 * (PREIMAGE_TOL + ROOT_RESIDUAL_LIMIT * scale / (den * speed))
        audit.error(f"degree {n}: preimage residual", err, tol)
    ordered = sorted(points, key=lambda z: math.atan2(z.imag, z.real))
    gap = min(abs(ordered[i] - ordered[i - 1]) for i in range(len(ordered))) if n > 1 else math.inf
    audit.require(f"degree {n}: two preimages coincide", gap > 4 * PREIMAGE_TOL)


def check_poncelet_points(audit: Audit, a1: complex, a2: complex, lam: complex, points) -> None:
    """The four preimages of the degree-4 product match the quadratic construction."""
    expected = oracle.poncelet_preimages(a1, a2, lam)
    audit.require("degree 4: preimage count", len(points) == 4)
    err = max(max(_nearest(z, points) for z in expected), max(_nearest(z, expected) for z in points))
    audit.error("degree 4: preimages vs quadratic construction", err, PREIMAGE_TOL)


def check_ellipse(audit: Audit, a2: complex, a3: complex, ellipse, points) -> None:
    """Foci are a2, a3 and every side of the preimage quadrilateral is tangent."""
    f1, f2, focal_sum = ellipse
    foci_err = min(abs(f1 - a2) + abs(f2 - a3), abs(f1 - a3) + abs(f2 - a2))
    audit.error("ellipse foci", foci_err, CHORD_TOL)
    ordered = sorted(points, key=lambda z: math.atan2(z.imag, z.real))
    err = max(
        oracle.tangency_error(f1, f2, focal_sum, ordered[i - 1], ordered[i]) for i in range(len(ordered))
    )
    audit.error("ellipse tangent to preimage chords", err, CHORD_TOL)


def check_diagonals(audit: Audit, a1: complex, points, pairing=None) -> None:
    """Both diagonals of the preimage quadrilateral pass through a1.

    ``pairing``, when given, is a reported chord pairing of ``points`` whose
    two chords must pass through a1 as well.
    """
    ordered = sorted(points, key=lambda z: math.atan2(z.imag, z.real))
    chords = [(ordered[0], ordered[2]), (ordered[1], ordered[3])]
    if pairing is not None:
        audit.require("reported chords are not a pairing of the four points",
                      sorted(i for pair in pairing for i in pair) == [0, 1, 2, 3])
        chords += [(points[i], points[j]) for i, j in pairing]
    err = max(abs(oracle.signed_distance(p, q, a1)) for p, q in chords)
    audit.error("diagonals through a1", err, CHORD_TOL)


def check_svg(audit: Audit, svg: str, zeros: int) -> None:
    marks = svg.count('class="zero"')
    audit.require(f"SVG has {marks} zero marks for {zeros} zeros", marks == zeros)
