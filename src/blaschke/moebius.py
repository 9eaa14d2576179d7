"""Automorphisms of the unit disk, M(z) = c (z - alpha) / (1 - conj(alpha) z).

Besides evaluation and composition this module tracks orbits of the origin
and gives, in closed form from the rotation angle, the unimodular constants c
that close such an orbit after a prescribed number of steps and the order of
a map, which is the engine behind constructing products invariant under M.
"""

from __future__ import annotations

import cmath
import math
from itertools import combinations
from typing import TYPE_CHECKING, Optional

from .errors import DomainError, NormalizationError, NoSolution, Record, require_finite

if TYPE_CHECKING:
    from .numerics import ComplexPolynomial

# Shared with products: how far a constant's modulus may stray from 1, how
# close to the circle a zero may sit, and how far outside it a point may be
# evaluated.
UNIT_MODULUS_TOL = 1e-9
OPEN_DISK_MARGIN = 1e-12
EVAL_DOMAIN_TOL = 1e-9
IDENTITY_TOL = 1e-8
ORBIT_CLOSURE_TOL = 1e-8
ORBIT_DISTINCT_TOL = 1e-7
# The default residual bound of an invariant search (``invariants``); here so
# that the CLI's parser can name it without loading that module.
GROUP_MATCH_TOL = 1e-7


class MoebiusTransform(Record):
    """A disk automorphism given by its rotation constant and its zero."""

    _fields = ("c", "alpha")
    c: complex
    alpha: complex

    def __init__(self, c: complex, alpha: complex) -> None:
        c = require_finite(c)
        alpha = require_finite(alpha)
        if abs(abs(c) - 1.0) > UNIT_MODULUS_TOL:
            raise ValueError(f"|c| = {abs(c)!r} is not within {UNIT_MODULUS_TOL} of 1")
        if abs(alpha) > 1.0 - OPEN_DISK_MARGIN:
            raise ValueError(f"|alpha| = {abs(alpha)!r} must stay inside the open disk")
        self._set(c=c, alpha=alpha)

    def __call__(self, z: complex) -> complex:
        return moebius_eval(self, z)


IDENTITY = MoebiusTransform(1.0 + 0j, 0j)


class OrbitReport(Record):
    """The first ``n`` points ``0, M(0), ..., M^{n-1}(0)`` of the orbit of 0."""

    _fields = ("points", "closes", "min_pairwise_gap")
    points: tuple[complex, ...]
    closes: bool
    min_pairwise_gap: float

    def __init__(self, points: tuple[complex, ...], closes: bool, min_pairwise_gap: float) -> None:
        self._set(points=points, closes=closes, min_pairwise_gap=min_pairwise_gap)


def moebius_eval(m: MoebiusTransform, z: complex) -> complex:
    """Apply ``m`` to a point of the closed disk."""
    z = require_finite(z)
    if abs(z) > 1.0 + EVAL_DOMAIN_TOL:
        raise DomainError(f"|z| = {abs(z)!r} lies outside the closed unit disk")
    return m.c * (z - m.alpha) / (1.0 - m.alpha.conjugate() * z)


def _matrix(m: MoebiusTransform) -> tuple[complex, complex, complex, complex]:
    # (a, b, p, q) with M(z) = (a z + b) / (p z + q).
    return m.c, -m.c * m.alpha, -m.alpha.conjugate(), 1.0 + 0j


def _from_matrix(a: complex, b: complex, p: complex, q: complex) -> MoebiusTransform:
    if q == 0 or a == 0:
        raise NormalizationError("coefficient matrix does not describe a disk automorphism")
    c = a / q
    if abs(abs(c) - 1.0) > UNIT_MODULUS_TOL:
        raise NormalizationError(f"derived constant has modulus {abs(c)!r}")
    alpha = -b / a
    if abs(alpha) > 1.0 - OPEN_DISK_MARGIN:
        raise NormalizationError(f"derived pole parameter has modulus {abs(alpha)!r}")
    return MoebiusTransform(c / abs(c), alpha)


def _times(x, y):
    # Product of 2 x 2 matrices written (a, b, p, q), row by row; the entries
    # are complex numbers or polynomials.
    a1, b1, p1, q1 = x
    a2, b2, p2, q2 = y
    return a1 * a2 + b1 * p2, a1 * b2 + b1 * q2, p1 * a2 + q1 * p2, p1 * b2 + q1 * q2


def _power(x, n, times, one):
    # x to the n >= 0 under ``times`` by repeated squaring; no square is
    # formed past the top bit of n.
    result = one
    while n:
        if n & 1:
            result = times(result, x)
        n >>= 1
        if n:
            x = times(x, x)
    return result


def moebius_compose(outer: MoebiusTransform, inner: MoebiusTransform) -> MoebiusTransform:
    """The normalized form of ``outer ∘ inner``."""
    return _from_matrix(*_times(_matrix(outer), _matrix(inner)))


def moebius_inverse(m: MoebiusTransform) -> MoebiusTransform:
    a, b, p, q = _matrix(m)
    return _from_matrix(q, -b, -p, a)


def moebius_power(m: MoebiusTransform, n: int) -> MoebiusTransform:
    """The n-fold iterate of ``m`` (n >= 0) by repeated squaring."""
    if n < 0:
        raise ValueError("power must be nonnegative")
    return _power(m, n, moebius_compose, IDENTITY)


def moebius_iterate_zero(m: MoebiusTransform, n: int, closure_tol: float = ORBIT_CLOSURE_TOL) -> OrbitReport:
    """Orbit report for ``0, M(0), ..., M^{n-1}(0)`` by pointwise iteration."""
    if n < 1:
        raise ValueError("need at least one orbit point")
    points, closes = _orbit_of_zero(m.c, m.alpha, n, closure_tol)
    if n == 1:
        gap = math.inf
    else:
        gap = min(abs(x - y) for x, y in combinations(points, 2))
    return OrbitReport(points, closes, gap)


def _orbit_of_zero(c: complex, alpha: complex, n: int, closure_tol: float) -> tuple[tuple[complex, ...], bool]:
    # moebius_eval's arithmetic without its checks, for the map with
    # parameters c and alpha: it maps the disk to itself.
    alphac = alpha.conjugate()
    points = [0j]
    for _ in range(n):
        z = points[-1]
        points.append(c * (z - alpha) / (1.0 - alphac * z))
    return tuple(points[:-1]), abs(points[-1]) <= closure_tol


def moebius_order(m: MoebiusTransform, cap: int, tol: float = IDENTITY_TOL) -> Optional[int]:
    """Smallest k <= cap with the k-th iterate equal to the identity, if any.

    The order is read off the trace.  With x = |1 + c| / (2 sqrt(1 - |alpha|^2)),
    a map other than the identity is hyperbolic or parabolic when x >= 1 and
    has no finite order.  Otherwise it is elliptic and rotates about its
    interior fixed point by the angle 2 arccos(x) (up to sign), so M^k is the
    identity exactly when k arccos(x) / pi is an integer.

    ``tol`` bounds two things: the parameter distance max(|c - 1|, |alpha|)
    at which ``m`` itself counts as the identity (order 1), and the rotation
    angle in radians, modulo 2 pi, that M^k may keep and still count as the
    identity.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return _order(m.c, m.alpha, cap, tol)


def _order(c: complex, alpha: complex, cap: int, tol: float) -> Optional[int]:
    # moebius_order on the raw parameters of a valid map, cap >= 1.
    if max(abs(c - 1.0), abs(alpha)) <= tol:
        return 1
    r = abs(alpha)
    x = abs(1.0 + c) / (2.0 * math.sqrt((1.0 - r) * (1.0 + r)))
    if x >= 1.0:
        return None
    turns, turn = math.acos(x) / math.pi, 2 * math.pi
    for k in range(2, cap + 1):
        kt = k * turns
        if turn * abs(kt - round(kt)) <= tol:
            return k
    return None


def _solve_quadratic(c0: complex, c1: complex, c2: complex) -> list[complex]:
    # c2 z^2 + c1 z + c0 = 0, c2 != 0; branch chosen to avoid cancellation.
    disc = cmath.sqrt(c1 * c1 - 4 * c2 * c0)
    if (c1.conjugate() * disc).real < 0:
        disc = -disc
    q = -(c1 + disc) / 2
    r1 = q / c2
    r2 = c0 / q if q != 0 else -r1
    return [r1, r2]


def moebius_fixed_point_in_disk(m: MoebiusTransform) -> Optional[complex]:
    """The fixed point of ``m`` inside the open disk, or None.

    Fixed points solve conj(alpha) z^2 + (c - 1) z - c alpha = 0; the two
    roots have reciprocal-conjugate moduli, so at most one is interior.
    """
    if max(abs(m.c - 1.0), abs(m.alpha)) <= 1e-12:
        raise ValueError("the identity fixes every point")
    if m.alpha == 0:
        return 0j
    roots = _solve_quadratic(-m.c * m.alpha, m.c - 1.0, m.alpha.conjugate())
    interior = [z for z in roots if abs(z) <= 1.0 - 1e-9]
    if not interior:
        return None
    return min(interior, key=abs)


def closure_polynomial(alpha: complex, n: int) -> ComplexPolynomial:
    """Polynomial in c whose vanishing is equivalent to M^n(0) = 0.

    The coefficient matrix of M has entries polynomial in c; its n-th power
    is formed by repeated squaring and the numerator-constant entry is the
    returned polynomial.  It is the reference for the closed form in
    :func:`solve_unimodular_c`: at small n its unimodular roots other than
    c = 1 are the same constants.  Root finding on it loses constants from
    moderate n on (n = 10 at |alpha| = 0.9), so the package does not solve it.
    """
    from .numerics import ComplexPolynomial

    alpha = require_finite(alpha)
    if n < 1:
        raise ValueError("need n >= 1")
    one, zero = ComplexPolynomial([1.0]), ComplexPolynomial([0j])
    base = (
        ComplexPolynomial([0j, 1.0]),
        ComplexPolynomial([0j, -alpha]),
        ComplexPolynomial([-alpha.conjugate()]),
        one,
    )
    return _power(base, n, _times, (one, zero, zero, one))[1]


def solve_unimodular_c(
    alpha: complex, n: int, tol: float = ORBIT_DISTINCT_TOL
) -> list[tuple[complex, OrbitReport]]:
    """All unimodular constants c for which the orbit of 0 closes after n steps.

    M closes the orbit exactly when it is elliptic with rotation angle
    2 pi k / n, and by the trace condition its constant c = e^{i theta} then
    satisfies cos(theta / 2) = sqrt(1 - |alpha|^2) cos(pi k / n).  The n - 1
    candidates k = 1 .. n-1 are kept when they produce an orbit that closes
    with ``min_pairwise_gap >= tol``.  An orbit with g = gcd(k, n) > 1
    revisits its points after n / g steps, so its gap is rounding noise: any
    ``tol > 0`` skips those k, and ``tol = 0`` admits them.

    M turns the circle through its orbit by 2 pi k / n, and a Moebius map
    keeps the cyclic order on that circle, so the chord from M^j(0) to a
    circular neighbour is a shortest one.  The gap is the minimum over the n
    pairs (j, j + s) with s k = 1 mod n, or s = n / g for a revisiting orbit.
    Returns (c, orbit) pairs sorted by the phase of c.
    """
    alpha = require_finite(alpha)
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    if abs(alpha) > 1.0 - OPEN_DISK_MARGIN:
        raise ValueError("alpha must lie inside the open disk")
    if n < 2:
        raise ValueError("need n >= 2")
    if not tol >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol!r}")
    r = abs(alpha)
    scale = math.sqrt((1.0 - r) * (1.0 + r))
    solutions = []
    for k in range(1, n):
        g = math.gcd(k, n)
        if g > 1 and tol > 0:
            continue
        c = cmath.exp(2j * math.acos(scale * math.cos(math.pi * k / n)))
        points, closes = _orbit_of_zero(c, alpha, n, ORBIT_CLOSURE_TOL)
        step = pow(k, -1, n) if g == 1 else n // g
        gap = min(abs(points[j] - points[(j + step) % n]) for j in range(n))
        if closes and gap >= tol:
            solutions.append((c, OrbitReport(points, closes, gap)))
    if not solutions:
        raise NoSolution(f"no unimodular constant closes a {n}-step orbit for alpha={alpha!r}")
    solutions.sort(key=lambda item: cmath.phase(item[0]) % (2 * math.pi))
    return solutions
