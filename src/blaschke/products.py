"""Finite Blaschke products: evaluation, equality, and composition and preimages solved from the factors.

Composition solves D(z) = b by :func:`_aberth`, the package's one
Aberth-Ehrlich loop, which ``numerics.poly_roots`` shares; this module
does not import ``numerics``.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from typing import Callable, Iterable, Optional, Sequence

from .errors import DomainError, NonConvergence, NormalizationError, Record, require_finite
from .moebius import EVAL_DOMAIN_TOL, OPEN_DISK_MARGIN, UNIT_MODULUS_TOL

ORIGIN_ZERO_TOL = 1e-12
EQUALITY_TOL = 1e-8
CONSTANT_RECOVERY_TOL = 1e-6
# Accepted |Phi(t) - target| at a boundary preimage, beyond the rounding
# allowance below.  The sum of the two bounds |B(z) - lam| as well, since
# |e^(i phi) - e^(i theta)| <= |phi - theta|.
PREIMAGE_PHASE_TOL = 1e-10
# Rounding allowance per unit of sum 1/|z - a| at a preimage z.  Each
# w = 1 - a e^(-it) carries an absolute rounding error of a few eps, which
# turns arg w by that much over |w| = |z - a|.  Rounding t, and the last
# Newton step of at most 1e-15, move Phi by Phi' times about 5 eps, and
# Phi' <= 2 sum 1/|z - a|.  With every zero at least d from z the allowance
# is at most 7.1e-15 n / d, so it matters only for zeros near the circle.
PREIMAGE_ROUNDING = 32.0 * sys.float_info.epsilon
# Cap on Newton steps per boundary preimage and Aberth sweeps per interior solve.
PREIMAGE_MAX_STEPS = 100
# Zeros per block of :func:`_circle_values`.  On the unit circle every factor
# has 2^-40 < OPEN_DISK_MARGIN <= |z - a| < 2, so from |P| in [1/2, 1) a
# block of k factors keeps every partial product above 2^(-1 - 40 k) and
# below 2^k: normal for k = 25, the largest such k.
_BLOCK = sys.float_info.min_exp // (math.frexp(OPEN_DISK_MARGIN)[1] - 1)


class BlaschkeProduct(Record):
    """A unimodular constant and a zero multiset inside the open disk.

    Zero multiplicity is expressed by repetition; compositions and orbit
    constructions naturally produce repeated (or nearly repeated) zeros.
    """

    _fields = ("constant", "zeros")
    constant: complex
    zeros: tuple[complex, ...]

    def __init__(self, constant: complex, zeros: Iterable[complex]) -> None:
        constant = require_finite(constant)
        if abs(abs(constant) - 1.0) > UNIT_MODULUS_TOL:
            raise ValueError(f"|constant| = {abs(constant)!r} is not within {UNIT_MODULUS_TOL} of 1")
        zeros = tuple(require_finite(z) for z in zeros)
        if not zeros:
            raise ValueError("a Blaschke product needs at least one zero")
        for z in zeros:
            if abs(z) > 1.0 - OPEN_DISK_MARGIN:
                raise ValueError(f"zero {z!r} must lie inside the open disk")
        self._set(constant=constant, zeros=zeros)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z: complex) -> complex:
        return blaschke_eval(self, z)


def is_canonical(product: BlaschkeProduct) -> bool:
    """Whether the constant is 1 and a zero sits at the origin."""
    return abs(product.constant - 1.0) <= UNIT_MODULUS_TOL and any(
        abs(z) <= ORIGIN_ZERO_TOL for z in product.zeros
    )


def blaschke_eval(product: BlaschkeProduct, z: complex) -> complex:
    """Evaluate the product at a point of the closed disk."""
    z = require_finite(z)
    if abs(z) > 1.0 + EVAL_DOMAIN_TOL:
        raise DomainError(f"|z| = {abs(z)!r} lies outside the closed unit disk")
    return _values(product, (z,))[0]


def _values(product: BlaschkeProduct, points: Iterable[complex]) -> list[complex]:
    """B at each of ``points``, which the caller has checked: c times prod (z - a)/(1 - conj(a) z)."""
    c, pairs = product.constant, [(a, a.conjugate()) for a in product.zeros]
    values = []
    for z in points:
        value = c
        for a, ac in pairs:
            value *= (z - a) / (1.0 - ac * z)
        values.append(value)
    return values


def _circle_values(product: BlaschkeProduct, points: Iterable[complex]) -> list[complex]:
    """B at each of ``points``, on the unit circle: c P(z) / (z^n conj(P(z))) with P = prod (z - a).

    On the circle 1 - conj(a) z = z conj(z - a), so one multiply per zero
    replaces a quotient (Garcia, Mashreghi and Ross, 2018).  The value
    ignores any real scale of P, so P is multiplied in blocks of ``_BLOCK``
    zeros and brought back to [1/2, 1) by an exact power of two between
    blocks; no partial product leaves the normal float range, at any degree.
    """
    c, zeros, n = product.constant, product.zeros, len(product.zeros)
    first, rest = zeros[:_BLOCK], [zeros[i : i + _BLOCK] for i in range(_BLOCK, n, _BLOCK)]
    values = []
    for z in points:
        p = 1.0 + 0j
        for a in first:
            p *= z - a
        for block in rest:
            p *= math.ldexp(1.0, -math.frexp(abs(p))[1])
            for a in block:
                p *= z - a
        values.append(c * p / (z ** n * p.conjugate()))
    return values


@functools.lru_cache(maxsize=1)
def _circle_table(product: BlaschkeProduct, count: int) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """The ``count`` equally spaced points z of the unit circle, starting at 1, and B at each.

    B is taken by :func:`_circle_values` in one batch.  The last (product,
    count) table is memoised, so the invariant search, an invariance check
    and the round trip of a split on the same product, or on an equal one,
    build it once.  Only :func:`_deviation` reads it.
    """
    points = [cmath.exp(2j * math.pi * k / count) for k in range(count)]
    return tuple(points), tuple(_circle_values(product, points))


def _deviation(
    product: BlaschkeProduct, values: Callable[[Sequence[complex]], Sequence[complex]], count: Optional[int] = None
) -> float:
    """Max of |values(z) - B(z)| over the ``count`` points z of :func:`_circle_table`.

    ``values`` maps the points to a candidate's values there in one batch.
    By default count is 2n + 1 for degree n.  On the circle |B| = 1 and
    B = 1/conj(B), so two degree-n products agree where P_a Q_b - P_b Q_a,
    of degree at most 2n, vanishes: 2n + 1 points decide their equality.
    """
    points, reference = _circle_table(product, 2 * product.degree + 1 if count is None else count)
    return max(abs(value - expected) for value, expected in zip(values(points), reference))


def blaschke_equal(a: BlaschkeProduct, b: BlaschkeProduct, tol: float = EQUALITY_TOL) -> bool:
    """Pointwise equality oracle at the 2n + 1 unit-circle points that decide it (:func:`_deviation`)."""
    return a.degree == b.degree and _deviation(a, functools.partial(_circle_values, b)) <= tol


def recover_constant(
    zeros: Sequence[complex],
    reference: Callable[[Sequence[complex]], Sequence[complex]],
    inner: Optional[BlaschkeProduct] = None,
) -> complex:
    """Unimodular c with ``c * prod (w-a)/(1-conj(a) w) = reference(z)``, w = inner(z).

    Without ``inner``, w is z.  The equation is solved at z = 1 on the unit
    circle, where every factor has modulus 1: none vanishes, and the product
    cannot underflow or overflow, at any degree.  Unless the solution at
    z = i agrees within ``CONSTANT_RECOVERY_TOL``, :class:`NormalizationError`
    is raised.  Not at -1: for zeros symmetric about the real axis both
    solutions at 1 and -1 are real, and a misfit could agree there.
    ``reference`` and ``inner`` take the points 1 and i in one batch.
    """
    points = [1.0 + 0j, 1j]
    images = points if inner is None else _circle_values(inner, points)
    at_one, at_i = (
        value / math.prod((w - a) / (1.0 - a.conjugate() * w) for a in zeros)
        for value, w in zip(reference(points), images)
    )
    if not abs(at_one - at_i) <= CONSTANT_RECOVERY_TOL:
        raise NormalizationError(f"the constant read at 1 and at i differs by {abs(at_one - at_i):.3e}")
    return at_one / abs(at_one)


def _aberth(
    newton: Callable[[complex], tuple[complex, bool]], count: int, radius: float, limit: int, disk: bool
) -> tuple[list[complex], int]:
    """Aberth-Ehrlich on ``count`` simultaneous roots, in place: the roots and the number of sweeps run.

    ``newton(z)`` gives the Newton ratio f(z)/f'(z) and whether z has settled.
    The roots start equispaced on the ring of radius ``radius``, turned so
    that symmetric inputs do not trap them on an axis.  A root stops once
    settled or after a step of at most 4 eps (1 + |z|); a non-finite step, on
    a pole, another root or a critical point, becomes a small nudge.  With
    ``disk``, an iterate that would leave the disk is pulled back halfway to
    the circle.  At most ``limit`` sweeps run.
    """
    roots = [radius * cmath.exp(1j * (2 * math.pi * (k + 0.35) / count + 0.5)) for k in range(count)]
    active, sweeps = list(range(count)), 0
    while active and sweeps < limit:
        still, sweeps = [], sweeps + 1
        for i in active:
            z = roots[i]
            try:
                ratio, settled = newton(z)
                if settled:
                    continue
                repel = 0j
                for j, r in enumerate(roots):
                    if j != i:
                        repel += 1.0 / (z - r)
                step = ratio / (1.0 - ratio * repel)
            except ZeroDivisionError:
                step = math.nan
            if not cmath.isfinite(step):
                step = (1e-6 + 1e-6j) * (1.0 + abs(z))
            new = z - step
            roots[i] = new if not disk or abs(new) < 1.0 else new * 0.5 * (1.0 + abs(z)) / abs(new)
            if not abs(step) <= 4.0 * sys.float_info.epsilon * (1.0 + abs(z)):
                still.append(i)
        active = still
    return roots, sweeps


def _disk_preimages(inner: BlaschkeProduct, b: complex) -> list[complex]:
    """The d solutions of D(z) = b, |b| < 1, all in the disk: the roots of c P - b Q.

    :func:`_aberth` in the disk from a ring of radius 0.6, with the Newton
    ratio (D - b)/(D S1 - b S2), S1 = sum 1/(z - a), S2 = -sum conj(a)/(1 - conj(a) z),
    from the factors.  Raises :class:`NonConvergence` when |D(z) - b| exceeds
    ``PREIMAGE_PHASE_TOL`` plus ``PREIMAGE_ROUNDING`` (1 + sum 1/|z - a| + 1/|1 - conj(a) z|),
    the rounding of D near z, and :class:`DomainError` within ``OPEN_DISK_MARGIN`` of the circle.
    """
    if b == 0:
        return list(inner.zeros)
    c, pairs = inner.constant, [(a, a.conjugate()) for a in inner.zeros]

    def newton(z: complex) -> tuple[complex, bool]:
        value, s1, s2 = c, 0j, 0j
        for a, ac in pairs:
            u, w = z - a, 1.0 / (1.0 - ac * z)
            value, s1, s2 = value * u * w, s1 + 1.0 / u, s2 + ac * w
        return (value - b) / (value * s1 + b * s2), False

    roots, _ = _aberth(newton, inner.degree, 0.6, PREIMAGE_MAX_STEPS, True)
    for z, residual in zip(roots, [abs(value - b) for value in _values(inner, roots)]):
        if not residual <= PREIMAGE_PHASE_TOL:
            reach = sum(1.0 / max(abs(z - a), sys.float_info.min) + 1.0 / abs(1.0 - ac * z) for a, ac in pairs)
            bound = PREIMAGE_PHASE_TOL + PREIMAGE_ROUNDING * (1.0 + reach)
            if not residual <= bound:
                raise NonConvergence(
                    f"residual {residual:.3e} of inner(z) = {b!r} at z = {z!r} exceeds {bound:.3e}"
                )
        if abs(z) > 1.0 - OPEN_DISK_MARGIN:
            raise DomainError(f"composed zero {z!r} lies within {OPEN_DISK_MARGIN} of the unit circle")
    return roots


def blaschke_compose(outer: BlaschkeProduct, inner: BlaschkeProduct) -> BlaschkeProduct:
    """``outer ∘ inner``: zeros from :func:`_disk_preimages`, constant from :func:`recover_constant`."""
    zeros = [z for b in outer.zeros for z in _disk_preimages(inner, b)]
    composed = recover_constant(zeros, lambda points: _circle_values(outer, _circle_values(inner, points)))
    return BlaschkeProduct(composed, tuple(zeros))


def _boundary_phase(
    terms: Sequence[tuple[float, float, float]], base: float, t: float
) -> tuple[float, float]:
    """Phase Phi(t) of B(e^(it)), continuous in t, and Phi'(t) > 0.

    ``terms`` holds (Re a, Im a, 1 - |a|^2) per zero and ``base`` is arg c.
    Each factor is e^(it) w / conj(w) with w = 1 - a e^(-it), whose real
    part is positive, so arg w needs no unwrapping.
    """
    cos_t, sin_t = math.cos(t), math.sin(t)
    phase, speed = base + len(terms) * t, 0.0
    for re, im, weight in terms:
        w_re = 1.0 - re * cos_t - im * sin_t
        w_im = re * sin_t - im * cos_t
        phase += 2.0 * math.atan2(w_im, w_re)
        speed += weight / (w_re * w_re + w_im * w_im)
    return phase, speed


def _solve_phase(
    terms: Sequence[tuple[float, float, float]],
    base: float,
    target: float,
    lo: float,
    hi: float,
    t: float,
) -> tuple[float, float, float]:
    """Newton on Phi(t) = target from t in the bracket [lo, hi]: (t, Phi - target, Phi').

    A start outside the bracket, a step that leaves it or a step longer than
    half of it is replaced by bisection, so the bracket shrinks and Newton
    cannot cycle between its ends.  Stops at a phase error within the
    rounding of the phase sum, at a step of at most 1e-15 or when the
    bracket is down to adjacent floats.
    """
    rounding = 2.0 * sys.float_info.epsilon * (abs(target) + 2.0 * math.pi * len(terms))
    if not lo <= t <= hi:
        t = 0.5 * (lo + hi)
    for _ in range(PREIMAGE_MAX_STEPS):
        phase, speed = _boundary_phase(terms, base, t)
        error = phase - target
        if error < 0.0:
            lo = t
        else:
            hi = t
        step = error / speed
        if abs(error) <= rounding or abs(step) <= 1e-15:
            break
        nxt = t - step
        if not lo < nxt < hi or abs(step) > 0.5 * (hi - lo):
            nxt = 0.5 * (lo + hi)
        if nxt == t:
            break
        t = nxt
    return t, error, speed


def _phase_points(product: BlaschkeProduct, lam: complex, picks: Iterable[int]) -> tuple[complex, ...]:
    """The boundary solutions of ``B(z) = lam`` at the ascending walk indices ``picks``.

    Walk index i is the solution of Phi(t) = arg lam + 2 pi (first + i), where
    ``first`` is the smallest k with a solution t >= 0, so the indices
    0, ..., n - 1 run through the solutions in [0, 2 pi) by increasing t.
    Each is found by safeguarded Newton, started at the previous solution
    plus the phase still to go over Phi' there, the previous solution being
    the low end of its bracket.  The points come back in the order of
    ``picks``; raises :class:`NonConvergence` as
    :func:`blaschke_preimages` does.
    """
    lam = require_finite(lam)
    if abs(abs(lam) - 1.0) > UNIT_MODULUS_TOL:
        raise DomainError(f"|lambda| = {abs(lam)!r} is not within {UNIT_MODULUS_TOL} of 1")
    terms = [(a.real, a.imag, 1.0 - abs(a) ** 2) for a in product.zeros]
    base = math.atan2(product.constant.imag, product.constant.real)
    theta, turn = math.atan2(lam.imag, lam.real), 2.0 * math.pi
    phase, speed = _boundary_phase(terms, base, 0.0)
    first = math.ceil((phase - theta) / turn)
    # Phase from t to the target of walk index ``reached``; 0 once t solves it.
    t, ahead, reached = 0.0, theta + turn * first - phase, 0
    points = []
    for i in picks:
        guess = t + (ahead + turn * (i - reached)) / speed
        t, error, speed = _solve_phase(terms, base, theta + turn * (first + i), t, turn, guess)
        if not abs(error) <= PREIMAGE_PHASE_TOL:
            cos_t, sin_t = math.cos(t), math.sin(t)
            reach = sum(1.0 / math.hypot(cos_t - re, sin_t - im) for re, im, _ in terms)
            bound = PREIMAGE_PHASE_TOL + PREIMAGE_ROUNDING * reach
            if not abs(error) <= bound:
                raise NonConvergence(
                    f"boundary phase error {abs(error):.3e} at t = {t!r} exceeds {bound:.3e}"
                )
        points.append(complex(math.cos(t), math.sin(t)))
        ahead, reached = 0.0, i
    return tuple(points)


def blaschke_preimages(product: BlaschkeProduct, lam: complex) -> tuple[complex, ...]:
    """The ``degree`` boundary solutions of ``B(z) = lam``, sorted by argument.

    B(e^(it)) = e^(i Phi(t)), where Phi(t) = arg c + n t + 2 sum arg(1 - a e^(-it))
    increases by 2 pi n over one turn, with Phi'(t) = sum (1 - |a|^2)/|1 - a e^(-it)|^2
    (Garcia, Mashreghi and Ross, *Finite Blaschke Products and Their
    Connections*, 2018).  The solutions are the t in [0, 2 pi) with
    Phi(t) = arg lam + 2 pi k, one per k.  Each is found by safeguarded
    Newton, started one predicted turn past the previous solution, which is
    also the low end of its bracket.  The points lie on the circle by
    construction.
    Raises :class:`NonConvergence` when a phase error |Phi(t) - target|
    exceeds ``PREIMAGE_PHASE_TOL`` plus ``PREIMAGE_ROUNDING`` * sum 1/|z - a|,
    the rounding error of Phi at t.  That sum bounds ``|B(z) - lam|`` too.
    The rounding term is large only next to a zero near the circle, where B
    is so steep that no double z does better.
    """
    points = _phase_points(product, lam, range(product.degree))
    return tuple(sorted(points, key=lambda z: math.atan2(z.imag, z.real)))
