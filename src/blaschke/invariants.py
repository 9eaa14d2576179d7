"""Invariant groups: transformations M with B ∘ M = B.

A canonical product built on a closed orbit of 0 is invariant under the
generating transformation, and conversely the invariants of a canonical
product form a cyclic group whose order divides the degree.  This module
constructs products from orbits and recovers the group from a product.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Callable, Sequence

from .errors import BadShape, OrbitDegenerate, OrbitNotClosed, Record
from .moebius import (
    GROUP_MATCH_TOL,
    IDENTITY_TOL,
    ORBIT_CLOSURE_TOL,
    ORBIT_DISTINCT_TOL,
    MoebiusTransform,
    _order,
    moebius_iterate_zero,
    moebius_order,
)
from .products import ORIGIN_ZERO_TOL, BlaschkeProduct, _circle_values, _deviation, is_canonical


class InvariantGroup(Record):
    """A cyclic group of invariants, given by a generator and its order.

    ``identity_tol`` is the parameter distance at which an iterate counts as
    the identity; generators recovered from low-precision constants need a
    looser value than the default.  It takes no part in equality or repr.
    """

    _fields = ("generator", "order")
    generator: MoebiusTransform
    order: int
    identity_tol: float

    def __init__(self, generator: MoebiusTransform, order: int, identity_tol: float = IDENTITY_TOL) -> None:
        if order < 2:
            raise ValueError("an invariant group has order at least 2")
        if moebius_order(generator, order, identity_tol) != order:
            raise ValueError("generator order does not match the declared order")
        self._set(generator=generator, order=order, identity_tol=identity_tol)


def construct_invariant_product(
    m: MoebiusTransform,
    n: int,
    distinct_tol: float = ORBIT_DISTINCT_TOL,
    closure_tol: float = ORBIT_CLOSURE_TOL,
) -> BlaschkeProduct:
    """Canonical product with zero set ``{0, M(0), ..., M^{n-1}(0)}``.

    The orbit must return to 0 after n steps and, unless ``distinct_tol`` is
    zero, consist of pairwise distinct points.  For n = 1 the product is the
    empty-product case B(z) = z for any transformation.
    """
    if not (distinct_tol >= 0 and closure_tol >= 0):
        raise ValueError(f"tolerances must be nonnegative, got {distinct_tol!r} and {closure_tol!r}")
    if n == 1:
        return BlaschkeProduct(1.0, (0j,))
    orbit = moebius_iterate_zero(m, n, closure_tol)
    if not orbit.closes:
        raise OrbitNotClosed(f"orbit does not return to 0 within {closure_tol} after {n} steps")
    if orbit.min_pairwise_gap < distinct_tol:
        raise OrbitDegenerate(
            f"orbit points collide: min gap {orbit.min_pairwise_gap:.3e} < {distinct_tol}"
        )
    return BlaschkeProduct(1.0, orbit.points)


def verify_invariance(product: BlaschkeProduct, m: MoebiusTransform, samples: int | None = None) -> float:
    """Max of ``|B(M(z)) - B(z)|`` over ``degree + 1 + samples`` points of the circle.

    B ∘ M - B is analytic on the closed disk, so by the maximum modulus
    principle its largest value is taken on the unit circle, where |B| = 1
    at every degree; the points are equally spaced there.  Both sides are
    degree-n products, which agree everywhere once they agree at 2n + 1
    points of the circle, so ``samples >= degree`` decides equality.  The
    default, ``samples = degree``, reads those 2n + 1 points, the table that
    :func:`find_invariant_group` checks.  M maps the circle to itself, so
    B(M(z)) is taken there as B(z) is, one multiply per zero, and compared
    with B's memoised values by ``products._deviation``.
    """
    n = product.degree
    samples = n if samples is None else samples
    if samples < n:
        raise ValueError(f"need at least degree = {n} samples, got {samples}")
    return _deviation(product, _composed(product, m.c, m.alpha), n + 1 + samples)


def _composed(product: BlaschkeProduct, c: complex, alpha: complex) -> Callable[[Sequence[complex]], list[complex]]:
    # The batch z -> B(M(z)) on the circle, M with parameters c and alpha;
    # M maps the circle to itself.
    alphac = alpha.conjugate()
    return lambda points: _circle_values(product, [c * (z - alpha) / (1.0 - alphac * z) for z in points])


def _unique_candidates(product: BlaschkeProduct, tol: float) -> list[tuple[complex, complex]]:
    """Distinct candidate invariants read off the zero set of ``product``, as pairs (c, alpha).

    Each pair is a valid map: c is unimodular by construction and alpha is
    a zero of the product.
    """
    nonzero = [(z, abs(z)) for z in product.zeros if abs(z) > ORIGIN_ZERO_TOL]
    candidates = [(-aj / al / abs(aj / al), al) for aj, rj in nonzero for al, rl in nonzero if abs(rj - rl) <= tol]
    # A rotation fixes 0, which the pole-at-a-zero form cannot express.  With
    # B(z) = z^k g(z) and g(0) != 0, B(wz) = B(z) forces w^k = 1 at z = 0:
    # the rotations by the k-th roots of unity other than 1.
    k = product.degree - len(nonzero)
    candidates += [(cmath.exp(2j * math.pi * j / k), 0j) for j in range(1, k)]
    # Equal zeros give equal candidates; the first of each is kept, in order.
    return list(dict.fromkeys(candidates))


def find_invariant_group(product: BlaschkeProduct, tol: float = GROUP_MATCH_TOL) -> tuple[InvariantGroup, ...]:
    """The invariant group of a canonical product (a tuple of at most one).

    Candidates come from the structure of the zero set.  An invariant that
    moves 0 must send the origin-orbit around the nonzero zeros, forcing the
    pole parameter to be a zero a_l and the constant to be -a_j / a_l for a
    zero a_j of equal modulus.  One that fixes 0 is a rotation, by a k-th
    root of unity when 0 is a zero of multiplicity k.

    Candidates are ranked by order (largest first), then by the phases of c and
    alpha.  Each must keep ``|B(M(z)) - B(z)| <= tol`` at the 2n + 1 circle
    points that decide equality, as ``verify_invariance(product, M)`` does, in
    one batch.  On the circle |B| = 1 at every degree, so a map that (nearly)
    permutes the zeros without being invariant leaves a residual there that the
    small values |B| takes inside the disk at high degree cannot hide.  B's
    values at the circle points are taken once per product, shared with the
    round trip of a split (``products._deviation``), as c P(z) / (z^n
    conj(P(z))) with P(z) = prod (z - a), one multiply per zero.  A candidate
    of order 1 is the identity within the identity tolerance and is skipped.
    The first candidate that passes, with an order dividing the degree, generates the
    group: the invariants of a finite Blaschke product form a finite, hence
    cyclic, subgroup of the disk automorphisms, so every other invariant is one
    of its powers.  Candidates are ranked and vetted as raw (c, alpha) pairs; a
    :class:`MoebiusTransform` is built only for the generator and for a
    candidate reported by a warning.
    """
    if not tol >= 0:
        raise ValueError(f"tolerance must be nonnegative, got {tol!r}")
    if not is_canonical(product):
        raise BadShape("invariant search requires a canonical product")
    n = product.degree
    if n < 2:
        raise BadShape("invariant search requires degree >= 2")

    identity_tol, turn = max(IDENTITY_TOL, tol), 2 * math.pi
    ranked = sorted(
        ((_order(c, alpha, n, identity_tol), c, alpha) for c, alpha in _unique_candidates(product, tol)),
        key=lambda item: (
            item[0] is None, -(item[0] or 0), cmath.phase(item[1]) % turn, cmath.phase(item[2]) % turn
        ),
    )
    for order, c, alpha in ranked:
        if order == 1 or _deviation(product, _composed(product, c, alpha)) > tol:
            continue
        if order is None or n % order:
            cand = MoebiusTransform(c, alpha)
            warnings.warn(
                f"invariant candidate {cand!r} has order {order!r} inconsistent with degree {n}", stacklevel=2
            )
            continue
        return (InvariantGroup(MoebiusTransform(c, alpha), order, identity_tol),)
    return ()
