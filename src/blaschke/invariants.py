"""Invariant groups: transformations M with B ∘ M = B.

A canonical product built on a closed orbit of 0 is invariant under the
generating transformation, and conversely the invariants of a canonical
product form a cyclic group whose order divides the degree.  This module
constructs products from orbits and recovers the group from a product.
"""

from __future__ import annotations

import cmath
import math
import random
import warnings
from dataclasses import dataclass, field

from .errors import BadShape, OrbitDegenerate, OrbitNotClosed
from .moebius import (
    IDENTITY_TOL,
    ORBIT_CLOSURE_TOL,
    ORBIT_DISTINCT_TOL,
    MoebiusTransform,
    moebius_compose,
    moebius_eval,
    moebius_iterate_zero,
    moebius_order,
)
from .products import (
    ORIGIN_ZERO_TOL,
    BlaschkeProduct,
    blaschke_eval,
    canonical_form,
    probe_points,
)

# Seed for the pseudo-random probe points; fixed so verification runs are
# reproducible.
PROBE_SEED = 271828
GROUP_MATCH_TOL = 1e-7


@dataclass(frozen=True)
class InvariantGroup:
    """A cyclic group of invariants, given by a generator and its order.

    ``identity_tol`` is the parameter distance at which an iterate counts as
    the identity; generators recovered from low-precision constants need a
    looser value than the default.
    """

    generator: MoebiusTransform
    order: int
    identity_tol: float = field(default=IDENTITY_TOL, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.order < 2:
            raise ValueError("an invariant group has order at least 2")
        if moebius_order(self.generator, self.order, self.identity_tol) != self.order:
            raise ValueError("generator order does not match the declared order")


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


def verify_invariance(product: BlaschkeProduct, m: MoebiusTransform, samples: int) -> float:
    """Max of ``|B(M(z)) - B(z)|`` over the probe set.

    The probe set is the equality-oracle probes plus ``samples`` seeded
    pseudo-random interior points.
    """
    if samples < product.degree + 1:
        raise ValueError("need at least degree + 1 samples")
    return max(_residual(product, m, z) for z in _oracle_points(product, samples))


def _oracle_points(product: BlaschkeProduct, samples: int) -> list[complex]:
    rng = random.Random(PROBE_SEED)
    pts = list(probe_points(product.degree, product.zeros))
    for _ in range(samples):
        r = 0.9 * math.sqrt(rng.random())
        pts.append(r * cmath.exp(2j * math.pi * rng.random()))
    return pts


def _residual(product: BlaschkeProduct, m: MoebiusTransform, z: complex) -> float:
    return abs(blaschke_eval(product, moebius_eval(m, z)) - blaschke_eval(product, z))


def _rotation_candidates(degree: int) -> list[MoebiusTransform]:
    return [
        MoebiusTransform(cmath.exp(2j * math.pi * j / degree), 0j) for j in range(1, degree)
    ]


def _params_close(a: MoebiusTransform, b: MoebiusTransform, tol: float) -> bool:
    return abs(a.c - b.c) <= tol and abs(a.alpha - b.alpha) <= tol


def _unique_candidates(product: BlaschkeProduct, tol: float) -> list[MoebiusTransform]:
    """Distinct candidate invariants read off the zero set of ``product``."""
    n = product.degree
    nonzero = [z for z in product.zeros if abs(z) > ORIGIN_ZERO_TOL]
    origin_count = n - len(nonzero)

    candidates: list[MoebiusTransform] = []
    if not nonzero:
        candidates.extend(_rotation_candidates(n))
    else:
        for aj in nonzero:
            for al in nonzero:
                if abs(abs(aj) - abs(al)) > tol:
                    continue
                c = -aj / al
                candidates.append(MoebiusTransform(c / abs(c), al))
        if origin_count >= 2:
            # A repeated origin zero also admits rotation invariants that the
            # pole-at-a-zero form cannot express.
            for aj in nonzero:
                for al in nonzero:
                    if aj is al or abs(abs(aj) - abs(al)) > tol:
                        continue
                    w = aj / al
                    if abs(w - 1.0) <= IDENTITY_TOL:
                        continue
                    candidates.append(MoebiusTransform(w / abs(w), 0j))

    unique: list[MoebiusTransform] = []
    for cand in candidates:
        if not any(_params_close(cand, seen, 1e-9) for seen in unique):
            unique.append(cand)
    return unique


def find_invariant_group(product: BlaschkeProduct, tol: float = GROUP_MATCH_TOL) -> tuple[InvariantGroup, ...]:
    """All cyclic groups of invariants of a canonical product.

    Candidates come from the structure of the zero set: a pure power of z is
    only invariant under rotations by roots of unity, and otherwise any
    invariant must send the origin-orbit around the nonzero zeros, forcing
    the pole parameter to be a zero a_l and the constant to be -a_j / a_l
    for a zero a_j of equal modulus.

    Candidates are ranked by order (largest first), then by the phases of c
    and alpha.  A candidate equal to a power of an already accepted
    generator is skipped, since it is invariant whenever the generator is.
    Any other candidate must first keep ``|B(M(z)) - B(z)| <= tol`` at the
    zeros of B and at the point of the oracle's probe set where |B| is
    largest, and only then faces the full :func:`verify_invariance` oracle;
    each accepted generator has passed it.
    """
    if not canonical_form(product).is_canonical:
        raise BadShape("invariant search requires a canonical product")
    n = product.degree
    if n < 2:
        raise BadShape("invariant search requires degree >= 2")

    identity_tol = max(IDENTITY_TOL, tol)
    power_tol = max(tol, 10 * identity_tol)
    ranked = sorted(
        ((moebius_order(cand, n, identity_tol), cand) for cand in _unique_candidates(product, tol)),
        key=lambda item: (
            item[0] is None,
            -(item[0] or 0),
            cmath.phase(item[1].c) % (2 * math.pi),
            cmath.phase(item[1].alpha) % (2 * math.pi),
        ),
    )
    # An invariant maps zeros to zeros.  Maps that (nearly) permute the zeros
    # but are not invariant leave a residual of order |B|, which is tiny
    # near clustered zeros; the oracle point where |B| is largest shows it.
    # It is found only once a candidate passes the zeros, which most fail.
    loudest = None
    groups: list[InvariantGroup] = []
    powers: list[MoebiusTransform] = []
    for order, cand in ranked:
        consistent = order is not None and n % order == 0
        if consistent and any(_params_close(power, cand, power_tol) for power in powers):
            continue
        if any(_residual(product, cand, z) > tol for z in product.zeros):
            continue
        if loudest is None:
            loudest = max(
                _oracle_points(product, n + 1), key=lambda z: abs(blaschke_eval(product, z))
            )
        if _residual(product, cand, loudest) > tol:
            continue
        if verify_invariance(product, cand, n + 1) > tol:
            continue
        if not consistent:
            warnings.warn(
                f"invariant candidate {cand!r} has order {order!r} inconsistent with degree {n}",
                stacklevel=2,
            )
            continue
        groups.append(InvariantGroup(cand, order, identity_tol))
        power = cand
        for _ in range(order):
            powers.append(power)
            power = moebius_compose(power, cand)
    return tuple(groups)
