"""Explicit decompositions B = outer ∘ inner of finite Blaschke products.

Three routes are implemented: the general construction from an invariant
group (inner is a k-th power of a disk automorphism centered at the fixed
point), and two structured-zero constructions for degrees 2n and 3n whose
zero conditions can be checked and searched directly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import (
    BadShape,
    BlaschkeError,
    ConditionsUnsatisfied,
    DecompositionError,
    NoInteriorFixedPoint,
    NormalizationError,
    OrbitClusterError,
)
from .invariants import InvariantGroup, find_invariant_group
from .moebius import moebius_fixed_point_in_disk, moebius_power
from .products import (
    ORIGIN_ZERO_TOL,
    BlaschkeProduct,
    blaschke_compose,
    blaschke_equal,
    blaschke_eval,
    canonical_form,
    probe_points,
)

ROUNDTRIP_TOL = 1e-7
CONDITION_TOL = 1e-7
CLUSTER_TOL = 1e-7


class DecompositionSource(enum.Enum):
    INVARIANT_GROUP = "invariants"
    PAIRED_ZEROS_2N = "paired"
    TRIPLED_ZEROS_3N = "tripled"


@dataclass(frozen=True)
class Decomposition:
    inner: BlaschkeProduct
    outer: BlaschkeProduct
    source: DecompositionSource


@dataclass(frozen=True)
class StructuredZeroConditions:
    residuals: tuple[complex, ...]
    satisfied: bool


def _checked(
    inner: BlaschkeProduct,
    outer: BlaschkeProduct,
    original: BlaschkeProduct,
    source: DecompositionSource,
) -> Decomposition:
    if inner.degree * outer.degree != original.degree:
        raise DecompositionError(
            f"degree law violated: {inner.degree} * {outer.degree} != {original.degree}"
        )
    if not blaschke_equal(blaschke_compose(outer, inner), original, ROUNDTRIP_TOL):
        raise DecompositionError("composition of the factors does not reproduce the product")
    return Decomposition(inner, outer, source)


def roundtrip_residual(dec: Decomposition, original: BlaschkeProduct) -> float:
    """Max pointwise deviation of ``outer(inner(z))`` from the original."""
    pts = probe_points(original.degree, original.zeros)
    return max(
        abs(blaschke_eval(dec.outer, blaschke_eval(dec.inner, z)) - blaschke_eval(original, z))
        for z in pts
    )


def decompose_via_invariants(product: BlaschkeProduct, group: InvariantGroup) -> Decomposition:
    """Split a product invariant under a group of order k into degrees (k, n/k).

    The inner factor is ``((z - g) / (1 - conj(g) z))^k`` for the generator's
    interior fixed point g; it is itself invariant under the generator, so
    it collapses each zero orbit to a single value, and those values are the
    outer factor's zeros.
    """
    k = group.order
    n = product.degree
    if n % k != 0:
        raise BadShape(f"group order {k} does not divide degree {n}")
    gamma = moebius_fixed_point_in_disk(group.generator)
    if gamma is None:
        raise NoInteriorFixedPoint("generator has no fixed point inside the open disk")
    inner = BlaschkeProduct(1.0, (gamma,) * k)
    images = [blaschke_eval(inner, a) for a in product.zeros]
    cluster_tol = CLUSTER_TOL * n
    clusters: list[list[complex]] = []
    for w in images:
        for cluster in clusters:
            if abs(w - cluster[0]) <= cluster_tol:
                cluster.append(w)
                break
        else:
            clusters.append([w])
    outer_zeros: list[complex] = []
    for cluster in clusters:
        if len(cluster) % k != 0:
            raise OrbitClusterError(
                f"cluster of {len(cluster)} zero images is not a multiple of the order {k}"
            )
        mean = sum(cluster) / len(cluster)
        outer_zeros.extend([mean] * (len(cluster) // k))
    outer_constant = _match_constant(product, inner, outer_zeros)
    outer = BlaschkeProduct(outer_constant, tuple(outer_zeros))
    return _checked(inner, outer, product, DecompositionSource.INVARIANT_GROUP)


def _match_constant(
    product: BlaschkeProduct, inner: BlaschkeProduct, outer_zeros: Sequence[complex]
) -> complex:
    # Solve B(z0) = c * plain(inner(z0)) for c at a probe z0, then project c
    # onto the unit circle.
    plain = BlaschkeProduct(1.0, tuple(outer_zeros))
    golden = math.pi * (math.sqrt(5) - 1)
    for k in range(64):
        z0 = 0.53 * complex(math.cos(0.37 + golden * k), math.sin(0.37 + golden * k))
        denom = blaschke_eval(plain, blaschke_eval(inner, z0))
        if abs(denom) <= 1e-9:
            continue
        constant = blaschke_eval(product, z0) / denom
        if abs(abs(constant) - 1.0) > 1e-6:
            raise NormalizationError(
                f"recovered outer constant has modulus {abs(constant)!r}, too far from 1"
            )
        return constant / abs(constant)
    raise NormalizationError("no usable probe point for outer constant recovery")


def check_paired_conditions_2n(
    product: BlaschkeProduct,
    a1_index: int,
    pairing: Sequence[tuple[int, int]],
    tol: float = CONDITION_TOL,
) -> StructuredZeroConditions:
    """Residuals of ``a1 + conj(a1) p q - p - q`` for the caller's pairing.

    ``a1_index`` distinguishes one nonzero zero; ``pairing`` must match up
    the remaining zeros, apart from one origin zero absorbed by the leading
    factor z.
    """
    zeros = product.zeros
    n = product.degree
    if n % 2 != 0:
        raise BadShape("paired conditions need even degree")
    if not canonical_form(product).is_canonical:
        raise BadShape("paired conditions need a canonical product")
    used = [a1_index]
    for i, j in pairing:
        used.extend((i, j))
    if len(set(used)) != len(used) or not all(0 <= i < n for i in used):
        raise BadShape("indices must be distinct and in range")
    leftover = set(range(n)) - set(used)
    if len(leftover) != 1 or abs(zeros[next(iter(leftover))]) > ORIGIN_ZERO_TOL:
        raise BadShape("pairing must cover all zeros except one origin zero")
    a1 = zeros[a1_index]
    residuals = tuple(
        a1 + a1.conjugate() * zeros[i] * zeros[j] - zeros[i] - zeros[j] for i, j in pairing
    )
    satisfied = max((abs(r) for r in residuals), default=0.0) <= tol
    return StructuredZeroConditions(residuals, satisfied)


def _match_pairs(
    zeros: Sequence[complex], a1: complex, indices: list[int], tol: float
) -> Optional[list[tuple[int, int]]]:
    if not indices:
        return []
    first, rest = indices[0], indices[1:]
    ranked = sorted(
        range(len(rest)),
        key=lambda k: abs(
            a1 + a1.conjugate() * zeros[first] * zeros[rest[k]] - zeros[first] - zeros[rest[k]]
        ),
    )
    for k in ranked:
        partner = rest[k]
        residual = a1 + a1.conjugate() * zeros[first] * zeros[partner] - zeros[first] - zeros[partner]
        if abs(residual) > tol:
            break  # ranked ascending: no later partner can pass either
        tail = _match_pairs(zeros, a1, rest[:k] + rest[k + 1 :], tol)
        if tail is not None:
            return [(first, partner)] + tail
    return None


def decompose_paired_2n(
    product: BlaschkeProduct, a1_index: int, tol: float = CONDITION_TOL
) -> Decomposition:
    """Decompose an even-degree canonical product through a degree-2 inner.

    Inner is ``z (z - a1) / (1 - conj(a1) z)``; the outer zeros are
    ``-p q`` over a perfect matching (p, q) of the remaining zeros found by
    backtracking search on the pairing residuals.
    """
    zeros = product.zeros
    n = product.degree
    if n % 2 != 0:
        raise BadShape("paired decomposition needs even degree")
    if not canonical_form(product).is_canonical:
        raise BadShape("paired decomposition needs a canonical product")
    if not 0 <= a1_index < n:
        raise BadShape("a1 index out of range")
    a1 = zeros[a1_index]
    if abs(a1) <= ORIGIN_ZERO_TOL:
        raise ConditionsUnsatisfied("the distinguished zero a1 must be nonzero")
    origin_index = next(
        (i for i, z in enumerate(zeros) if i != a1_index and abs(z) <= ORIGIN_ZERO_TOL), None
    )
    if origin_index is None:
        raise BadShape("no origin zero left for the canonical factor")
    remaining = [i for i in range(n) if i not in (a1_index, origin_index)]
    pairing = _match_pairs(zeros, a1, remaining, tol)
    if pairing is None:
        raise ConditionsUnsatisfied("no pairing of the remaining zeros satisfies the conditions")
    inner = BlaschkeProduct(1.0, (0j, a1))
    outer = BlaschkeProduct(1.0, (0j,) + tuple(-zeros[i] * zeros[j] for i, j in pairing))
    return _checked(inner, outer, product, DecompositionSource.PAIRED_ZEROS_2N)


def _triple_residuals(
    a1: complex, a2: complex, t1: complex, t2: complex, t3: complex
) -> tuple[complex, complex]:
    prod3 = t1 * t2 * t3
    r1 = a1 + a2 + prod3 * (a1 * a2).conjugate() - (t1 + t2 + t3)
    r2 = a1 * a2 + prod3 * (a1.conjugate() + a2.conjugate()) - (t1 * t2 + t1 * t3 + t2 * t3)
    return r1, r2


def check_tripled_conditions_3n(
    product: BlaschkeProduct,
    a1_index: int,
    a2_index: int,
    triples: Sequence[tuple[int, int, int]],
    tol: float = CONDITION_TOL,
) -> StructuredZeroConditions:
    """Residual pairs of the two triple conditions for the caller's grouping."""
    zeros = product.zeros
    n = product.degree
    if n % 3 != 0:
        raise BadShape("tripled conditions need degree divisible by 3")
    if not canonical_form(product).is_canonical:
        raise BadShape("tripled conditions need a canonical product")
    used = [a1_index, a2_index]
    for t in triples:
        used.extend(t)
    if len(set(used)) != len(used) or not all(0 <= i < n for i in used):
        raise BadShape("indices must be distinct and in range")
    leftover = set(range(n)) - set(used)
    if len(leftover) != 1 or abs(zeros[next(iter(leftover))]) > ORIGIN_ZERO_TOL:
        raise BadShape("triples must cover all zeros except one origin zero")
    a1, a2 = zeros[a1_index], zeros[a2_index]
    if abs(a1) <= ORIGIN_ZERO_TOL or abs(a2) <= ORIGIN_ZERO_TOL:
        raise BadShape("the distinguished zeros a1, a2 must be nonzero")
    residuals: list[complex] = []
    for i, j, k in triples:
        residuals.extend(_triple_residuals(a1, a2, zeros[i], zeros[j], zeros[k]))
    satisfied = max((abs(r) for r in residuals), default=0.0) <= tol
    return StructuredZeroConditions(tuple(residuals), satisfied)


Designation = tuple[int, int, tuple[tuple[int, int, int], ...]]


def _match_triples(
    zeros: Sequence[complex], a1: complex, a2: complex, indices: list[int], tol: float
) -> Optional[list[tuple[int, int, int]]]:
    if not indices:
        return []
    first, rest = indices[0], indices[1:]
    options = []
    for x in range(len(rest)):
        for y in range(x + 1, len(rest)):
            r1, r2 = _triple_residuals(a1, a2, zeros[first], zeros[rest[x]], zeros[rest[y]])
            options.append((max(abs(r1), abs(r2)), x, y))
    options.sort()
    for worst, x, y in options:
        if worst > tol:
            break
        tail_indices = [rest[k] for k in range(len(rest)) if k not in (x, y)]
        tail = _match_triples(zeros, a1, a2, tail_indices, tol)
        if tail is not None:
            return [(first, rest[x], rest[y])] + tail
    return None


def decompose_tripled_3n(
    product: BlaschkeProduct,
    designation: Optional[Designation] = None,
    tol: float = CONDITION_TOL,
) -> Decomposition:
    """Decompose a degree-3n canonical product through a degree-3 inner.

    Inner is ``z (z - a1)(z - a2) / ((1 - conj(a1) z)(1 - conj(a2) z))``; the
    outer zeros are the products ``t1 t2 t3`` over the triples.  Without a
    caller-supplied designation, all choices of (a1, a2) and all partitions
    of the remaining zeros into triples are searched.
    """
    zeros = product.zeros
    n = product.degree
    if n % 3 != 0:
        raise BadShape("tripled decomposition needs degree divisible by 3")
    if not canonical_form(product).is_canonical:
        raise BadShape("tripled decomposition needs a canonical product")

    if designation is not None:
        a1_index, a2_index, triples = designation
        conditions = check_tripled_conditions_3n(product, a1_index, a2_index, triples, tol)
        if not conditions.satisfied:
            raise ConditionsUnsatisfied("designated triples violate the conditions")
        return _build_tripled(product, a1_index, a2_index, triples)

    origin_indices = [i for i, z in enumerate(zeros) if abs(z) <= ORIGIN_ZERO_TOL]
    if not origin_indices:
        raise BadShape("tripled decomposition needs a canonical product")
    nonzero_indices = [i for i, z in enumerate(zeros) if abs(z) > ORIGIN_ZERO_TOL]
    for origin in origin_indices:
        rest = [i for i in range(n) if i != origin]
        for p in range(len(rest)):
            for q in range(p + 1, len(rest)):
                i1, i2 = rest[p], rest[q]
                if i1 not in nonzero_indices or i2 not in nonzero_indices:
                    continue
                others = [i for i in rest if i not in (i1, i2)]
                triples = _match_triples(zeros, zeros[i1], zeros[i2], others, tol)
                if triples is not None:
                    return _build_tripled(product, i1, i2, tuple(triples))
    raise ConditionsUnsatisfied("no designation of zeros satisfies the triple conditions")


def _build_tripled(
    product: BlaschkeProduct,
    a1_index: int,
    a2_index: int,
    triples: Sequence[tuple[int, int, int]],
) -> Decomposition:
    zeros = product.zeros
    inner = BlaschkeProduct(1.0, (0j, zeros[a1_index], zeros[a2_index]))
    outer = BlaschkeProduct(
        1.0, (0j,) + tuple(zeros[i] * zeros[j] * zeros[k] for i, j, k in triples)
    )
    return _checked(inner, outer, product, DecompositionSource.TRIPLED_ZEROS_3N)


def decompose_invariants_search(product: BlaschkeProduct) -> Decomposition:
    """First split through a subgroup of an invariant group of the product.

    For each group, in the order :func:`find_invariant_group` returns them,
    the subgroups of order d are tried with d ascending.  The subgroup of the
    full degree is skipped: it only gives the trivial split with an outer
    factor of degree 1.
    """
    failures: list[str] = []
    for group in find_invariant_group(product):
        for d in range(2, group.order + 1):
            if group.order % d or d == product.degree:
                continue
            element = moebius_power(group.generator, group.order // d)
            try:
                return decompose_via_invariants(product, InvariantGroup(element, d))
            except BlaschkeError as exc:
                failures.append(f"order {d}: {exc}")
    raise DecompositionError(
        "no invariant group yields a nontrivial decomposition"
        + (": " + "; ".join(failures) if failures else "")
    )


def decompose_paired_search(product: BlaschkeProduct, tol: float = CONDITION_TOL) -> Decomposition:
    """First paired split over the choices of the distinguished zero a1."""
    if product.degree % 2 != 0:
        raise ConditionsUnsatisfied("paired decomposition needs even degree")
    failures: list[str] = []
    tried = set()
    for idx, z in enumerate(product.zeros):
        if abs(z) <= ORIGIN_ZERO_TOL or z in tried:
            continue
        tried.add(z)
        try:
            return decompose_paired_2n(product, idx, tol)
        except BlaschkeError as exc:
            failures.append(f"a1 index {idx}: {exc}")
    raise ConditionsUnsatisfied(
        "no distinguished zero admits a pairing" + (": " + "; ".join(failures) if failures else "")
    )


def decompose_auto(product: BlaschkeProduct, tol: float = CONDITION_TOL) -> Decomposition:
    """First decomposition found trying invariants, then paired, then tripled.

    A route that fails with a :class:`BlaschkeError` passes on to the next
    one; any other exception propagates.
    """
    routes = (
        ("invariants", lambda: decompose_invariants_search(product)),
        ("paired", lambda: decompose_paired_search(product, tol)),
        ("tripled", lambda: decompose_tripled_3n(product, None, tol)),
    )
    failures: list[str] = []
    for name, route in routes:
        try:
            return route()
        except BlaschkeError as exc:
            failures.append(f"{name}: {exc}")
    raise DecompositionError("no decomposition route succeeded: " + "; ".join(failures))
