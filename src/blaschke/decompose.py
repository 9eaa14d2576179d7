"""Explicit decompositions B = outer ∘ inner of finite Blaschke products.

Every route proposes an inner factor of degree d and groups the zeros of B
into its fibers: the first image left and the d - 1 images nearest it.  If
B factors through the inner factor, the fiber images are the zeros of the
outer factor (Garcia–Mashreghi–Ross, *Finite Blaschke Products and Their
Connections*, 2018).  The split is accepted only when outer(inner(z)) = B(z)
within ``ROUNDTRIP_TOL`` at the 2n + 1 unit-circle points of
:func:`roundtrip_residual`, which decide equality of degree-n products, so
no route takes a tolerance of its own.
A canonical B factors through at most one inner factor D of degree d with
D(0) = 0 and constant 1: B's boundary preimages of 1 fall into D's fibers
in a fixed cyclic pattern, and two of those fibers, 2d of the n preimages,
give D.  :func:`decompose_auto` tries it at each proper divisor d of the
degree.  At d = 2 and 3 it is the paper's ``z (z - a1)/(1 - conj(a1) z)``
and its degree-3 analogue, and every split through an invariant subgroup
of order d factors through it.  The paper's explicit routes are here too:
the invariant group's inner ``((z - g)/(1 - conj(g) z))^k`` at the
generator's interior fixed point g, and the paired and tripled zero
conditions, which are Vieta's formulas for such fibers, for a grouping the
caller supplies.
"""

from __future__ import annotations

import enum
import functools
import heapq
import math
from typing import Sequence

from .errors import (
    BadShape,
    BlaschkeError,
    ConditionsUnsatisfied,
    DecompositionError,
    NoInteriorFixedPoint,
    NormalizationError,
    Record,
)
from .invariants import InvariantGroup, find_invariant_group
from .moebius import moebius_fixed_point_in_disk
from .products import (
    ORIGIN_ZERO_TOL,
    BlaschkeProduct,
    _circle_values,
    _deviation,
    _phase_points,
    _values,
    is_canonical,
    recover_constant,
)

ROUNDTRIP_TOL = 1e-7
CONDITION_TOL = 1e-7


class DecompositionSource(enum.Enum):
    INVARIANT_GROUP = "invariants"
    PAIRED_ZEROS_2N = "paired"
    TRIPLED_ZEROS_3N = "tripled"
    BOUNDARY_FIBERS = "fibers"


_DEGREE_SOURCES = {2: DecompositionSource.PAIRED_ZEROS_2N, 3: DecompositionSource.TRIPLED_ZEROS_3N}


class Decomposition(Record):
    _fields = ("inner", "outer", "source")
    inner: BlaschkeProduct
    outer: BlaschkeProduct
    source: DecompositionSource

    def __init__(self, inner: BlaschkeProduct, outer: BlaschkeProduct, source: DecompositionSource) -> None:
        self._set(inner=inner, outer=outer, source=source)


class StructuredZeroConditions(Record):
    _fields = ("residuals", "satisfied")
    residuals: tuple[complex, ...]
    satisfied: bool

    def __init__(self, residuals: tuple[complex, ...], satisfied: bool) -> None:
        self._set(residuals=residuals, satisfied=satisfied)


def roundtrip_residual(dec: Decomposition, original: BlaschkeProduct) -> float:
    """Max deviation of ``outer(inner(z))`` from the original at 2n + 1 points of the unit circle.

    There |B| = 1 at every degree, and two degree-n products that agree at
    2n + 1 points of the circle are equal, so the residual decides the
    split.  inner maps the circle to itself, so every value, outer's too, is
    taken in one batch by ``products._circle_values`` and compared with B's
    memoised values by ``products._deviation``, so a split of a product
    whose invariant group was just searched reads the search's table.
    """
    return _deviation(original, lambda points: _circle_values(dec.outer, _circle_values(dec.inner, points)))


def _clusters(points: Sequence[complex], size: int) -> list[list[int]]:
    """Indices of ``points`` in clusters of ``size``: the first point left and the size - 1 nearest it."""
    left, clusters = list(range(len(points))), []
    while left:
        nearest = heapq.nsmallest(size - 1, left[1:], key=lambda i: abs(points[i] - points[left[0]]))
        clusters.append(sorted([left[0], *nearest]))
        left = [i for i in left if i not in clusters[-1]]
    return clusters


def _outer_from_fibers(product: BlaschkeProduct, inner: BlaschkeProduct) -> BlaschkeProduct:
    # The mean of each fiber's images, summed in index order, is an outer zero.
    d = inner.degree
    images = _values(inner, product.zeros)
    outer_zeros = [sum(images[i] for i in fiber) / d for fiber in _clusters(images, d)]
    try:
        constant = recover_constant(outer_zeros, functools.partial(_circle_values, product), inner)
    except NormalizationError as exc:
        raise ConditionsUnsatisfied(f"the zeros do not fall into fibers of the inner factor: {exc}") from exc
    return BlaschkeProduct(constant, tuple(outer_zeros))


def _fiber_split(
    product: BlaschkeProduct, inner: BlaschkeProduct, source: DecompositionSource
) -> Decomposition:
    dec = Decomposition(inner, _outer_from_fibers(product, inner), source)
    residual = roundtrip_residual(dec, product)
    if not residual <= ROUNDTRIP_TOL:
        raise DecompositionError(f"outer(inner(z)) is {residual:.3e} off B, over {ROUNDTRIP_TOL}")
    return dec


def _require_shape(product: BlaschkeProduct, d: int, what: str) -> None:
    if product.degree % d != 0:
        raise BadShape(f"{what}: the degree must be divisible by {d}")
    if not is_canonical(product):
        raise BadShape(f"{what}: the product must be canonical")


def _require_cover(
    product: BlaschkeProduct, distinguished: list[int], groups: Sequence[Sequence[int]], what: str
) -> None:
    # The distinguished zeros and the groups use each index once and leave
    # exactly one zero over, at the origin.
    used = distinguished + [i for group in groups for i in group]
    n = product.degree
    if len(set(used)) != len(used) or not all(0 <= i < n for i in used):
        raise BadShape("indices must be distinct and in range")
    leftover = set(range(n)) - set(used)
    if len(leftover) != 1 or abs(product.zeros[next(iter(leftover))]) > ORIGIN_ZERO_TOL:
        raise BadShape(f"{what} must cover all zeros except one origin zero")


def _inner_from_fibers(product: BlaschkeProduct, d: int) -> BlaschkeProduct:
    """The inner factor D of degree d, D(0) = 0 and constant 1, that B would factor through.

    If B = C ∘ D, the walk from t = 0 through B's boundary preimages of 1
    passes C's m = n/d preimages of 1 in the same cyclic order on each of
    D's d turns, so each class of walk indices mod m is a fiber of D and D
    is unique.  Only classes 0 and 1 are solved: 2d of the n points.  Over
    their points p and q, R(z) = prod (z - p)/(z - q) is a Möbius function of
    D(z), so B's zeros a with R(a) = R(0) are D's zero fiber, each k times if
    C has a k-fold zero at 0.  Sorted by |R(a) - R(0)|, floored at rounding
    level so that exact origin zeros give no 0/0, and followed by |R(0)|,
    the fiber ends at the largest ratio of the (jd + 1)-th value to the
    (jd)-th, j = 1, ..., m.  The first of each cluster of k but the one
    nearest 0 are D's other zeros, origin zeros included (as for z^n).
    When the ratio at j = m, against |R(0)| = 1 itself, is the largest, k = m
    is kept only if the outer constant it gives reads the same at 1 and at
    i, and otherwise the best j < m is taken: with every zero near 0, the
    zeros outside the fiber can sit nearer R(0) than rounding leaves the
    fiber.  Whether B factors through the result is left to the fiber split.
    """
    zeros, n = product.zeros, product.degree
    m = n // d
    if m == 1:
        picks = [i for i, z in enumerate(zeros) if abs(z) > ORIGIN_ZERO_TOL]
        if len(picks) != d - 1:
            raise ConditionsUnsatisfied(f"no inner factor on 0 and {d - 1} other zero(s) of B")
        return BlaschkeProduct(1.0, (0j,) + tuple(zeros[i] for i in picks))
    pts = _phase_points(product, 1.0, [i for i in range(n) if i % m < 2])
    r0, *r = [math.prod((z - p) / (z - q) for p, q in zip(pts[0::2], pts[1::2])) for z in (0j, *zeros)]
    order = sorted((max(abs(ri - r0), math.ulp(1.0) * n * abs(r0)), i) for i, ri in enumerate(r))
    dist = [g for g, _ in order] + [abs(r0)]

    def inner(k: int) -> BlaschkeProduct:
        fiber = sorted(i for _, i in order[: k * d])
        firsts = [fiber[c[0]] for c in _clusters([zeros[i] for i in fiber], k)]
        picks = sorted(firsts, key=lambda i: abs(zeros[i]))[1:]
        return BlaschkeProduct(1.0, (0j,) + tuple(zeros[i] for i in sorted(picks)))

    step = {j: dist[j * d] / dist[j * d - 1] for j in range(1, m + 1)}
    best = max(range(1, m), key=step.__getitem__)
    if step[m] <= step[best]:
        return inner(best)
    whole = inner(m)
    try:
        _outer_from_fibers(product, whole)
    except ConditionsUnsatisfied:
        return inner(best)
    return whole


def _split_through_degree(product: BlaschkeProduct, d: int, source: DecompositionSource) -> Decomposition:
    try:
        return _fiber_split(product, _inner_from_fibers(product, d), source)
    except BlaschkeError as exc:
        raise ConditionsUnsatisfied(
            f"no inner factor of degree {d} has all zeros in its fibers: {exc}"
        ) from exc


def _fixed_point_inner(gamma: complex | None, k: int) -> BlaschkeProduct:
    """``((z - gamma) / (1 - conj(gamma) z))^k`` at the interior fixed point of a group's generator."""
    if gamma is None:
        raise NoInteriorFixedPoint("generator has no fixed point inside the open disk")
    return BlaschkeProduct(1.0, (gamma,) * k)


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
    inner = _fixed_point_inner(moebius_fixed_point_in_disk(group.generator), k)
    return _fiber_split(product, inner, DecompositionSource.INVARIANT_GROUP)


def check_paired_conditions_2n(
    product: BlaschkeProduct,
    a1_index: int,
    pairing: Sequence[tuple[int, int]],
) -> StructuredZeroConditions:
    """Residuals of ``a1 + conj(a1) p q - p - q`` for the caller's pairing.

    ``a1_index`` distinguishes one nonzero zero; ``pairing`` must match up
    the remaining zeros, apart from one origin zero absorbed by the leading
    factor z.
    """
    zeros = product.zeros
    _require_shape(product, 2, "paired conditions")
    _require_cover(product, [a1_index], pairing, "pairing")
    a1 = zeros[a1_index]
    residuals = tuple(
        a1 + a1.conjugate() * zeros[i] * zeros[j] - zeros[i] - zeros[j] for i, j in pairing
    )
    satisfied = max((abs(r) for r in residuals), default=0.0) <= CONDITION_TOL
    return StructuredZeroConditions(residuals, satisfied)


def decompose_paired_2n(product: BlaschkeProduct, a1_index: int) -> Decomposition:
    """Decompose an even-degree canonical product through a degree-2 inner.

    Inner is ``z (z - a1) / (1 - conj(a1) z)``; the zeros must fall into its
    fibers, pairs (p, q) with one image ``-p q``, which are the outer zeros.
    """
    _require_shape(product, 2, "paired decomposition")
    if not 0 <= a1_index < product.degree:
        raise BadShape("a1 index out of range")
    a1 = product.zeros[a1_index]
    if abs(a1) <= ORIGIN_ZERO_TOL:
        raise ConditionsUnsatisfied("the distinguished zero a1 must be nonzero")
    inner = BlaschkeProduct(1.0, (0j, a1))
    return _fiber_split(product, inner, DecompositionSource.PAIRED_ZEROS_2N)


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
) -> StructuredZeroConditions:
    """Residual pairs of the two triple conditions for the caller's grouping."""
    zeros = product.zeros
    _require_shape(product, 3, "tripled conditions")
    _require_cover(product, [a1_index, a2_index], triples, "triples")
    a1, a2 = zeros[a1_index], zeros[a2_index]
    if abs(a1) <= ORIGIN_ZERO_TOL or abs(a2) <= ORIGIN_ZERO_TOL:
        raise BadShape("the distinguished zeros a1, a2 must be nonzero")
    residuals: list[complex] = []
    for i, j, k in triples:
        residuals.extend(_triple_residuals(a1, a2, zeros[i], zeros[j], zeros[k]))
    satisfied = max((abs(r) for r in residuals), default=0.0) <= CONDITION_TOL
    return StructuredZeroConditions(tuple(residuals), satisfied)


def decompose_tripled_3n(product: BlaschkeProduct) -> Decomposition:
    """Decompose a degree-3n canonical product through a degree-3 inner.

    Inner is ``z (z - a1)(z - a2) / ((1 - conj(a1) z)(1 - conj(a2) z))`` for
    nonzero zeros a1, a2 of B read off B's boundary fibers; all zeros must
    fall into its fibers, triples with one image ``t1 t2 t3``, which are the
    outer zeros.  Raises :class:`ConditionsUnsatisfied` when they do not.
    """
    _require_shape(product, 3, "tripled decomposition")
    return _split_through_degree(product, 3, DecompositionSource.TRIPLED_ZEROS_3N)


def decompose_invariants_search(product: BlaschkeProduct) -> Decomposition:
    """First split through a subgroup of the product's invariant group.

    The invariant group (a tuple of at most one, from
    :func:`find_invariant_group`) is tried through its subgroups of order d,
    with d ascending, through ``((z - g) / (1 - conj(g) z))^d`` at the
    generator's interior fixed point g, which each of its powers fixes.  The
    subgroup of the full degree is skipped: it only gives the trivial split.
    """
    failures: list[str] = []
    for group in find_invariant_group(product):
        gamma = moebius_fixed_point_in_disk(group.generator)
        for d in range(2, group.order + 1):
            if group.order % d or d == product.degree:
                continue
            try:
                return _fiber_split(product, _fixed_point_inner(gamma, d), DecompositionSource.INVARIANT_GROUP)
            except BlaschkeError as exc:
                failures.append(f"order {d}: {exc}")
    raise DecompositionError(
        "no invariant group yields a nontrivial decomposition"
        + (": " + "; ".join(failures) if failures else "")
    )


def decompose_paired_search(product: BlaschkeProduct) -> Decomposition:
    """Paired split with the distinguished zero a1 read off B's boundary fibers.

    Raises :class:`ConditionsUnsatisfied` when the degree is odd, the product
    is not canonical or its zeros do not fall into the fibers of that inner.
    """
    if product.degree % 2 != 0:
        raise ConditionsUnsatisfied("paired decomposition needs even degree")
    if not is_canonical(product):
        raise ConditionsUnsatisfied("paired decomposition needs a canonical product")
    return _split_through_degree(product, 2, DecompositionSource.PAIRED_ZEROS_2N)


def decompose_auto(product: BlaschkeProduct) -> Decomposition:
    """First nontrivial split, trying the proper divisors d of the degree in ascending order.

    Each d tries the one inner factor of degree d that B's boundary fibers
    allow.  The source names the paper's route for d = 2 and 3 and is
    ``BOUNDARY_FIBERS`` beyond.  A :class:`BlaschkeError` at one degree
    passes on to the next; any other exception propagates.
    """
    if not is_canonical(product):
        raise DecompositionError("decomposition needs a canonical product")
    n = product.degree
    failures: list[str] = []
    for d in [k for k in range(2, n) if n % k == 0]:
        source = _DEGREE_SOURCES.get(d, DecompositionSource.BOUNDARY_FIBERS)
        try:
            return _split_through_degree(product, d, source)
        except BlaschkeError as exc:
            failures.append(f"degree {d}: {exc}")
    raise DecompositionError(f"degree {n} splits at no proper divisor: " + ("; ".join(failures) or "it has none"))
