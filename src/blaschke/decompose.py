"""Explicit decompositions B = outer ∘ inner of finite Blaschke products.

Every route proposes an inner factor and groups the zeros of B by their
image under it.  B factors through the inner factor exactly when each group
is made of full fibers, that is, its size is a multiple of the inner degree;
the group images are then the zeros of the outer factor (Garcia–Mashreghi–
Ross, *Finite Blaschke Products and Their Connections*, 2018).  The inner
factor comes from an invariant group, ``((z - g)/(1 - conj(g) z))^k`` at the
generator's interior fixed point g, or, for a canonical product, from one or
two nonzero zeros: ``z (z - a1)/(1 - conj(a1) z)`` and its degree-3 analogue.
The paired and tripled searches need no choice of zeros: B's boundary
preimages of 1 fall into the fibers of any inner factor in a fixed cyclic
pattern, which gives the only candidate of each degree directly.  The
paper's paired and tripled zero conditions are Vieta's formulas for such
fibers; :func:`check_paired_conditions_2n` and
:func:`check_tripled_conditions_3n` evaluate them for a grouping the caller
supplies.  The ``tol`` of the paired and tripled routes bounds, times the
degree of B, how far an image may lie from the first image of its group.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    BadShape,
    BlaschkeError,
    ConditionsUnsatisfied,
    DecompositionError,
    NoInteriorFixedPoint,
)
from .invariants import InvariantGroup, find_invariant_group
from .moebius import moebius_fixed_point_in_disk, moebius_power
from .numerics import ComplexPolynomial, poly_roots
from .products import (
    ORIGIN_ZERO_TOL,
    BlaschkeProduct,
    blaschke_compose,
    blaschke_equal,
    blaschke_eval,
    blaschke_preimages,
    canonical_form,
    probe_points,
    recover_constant,
)

ROUNDTRIP_TOL = 1e-7
CONDITION_TOL = 1e-7


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


def _fiber_split(
    product: BlaschkeProduct,
    inner: BlaschkeProduct,
    source: DecompositionSource,
    tol: float = CONDITION_TOL,
) -> Decomposition:
    # Images within tol * degree of a group's first image join the group; a
    # group of m zeros holds m / deg(inner) fibers over its mean image.
    d = inner.degree
    spread = tol * product.degree
    images = [blaschke_eval(inner, a) for a in product.zeros]
    outer_zeros: list[complex] = []
    while images:
        seed = images[0]
        group = [w for w in images if abs(w - seed) <= spread]
        if len(group) % d != 0:
            raise ConditionsUnsatisfied(
                f"{len(group)} zero(s) share an image under the inner factor,"
                f" not a multiple of its degree {d}"
            )
        outer_zeros.extend([sum(group) / len(group)] * (len(group) // d))
        images = [w for w in images if abs(w - seed) > spread]
    constant = recover_constant(outer_zeros, lambda z: blaschke_eval(product, z), inner)
    outer = BlaschkeProduct(constant, tuple(outer_zeros))
    return _checked(inner, outer, product, source)


def _require_shape(product: BlaschkeProduct, d: int, what: str) -> None:
    if product.degree % d != 0:
        raise BadShape(f"{what}: the degree must be divisible by {d}")
    if not canonical_form(product).is_canonical:
        raise BadShape(f"{what}: the product must be canonical")


def _inner_from_fibers(product: BlaschkeProduct, d: int) -> BlaschkeProduct:
    """The inner factor D of degree d, D(0) = 0 and constant 1, that B would factor through.

    If B = C ∘ D, the boundary preimages of 1 under B, sorted by argument,
    pass C's m = n/d preimages of 1 in the same cyclic order on each of D's
    d turns, so each class ``pts[j::m]`` is a fiber of D and D is unique.
    With F_j the monic polynomial on class j and mu = F_0(0)/F_1(0), where
    |F_1(0)| = 1, F_0 - mu F_1 is a multiple of D's numerator.  Its constant
    term vanishes with D(0), and the rest has D's other zeros as roots.
    C(0) = C(D(0)) = B(0) = 0, so these are zeros of B: each root is snapped
    to the nearest one, and the inner factor lists them in index order.
    Whether B factors through the result is left to the fiber split.
    """
    zeros, n = product.zeros, product.degree
    m = n // d
    if m == 1:
        picks = [i for i, z in enumerate(zeros) if abs(z) > ORIGIN_ZERO_TOL]
    else:
        pts = blaschke_preimages(product, 1.0)
        f0 = ComplexPolynomial.from_roots(pts[0::m])
        f1 = ComplexPolynomial.from_roots(pts[1::m])
        pencil = ComplexPolynomial((f0 - f1.scaled(f0(0j) / f1(0j))).coeffs[1:])
        roots = poly_roots(pencil) if pencil.degree == d - 1 else []
        picks = [min(range(n), key=lambda i: abs(zeros[i] - root)) for root in roots]
    if len(picks) != d - 1 or any(abs(zeros[i]) <= ORIGIN_ZERO_TOL for i in picks):
        raise ConditionsUnsatisfied(f"no inner factor on 0 and {d - 1} nonzero zero(s) of B")
    return BlaschkeProduct(1.0, (0j,) + tuple(zeros[i] for i in sorted(picks)))


def _split_through_degree(
    product: BlaschkeProduct, d: int, source: DecompositionSource, tol: float
) -> Decomposition:
    try:
        return _fiber_split(product, _inner_from_fibers(product, d), source, tol)
    except BlaschkeError as exc:
        raise ConditionsUnsatisfied(
            f"no inner factor of degree {d} has all zeros in its fibers: {exc}"
        ) from exc


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
    return _fiber_split(product, inner, DecompositionSource.INVARIANT_GROUP)


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
    _require_shape(product, 2, "paired conditions")
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


def decompose_paired_2n(
    product: BlaschkeProduct, a1_index: int, tol: float = CONDITION_TOL
) -> Decomposition:
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
    return _fiber_split(product, inner, DecompositionSource.PAIRED_ZEROS_2N, tol)


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
    _require_shape(product, 3, "tripled conditions")
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


def decompose_tripled_3n(product: BlaschkeProduct, tol: float = CONDITION_TOL) -> Decomposition:
    """Decompose a degree-3n canonical product through a degree-3 inner.

    Inner is ``z (z - a1)(z - a2) / ((1 - conj(a1) z)(1 - conj(a2) z))`` for
    nonzero zeros a1, a2 of B read off B's boundary fibers; all zeros must
    fall into its fibers, triples with one image ``t1 t2 t3``, which are the
    outer zeros.  Raises :class:`ConditionsUnsatisfied` when they do not.
    """
    _require_shape(product, 3, "tripled decomposition")
    return _split_through_degree(product, 3, DecompositionSource.TRIPLED_ZEROS_3N, tol)


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
    """Paired split with the distinguished zero a1 read off B's boundary fibers.

    Raises :class:`ConditionsUnsatisfied` when the degree is odd, the product
    is not canonical or its zeros do not fall into the fibers of that inner.
    """
    if product.degree % 2 != 0:
        raise ConditionsUnsatisfied("paired decomposition needs even degree")
    if not canonical_form(product).is_canonical:
        raise ConditionsUnsatisfied("paired decomposition needs a canonical product")
    return _split_through_degree(product, 2, DecompositionSource.PAIRED_ZEROS_2N, tol)


def decompose_auto(product: BlaschkeProduct, tol: float = CONDITION_TOL) -> Decomposition:
    """First decomposition found trying invariants, then paired, then tripled.

    A route that fails with a :class:`BlaschkeError` passes on to the next
    one; any other exception propagates.
    """
    routes = (
        ("invariants", lambda: decompose_invariants_search(product)),
        ("paired", lambda: decompose_paired_search(product, tol)),
        ("tripled", lambda: decompose_tripled_3n(product, tol)),
    )
    failures: list[str] = []
    for name, route in routes:
        try:
            return route()
        except BlaschkeError as exc:
            failures.append(f"{name}: {exc}")
    raise DecompositionError("no decomposition route succeeded: " + "; ".join(failures))
