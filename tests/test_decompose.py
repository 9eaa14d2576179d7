"""Tests for the three decomposition routes and their zero conditions."""

from __future__ import annotations

import cmath
import math
import random
from itertools import combinations

import pytest

import blaschke.products
from blaschke import (
    BadShape,
    BlaschkeError,
    BlaschkeProduct,
    ConditionsUnsatisfied,
    Decomposition,
    DecompositionError,
    DecompositionSource,
    InvariantGroup,
    MoebiusTransform,
    blaschke_compose,
    blaschke_equal,
    blaschke_eval,
    blaschke_preimages,
    check_paired_conditions_2n,
    check_tripled_conditions_3n,
    construct_invariant_product,
    decompose_auto,
    decompose_invariants_search,
    decompose_paired_2n,
    decompose_paired_search,
    decompose_tripled_3n,
    decompose_via_invariants,
    find_invariant_group,
    moebius_eval,
    moebius_power,
    roundtrip_residual,
    solve_unimodular_c,
)
from blaschke.decompose import ROUNDTRIP_TOL, _fiber_split, _inner_from_fibers, _split_through_degree
from blaschke.numerics import ComplexPolynomial, poly_roots
from blaschke.products import ORIGIN_ZERO_TOL
from conftest import (
    DRIFT_CASES,
    drifted_orbit_product,
    exact_degree3_constant,
    multiset_close,
    random_interior,
)


def assert_roundtrip(dec, original):
    assert dec.inner.degree * dec.outer.degree == original.degree
    assert blaschke_equal(blaschke_compose(dec.outer, dec.inner), original, 1e-7)
    assert roundtrip_residual(dec, original) <= 1e-7


# ---------------------------------------------------------------------------
# Route 1: invariant groups.


def test_invariants_route_monomial():
    b = BlaschkeProduct(1.0, (0j,) * 4)
    group = InvariantGroup(MoebiusTransform(-1.0, 0.0), 2)
    dec = decompose_via_invariants(b, group)
    assert dec.source is DecompositionSource.INVARIANT_GROUP
    assert dec.inner.zeros == (0j, 0j)
    assert multiset_close(dec.outer.zeros, [0, 0], 1e-12)
    assert_roundtrip(dec, b)


def test_invariants_route_case_b(degree4_case_b_product):
    b = degree4_case_b_product
    group = find_invariant_group(b)[0]
    dec = decompose_via_invariants(b, group)
    # The generator's interior fixed point solves (2/3) z^2 - 2 z + 2/3 = 0.
    gamma = (3 - math.sqrt(5)) / 2
    assert multiset_close(dec.inner.zeros, [gamma, gamma], 1e-9)
    assert dec.outer.degree == 2
    assert_roundtrip(dec, b)


def test_invariants_route_degree6(degree6_paired_product, degree6_involution):
    b = degree6_paired_product
    dec = decompose_via_invariants(b, InvariantGroup(degree6_involution, 2))
    assert dec.inner.degree == 2
    assert dec.outer.degree == 3
    assert_roundtrip(dec, b)


def test_invariants_route_rejects_bad_order():
    b = BlaschkeProduct(1.0, (0j,) * 4)
    group = InvariantGroup(MoebiusTransform(math.e ** (2j * math.pi / 3) / abs(math.e ** (2j * math.pi / 3)), 0.0), 3)
    with pytest.raises(BadShape):
        decompose_via_invariants(b, group)


def test_invariants_route_error_classes(monkeypatch, degree4_case_b_product):
    # A group the product is not invariant under leaves zeros outside the
    # fibers; a right group whose split misses the round trip is a failed
    # decomposition, not a failed grouping.
    import blaschke.decompose

    involution = InvariantGroup(MoebiusTransform(-1.0, 0.0), 2)
    with pytest.raises(ConditionsUnsatisfied):
        decompose_via_invariants(BlaschkeProduct(1.0, (0j, 0.1, 0.2, 0.3)), involution)
    b = degree4_case_b_product
    group = find_invariant_group(b)[0]
    recover = blaschke.decompose.recover_constant
    monkeypatch.setattr(blaschke.decompose, "recover_constant", lambda *args: -recover(*args))
    with pytest.raises(DecompositionError):
        decompose_via_invariants(b, group)


def test_inner_factor_invariant_under_generator(degree4_case_b_product):
    b = degree4_case_b_product
    group = find_invariant_group(b)[0]
    dec = decompose_via_invariants(b, group)
    rng = random.Random(61)
    for _ in range(20):
        z = 0.8 * math.sqrt(rng.random()) * math.e ** (2j * math.pi * rng.random())
        w = moebius_eval(group.generator, z)
        assert abs(blaschke_eval(dec.inner, w) - blaschke_eval(dec.inner, z)) <= 1e-8


# ---------------------------------------------------------------------------
# Route 2: paired zeros, even degree.


def test_check_paired_exact(poncelet_product):
    conds = check_paired_conditions_2n(poncelet_product, 1, ((2, 3),))
    assert conds.satisfied
    assert abs(conds.residuals[0]) == 0.0


def test_check_paired_derived_triple():
    # a3 = (a1 - a2)/(1 - conj(a1) a2) implies the pairing condition.
    a1, a2 = 0.5, 0.5 - 0.5j
    a3 = (a1 - a2) / (1 - a1 * a2)
    b = BlaschkeProduct(1.0, (0j, a1, a2, a3))
    conds = check_paired_conditions_2n(b, 1, ((2, 3),))
    assert conds.satisfied
    assert abs(conds.residuals[0]) <= 1e-15


def test_check_paired_generic_failure():
    b = BlaschkeProduct(1.0, (0j, 0.1, 0.2, 0.3))
    conds = check_paired_conditions_2n(b, 1, ((2, 3),))
    assert not conds.satisfied
    assert abs(conds.residuals[0] - (-0.394)) <= 1e-12


def test_check_paired_bad_shapes(poncelet_product):
    with pytest.raises(BadShape):
        check_paired_conditions_2n(BlaschkeProduct(1.0, (0j, 0.1, 0.2)), 1, ())
    with pytest.raises(BadShape):
        check_paired_conditions_2n(poncelet_product, 1, ((1, 2),))  # reused index
    with pytest.raises(BadShape):
        check_paired_conditions_2n(poncelet_product, 0, ((2, 3),))  # leftover not origin


def test_paired_poncelet(poncelet_product):
    dec = decompose_paired_2n(poncelet_product, 1)
    assert dec.source is DecompositionSource.PAIRED_ZEROS_2N
    assert multiset_close(dec.inner.zeros, [0, 2 / 3], 1e-12)
    # a2 a3 = 1/2, so the outer zero is -1/2.
    assert multiset_close(dec.outer.zeros, [0, -0.5], 1e-12)
    assert_roundtrip(dec, poncelet_product)


def test_paired_degree6(degree6_paired_product):
    dec = decompose_paired_2n(degree6_paired_product, 3)
    assert multiset_close(dec.inner.zeros, [0, 0.5], 1e-12)
    assert all(abs(z) <= 1e-10 for z in dec.outer.zeros)
    assert_roundtrip(dec, degree6_paired_product)


def test_paired_degree6_exact_zeros():
    b = BlaschkeProduct(1.0, (0j, 0j, 0j, 0.5, 0.5, 0.5))
    dec = decompose_paired_2n(b, 3)
    assert multiset_close(dec.inner.zeros, [0, 0.5], 1e-12)
    assert_roundtrip(dec, b)


def test_paired_rejects_zero_a1():
    b = BlaschkeProduct(1.0, (0j, 0j))
    with pytest.raises(ConditionsUnsatisfied):
        decompose_paired_2n(b, 1)


def test_paired_rejects_generic():
    b = BlaschkeProduct(1.0, (0j, 0.1, 0.2, 0.3))
    with pytest.raises(ConditionsUnsatisfied):
        decompose_paired_2n(b, 1)


def test_paired_degree2():
    b = BlaschkeProduct(1.0, (0j, 0.4 + 0.1j))
    dec = decompose_paired_2n(b, 1)
    assert dec.outer.degree == 1
    assert_roundtrip(dec, b)


# ---------------------------------------------------------------------------
# Route 3: tripled zeros, degree divisible by 3.


def tripled_example_product() -> BlaschkeProduct:
    m = MoebiusTransform(exact_degree3_constant(), 0.5)
    return construct_invariant_product(m, 6, distinct_tol=0.0)


def test_check_tripled_example():
    b = tripled_example_product()
    conds = check_tripled_conditions_3n(b, 1, 2, ((3, 4, 5),))
    assert conds.satisfied
    assert all(abs(r) <= 1e-6 for r in conds.residuals)


def test_check_tripled_rejects_zero_designation():
    b = BlaschkeProduct(1.0, (0j, 0j, 0j, 0.5, 0.5, 0.5))
    with pytest.raises(BadShape):
        check_tripled_conditions_3n(b, 1, 2, ((3, 4, 5),))


def test_check_tripled_generic_failure():
    b = BlaschkeProduct(1.0, (0j, 0.1, 0.2j, 0.3, 0.15, 0.25j))
    conds = check_tripled_conditions_3n(b, 1, 2, ((3, 4, 5),))
    assert not conds.satisfied
    assert max(abs(r) for r in conds.residuals) > 1e-3


def test_tripled_example_decomposition():
    b = tripled_example_product()
    dec = decompose_tripled_3n(b)
    assert dec.source is DecompositionSource.TRIPLED_ZEROS_3N
    expected_inner = [0, 0.5, 0.3125 - 0.390312j]
    assert multiset_close(dec.inner.zeros, expected_inner, 1e-6)
    assert dec.outer.degree == 2
    assert max(abs(z) for z in dec.outer.zeros) <= 1e-10
    assert_roundtrip(dec, b)


def test_tripled_from_six_step_solver():
    # Constants whose 6-step orbit triples up satisfy the tripled conditions.
    sols = solve_unimodular_c(0.5, 6, tol=0.0)
    found = 0
    for c, orbit in sols:
        if abs(c - exact_degree3_constant(1)) > 1e-9 and abs(c - exact_degree3_constant(-1)) > 1e-9:
            continue
        b = BlaschkeProduct(1.0, orbit.points)
        dec = decompose_tripled_3n(b)
        assert_roundtrip(dec, b)
        found += 1
    assert found == 2


def test_tripled_degree3_trivial():
    b = BlaschkeProduct(1.0, (0j, 0.2 + 0.1j, 0.3j))
    dec = decompose_tripled_3n(b)
    assert dec.inner.degree == 3
    assert dec.outer.degree == 1
    assert multiset_close(dec.inner.zeros, list(b.zeros), 1e-12)
    assert_roundtrip(dec, b)


def test_tripled_rejects_monomial():
    b = BlaschkeProduct(1.0, (0j, 0j, 0j))
    with pytest.raises(ConditionsUnsatisfied):
        decompose_tripled_3n(b)


def test_tripled_rejects_generic_degree6():
    b = BlaschkeProduct(1.0, (0j, 0.1, 0.2j, 0.3, 0.15, 0.25j))
    with pytest.raises(ConditionsUnsatisfied):
        decompose_tripled_3n(b)


# ---------------------------------------------------------------------------
# Both searches on compositions with shuffled zeros.


def shuffled_composition(rng, inner_degree, outer_degree, radius=0.8):
    """Canonical outer ∘ inner with shuffled zeros and a repeated outer zero.

    The inner zeros other than 0 lie in the disk of the given radius, and
    the constant recovered by the composition is within 1e-12 of 1.
    """
    inner = BlaschkeProduct(
        1.0, (0j,) + tuple(random_interior(rng, radius) for _ in range(inner_degree - 1))
    )
    others = [random_interior(rng, 0.7) for _ in range(outer_degree - 2)]
    outer_zeros = [0j] + others + [others[0] if others else 0j]
    composed = blaschke_compose(BlaschkeProduct(1.0, tuple(outer_zeros)), inner)
    # outer ∘ inner is canonical; its recovered constant is 1 up to rounding.
    assert abs(composed.constant - 1.0) <= 1e-12
    zeros = list(composed.zeros)
    rng.shuffle(zeros)
    return BlaschkeProduct(1.0, tuple(zeros))


@pytest.mark.parametrize(
    "search, inner_degree, outer_degree",
    [(decompose_paired_search, 2, m) for m in range(2, 21)]
    + [(decompose_tripled_3n, 3, m) for m in range(2, 16)]
    + [(decompose_tripled_3n, 3, 20)],
)
def test_search_splits_shuffled_composition(search, inner_degree, outer_degree):
    rng = random.Random(1000 * inner_degree + outer_degree)
    b = shuffled_composition(rng, inner_degree, outer_degree)
    dec = search(b)
    assert dec.inner.degree == inner_degree
    assert dec.outer.degree == outer_degree
    assert roundtrip_residual(dec, b) <= 1e-7


def random_canonical(rng, degree):
    return BlaschkeProduct(1.0, (0j,) + tuple(random_interior(rng) for _ in range(degree - 1)))


def searched_inner_zeros(product, d, source):
    """Inner zeros by the search the fiber construction replaced, as its reference.

    One fiber split per distinct multiset of d - 1 nonzero zeros of B, in
    index order; the first that succeeds gives the inner factor.
    """
    zeros = product.zeros
    nonzero = [i for i, z in enumerate(zeros) if abs(z) > ORIGIN_ZERO_TOL]
    tried = set()
    for picks in combinations(nonzero, d - 1):
        values = tuple(sorted((zeros[i] for i in picks), key=lambda z: (z.real, z.imag)))
        if values in tried:
            continue
        tried.add(values)
        inner = BlaschkeProduct(1.0, (0j,) + tuple(zeros[i] for i in picks))
        try:
            return _fiber_split(product, inner, source).inner.zeros
        except BlaschkeError:
            pass
    raise ConditionsUnsatisfied(f"none of {len(tried)} inner factors splits the product")


@pytest.mark.parametrize(
    "search, d, source",
    [
        (decompose_paired_search, 2, DecompositionSource.PAIRED_ZEROS_2N),
        (decompose_tripled_3n, 3, DecompositionSource.TRIPLED_ZEROS_3N),
    ],
)
def test_fiber_construction_matches_zero_search(search, d, source):
    rng = random.Random(800 + d)
    products = [
        shuffled_composition(rng, d, m, radius)
        for m, radius in ((1, 0.99), (2, 0.99), (3, 0.95), (5, 0.99), (8, 0.9), (60 // d, 0.99))
    ]
    products += [random_canonical(rng, degree) for degree in (6, 6, 12, 12)]
    for b in products:
        try:
            expected = searched_inner_zeros(b, d, source)
        except BlaschkeError as exc:
            expected = type(exc)
        try:
            found = search(b).inner.zeros
        except BlaschkeError as exc:
            found = type(exc)
        assert found == expected


def test_fiber_construction_keeps_double_inner_zero():
    # The composition returns the double zero twice, exactly; one copy is
    # moved by 1e-9, and each must stay its own zero of the inner factor, as
    # the search chose them.
    a = 0.6 + 0.2j
    inner = BlaschkeProduct(1.0, (0j, a, a))
    zeros = list(blaschke_compose(BlaschkeProduct(1.0, (0j, 0.3 - 0.2j, -0.4j)), inner).zeros)
    zeros[zeros.index(a)] += 1e-9
    random.Random(3).shuffle(zeros)
    b = BlaschkeProduct(1.0, tuple(zeros))
    expected = searched_inner_zeros(b, 3, DecompositionSource.TRIPLED_ZEROS_3N)
    assert decompose_tripled_3n(b).inner.zeros == expected
    assert abs(expected[1] - expected[2]) == pytest.approx(1e-9)


@pytest.mark.parametrize("search, d", [(decompose_paired_search, 2), (decompose_tripled_3n, 3)])
def test_split_keeps_close_outer_zeros_apart(search, d):
    # Two outer zeros 5e-7 apart: an image tolerance of 1e-7 per degree of B
    # would merge their fibers into one zero at the mean, but each fiber
    # holds exactly d zeros, so both outer zeros keep their place.
    rng = random.Random(40 + d)
    outer_zeros = (0j, 0.3 + 0.2j, 0.3 + 0.2j + 5e-7, -0.4 + 0.1j)
    inner = BlaschkeProduct(1.0, (0j,) + tuple(random_interior(rng) for _ in range(d - 1)))
    composed = blaschke_compose(BlaschkeProduct(1.0, outer_zeros), inner)
    assert abs(composed.constant - 1.0) <= 1e-12
    zeros = list(composed.zeros)
    rng.shuffle(zeros)
    b = BlaschkeProduct(1.0, tuple(zeros))
    dec = search(b)
    assert multiset_close(dec.outer.zeros, outer_zeros, 1e-12)
    assert roundtrip_residual(dec, b) <= 1e-7


def test_one_fiber_split_per_search(monkeypatch):
    splits = []

    def counted(*args, **kwargs):
        splits.append(args[1])
        return _fiber_split(*args, **kwargs)

    monkeypatch.setattr("blaschke.decompose._fiber_split", counted)
    rng = random.Random(27)
    for search, d, m in ((decompose_tripled_3n, 3, 9), (decompose_paired_search, 2, 12)):
        splits.clear()
        search(shuffled_composition(rng, d, m))
        assert len(splits) == 1
        splits.clear()
        with pytest.raises(ConditionsUnsatisfied):
            search(random_canonical(rng, d * m))
        assert len(splits) <= 1


@pytest.mark.parametrize("d", [4, 5, 7])
def test_inner_from_fibers_any_degree(d):
    rng = random.Random(900 + d)
    for m in (2, 3, 4):
        b = shuffled_composition(rng, d, m)
        inner = _inner_from_fibers(b, d)
        assert inner.degree == d
        dec = _fiber_split(b, inner, DecompositionSource.TRIPLED_ZEROS_3N)
        assert dec.outer.degree == m
        assert roundtrip_residual(dec, b) <= 1e-7


@pytest.mark.parametrize("seed", [12, 21, 36, 38, 41])
def test_split_through_degree_21(seed):
    # Inner degree 21, outer degree 2, zeros |z| <= 0.8, at seeds where D has
    # zeros close enough that no root find of degree 20 keeps them apart.  The
    # composed zeros solve D(z) = w to about 1e-11, but D's close zeros are
    # ill-conditioned: those over w = 0 are up to 5e-6 off the factor's, and
    # the recovered constant is up to 2e-5 off 1.  So B is the canonical
    # product on the composed zeros, and its inner factor has exactly the
    # composed zeros over 0.
    rng = random.Random(seed)
    inner = BlaschkeProduct(1.0, (0j,) + tuple(random_interior(rng) for _ in range(20)))
    composed = blaschke_compose(BlaschkeProduct(1.0, (0j, random_interior(rng))), inner)
    zeros = list(composed.zeros)
    rng.shuffle(zeros)
    b = BlaschkeProduct(1.0, tuple(zeros))
    dec = _split_through_degree(b, 21, DecompositionSource.BOUNDARY_FIBERS)
    assert roundtrip_residual(dec, b) <= ROUNDTRIP_TOL
    over_origin = sorted(composed.zeros[:21], key=abs)[1:]
    key = lambda z: (z.real, z.imag)
    assert sorted(dec.inner.zeros[1:], key=key) == sorted(over_origin, key=key)
    assert multiset_close(dec.inner.zeros, inner.zeros, 1e-5)


@pytest.mark.parametrize("d", [4, 5])
@pytest.mark.parametrize("k", [2, 3])
def test_inner_from_fibers_on_a_repeated_zero_fiber(d, k):
    # C has a k-fold zero at 0, so B has each zero of D k times, here apart
    # by up to 2e-10: the inner factor must list each zero of D once, the
    # origin included.
    rng = random.Random(10 * d + k)
    inner = BlaschkeProduct(1.0, (0j,) + tuple(random_interior(rng) for _ in range(d - 1)))
    for others in ((), (random_interior(rng, 0.7),)):
        composed = blaschke_compose(BlaschkeProduct(1.0, (0j,) * k + others), inner)
        zeros = [z + random_interior(rng, 1e-10) for z in composed.zeros]
        rng.shuffle(zeros)
        b = BlaschkeProduct(1.0, tuple(zeros))
        assert multiset_close(_inner_from_fibers(b, d).zeros, inner.zeros, 1e-9)
        dec = _split_through_degree(b, d, DecompositionSource.BOUNDARY_FIBERS)
        assert dec.outer.degree == k + len(others)
        assert roundtrip_residual(dec, b) <= ROUNDTRIP_TOL


def sorted_class_inner_zeros(product, d):
    """Inner zeros from the pencil on classes 0 and 1 of all n preimages sorted by argument.

    This is how the inner factor was built before the walk solved only two
    classes and the zeros were read off B's own; it serves as the reference.
    """
    zeros, n = product.zeros, product.degree
    m = n // d
    pts = blaschke_preimages(product, 1.0)
    f0 = ComplexPolynomial.from_roots(pts[0::m])
    f1 = ComplexPolynomial.from_roots(pts[1::m])
    pencil = ComplexPolynomial((f0 - f1.scaled(f0(0j) / f1(0j))).coeffs[1:])
    roots = poly_roots(pencil) if pencil.degree == d - 1 else []
    picks = [min(range(n), key=lambda i: abs(zeros[i] - root)) for root in roots]
    if len(picks) != d - 1 or any(abs(zeros[i]) <= ORIGIN_ZERO_TOL for i in picks):
        raise ConditionsUnsatisfied(f"no inner factor on 0 and {d - 1} nonzero zero(s) of B")
    return (0j,) + tuple(zeros[i] for i in sorted(picks))


def split_outcome(product, build):
    """(inner zeros, split repr) from a candidate builder, or the exception class for both."""
    try:
        zeros = build()
        return zeros, repr(_fiber_split(product, BlaschkeProduct(1.0, zeros), DecompositionSource.PAIRED_ZEROS_2N))
    except BlaschkeError as exc:
        return type(exc), type(exc)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_two_walk_classes_give_the_sorted_classes_split(d):
    # On a composition both class pairs are fibers of the inner factor, so
    # the candidate is the same to the bit.  A random product has no inner
    # factor: its classes are no fibers and the candidates may differ, but
    # neither splits the product.
    rng = random.Random(700 + d)
    compositions = [
        shuffled_composition(rng, d, m, radius)
        for m, radius in ((2, 0.99), (3, 0.8), (4, 0.95), (7, 0.99), (60 // d, 0.9), (60 // d, 0.99))
    ]
    for b in compositions + [random_canonical(rng, d * m) for m in (2, 3, 5, 8, 60 // d)]:
        found = split_outcome(b, lambda: _inner_from_fibers(b, d).zeros)
        expected = split_outcome(b, lambda: sorted_class_inner_zeros(b, d))
        assert found[1] == expected[1]
        if b in compositions:
            assert found[0] == expected[0]


def test_inner_from_fibers_solves_two_classes(monkeypatch):
    solves = []

    def counted(*args):
        solves.append(args)
        return solve_phase(*args)

    solve_phase = blaschke.products._solve_phase
    monkeypatch.setattr(blaschke.products, "_solve_phase", counted)
    rng = random.Random(31)
    for d, m in ((2, 2), (2, 12), (3, 5), (3, 9), (4, 3)):
        for b in (shuffled_composition(rng, d, m), random_canonical(rng, d * m)):
            solves.clear()
            try:
                _inner_from_fibers(b, d)
            except ConditionsUnsatisfied:
                pass
            assert len(solves) == 2 * d


@pytest.mark.parametrize("search", [decompose_paired_search, decompose_tripled_3n])
@pytest.mark.parametrize("degree", [6, 12])
def test_search_rejects_random_canonical_product(search, degree):
    # No inner factor fits, and that must not surface as another error class.
    with pytest.raises(ConditionsUnsatisfied):
        search(random_canonical(random.Random(degree), degree))


# ---------------------------------------------------------------------------
# Auto route and obstruction facts.


def test_auto_takes_the_smallest_divisor(degree4_case_b_product):
    # Both products are invariant under a group of the full degree, so every
    # divisor splits them; the first one tried is 2.
    for b in (degree4_case_b_product, orbit_product(6)):
        dec = decompose_auto(b)
        assert dec.source is DecompositionSource.PAIRED_ZEROS_2N
        assert dec.inner.degree == 2
        assert_roundtrip(dec, b)


@pytest.mark.parametrize("d", [4, 5, 7])
def test_auto_splits_through_any_inner_degree(d):
    rng = random.Random(950 + d)
    for m in (2, 3, 5):
        b = shuffled_composition(rng, d, m)
        dec = decompose_auto(b)
        assert dec.source is DecompositionSource.BOUNDARY_FIBERS
        assert (dec.inner.degree, dec.outer.degree) == (d, m)
        assert roundtrip_residual(dec, b) <= 1e-7


def test_auto_splits_compositions_of_degree_8_to_84():
    # Seeded compositions C ∘ D with spread zeros (|z| <= 0.8), shuffled: the
    # split found has D's degree and composes back to B on the unit circle.
    rng = random.Random(7)
    for d in (2, 3, 5, 7):
        for m in (4, 6, 8, 10, 12):
            for _ in range(3):
                inner = random_canonical(rng, d)
                composed = blaschke_compose(random_canonical(rng, m), inner)
                assert abs(composed.constant - 1.0) <= 1e-12
                zeros = list(composed.zeros)
                rng.shuffle(zeros)
                b = BlaschkeProduct(1.0, tuple(zeros))
                dec = decompose_auto(b)
                assert dec.inner.degree == d, (d, m)
                assert blaschke_equal(blaschke_compose(dec.outer, dec.inner), b)


def test_a_probe_on_a_zero_is_harmless():
    # D's nonzero zero is a zero of B = C ∘ D inside the disk.  The constant
    # and the round trip are read on the unit circle, where no factor
    # vanishes, so the split is exact.
    a = 0.4941334931711983 + 0.19165617894142986j
    inner = BlaschkeProduct(1.0, (0j, a))
    composed = blaschke_compose(BlaschkeProduct(1.0, (0j, 0.3 - 0.2j, -0.25j)), inner)
    assert a in composed.zeros
    assert abs(composed.constant - 1.0) <= 1e-12
    b = BlaschkeProduct(1.0, composed.zeros)
    dec = decompose_auto(b)
    assert dec.inner.zeros == inner.zeros
    assert roundtrip_residual(dec, b) <= 1e-12


def test_roundtrip_sees_a_moved_outer_zero_at_degree_60():
    # Inside the disk |B| shrinks with the degree, so interior points read
    # this split as 2.0e-10 off; on the unit circle it is 0.11 off.
    rng = random.Random(60)

    def draw(count):
        return [0.8 * rng.random() * cmath.exp(2j * math.pi * rng.random()) for _ in range(count)]

    inner = BlaschkeProduct(1.0, [0j, *draw(2)])
    outer = BlaschkeProduct(1.0, [0j, *draw(19)])
    b = blaschke_compose(outer, inner)
    moved = BlaschkeProduct(1.0, outer.zeros[:-1] + (outer.zeros[-1] + 0.05,))
    assert roundtrip_residual(Decomposition(inner, moved, DecompositionSource.BOUNDARY_FIBERS), b) > ROUNDTRIP_TOL


def test_auto_rejects_perturbed_compositions():
    # One nonzero zero of a composition of degree 16-60, moved by 1e-3 or
    # 1e-2 in one of 24 directions: no split may pass.
    rng = random.Random(4)
    cases = []
    for d, m in ((2, 8), (4, 4), (3, 6), (2, 10), (3, 8), (4, 15)):
        b = shuffled_composition(rng, d, m)
        for _ in range(4 if d * m == 60 else 20):
            i = rng.choice([i for i, z in enumerate(b.zeros) if abs(z) > ORIGIN_ZERO_TOL])
            step = rng.choice((1e-3, 1e-2)) * cmath.exp(2j * math.pi * rng.randrange(24) / 24)
            cases.append(BlaschkeProduct(1.0, b.zeros[:i] + (b.zeros[i] + step,) + b.zeros[i + 1 :]))
    for b in cases:
        with pytest.raises(DecompositionError):
            decompose_auto(b)


@pytest.mark.parametrize("n", [25, 35, 49])
def test_auto_splits_orbit_products_without_the_invariant_search(monkeypatch, n):
    import blaschke.decompose

    b = orbit_product(n)

    def no_search(*args):
        raise AssertionError("the invariant search ran")

    monkeypatch.setattr(blaschke.decompose, "find_invariant_group", no_search)
    dec = decompose_auto(b)
    assert dec.inner.degree == min(d for d in range(2, n) if n % d == 0)
    assert roundtrip_residual(dec, b) <= 1e-7


@pytest.mark.parametrize("n", [4, 6, 8])
def test_auto_splits_a_power_of_z(n):
    # Every zero of B lies over 0, so every pick is an origin zero: the inner
    # factor has a multiple zero at 0, and the round trip alone accepts it.
    b = BlaschkeProduct(1.0, (0j,) * n)
    for d in [k for k in range(2, n) if n % k == 0]:
        assert _inner_from_fibers(b, d).zeros == (0j,) * d
    dec = decompose_auto(b)
    assert dec.source is DecompositionSource.PAIRED_ZEROS_2N
    assert dec.inner.zeros == (0j, 0j)
    assert_roundtrip(dec, b)


def test_auto_tries_each_proper_divisor_once(monkeypatch):
    import blaschke.decompose

    tried = []

    def counted(product, d, source):
        tried.append(d)
        return split_through_degree(product, d, source)

    split_through_degree = blaschke.decompose._split_through_degree
    monkeypatch.setattr(blaschke.decompose, "_split_through_degree", counted)
    rng = random.Random(17)
    for degree in (4, 12, 16, 30, 49):
        tried.clear()
        with pytest.raises(DecompositionError):
            decompose_auto(random_canonical(rng, degree))
        assert tried == [d for d in range(2, degree) if degree % d == 0]
    # A product that is not canonical is refused before any attempt.
    tried.clear()
    with pytest.raises(DecompositionError):
        decompose_auto(BlaschkeProduct(1j, orbit_product(12).zeros))
    assert tried == []


def test_auto_on_paired_eligible_product():
    # Solving a1 + conj(a1) p q = p + q for q gives q = (a1 - p)/(1 - conj(a1) p);
    # for degree 4 this is exactly the relation that also grants the
    # involution invariant, so auto may take either route.
    a1 = 0.4 + 0j
    p = 0.3 + 0.2j
    q = (a1 - p) / (1 - a1.conjugate() * p)
    b = BlaschkeProduct(1.0, (0j, a1, p, q))
    assert check_paired_conditions_2n(b, 1, ((2, 3),)).satisfied
    dec_direct = decompose_paired_2n(b, 1)
    assert_roundtrip(dec_direct, b)
    dec_auto = decompose_auto(b)
    assert_roundtrip(dec_auto, b)


def test_auto_reports_failure():
    b = BlaschkeProduct(1.0, (0j, 0.1, 0.2, 0.3))
    with pytest.raises(DecompositionError):
        decompose_auto(b)


def test_prime_degree_has_no_split_routes():
    for degree in (5, 7):
        zeros = (0j,) + tuple(0.1 * (k + 1) + 0.05j * k for k in range(degree - 1))
        b = BlaschkeProduct(1.0, zeros)
        assert find_invariant_group(b) == ()
        with pytest.raises(BadShape):
            decompose_paired_2n(b, 1)
        with pytest.raises(BadShape):
            decompose_tripled_3n(b)


def orbit_product(n: int) -> BlaschkeProduct:
    c, _ = solve_unimodular_c(0.5, n)[0]
    return construct_invariant_product(MoebiusTransform(c, 0.5), n)


@pytest.mark.parametrize("n", [5, 7, 11])
def test_prime_degree_invariant_product_has_no_split(n):
    # The invariant group has order n, whose only subgroup of order > 1 gives
    # the trivial split with an outer factor of degree 1.
    b = orbit_product(n)
    assert [group.order for group in find_invariant_group(b)] == [n]
    with pytest.raises(DecompositionError):
        decompose_invariants_search(b)
    with pytest.raises(DecompositionError):
        decompose_auto(b)


def test_invariants_search_reports_every_subgroup_it_tried(monkeypatch):
    # With no round trip good enough, the degree-6 orbit product fails at
    # both proper subgroups of its order-6 group, and the error names each.
    import blaschke.decompose

    monkeypatch.setattr(blaschke.decompose, "ROUNDTRIP_TOL", 0.0)
    with pytest.raises(DecompositionError, match=r"order 2: .*; order 3: "):
        decompose_invariants_search(orbit_product(6))


# Drifted products whose generator misses GROUP_MATCH_TOL on the unit circle:
# its largest residual there is about 2.5e-7, 1.4e-7 and 3.3e-7.
DRIFT_PAST_TOL = [(6, 1e-8), (12, 1e-9), (4, 3e-8)]


@pytest.mark.parametrize("n, drift", DRIFT_CASES)
def test_invariants_search_keeps_the_group_identity_tol(n, drift):
    # A constant off by `drift` radians: the group is found only at a looser
    # identity tolerance, and its subgroups must be declared at the same one.
    # Past the default tolerance the group is found at 1e-6 instead, and each
    # subgroup's split misses the round trip on the circle as the search
    # missed GROUP_MATCH_TOL there: the least residual is 1.68e-7.
    b = drifted_orbit_product(n, drift)
    if (n, drift) in DRIFT_PAST_TOL:
        assert find_invariant_group(b) == ()
        with pytest.raises(DecompositionError):
            decompose_invariants_search(b)
        (group,) = find_invariant_group(b, 1e-6)
        assert group.order == n
        for d in (d for d in range(2, n + 1) if n % d == 0):
            subgroup = InvariantGroup(moebius_power(group.generator, n // d), d, group.identity_tol)
            with pytest.raises(DecompositionError):
                decompose_via_invariants(b, subgroup)
        return
    dec = decompose_invariants_search(b)
    assert dec.source is DecompositionSource.INVARIANT_GROUP
    assert 1 < dec.outer.degree < n
    assert roundtrip_residual(dec, b) <= 1e-7


def test_drifted_degree6_product_has_one_group():
    # Its invariants of order 6, 3 and 2 all miss GROUP_MATCH_TOL on the
    # circle (largest residuals about 3.3e-7, 2.0e-7 and 2.1e-7), so no group
    # is found at the default tolerance and the full one at 1e-6.  The
    # divisor loop splits it regardless: through degree 3, at 6.9e-8 on the
    # circle, since the degree-2 split is 1.68e-7 off there.
    b = drifted_orbit_product(6, 1e-8)
    assert find_invariant_group(b) == ()
    assert [group.order for group in find_invariant_group(b, 1e-6)] == [6]
    dec = decompose_auto(b)
    assert (dec.inner.degree, dec.outer.degree) == (3, 2)
    assert roundtrip_residual(dec, b) <= 1e-7


# solve_unimodular_c(ALPHA_49, 49)[18][0]: all 49 zeros of its orbit product
# lie within 0.19 of 0, so the zeros outside the inner factor's zero fiber
# sit nearer R(0) (5.3e-8) than the fiber's own ratio can outrank.
ALPHA_49 = -0.18605308973621845 + 0.009216523656818045j
C_49 = -0.9508235480725142 + 0.30973307932927535j


def test_auto_splits_an_orbit_product_with_every_zero_near_0():
    b = construct_invariant_product(MoebiusTransform(C_49, ALPHA_49), 49)
    assert max(abs(z) for z in b.zeros) < 0.19
    for split in (decompose_auto, decompose_invariants_search):
        dec = split(b)
        assert (dec.inner.degree, dec.outer.degree) == (7, 7)
        assert roundtrip_residual(dec, b) <= ROUNDTRIP_TOL


@pytest.mark.parametrize("n", [20, 28, 36, 45, 49, 63, 77, 91, 100])
def test_orbit_products_split_at_degree(n):
    # Small |alpha| puts every zero near 0, where the ratio against |R(0)|
    # can outrank the end of the inner factor's zero fiber.
    rng = random.Random(4100 + n)
    for _ in range(12):
        alpha = cmath.rect(rng.uniform(0.1, 0.2), rng.uniform(-math.pi, math.pi))
        constants = solve_unimodular_c(alpha, n)
        c = constants[rng.randrange(len(constants))][0]
        b = construct_invariant_product(MoebiusTransform(c, alpha), n)
        assert [group.order for group in find_invariant_group(b)] == [n]
        for split in (decompose_auto, decompose_invariants_search):
            assert roundtrip_residual(split(b), b) <= ROUNDTRIP_TOL


def test_auto_rejects_trivial_splits():
    degree2 = BlaschkeProduct(1.0, (0j, 0.3 + 0.1j))
    degree3 = BlaschkeProduct(1.0, (0j, 0.3 + 0.1j, -0.2 + 0.4j))
    for b in (degree2, degree3):
        with pytest.raises(DecompositionError):
            decompose_auto(b)
    # The explicit routes still return them.
    assert decompose_paired_search(degree2).outer.degree == 1
    assert decompose_tripled_3n(degree3).outer.degree == 1


def test_auto_splits_without_a_polynomial(monkeypatch):
    import blaschke.numerics

    rng = random.Random(27)
    cases = [(orbit_product(9), 3), (shuffled_composition(rng, 3, 9), 3)]
    cases += [(shuffled_composition(rng, d, m), d) for d in (4, 5, 7) for m in (2, 3)]

    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was expanded or solved")

    monkeypatch.setattr(blaschke.numerics, "poly_roots", refuse)
    monkeypatch.setattr(blaschke.numerics.ComplexPolynomial, "__init__", refuse)
    for b, d in cases:
        dec = decompose_auto(b)
        assert dec.source is (DecompositionSource.TRIPLED_ZEROS_3N if d == 3 else DecompositionSource.BOUNDARY_FIBERS)
        assert dec.inner.degree == d
        assert roundtrip_residual(dec, b) <= 1e-7


def test_fiber_split_rejects_a_wrong_outer_constant(monkeypatch, poncelet_product):
    import blaschke.decompose

    inner = BlaschkeProduct(1.0, (0j, poncelet_product.zeros[1]))
    source = DecompositionSource.PAIRED_ZEROS_2N
    assert_roundtrip(_fiber_split(poncelet_product, inner, source), poncelet_product)
    recover = blaschke.decompose.recover_constant
    monkeypatch.setattr(blaschke.decompose, "recover_constant", lambda *args: -recover(*args))
    with pytest.raises(DecompositionError):
        _fiber_split(poncelet_product, inner, source)


def test_paired_search_reports_conditions_unsatisfied():
    with pytest.raises(ConditionsUnsatisfied):
        decompose_paired_search(BlaschkeProduct(1.0, (0j, 0.1, 0.2, 0.3)))
    with pytest.raises(ConditionsUnsatisfied):
        decompose_paired_search(orbit_product(5))
    # Not canonical, so no inner factor fits; the shape is not the error.
    for b in (
        BlaschkeProduct(1.0, (0.1, 0.2, 0.3, 0.4)),
        BlaschkeProduct(1j, (0j, 0.1, 0.2, 0.3)),
    ):
        with pytest.raises(ConditionsUnsatisfied):
            decompose_paired_search(b)


def test_auto_propagates_programming_errors(monkeypatch, degree4_case_b_product):
    import blaschke.decompose

    def broken(product, d):
        raise TypeError("not a library failure")

    monkeypatch.setattr(blaschke.decompose, "_inner_from_fibers", broken)
    with pytest.raises(TypeError):
        decompose_auto(degree4_case_b_product)


def test_degree_law_on_all_routes(poncelet_product, degree6_paired_product):
    cases = [
        decompose_auto(poncelet_product),
        decompose_paired_2n(poncelet_product, 1),
        decompose_paired_2n(degree6_paired_product, 3),
        decompose_tripled_3n(tripled_example_product()),
    ]
    originals = [
        poncelet_product,
        poncelet_product,
        degree6_paired_product,
        tripled_example_product(),
    ]
    for dec, b in zip(cases, originals):
        assert dec.inner.degree * dec.outer.degree == b.degree
