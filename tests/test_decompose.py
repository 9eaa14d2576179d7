"""Tests for the three decomposition routes and their zero conditions."""

from __future__ import annotations

import math
import random

import pytest

from blaschke import (
    BadShape,
    BlaschkeProduct,
    ConditionsUnsatisfied,
    DecompositionError,
    DecompositionSource,
    InvariantGroup,
    MoebiusTransform,
    blaschke_compose,
    blaschke_equal,
    blaschke_eval,
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
    roundtrip_residual,
    solve_unimodular_c,
)
from conftest import exact_degree3_constant, multiset_close, random_interior


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


def shuffled_composition(rng, inner_degree, outer_degree):
    """Canonical outer ∘ inner with shuffled zeros and a repeated outer zero."""
    inner = BlaschkeProduct(1.0, (0j,) + tuple(random_interior(rng) for _ in range(inner_degree - 1)))
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


# ---------------------------------------------------------------------------
# Auto route and obstruction facts.


def test_auto_prefers_invariants(degree4_case_b_product):
    dec = decompose_auto(degree4_case_b_product)
    assert dec.source is DecompositionSource.INVARIANT_GROUP
    assert_roundtrip(dec, degree4_case_b_product)


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


def test_paired_search_reports_conditions_unsatisfied():
    with pytest.raises(ConditionsUnsatisfied):
        decompose_paired_search(BlaschkeProduct(1.0, (0j, 0.1, 0.2, 0.3)))
    with pytest.raises(ConditionsUnsatisfied):
        decompose_paired_search(orbit_product(5))


def test_auto_propagates_programming_errors(monkeypatch, degree4_case_b_product):
    import blaschke.decompose

    def broken(product):
        raise TypeError("not a library failure")

    monkeypatch.setattr(blaschke.decompose, "decompose_invariants_search", broken)
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
