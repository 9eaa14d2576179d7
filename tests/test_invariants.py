"""Tests for constructing invariant products and recovering their groups."""

from __future__ import annotations

import cmath
import math
import random
import warnings

import pytest

from blaschke import (
    BadShape,
    BlaschkeProduct,
    InvariantGroup,
    MoebiusTransform,
    NoSolution,
    OrbitDegenerate,
    OrbitNotClosed,
    blaschke_equal,
    construct_invariant_product,
    find_invariant_group,
    moebius_compose,
    moebius_eval,
    moebius_power,
    solve_unimodular_c,
    verify_invariance,
)
from blaschke import invariants
from blaschke.invariants import GROUP_MATCH_TOL
from blaschke.moebius import IDENTITY_TOL, ORBIT_DISTINCT_TOL, moebius_order
from conftest import DEGREE5_C, DEGREE5_ORBIT, DEGREE7_C, random_interior, random_product


def reference_solution(alpha: complex, n: int, near: complex):
    sols = solve_unimodular_c(alpha, n)
    c, orbit = min(sols, key=lambda s: abs(s[0] - near))
    return MoebiusTransform(c, alpha), orbit


def test_invariant_group_validation():
    with pytest.raises(ValueError):
        InvariantGroup(MoebiusTransform(1j, 0.0), 1)
    with pytest.raises(ValueError):
        InvariantGroup(MoebiusTransform(1j, 0.0), 3)  # true order is 4
    InvariantGroup(MoebiusTransform(1j, 0.0), 4)


def test_construct_single_step():
    b = construct_invariant_product(MoebiusTransform(-1.0, 0.5), 1)
    assert b.zeros == (0j,)
    assert b.degree == 1


def test_construct_involution_products():
    rng = random.Random(7)
    for _ in range(10):
        a = random_interior(rng, 0.8)
        if abs(a) < 0.05:
            continue
        m = MoebiusTransform(-1.0, a)
        b = construct_invariant_product(m, 2)
        assert blaschke_equal(b, BlaschkeProduct(1.0, (0j, a)), 1e-10)
        assert verify_invariance(b, m, 10) <= 1e-12


def test_construct_degree5_zeros():
    m, _ = reference_solution(0.5, 5, DEGREE5_C)
    b = construct_invariant_product(m, 5)
    assert abs(b.zeros[0]) == 0
    for zero, expected in zip(b.zeros[1:], DEGREE5_ORBIT):
        assert abs(zero - expected) <= 1e-4


def test_construct_rejects_open_orbit():
    with pytest.raises(OrbitNotClosed):
        construct_invariant_product(MoebiusTransform(1.0, 0.5), 3)


def test_construct_rejects_degenerate_orbit():
    with pytest.raises(OrbitDegenerate):
        construct_invariant_product(MoebiusTransform(-1.0, 0.5), 6)


def test_construct_admits_degenerate_orbit_at_zero_tol():
    b = construct_invariant_product(MoebiusTransform(-1.0, 0.5), 6, distinct_tol=0.0)
    assert b.degree == 6


def test_find_group_of_monomial():
    b = BlaschkeProduct(1.0, (0j,) * 4)
    groups = find_invariant_group(b)
    assert len(groups) == 1
    group = groups[0]
    assert group.order == 4
    # The canonical generator: rotation by i.
    powers = [moebius_power(group.generator, j) for j in range(1, 5)]
    assert any(abs(p.c - 1j) <= 1e-9 and abs(p.alpha) <= 1e-9 for p in powers)


def test_find_group_of_degree5_product():
    m, _ = reference_solution(0.5, 5, DEGREE5_C)
    b = construct_invariant_product(m, 5)
    groups = find_invariant_group(b)
    assert len(groups) == 1
    group = groups[0]
    assert group.order == 5
    powers = [moebius_power(group.generator, j) for j in range(1, 6)]
    assert any(abs(p.c - m.c) <= 1e-7 and abs(p.alpha - m.alpha) <= 1e-7 for p in powers)


def test_find_group_empty_for_generic_zeros():
    b = BlaschkeProduct(1.0, (0j, 0.3 + 0j, 0.6j))
    assert find_invariant_group(b) == ()


def test_find_group_requires_canonical():
    with pytest.raises(BadShape):
        find_invariant_group(BlaschkeProduct(1j, (0j, 0.5)))
    with pytest.raises(BadShape):
        find_invariant_group(BlaschkeProduct(1.0, (0.5 + 0j, 0.4)))


def test_find_group_case_b_degree4(degree4_case_b_product):
    groups = find_invariant_group(degree4_case_b_product)
    assert len(groups) == 1
    assert groups[0].order == 2
    gen = groups[0].generator
    assert abs(gen.c - (-1)) <= 1e-9
    assert abs(gen.alpha - 2 / 3) <= 1e-9


def test_verify_invariance_antipodal():
    b = BlaschkeProduct(1.0, (0j, 0j))
    assert verify_invariance(b, MoebiusTransform(-1.0, 0.0), 10) <= 1e-14


def test_verify_invariance_witness():
    b = BlaschkeProduct(1.0, (0j, 0j))
    assert verify_invariance(b, MoebiusTransform(1j, 0.0), 10) >= 0.1


def test_verify_invariance_degree7():
    m, _ = reference_solution(0.5, 7, DEGREE7_C)
    b = construct_invariant_product(m, 7)
    assert verify_invariance(b, m, 100) <= 1e-6


def test_verify_invariance_needs_enough_samples():
    b = BlaschkeProduct(1.0, (0j, 0j))
    with pytest.raises(ValueError):
        verify_invariance(b, MoebiusTransform(1j, 0.0), 1)


def test_verify_invariance_deterministic():
    b = BlaschkeProduct(1.0, (0j, 0.4, 0.2j))
    m = MoebiusTransform(-1.0, 0.3)
    first = verify_invariance(b, m, 50)
    second = verify_invariance(b, m, 50)
    assert first == second


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_round_trip_group_recovery(n):
    rng = random.Random(1000 + n)
    recovered = 0
    attempts = 0
    while recovered < 3 and attempts < 20:
        attempts += 1
        alpha = random_interior(rng, 0.6)
        if abs(alpha) < 0.1:
            continue
        try:
            sols = solve_unimodular_c(alpha, n)
        except NoSolution:
            continue
        for c, _ in sols:
            m = MoebiusTransform(c, alpha)
            b = construct_invariant_product(m, n)
            groups = find_invariant_group(b)
            assert groups, f"no group recovered for n={n}"
            assert all(b.degree % g.order == 0 for g in groups)
            top = groups[0]
            powers = [moebius_power(top.generator, j) for j in range(1, top.order + 1)]
            assert any(
                abs(p.c - m.c) <= 1e-7 and abs(p.alpha - m.alpha) <= 1e-7 for p in powers
            ), f"generator group does not contain the constructing map for n={n}"
            recovered += 1
            break
    assert recovered >= 3


def test_group_elements_all_invariant():
    m, _ = reference_solution(0.5, 5, DEGREE5_C)
    b = construct_invariant_product(m, 5)
    group = find_invariant_group(b)[0]
    for j in range(1, group.order):
        assert verify_invariance(b, moebius_power(group.generator, j), 50) <= 1e-8


def test_generator_permutes_zero_multiset():
    m, _ = reference_solution(0.5, 5, DEGREE5_C)
    b = construct_invariant_product(m, 5)
    group = find_invariant_group(b)[0]
    images = [moebius_eval(group.generator, z) for z in b.zeros]
    for image in images:
        assert min(abs(image - z) for z in b.zeros) <= 1e-7


def vet_every_candidate(product, tol=GROUP_MATCH_TOL):
    """Reference search: full oracle on every candidate, powers dropped last."""
    n = product.degree
    identity_tol = max(IDENTITY_TOL, tol)
    accepted = []
    for cand in invariants._unique_candidates(product, tol):
        if verify_invariance(product, cand, n + 1) > tol:
            continue
        order = moebius_order(cand, n, identity_tol)
        if order is None or n % order != 0:
            warnings.warn(f"invariant candidate {cand!r} has order {order!r} inconsistent with degree {n}")
            continue
        accepted.append((order, cand))
    accepted.sort(
        key=lambda item: (
            -item[0],
            cmath.phase(item[1].c) % (2 * math.pi),
            cmath.phase(item[1].alpha) % (2 * math.pi),
        )
    )
    groups = []
    for order, cand in accepted:
        if any(is_power(g, cand, max(tol, 10 * identity_tol)) for g in groups):
            continue
        groups.append(InvariantGroup(cand, order, identity_tol))
    return tuple(groups)


def is_power(group, m, tol):
    current = group.generator
    for _ in range(group.order):
        if abs(current.c - m.c) <= tol and abs(current.alpha - m.alpha) <= tol:
            return True
        current = moebius_compose(current, group.generator)
    return False


def orbit_products():
    """Orbit products of degree 2..30: per degree the first orbit with
    distinct points, the first degenerate one (repeated points, admitted at
    ``distinct_tol=0``) and the last; up to degree 12 the first also with
    doubled zeros."""
    alpha = 0.3 + 0.15j
    for n in range(2, 31):
        sols = solve_unimodular_c(alpha, n, tol=0.0)
        distinct = [c for c, orbit in sols if orbit.min_pairwise_gap >= ORBIT_DISTINCT_TOL]
        degenerate = [c for c, orbit in sols if orbit.min_pairwise_gap < ORBIT_DISTINCT_TOL]
        picks = {distinct[0], sols[-1][0], *degenerate[:1]}
        for c in sorted(picks, key=cmath.phase):
            b = construct_invariant_product(MoebiusTransform(c, alpha), n, distinct_tol=0.0)
            yield b
            if c == distinct[0] and n <= 12:
                yield BlaschkeProduct(1.0, b.zeros * 2)


def structured_products():
    for n in range(2, 13):
        yield BlaschkeProduct(1.0, (0j,) * n)
        yield BlaschkeProduct(1.0, (0j, 0j) + tuple(0.6 * cmath.exp(2j * math.pi * k / n) for k in range(n)))


def test_search_matches_vetting_every_candidate():
    rng = random.Random(31)
    randoms = [BlaschkeProduct(1.0, (0j,) + random_product(rng, n).zeros) for n in range(2, 16)]
    for b in [*orbit_products(), *structured_products(), *randoms]:
        with warnings.catch_warnings(record=True) as expected_warnings:
            warnings.simplefilter("always")
            expected = vet_every_candidate(b)
        with warnings.catch_warnings(record=True) as found_warnings:
            warnings.simplefilter("always")
            found = find_invariant_group(b)
        assert found == expected, f"groups differ for zeros {b.zeros}"
        assert len(found_warnings) == len(expected_warnings)
    assert all(find_invariant_group(b) == () for b in randoms)


def test_search_vets_each_group_once(monkeypatch):
    calls = []
    oracle = invariants.verify_invariance

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(invariants, "verify_invariance", counted)
    # Some of these products have clustered zeros with |B| tiny near them, so
    # non-invariant order-2 candidates pass at the zeros and at radius 1/2;
    # the oracle point where |B| is largest must reject them.
    for c, _ in solve_unimodular_c(0.4, 20):
        calls.clear()
        b = construct_invariant_product(MoebiusTransform(c, 0.4), 20)
        groups = find_invariant_group(b)
        assert groups and groups[0].order == 20
        assert len(calls) <= len(groups)


def test_search_warns_on_inconsistent_order(monkeypatch):
    monkeypatch.setattr(invariants, "moebius_order", lambda *args: None)
    m, _ = reference_solution(0.5, 5, DEGREE5_C)
    b = construct_invariant_product(m, 5)
    with pytest.warns(UserWarning, match="inconsistent with degree 5"):
        assert find_invariant_group(b) == ()
