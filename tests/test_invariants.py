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
    blaschke_eval,
    construct_invariant_product,
    decompose_auto,
    find_invariant_group,
    moebius_compose,
    moebius_eval,
    moebius_power,
    solve_unimodular_c,
    verify_invariance,
)
from blaschke import invariants
from blaschke.decompose import ROUNDTRIP_TOL, roundtrip_residual
from blaschke.invariants import GROUP_MATCH_TOL
from blaschke.moebius import IDENTITY_TOL, ORBIT_DISTINCT_TOL, moebius_order
from blaschke.products import ORIGIN_ZERO_TOL
from conftest import (
    DEGREE5_C,
    DEGREE5_ORBIT,
    DEGREE7_C,
    DRIFT_CASES,
    drifted_orbit_product,
    random_interior,
    random_product,
    totient,
)


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


@pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan])
def test_find_group_rejects_negative_or_nan_tol(tol):
    c = solve_unimodular_c(0.5, 6)[0][0]
    b = construct_invariant_product(MoebiusTransform(c, 0.5), 6)
    assert find_invariant_group(b)[0].order == 6
    with pytest.raises(ValueError, match="nonnegative"):
        find_invariant_group(b, tol)


@pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan])
def test_construct_rejects_negative_or_nan_tol(tol):
    m = MoebiusTransform(solve_unimodular_c(0.5, 6)[0][0], 0.5)
    assert construct_invariant_product(m, 6).degree == 6
    for kwargs in ({"distinct_tol": tol}, {"closure_tol": tol}):
        with pytest.raises(ValueError, match="nonnegative"):
            construct_invariant_product(m, 6, **kwargs)


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


def random_origin_products():
    rng = random.Random(31)
    return [BlaschkeProduct(1.0, (0j,) + random_product(rng, n).zeros) for n in range(2, 16)]


def merged_candidates(product, tol):
    """Candidates from every pair of zeros, plus the rotations by the k-th
    roots of unity when 0 is a zero of multiplicity k >= 2, each kept unless
    within 1e-9 of one kept before: the quadratic generate-and-merge
    reference for the exact dedupe."""
    nonzero = [z for z in product.zeros if abs(z) > ORIGIN_ZERO_TOL]
    candidates = []
    for aj in nonzero:
        for al in nonzero:
            if abs(abs(aj) - abs(al)) <= tol:
                c = -aj / al
                candidates.append(MoebiusTransform(c / abs(c), al))
    k = product.degree - len(nonzero)
    if k >= 2:
        candidates += [MoebiusTransform(cmath.exp(2j * math.pi * j / k), 0j) for j in range(1, k)]
    return merge_close(candidates)


def merge_close(candidates):
    kept = []
    for cand in candidates:
        if not any(abs(cand.c - k.c) <= 1e-9 and abs(cand.alpha - k.alpha) <= 1e-9 for k in kept):
            kept.append(cand)
    return kept


def test_exact_dedupe_keeps_the_merged_candidates_in_order():
    # Equal zeros give bit-equal candidates, which the exact dedupe drops.
    # Zeros equal only up to rounding (orbits that revisit points) leave
    # near-equal candidates, which the 1e-9 merge would have folded.
    for b in [*orbit_products(), *structured_products(), *random_origin_products()]:
        exact = invariants._unique_candidates(b, GROUP_MATCH_TOL)
        assert len(set(exact)) == len(exact)
        assert merge_close(exact) == merged_candidates(b, GROUP_MATCH_TOL), f"zeros {b.zeros}"


def test_search_matches_vetting_every_candidate():
    # The invariants form one cyclic group, so the search stops at its
    # generator: the first group of the exhaustive reference.
    randoms = random_origin_products()
    drifted = [drifted_orbit_product(n, drift) for n, drift in DRIFT_CASES]
    for b in [*orbit_products(), *structured_products(), *drifted, *randoms]:
        with warnings.catch_warnings():
            # The reference warns about candidates of inconsistent order.
            warnings.simplefilter("ignore", UserWarning)
            expected = vet_every_candidate(b)
        assert find_invariant_group(b) == expected[:1], f"groups differ for zeros {b.zeros}"
    assert all(find_invariant_group(b) == () for b in randoms)


def test_every_invariant_is_a_power_of_the_generator():
    drifted = [drifted_orbit_product(n, drift) for n, drift in DRIFT_CASES]
    for b in [*orbit_products(), *structured_products(), *drifted]:
        groups = find_invariant_group(b)
        for cand in invariants._unique_candidates(b, GROUP_MATCH_TOL):
            if verify_invariance(b, cand, b.degree + 1) <= GROUP_MATCH_TOL:
                assert groups, f"invariant {cand!r} but no group for zeros {b.zeros}"
                tol = max(GROUP_MATCH_TOL, 10 * groups[0].identity_tol)
                assert is_power(groups[0], cand, tol), f"{cand!r} is no power for zeros {b.zeros}"


def test_search_vets_each_group_once(monkeypatch):
    calls = []
    oracle = invariants.verify_invariance

    def counted(*args):
        calls.append(args)
        return oracle(*args)

    monkeypatch.setattr(invariants, "verify_invariance", counted)
    # Some of these products have clustered zeros with |B| tiny near them, so
    # non-invariant order-2 candidates nearly vanish at the zeros and inside
    # the disk; on the circle, where |B| = 1, their residual shows.  The
    # search checks the circle points itself, never through the oracle.
    for c, _ in solve_unimodular_c(0.4, 20):
        calls.clear()
        b = construct_invariant_product(MoebiusTransform(c, 0.4), 20)
        groups = find_invariant_group(b)
        assert groups and groups[0].order == 20
        assert len(calls) <= len(groups)


def sign_flipping_product():
    """Zeros 0, 1/2 and the fixed point p of M(z) = (1/2 - z) / (1 - z/2).

    M swaps 0 and 1/2 and fixes p, so it permutes the zeros, but it turns the
    disk by pi about p: B(M(z)) = -B(z), and the product has no invariants.
    """
    p = (1 - math.sqrt(0.75)) / 0.5
    return BlaschkeProduct(1.0, (0j, 0.5 + 0j, complex(p)))


def test_search_builds_the_oracle_once(monkeypatch):
    calls = []
    circle_points = invariants._circle_points

    def counted(*args):
        calls.append(args)
        return circle_points(*args)

    monkeypatch.setattr(invariants, "_circle_points", counted)
    c, _ = solve_unimodular_c(0.4, 20)[0]
    b = construct_invariant_product(MoebiusTransform(c, 0.4), 20)
    assert find_invariant_group(b)[0].order == 20
    assert len(calls) == 1

    calls.clear()
    b = sign_flipping_product()
    swap = MoebiusTransform(-1.0, 0.5)
    assert max(abs(blaschke_eval(b, moebius_eval(swap, a))) for a in b.zeros) <= 1e-15
    assert find_invariant_group(b) == ()
    assert len(calls) == 1


@pytest.mark.parametrize("n", [24, 36, 60, 100])
def test_every_primitive_orbit_up_to_degree_100(n):
    # Every k prime to n closes a distinct orbit; the product built on one
    # recovers its full group and splits through it.
    for radius in (0.3, 0.6, 0.9):
        alpha = radius * cmath.exp(1.1j)
        sols = solve_unimodular_c(alpha, n)
        assert len(sols) == totient(n)
        assert all(orbit.min_pairwise_gap >= ORBIT_DISTINCT_TOL for _, orbit in sols)
        c, _ = sols[len(sols) // 2]
        b = construct_invariant_product(MoebiusTransform(c, alpha), n)
        (group,) = find_invariant_group(b)
        assert group.order == n
        assert roundtrip_residual(decompose_auto(b), b) <= ROUNDTRIP_TOL


def test_search_warns_on_inconsistent_order(monkeypatch):
    monkeypatch.setattr(invariants, "moebius_order", lambda *args: None)
    m, _ = reference_solution(0.5, 5, DEGREE5_C)
    b = construct_invariant_product(m, 5)
    with pytest.warns(UserWarning, match="inconsistent with degree 5"):
        assert find_invariant_group(b) == ()


def test_no_spurious_group_at_degree_200():
    # |B| shrinks inside the disk as the degree grows, so a map that nearly
    # permutes the zeros of a random product leaves a tiny residual there;
    # on the circle |B| = 1 and the residual shows.
    products = []
    for seed in range(5):
        rng = random.Random(seed)
        products.append(BlaschkeProduct(1.0, (0j,) + tuple(random_interior(rng) for _ in range(199))))
    rng = random.Random(200)
    products.append(BlaschkeProduct(1.0, (0j, 0j) + tuple(random_interior(rng) for _ in range(198))))
    for b in products:
        assert find_invariant_group(b) == ()


@pytest.mark.parametrize("n", range(2, 13))
def test_rotation_invariants_at_a_repeated_origin_zero(n):
    # z^n is invariant under every rotation by an n-th root of unity; with
    # zeros 0, 0 and a regular n-gon only the rotation by pi survives, and
    # only when n is even.
    ring = tuple(0.6 * cmath.exp(2j * math.pi * k / n) for k in range(n))
    cases = [(BlaschkeProduct(1.0, (0j,) * n), n), (BlaschkeProduct(1.0, (0j, 0j) + ring), 2 if n % 2 == 0 else 0)]
    for b, order in cases:
        groups = find_invariant_group(b)
        if not order:
            assert groups == ()
            continue
        (group,) = groups
        assert group.order == order
        assert group.generator.alpha == 0
        roots = [cmath.exp(2j * math.pi * j / order) for j in range(order)]
        assert min(abs(group.generator.c - w) for w in roots) <= 1e-15
        assert verify_invariance(b, group.generator, b.degree + 1) <= 1e-13


def test_rotation_order_divides_the_origin_multiplicity():
    # With zeros 0, 0 and a 14-gon of radius 0.3, B is within 1e-7 of z^16 on
    # the circle, so the rotation by 2 pi / 16 passes the oracle; but near 0,
    # B(z) ~ z^2, so only the rotations by square roots of unity are
    # invariants, and only they are candidates.
    ring = tuple(0.3 * cmath.exp(2j * math.pi * k / 14) for k in range(14))
    b = BlaschkeProduct(1.0, (0j, 0j) + ring)
    assert verify_invariance(b, MoebiusTransform(cmath.exp(2j * math.pi / 16), 0j), 17) <= GROUP_MATCH_TOL
    assert [group.order for group in find_invariant_group(b)] == [2]
