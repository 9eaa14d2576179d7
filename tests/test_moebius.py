"""Tests for disk automorphisms, orbits and the unimodular-constant solver."""

from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blaschke import (
    IDENTITY,
    DomainError,
    MoebiusTransform,
    NoSolution,
    NormalizationError,
    closure_polynomial,
    moebius_compose,
    moebius_eval,
    moebius_fixed_point_in_disk,
    moebius_inverse,
    moebius_iterate_zero,
    moebius_order,
    moebius_power,
    poly_roots,
    solve_unimodular_c,
)
from blaschke import moebius
from blaschke.moebius import ORBIT_CLOSURE_TOL, ORBIT_DISTINCT_TOL
from conftest import (
    DEGREE5_C,
    DEGREE5_ORBIT,
    DEGREE7_A1,
    DEGREE7_A6,
    DEGREE7_C,
    exact_degree3_constant,
    multiset_close,
    random_interior,
    totient,
)


def transforms(rng: random.Random, count: int):
    for _ in range(count):
        yield MoebiusTransform(cmath.exp(2j * math.pi * rng.random()), random_interior(rng, 0.9))


def test_validation():
    with pytest.raises(ValueError):
        MoebiusTransform(1.5, 0.0)
    with pytest.raises(ValueError):
        MoebiusTransform(1.0, 1.0)
    with pytest.raises(ValueError):
        MoebiusTransform(complex(math.nan, 0), 0.0)


def test_eval_identity():
    assert moebius_eval(IDENTITY, 0.3 + 0.4j) == 0.3 + 0.4j


def test_eval_half_pole_involution_at_zero():
    m = MoebiusTransform(-1.0, 0.5)
    assert moebius_eval(m, 0) == 0.5


def test_eval_at_zero_is_minus_c_alpha():
    rng = random.Random(11)
    for m in transforms(rng, 20):
        assert abs(moebius_eval(m, 0) - (-m.c * m.alpha)) <= 1e-15


def test_eval_domain_error():
    with pytest.raises(DomainError):
        moebius_eval(IDENTITY, 1.2)


def test_eval_circle_to_circle():
    rng = random.Random(23)
    for m in transforms(rng, 5):
        for k in range(256):
            z = cmath.exp(2j * math.pi * k / 256)
            assert abs(abs(moebius_eval(m, z)) - 1.0) <= 1e-12


def test_compose_with_inverse_is_identity():
    rng = random.Random(5)
    for m in transforms(rng, 20):
        comp = moebius_compose(m, moebius_inverse(m))
        assert abs(comp.c - 1.0) <= 1e-12
        assert abs(comp.alpha) <= 1e-12


def test_compose_rotations_adds_angles():
    rot_i = MoebiusTransform(1j, 0.0)
    comp = moebius_compose(rot_i, rot_i)
    assert comp.c == -1
    assert comp.alpha == 0


def test_half_pole_involution_squares_to_identity():
    # Direct algebra: with c = -1 the map swaps 0 and alpha, and applying it
    # twice returns z.
    m = MoebiusTransform(-1.0, 0.5)
    comp = moebius_compose(m, m)
    assert abs(comp.c - 1.0) <= 1e-15
    assert abs(comp.alpha) <= 1e-15


def test_compose_associative():
    rng = random.Random(37)
    ms = list(transforms(rng, 30))
    for a, b, c in zip(ms[::3], ms[1::3], ms[2::3]):
        left = moebius_compose(moebius_compose(a, b), c)
        right = moebius_compose(a, moebius_compose(b, c))
        assert abs(left.c - right.c) <= 1e-10
        assert abs(left.alpha - right.alpha) <= 1e-10


def test_compose_agrees_with_pointwise():
    rng = random.Random(41)
    ms = list(transforms(rng, 20))
    for a, b in zip(ms[::2], ms[1::2]):
        comp = moebius_compose(a, b)
        for _ in range(5):
            z = random_interior(rng)
            assert abs(moebius_eval(comp, z) - moebius_eval(a, moebius_eval(b, z))) <= 1e-12


def test_power_matches_iterated_composition_up_to_the_disk_edge():
    # The iterates of a hyperbolic map run to the circle: 1 - |alpha| is
    # 1.2e-10 at n = 8 and 6.2e-12 at n = 9, both inside the open disk, and
    # below the 1e-12 margin at n = 10.  A square formed past the top bit of
    # n would leave the disk from n = 8 on.
    m = MoebiusTransform(1.0, 0.9)
    iterate = IDENTITY
    for n in range(1, 10):
        iterate = moebius_compose(iterate, m)
        power = moebius_power(m, n)
        assert abs(power.c - iterate.c) <= 1e-12
        assert abs(power.alpha - iterate.alpha) <= 1e-12
    with pytest.raises(NormalizationError):
        moebius_power(m, 10)


def test_iterate_zero_degree5_orbit():
    m = MoebiusTransform(DEGREE5_C / abs(DEGREE5_C), 0.5)
    report = moebius_iterate_zero(m, 5, closure_tol=1e-5)
    assert report.points[0] == 0
    for point, expected in zip(report.points[1:], DEGREE5_ORBIT):
        assert abs(point - expected) <= 1e-4
    assert report.closes


def test_iterate_zero_degree7_endpoints():
    m = MoebiusTransform(DEGREE7_C / abs(DEGREE7_C), 0.5)
    report = moebius_iterate_zero(m, 7, closure_tol=1e-5)
    assert abs(report.points[1] - DEGREE7_A1) <= 1e-4
    assert abs(report.points[6] - DEGREE7_A6) <= 1e-4
    assert report.closes


def test_iterate_zero_identity():
    report = moebius_iterate_zero(IDENTITY, 3)
    assert report.points == (0j, 0j, 0j)
    assert report.closes
    assert report.min_pairwise_gap == 0


def test_iterate_zero_single_point():
    report = moebius_iterate_zero(MoebiusTransform(-1.0, 0.5), 1)
    assert report.points == (0j,)
    assert math.isinf(report.min_pairwise_gap)


def test_order_of_rotations():
    assert moebius_order(MoebiusTransform(cmath.exp(2j * math.pi / 3), 0.0), 10) == 3
    assert moebius_order(MoebiusTransform(1j, 0.0), 10) == 4


def test_order_of_involution():
    assert moebius_order(MoebiusTransform(-1.0, 0.3 + 0.2j), 10) == 2


def test_order_absent_for_hyperbolic():
    assert moebius_order(MoebiusTransform(1.0, 0.5), 50) is None


def test_order_of_powers_divides_order():
    m = MoebiusTransform(exact_degree3_constant(), 0.5)
    k = moebius_order(m, 10)
    assert k == 3
    for j in range(1, k):
        kj = moebius_order(moebius_power(m, j), 10)
        assert kj is not None and k % kj == 0


def test_fixed_point_of_rotation():
    assert moebius_fixed_point_in_disk(MoebiusTransform(1j, 0.0)) == 0


def test_fixed_point_of_involution():
    # Fixed points of the involution with pole 1/2 solve z^2 - 4z + 1 = 0.
    gamma = moebius_fixed_point_in_disk(MoebiusTransform(-1.0, 0.5))
    assert gamma is not None
    assert abs(gamma - (2 - math.sqrt(3))) <= 1e-10


def test_fixed_point_absent_on_boundary():
    # c = 1 with real pole fixes +/-1 on the circle and nothing inside.
    assert moebius_fixed_point_in_disk(MoebiusTransform(1.0, 0.5)) is None


def test_fixed_point_residual():
    rng = random.Random(99)
    for m in transforms(rng, 30):
        gamma = moebius_fixed_point_in_disk(m)
        if gamma is not None:
            assert abs(moebius_eval(m, gamma) - gamma) <= 1e-10


def test_closure_polynomial_degree3_closed_form():
    # At real pole a the degree-3 condition factors as
    # -a c (1 + (1 + a^2) c + c^2).
    a = 0.5
    b3 = closure_polynomial(a, 3)
    expected = [0.0, -a, -a * (1 + a * a), -a]
    assert len(b3.coeffs) == 4
    for got, want in zip(b3.coeffs, expected):
        assert abs(got - want) <= 1e-14


def test_closure_polynomial_degree5_closed_form():
    # Cleared of denominators the quartic factor is [16, 28, 33, 28, 16]/16.
    b5 = closure_polynomial(0.5, 5)
    assert b5.coeffs[0] == 0
    quartic = [16, 28, 33, 28, 16]
    for got, want in zip(b5.coeffs[1:], quartic):
        assert abs(got - (-0.5 / 16) * want) <= 1e-14


def test_solve_degree3_matches_quadratic_formula():
    sols = solve_unimodular_c(0.5, 3)
    assert len(sols) == 2
    expected = {exact_degree3_constant(1), exact_degree3_constant(-1)}
    for c, orbit in sols:
        assert min(abs(c - e) for e in expected) <= 1e-9
        assert orbit.closes and orbit.min_pairwise_gap > 0.1


def test_solve_degree5_contains_reference_constant():
    sols = solve_unimodular_c(0.5, 5)
    best_c, orbit = min(sols, key=lambda s: abs(s[0] - DEGREE5_C))
    assert abs(best_c - DEGREE5_C) <= 1e-4
    for point, expected in zip(orbit.points[1:], DEGREE5_ORBIT):
        assert abs(point - expected) <= 1e-4


def test_solve_degree7_contains_reference_constant():
    sols = solve_unimodular_c(0.5, 7)
    best_c, orbit = min(sols, key=lambda s: abs(s[0] - DEGREE7_C))
    assert abs(best_c - DEGREE7_C) <= 1e-4
    assert abs(orbit.points[1] - DEGREE7_A1) <= 1e-4
    assert abs(orbit.points[6] - DEGREE7_A6) <= 1e-4


def test_solve_degenerate_orbits_rejected_by_default():
    # At pole 1/2 the 6-step closure admits order-2 and order-3 constants
    # whose orbits revisit points; the default gap tolerance drops them.
    default_sols = solve_unimodular_c(0.5, 6)
    assert all(orbit.min_pairwise_gap >= 1e-7 for _, orbit in default_sols)
    assert len(default_sols) == 2

    admitted = solve_unimodular_c(0.5, 6, tol=0.0)
    assert len(admitted) == 5
    assert any(abs(c - (-1)) <= 1e-9 for c, _ in admitted)


def test_solve_rejects_identity_constant():
    for n in (2, 3, 4, 5, 6, 7):
        for c, _ in solve_unimodular_c(0.5, n, tol=0.0):
            assert abs(c - 1.0) > 1e-8


def test_solve_no_solution_for_huge_gap():
    with pytest.raises(NoSolution):
        solve_unimodular_c(0.5, 3, tol=0.9)


@pytest.mark.parametrize("tol", [-1.0, math.nan])
def test_solve_rejects_negative_or_nan_tol(tol):
    with pytest.raises(ValueError, match="nonnegative"):
        solve_unimodular_c(0.5, 6, tol=tol)


def test_solve_requires_nonzero_alpha():
    with pytest.raises(ValueError):
        solve_unimodular_c(0.0, 3)


@settings(max_examples=25, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=0.7),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.integers(min_value=2, max_value=6),
)
def test_solutions_close_orbits_and_leave_product_invariant(radius, angle, n):
    from blaschke import construct_invariant_product, verify_invariance

    alpha = radius * cmath.exp(1j * angle)
    try:
        sols = solve_unimodular_c(alpha, n)
    except NoSolution:
        return
    for c, orbit in sols:
        assert abs(abs(c) - 1.0) <= 1e-12
        assert orbit.closes
        m = MoebiusTransform(c, alpha)
        assert moebius_order(m, n, tol=1e-6) is not None
        product = construct_invariant_product(m, n)
        assert verify_invariance(product, m, 100) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.9),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.integers(min_value=2, max_value=100),
)
def test_closed_form_constants_up_to_degree_100(radius, angle, n):
    from blaschke import construct_invariant_product, verify_invariance

    alpha = radius * cmath.exp(1j * angle)
    assert len(solve_unimodular_c(alpha, n, tol=0.0)) == n - 1
    sols = solve_unimodular_c(alpha, n)
    assert len(sols) == totient(n)
    for c, orbit in sols:
        assert orbit.closes
        m = MoebiusTransform(c, alpha)
        assert moebius_order(m, n) == n
        product = construct_invariant_product(m, n)
        assert verify_invariance(product, m, n + 1) <= 1e-9


@pytest.mark.parametrize("alpha", [0.5, 0.3 + 0.4j, 0.8, 0.1j])
def test_closed_form_matches_closure_polynomial_roots(alpha):
    # The closure polynomial is c times a factor whose roots all lie on the
    # circle; they are the constants of every k = 1 .. n-1.
    for n in range(2, 13):
        roots = poly_roots(closure_polynomial(alpha, n))
        unimodular = [r / abs(r) for r in roots if abs(abs(r) - 1) <= 1e-6]
        closed_form = [c for c, _ in solve_unimodular_c(alpha, n, tol=0.0)]
        assert multiset_close(unimodular, closed_form, 1e-8)


@pytest.mark.parametrize(
    "alpha, n", [(0.5, 30), (0.65, 30), (0.8, 24), (0.9, 16), (0.5, 60), (0.5, 100)]
)
def test_solve_finds_every_primitive_constant(alpha, n):
    sols = solve_unimodular_c(alpha, n)
    assert len(sols) == totient(n)
    phases = [cmath.phase(c) % (2 * math.pi) for c, _ in sols]
    assert phases == sorted(phases)


def test_order_one_for_maps_within_tol_of_the_identity():
    assert moebius_order(IDENTITY, 5) == 1
    assert moebius_order(MoebiusTransform(1.0, 1e-9), 5, 1e-8) == 1


def test_order_of_parabolic_map_is_none():
    # |1 + c| = 2 sqrt(1 - |alpha|^2) puts the map on the parabolic boundary.
    m = MoebiusTransform(cmath.exp(2j * math.acos(0.8)), 0.6)
    assert moebius_order(m, 1000) is None


def test_order_tol_bounds_leftover_rotation_angle():
    # A rotation by 2 pi / 3 + 1e-9 leaves 3e-9 rad after three steps.
    m = MoebiusTransform(cmath.exp(1j * (2 * math.pi / 3 + 1e-9)), 0.0)
    assert moebius_order(m, 10, tol=1e-8) == 3
    assert moebius_order(m, 10, tol=1e-9) is None


def test_orbit_points_are_iterated_moebius_eval_bit_for_bit():
    rng = random.Random(13)
    closed = [MoebiusTransform(c, 0.4 + 0.1j) for c, _ in solve_unimodular_c(0.4 + 0.1j, 9)]
    wandering = [MoebiusTransform(cmath.exp(2j * math.pi * rng.random()), random_interior(rng, 0.9)) for _ in range(5)]
    for m in closed + wandering:
        for n in (1, 2, 9, 40):
            iterates = [0j]
            for _ in range(n):
                iterates.append(moebius_eval(m, iterates[-1]))
            points, closes = moebius._orbit_of_zero(m, n, ORBIT_CLOSURE_TOL)
            assert points == tuple(iterates[:-1])
            assert closes == (abs(iterates[-1]) <= ORBIT_CLOSURE_TOL)


def all_pairs_solutions(alpha, n):
    """The solver with every k admitted and the orbit gap taken over all pairs.

    The orbit is iterated with the arithmetic of ``moebius_eval``; the gap is
    the minimum over all C(n, 2) pairs of points (vectorised only for speed).
    """
    r = abs(alpha)
    scale = math.sqrt((1.0 - r) * (1.0 + r))
    solutions = []
    for k in range(1, n):
        c = cmath.exp(2j * math.acos(scale * math.cos(math.pi * k / n)))
        points = [0j]
        for _ in range(n):
            z = points[-1]
            points.append(c * (z - alpha) / (1.0 - alpha.conjugate() * z))
        if abs(points.pop()) <= ORBIT_CLOSURE_TOL:
            p = np.array(points)
            distances = np.abs(p[:, None] - p)
            np.fill_diagonal(distances, np.inf)
            solutions.append((c, tuple(points), float(distances.min())))
    solutions.sort(key=lambda item: cmath.phase(item[0]) % (2 * math.pi))
    return solutions


@pytest.mark.parametrize("radius", [0.1, 0.45, 0.9])
def test_neighbour_gap_matches_all_pairs_gap(radius):
    # The circular neighbours of each orbit point give the all-pairs minimum,
    # and any tol > 0 drops the same orbits as the all-pairs gap did.
    alpha = radius * cmath.exp(0.7j)
    for n in range(2, 101):
        expected = all_pairs_solutions(alpha, n)
        for tol, kept in ((0.0, expected), (ORBIT_DISTINCT_TOL, [s for s in expected if s[2] >= ORBIT_DISTINCT_TOL])):
            got = solve_unimodular_c(alpha, n, tol)
            assert [(c, orbit.points, orbit.closes) for c, orbit in got] == [(c, pts, True) for c, pts, _ in kept]
            assert all(abs(orbit.min_pairwise_gap - gap) <= 1e-15 for (_, orbit), (*_, gap) in zip(got, kept))
