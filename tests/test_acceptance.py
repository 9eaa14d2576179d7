"""Acceptance suite: every criterion runs at its stated tolerance.

Each test prints one ``PASS``/``FAIL`` line (visible with ``pytest -s``)
and asserts the same condition, so the suite doubles as a checklist.
"""

from __future__ import annotations

import cmath
import math
import random

from blaschke import (
    BlaschkeProduct,
    ComplexPolynomial,
    MoebiusTransform,
    blaschke_compose,
    blaschke_equal,
    blaschke_eval,
    blaschke_preimages,
    chord_concurrency,
    check_paired_conditions_2n,
    construct_invariant_product,
    decompose_paired_2n,
    decompose_tripled_3n,
    decompose_via_invariants,
    find_invariant_group,
    moebius_power,
    poly_roots,
    poncelet_ellipse,
    solve_unimodular_c,
    verify_invariance,
)
from conftest import (
    DEGREE5_C,
    DEGREE5_ORBIT,
    DEGREE7_A1,
    DEGREE7_A6,
    DEGREE7_C,
    exact_degree3_constant,
    multiset_close,
    random_interior,
    random_product,
)


def report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def closest(solutions, target):
    return min(solutions, key=lambda s: abs(s[0] - target))


def test_criterion_1_degree5_constant_and_orbit():
    c, orbit = closest(solve_unimodular_c(0.5, 5), DEGREE5_C)
    ok = abs(c - DEGREE5_C) <= 1e-4 and all(
        abs(p - e) <= 1e-4 for p, e in zip(orbit.points[1:], DEGREE5_ORBIT)
    )
    report(1, "degree-5 constant and orbit within 1e-4", ok)


def test_criterion_2_degree7_constant_and_orbit_endpoints():
    c, orbit = closest(solve_unimodular_c(0.5, 7), DEGREE7_C)
    ok = (
        abs(c - DEGREE7_C) <= 1e-4
        and abs(orbit.points[1] - DEGREE7_A1) <= 1e-4
        and abs(orbit.points[6] - DEGREE7_A6) <= 1e-4
    )
    report(2, "degree-7 constant and orbit endpoints within 1e-4", ok)


def test_criterion_3_degree3_closed_form():
    # Independent oracle: the quadratic formula on c^2 + 1.25 c + 1 = 0.
    expected = [exact_degree3_constant(1), exact_degree3_constant(-1)]
    solutions = solve_unimodular_c(0.5, 3)
    returned = [c for c, _ in solutions]
    ok = (
        len(returned) == 2
        and multiset_close(returned, expected, 1e-9)
        and multiset_close(returned, [-0.625 + 0.780625j, -0.625 - 0.780625j], 1e-6)
    )
    report(3, "degree-3 constants are the quadratic roots (1e-9)", ok)


def test_criterion_4_degree4_case_b():
    # Constant equation for the rotation-free degree-4 case at a1 = 2/3:
    # coefficients a1 * [1 - |a1|^2, 1, 2 |a1|^2, |a1|^2] in ascending order.
    a1 = 2 / 3
    t = abs(a1) ** 2
    equation = ComplexPolynomial([a1 * (1 - t), a1, 2 * a1 * t, a1 * t])
    unimodular = [r / abs(r) for r in poly_roots(equation) if abs(abs(r) - 1) <= 1e-8]
    ok = len(unimodular) == 1 and abs(unimodular[0] - (-1)) <= 1e-10
    c = unimodular[0]
    m = MoebiusTransform(c / abs(c), -c.conjugate() * a1)
    zeros = (0j, a1, m(a1), m(m(a1)))
    built = BlaschkeProduct(1.0, zeros)
    inner = BlaschkeProduct(1.0, (0j, a1))
    squared = blaschke_compose(BlaschkeProduct(1.0, (0j, 0j)), inner)
    ok = ok and blaschke_equal(built, squared, 1e-8)
    report(4, "degree-4 case (b): unique unimodular root c = -1, square product", ok)


def test_criterion_5_invariance_residuals():
    ok = True
    for n, target in ((3, exact_degree3_constant(1)), (5, DEGREE5_C), (7, DEGREE7_C)):
        c, _ = closest(solve_unimodular_c(0.5, n), target)
        m = MoebiusTransform(c, 0.5)
        product = construct_invariant_product(m, n)
        ok = ok and verify_invariance(product, m, 100) <= 1e-9
    report(5, "invariance residuals <= 1e-9 for degrees 3, 5, 7", ok)


def test_criterion_6_decomposition_round_trips():
    ok = True

    # Degree 4 via the invariant group.
    b4 = BlaschkeProduct(1.0, (0j, 0j, 2 / 3, 2 / 3))
    group = find_invariant_group(b4)[0]
    dec4 = decompose_via_invariants(b4, group)
    ok = ok and blaschke_equal(blaschke_compose(dec4.outer, dec4.inner), b4, 1e-7)
    ok = ok and dec4.inner.degree * dec4.outer.degree == b4.degree

    # Degree 6 through the paired route.
    b6 = BlaschkeProduct(1.0, (0j, 1.4803e-16, 7.40149e-17, 0.5, 0.5, 0.5))
    dec6 = decompose_paired_2n(b6, 3)
    ok = ok and blaschke_equal(blaschke_compose(dec6.outer, dec6.inner), b6, 1e-7)
    ok = ok and dec6.inner.degree * dec6.outer.degree == b6.degree

    # Degree 6 through the tripled route.
    m = MoebiusTransform(exact_degree3_constant(1), 0.5)
    b6t = construct_invariant_product(m, 6, distinct_tol=0.0)
    dec6t = decompose_tripled_3n(b6t)
    ok = ok and blaschke_equal(blaschke_compose(dec6t.outer, dec6t.inner), b6t, 1e-7)
    ok = ok and dec6t.inner.degree * dec6t.outer.degree == b6t.degree

    report(6, "decomposition round trips at 1e-7 on all three routes", ok)


def test_criterion_7_poncelet_ellipse():
    b = BlaschkeProduct(1.0, (0j, 2 / 3, (1 - 1j) / 2, (1 + 1j) / 2))
    conds = check_paired_conditions_2n(b, 1, ((2, 3),))
    ellipse = poncelet_ellipse(b, (2, 3))
    ok = (
        abs(conds.residuals[0]) == 0.0
        and ellipse.focus1 == (1 - 1j) / 2
        and ellipse.focus2 == (1 + 1j) / 2
        and abs(ellipse.focal_sum - math.sqrt(5.0 / 3.0)) <= 1e-12
    )
    for k in range(8):
        lam = cmath.exp(2j * math.pi * k / 8)
        ok = ok and max(chord_concurrency(b, 2 / 3, lam).distances) <= 1e-7
    report(7, "ellipse data exact and chords concurrent for 8 angles", ok)


def test_criterion_8_equality_oracle_soundness():
    rng = random.Random(2024)
    ok = True
    for _ in range(200):
        degree = rng.randint(1, 6)
        a = random_product(rng, degree)
        b = random_product(rng, degree)
        ok = ok and not blaschke_equal(a, b, 1e-8)
        permuted = list(a.zeros)
        rng.shuffle(permuted)
        ok = ok and blaschke_equal(a, BlaschkeProduct(a.constant, tuple(permuted)), 1e-8)
    report(8, "200 random pairs unequal; permuted copies equal", ok)


def test_criterion_9_boundary_modulus():
    rng = random.Random(31415)
    ok = True
    for _ in range(100):
        product = random_product(rng, rng.randint(1, 8), radius=0.9)
        for k in range(64):
            z = cmath.exp(2j * math.pi * k / 64)
            ok = ok and abs(abs(blaschke_eval(product, z)) - 1.0) <= 1e-10
    report(9, "boundary modulus within 1e-10 on 100 random products", ok)


def test_criterion_10_preimage_contract():
    rng = random.Random(2718)
    ok = True
    for _ in range(50):
        product = random_product(rng, rng.randint(1, 6))
        lam = cmath.exp(2j * math.pi * rng.random())
        points = blaschke_preimages(product, lam)
        ok = ok and len(points) == product.degree
        for z in points:
            ok = ok and abs(abs(z) - 1.0) <= 1e-8
            ok = ok and abs(blaschke_eval(product, z) - lam) <= 1e-8
    report(10, "preimage count, boundary and value contract on 50 random inputs", ok)


def test_criterion_11_group_divisibility_and_recovery():
    rng = random.Random(6174)
    ok = True
    built = 0
    while built < 50:
        n = rng.randint(2, 7)
        alpha = random_interior(rng, 0.6)
        if abs(alpha) < 0.1:
            continue
        try:
            solutions = solve_unimodular_c(alpha, n)
        except Exception:
            continue
        c, _ = solutions[rng.randrange(len(solutions))]
        m = MoebiusTransform(c, alpha)
        product = construct_invariant_product(m, n)
        groups = find_invariant_group(product)
        ok = ok and len(groups) >= 1
        ok = ok and all(product.degree % g.order == 0 for g in groups)
        recovered = False
        for g in groups:
            for j in range(1, g.order + 1):
                p = moebius_power(g.generator, j)
                if abs(p.c - m.c) <= 1e-7 and abs(p.alpha - m.alpha) <= 1e-7:
                    recovered = True
        ok = ok and recovered
        built += 1
    report(11, "orders divide degree and generators recovered on 50 products", ok)
