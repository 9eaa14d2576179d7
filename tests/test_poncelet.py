"""Tests for the inscribed ellipse and the boundary equal-value properties."""

from __future__ import annotations

import cmath
import math
import random

import pytest

from blaschke import (
    BadShape,
    BlaschkeProduct,
    ConditionsUnsatisfied,
    NoConcurrentPairing,
    NondegeneracyError,
    PonceletEllipse,
    blaschke_eval,
    chord_concurrency,
    check_paired_conditions_2n,
    circle_through_pole_property,
    find_poncelet_ellipse,
    line_through_a1_property,
    poncelet_ellipse,
)
from conftest import random_interior


def test_ellipse_reference_values(poncelet_product):
    ell = poncelet_ellipse(poncelet_product, (2, 3))
    assert ell.focus1 == (1 - 1j) / 2
    assert ell.focus2 == (1 + 1j) / 2
    # |1 - conj(a2) a3| = sqrt(5)/2 and the radicand is 4/3.
    assert abs(ell.focal_sum - math.sqrt(5.0 / 3.0)) <= 1e-15


def test_ellipse_condition_residual_is_exact_zero(poncelet_product):
    conds = check_paired_conditions_2n(poncelet_product, 1, ((2, 3),))
    assert abs(conds.residuals[0]) == 0.0


def test_ellipse_rejects_violating_zeros():
    b = BlaschkeProduct(1.0, (0j, 0.1, 0.2, 0.3))
    with pytest.raises(ConditionsUnsatisfied):
        poncelet_ellipse(b, (2, 3))


def test_ellipse_needs_degree4():
    with pytest.raises(BadShape):
        poncelet_ellipse(BlaschkeProduct(1.0, (0j, 0.5)), (0, 1))


def test_ellipse_nondegeneracy_guard():
    with pytest.raises(NondegeneracyError):
        PonceletEllipse(0.5, -0.5, 0.9)
    with pytest.raises(NondegeneracyError):
        PonceletEllipse(1.5, 0.0, 4.0)


def test_radicand_positive_for_interior_zeros():
    rng = random.Random(73)
    for _ in range(200):
        a2 = random_interior(rng, 0.95)
        a3 = random_interior(rng, 0.95)
        radicand = (abs(a2) ** 2 + abs(a3) ** 2 - 2) / (abs(a2) ** 2 * abs(a3) ** 2 - 1)
        assert radicand > 0


def test_ellipse_contains_focal_separation(poncelet_product):
    ell = poncelet_ellipse(poncelet_product, (2, 3))
    assert ell.focal_sum > abs(ell.focus1 - ell.focus2)


def test_chord_concurrency_reference(poncelet_product):
    for lam in (1.0 + 0j, cmath.exp(1j * math.pi / 3)):
        report = chord_concurrency(poncelet_product, 2 / 3, lam)
        assert max(report.distances) <= 1e-7
        for p in report.preimages:
            assert abs(blaschke_eval(poncelet_product, p) - lam) <= 1e-8


def test_chord_concurrency_monomial():
    b = BlaschkeProduct(1.0, (0j,) * 4)
    report = chord_concurrency(b, 0.0, cmath.exp(0.3j))
    assert max(report.distances) <= 1e-12


def test_chord_concurrency_eight_angles(poncelet_product):
    for k in range(8):
        lam = cmath.exp(2j * math.pi * k / 8)
        report = chord_concurrency(poncelet_product, 2 / 3, lam)
        assert max(report.distances) <= 1e-7
    # Concurrency at every angle and the ellipse construction rest on the
    # same zero condition, so it must hold here too.
    assert check_paired_conditions_2n(poncelet_product, 1, ((2, 3),)).satisfied


def test_chord_concurrency_fails_off_condition():
    b = BlaschkeProduct(1.0, (0j, 0.1, 0.2, 0.3))
    with pytest.raises(NoConcurrentPairing):
        chord_concurrency(b, 0.1, 1.0 + 0j)


def test_line_property_poncelet(poncelet_product):
    assert line_through_a1_property(poncelet_product, 2 / 3, 0.0) <= 1e-8
    for theta in (0.3, 1.1, 2.9):
        assert line_through_a1_property(poncelet_product, 2 / 3, theta) <= 1e-8


def test_line_property_degree6(degree6_paired_product):
    # a1 = M(0) = 1/2 for the order-2 orbit at pole 1/2.
    assert line_through_a1_property(degree6_paired_product, 0.5, math.pi / 4) <= 1e-8


def test_line_property_antipodal_square():
    b = BlaschkeProduct(1.0, (0j, 0j))
    for theta in (0.0, 0.7, 2.1):
        assert line_through_a1_property(b, 0.0, theta) == 0.0


def test_line_property_witness_off_condition():
    b = BlaschkeProduct(1.0, (0j, 0.1, 0.2, 0.3))
    assert line_through_a1_property(b, 0.1, 0.9) > 1e-3


def test_circle_property_poncelet(poncelet_product):
    assert circle_through_pole_property(poncelet_product, 2 / 3, 0.0) <= 1e-8


def test_circle_property_degree6(degree6_paired_product):
    for param in (-0.5, 0.0, 0.5):
        assert circle_through_pole_property(degree6_paired_product, 0.5, param) <= 1e-8


def test_circle_property_witness_off_condition():
    b = BlaschkeProduct(1.0, (0j, 0.1, 0.2, 0.3))
    assert circle_through_pole_property(b, 0.1, 0.7) > 1e-3


def test_circle_property_intersections_on_both_circles(poncelet_product):
    # The intersection points solve both circle equations; check directly.
    a1 = 2 / 3
    w = 1 / a1
    for s in (-0.4, 0.0, 0.8):
        center = w / 2 + s * 1j
        x = 1 / (2 * abs(center))
        u = center / abs(center)
        for sign in (1, -1):
            z = u * complex(x, sign * math.sqrt(1 - x * x))
            assert abs(abs(z) - 1.0) <= 1e-12
            assert abs(abs(z - center) - abs(center)) <= 1e-12


def test_circle_property_requires_nonzero_a1(poncelet_product):
    with pytest.raises(ValueError):
        circle_through_pole_property(poncelet_product, 0.0, 0.0)


def test_find_ellipse_searches_for_a1(poncelet_product):
    assert find_poncelet_ellipse(poncelet_product) == poncelet_ellipse(poncelet_product, (2, 3))
    assert find_poncelet_ellipse(poncelet_product, 1) == poncelet_ellipse(poncelet_product, (2, 3))
    with pytest.raises(BadShape):
        find_poncelet_ellipse(BlaschkeProduct(1.0, (0j, 0j, 0.5, 0.3)), 2)
    with pytest.raises(ConditionsUnsatisfied):
        find_poncelet_ellipse(BlaschkeProduct(1.0, (0j, 0.1, 0.2, 0.3)))
