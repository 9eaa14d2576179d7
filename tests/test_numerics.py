"""Tests for polynomial evaluation and root finding."""

from __future__ import annotations

import cmath
import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blaschke import ComplexPolynomial, NonConvergence, closure_polynomial, poly_eval, poly_roots
from conftest import multiset_close

# Constant equations at pole parameter 1/2, cleared to integer coefficients.
DEGREE5_CONSTANT_EQN = [16, 28, 33, 28, 16]
DEGREE7_CONSTANT_EQN = [64, 144, 216, 245, 216, 144, 64]


def test_eval_root_of_z2_plus_1():
    p = ComplexPolynomial([1, 0, 1])
    assert poly_eval(p, 1j) == 0


def test_eval_cubic_at_minus_one():
    # 4c^3 + 8c^2 + 9c + 5 vanishes at -1: factor (c + 1)(4c^2 + 4c + 5).
    p = ComplexPolynomial([5, 9, 8, 4])
    assert poly_eval(p, -1) == 0


def test_eval_constant():
    p = ComplexPolynomial([3.5 - 2j])
    assert poly_eval(p, 0.7j) == 3.5 - 2j
    assert poly_eval(p, 0) == 3.5 - 2j


def test_leading_trim():
    p = ComplexPolynomial([1, 2, 1e-20, 1e-22])
    assert p.degree == 1
    assert p.coeffs == (1 + 0j, 2 + 0j)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        ComplexPolynomial([1, complex(math.nan, 0)])
    with pytest.raises(ValueError):
        poly_eval(ComplexPolynomial([1, 1]), complex(math.inf, 0))


def test_roots_of_unity():
    roots = poly_roots(ComplexPolynomial([-1, 0, 0, 0, 1]))
    assert multiset_close(roots, [1, -1, 1j, -1j], 1e-10)


def test_degree5_constant_equation_root():
    roots = poly_roots(ComplexPolynomial(DEGREE5_CONSTANT_EQN))
    assert any(abs(r - (-0.856763 - 0.515711j)) <= 1e-4 for r in roots)


def test_degree7_constant_equation_root():
    roots = poly_roots(ComplexPolynomial(DEGREE7_CONSTANT_EQN))
    assert any(abs(r - (0.217617 - 0.976034j)) <= 1e-4 for r in roots)


def test_roots_never_overflow_at_high_degree():
    # The degree-60 closure polynomial starts the iteration on a ring where
    # max(1, |r|)^degree is far beyond the float range.
    p = closure_polynomial(0.5, 60)
    try:
        roots = poly_roots(p)
    except NonConvergence as exc:
        # The iterates turn non-finite within a few sweeps; the iteration
        # stops there and the message counts the sweeps actually run.
        sweeps = re.search(r"after (\d+) of at most (\d+) sweeps", str(exc))
        assert sweeps is not None
        assert int(sweeps.group(1)) < int(sweeps.group(2))
        return
    assert len(roots) == p.degree


def test_roots_report_an_unfinished_solve(monkeypatch):
    # Cut to one sweep, the iteration stops far from the roots.
    import blaschke.numerics

    monkeypatch.setattr(blaschke.numerics, "MAX_SWEEPS", 1)
    p = ComplexPolynomial.from_roots([0.3, -0.5j, 0.7 + 0.2j, -0.4, 0.1 + 0.6j])
    with pytest.raises(NonConvergence, match=r"after 1 of at most 1 sweeps"):
        poly_roots(p)


def test_roots_with_tiny_leading_coefficient():
    # 1e-12 z^4 + 1.5 z^3 + 1 has one root near -1.5e12 and the three cube
    # roots of -2/3.  Judged only against the |z|^degree cap, the sweep took
    # a second point of modulus 1.5e12 in place of -0.87358.
    roots = poly_roots(ComplexPolynomial([1j, 0, 0, 1.5j, 1e-12j]))
    large = [r for r in roots if abs(r) > 2.0]
    assert len(large) == 1
    assert abs(large[0] / -1.5e12 - 1.0) <= 1e-9
    cube_roots = [(2 / 3) ** (1 / 3) * cmath.exp(1j * math.pi * (2 * k + 1) / 3) for k in range(3)]
    assert multiset_close([r for r in roots if abs(r) <= 2.0], cube_roots, 1e-9)


def test_roots_outside_the_circle_at_high_degree():
    # 1 + z/R + ... + (z/R)^120 vanishes at R w for the 121st roots of unity
    # w != 1, just outside the circle.  Every term has size 1 there, so
    # sum |c_k| |r|^k = 121 is about 107 times max|c_k| |r|^120.
    radius, degree = 1.001, 120
    p = ComplexPolynomial([radius**-k for k in range(degree + 1)])
    roots = poly_roots(p)
    expected = [radius * cmath.exp(2j * math.pi * j / (degree + 1)) for j in range(1, degree + 1)]
    assert multiset_close(roots, expected, 1e-9)
    for r in roots:
        assert abs(poly_eval(p, r)) <= 1e-10 * sum(abs(c) * abs(r) ** k for k, c in enumerate(p.coeffs))


@pytest.mark.parametrize("radius, degree", [(1.2, 100), (1.05, 150), (1.05, 200)])
def test_roots_of_geometric_coefficients(radius, degree):
    # The roots R w, w != 1 a (degree + 1)-th root of unity, all have modulus
    # R.  From a ring at the Cauchy bound 1 + R^degree the first sweep
    # overflowed to NaN; the ring at |c_0 / c_n|^(1/n) is R itself.
    p = ComplexPolynomial([radius**-k for k in range(degree + 1)])
    roots = poly_roots(p)
    expected = [radius * cmath.exp(2j * math.pi * j / (degree + 1)) for j in range(1, degree + 1)]
    assert multiset_close(roots, expected, 1e-9)


@pytest.mark.parametrize("degree, leading", [(60, 1e-13), (100, 1e-13), (200, 1e-13), (300, 1e-10)])
def test_roots_past_overflow(degree, leading):
    # One root sits near -c_(m-1) / c_m, about 1e10 to 1e13, where |r|^degree
    # overflows and Horner on p gives inf / inf; the iteration and the
    # residual check take the reversed polynomial at 1/r there instead.
    rng = random.Random(5)
    p = ComplexPolynomial([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(degree)] + [leading])
    roots = poly_roots(p)
    assert len(roots) == degree
    assert sum(abs(r) > 1e6 for r in roots) == 1
    vieta = -p.coeffs[-2] / p.coeffs[-1]
    assert abs(sum(roots) - vieta) <= 1e-9 * abs(vieta)


def test_roots_degree_zero_rejected():
    with pytest.raises(ValueError):
        poly_roots(ComplexPolynomial([1.0]))


@pytest.mark.parametrize(
    "coeffs",
    [
        [5, 9, 8, 4],
        [1, 0, 0, 0, 0, 1],
        [2 + 1j, -3, 0.5j, 1],
        [0, 0, 1, 1],
        [1, -2, 1],
        DEGREE5_CONSTANT_EQN,
        DEGREE7_CONSTANT_EQN,
    ],
)
def test_roots_match_companion_matrix(coeffs):
    # numpy.roots (companion-matrix eigenvalues) is the independent oracle.
    p = ComplexPolynomial(coeffs)
    ours = poly_roots(p)
    reference = np.roots(list(reversed([complex(c) for c in p.coeffs])))
    assert len(ours) == p.degree
    assert multiset_close(ours, list(reference), 1e-7)


def test_roots_residual_contract():
    rng_coeffs = [3 - 2j, 0.4, -1j, 0.25, 1 + 1j]
    p = ComplexPolynomial(rng_coeffs)
    scale = max(abs(c) for c in p.coeffs)
    for r in poly_roots(p):
        assert abs(poly_eval(p, r)) <= 1e-10 * scale


complex_coeff = st.builds(
    complex,
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(complex_coeff, min_size=2, max_size=8))
def test_roots_count_and_residual(coeffs):
    assume(max(abs(c) for c in coeffs) > 1e-3)
    p = ComplexPolynomial(coeffs)
    assume(p.degree >= 1)
    roots = poly_roots(p)
    assert len(roots) == p.degree
    scale = max(abs(c) for c in p.coeffs)
    # Residuals at roots far outside the unit circle scale with the
    # polynomial's magnitude there.
    for r in roots:
        assert abs(poly_eval(p, r)) <= 1e-10 * scale * max(1.0, abs(r)) ** p.degree


@st.composite
def self_inversive(draw):
    """Polynomial whose root multiset is closed under r -> 1/conj(r).

    Built from well separated roots (interior/exterior pairs plus boundary
    points) so every root is simple and well conditioned.
    """
    interior = draw(
        st.lists(
            st.builds(
                lambda r, t: (0.2 + 0.55 * r) * cmath.exp(2j * math.pi * t),
                st.floats(0, 1),
                st.floats(0, 1),
            ),
            max_size=2,
        )
    )
    boundary = draw(st.lists(st.floats(0, 2 * math.pi), max_size=2))
    roots = []
    for r in interior:
        roots.extend([r, 1 / r.conjugate()])
    roots.extend(cmath.exp(1j * t) for t in boundary)
    assume(roots)
    assume(
        all(
            abs(roots[i] - roots[j]) > 0.05
            for i in range(len(roots))
            for j in range(i + 1, len(roots))
        )
    )
    return ComplexPolynomial.from_roots(roots)


@settings(max_examples=60, deadline=None)
@given(self_inversive())
def test_self_inversive_roots_closed_under_inversion(p):
    roots = poly_roots(p)
    inverted = [1 / r.conjugate() for r in roots]
    assert multiset_close(roots, inverted, 1e-8)


def test_polynomial_arithmetic():
    a = ComplexPolynomial([1, 1])
    b = ComplexPolynomial([-1, 1])
    assert (a * b).coeffs == (-1 + 0j, 0j, 1 + 0j)
    assert (a + b).coeffs == (0j, 2 + 0j)
    assert (a - b).coeffs == (2 + 0j,)
