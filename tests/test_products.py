"""Tests for Blaschke product evaluation, composition, equality, preimages."""

from __future__ import annotations

import cmath
import itertools
import json
import math
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import blaschke.numerics
import blaschke.products
from blaschke import (
    BlaschkeError,
    BlaschkeProduct,
    DomainError,
    MoebiusTransform,
    NonConvergence,
    NormalizationError,
    blaschke_compose,
    blaschke_equal,
    blaschke_eval,
    blaschke_preimages,
    construct_invariant_product,
    decompose_auto,
    find_invariant_group,
    is_canonical,
    moebius_eval,
    roundtrip_residual,
    solve_unimodular_c,
    verify_invariance,
)
from blaschke.moebius import GROUP_MATCH_TOL, OPEN_DISK_MARGIN
from conftest import multiset_close, random_interior, random_product


def test_validation():
    with pytest.raises(ValueError):
        BlaschkeProduct(2.0, (0j,))
    with pytest.raises(ValueError):
        BlaschkeProduct(1.0, (1.0 + 0j,))
    with pytest.raises(ValueError):
        BlaschkeProduct(1.0, ())


def test_eval_monomial():
    b = BlaschkeProduct(1.0, (0j, 0j, 0j, 0j))
    assert blaschke_eval(b, 0.5) == 0.0625


def test_eval_vanishes_at_zeros():
    rng = random.Random(3)
    for _ in range(10):
        b = random_product(rng, 4)
        for a in b.zeros:
            assert abs(blaschke_eval(b, a)) <= 1e-14


def test_eval_domain_error():
    with pytest.raises(DomainError):
        blaschke_eval(BlaschkeProduct(1.0, (0j,)), 1.5)


def test_degree4_product_invariant_under_involution():
    # Zeros 1/2, 1/2 - i/2 and their induced third zero (a1-a2)/(1-conj(a1)a2)
    # make the product invariant under the involution with pole 1/2.
    zeros = (0j, 0.5 + 0j, 0.5 - 0.5j, 0.2 + 0.6j)
    b = BlaschkeProduct(1.0, zeros)
    m = MoebiusTransform(-1.0, 0.5)
    z = 0.3
    assert abs(blaschke_eval(b, moebius_eval(m, z)) - blaschke_eval(b, z)) <= 1e-12


def test_boundary_modulus():
    rng = random.Random(17)
    for _ in range(20):
        b = random_product(rng, rng.randint(1, 8), radius=0.9)
        for k in range(64):
            z = cmath.exp(2j * math.pi * k / 64)
            assert abs(abs(blaschke_eval(b, z)) - 1.0) <= 1e-10


def test_is_canonical():
    assert is_canonical(BlaschkeProduct(1.0, (0j, 0.5)))
    assert not is_canonical(BlaschkeProduct(1j, (0j, 0.5)))
    assert not is_canonical(BlaschkeProduct(1.0, (0.5 + 0j,)))


def test_compose_monomials():
    z2 = BlaschkeProduct(1.0, (0j, 0j))
    z4 = blaschke_compose(z2, z2)
    assert z4.degree == 4
    assert blaschke_equal(z4, BlaschkeProduct(1.0, (0j,) * 4))


def test_compose_square_of_degree2():
    inner = BlaschkeProduct(1.0, (0j, 2 / 3))
    outer = BlaschkeProduct(1.0, (0j, 0j))
    composed = blaschke_compose(outer, inner)
    assert multiset_close(composed.zeros, [0, 0, 2 / 3, 2 / 3], 1e-9)
    assert abs(composed.constant - 1.0) <= 1e-9


def test_compose_degree_law():
    rng = random.Random(29)
    for _ in range(10):
        outer = random_product(rng, rng.randint(1, 3), radius=0.6)
        inner = random_product(rng, rng.randint(1, 3), radius=0.6)
        composed = blaschke_compose(outer, inner)
        assert composed.degree == outer.degree * inner.degree
        for _ in range(5):
            z = random_interior(rng, 0.8)
            direct = blaschke_eval(outer, blaschke_eval(inner, z))
            assert abs(blaschke_eval(composed, z) - direct) <= 1e-9


def test_compose_high_degree_outer():
    # Inside the disk a degree-120 product is far below any fixed threshold;
    # its constant is read on the unit circle, where |B| = 1 at every degree.
    rng = random.Random(5)
    for _ in range(3):
        outer = random_product(rng, 60)
        inner = random_product(rng, 2)
        composed = blaschke_compose(outer, inner)
        for _ in range(5):
            z = random_interior(rng, 0.9)
            direct = blaschke_eval(outer, blaschke_eval(inner, z))
            assert abs(blaschke_eval(composed, z) - direct) <= 1e-12


def test_compose_with_identity_inner():
    rng = random.Random(31)
    identity = BlaschkeProduct(1.0, (0j,))
    for _ in range(5):
        outer = random_product(rng, 3, radius=0.7)
        assert blaschke_equal(blaschke_compose(outer, identity), outer)


def circle_roundtrip(composed, outer, inner):
    """max |composed - outer ∘ inner| at 2n + 1 circle points, which decide equality."""
    count = 2 * composed.degree + 1
    points = (cmath.exp(2j * math.pi * k / count) for k in range(count))
    return max(abs(blaschke_eval(composed, z) - blaschke_eval(outer, blaschke_eval(inner, z))) for z in points)


@pytest.mark.parametrize("inner_degree", [2, 3, 5, 8, 13, 21, 34, 48, 64])
def test_compose_roundtrip_at_degree(inner_degree):
    # Solved from the expanded coefficients, these round trips reached 3.5e-11
    # at inner degree 8 and 3.9e-6 at 48; from the factors they stay within 2e-13.
    rng = random.Random(700 + inner_degree)
    for radius in (0.8, 0.95):
        for outer_degree in (1, 2, 3):
            inner = random_product(rng, inner_degree, radius)
            outer = random_product(rng, outer_degree, radius)
            composed = blaschke_compose(outer, inner)
            assert composed.degree == inner_degree * outer_degree
            assert circle_roundtrip(composed, outer, inner) <= 1e-12


def test_compose_canonical_degree21_pairs():
    # With the inner factor expanded into coefficients, 10 of these 40
    # recovered a constant too far from 1 to compose.
    rng = random.Random(11)
    for _ in range(40):
        inner = BlaschkeProduct(1.0, (0j,) + tuple(random_interior(rng) for _ in range(20)))
        outer = BlaschkeProduct(1.0, (0j, random_interior(rng)))
        assert abs(blaschke_compose(outer, inner).constant - 1.0) <= 1e-12


def test_compose_keeps_a_repeated_inner_zero_exact():
    inner = BlaschkeProduct(1.0, (0.5 + 0j,) * 4)
    assert blaschke_compose(BlaschkeProduct(1.0, (0j,)), inner).zeros == (0.5 + 0j,) * 4


def test_compose_where_the_iterates_jitter():
    # The iterates reach the roots, one at |z| = 0.981, and then move by a
    # few rounding units per sweep; the step stop must still end the solve.
    constant = -0.8997 - 0.4366j
    inner = BlaschkeProduct(constant / abs(constant), (0.8005 - 0.1470j, 0.6388 - 0.3960j))
    b = -0.7881 + 0.2142j
    composed = blaschke_compose(BlaschkeProduct(1.0, (b,)), inner)
    assert composed.degree == 2
    for z in composed.zeros:
        assert abs(blaschke_eval(inner, z) - b) <= 1e-15


def near_circle_product(rng, degree, modulus):
    """Random constant; every other zero at the given modulus, the rest inside it."""
    zeros = [
        modulus * cmath.exp(2j * math.pi * rng.random()) if k % 2 == 0 else random_interior(rng, modulus)
        for k in range(degree)
    ]
    return BlaschkeProduct(cmath.exp(2j * math.pi * rng.random()), tuple(zeros))


@pytest.mark.parametrize("modulus", [0.99, 0.999])
def test_compose_with_inner_zeros_near_the_circle(modulus):
    rng = random.Random(int(1e4 * modulus))
    for inner_degree in range(2, 22):
        for outer_degree in (1, 2, 3):
            inner = near_circle_product(rng, inner_degree, modulus)
            outer = random_product(rng, outer_degree)
            assert circle_roundtrip(blaschke_compose(outer, inner), outer, inner) <= 1e-11


def test_compose_next_to_the_circle_raises_only_library_errors():
    rng = random.Random(13)
    for inner_degree in range(2, 22):
        inner = near_circle_product(rng, inner_degree, 1.0 - 1e-6)
        outer = random_product(rng, rng.randint(1, 3))
        try:
            composed = blaschke_compose(outer, inner)
        except BlaschkeError:
            continue
        assert composed.degree == inner_degree * outer.degree


def test_compose_refuses_a_zero_on_the_circle():
    # The solution of (z - a)/(1 - a z) = 1/2 lies 6.7e-13 from the circle,
    # closer than any zero of a product may.
    inner = BlaschkeProduct(1.0, (1.0 - 2e-12 + 0j,))
    with pytest.raises(DomainError, match=r"composed zero \(0\.99999999999"):
        blaschke_compose(BlaschkeProduct(1.0, (0.5 + 0j,)), inner)


def test_compose_reports_an_unfinished_solve(monkeypatch):
    # Cut to one sweep, the iteration stops far from the solutions.
    monkeypatch.setattr(blaschke.products, "PREIMAGE_MAX_STEPS", 1)
    inner = BlaschkeProduct(1.0, (0.3 + 0j, 0.2j, -0.4 + 0j))
    with pytest.raises(NonConvergence, match=r"residual .* of inner\(z\) = \(0\.5\+0j\)"):
        blaschke_compose(BlaschkeProduct(1.0, (0.5 + 0j,)), inner)


def test_compose_nudges_a_start_point_on_an_inner_zero(monkeypatch):
    # The first point of the start ring is an inner zero, where the Newton
    # ratio divides by zero; the solve nudges it off and still converges.
    ring = 0.6 * cmath.exp(1j * (2 * math.pi * 0.35 / 3 + 0.5))
    solve, singular = blaschke.products._aberth, []

    def watched(newton, *args):
        def ratio(z):
            try:
                return newton(z)
            except ZeroDivisionError:
                singular.append(z)
                raise

        return solve(ratio, *args)

    monkeypatch.setattr(blaschke.products, "_aberth", watched)
    inner = BlaschkeProduct(1.0, (0j, ring, -0.3 + 0.2j))
    outer = BlaschkeProduct(1.0, (0j, 0.4 - 0.1j))
    assert circle_roundtrip(blaschke_compose(outer, inner), outer, inner) <= 1e-12
    assert singular == [ring]


def test_compose_rejects_a_duplicated_root(monkeypatch):
    # A lost root that comes back as a copy of another leaves degree-n zeros
    # that are not those of outer ∘ inner: the constants read at 1 and at i
    # disagree.
    solve = blaschke.products._disk_preimages

    def duplicated(inner, b):
        roots = solve(inner, b)
        return roots[:-1] + roots[:1]

    monkeypatch.setattr(blaschke.products, "_disk_preimages", duplicated)
    inner = BlaschkeProduct(1.0, (0j, 0.4 - 0.3j, -0.5j))
    with pytest.raises(NormalizationError):
        blaschke_compose(BlaschkeProduct(1.0, (0j, 0.3 + 0.2j, -0.6 + 0j)), inner)


def test_disk_preimages_match_the_expanded_polynomial():
    # poly_roots and composition share one Aberth-Ehrlich loop: on the
    # coefficients of c P - b Q and on the factors they find the same roots.
    from blaschke.numerics import ComplexPolynomial, poly_roots
    from blaschke.products import _disk_preimages

    rng = random.Random(71)
    for _ in range(30):
        inner, b = random_product(rng, rng.randint(2, 8)), random_interior(rng, 0.8)
        q = ComplexPolynomial([1.0])
        for a in inner.zeros:
            q = q * ComplexPolynomial([1.0, -a.conjugate()])
        expanded = ComplexPolynomial.from_roots(inner.zeros).scaled(inner.constant) - q.scaled(b)
        assert multiset_close(poly_roots(expanded), _disk_preimages(inner, b), 1e-9)


def test_compose_needs_no_polynomial(monkeypatch, tmp_path, capsys):
    import blaschke.cli
    import blaschke.moebius

    def refuse(*args, **kwargs):
        raise AssertionError("a polynomial was expanded or solved")

    rng = random.Random(67)
    inner, outer = random_product(rng, 5), random_product(rng, 3)
    paths = []
    for name, product in (("inner", inner), ("outer", outer)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(blaschke.cli.product_to_document(product)))
    monkeypatch.setattr(blaschke.numerics, "poly_roots", refuse)
    monkeypatch.setattr(blaschke.moebius, "_solve_quadratic", refuse)
    monkeypatch.setattr(blaschke.numerics.ComplexPolynomial, "__init__", refuse)
    assert circle_roundtrip(blaschke_compose(outer, inner), outer, inner) <= 1e-12
    assert blaschke.cli.run(["compose", "--inner", str(paths[0]), "--outer", str(paths[1])]) == 0
    assert len(json.loads(capsys.readouterr().out)["zeros"]) == 15


def test_equal_permuted_zeros():
    rng = random.Random(43)
    b = random_product(rng, 5)
    zs = list(b.zeros)
    rng.shuffle(zs)
    assert blaschke_equal(b, BlaschkeProduct(b.constant, tuple(zs)))


def test_equal_degree_mismatch():
    a = BlaschkeProduct(1.0, (0j, 0j))
    b = BlaschkeProduct(1.0, (0j, 0j, 0j))
    assert not blaschke_equal(a, b)


def test_equal_random_pairs_differ():
    rng = random.Random(47)
    for _ in range(50):
        degree = rng.randint(2, 6)
        a = random_product(rng, degree)
        b = random_product(rng, degree)
        assert not blaschke_equal(a, b)


@pytest.mark.parametrize("degree", [60, 100])
def test_equal_tells_apart_a_moved_zero_at_degree(degree):
    # Inside the disk |B| shrinks with the degree: on the circle of radius
    # 1/2 these two products differ by at most 7.7e-14 (degree 60), while
    # at z = i they differ by 0.062.
    rng = random.Random(degree)
    b = BlaschkeProduct(1.0, (0j,) + tuple(random_interior(rng) for _ in range(degree - 1)))
    moved = BlaschkeProduct(1.0, b.zeros[:-1] + (b.zeros[-1] + 0.05,))
    assert blaschke_equal(b, b)
    assert not blaschke_equal(b, moved)


def test_equal_between_product_and_its_composition_with_invariant():
    # Degree-5 product built on the orbit of its invariant map compares equal
    # to its own precomposition with that map.
    (c, _), *_ = [
        s for s in solve_unimodular_c(0.5, 5) if abs(s[0] - (-0.856763 - 0.515711j)) <= 1e-4
    ]
    m = MoebiusTransform(c, 0.5)
    b = construct_invariant_product(m, 5)
    # The map is itself a degree-1 product with constant c and zero alpha.
    m_as_product = BlaschkeProduct(m.c, (m.alpha,))
    composed = blaschke_compose(b, m_as_product)
    assert blaschke_equal(composed, b, 1e-8)


def test_compose_degree6_factors(degree6_paired_product):
    # Composing the two printed factors of the order-2 orbit product at pole
    # 1/2 reproduces the product itself (up to solver dust in the zeros).
    inner = BlaschkeProduct(1.0, (0j, 0.5))
    outer = BlaschkeProduct(1.0, (0j, -3.70074e-17, -7.40149e-17))
    composed = blaschke_compose(outer, inner)
    assert blaschke_equal(composed, degree6_paired_product, 1e-8)


def test_preimages_of_monomial():
    b = BlaschkeProduct(1.0, (0j,) * 4)
    pts = blaschke_preimages(b, 1.0)
    assert multiset_close(pts, [1, 1j, -1, -1j], 1e-10)


def test_preimages_square():
    b = BlaschkeProduct(1.0, (0j, 0j))
    pts = blaschke_preimages(b, -1.0)
    assert multiset_close(pts, [1j, -1j], 1e-10)


def test_preimages_sorted_by_argument():
    rng = random.Random(53)
    b = random_product(rng, 5)
    pts = blaschke_preimages(b, cmath.exp(0.7j))
    args = [math.atan2(p.imag, p.real) for p in pts]
    assert args == sorted(args)


def test_preimages_contract():
    rng = random.Random(59)
    for _ in range(20):
        b = random_product(rng, rng.randint(1, 6))
        lam = cmath.exp(2j * math.pi * rng.random())
        pts = blaschke_preimages(b, lam)
        assert len(pts) == b.degree
        for p in pts:
            assert abs(abs(p) - 1.0) <= 1e-12
            assert abs(blaschke_eval(b, p) - lam) <= 1e-8


def test_preimages_lambda_must_be_unimodular():
    with pytest.raises(DomainError):
        blaschke_preimages(BlaschkeProduct(1.0, (0j,)), 0.5)


def assert_preimages(b: BlaschkeProduct, lam: complex, pts, rounding: float = 0.0) -> None:
    """n points on the circle with strictly increasing arguments and B = lam.

    |B(z) - lam| may exceed 1e-10 n by ``rounding`` * sum 1/|z - a|: next to
    a zero a near the circle B turns so fast that no double z does better.
    """
    assert len(pts) == b.degree
    args = [math.atan2(p.imag, p.real) for p in pts]
    assert all(x < y for x, y in zip(args, args[1:]))
    for p in pts:
        assert_preimage(b, lam, p, rounding)


def assert_preimage(b: BlaschkeProduct, lam: complex, p: complex, rounding: float = 0.0) -> None:
    assert abs(abs(p) - 1.0) <= 1e-15
    allowance = rounding * sum(1.0 / abs(p - a) for a in b.zeros)
    assert abs(blaschke_eval(b, p) - lam) <= 1e-10 * b.degree + allowance


@st.composite
def boundary_problems(draw):
    """A product of degree 2-100 with |zeros| <= 0.95 and a target on the circle.

    Fewer drawn zeros than the degree are repeated cyclically, so many
    examples have zeros of multiplicity two or more.
    """
    degree = draw(st.integers(2, 100))
    drawn = draw(
        st.lists(st.tuples(st.floats(0.0, 0.95), st.floats(0.0, 1.0)), min_size=1, max_size=degree)
    )
    zeros = [r * cmath.exp(2j * math.pi * t) for r, t in drawn]
    constant = cmath.exp(2j * math.pi * draw(st.floats(0.0, 1.0)))
    product = BlaschkeProduct(constant, tuple(zeros[k % len(zeros)] for k in range(degree)))
    return product, cmath.exp(2j * math.pi * draw(st.floats(0.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(boundary_problems())
def test_preimages_property(problem):
    b, lam = problem
    assert_preimages(b, lam, blaschke_preimages(b, lam))


@pytest.mark.parametrize("degree", [16, 20])
def test_preimages_of_orbit_product(degree):
    # The first alpha = 0.5 orbit product has zeros clustered towards the
    # circle, where preimages crowd together.
    c = solve_unimodular_c(0.5, degree)[0][0]
    b = construct_invariant_product(MoebiusTransform(c, 0.5), degree)
    assert_preimages(b, 1.0, blaschke_preimages(b, 1.0))


@pytest.mark.parametrize("gap", [1e-8, 1e-11])
def test_preimages_next_to_a_zero_near_the_circle(gap):
    # Within a few gaps of e^i the phase turns at up to 2 / gap per radian,
    # so a preimage there has a phase error far above 1e-10 at every double.
    near = (1.0 - gap) * cmath.exp(1j)
    for zeros in [(near,), (near, 0.3 - 0.2j, -0.5j, 0.6), (near, near, -0.7 + 0.1j)]:
        b = BlaschkeProduct(1.0, zeros)
        for offset in (0.0, 0.5 * gap, 3.0 * gap, 300.0 * gap, 1e-3, 2.0):
            lam = blaschke_eval(b, cmath.exp(1j * (1.0 + offset)))
            lam /= abs(lam)
            assert_preimages(b, lam, blaschke_preimages(b, lam), rounding=1e-14)


def test_preimages_newton_cannot_cycle():
    # A Newton step that only has to stay inside the bracket cycles between
    # its ends here; the step must also be at most half the bracket.
    b = BlaschkeProduct(1.0, (-0.14039 + 0.31112j, 0.39422 - 0.57265j, 0j, -0.40838 + 0.73046j))
    lam = 0.20660 + 0.97843j
    lam /= abs(lam)
    assert_preimages(b, lam, blaschke_preimages(b, lam))


def test_preimages_report_an_unfinished_walk(monkeypatch, tmp_path, capsys):
    # Cut to one Newton step per solution, the boundary walk stops short.
    import blaschke.cli

    monkeypatch.setattr(blaschke.products, "PREIMAGE_MAX_STEPS", 1)
    b = BlaschkeProduct(1.0, (0j, 0.5 + 0j, -0.3 + 0.4j, 0.2 - 0.6j, 0.7j))
    with pytest.raises(NonConvergence, match=r"boundary phase error 9\.637e-02 .* exceeds 1\.000e-10"):
        blaschke_preimages(b, 1j)
    path = tmp_path / "b5.json"
    path.write_text(json.dumps(blaschke.cli.product_to_document(b)))
    assert blaschke.cli.run(["preimages", "--product", str(path), "--lambda", "0,1"]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "NonConvergence" and captured.out == ""


def test_preimages_need_no_root_finder(monkeypatch):
    def no_roots(p):
        raise AssertionError("blaschke_preimages called poly_roots")

    monkeypatch.setattr(blaschke.numerics, "poly_roots", no_roots)
    rng = random.Random(61)
    for degree in (1, 4, 16, 40):
        b = random_product(rng, degree)
        lam = cmath.exp(2j * math.pi * rng.random())
        assert_preimages(b, lam, blaschke_preimages(b, lam))


def pick_patterns(rng, n):
    """Ascending walk-index subsets: the two fiber classes of each divisor, and more."""
    patterns = [[i for i in range(n) if i % m < 2] for m in range(2, n + 1) if n % m == 0]
    patterns += [[0], [n - 1], sorted(rng.sample(range(n), rng.randint(1, n)))]
    return patterns


def test_phase_points_match_the_full_walk():
    # Jumping over walk indices must land on the same solutions as walking
    # through all of them; the largest deviation seen here is 1.3e-14.
    rng = random.Random(17)
    for degree in [1, 2, 3, 6, 12, 24, 45, 60, 100] + [rng.randint(2, 100) for _ in range(12)]:
        b = random_product(rng, degree, radius=0.99)
        lam = cmath.exp(2j * math.pi * rng.random())
        full = blaschke.products._phase_points(b, lam, range(degree))
        assert sorted(full, key=cmath.phase) == list(blaschke_preimages(b, lam))
        for picks in pick_patterns(rng, degree):
            points = blaschke.products._phase_points(b, lam, picks)
            assert len(points) == len(picks)
            assert max(abs(full[i] - z) for i, z in zip(picks, points)) <= 1e-13


def walk_outcome(b, lam, picks):
    try:
        return blaschke.products._phase_points(b, lam, picks)
    except BlaschkeError as exc:
        return type(exc)


def test_phase_points_next_to_a_zero_near_the_circle():
    # B turns at up to 2e8 per radian next to the zero, so two solves of one
    # walk index agree only up to the rounding allowance; each must still
    # solve B = lam, be nearest to its own index of the full walk, and fail
    # only where the full walk fails.
    rng = random.Random(23)
    near = (1.0 - 1e-8) * cmath.exp(1j)
    for zeros in [(near,), (near, 0.3 - 0.2j, -0.5j, 0.6), (near, near, -0.7 + 0.1j), (near,) * 6]:
        b = BlaschkeProduct(1.0, zeros)
        n = b.degree
        for offset in (0.0, 5e-9, 3e-8, 3e-6, 1e-3, 2.0):
            lam = blaschke_eval(b, cmath.exp(1j * (1.0 + offset)))
            lam /= abs(lam)
            full = walk_outcome(b, lam, range(n))
            for picks in pick_patterns(rng, n) + [[i] for i in range(n)]:
                points = walk_outcome(b, lam, picks)
                if isinstance(points, type):
                    assert points == full
                    continue
                for i, z in zip(picks, points):
                    assert_preimage(b, lam, z, rounding=1e-14)
                    if not isinstance(full, type):
                        assert min(range(n), key=lambda j: abs(full[j] - z)) == i


def quotient_values(product, points):
    """B by the quotient form, one factor at a time: the reference for the evaluation kernels."""
    values = []
    for z in points:
        value = product.constant
        for a in product.zeros:
            value *= (z - a) / (1.0 - a.conjugate() * z)
        values.append(value)
    return values


def test_values_kernel_is_the_quotient_form_bit_for_bit():
    rng = random.Random(5)
    for degree in (1, 2, 7, 30):
        product = random_product(rng, degree, radius=0.95)
        points = [random_interior(rng, 1.0) for _ in range(20)]
        points += [cmath.exp(2j * math.pi * k / 9) for k in range(9)]
        expected = quotient_values(product, points)
        assert blaschke.products._values(product, points) == expected
        assert [blaschke_eval(product, z) for z in points] == expected


@pytest.mark.parametrize("degree", [1, 2, 3, 5, 10, 20, 50, 100, 200])
def test_circle_kernel_matches_the_quotient_form(degree):
    # Within the rounding of the factors: a few eps each, and eps / |z - a|
    # where the steep factor of a zero a near the circle meets z.
    rng = random.Random(degree)
    zeros = [random_interior(rng, 0.95) for _ in range(degree)]
    zeros[0] = (1.0 - 1e-8) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    if degree > 1:
        zeros[1] = (1.0 - 1e-8) * cmath.exp(2j * math.pi / (2 * degree + 1))
    product = BlaschkeProduct(cmath.exp(2j * math.pi * rng.random()), zeros)
    count = 2 * degree + 1
    points = [cmath.exp(2j * math.pi * k / count) for k in range(count)]
    for z, value in zip(points, blaschke.products._circle_values(product, points)):
        assert abs(value - blaschke_eval(product, z)) <= circle_bound(product, z)


def circle_bound(product, z):
    """The rounding allowance of B at z: a few eps per factor, and eps / |z - a| at a steep one."""
    return 8.0 * sys.float_info.epsilon * (product.degree + sum(1.0 / abs(z - a) for a in product.zeros))


def out_of_range_cases(z):
    """Zero sets on which P = prod (z - a), multiplied unscaled, leaves the normal range at the circle point z.

    P overflows for 1,300 zeros near -z (|z - a| > 1.8), vanishes for 400
    zeros near z and is subnormal for 309 zeros at distance 0.1, where an
    unscaled c P / (z^n conj(P)) would be NaN or lose digits.  After 320
    zeros at distance 0.1, 50 more near -z bring |P| back to about 3e-306,
    normal, but the digits lost on the way would stay lost.  Last, three
    blocks of zeros as close to z as the disk allows: every factor is about
    ``OPEN_DISK_MARGIN``, the smallest a factor can be, so each block takes
    P as low as the block length allows.
    """
    rng = random.Random(9)
    overflow = [-z * (0.85 + 0.05 * random_interior(rng, 1.0)) for _ in range(1300)]
    underflow = [z * (0.97 + 0.01 * random_interior(rng, 1.0)) for _ in range(400)]
    subnormal = [z * 0.9] * 309
    recovered = [z * 0.9] * 320 + [-0.95 * z] * 50
    edge = [z * (1.0 - OPEN_DISK_MARGIN)] * (3 * blaschke.products._BLOCK)
    return overflow, underflow, subnormal, recovered, edge


@pytest.mark.parametrize("z", [1.0 + 0j, cmath.exp(0.3j)], ids=["1", "exp(0.3i)"])
def test_circle_kernel_holds_where_the_unscaled_product_leaves_the_normal_range(z):
    overflow, underflow, subnormal, recovered, edge = out_of_range_cases(z)
    assert sys.float_info.min <= abs(math.prod(z - a for a in recovered)) < math.inf
    for zeros in (overflow, underflow, subnormal, recovered, edge):
        product = BlaschkeProduct(1.0, zeros)
        partial = itertools.accumulate((z - a for a in zeros), operator.mul)
        assert not all(sys.float_info.min <= abs(p) < math.inf for p in partial)
        # Points that leave the range and points that do not, in one batch.
        points = [z, -z, 1j * z, z]
        values = blaschke.products._circle_values(product, points)
        assert [blaschke.products._circle_values(product, [w])[0] for w in points] == values
        for w, value, quotient in zip(points, values, quotient_values(product, points)):
            assert abs(value - quotient) <= circle_bound(product, w)
            assert abs(abs(value) - 1.0) <= 1e-10


def unscaled_circle_value(product, z):
    """c P / (z^n conj(P)) with P multiplied unscaled; None where a partial product may leave the normal range.

    None unless |P| >= 2^(n + 1) times the least normal float and P is finite:
    each |z - a| < 2, so then no partial product was subnormal.
    """
    p = 1.0 + 0j
    for a in product.zeros:
        p *= z - a
    n, size, tiny = product.degree, abs(p), sys.float_info.min
    if not (tiny <= size * 0.5 ** (n + 1) and size <= 1.0 / tiny):
        return None
    return product.constant * p / (z ** n * p.conjugate())


def orbit_product(n):
    c, _ = solve_unimodular_c(0.3, n)[0]
    return construct_invariant_product(MoebiusTransform(c, 0.3), n)


def test_circle_kernel_is_the_unscaled_form_bit_for_bit_in_the_normal_range():
    # Rescaling by a power of two is exact, so wherever the unscaled product
    # stays normal the blocks change no bit, at any degree.
    rng = random.Random(17)
    products = [random_product(rng, degree, radius=0.95) for degree in (1, 2, 5, 13, 24, 25, 26, 40)]
    products.append(orbit_product(800))
    for product in products:
        count = 2 * product.degree + 1
        points = [cmath.exp(2j * math.pi * k / count) for k in range(count)]
        values = blaschke.products._circle_values(product, points)
        assert [blaschke.products._circle_values(product, [z])[0] for z in points] == values
        assert blaschke.products._circle_table(product, count) == (tuple(points), tuple(values))
        expected = [unscaled_circle_value(product, z) for z in points]
        normal = [(value, unscaled) for value, unscaled in zip(values, expected) if unscaled is not None]
        assert [value for value, _ in normal] == [unscaled for _, unscaled in normal]
        # Every point up to degree 40 is in range, and some at degree 800.
        assert len(normal) == count if product.degree <= 40 else 0 < len(normal) < count


def test_circle_kernel_matches_the_quotient_form_at_degree_800():
    # 436 of these 1,601 points leave the unscaled normal range.
    product = orbit_product(800)
    count = 2 * product.degree + 1
    points = [cmath.exp(2j * math.pi * k / count) for k in range(count)]
    values = blaschke.products._circle_values(product, points)
    assert sum(unscaled_circle_value(product, z) is None for z in points) > count // 4
    for z, value, quotient in zip(points, values, quotient_values(product, points)):
        assert abs(value - quotient) <= circle_bound(product, z)


@pytest.fixture
def table_builds(monkeypatch):
    """Counts the circle-kernel batches of each size per product, from an empty table memo."""
    blaschke.products._circle_table.cache_clear()
    calls = []
    kernel = blaschke.products._circle_values

    def counted(product, points):
        points = list(points)
        calls.append((product, len(points)))
        return kernel(product, points)

    monkeypatch.setattr(blaschke.products, "_circle_values", counted)
    yield calls
    blaschke.products._circle_table.cache_clear()


def test_circle_table_is_built_once_per_product_and_count(table_builds):
    rng = random.Random(23)
    b = random_product(rng, 6)
    table = blaschke.products._circle_table(b, 13)
    assert isinstance(table, tuple) and len(table) == 2 and all(isinstance(half, tuple) for half in table)
    with pytest.raises(TypeError):
        table[1][0] = 1.0
    # A value-equal product reads the same table.
    assert blaschke.products._circle_table(BlaschkeProduct(b.constant, tuple(b.zeros)), 13) is table
    assert table_builds == [(b, 13)]
    # One zero moved is another product.
    moved = BlaschkeProduct(b.constant, (b.zeros[0] + 1e-12,) + b.zeros[1:])
    assert blaschke.products._circle_table(moved, 13) is not table
    # Another count is another table.
    seven = blaschke.products._circle_table(b, 7)
    assert [len(half) for half in seven] == [7, 7] and blaschke.products._circle_table(b, 7) is seven
    assert table_builds == [(b, 13), (moved, 13), (b, 7)]


def test_circle_table_memo_is_bounded(table_builds):
    rng = random.Random(29)
    products = [random_product(rng, 3) for _ in range(3)]
    for b in products:
        blaschke.products._circle_table(b, 7)
    assert blaschke.products._circle_table.cache_info().currsize == 1
    # Each later product evicted the one before, so the first is built again.
    blaschke.products._circle_table(products[0], 7)
    assert table_builds == [(b, 7) for b in products] + [(products[0], 7)]


def test_invariant_search_and_split_share_one_table(table_builds):
    c, _ = solve_unimodular_c(0.3 + 0.2j, 14)[0]
    b = construct_invariant_product(MoebiusTransform(c, 0.3 + 0.2j), 14)
    (group,) = find_invariant_group(b)
    split = decompose_auto(b)
    assert group.order == 14 and roundtrip_residual(split, b) <= 1e-7
    assert verify_invariance(b, group.generator) <= GROUP_MATCH_TOL
    assert [call for call in table_builds if call == (b, 29)] == [(b, 29)]
    # An equality test reads the same table; its other operand, equal to b,
    # is taken at the table's points.
    assert blaschke_equal(b, BlaschkeProduct(b.constant, tuple(b.zeros)))
    assert blaschke.products._circle_table.cache_info().misses == 1
