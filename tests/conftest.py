"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import cmath
import math
import random

import pytest

from blaschke import (
    BlaschkeProduct,
    MoebiusTransform,
    construct_invariant_product,
    solve_unimodular_c,
)


def random_interior(rng: random.Random, radius: float = 0.8) -> complex:
    """A pseudo-random point of the disk of the given radius."""
    r = radius * math.sqrt(rng.random())
    return r * cmath.exp(2j * math.pi * rng.random())


def random_product(rng: random.Random, degree: int, radius: float = 0.8) -> BlaschkeProduct:
    constant = cmath.exp(2j * math.pi * rng.random())
    zeros = tuple(random_interior(rng, radius) for _ in range(degree))
    return BlaschkeProduct(constant, zeros)


def totient(n: int) -> int:
    return sum(1 for k in range(1, n) if math.gcd(k, n) == 1)


def multiset_close(found, expected, tol: float) -> bool:
    """Greedy nearest matching of two complex multisets."""
    remaining = list(expected)
    for f in found:
        best = min(range(len(remaining)), key=lambda i: abs(remaining[i] - f), default=None)
        if best is None or abs(remaining[best] - f) > tol:
            return False
        remaining.pop(best)
    return not remaining


# Reference constants for the worked examples at pole parameter 1/2, printed
# to six decimals; recomputed values agree to ~5e-7.
DEGREE5_C = -0.856763 - 0.515711j
DEGREE5_ORBIT = (
    0.428381 + 0.257855j,
    0.278236 - 0.188486j,
    0.141178 + 0.304977j,
    0.5 + 0j,
)
DEGREE7_C = 0.217617 - 0.976034j
DEGREE7_A1 = -0.108809 + 0.488017j
DEGREE7_A6 = 0.5 + 0j


# (degree, drift) of orbit products whose constant is off the closed form by
# `drift` radians; their group is found only at a looser identity tolerance.
DRIFT_CASES = [(4, 1e-8), (6, 1e-8), (8, 1e-9), (9, 1e-9), (12, 1e-9), (4, 3e-8)]


def drifted_orbit_product(n: int, drift: float) -> BlaschkeProduct:
    c = solve_unimodular_c(0.5, n)[0][0] * cmath.exp(1j * drift)
    return construct_invariant_product(MoebiusTransform(c, 0.5), n, closure_tol=1e-5)


def exact_degree3_constant(sign: int = 1) -> complex:
    """Root of c^2 + 1.25 c + 1 = 0 by the quadratic formula."""
    return complex(-0.625, sign * math.sqrt(4.0 - 1.25**2) / 2.0)


@pytest.fixture
def poncelet_product() -> BlaschkeProduct:
    return BlaschkeProduct(1.0, (0j, 2 / 3, (1 - 1j) / 2, (1 + 1j) / 2))


@pytest.fixture
def degree4_case_b_product() -> BlaschkeProduct:
    return BlaschkeProduct(1.0, (0j, 0j, 2 / 3, 2 / 3))


@pytest.fixture
def degree6_paired_product() -> BlaschkeProduct:
    # Solver dust stands in for exact origin zeros, matching how the product
    # arises from an order-2 orbit in floating point.
    return BlaschkeProduct(1.0, (0j, 1.4803e-16, 7.40149e-17, 0.5, 0.5, 0.5))


@pytest.fixture
def degree6_involution() -> MoebiusTransform:
    return MoebiusTransform(-1.0, 0.5)
