"""Dense complex polynomials and their roots.

:func:`poly_roots` serves polynomials given by their coefficients; no
package path calls it.  It runs the Aberth-Ehrlich loop that also solves
compositions from the factors (``products._aberth``) on the Horner ratio,
taken from the reversed polynomial at 1/z outside the unit circle, and the
quadratic closed form of fixed points (``moebius``) at degree 2.
:func:`require_finite` lives in ``errors``, which every module imports, and
is re-exported here; no CLI command loads this module.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable, Iterable, Sequence

from .errors import NonConvergence, Record, require_finite
from .moebius import _solve_quadratic
from .products import _aberth

# Relative tolerance below which a leading coefficient is treated as zero.
LEADING_TRIM = 1e-14
# Residual target for the root sweep, relative to the largest coefficient.
RESIDUAL_TARGET = 1e-12
# Contractual residual bound; exceeding it after the sweep cap is an error.
RESIDUAL_LIMIT = 1e-10
MAX_SWEEPS = 1000


class ComplexPolynomial(Record):
    """A polynomial with complex coefficients in ascending degree order.

    Construction trims leading coefficients whose modulus is below
    ``LEADING_TRIM`` relative to the largest coefficient, so the stored
    degree is meaningful even for polynomials produced by composition.
    """

    _fields = ("coeffs",)
    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex]) -> None:
        cs = [require_finite(c) for c in coeffs]
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient")
        top = max(abs(c) for c in cs)
        cut = LEADING_TRIM * top
        while len(cs) > 1 and abs(cs[-1]) <= cut:
            cs.pop()
        self._set(coeffs=tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, z: complex) -> complex:
        return poly_eval(self, z)

    def __add__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return ComplexPolynomial(
            [(a[i] if i < len(a) else 0j) + (b[i] if i < len(b) else 0j) for i in range(n)]
        )

    def __sub__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        return self + other.scaled(-1.0)

    def __mul__(self, other: "ComplexPolynomial") -> "ComplexPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0j] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return ComplexPolynomial(out)

    def scaled(self, factor: complex) -> "ComplexPolynomial":
        return ComplexPolynomial([factor * c for c in self.coeffs])

    @classmethod
    def from_roots(cls, roots: Sequence[complex], leading: complex = 1.0) -> "ComplexPolynomial":
        p = cls([leading])
        for r in roots:
            p = p * cls([-r, 1.0])
        return p


def poly_eval(p: ComplexPolynomial, z: complex) -> complex:
    """Evaluate ``p`` at ``z`` by Horner's scheme."""
    return _horner(p.coeffs, require_finite(z))


def _horner(coeffs: Sequence[complex], z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _sized(coeffs: Sequence[complex]) -> Callable[[complex], tuple[complex, float]]:
    """z -> (p(z), the size of p at z), both divided by |z|^m outside the unit circle (m the degree).

    Inside the circle the size is max|c_k|: the sum of |c_k| can reach
    (m + 1) max|c_k| there and would accept less accurate roots.  Outside
    it is sum |c_k| |z|^k, the size of the terms Horner adds up; a cap of
    max|c_k| |z|^m there would accept points nowhere near a root when the
    leading coefficient is tiny.  There p(z) / z^m = q(1/z) for the reversed
    polynomial q(w) = w^m p(1/w), and |w| < 1, so neither side overflows.
    """
    scale, rev = max(abs(c) for c in coeffs), coeffs[::-1]
    weights = [abs(c) for c in rev]

    def sized(z: complex) -> tuple[complex, float]:
        if abs(z) <= 1.0:
            return _horner(coeffs, z), scale
        w = 1.0 / z
        return _horner(rev, w), _horner(weights, abs(w)).real

    return sized


def poly_roots(p: ComplexPolynomial) -> list[complex]:
    """All ``degree(p)`` roots of ``p``, with multiplicity, in no fixed order.

    Each returned root r satisfies |p(r)| <= ``RESIDUAL_LIMIT`` * max|c_k|
    if |r| <= 1 and |p(r)| <= ``RESIDUAL_LIMIT`` * sum |c_k| |r|^k if
    |r| > 1.  Degree 2 is solved in closed form and higher degree by the
    package's one Aberth-Ehrlich loop (``products._aberth``), which settles
    each root at the same test with ``RESIDUAL_TARGET``.  Raises
    :class:`NonConvergence` if a root stops first: at the sweep cap or at a
    rounding-sized step.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    coeffs = list(p.coeffs)
    roots: list[complex] = []
    # Exact zero roots are split off so the iteration only sees a polynomial
    # with a nonzero constant term.
    while len(coeffs) > 1 and coeffs[0] == 0:
        roots.append(0j)
        coeffs.pop(0)
    m = len(coeffs) - 1
    sweeps = 0
    if m == 1:
        roots.append(-coeffs[0] / coeffs[1])
    elif m == 2:
        roots.extend(_solve_quadratic(*coeffs))
    elif m >= 3:
        dcoeffs = [k * c for k, c in enumerate(coeffs) if k > 0]
        rdcoeffs = [k * c for k, c in enumerate(reversed(coeffs)) if k > 0]
        sized = _sized(coeffs)

        def newton(z: complex) -> tuple[complex, bool]:
            value, size = sized(z)
            if abs(value) <= RESIDUAL_TARGET * size:
                return 0j, True
            if abs(z) <= 1.0:
                return value / _horner(dcoeffs, z), False
            # p / p' = z q(w) / (m q(w) - w q'(w)) at w = 1/z, with q(w) = w^m p(1/w).
            w = 1.0 / z
            return z * value / (m * value - w * _horner(rdcoeffs, w)), False

        # The start ring sits at the geometric mean of the root moduli, taken by logarithms.
        radius = math.exp((math.log(abs(coeffs[0])) - math.log(abs(coeffs[-1]))) / m)
        found, sweeps = _aberth(newton, m, radius, MAX_SWEEPS, False)
        roots.extend(found)
    sized = _sized(p.coeffs)
    for r in roots:
        residual, size = sized(r) if cmath.isfinite(r) else (math.nan, 0.0)
        if not abs(residual) <= RESIDUAL_LIMIT * size:
            raise NonConvergence(
                f"residual {abs(residual):.3e} at root {r!r}"
                f" exceeds the bound after {sweeps} of at most {MAX_SWEEPS} sweeps"
            )
    return roots

