"""Dense complex polynomials and their roots.

:func:`poly_roots` serves polynomials given by their coefficients; no
package path calls it.  It runs the Aberth-Ehrlich loop that also solves
compositions from the factors (``products._aberth``) on the Horner ratio,
and the quadratic closed form of fixed points (``moebius``) at degree 2.
:func:`require_finite` lives in ``errors``, which every module imports, and
is re-exported here; no CLI command loads this module.
"""

from __future__ import annotations

import cmath
import math
from typing import Iterable, Sequence

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


def _converged(
    value: complex, root: complex, reversed_weights: Sequence[float], scale: float, limit: float
) -> bool:
    """Whether |p(z)| <= ``limit`` times the size of p at z.

    ``value`` is p(z), ``reversed_weights`` holds |c_k| from the leading
    coefficient down and ``scale`` is max|c_k|.  Outside the unit circle the
    size is sum |c_k| |z|^k, the size of the terms Horner adds up; a cap of
    max|c_k| |z|^degree there would accept points nowhere near a root when
    the leading coefficient is tiny.  Both sides are divided by |z|^degree
    and compared as logarithms, so neither overflows.  Inside the circle
    the size is max|c_k|: the sum can reach (degree + 1) max|c_k| there
    and would accept less accurate roots.
    """
    residual = math.hypot(value.real, value.imag)
    size = math.hypot(root.real, root.imag)
    if size <= 1.0:
        return residual <= limit * scale
    if residual == 0.0:
        return True
    # sum |c_k| |z|^(k - degree), finite because |z| > 1.
    reduced = _horner(reversed_weights, 1.0 / size).real
    degree = len(reversed_weights) - 1
    return math.log(residual) <= math.log(limit * reduced) + degree * math.log(size)


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
    scale = max(abs(c) for c in p.coeffs)
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
        deflated = [abs(c) for c in reversed(coeffs)]

        def newton(z: complex) -> tuple[complex, bool]:
            value = _horner(coeffs, z)
            if _converged(value, z, deflated, scale, RESIDUAL_TARGET):
                return 0j, True
            return value / _horner(dcoeffs, z), False

        # The start ring sits at the geometric mean of the root moduli, taken by logarithms.
        radius = math.exp((math.log(abs(coeffs[0])) - math.log(abs(coeffs[-1]))) / m)
        found, sweeps = _aberth(newton, m, radius, MAX_SWEEPS, False)
        roots.extend(found)
    weights = [abs(c) for c in reversed(p.coeffs)]
    for r in roots:
        residual = _horner(p.coeffs, r)
        if not (cmath.isfinite(r) and _converged(residual, r, weights, scale, RESIDUAL_LIMIT)):
            raise NonConvergence(
                f"residual {math.hypot(residual.real, residual.imag):.3e} at root {r!r}"
                f" exceeds the bound after {sweeps} of at most {MAX_SWEEPS} sweeps"
            )
    return roots

