"""Dense complex polynomials and a simultaneous root finder.

Everything else in the package bottoms out here: composition equations,
boundary preimages and interior fixed points are all solved by
:func:`poly_roots`, an Aberth-Ehrlich iteration that refines all roots of a
polynomial at once.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NonConvergence

# Relative tolerance below which a leading coefficient is treated as zero.
LEADING_TRIM = 1e-14
# Residual target for the root sweep, relative to the largest coefficient.
RESIDUAL_TARGET = 1e-12
# Contractual residual bound; exceeding it after the sweep cap is an error.
RESIDUAL_LIMIT = 1e-10
MAX_SWEEPS = 1000


def require_finite(z: complex) -> complex:
    """Return ``z`` as a built-in complex, rejecting NaN and infinities."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"non-finite complex value: {z!r}")
    return z


@dataclass(frozen=True)
class ComplexPolynomial:
    """A polynomial with complex coefficients in ascending degree order.

    Construction trims leading coefficients whose modulus is below
    ``LEADING_TRIM`` relative to the largest coefficient, so the stored
    degree is meaningful even for polynomials produced by composition.
    """

    coeffs: tuple[complex, ...]

    def __init__(self, coeffs: Iterable[complex]) -> None:
        cs = [require_finite(c) for c in coeffs]
        if not cs:
            raise ValueError("a polynomial needs at least one coefficient")
        top = max(abs(c) for c in cs)
        cut = LEADING_TRIM * top
        while len(cs) > 1 and abs(cs[-1]) <= cut:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

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

    def derivative(self) -> "ComplexPolynomial":
        if len(self.coeffs) == 1:
            return ComplexPolynomial([0j])
        return ComplexPolynomial([k * c for k, c in enumerate(self.coeffs) if k > 0])

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


def _solve_quadratic(c0: complex, c1: complex, c2: complex) -> list[complex]:
    # c2 z^2 + c1 z + c0 = 0, c2 != 0; branch chosen to avoid cancellation.
    disc = cmath.sqrt(c1 * c1 - 4 * c2 * c0)
    if (c1.conjugate() * disc).real < 0:
        disc = -disc
    q = -(c1 + disc) / 2
    r1 = q / c2
    r2 = c0 / q if q != 0 else -r1
    return [r1, r2]


def _within_cap(residual: complex, scale: float, root: complex, degree: int, limit: float) -> bool:
    # Absolute residuals grow like |r|^degree at roots far outside the unit
    # circle, so the bound is scaled by the polynomial's magnitude there.
    try:
        return abs(residual) <= limit * scale * max(1.0, abs(root)) ** degree
    except OverflowError:
        # |r|^degree (or the residual) is beyond the float range, as on the
        # start ring of a high-degree polynomial: compare in log space.
        value = math.hypot(residual.real, residual.imag)
        size = max(1.0, math.hypot(root.real, root.imag))
        return value == 0.0 or math.log(value) <= math.log(limit * scale) + degree * math.log(size)


def _aberth(coeffs: Sequence[complex], scale: float) -> tuple[list[complex], int]:
    # Returns the roots and the number of sweeps run.
    n = len(coeffs) - 1
    dcoeffs = [k * c for k, c in enumerate(coeffs) if k > 0]
    lead = abs(coeffs[-1])
    radius = 1.0 + max(abs(c) for c in coeffs[:-1]) / lead
    # Equispaced start ring with an angular offset so symmetric inputs do not
    # trap the iteration on a symmetry axis.
    roots = [radius * cmath.exp(1j * (2 * math.pi * (k + 0.35) / n + 0.5)) for k in range(n)]
    for sweep in range(MAX_SWEEPS):
        pvals = [_horner(coeffs, z) for z in roots]
        if all(_within_cap(v, scale, z, n, RESIDUAL_TARGET) for v, z in zip(pvals, roots)):
            return roots, sweep
        new_roots = []
        max_step = 0.0
        for i, z in enumerate(roots):
            pv = pvals[i]
            if _within_cap(pv, scale, z, n, RESIDUAL_TARGET):
                new_roots.append(z)
                continue
            dv = _horner(dcoeffs, z)
            if dv == 0:
                # Stationary point: nudge off it and keep sweeping.
                new_roots.append(z + (1e-6 + 1e-6j) * (1.0 + abs(z)))
                max_step = math.inf
                continue
            ratio = pv / dv
            repel = 0j
            for j, w in enumerate(roots):
                if j != i:
                    dz = z - w
                    repel += 1.0 / dz if dz != 0 else 1e12
            denom = 1.0 - ratio * repel
            step = ratio if denom == 0 else ratio / denom
            new_roots.append(z - step)
            max_step = max(max_step, abs(step))
        roots = new_roots
        # A NaN step leaves max_step unchanged, so test the iterates as well.
        if max_step <= 1e-16 * (1.0 + radius) or not all(map(cmath.isfinite, roots)):
            return roots, sweep + 1
    return roots, MAX_SWEEPS


def poly_roots(p: ComplexPolynomial) -> list[complex]:
    """All ``degree(p)`` roots of ``p``, with multiplicity, in no fixed order.

    Each returned root r satisfies |p(r)| <= ``RESIDUAL_LIMIT`` * max|coeff|
    * max(1, |r|)^degree; for the unit-circle-scale roots arising throughout
    this package the magnitude factor is 1.  Raises :class:`NonConvergence`
    if the sweeps stop first: at the cap, on stagnation or at a non-finite
    iterate.
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
        found, sweeps = _aberth(coeffs, scale)
        roots.extend(found)
    for r in roots:
        residual = _horner(p.coeffs, r)
        if not (cmath.isfinite(r) and _within_cap(residual, scale, r, p.degree, RESIDUAL_LIMIT)):
            raise NonConvergence(
                f"residual {math.hypot(residual.real, residual.imag):.3e} at root {r!r}"
                f" exceeds the bound after {sweeps} of at most {MAX_SWEEPS} sweeps"
            )
    return roots

