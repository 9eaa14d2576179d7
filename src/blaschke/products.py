"""Finite Blaschke products: evaluation, composition, equality, preimages."""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .errors import DomainError, NonConvergence, NormalizationError
from .moebius import EVAL_DOMAIN_TOL, OPEN_DISK_MARGIN, UNIT_MODULUS_TOL
from .numerics import ComplexPolynomial, poly_roots, require_finite

ORIGIN_ZERO_TOL = 1e-12
EQUALITY_TOL = 1e-8
PROBE_RADIUS = 0.5
PROBE_RADIUS_ALT = 0.47
CONSTANT_RECOVERY_TOL = 1e-6
CIRCLE_ROOT_TOL = 1e-8


@dataclass(frozen=True)
class BlaschkeProduct:
    """A unimodular constant and a zero multiset inside the open disk.

    Zero multiplicity is expressed by repetition; compositions and orbit
    constructions naturally produce repeated (or nearly repeated) zeros.
    """

    constant: complex
    zeros: tuple[complex, ...]

    def __post_init__(self) -> None:
        constant = require_finite(self.constant)
        if abs(abs(constant) - 1.0) > UNIT_MODULUS_TOL:
            raise ValueError(f"|constant| = {abs(constant)!r} is not within {UNIT_MODULUS_TOL} of 1")
        zeros = tuple(require_finite(z) for z in self.zeros)
        if not zeros:
            raise ValueError("a Blaschke product needs at least one zero")
        for z in zeros:
            if abs(z) > 1.0 - OPEN_DISK_MARGIN:
                raise ValueError(f"zero {z!r} must lie inside the open disk")
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "zeros", zeros)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def __call__(self, z: complex) -> complex:
        return blaschke_eval(self, z)


@dataclass(frozen=True)
class CanonicalForm:
    product: BlaschkeProduct
    is_canonical: bool


def canonical_form(product: BlaschkeProduct) -> CanonicalForm:
    """Flag whether the constant is 1 and a zero sits at the origin."""
    is_canonical = abs(product.constant - 1.0) <= UNIT_MODULUS_TOL and any(
        abs(z) <= ORIGIN_ZERO_TOL for z in product.zeros
    )
    return CanonicalForm(product, is_canonical)


def blaschke_eval(product: BlaschkeProduct, z: complex) -> complex:
    """Evaluate the product at a point of the closed disk."""
    z = require_finite(z)
    if abs(z) > 1.0 + EVAL_DOMAIN_TOL:
        raise DomainError(f"|z| = {abs(z)!r} lies outside the closed unit disk")
    value = product.constant
    for a in product.zeros:
        value *= (z - a) / (1.0 - a.conjugate() * z)
    return value


def _numerator_denominator(product: BlaschkeProduct) -> tuple[ComplexPolynomial, ComplexPolynomial]:
    num = ComplexPolynomial([product.constant])
    den = ComplexPolynomial([1.0])
    for a in product.zeros:
        num = num * ComplexPolynomial([-a, 1.0])
        den = den * ComplexPolynomial([1.0, -a.conjugate()])
    return num, den


def probe_points(degree: int, avoid: Iterable[complex] = ()) -> tuple[complex, ...]:
    """``degree + 1`` equispaced interior probes, dodging the avoid set.

    Probes sit on the circle of radius 1/2; if one collides with an avoided
    point (a zero, i.e. the reflection of a pole) the radius drops to 0.47.
    """
    avoid = tuple(avoid)
    for radius in (PROBE_RADIUS, PROBE_RADIUS_ALT):
        pts = tuple(radius * cmath.exp(2j * math.pi * k / (degree + 1)) for k in range(degree + 1))
        if all(abs(p - a) > 1e-9 for p in pts for a in avoid):
            return pts
    return pts


def blaschke_equal(a: BlaschkeProduct, b: BlaschkeProduct, tol: float = EQUALITY_TOL) -> bool:
    """Pointwise equality oracle.

    Two degree-n products agreeing at n+1 distinct interior points agree
    everywhere, so probing that many points decides equality.
    """
    if a.degree != b.degree:
        return False
    for p in probe_points(a.degree, a.zeros + b.zeros):
        if abs(blaschke_eval(a, p) - blaschke_eval(b, p)) > tol:
            return False
    return True


def recover_constant(
    zeros: Sequence[complex],
    reference: Callable[[complex], complex],
    inner: Optional[BlaschkeProduct] = None,
) -> complex:
    """Unimodular c with ``c * prod (w-a)/(1-conj(a) w) = reference(z)``, w = inner(z).

    Without ``inner``, w is z.  The equation is solved at one interior probe;
    a probe is skipped only when it sits on a zero, where a factor vanishes,
    so a high-degree product that is merely small there still serves.
    """
    golden = math.pi * (math.sqrt(5) - 1)
    for k in range(64):
        probe = 0.53 * cmath.exp(1j * (0.37 + golden * k))
        w = probe if inner is None else blaschke_eval(inner, probe)
        factors = [(w - a) / (1.0 - a.conjugate() * w) for a in zeros]
        denom = math.prod(factors)
        if denom == 0 or min(abs(f) for f in factors) <= 1e-9:
            continue
        constant = reference(probe) / denom
        if abs(abs(constant) - 1.0) > CONSTANT_RECOVERY_TOL:
            raise NormalizationError(
                f"recovered constant has modulus {abs(constant)!r}, too far from 1"
            )
        return constant / abs(constant)
    raise NormalizationError("no usable probe point for constant recovery")


def blaschke_compose(outer: BlaschkeProduct, inner: BlaschkeProduct) -> BlaschkeProduct:
    """The composition ``outer ∘ inner`` as an explicit Blaschke product.

    Zeros are the inner-preimages of the outer zeros, found by solving
    numerator(inner) - b * denominator(inner) = 0 for each outer zero b;
    the constant is recovered at a probe point and projected to the circle.
    """
    num, den = _numerator_denominator(inner)
    zeros: list[complex] = []
    for b in outer.zeros:
        zeros.extend(poly_roots(num - den.scaled(b)))
    composed = recover_constant(zeros, lambda z: blaschke_eval(outer, blaschke_eval(inner, z)))
    return BlaschkeProduct(composed, tuple(zeros))


def blaschke_preimages(product: BlaschkeProduct, lam: complex) -> tuple[complex, ...]:
    """The ``degree`` boundary solutions of ``B(z) = lam``, sorted by argument.

    Each root is projected onto the unit circle exactly; a root further than
    ``CIRCLE_ROOT_TOL`` from the circle signals a numeric failure.
    """
    lam = require_finite(lam)
    if abs(abs(lam) - 1.0) > UNIT_MODULUS_TOL:
        raise DomainError(f"|lambda| = {abs(lam)!r} is not within {UNIT_MODULUS_TOL} of 1")
    num, den = _numerator_denominator(product)
    roots = poly_roots(num - den.scaled(lam))
    if len(roots) != product.degree:
        raise NonConvergence("preimage equation lost degree")
    projected = []
    for r in roots:
        if abs(abs(r) - 1.0) > CIRCLE_ROOT_TOL:
            raise NonConvergence(f"preimage {r!r} is off the unit circle")
        projected.append(r / abs(r))
    projected.sort(key=lambda z: math.atan2(z.imag, z.real))
    return tuple(projected)
