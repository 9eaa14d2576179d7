"""Poncelet ellipse of degree-4 products and the boundary-pair properties.

For a canonical degree-4 product whose distinguished zero a1 satisfies
``a1 + conj(a1) a2 a3 = a2 + a3``, the curve inscribed in all chords of
equal boundary value is an ellipse with foci a2, a3, and the two diagonals
of each preimage quadrilateral meet at a1.  Lines through a1, and circles
through 0 and 1/conj(a1), cut the unit circle in points of equal value.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

from .decompose import CONDITION_TOL, check_paired_conditions_2n
from .errors import (
    BadShape,
    BlaschkeError,
    ConditionsUnsatisfied,
    NoConcurrentPairing,
    NoIntersection,
    NondegeneracyError,
    Record,
    require_finite,
)
from .products import (
    ORIGIN_ZERO_TOL,
    BlaschkeProduct,
    blaschke_eval,
    blaschke_preimages,
)

CHORD_TOL = 1e-7


class PonceletEllipse(Record):
    """Ellipse described by its foci and the focal-distance sum."""

    _fields = ("focus1", "focus2", "focal_sum")
    focus1: complex
    focus2: complex
    focal_sum: float

    def __init__(self, focus1: complex, focus2: complex, focal_sum: float) -> None:
        for f in (focus1, focus2):
            if abs(f) >= 1.0:
                raise NondegeneracyError(f"focus {f!r} must lie inside the open disk")
        if focal_sum <= abs(focus1 - focus2) + 1e-12:
            raise NondegeneracyError("focal sum must exceed the focal distance")
        self._set(focus1=focus1, focus2=focus2, focal_sum=focal_sum)


class ChordConcurrencyReport(Record):
    """A preimage pairing whose two chords both pass through the target point."""

    _fields = ("preimages", "pairing", "distances")
    preimages: tuple[complex, ...]
    pairing: tuple[tuple[int, int], tuple[int, int]]
    distances: tuple[float, float]

    def __init__(
        self,
        preimages: tuple[complex, ...],
        pairing: tuple[tuple[int, int], tuple[int, int]],
        distances: tuple[float, float],
    ) -> None:
        self._set(preimages=preimages, pairing=pairing, distances=distances)


def poncelet_ellipse(product: BlaschkeProduct, foci_indices: tuple[int, int]) -> PonceletEllipse:
    """The inscribed ellipse of a degree-4 product with the paired-zero condition.

    ``foci_indices`` selects the two zeros acting as foci; of the remaining
    two zeros, one is the origin zero of the canonical form and the other is
    the distinguished zero a1 entering the condition.
    """
    n = product.degree
    if n != 4:
        raise BadShape("the ellipse construction needs degree 4")
    i, j = foci_indices
    if i == j or not all(0 <= k < n for k in (i, j)):
        raise BadShape("foci indices must be two distinct zero indices")
    rest = [k for k in range(n) if k not in (i, j)]
    rest.sort(key=lambda k: abs(product.zeros[k]))
    origin_index, a1_index = rest
    conditions = check_paired_conditions_2n(product, a1_index, ((i, j),))
    if not conditions.satisfied:
        raise ConditionsUnsatisfied(
            f"zero condition residual {abs(conditions.residuals[0]):.3e} exceeds {CONDITION_TOL}"
        )
    f1, f2 = product.zeros[i], product.zeros[j]
    radicand = (abs(f1) ** 2 + abs(f2) ** 2 - 2.0) / (abs(f1) ** 2 * abs(f2) ** 2 - 1.0)
    focal_sum = abs(1.0 - f1.conjugate() * f2) * math.sqrt(radicand)
    return PonceletEllipse(f1, f2, focal_sum)


def find_poncelet_ellipse(
    product: BlaschkeProduct, a1_index: Optional[int] = None
) -> PonceletEllipse:
    """The inscribed ellipse, with the distinguished zero a1 given or searched for.

    The foci are the two nonzero zeros other than a1.  Without ``a1_index``
    each nonzero zero is tried as a1, and the first whose condition holds
    gives the ellipse.
    """
    nonzero = [i for i, z in enumerate(product.zeros) if abs(z) > ORIGIN_ZERO_TOL]
    if a1_index is not None:
        foci = [i for i in nonzero if i != a1_index]
        if len(foci) != 2:
            raise BadShape("need exactly two nonzero zeros besides a1 for the foci")
        return poncelet_ellipse(product, (foci[0], foci[1]))
    failures = []
    for a1 in nonzero:
        foci = [i for i in nonzero if i != a1]
        if len(foci) != 2:
            continue
        try:
            return poncelet_ellipse(product, (foci[0], foci[1]))
        except BlaschkeError as exc:
            failures.append(str(exc))
    raise ConditionsUnsatisfied(
        "no distinguished zero satisfies the ellipse condition"
        + (": " + "; ".join(failures) if failures else "")
    )


def _point_line_distance(p: complex, q: complex, x: complex) -> float:
    """Perpendicular distance from ``x`` to the infinite line through p, q."""
    return abs(((x - p) * (q - p).conjugate()).imag) / abs(q - p)


def _concurrent_pairing(
    pts: tuple[complex, ...], a1: complex, tol: float
) -> Optional[ChordConcurrencyReport]:
    """The first pairing of the four points whose two chords pass within ``tol`` of ``a1``."""
    for pairing in (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))):
        d = tuple(_point_line_distance(pts[i], pts[j], a1) for i, j in pairing)
        if max(d) <= tol:
            return ChordConcurrencyReport(pts, pairing, d)
    return None


def chord_concurrency(product: BlaschkeProduct, a1: complex, lam: complex) -> ChordConcurrencyReport:
    """Find the preimage pairing whose chords both pass through ``a1``.

    The four boundary preimages of ``lam`` admit three perfect pairings; the
    first one whose two chords come within ``CHORD_TOL`` of ``a1`` is reported.
    """
    if product.degree != 4:
        raise BadShape("chord concurrency needs degree 4")
    a1 = require_finite(a1)
    report = _concurrent_pairing(blaschke_preimages(product, lam), a1, CHORD_TOL)
    if report is None:
        raise NoConcurrentPairing(
            f"no chord pairing of the preimages of {lam!r} passes through {a1!r}"
        )
    return report


def line_through_a1_property(product: BlaschkeProduct, a1: complex, theta: float) -> float:
    """``|B(z1) - B(z2)|`` at the two boundary crossings of a line through a1.

    The line is ``{a1 + t e^(i theta)}``; an interior point always yields two
    real parameter roots.
    """
    a1 = require_finite(a1)
    if abs(a1) >= 1.0:
        raise ValueError("a1 must lie inside the open disk")
    direction = cmath.exp(1j * theta)
    b = (a1.conjugate() * direction).real
    disc = math.sqrt(b * b + 1.0 - abs(a1) ** 2)
    z1 = a1 + (-b + disc) * direction
    z2 = a1 + (-b - disc) * direction
    return abs(blaschke_eval(product, z1) - blaschke_eval(product, z2))


def circle_through_pole_property(
    product: BlaschkeProduct, a1: complex, center_param: float
) -> float:
    """``|B(z1) - B(z2)|`` at the boundary crossings of a pencil circle.

    The pencil consists of circles through 0 and 1/conj(a1); their centers
    lie on the perpendicular bisector of that segment and ``center_param``
    is the signed offset along it.
    """
    a1 = require_finite(a1)
    if abs(a1) <= ORIGIN_ZERO_TOL:
        raise ValueError("a1 must be nonzero to define the exterior pole")
    w = 1.0 / a1.conjugate()
    center = w / 2.0 + center_param * 1j * w / abs(w)
    # Radical line of the pencil circle and the unit circle: Re(conj(q) z) = 1/2.
    x = 1.0 / (2.0 * abs(center))
    if x >= 1.0:
        raise NoIntersection("selected circle meets the unit circle in fewer than two points")
    u = center / abs(center)
    y = math.sqrt(1.0 - x * x)
    z1 = u * complex(x, y)
    z2 = u * complex(x, -y)
    return abs(blaschke_eval(product, z1) - blaschke_eval(product, z2))
