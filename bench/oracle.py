"""Reference mathematics for checking blaschke's outputs.

Written apart from the package and sharing no code with it, so that a fault
in the package cannot also hide in its check.  Stdlib only, so the oracle
adds nothing to the memory or start-up the benchmark attributes to the
package.  A product is a pair ``(constant, zeros)``.
"""

from __future__ import annotations

import cmath
import math


def blaschke(constant: complex, zeros, z: complex) -> complex:
    """``constant * prod (z - a) / (1 - conj(a) z)``."""
    value = complex(constant)
    for a in zeros:
        value *= (z - a) / (1.0 - a.conjugate() * z)
    return value


def boundary_speed(zeros, z: complex) -> float:
    """``|B'(z)|`` at a point of the unit circle: ``sum (1 - |a|^2) / |z - a|^2``.

    On the circle this is also the rate at which ``arg B`` increases, so it
    turns a value error ``|B(z) - lam|`` into a distance along the circle.
    """
    return sum((1.0 - abs(a) ** 2) / abs(z - a) ** 2 for a in zeros)


def _times_linear(p: list[complex], c0: complex, c1: complex) -> list[complex]:
    out = [0j] * (len(p) + 1)
    for k, pk in enumerate(p):
        out[k] += c0 * pk
        out[k + 1] += c1 * pk
    return out


def preimage_polynomial(constant: complex, zeros, lam: complex) -> list[complex]:
    """Ascending coefficients of ``num - lam den``, whose roots solve B = lam.

    ``num = constant prod (z - a)`` and ``den = prod (1 - conj(a) z)``.
    """
    num, den = [complex(constant)], [1 + 0j]
    for a in zeros:
        num = _times_linear(num, -a, 1.0)
        den = _times_linear(den, 1.0, -a.conjugate())
    return [x - lam * y for x, y in zip(num, den)]


def moebius(c: complex, alpha: complex, z: complex) -> complex:
    """``c (z - alpha) / (1 - conj(alpha) z)``."""
    return c * (z - alpha) / (1.0 - alpha.conjugate() * z)


def orbit_constants(alpha_abs: float, n: int, primitive: bool = True) -> list[complex]:
    """Unimodular ``c`` whose map ``c (z - alpha)/(1 - conj(alpha) z)`` has order n.

    The map is elliptic with rotation angle ``2 pi k / n`` exactly when its
    trace condition ``cos(theta/2) = sqrt(1 - |alpha|^2) cos(pi k / n)``
    holds for ``c = exp(i theta)``, so ``theta_k = 2 arccos(...)`` for
    k = 1 .. n-1.  The orbit of 0 has n distinct points exactly when
    ``gcd(k, n) = 1``; ``primitive`` keeps only those.
    """
    root = math.sqrt(1.0 - alpha_abs * alpha_abs)
    out = []
    for k in range(1, n):
        if primitive and math.gcd(k, n) != 1:
            continue
        theta = 2.0 * math.acos(root * math.cos(math.pi * k / n))
        out.append(cmath.exp(1j * theta))
    return out


def orbit_of_zero(c: complex, alpha: complex, n: int) -> list[complex]:
    """``0, M(0), ..., M^(n-1)(0)``."""
    points = [0j]
    for _ in range(n - 1):
        points.append(moebius(c, alpha, points[-1]))
    return points


def quadratic_roots(a: complex, b: complex, c: complex) -> list[complex]:
    """Both roots of ``a z^2 + b z + c`` (a != 0), avoiding cancellation."""
    d = cmath.sqrt(b * b - 4.0 * a * c)
    big = -(b + d) / 2.0 if abs(b + d) >= abs(b - d) else -(b - d) / 2.0
    if big == 0:
        return [0j, 0j]
    return [big / a, c / big]


def cubic_roots(p2: complex, p1: complex, p0: complex) -> list[complex]:
    """All roots of the monic cubic ``z^3 + p2 z^2 + p1 z + p0``.

    Cardano's formula on the depressed cubic, then Newton steps on the
    original polynomial to recover the digits lost in the formula.
    """
    shift = p2 / 3.0
    p = p1 - p2 * p2 / 3.0
    q = 2.0 * p2 ** 3 / 27.0 - p2 * p1 / 3.0 + p0
    s = cmath.sqrt(q * q / 4.0 + p ** 3 / 27.0)
    w = -q / 2.0 + s if abs(-q / 2.0 + s) >= abs(-q / 2.0 - s) else -q / 2.0 - s
    u = w ** (1.0 / 3.0) if w != 0 else 0j
    omega = cmath.exp(2j * math.pi / 3.0)
    roots = []
    for k in range(3):
        uk = u * omega ** k
        vk = -p / (3.0 * uk) if uk != 0 else 0j
        roots.append(uk + vk - shift)
    polished = []
    for z in roots:
        for _ in range(3):
            f = ((z + p2) * z + p1) * z + p0
            df = (3.0 * z + 2.0 * p2) * z + p1
            if df == 0 or f == 0:
                break
            z -= f / df
        polished.append(z)
    return polished


def paired_zeros(a1: complex, outer_zeros) -> list[complex]:
    """Zeros of ``outer o inner`` for ``inner = z (z - a1)/(1 - conj(a1) z)``.

    Each outer zero b contributes the two roots of
    ``z (z - a1) - b (1 - conj(a1) z)``.  With both constants 1 the
    composition has constant exactly 1.
    """
    zeros = []
    for b in outer_zeros:
        zeros.extend(quadratic_roots(1.0, b * a1.conjugate() - a1, -b))
    return zeros


def tripled_zeros(a1: complex, a2: complex, outer_zeros) -> list[complex]:
    """Zeros of ``outer o inner`` for ``inner = z (z-a1)(z-a2)/((1-conj(a1) z)(1-conj(a2) z))``.

    Each outer zero b contributes the three roots of
    ``z (z - a1)(z - a2) - b (1 - conj(a1) z)(1 - conj(a2) z)``; b = 0 gives
    0, a1, a2.  With both constants 1 the composition has constant exactly 1.
    """
    c1, c2 = a1.conjugate(), a2.conjugate()
    zeros = []
    for b in outer_zeros:
        if b == 0:
            zeros.extend((0j, a1, a2))
            continue
        zeros.extend(cubic_roots(-(a1 + a2) - b * c1 * c2, a1 * a2 + b * (c1 + c2), -b))
    return zeros


def poncelet_preimages(a1: complex, a2: complex, lam: complex) -> list[complex]:
    """The four solutions of ``B(z) = lam`` for ``B`` with zeros 0, a1, a2, a3.

    Here ``a3 = (a1 - a2)/(1 - conj(a1) a2)``, so ``B = outer o inner`` with
    ``inner = z (z - a1)/(1 - conj(a1) z)`` and outer zeros 0 and
    ``b = inner(a2)``.  Two quadratics give the points; they are returned
    sorted by argument.
    """
    b = a2 * (a2 - a1) / (1.0 - a1.conjugate() * a2)
    points = []
    for w in quadratic_roots(1.0, lam * b.conjugate() - b, -lam):
        points.extend(quadratic_roots(1.0, w * a1.conjugate() - a1, -w))
    return sorted(points, key=lambda z: math.atan2(z.imag, z.real))


def signed_distance(p: complex, q: complex, x: complex) -> float:
    """Signed distance from ``x`` to the line through p and q."""
    return ((x - p) * (q - p).conjugate()).imag / abs(q - p)


def tangency_error(focus1: complex, focus2: complex, focal_sum: float, p: complex, q: complex) -> float:
    """How far the line pq is from tangent to the ellipse.

    A line is tangent exactly when the foci lie on one side of it and the
    product of their distances to it equals the squared semi-minor axis
    ``(focal_sum/2)^2 - (|f1 - f2|/2)^2``.
    """
    minor2 = (focal_sum / 2.0) ** 2 - (abs(focus1 - focus2) / 2.0) ** 2
    return abs(signed_distance(p, q, focus1) * signed_distance(p, q, focus2) - minor2)
