"""Tests of the oracle and the output checks; they do not import blaschke.

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import cmath
import json
import math
import unittest
from pathlib import Path

import checks
import oracle
import run
import tracing


def audit_of(check, *args) -> checks.Audit:
    audit = checks.Audit()
    check(audit, *args)
    return audit


class OracleTest(unittest.TestCase):
    def test_degree5_constant_at_half(self):
        # The paper's worked example, printed to six decimals.
        found = oracle.orbit_constants(0.5, 5)
        self.assertLess(min(abs(c - (-0.856763 - 0.515711j)) for c in found), 1e-6)

    def test_degree3_constants_are_roots_of_the_quadratic(self):
        # At alpha = 1/2 the 3-step closure equation is c^2 + 1.25 c + 1 = 0.
        roots = [complex(-1.25, s * math.sqrt(4.0 - 1.25 ** 2)) / 2 for s in (1, -1)]
        found = oracle.orbit_constants(0.5, 3)
        self.assertEqual(len(found), 2)
        for r in roots:
            self.assertLess(min(abs(c - r) for c in found), 1e-15)

    def test_constants_close_the_orbit_with_phi_n_distinct_orbits(self):
        for alpha in (0.2 + 0.1j, 0.45j, -0.3):
            for n in (4, 9, 12, 20):
                primitive = oracle.orbit_constants(abs(alpha), n)
                self.assertEqual(len(primitive), sum(math.gcd(k, n) == 1 for k in range(1, n)))
                self.assertEqual(len(oracle.orbit_constants(abs(alpha), n, primitive=False)), n - 1)
                for c in primitive:
                    orbit = oracle.orbit_of_zero(c, alpha, n)
                    self.assertLess(abs(oracle.moebius(c, alpha, orbit[-1])), 1e-12)
                    gaps = [abs(p - q) for i, p in enumerate(orbit) for q in orbit[:i]]
                    self.assertGreater(min(gaps), 1e-3)

    def test_boundary_speed_is_the_derivative_modulus(self):
        zeros = (0.3 + 0.2j, -0.5j, 0.7)
        for t in (0.1, 2.0, 4.5):
            z, h = cmath.exp(1j * t), 1e-6
            numeric = abs(oracle.blaschke(1, zeros, z * cmath.exp(1j * h)) - oracle.blaschke(1, zeros, z * cmath.exp(-1j * h))) / (2 * h)
            self.assertAlmostEqual(oracle.boundary_speed(zeros, z), numeric, places=6)

    def test_cubic_roots(self):
        roots = (1.0, 2j, -0.5 + 0.25j)
        r1, r2, r3 = roots
        found = oracle.cubic_roots(-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -r1 * r2 * r3)
        for r in roots:
            self.assertLess(min(abs(f - r) for f in found), 1e-14)

    def test_tripled_and_paired_zeros_are_inner_preimages(self):
        a1, a2, b = 0.4 + 0.3j, -0.6j, 0.5 - 0.2j
        for z in oracle.tripled_zeros(a1, a2, [b]):
            self.assertLess(abs(oracle.blaschke(1, (0j, a1, a2), z) - b), 1e-14)
        for z in oracle.paired_zeros(a1, [b]):
            self.assertLess(abs(oracle.blaschke(1, (0j, a1), z) - b), 1e-14)

    def test_poncelet_preimages(self):
        a1, a2, lam = 0.3 + 0.1j, -0.4 + 0.2j, cmath.exp(0.7j)
        a3 = (a1 - a2) / (1 - a1.conjugate() * a2)
        points = oracle.poncelet_preimages(a1, a2, lam)
        self.assertEqual(len(points), 4)
        for z in points:
            self.assertAlmostEqual(abs(z), 1.0, places=14)
            self.assertLess(abs(oracle.blaschke(1, (0j, a1, a2, a3), z) - lam), 1e-13)

    def test_tangency_on_a_circle(self):
        # Coincident foci: the ellipse is the circle of radius focal_sum / 2.
        self.assertLess(oracle.tangency_error(0j, 0j, 1.0, 0.5 - 1j, 0.5 + 1j), 1e-15)
        self.assertGreater(oracle.tangency_error(0j, 0j, 1.0, 0.25 - 1j, 0.25 + 1j), 0.1)


class CorruptedAnswerTest(unittest.TestCase):
    """Each checker accepts a correct answer and rejects one corrupted answer."""

    def test_dropped_constant(self):
        constants = oracle.orbit_constants(0.3, 12)
        self.assertTrue(audit_of(checks.check_constants, 0.3, 12, constants).ok)
        self.assertFalse(audit_of(checks.check_constants, 0.3, 12, constants[1:]).ok)

    def test_shifted_preimage(self):
        a1, a2, lam = 0.3 + 0.1j, -0.4 + 0.2j, cmath.exp(0.7j)
        product = (1.0, (0j, a1, a2, (a1 - a2) / (1 - a1.conjugate() * a2)))
        points = oracle.poncelet_preimages(a1, a2, lam)
        self.assertTrue(audit_of(checks.check_preimages, product, lam, points).ok)
        shifted = points[:1] + [points[1] * cmath.exp(1e-6j)] + points[2:]
        self.assertFalse(audit_of(checks.check_preimages, product, lam, shifted).ok)
        self.assertFalse(audit_of(checks.check_poncelet_points, a1, a2, lam, shifted).ok)

    def test_wrong_outer_zero(self):
        a1, a2, outer = 0.4 + 0.3j, -0.6j, (0j, 0.5 - 0.2j, -0.1 + 0.7j)
        product = (1.0, tuple(oracle.tripled_zeros(a1, a2, outer)))
        inner = (1.0, (0j, a1, a2))
        points = (0.1j, 0.5 + 0.2j, -0.7, 0.3 - 0.8j)
        self.assertTrue(audit_of(checks.check_split, product, inner, (1.0, outer), points).ok)
        wrong = (1.0, outer[:2] + (outer[2] + 1e-4,))
        self.assertFalse(audit_of(checks.check_split, product, inner, wrong, points).ok)

    def test_trivial_split(self):
        product = (1.0, (0j, 0.5, -0.5j, 0.2 + 0.2j, 0.4j))
        points = (0.1j, 0.5 + 0.2j)
        self.assertFalse(audit_of(checks.check_split, product, (1.0, (0j,)), product, points).ok)

    def test_wrong_ellipse_and_svg(self):
        a1, a2, lam = 0.3 + 0.1j, -0.4 + 0.2j, cmath.exp(0.7j)
        a3 = (a1 - a2) / (1 - a1.conjugate() * a2)
        points = oracle.poncelet_preimages(a1, a2, lam)
        self.assertTrue(audit_of(checks.check_diagonals, a1, points).ok)
        self.assertFalse(audit_of(checks.check_diagonals, a1 + 1e-5, points).ok)
        # Focal sum from one side: d1 d2 = b^2 and a^2 = b^2 + (|a2 - a3|/2)^2.
        d1d2 = oracle.signed_distance(points[0], points[1], a2) * oracle.signed_distance(points[0], points[1], a3)
        focal_sum = 2 * math.sqrt(d1d2 + (abs(a2 - a3) / 2) ** 2)
        self.assertTrue(audit_of(checks.check_ellipse, a2, a3, (a2, a3, focal_sum), points).ok)
        self.assertFalse(audit_of(checks.check_ellipse, a2, a3, (a2, a3, 1.01 * focal_sum), points).ok)
        self.assertFalse(audit_of(checks.check_svg, '<circle class="zero"/>' * 3, 4).ok)

    def test_order_shown_by_iteration(self):
        alpha = 0.3 + 0.2j
        c = oracle.orbit_constants(abs(alpha), 6)[0]
        self.assertTrue(audit_of(checks.check_generator_order, c, alpha, 6).ok)
        self.assertFalse(audit_of(checks.check_generator_order, c, alpha, 3).ok)
        self.assertFalse(audit_of(checks.check_generator_order, c, alpha, 12).ok)


class BenchmarkFileTest(unittest.TestCase):
    def test_per_layer_metrics_match_the_traced_run(self):
        spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))
        printed = set(tracing.Tracer().metrics(1)) | {"cli.startup_ms", "trace.overhead_pct"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, printed)
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.LAYER_UNITS[m["name"].rsplit(".", 1)[1]], m["name"])


if __name__ == "__main__":
    unittest.main()
