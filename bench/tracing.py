"""Spans around the public functions of each blaschke module, added from outside.

``Tracer.install`` wraps each function listed in ``LAYERS`` and rebinds the
name in every ``blaschke`` module namespace that holds it, so calls between
the package's own modules are recorded as well as the benchmark's calls.
``Tracer.restore`` puts the originals back.  A span is
``[name, start, end, parent index]``; spans stay in memory and are folded
into per-function totals after each traced round.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# The layers are the package's modules; each lists the functions it exports
# that the workloads reach.
LAYERS = {
    "numerics": ("poly_roots",),
    "moebius": ("closure_polynomial", "solve_unimodular_c", "moebius_order"),
    "products": ("blaschke_compose", "blaschke_equal", "blaschke_preimages"),
    "invariants": ("construct_invariant_product", "find_invariant_group", "verify_invariance"),
    "decompose": ("decompose_auto", "decompose_via_invariants", "decompose_paired_2n", "decompose_tripled_3n"),
    "poncelet": ("poncelet_ellipse", "chord_concurrency"),
    "figures": ("render_svg",),
    "cli": ("run",),
}
# Called too often for a span each: counted only.
COUNTED = {"products": ("blaschke_eval",)}
# Work done per call, recorded after the call returns: (counter, measure).
WORK = {
    "numerics.poly_roots": ("numerics.poly_roots.degree_sum", lambda args, result: args[0].degree),
    "moebius.solve_unimodular_c": ("moebius.solve_unimodular_c.constants", lambda args, result: len(result)),
    "invariants.find_invariant_group": ("invariants.find_invariant_group.groups", lambda args, result: len(result)),
}
ROUTES = ("decompose.decompose_via_invariants", "decompose.decompose_paired_2n", "decompose.decompose_tripled_3n")


def span_names() -> list[str]:
    return [f"{layer}.{name}" for layer, names in LAYERS.items() for name in names]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.first_round: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.patched: list[tuple] = []

    def _spanned(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if work is not None:
                counts[work[0]] += work[1](args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "blaschke" or key.startswith("blaschke.")]
        for table, make in ((LAYERS, self._spanned), (COUNTED, self._counted)):
            for layer, names in table.items():
                home = importlib.import_module("blaschke." + layer)
                for name in names:
                    original = getattr(home, name)
                    wrapped = make(f"{layer}.{name}", original)
                    for module in modules:
                        if module.__dict__.get(name) is original:
                            self.patched.append((module, name, original))
                            setattr(module, name, wrapped)

    def restore(self) -> None:
        for module, name, original in reversed(self.patched):
            setattr(module, name, original)
        self.patched.clear()

    def fold(self) -> None:
        """Add this round's spans to the totals; keep the first round's spans."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
                parent_name = spans[parent][0]
                if name == "invariants.verify_invariance" and parent_name == "invariants.find_invariant_group":
                    self.counts["invariants.vettings"] += 1
                if name in ROUTES and parent_name == "decompose.decompose_auto":
                    self.counts["decompose.routes"] += 1
        for i, (name, start, end, parent) in enumerate(spans):
            self.calls[name] += 1
            # Self time: the span's duration less what its child spans cover.
            self.self_s[name] += (end - start) - covered[i]
        if not self.first_round:
            self.first_round = [list(s) for s in spans]
        spans.clear()

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-round calls, self time and work counts."""
        out: dict[str, float] = {}
        for name in span_names():
            out[f"{name}.calls"] = self.calls[name] / rounds
            out[f"{name}.self_ms"] = self.self_s[name] * 1e3 / rounds
        for key in ("numerics.poly_roots.degree_sum", "moebius.solve_unimodular_c.constants"):
            out[key] = self.counts[key] / rounds
        out["products.blaschke_eval.calls"] = self.counts["products.blaschke_eval"] / rounds
        vettings = self.counts["invariants.vettings"]
        out["invariants.groups_per_vetting"] = (
            self.counts["invariants.find_invariant_group.groups"] / vettings if vettings else 0.0
        )
        splits = self.calls["decompose.decompose_auto"]
        out["decompose.routes_per_split"] = self.counts["decompose.routes"] / splits if splits else 0.0
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())
