"""The functions the benchmark's tracer rebinds by name must exist."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracing = load_tracing()
    for table in (tracing.LAYERS, tracing.COUNTED):
        for layer, names in table.items():
            module = importlib.import_module("blaschke." + layer)
            for name in names:
                assert callable(getattr(module, name, None)), f"blaschke.{layer}.{name}"
