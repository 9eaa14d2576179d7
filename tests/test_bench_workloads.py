"""One seeded round of each benchmark workload passes the benchmark's checks.

The workloads and checks are loaded from ``bench/`` without writing there;
the CLI session runs ``blaschke.cli.run`` in this process instead of one
subprocess per command.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import random
import sys
from pathlib import Path

import pytest

import blaschke
import blaschke.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = ("invariant-orbits", "tripled-split", "boundary-values", "cli-session")
SEED = 1


@pytest.fixture
def bench(monkeypatch):
    """The ``checks`` and ``workloads`` modules of the benchmark."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    # The benchmark's modules import their siblings by bare name, and its
    # dataclasses look their module up in sys.modules.
    for name in ("oracle", "checks", "workloads"):
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, name, module)
        spec.loader.exec_module(module)
    return sys.modules["checks"], sys.modules["workloads"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = blaschke.cli.run(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_round_passes_the_checks(bench, workload, tmp_path):
    checks, workloads = bench
    points = workloads.check_points(random.Random(f"points/{SEED}"))
    ctx = workloads.Context(pkg=blaschke, points=points, cli=run_cli, workdir=tmp_path)
    tasks = workloads.WORKLOADS[workload](random.Random(f"{workload}/{SEED}/0"), ctx)
    audit = checks.Audit()
    for task in tasks:
        task.check(audit, task.run())
    assert tasks and audit.ok, audit.failures
