"""``tools/interleave.py``, the interleaved A/B timer, run on one checkout against itself."""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "interleave.py"


def interleave(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )


def bench_files() -> set[Path]:
    return set((ROOT / "bench").rglob("*"))


def test_a_checkout_against_itself_agrees_and_writes_nothing_under_bench():
    before = bench_files()
    proc = interleave(".", ".", "--workload", "boundary-values", "--rounds", "1", "--reps", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload boundary-values, seed 3: 2 passes x 1 rounds, 56 and 56 tasks timed"
    assert [line.split(":")[0] for line in lines[1:4]] == ["p50", "p90", "total"]
    assert len(lines[4].split(": ")[1].split()) == 2
    assert lines[5] == "outputs differing in repr: 0; failed operations: old 0, new 0; failed checks: old 0, new 0"
    assert bench_files() == before


def test_a_task_that_raises_is_a_failed_operation(tmp_path):
    # A copy of the package whose blaschke_preimages raises for every lambda
    # in the right half-plane, so some boundary-values tasks fail.
    shutil.copytree(ROOT / "src" / "blaschke", tmp_path / "src" / "blaschke",
                    ignore=shutil.ignore_patterns("__pycache__"))
    products = tmp_path / "src" / "blaschke" / "products.py"
    products.write_text(products.read_text() + textwrap.dedent("""

        _preimages = blaschke_preimages


        def blaschke_preimages(product, lam):
            if lam.real > 0:
                raise RuntimeError("broken on purpose")
            return _preimages(product, lam)
    """))
    proc = interleave(".", str(tmp_path), "--workload", "boundary-values", "--rounds", "1", "--reps", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    timed_old, timed_new = (int(x) for x in re.fullmatch(r".*rounds, (\d+) and (\d+) tasks timed", lines[0]).groups())
    differ, failed_old, failed_new, checks_old, checks_new = (
        int(x) for x in re.findall(r"\d+", lines[5])
    )
    # 28 tasks a round, three rounds with the warm-up; the two timed ones are 56.
    assert timed_old == 56 and 0 < timed_new < 56
    assert failed_old == 0 and 56 - timed_new < failed_new < 84
    assert differ == failed_new and checks_old == checks_new == 0
    assert "broken on purpose" in proc.stderr


def test_rejects_an_unknown_workload_and_empty_passes():
    for args in (["--workload", "nope"], ["--workload", "boundary-values", "--reps", "0"]):
        proc = interleave(".", ".", *args)
        assert proc.returncode == 2
        assert "interleave.py: error:" in proc.stderr
