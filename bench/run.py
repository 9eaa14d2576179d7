"""Benchmark of the blaschke package: one workload per run, one JSON line out.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run times every task with tracing off and prints the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes over one round and prints the per-layer metrics.  Every output is
checked against the oracle.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; result and trace files go
to ``.bench_run/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_run"
# p90 then has at least ten samples beyond it.
MIN_TIMED_TASKS = 100
ACCURACY_ROUNDS = 10
SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 60
# Unit of each per-layer metric, by the last part of its name.
LAYER_UNITS = {
    "calls": "count", "self_ms": "ms", "degree_sum": "count", "constants": "count",
    "groups_per_vetting": "ratio", "routes_per_split": "ratio", "startup_ms": "ms", "overhead_pct": "%",
}
IMPORT_PROBE = "import time; t = time.perf_counter(); import blaschke; print(time.perf_counter() - t)"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )


def subprocess_cli(argv: list[str]) -> tuple[int, str]:
    proc = run_child(["-m", "blaschke.cli", *argv])
    return proc.returncode, proc.stdout


def setup_sample(workload: str) -> float:
    """One set-up in fresh interpreters: the time to import blaschke, plus
    the start of a bare interpreter for the CLI session."""
    proc = run_child(["-c", IMPORT_PROBE])
    if proc.returncode != 0:
        raise RuntimeError(f"importing blaschke failed: {proc.stderr.strip()}")
    sample = float(proc.stdout)
    if workload == "cli-session":
        t0 = perf_counter()
        run_child(["-c", "pass"]).check_returncode()
        sample += perf_counter() - t0
    return sample


class Runner:
    """Runs rounds of tasks, counting attempts and failures, checking outputs."""

    def __init__(self) -> None:
        self.audit = checks.Audit()
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.round_worst: list[float] = []  # worst checked error of each round

    def round(self, tasks: list[workloads.Task]) -> tuple[list[float], float]:
        """Task times and the round's wall time; checks run after the clock stops."""
        outputs, times = [], []
        start = perf_counter()
        for task in tasks:
            t0 = perf_counter()
            try:
                out = task.run()
            except Exception:  # a failed operation is counted and reported, not fatal
                self.failed += 1
                if len(self.errors) < checks.MAX_KEPT_FAILURES:
                    self.errors.append(traceback.format_exc(limit=3))
                outputs.append(None)
                continue
            times.append(perf_counter() - t0)
            outputs.append(out)
        wall = perf_counter() - start
        self.attempted += len(tasks)
        self.audit.worst = 0.0
        for task, out in zip(tasks, outputs):
            if out is None:
                continue
            try:
                task.check(self.audit, out)
            except Exception as exc:  # an output too malformed to check fails its check
                self.audit.require(f"output could not be checked: {exc!r}", False)
        self.round_worst.append(self.audit.worst)
        return times, wall

    def accuracy_digits(self) -> float:
        """Mean over the first ACCURACY_ROUNDS rounds of -log10(worst error).

        The worst error of single tasks is heavy-tailed, so the worst over a
        whole run would swing with the seed; the mean of per-round worsts is
        steady and still follows the tail.
        """
        return statistics.fmean(checks.digits(w) for w in self.round_worst[:ACCURACY_ROUNDS])


def make_context(pkg, seed: int, cli, workdir: Path) -> workloads.Context:
    points = workloads.check_points(random.Random(f"points/{seed}"))
    return workloads.Context(pkg=pkg, points=points, cli=cli, workdir=workdir)


def make_round(workload: str, seed: int, k: int, ctx: workloads.Context) -> list[workloads.Task]:
    return workloads.WORKLOADS[workload](random.Random(f"{workload}/{seed}/{k}"), ctx)


def timed_run(workload: str, seed: int, seconds: float, pkg, workdir: Path) -> tuple[Runner, dict]:
    """End-to-end metrics with tracing off.

    Round 0 is an untimed warm-up.  Every round draws fresh inputs from the
    seed and its index, so no result can be reused across rounds.  Timed
    rounds run until ``seconds`` have passed, at least MIN_TIMED_TASKS
    tasks were timed and ACCURACY_ROUNDS rounds were checked.  Set-up is
    sampled SETUP_REPEATS times, first before round 0 and then spread
    evenly over the timed rounds, because machine speed can drift over
    seconds; ``setup_s`` is the median.
    """
    setup = [setup_sample(workload)]
    ctx = make_context(pkg, seed, subprocess_cli if workload == "cli-session" else None, workdir)
    runner = Runner()
    runner.round(make_round(workload, seed, 0, ctx))
    times: list[float] = []
    wall = 0.0
    start = perf_counter()
    timed = 0  # tasks attempted in timed rounds, failed ones included
    k = 1
    while perf_counter() - start < seconds or timed < MIN_TIMED_TASKS or k < ACCURACY_ROUNDS:
        tasks = make_round(workload, seed, k, ctx)
        t, w = runner.round(tasks)
        times += t
        wall += w
        timed += len(tasks)
        k += 1
        if len(setup) < SETUP_REPEATS and perf_counter() - start >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(setup_sample(workload))
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_sample(workload))
    if len(times) < 2:
        raise SystemExit(f"bench: {len(times)} of {timed} timed tasks succeeded, too few to report")
    ms = [t * 1e3 for t in times]
    who = resource.RUSAGE_CHILDREN if workload == "cli-session" else resource.RUSAGE_SELF
    metrics = {
        "task_ms_p50": (statistics.median(ms), "ms"),
        "task_ms_p90": (statistics.quantiles(ms, n=10)[8], "ms"),
        "tasks_per_s": (len(times) / wall, "1/s"),
        "accuracy_digits": (runner.accuracy_digits(), "digits"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
    }
    return runner, {"metrics": metrics, "timed_tasks": len(times), "rounds": k}


def inprocess_cli(argv: list[str]) -> tuple[int, str]:
    """``cli.run`` in this process, output captured; looked up at call time
    so the traced pass sees the wrapped function."""
    cli = sys.modules["blaschke.cli"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue()


def traced_run(workload: str, seed: int, seconds: float, pkg, workdir: Path) -> tuple[Runner, dict]:
    """Per-layer metrics: untraced and traced passes over round 0, alternated.

    Every pass runs the same inputs, so calls and work counts per round
    repeat exactly.  The CLI session also runs the round as subprocesses
    and in-process through ``cli.run``; the difference of their medians is
    the start-up cost.
    """
    import blaschke.cli  # noqa: F401  - the cli layer is traced in-process

    is_cli = workload == "cli-session"
    ctx = make_context(pkg, seed, inprocess_cli if is_cli else None, workdir)
    tasks = make_round(workload, seed, 0, ctx)
    sub_tasks = make_round(workload, seed, 0, make_context(pkg, seed, subprocess_cli, workdir)) if is_cli else []
    runner = Runner()
    runner.round(tasks)  # warm-up
    tracer = tracing.Tracer()
    sub_times: list[float] = []
    plain_times: list[float] = []
    wall_plain = wall_traced = 0.0
    rounds = 0
    start = perf_counter()
    while rounds == 0 or perf_counter() - start < seconds:
        if is_cli:
            sub_times += runner.round(sub_tasks)[0]
        t, w = runner.round(tasks)
        plain_times += t
        wall_plain += w
        tracer.install()
        try:
            _, w = runner.round(tasks)
        finally:
            tracer.restore()
        tracer.fold()
        wall_traced += w
        rounds += 1
    metrics = tracer.metrics(rounds)
    metrics["cli.startup_ms"] = (
        (statistics.median(sub_times) - statistics.median(plain_times)) * 1e3 if is_cli else 0.0
    )
    metrics["trace.overhead_pct"] = 100.0 * (wall_traced - wall_plain) / wall_plain
    self_s = tracer.total_self_s()
    runner.audit.require(
        f"summed self time {self_s:.3f} s exceeds traced wall time {wall_traced:.3f} s", self_s <= wall_traced
    )
    trace_doc = {
        "rounds": rounds,
        "wall_traced_s": wall_traced,
        "wall_untraced_s": wall_plain,
        "self_s_total": self_s,
        "spans_first_round": tracer.first_round,
    }
    (OUT_DIR / f"trace-{workload}-seed{seed}.json").write_text(json.dumps(trace_doc), encoding="utf-8")
    return runner, {
        "metrics": {k: (v, LAYER_UNITS[k.rsplit(".", 1)[1]]) for k, v in metrics.items()},
        "rounds": rounds,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "blaschke" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import blaschke

    OUT_DIR.mkdir(exist_ok=True)
    measure = traced_run if args.trace else timed_run
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        runner, info = measure(args.workload, args.seed, args.seconds, blaschke, Path(workdir))
    result = {
        "correct": runner.audit.ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in info.pop("metrics").items()},
    }
    detail = dict(result, **info, check_failures=runner.audit.failures, errors=runner.errors)
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    for line in runner.audit.failures + runner.errors:
        print(f"bench: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
