"""Interleaved A/B timing of two checkouts of the package on one benchmark workload.

    python3 tools/interleave.py OLD NEW --workload W --rounds R --reps K [--seed S]

OLD and NEW are checkouts (directories holding ``src/blaschke``).  Both
package trees are copied into a temporary directory under distinct names
and loaded into this one process.  The benchmark's own workloads and
inputs come from ``bench/run.py`` and ``bench/workloads.py`` of the
checkout that holds this script, imported without writing bytecode, so
nothing is written under ``bench/``.

Each pass draws R fresh rounds from the seed, as ``bench/run.py`` does, and
runs every task once on each tree, the two runs back to back, with the
order flipped from task to task and from pass to pass.  K passes draw K R
rounds in all, so no input repeats and no memo in either tree can serve a
later task.  Machine drift then hits both trees alike, which separate
benchmark runs cannot offer.  The CLI session calls each tree's
``cli.run`` in this process, so it times the commands without interpreter
start-up.

Every task runs through the benchmark's own ``run.Runner``, one per tree,
so a task that raises is counted as a failed operation, as in a benchmark
run, and its time is left out.  Round 0 is an untimed warm-up.  Prints the
NEW / OLD ratios of the median task time, the 90th percentile and the total
task time (below 1 means NEW is faster), the total-time ratio of each pass,
and, warm-up included, how many task outputs differ in ``repr`` between the
trees, how many operations failed and how many checks failed in each.
Running a checkout against itself shows the noise floor of the ratios.
Exits 1 if a tree timed fewer than two tasks.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import math
import shutil
import statistics
import sys
import tempfile
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
NAMES = ("blaschke_old", "blaschke_new")


def load_trees(roots: list[Path], into: Path) -> list:
    """Each checkout's ``src/blaschke`` as a package of its own name, copied to ``into``."""
    packages = []
    for root, name in zip(roots, NAMES):
        tree = root / "src" / "blaschke"
        if not (tree / "__init__.py").is_file():
            raise SystemExit(f"interleave: no package under {tree}")
        shutil.copytree(tree, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(into))
    for name in NAMES:
        packages.append(importlib.import_module(name))
    return packages


class Recorded:
    """A benchmark task that keeps its output for the ``repr`` comparison; None if it raised."""

    def __init__(self, task) -> None:
        self.task, self.output = task, None

    def run(self):
        self.output = self.task.run()
        return self.output

    def check(self, audit, output) -> None:
        self.task.check(audit, output)


def inprocess_cli(pkg, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pkg.cli.run(argv)
    return code, out.getvalue()


def quantile(values: list[float], q: int) -> float:
    return statistics.median(values) if q == 50 else statistics.quantiles(values, n=10)[q // 10 - 1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", type=Path, help="checkout timed as the baseline")
    parser.add_argument("new", type=Path, help="checkout compared against it")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=5, help="fresh rounds per pass")
    parser.add_argument("--reps", type=int, default=4, help="passes")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.reps < 1:
        parser.error("--rounds and --reps must be positive")

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    import run
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        packages = load_trees([args.old.resolve(), args.new.resolve()], tmp)
        contexts = []
        for pkg in packages:
            workdir = tmp / f"work-{pkg.__name__}"
            workdir.mkdir()
            cli = partial(inprocess_cli, pkg) if args.workload == "cli-session" else None
            contexts.append(run.make_context(pkg, args.seed, cli, workdir))
        # Round 0 warms both trees up, untimed; its outputs are compared too.
        runners = [run.Runner(), run.Runner()]
        warm = [[Recorded(task) for task in run.make_round(args.workload, args.seed, 0, ctx)] for ctx in contexts]
        for runner, tasks in zip(runners, warm):
            runner.round(tasks)
        differ = sum(repr(old.output) != repr(new.output) for old, new in zip(*warm))

        times: list[list[float]] = [[], []]
        pass_ratios = []
        for rep in range(args.reps):
            totals = [0.0, 0.0]
            for r in range(args.rounds):
                k = 1 + rep * args.rounds + r
                rounds = [run.make_round(args.workload, args.seed, k, ctx) for ctx in contexts]
                for i, pair in enumerate(zip(*rounds)):
                    pair = [Recorded(task) for task in pair]
                    for side in (0, 1) if (i + rep) % 2 == 0 else (1, 0):
                        elapsed = runners[side].round([pair[side]])[0]
                        times[side] += elapsed
                        totals[side] += sum(elapsed)
                    differ += repr(pair[0].output) != repr(pair[1].output)
            pass_ratios.append(totals[1] / totals[0] if totals[0] else math.nan)

    old, new = times
    print(f"workload {args.workload}, seed {args.seed}: {args.reps} passes x {args.rounds} rounds, "
          f"{len(old)} and {len(new)} tasks timed")
    timed = len(old) >= 2 and len(new) >= 2
    if timed:
        for q in (50, 90):
            print(f"p{q}: {quantile(old, q) * 1e3:.4f} -> {quantile(new, q) * 1e3:.4f} ms, "
                  f"ratio {quantile(new, q) / quantile(old, q):.3f}")
        print(f"total: {sum(old):.3f} -> {sum(new):.3f} s, ratio {sum(new) / sum(old):.3f}")
        print("total ratio per pass: " + " ".join(f"{x:.3f}" for x in pass_ratios))
    print(f"outputs differing in repr: {differ}; failed operations: old {runners[0].failed}, "
          f"new {runners[1].failed}; failed checks: old {runners[0].audit.failed}, new {runners[1].audit.failed}")
    for name, runner in zip(("old", "new"), runners):
        for line in runner.audit.failures + runner.errors:
            print(f"interleave: {name}: {line}", file=sys.stderr)
    return 0 if timed else 1


if __name__ == "__main__":
    sys.exit(main())
