"""The four workloads: seeded inputs, the calls into blaschke, and their checks.

A workload is a function ``(rng, ctx) -> list[Task]`` that draws one round of
inputs.  ``Task.run`` makes the calls into the package and returns their
outputs; ``Task.check`` compares those outputs with the oracle afterwards,
outside the timed region.  Calls go through module attributes looked up at
call time (``ctx.pkg.decompose_auto``), so the traced run sees them.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Callable

import checks
import oracle

# Tasks per round at each degree.  Task time grows with degree, so sorted
# task times form one block per degree; the counts put the median and the
# 90th percentile inside a block (at least a third of it from either edge)
# instead of between two blocks, where they would jump between the two.
# The orbit median falls among the n = 14 tasks, whose times overlap those
# of n = 12 and 15; the n = 12 block alone has two modes.
# Composite degrees only: at a prime degree the only split is trivial.
ORBIT_TASKS = {4: 3, 6: 3, 8: 3, 9: 3, 10: 3, 12: 3, 14: 3, 15: 4, 16: 4, 18: 4, 20: 6}
# |alpha| <= 0.45 keeps n <= 20 inside the range where solve_unimodular_c
# returns every constant.
ORBIT_ALPHA_RANGE = (0.15, 0.45)
# Keyed by outer degree: products of degree 6 .. 27.
TRIPLED_TASKS = {2: 3, 3: 3, 4: 3, 5: 3, 6: 3, 7: 3, 8: 4, 9: 4}
# blaschke_preimages raises NonConvergence on a few random products of
# degree 23 and 24 (see CHANGES.md); none was seen up to degree 22.
PREIMAGE_DEGREES = range(4, 17)
COMPOSE_INNER_DEGREES = range(2, 6)
COMPOSE_OUTER_DEGREES = range(2, 9)
ZERO_RADIUS = 0.8
CHECK_POINTS = 12
CHECK_RADIUS = 0.9


@dataclass
class Task:
    run: Callable[[], Any]
    check: Callable[[checks.Audit, Any], None]


@dataclass
class Context:
    """What a workload needs besides its random stream."""

    pkg: Any  # the blaschke package
    points: tuple[complex, ...]  # seeded interior points for the checks
    cli: Callable[[list[str]], tuple[int, str]] | None = None  # runs one CLI command
    workdir: Path | None = None  # where the CLI session writes its files


def disk_point(rng: random.Random, r_min: float, r_max: float) -> complex:
    """A point uniform by area in the annulus r_min <= |z| <= r_max."""
    r = math.sqrt(rng.uniform(r_min * r_min, r_max * r_max))
    return cmath.rect(r, rng.uniform(-math.pi, math.pi))


def unimodular(rng: random.Random) -> complex:
    return cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def check_points(rng: random.Random) -> tuple[complex, ...]:
    return tuple(disk_point(rng, 0.0, CHECK_RADIUS) for _ in range(CHECK_POINTS))


def as_pair(product) -> tuple[complex, tuple[complex, ...]]:
    return product.constant, tuple(product.zeros)


def random_product(rng: random.Random, degree: int) -> tuple[complex, tuple[complex, ...]]:
    return unimodular(rng), tuple(disk_point(rng, 0.0, ZERO_RADIUS) for _ in range(degree))


def tripled_product(rng: random.Random, outer_degree: int):
    """A canonical outer o inner with a degree-3 inner; zeros shuffled."""
    a1, a2 = disk_point(rng, 0.1, ZERO_RADIUS), disk_point(rng, 0.1, ZERO_RADIUS)
    outer = [0j] + [disk_point(rng, 0.1, ZERO_RADIUS) for _ in range(outer_degree - 1)]
    zeros = oracle.tripled_zeros(a1, a2, outer)
    rng.shuffle(zeros)
    return 1.0 + 0j, tuple(zeros)


def paired_product(rng: random.Random, outer_degree: int):
    """A canonical outer o inner with inner z (z - a1)/(1 - conj(a1) z); zeros shuffled."""
    a1 = disk_point(rng, 0.1, ZERO_RADIUS)
    outer = [0j] + [disk_point(rng, 0.1, ZERO_RADIUS) for _ in range(outer_degree - 1)]
    zeros = oracle.paired_zeros(a1, outer)
    rng.shuffle(zeros)
    return 1.0 + 0j, tuple(zeros)


def poncelet_product(rng: random.Random):
    """Zeros 0, a1, a2, a3 = (a1 - a2)/(1 - conj(a1) a2), which meet the pairing
    condition a1 + conj(a1) a2 a3 = a2 + a3; kept 0.05 apart so the ellipse is
    nondegenerate.  Returns (a1, a2, a3, zeros in shuffled order)."""
    while True:
        a1, a2 = disk_point(rng, 0.1, 0.7), disk_point(rng, 0.1, 0.7)
        a3 = (a1 - a2) / (1.0 - a1.conjugate() * a2)
        pts = (0j, a1, a2, a3)
        if min(abs(p - q) for i, p in enumerate(pts) for q in pts[:i]) >= 0.05:
            break
    zeros = list(pts)
    rng.shuffle(zeros)
    return a1, a2, a3, tuple(zeros)


# --- invariant-orbits -------------------------------------------------------


def _orbit_run(pkg, alpha: complex, n: int, pick: float):
    solutions = pkg.solve_unimodular_c(alpha, n)
    c = solutions[int(pick * len(solutions))][0]
    product = pkg.construct_invariant_product(pkg.MoebiusTransform(c, alpha), n)
    groups = pkg.find_invariant_group(product)
    split = pkg.decompose_auto(product)
    return [s[0] for s in solutions], c, product, groups, split


def _orbit_check(alpha: complex, n: int, points, audit: checks.Audit, out) -> None:
    constants, c, product, groups, split = out
    product = as_pair(product)
    checks.check_constants(audit, abs(alpha), n, constants)
    checks.check_orbit_product(audit, c, alpha, n, product)
    checks.check_invariance(audit, product, c, alpha, points)
    audit.require(f"n={n}: no invariant group found", bool(groups))
    if groups:
        audit.require(f"n={n}: first group has order {groups[0].order}", groups[0].order == n)
        checks.check_generator_order(audit, groups[0].generator.c, groups[0].generator.alpha, n)
    checks.check_split(audit, product, as_pair(split.inner), as_pair(split.outer), points)


def invariant_orbits(rng: random.Random, ctx: Context) -> list[Task]:
    tasks = []
    for n, count in ORBIT_TASKS.items():
        for _ in range(count):
            alpha = disk_point(rng, *ORBIT_ALPHA_RANGE)
            pick = rng.random()
            tasks.append(Task(partial(_orbit_run, ctx.pkg, alpha, n, pick), partial(_orbit_check, alpha, n, ctx.points)))
    return tasks


# --- tripled-split ----------------------------------------------------------


def _split_check(product, points, audit: checks.Audit, split) -> None:
    checks.check_split(audit, product, as_pair(split.inner), as_pair(split.outer), points)


def tripled_split(rng: random.Random, ctx: Context) -> list[Task]:
    tasks = []
    for m, count in TRIPLED_TASKS.items():
        for _ in range(count):
            pair = tripled_product(rng, m)
            product = ctx.pkg.BlaschkeProduct(*pair)
            tasks.append(Task(partial(_decompose_auto, ctx.pkg, product), partial(_split_check, pair, ctx.points)))
    return tasks


def _decompose_auto(pkg, product):
    return pkg.decompose_auto(product)


# --- boundary-values --------------------------------------------------------


def _boundary_run(pkg, product, lam, inner, outer, p4, foci, a1, lam4):
    preimages = pkg.blaschke_preimages(product, lam)
    composed = pkg.blaschke_compose(outer, inner)
    ellipse = pkg.poncelet_ellipse(p4, foci)
    report = pkg.chord_concurrency(p4, a1, lam4)
    svg = pkg.render_svg(pkg.FigureSpec(p4, ellipse=ellipse, chord_lambdas=(lam4,)))
    return preimages, composed, ellipse, report, svg


def _boundary_check(product, lam, inner, outer, poncelet, lam4, points, audit: checks.Audit, out) -> None:
    preimages, composed, ellipse, report, svg = out
    a1, a2, a3, zeros4 = poncelet
    checks.check_preimages(audit, product, lam, preimages)
    checks.check_composition(audit, inner, outer, as_pair(composed), points)
    checks.check_poncelet_points(audit, a1, a2, lam4, report.preimages)
    checks.check_ellipse(audit, a2, a3, (ellipse.focus1, ellipse.focus2, ellipse.focal_sum), report.preimages)
    checks.check_diagonals(audit, a1, report.preimages, report.pairing)
    checks.check_svg(audit, svg, len(zeros4))


def boundary_values(rng: random.Random, ctx: Context) -> list[Task]:
    pkg = ctx.pkg
    tasks = []
    # 4 and 7 are coprime, so 28 tasks cover every (inner, outer) degree pair.
    count = len(COMPOSE_INNER_DEGREES) * len(COMPOSE_OUTER_DEGREES)
    for i in range(count):
        n = PREIMAGE_DEGREES[i % len(PREIMAGE_DEGREES)]
        product, lam = random_product(rng, n), unimodular(rng)
        inner = random_product(rng, COMPOSE_INNER_DEGREES[i % len(COMPOSE_INNER_DEGREES)])
        outer = random_product(rng, COMPOSE_OUTER_DEGREES[i % len(COMPOSE_OUTER_DEGREES)])
        poncelet = poncelet_product(rng)
        a1, a2, a3, zeros4 = poncelet
        foci = (zeros4.index(a2), zeros4.index(a3))
        lam4 = unimodular(rng)
        run = partial(
            _boundary_run, pkg, pkg.BlaschkeProduct(*product), lam, pkg.BlaschkeProduct(*inner),
            pkg.BlaschkeProduct(*outer), pkg.BlaschkeProduct(1.0, zeros4), foci, a1, lam4,
        )
        tasks.append(Task(run, partial(_boundary_check, product, lam, inner, outer, poncelet, lam4, ctx.points)))
    return tasks


# --- cli-session ------------------------------------------------------------


def _arg(z: complex) -> str:
    return f"{z.real!r},{z.imag!r}"


def _write(path: Path, product) -> str:
    constant, zeros = product
    doc = {"constant": [constant.real, constant.imag], "zeros": [[z.real, z.imag] for z in zeros]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def _product(doc) -> tuple[complex, tuple[complex, ...]]:
    return _complex(doc["constant"]), tuple(_complex(z) for z in doc["zeros"])


def _cli_check(argv, inspect, audit: checks.Audit, out) -> None:
    code, stdout = out
    audit.require(f"{argv[0]}: exit code {code}", code == 0)
    if code == 0:
        inspect(audit, json.loads(stdout) if stdout.strip() else None)


def _check_split_doc(product, points, audit, doc) -> None:
    checks.check_split(audit, product, _product(doc["inner"]), _product(doc["outer"]), points)


def _check_groups_doc(n, audit, doc) -> None:
    audit.require(f"invariants: {len(doc)} groups", bool(doc))
    if doc:
        audit.require(f"invariants: first group has order {doc[0]['order']}", doc[0]["order"] == n)
        gen = doc[0]["generator"]
        checks.check_generator_order(audit, _complex(gen["c"]), _complex(gen["alpha"]), n)


def _check_poncelet_doc(a2, a3, a1, lam4, audit, doc) -> None:
    points = oracle.poncelet_preimages(a1, a2, lam4)
    foci = [_complex(f) for f in doc["foci"]]
    checks.check_ellipse(audit, a2, a3, (foci[0], foci[1], doc["focal_sum"]), points)


def _check_preimages4_doc(a1, a2, lam4, audit, doc) -> None:
    points = [_complex(z) for z in doc]
    checks.check_poncelet_points(audit, a1, a2, lam4, points)
    checks.check_diagonals(audit, a1, points)


def _check_svg_file(path: Path, audit, doc) -> None:
    checks.check_svg(audit, path.read_text(encoding="utf-8"), 4)


def cli_session(rng: random.Random, ctx: Context) -> list[Task]:
    """One script of 15 CLI commands; each command is one task.

    With 15 equal blocks the median and the 90th percentile fall in the
    middle of the 8th and 14th commands' blocks.

    The inputs are JSON files the benchmark writes from oracle constructions:
    an orbit product, paired and tripled compositions, random factors for
    ``compose``, a random product for ``preimages`` and a degree-4 product
    meeting the ellipse condition.
    """
    d = ctx.workdir
    pts = ctx.points
    n = rng.choice((6, 8, 9, 10, 12))
    alpha = disk_point(rng, *ORBIT_ALPHA_RANGE)
    constants = oracle.orbit_constants(abs(alpha), n)
    c = constants[rng.randrange(len(constants))]
    orbit = (1.0 + 0j, tuple(oracle.orbit_of_zero(c, alpha, n)))
    paired = paired_product(rng, 4)
    tripled = tripled_product(rng, 3)
    inner, outer = random_product(rng, 3), random_product(rng, 4)
    rand, lam = random_product(rng, 12), unimodular(rng)
    a1, a2, a3, zeros4 = poncelet_product(rng)
    lam4 = unimodular(rng)
    f_orbit, f_paired, f_tripled = _write(d / "orbit.json", orbit), _write(d / "paired.json", paired), _write(d / "tripled.json", tripled)
    f_inner, f_outer, f_rand = _write(d / "inner.json", inner), _write(d / "outer.json", outer), _write(d / "random.json", rand)
    f_p4 = _write(d / "poncelet.json", (1.0 + 0j, zeros4))
    svg = d / "figure.svg"

    script: list[tuple[list[str], Callable]] = [
        (["solve-c", "--alpha", _arg(alpha), "--degree", str(n)],
         lambda audit, doc: checks.check_constants(audit, abs(alpha), n, [_complex(s["c"]) for s in doc])),
        (["construct", "--alpha", _arg(alpha), "--c", _arg(c), "--degree", str(n)],
         lambda audit, doc: checks.check_orbit_product(audit, c, alpha, n, _product(doc))),
        (["invariants", "--product", f_orbit], partial(_check_groups_doc, n)),
        (["verify", "--product", f_orbit, "--moebius", f"{_arg(c)},{_arg(alpha)}"],
         lambda audit, doc: audit.error("verify: reported residual", doc["max_residual"], checks.INVARIANCE_TOL)),
        (["decompose", "--product", f_orbit, "--method", "auto"], partial(_check_split_doc, orbit, pts)),
        (["decompose", "--product", f_orbit, "--method", "invariants"], partial(_check_split_doc, orbit, pts)),
        (["decompose", "--product", f_paired, "--method", "paired"], partial(_check_split_doc, paired, pts)),
        (["decompose", "--product", f_paired, "--method", "auto"], partial(_check_split_doc, paired, pts)),
        (["decompose", "--product", f_tripled, "--method", "tripled"], partial(_check_split_doc, tripled, pts)),
        (["decompose", "--product", f_tripled, "--method", "auto"], partial(_check_split_doc, tripled, pts)),
        (["compose", "--inner", f_inner, "--outer", f_outer],
         lambda audit, doc: checks.check_composition(audit, inner, outer, _product(doc), pts)),
        (["preimages", "--product", f_rand, "--lambda", _arg(lam)],
         lambda audit, doc: checks.check_preimages(audit, rand, lam, [_complex(z) for z in doc])),
        (["preimages", "--product", f_p4, "--lambda", _arg(lam4)], partial(_check_preimages4_doc, a1, a2, lam4)),
        (["poncelet", "--product", f_p4], partial(_check_poncelet_doc, a2, a3, a1, lam4)),
        (["plot", "--product", f_p4, "--ellipse", "--lambda", _arg(lam4), "--out", str(svg)],
         partial(_check_svg_file, svg)),
    ]
    return [Task(partial(ctx.cli, argv), partial(_cli_check, argv, inspect)) for argv, inspect in script]


WORKLOADS = {
    "invariant-orbits": invariant_orbits,
    "tripled-split": tripled_split,
    "boundary-values": boundary_values,
    "cli-session": cli_session,
}
