"""Start-up footprint of the package and the CLI, each in a fresh interpreter.

``import blaschke`` loads none of the package's modules, a CLI command loads
only the modules it runs, and nothing loads ``dataclasses``.  The lazy
package namespace still resolves every public name and submodule.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import blaschke
from blaschke import BlaschkeProduct, MoebiusTransform, construct_invariant_product, solve_unimodular_c
from blaschke.cli import product_to_document

SRC = Path(__file__).resolve().parent.parent / "src"
SUBCOMMANDS = ("solve-c", "construct", "invariants", "verify", "decompose", "compose", "preimages", "poncelet", "plot")
# Runs one command through blaschke.cli.run and prints its exit code and the
# package modules (and dataclasses) that the import and the command loaded.
PROBE = """
import contextlib, io, json, sys
before = set(sys.modules)
import blaschke.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = blaschke.cli.run(json.loads(sys.argv[1]))
new = set(sys.modules) - before
print(json.dumps([code, sorted(m for m in new if m.startswith("blaschke.") or m == "dataclasses")]))
"""
BASE = {"blaschke.cli", "blaschke.errors", "blaschke.moebius"}
START = BASE | {"blaschke.products"}
DECOMPOSE = START | {"blaschke.decompose", "blaschke.invariants"}
PLOT = DECOMPOSE | {"blaschke.poncelet", "blaschke.figures"}


def python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)


@pytest.fixture
def docs(tmp_path):
    c = solve_unimodular_c(0.5, 4)[0][0]
    products = {
        "b4": construct_invariant_product(MoebiusTransform(c, 0.5), 4),
        "poncelet": BlaschkeProduct(1.0, (0j, 2 / 3, (1 - 1j) / 2, (1 + 1j) / 2)),
        "inner": BlaschkeProduct(1.0, (0j, 0.3)),
        "outer": BlaschkeProduct(1.0, (0j, -0.2j)),
    }
    paths = {"c": f"{c.real!r},{c.imag!r}", "out": str(tmp_path / "figure.svg")}
    for name, product in products.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(product_to_document(product)), encoding="utf-8")
    return paths


CASES = [
    ("solve-c --alpha 0.5,0 --degree 5", BASE),
    ("construct --alpha 0.5,0 --c {c} --degree 4", START | {"blaschke.invariants"}),
    ("invariants --product {b4}", START | {"blaschke.invariants"}),
    ("verify --product {b4} --moebius {c},0.5,0", START | {"blaschke.invariants"}),
    ("decompose --product {b4}", DECOMPOSE),
    ("decompose --product {b4} --method invariants", DECOMPOSE),
    ("compose --inner {inner} --outer {outer}", START),
    ("preimages --product {poncelet} --lambda 1,0", START),
    ("poncelet --product {poncelet}", DECOMPOSE | {"blaschke.poncelet"}),
    ("plot --product {poncelet} --ellipse --lambda 1,0 --out {out}", PLOT),
]


def test_cases_cover_every_subcommand():
    assert {case.split()[0] for case, _ in CASES} == set(SUBCOMMANDS)


def test_import_loads_no_module():
    proc = python("-c", "import sys; before = set(sys.modules); import blaschke; print(*set(sys.modules) - before)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["blaschke"]


@pytest.mark.parametrize("command, expected", CASES, ids=[case.split()[0] for case, _ in CASES])
def test_command_loads_only_its_modules(docs, command, expected):
    argv = command.format(**docs).split()
    proc = python("-c", PROBE, json.dumps(argv))
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout)
    assert code == 0, proc.stderr
    assert set(loaded) == expected


@pytest.mark.parametrize("sub", [None, *SUBCOMMANDS])
def test_help_exits_zero(sub):
    proc = python("-m", "blaschke.cli", *filter(None, [sub]), "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: blaschke")


def test_no_arguments_is_a_usage_error():
    proc = python("-m", "blaschke.cli")
    assert proc.returncode == 2
    assert "usage: blaschke" in proc.stderr


# The public names, by the module that defines each.
HOMES = {
    "decompose": """Decomposition DecompositionSource StructuredZeroConditions check_paired_conditions_2n
        check_tripled_conditions_3n decompose_auto decompose_invariants_search decompose_paired_2n
        decompose_paired_search decompose_tripled_3n decompose_via_invariants roundtrip_residual""",
    "errors": """BadShape BlaschkeError ConditionsUnsatisfied DecompositionError DomainError NoConcurrentPairing
        NoInteriorFixedPoint NoIntersection NondegeneracyError NonConvergence NormalizationError NoSolution
        OrbitDegenerate OrbitNotClosed""",
    "figures": "FigureSpec render_svg",
    "invariants": "InvariantGroup construct_invariant_product find_invariant_group verify_invariance",
    "moebius": """IDENTITY MoebiusTransform OrbitReport closure_polynomial moebius_compose moebius_eval
        moebius_fixed_point_in_disk moebius_inverse moebius_iterate_zero moebius_order moebius_power
        solve_unimodular_c""",
    "numerics": "ComplexPolynomial poly_eval poly_roots",
    "poncelet": """ChordConcurrencyReport PonceletEllipse chord_concurrency circle_through_pole_property
        find_poncelet_ellipse line_through_a1_property poncelet_ellipse""",
    "products": "BlaschkeProduct blaschke_compose blaschke_equal blaschke_eval blaschke_preimages is_canonical",
}


def test_all_names_resolve_to_their_home_objects():
    homes = {name: module for module, names in HOMES.items() for name in names.split()}
    assert len(homes) == 60 and sorted(blaschke.__all__) == sorted(homes)
    for name, module in homes.items():
        home = importlib.import_module(f"blaschke.{module}")
        value = getattr(blaschke, name)
        # Defined there, not only imported: classes and functions name it as their module.
        assert value is getattr(home, name) and value.__module__ == home.__name__, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'blaschke' has no attribute 'no_such_name'$"):
        blaschke.no_such_name


def test_namespace_in_a_fresh_interpreter():
    script = """
import blaschke
assert blaschke.products.blaschke_eval(blaschke.products.BlaschkeProduct(1.0, (0j,)), 0.5) == 0.5
assert blaschke.numerics.poly_roots(blaschke.numerics.ComplexPolynomial([-1.0, 1.0])) == [1.0]
assert set(blaschke.__all__) <= set(dir(blaschke)) and "cli" in dir(blaschke)
namespace = {}
exec("from blaschke import *", namespace)
assert set(blaschke.__all__) <= set(namespace) and namespace["IDENTITY"] is blaschke.moebius.IDENTITY
"""
    proc = python("-c", script)
    assert proc.returncode == 0, proc.stderr
