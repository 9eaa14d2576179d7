"""End-to-end tests of the command line interface and the SVG emitter."""

from __future__ import annotations

import cmath
import itertools
import json
import math
import random
import xml.etree.ElementTree as ET

import pytest

from blaschke import (
    BlaschkeProduct,
    FigureSpec,
    MoebiusTransform,
    construct_invariant_product,
    moebius_iterate_zero,
    poncelet_ellipse,
    render_svg,
    solve_unimodular_c,
)
from blaschke.cli import product_from_document, product_to_document, run
from conftest import multiset_close, random_product

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.fixture
def poncelet_doc(tmp_path):
    doc = {
        "constant": [1.0, 0.0],
        "zeros": [[0.0, 0.0], [2 / 3, 0.0], [0.5, -0.5], [0.5, 0.5]],
    }
    path = tmp_path / "poncelet.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def degree6_doc(tmp_path):
    doc = {
        "constant": [1.0, 0.0],
        "zeros": [[0.0, 0.0], [1.4803e-16, 0.0], [7.40149e-17, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]],
    }
    path = tmp_path / "degree6.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def test_document_round_trip():
    rng = random.Random(83)
    for _ in range(20):
        product = random_product(rng, rng.randint(1, 6), radius=0.97)
        doc = json.loads(json.dumps(product_to_document(product)))
        restored = product_from_document(doc)
        assert restored.constant == product.constant
        assert restored.zeros == product.zeros


def test_document_round_trip_awkward_floats():
    product = BlaschkeProduct(1.0, (complex(1 / 3, -1e-300), complex(0.1 + 0.2, 0.0)))
    doc = json.loads(json.dumps(product_to_document(product)))
    assert product_from_document(doc) == product


def test_solve_c_reference(capsys):
    out = run_json(capsys, ["solve-c", "--alpha", "0.5,0", "--degree", "5"])
    assert any(
        abs(complex(*item["c"]) - (-0.856763 - 0.515711j)) <= 1e-4 for item in out
    )
    for item in out:
        assert item["orbit"]["closes"] is True
        assert len(item["orbit"]["points"]) == 5


def test_solve_c_degree_60(capsys):
    out = run_json(capsys, ["solve-c", "--alpha", "0.5,0", "--degree", "60"])
    assert len(out) == 16
    assert all(item["orbit"]["closes"] for item in out)


def test_construct_and_verify(capsys, tmp_path):
    code = run(["construct", "--alpha", "0.5,0", "--c", "-0.856763,-0.515711",
                "--degree", "5", "--tol", "1e-5"])
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    path = tmp_path / "b5.json"
    path.write_text(json.dumps(doc))
    out = run_json(capsys, ["verify", "--product", str(path),
                            "--moebius", "-0.856763,-0.515711,0.5,0"])
    assert out["max_residual"] <= 1e-5


def test_construct_rejects_a_zero_constant(capsys):
    assert run(["construct", "--alpha", "0.5,0", "--c", "0,0", "--degree", "3"]) == 2
    assert "constant must be nonzero" in capsys.readouterr().err


def test_verify_defaults_to_the_deciding_sample_count(capsys, tmp_path):
    # degree + 1 extra points, 2n + 2 in all: enough to decide equality at
    # any degree, where a fixed count is refused once the degree reaches it.
    c, _ = solve_unimodular_c(0.3, 120)[0]
    product = construct_invariant_product(MoebiusTransform(c, 0.3), 120)
    path = tmp_path / "b120.json"
    path.write_text(json.dumps(product_to_document(product)))
    out = run_json(capsys, ["verify", "--product", str(path), "--moebius", f"{c.real!r},{c.imag!r},0.3,0"])
    assert out["max_residual"] <= 1e-10


def test_invariants_command(capsys, tmp_path):
    doc = {"constant": [1.0, 0.0], "zeros": [[0.0, 0.0]] * 4}
    path = tmp_path / "monomial.json"
    path.write_text(json.dumps(doc))
    out = run_json(capsys, ["invariants", "--product", str(path)])
    assert len(out) == 1
    assert out[0]["order"] == 4


def test_decompose_degree6(capsys, degree6_doc):
    out = run_json(capsys, ["decompose", "--product", degree6_doc])
    inner_zeros = [complex(*z) for z in out["inner"]["zeros"]]
    assert out["roundtrip_residual"] <= 1e-7
    assert out["source"] in ("invariants", "paired", "tripled")
    # The paired route pins the inner factor exactly.
    paired = run_json(capsys, ["decompose", "--product", degree6_doc, "--method", "paired"])
    inner_zeros = sorted((complex(*z) for z in paired["inner"]["zeros"]), key=abs)
    assert abs(inner_zeros[0]) <= 1e-12
    assert abs(inner_zeros[1] - 0.5) <= 1e-12
    assert paired["roundtrip_residual"] <= 1e-7


def test_decompose_method_invariants(capsys, degree6_doc):
    out = run_json(capsys, ["decompose", "--product", degree6_doc, "--method", "invariants"])
    assert out["source"] == "invariants"
    assert out["roundtrip_residual"] <= 1e-7
    inner_deg = len(out["inner"]["zeros"])
    outer_deg = len(out["outer"]["zeros"])
    assert inner_deg * outer_deg == 6


def test_decompose_method_tripled(capsys, tmp_path):
    import blaschke
    from conftest import exact_degree3_constant

    m = blaschke.MoebiusTransform(exact_degree3_constant(), 0.5)
    b = blaschke.construct_invariant_product(m, 6, distinct_tol=0.0)
    path = tmp_path / "tripled.json"
    path.write_text(json.dumps(product_to_document(b)))
    out = run_json(capsys, ["decompose", "--product", str(path), "--method", "tripled"])
    assert out["source"] == "tripled"
    assert out["roundtrip_residual"] <= 1e-7


def test_decompose_auto_through_inner_degree_4(capsys, tmp_path):
    import blaschke

    inner = blaschke.BlaschkeProduct(1.0, (0j, 0.3 + 0.4j, -0.5 + 0.1j, 0.2 - 0.6j))
    composed = blaschke.blaschke_compose(blaschke.BlaschkeProduct(1.0, (0j, 0.4 - 0.3j)), inner)
    path = tmp_path / "composed8.json"
    path.write_text(json.dumps(product_to_document(blaschke.BlaschkeProduct(1.0, composed.zeros))))
    out = run_json(capsys, ["decompose", "--product", str(path)])
    assert out["source"] == "fibers"
    assert (len(out["inner"]["zeros"]), len(out["outer"]["zeros"])) == (4, 2)
    assert out["roundtrip_residual"] <= 1e-7


def test_construct_rejects_open_orbit(capsys):
    code = run(["construct", "--alpha", "0.5,0", "--c", "1,0", "--degree", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "OrbitNotClosed"


def test_construct_loose_tol_checks_every_pair(capsys):
    # With --tol 0.5 an orbit may close loosely; it is refused as degenerate
    # exactly when some pair of its points, neighbours or not, is closer
    # than 0.5.
    rng = random.Random(1)
    codes = set()
    for _ in range(80):
        n = rng.randint(3, 12)
        alpha = complex(round(rng.uniform(-0.6, 0.6), 3), round(rng.uniform(-0.6, 0.6), 3))
        c = cmath.exp(1j * round(rng.uniform(-3.14, 3.14), 3))
        orbit = moebius_iterate_zero(MoebiusTransform(c / abs(c), alpha), n, 0.5)
        if not orbit.closes:
            continue
        gap = min(abs(p - q) for p, q in itertools.combinations(orbit.points, 2))
        assert orbit.min_pairwise_gap == gap
        code = run(["construct", "--alpha", f"{alpha.real!r},{alpha.imag!r}",
                    "--c", f"{c.real!r},{c.imag!r}", "--degree", str(n), "--tol", "0.5"])
        captured = capsys.readouterr()
        if gap < 0.5:
            assert code == 1 and json.loads(captured.err)["error"] == "OrbitDegenerate"
        else:
            assert code == 0 and len(json.loads(captured.out)["zeros"]) == n
        codes.add(code)
    assert codes == {0, 1}


def test_compose_command(capsys, tmp_path):
    inner = {"constant": [1.0, 0.0], "zeros": [[0.0, 0.0], [2 / 3, 0.0]]}
    outer = {"constant": [1.0, 0.0], "zeros": [[0.0, 0.0], [0.0, 0.0]]}
    inner_path = tmp_path / "inner.json"
    outer_path = tmp_path / "outer.json"
    inner_path.write_text(json.dumps(inner))
    outer_path.write_text(json.dumps(outer))
    out = run_json(capsys, ["compose", "--inner", str(inner_path), "--outer", str(outer_path)])
    zeros = sorted((complex(*z) for z in out["zeros"]), key=abs)
    assert abs(zeros[0]) <= 1e-9 and abs(zeros[1]) <= 1e-9
    assert abs(zeros[2] - 2 / 3) <= 1e-9 and abs(zeros[3] - 2 / 3) <= 1e-9


def test_preimages_command(capsys, poncelet_doc):
    out = run_json(capsys, ["preimages", "--product", poncelet_doc, "--lambda", "1,0"])
    assert len(out) == 4
    for z in out:
        assert abs(abs(complex(*z)) - 1.0) <= 1e-12


def test_poncelet_command(capsys, poncelet_doc):
    out = run_json(capsys, ["poncelet", "--product", poncelet_doc])
    foci = sorted((complex(*f) for f in out["foci"]), key=lambda z: z.imag)
    assert foci == [(0.5 - 0.5j), (0.5 + 0.5j)]
    assert abs(out["focal_sum"] - math.sqrt(5 / 3)) <= 1e-12


def test_stdin_product(capsys, monkeypatch):
    import io

    doc = {"constant": [1.0, 0.0], "zeros": [[0.0, 0.0], [0.0, 0.0]]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    out = run_json(capsys, ["preimages", "--product", "-", "--lambda", "0,1"])
    assert len(out) == 2


def test_domain_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = run(["preimages", "--product", str(path), "--lambda", "1,0"])
    captured = capsys.readouterr()
    assert code == 1
    err = json.loads(captured.err)
    assert err["error"] == "BadShape"
    assert "detail" in err


def assert_error_exit(capsys, argv, error):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == error
    assert captured.out == ""


@pytest.mark.parametrize("missing, error", [(True, "FileNotFoundError"), (False, "IsADirectoryError")])
def test_unreadable_input_file(capsys, tmp_path, poncelet_doc, missing, error):
    bad = str(tmp_path / "absent.json") if missing else str(tmp_path)
    assert_error_exit(capsys, ["preimages", "--product", bad, "--lambda", "1,0"], error)
    assert_error_exit(capsys, ["compose", "--inner", bad, "--outer", poncelet_doc], error)
    assert_error_exit(capsys, ["compose", "--inner", poncelet_doc, "--outer", bad], error)


@pytest.mark.parametrize("missing, error", [(True, "FileNotFoundError"), (False, "IsADirectoryError")])
def test_unwritable_plot_out(capsys, tmp_path, poncelet_doc, missing, error):
    out = str(tmp_path / "absent" / "figure.svg") if missing else str(tmp_path)
    assert_error_exit(capsys, ["plot", "--product", poncelet_doc, "--out", out], error)


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_invariants_rejects_negative_or_nan_tol(capsys, tmp_path, tol):
    c = solve_unimodular_c(0.5, 6)[0][0]
    path = tmp_path / "orbit6.json"
    path.write_text(json.dumps(product_to_document(construct_invariant_product(MoebiusTransform(c, 0.5), 6))))
    assert run_json(capsys, ["invariants", "--product", str(path)])[0]["order"] == 6
    assert_error_exit(capsys, ["invariants", "--product", str(path), "--tol", tol], "ValueError")
    assert_error_exit(capsys, ["solve-c", "--alpha", "0.5,0", "--degree", "6", "--tol", tol], "ValueError")


@pytest.mark.parametrize("tol", ["-1", "nan"])
def test_construct_rejects_negative_or_nan_tol(capsys, tol):
    c = solve_unimodular_c(0.5, 3)[0][0]
    args = ["construct", "--alpha", "0.5,0", "--c", f"{c.real!r},{c.imag!r}", "--degree", "3"]
    assert len(run_json(capsys, args)["zeros"]) == 3
    assert_error_exit(capsys, args + ["--tol", tol], "ValueError")


def test_condition_error_exit_code(capsys, tmp_path):
    doc = {"constant": [1.0, 0.0], "zeros": [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]}
    path = tmp_path / "generic.json"
    path.write_text(json.dumps(doc))
    code = run(["poncelet", "--product", str(path)])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "ConditionsUnsatisfied"


def test_decompose_paired_search_error_name(capsys, tmp_path):
    # Not canonical: no paired split exists, which is not a shape error.
    doc = {"constant": [1.0, 0.0], "zeros": [[0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.4, 0.0]]}
    path = tmp_path / "noncanonical.json"
    path.write_text(json.dumps(doc))
    code = run(["decompose", "--product", str(path), "--method", "paired"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "ConditionsUnsatisfied"


@pytest.mark.parametrize("n", [5, 7, 11])
def test_decompose_invariants_prime_degree_fails(capsys, tmp_path, n):
    c = run_json(capsys, ["solve-c", "--alpha", "0.5,0", "--degree", str(n)])[0]["c"]
    product = run_json(
        capsys, ["construct", "--alpha", "0.5,0", "--c", f"{c[0]!r},{c[1]!r}", "--degree", str(n)]
    )
    path = tmp_path / "prime.json"
    path.write_text(json.dumps(product))
    code = run(["decompose", "--product", str(path), "--method", "invariants"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "DecompositionError"


def test_decompose_auto_rejects_trivial_split(capsys, tmp_path):
    # Degree 2 factors only as (degree-1 outer) ∘ B itself.
    doc = {"constant": [1.0, 0.0], "zeros": [[0.0, 0.0], [0.3, 0.1]]}
    path = tmp_path / "degree2.json"
    path.write_text(json.dumps(doc))
    code = run(["decompose", "--product", str(path), "--method", "auto"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "DecompositionError"


def test_decompose_paired_with_a1_index(capsys, poncelet_doc):
    out = run_json(capsys, ["decompose", "--product", poncelet_doc, "--method", "paired", "--a1-index", "1"])
    assert out["source"] == "paired"
    assert multiset_close([complex(*z) for z in out["inner"]["zeros"]], [0, 2 / 3], 1e-12)
    assert out["roundtrip_residual"] <= 1e-12


def test_decompose_a1_index_needs_paired_method(capsys, degree6_doc):
    code = run(["decompose", "--product", degree6_doc, "--method", "auto", "--a1-index", "99"])
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err)["error"] == "BadShape"


def test_decompose_refuses_tol(capsys, degree6_doc):
    # The round trip alone accepts a split, so no method takes a tolerance.
    for method in ("auto", "invariants", "paired", "tripled"):
        assert run(["decompose", "--product", degree6_doc, "--method", method, "--tol", "1e-3"]) == 2
        assert "--tol" in capsys.readouterr().err
    assert run(["decompose", "--product", degree6_doc, "--method", "invariants"]) == 0
    capsys.readouterr()


def test_usage_error_exit_code(capsys):
    assert run(["solve-c", "--degree", "5"]) == 2
    capsys.readouterr()
    assert run(["solve-c", "--alpha", "bogus", "--degree", "5"]) == 2
    capsys.readouterr()
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_verify_rejects_a_short_moebius_argument(capsys, poncelet_doc):
    assert run(["verify", "--product", poncelet_doc, "--moebius", "1,0,0"]) == 2
    assert "CRE,CIM,ARE,AIM" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc", [{"constant": [1.0, 0.0]}, {"constant": [1.0, 0.0], "zeros": [[0.0, 0.0], [1.5, 0.0]]}]
)
def test_malformed_product_document(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert_error_exit(capsys, ["preimages", "--product", str(path), "--lambda", "1,0"], "BadShape")


def test_plot_svg_structure(capsys, poncelet_doc, tmp_path):
    out_path = tmp_path / "figure.svg"
    code = run(["plot", "--product", poncelet_doc, "--ellipse", "--lambda", "1,0",
                "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    text = out_path.read_text()
    root = ET.fromstring(text)  # well-formed XML
    assert root.tag == f"{SVG_NS}svg"

    ellipses = root.findall(f".//{SVG_NS}ellipse")
    assert len(ellipses) == 1
    ellipse = ellipses[0]
    # Canvas 640: center of the disk maps to (320, 320) with scale 288.
    # The ellipse center (a2 + a3)/2 = 0.5 lands at x = 320 + 144.
    assert abs(float(ellipse.get("cx")) - 464.0) <= 1e-6
    assert abs(float(ellipse.get("cy")) - 320.0) <= 1e-6
    expected_rx = math.sqrt(5 / 3) / 2 * 288
    assert abs(float(ellipse.get("rx")) - expected_rx) <= 1e-2
    half_focal = 0.5
    expected_ry = math.sqrt((math.sqrt(5 / 3) / 2) ** 2 - half_focal**2) * 288
    assert abs(float(ellipse.get("ry")) - expected_ry) <= 1e-2

    circles = root.findall(f".//{SVG_NS}circle")
    unit = [c for c in circles if c.get("class") == "unit-circle"]
    assert len(unit) == 1
    assert abs(float(unit[0].get("r")) - 288.0) <= 1e-6
    zeros = [c for c in circles if c.get("class") == "zero"]
    assert len(zeros) == 4

    chords = [l for l in root.findall(f".//{SVG_NS}line") if l.get("class") == "chord"]
    assert len(chords) == 2

    assert "http" not in text.replace("http://www.w3.org/2000/svg", "")


def test_plot_deterministic(capsys, poncelet_doc, tmp_path):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    for target in (first, second):
        assert run(["plot", "--product", poncelet_doc, "--ellipse", "--lambda", "0,1",
                    "--out", str(target)]) == 0
        capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("canvas", ["-5", "0", "wide"])
def test_plot_rejects_nonpositive_canvas(capsys, poncelet_doc, tmp_path, canvas):
    out_path = tmp_path / "figure.svg"
    code = run(["plot", "--product", poncelet_doc, "--canvas", canvas, "--out", str(out_path)])
    capsys.readouterr()
    assert code == 2
    assert not out_path.exists()


def test_plot_to_stdout(capsys, poncelet_doc):
    assert run(["plot", "--product", poncelet_doc, "--out", "-", "--canvas", "320"]) == 0
    root = ET.fromstring(capsys.readouterr().out)
    assert root.tag == f"{SVG_NS}svg"
    assert root.get("width") == root.get("height") == "320"


def test_plot_orbit_overlay(capsys, tmp_path):
    doc = {"constant": [1.0, 0.0], "zeros": [[0.0, 0.0], [0.5, 0.0]]}
    path = tmp_path / "b2.json"
    path.write_text(json.dumps(doc))
    out_path = tmp_path / "orbit.svg"
    code = run(["plot", "--product", str(path), "--moebius", "-1,0,0.5,0",
                "--out", str(out_path)])
    capsys.readouterr()
    assert code == 0
    root = ET.fromstring(out_path.read_text())
    orbit_points = [c for c in root.findall(f".//{SVG_NS}circle") if c.get("class") == "orbit-point"]
    assert len(orbit_points) == 2


def test_render_spec_directly(poncelet_product):
    ell = poncelet_ellipse(poncelet_product, (2, 3))
    spec = FigureSpec(product=poncelet_product, ellipse=ell, chord_lambdas=(1.0 + 0j,))
    text = render_svg(spec)
    ET.fromstring(text)
    assert text.startswith("<?xml")
