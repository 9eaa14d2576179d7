"""Command line front end with JSON input/output and an SVG plotter.

Every subcommand maps onto one public library operation.  Domain errors and
files that cannot be read or written are reported as a machine-readable
``{"error", "detail"}`` object on stderr with exit code 1; argument parsing
failures exit with code 2.  The module loads only what parsing needs; each
handler imports the modules that it runs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Sequence

from .errors import BadShape, BlaschkeError
from .moebius import (
    GROUP_MATCH_TOL,
    ORBIT_CLOSURE_TOL,
    ORBIT_DISTINCT_TOL,
    MoebiusTransform,
    moebius_iterate_zero,
    solve_unimodular_c,
)

if TYPE_CHECKING:
    from .products import BlaschkeProduct


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def product_to_document(product: BlaschkeProduct) -> dict[str, Any]:
    """JSON-ready document; floats round-trip exactly through repr."""
    return {"constant": _pair(product.constant), "zeros": [_pair(z) for z in product.zeros]}


def product_from_document(doc: Any) -> BlaschkeProduct:
    from .products import BlaschkeProduct

    try:
        constant = complex(doc["constant"][0], doc["constant"][1])
        zeros = tuple(complex(z[0], z[1]) for z in doc["zeros"])
    except (KeyError, TypeError, IndexError) as exc:
        raise BadShape(f"malformed product document: {exc}") from exc
    try:
        return BlaschkeProduct(constant, zeros)
    except ValueError as exc:
        raise BadShape(str(exc)) from exc


def _orbit_document(orbit) -> dict[str, Any]:
    return {
        "points": [_pair(p) for p in orbit.points],
        "closes": orbit.closes,
        "min_pairwise_gap": orbit.min_pairwise_gap,
    }


def _complex_arg(text: str) -> complex:
    try:
        re_part, im_part = text.split(",")
        return complex(float(re_part), float(im_part))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected RE,IM but got {text!r}") from exc


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer but got {text!r}")
    return int(text)


def _unit(c: complex) -> complex:
    if c == 0:
        raise argparse.ArgumentTypeError("constant must be nonzero")
    return c / abs(c)


def _unit_arg(text: str) -> complex:
    return _unit(_complex_arg(text))


def _moebius_arg(text: str) -> MoebiusTransform:
    try:
        cre, cim, are, aim = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected CRE,CIM,ARE,AIM but got {text!r}") from exc
    return MoebiusTransform(_unit(complex(cre, cim)), complex(are, aim))


def _read_document(path: str) -> Any:
    data = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise BadShape(f"invalid JSON in {path!r}: {exc}") from exc


def _read_product(path: str) -> BlaschkeProduct:
    return product_from_document(_read_document(path))


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that treats tokens like ``-0.8,-0.5`` as values."""

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d)")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blaschke",
        description="Construct, analyze and decompose finite Blaschke products of the unit disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve-c", help="unimodular constants closing the orbit of 0")
    p.add_argument("--alpha", type=_complex_arg, required=True, metavar="RE,IM")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--tol", type=float, default=ORBIT_DISTINCT_TOL, help="orbit distinctness tolerance")

    p = sub.add_parser("construct", help="invariant product from an orbit of 0")
    p.add_argument("--alpha", type=_complex_arg, required=True, metavar="RE,IM")
    p.add_argument("--c", type=_unit_arg, required=True, metavar="RE,IM",
                   help="unimodular constant (projected onto the circle)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--tol", type=float, default=ORBIT_DISTINCT_TOL,
                   help="orbit closure and distinctness tolerance")

    p = sub.add_parser("invariants", help="invariant group of a product (a list of at most one)")
    p.add_argument("--product", required=True, metavar="FILE")
    p.add_argument("--tol", type=float, default=GROUP_MATCH_TOL)

    p = sub.add_parser("verify", help="max residual of B(M(z)) - B(z)")
    p.add_argument("--product", required=True, metavar="FILE")
    p.add_argument("--moebius", type=_moebius_arg, required=True, metavar="CRE,CIM,ARE,AIM")
    p.add_argument("--samples", type=int, help="extra points on the circle (default: degree + 1)")

    p = sub.add_parser("decompose", help="split a product into a composition")
    p.add_argument("--product", required=True, metavar="FILE")
    p.add_argument("--method", choices=("auto", "invariants", "paired", "tripled"), default="auto",
                   help="auto: the smallest proper divisor d of the degree with a degree-d inner factor")
    p.add_argument("--a1-index", type=int, default=None)

    p = sub.add_parser("compose", help="composition outer ∘ inner of two products")
    p.add_argument("--inner", required=True, metavar="FILE")
    p.add_argument("--outer", required=True, metavar="FILE")

    p = sub.add_parser("preimages", help="boundary solutions of B(z) = lambda")
    p.add_argument("--product", required=True, metavar="FILE")
    p.add_argument("--lambda", dest="lam", type=_complex_arg, required=True, metavar="RE,IM")

    p = sub.add_parser("poncelet", help="inscribed ellipse of a degree-4 product")
    p.add_argument("--product", required=True, metavar="FILE")
    p.add_argument("--a1-index", type=int, default=None)

    p = sub.add_parser("plot", help="render zeros and overlays to SVG")
    p.add_argument("--product", required=True, metavar="FILE")
    p.add_argument("--lambda", dest="lams", type=_complex_arg, action="append", default=[],
                   metavar="RE,IM", help="draw the preimage chord family (repeatable)")
    p.add_argument("--ellipse", action="store_true", help="overlay the inscribed ellipse")
    p.add_argument("--moebius", type=_moebius_arg, default=None, metavar="CRE,CIM,ARE,AIM",
                   help="overlay the orbit of 0 under this transformation")
    p.add_argument("--canvas", type=_positive_int, default=640)
    p.add_argument("--out", required=True, metavar="FILE.svg")

    return parser


def _cmd_solve_c(args) -> Any:
    solutions = solve_unimodular_c(args.alpha, args.degree, args.tol)
    return [{"c": _pair(c), "orbit": _orbit_document(orbit)} for c, orbit in solutions]


def _cmd_construct(args) -> Any:
    from .invariants import construct_invariant_product

    m = MoebiusTransform(args.c, args.alpha)
    product = construct_invariant_product(
        m, args.degree, distinct_tol=args.tol, closure_tol=max(args.tol, ORBIT_CLOSURE_TOL)
    )
    return product_to_document(product)


def _cmd_invariants(args) -> Any:
    from .invariants import find_invariant_group

    product = _read_product(args.product)
    groups = find_invariant_group(product, args.tol)
    return [
        {"generator": {"c": _pair(g.generator.c), "alpha": _pair(g.generator.alpha)},
         "order": g.order}
        for g in groups
    ]


def _cmd_verify(args) -> Any:
    from .invariants import verify_invariance

    product = _read_product(args.product)
    samples = product.degree + 1 if args.samples is None else args.samples
    return {"max_residual": verify_invariance(product, args.moebius, samples)}


def _cmd_decompose(args) -> Any:
    from . import decompose

    if args.a1_index is not None and args.method != "paired":
        raise BadShape("--a1-index applies only to --method paired")
    product = _read_product(args.product)
    if args.method == "auto":
        dec = decompose.decompose_auto(product)
    elif args.method == "invariants":
        dec = decompose.decompose_invariants_search(product)
    elif args.method == "paired":
        if args.a1_index is not None:
            dec = decompose.decompose_paired_2n(product, args.a1_index)
        else:
            dec = decompose.decompose_paired_search(product)
    else:
        dec = decompose.decompose_tripled_3n(product)
    return {
        "inner": product_to_document(dec.inner),
        "outer": product_to_document(dec.outer),
        "source": dec.source.value,
        "roundtrip_residual": decompose.roundtrip_residual(dec, product),
    }


def _cmd_compose(args) -> Any:
    from .products import blaschke_compose

    inner = _read_product(args.inner)
    outer = _read_product(args.outer)
    return product_to_document(blaschke_compose(outer, inner))


def _cmd_preimages(args) -> Any:
    from .products import blaschke_preimages

    product = _read_product(args.product)
    return [_pair(z) for z in blaschke_preimages(product, args.lam)]


def _cmd_poncelet(args) -> Any:
    from .poncelet import find_poncelet_ellipse

    product = _read_product(args.product)
    ellipse = find_poncelet_ellipse(product, args.a1_index)
    return {
        "foci": [_pair(ellipse.focus1), _pair(ellipse.focus2)],
        "focal_sum": ellipse.focal_sum,
    }


def _cmd_plot(args) -> Any:
    from .figures import FigureSpec, render_svg
    from .poncelet import find_poncelet_ellipse

    product = _read_product(args.product)
    ellipse = None
    if args.ellipse:
        ellipse = find_poncelet_ellipse(product)
    orbit: tuple[complex, ...] = ()
    if args.moebius is not None:
        orbit = moebius_iterate_zero(args.moebius, product.degree).points
    spec = FigureSpec(
        product=product,
        canvas=args.canvas,
        ellipse=ellipse,
        chord_lambdas=tuple(args.lams),
        orbit=orbit,
    )
    svg = render_svg(spec)
    if args.out == "-":
        sys.stdout.write(svg)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(svg)
    return None


_HANDLERS = {
    "solve-c": _cmd_solve_c,
    "construct": _cmd_construct,
    "invariants": _cmd_invariants,
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
    "compose": _cmd_compose,
    "preimages": _cmd_preimages,
    "poncelet": _cmd_poncelet,
    "plot": _cmd_plot,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Execute one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        result = _HANDLERS[args.command](args)
    except (BlaschkeError, ValueError, OSError) as exc:
        json.dump({"error": type(exc).__name__, "detail": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    if result is not None:
        json.dump(result, sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
