"""Command line front end with JSON input/output and an SVG plotter.

Every subcommand maps onto one public library operation.  Domain errors are
reported as a machine-readable ``{"error", "detail"}`` object on stderr with
exit code 1; argument parsing failures exit with code 2.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Any, Optional, Sequence

from .decompose import (
    decompose_auto,
    decompose_invariants_search,
    decompose_paired_2n,
    decompose_paired_search,
    decompose_tripled_3n,
    roundtrip_residual,
)
from .errors import BadShape, BlaschkeError, ConditionsUnsatisfied
from .figures import FigureSpec, render_svg
from .invariants import (
    construct_invariant_product,
    find_invariant_group,
    verify_invariance,
)
from .moebius import MoebiusTransform, moebius_iterate_zero, solve_unimodular_c
from .poncelet import poncelet_ellipse
from .products import (
    ORIGIN_ZERO_TOL,
    BlaschkeProduct,
    blaschke_compose,
    blaschke_preimages,
)


def _pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def product_to_document(product: BlaschkeProduct) -> dict[str, Any]:
    """JSON-ready document; floats round-trip exactly through repr."""
    return {"constant": _pair(product.constant), "zeros": [_pair(z) for z in product.zeros]}


def product_from_document(doc: Any) -> BlaschkeProduct:
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


def _moebius_arg(text: str) -> MoebiusTransform:
    try:
        cre, cim, are, aim = (float(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected CRE,CIM,ARE,AIM but got {text!r}") from exc
    c = complex(cre, cim)
    if c == 0:
        raise argparse.ArgumentTypeError("constant must be nonzero")
    return MoebiusTransform(c / abs(c), complex(are, aim))


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
    p.add_argument("--tol", type=float, default=1e-7, help="orbit distinctness tolerance")

    p = sub.add_parser("construct", help="invariant product from an orbit of 0")
    p.add_argument("--alpha", type=_complex_arg, required=True, metavar="RE,IM")
    p.add_argument("--c", type=_complex_arg, required=True, metavar="RE,IM",
                   help="unimodular constant (projected onto the circle)")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-7,
                   help="orbit closure and distinctness tolerance")

    p = sub.add_parser("invariants", help="cyclic invariant groups of a product")
    p.add_argument("--product", required=True, metavar="FILE")
    p.add_argument("--tol", type=float, default=1e-7)

    p = sub.add_parser("verify", help="max residual of B(M(z)) - B(z)")
    p.add_argument("--product", required=True, metavar="FILE")
    p.add_argument("--moebius", type=_moebius_arg, required=True, metavar="CRE,CIM,ARE,AIM")
    p.add_argument("--samples", type=int, default=100)

    p = sub.add_parser("decompose", help="split a product into a composition")
    p.add_argument("--product", required=True, metavar="FILE")
    p.add_argument("--method", choices=("auto", "invariants", "paired", "tripled"), default="auto")
    p.add_argument("--a1-index", type=int, default=None)
    p.add_argument("--tol", type=float, default=1e-7)

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
    p.add_argument("--canvas", type=int, default=640)
    p.add_argument("--out", required=True, metavar="FILE.svg")

    return parser


def _cmd_solve_c(args) -> Any:
    solutions = solve_unimodular_c(args.alpha, args.degree, args.tol)
    return [{"c": _pair(c), "orbit": _orbit_document(orbit)} for c, orbit in solutions]


def _cmd_construct(args) -> Any:
    m = MoebiusTransform(args.c / abs(args.c), args.alpha)
    product = construct_invariant_product(
        m, args.degree, distinct_tol=args.tol, closure_tol=max(args.tol, 1e-8)
    )
    return product_to_document(product)


def _cmd_invariants(args) -> Any:
    product = _read_product(args.product)
    groups = find_invariant_group(product, args.tol)
    return [
        {"generator": {"c": _pair(g.generator.c), "alpha": _pair(g.generator.alpha)},
         "order": g.order}
        for g in groups
    ]


def _cmd_verify(args) -> Any:
    product = _read_product(args.product)
    return {"max_residual": verify_invariance(product, args.moebius, args.samples)}


def _cmd_decompose(args) -> Any:
    product = _read_product(args.product)
    if args.method == "auto":
        dec = decompose_auto(product, args.tol)
    elif args.method == "invariants":
        dec = decompose_invariants_search(product)
    elif args.method == "paired":
        if args.a1_index is not None:
            dec = decompose_paired_2n(product, args.a1_index, args.tol)
        else:
            dec = decompose_paired_search(product, args.tol)
    else:
        dec = decompose_tripled_3n(product, args.tol)
    return {
        "inner": product_to_document(dec.inner),
        "outer": product_to_document(dec.outer),
        "source": dec.source.value,
        "roundtrip_residual": roundtrip_residual(dec, product),
    }


def _cmd_compose(args) -> Any:
    inner = _read_product(args.inner)
    outer = _read_product(args.outer)
    return product_to_document(blaschke_compose(outer, inner))


def _cmd_preimages(args) -> Any:
    product = _read_product(args.product)
    return [_pair(z) for z in blaschke_preimages(product, args.lam)]


def _select_foci(product: BlaschkeProduct, a1_index: Optional[int]) -> tuple[int, int]:
    nonzero = [i for i, z in enumerate(product.zeros) if abs(z) > ORIGIN_ZERO_TOL]
    if a1_index is not None:
        foci = [i for i in nonzero if i != a1_index]
        if len(foci) != 2:
            raise BadShape("need exactly two nonzero zeros besides a1 for the foci")
        return foci[0], foci[1]
    failures = []
    for a1 in nonzero:
        foci = [i for i in nonzero if i != a1]
        if len(foci) != 2:
            continue
        try:
            poncelet_ellipse(product, (foci[0], foci[1]))
            return foci[0], foci[1]
        except BlaschkeError as exc:
            failures.append(str(exc))
    raise ConditionsUnsatisfied(
        "no distinguished zero satisfies the ellipse condition"
        + (": " + "; ".join(failures) if failures else "")
    )


def _cmd_poncelet(args) -> Any:
    product = _read_product(args.product)
    foci = _select_foci(product, args.a1_index)
    ellipse = poncelet_ellipse(product, foci)
    return {
        "foci": [_pair(ellipse.focus1), _pair(ellipse.focus2)],
        "focal_sum": ellipse.focal_sum,
    }


def _cmd_plot(args) -> Any:
    product = _read_product(args.product)
    ellipse = None
    if args.ellipse:
        ellipse = poncelet_ellipse(product, _select_foci(product, None))
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
    except (BlaschkeError, ValueError) as exc:
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
