"""Finite Blaschke products of the unit disk: invariants and decomposition.

The package constructs disk automorphisms M with B ∘ M = B, builds explicit
compositions B = outer ∘ inner, gives in closed form the unimodular constants
that close an orbit of the origin, and computes the inscribed Poncelet ellipse of
degree-4 products.

Importing the package loads none of its modules.  A public name, or a
submodule such as ``blaschke.products``, is imported on first access (PEP 562)
and kept in the package namespace.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_HOMES = {
    name: module
    for module, names in {
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
    }.items()
    for name in names.split()
}
_SUBMODULES = {*_HOMES.values(), "cli"}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
