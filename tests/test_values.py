"""Semantics of the package's immutable value types.

Equality and hash follow the fields, repr names them, instances cannot be
changed, and they survive pickling and deep copies.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from blaschke import (
    BlaschkeProduct,
    ChordConcurrencyReport,
    ComplexPolynomial,
    Decomposition,
    DecompositionSource,
    FigureSpec,
    InvariantGroup,
    MoebiusTransform,
    NondegeneracyError,
    OrbitReport,
    PonceletEllipse,
    StructuredZeroConditions,
)

B2 = BlaschkeProduct(1.0, (0j, 0.5))
INVOLUTION = MoebiusTransform(-1.0, 0.5)

# (type, keyword arguments, a field, another value for it)
CASES = [
    (BlaschkeProduct, dict(constant=1.0, zeros=(0j, 0.5)), "zeros", (0j, 0.25)),
    (MoebiusTransform, dict(c=-1.0, alpha=0.5), "alpha", 0.25),
    (OrbitReport, dict(points=(0j, 0.5), closes=True, min_pairwise_gap=0.5), "closes", False),
    (ComplexPolynomial, dict(coeffs=(1.0, 2j)), "coeffs", (1.0, 3j)),
    (InvariantGroup, dict(generator=INVOLUTION, order=2), "generator", MoebiusTransform(-1.0, 0.25)),
    (
        Decomposition,
        dict(inner=B2, outer=BlaschkeProduct(1.0, (0.1,)), source=DecompositionSource.PAIRED_ZEROS_2N),
        "source",
        DecompositionSource.INVARIANT_GROUP,
    ),
    (StructuredZeroConditions, dict(residuals=(1e-9j,), satisfied=True), "satisfied", False),
    (PonceletEllipse, dict(focus1=0.5j, focus2=-0.5j, focal_sum=1.5), "focal_sum", 1.6),
    (
        ChordConcurrencyReport,
        dict(preimages=(1, 1j, -1, -1j), pairing=((0, 2), (1, 3)), distances=(0.0, 0.0)),
        "distances",
        (0.0, 1e-9),
    ),
    (FigureSpec, dict(product=B2, canvas=320), "canvas", 640),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, kwargs, field, other", CASES, ids=IDS)
def test_keyword_construction_keeps_the_fields(cls, kwargs, field, other):
    value = cls(**kwargs)
    for name, given in kwargs.items():
        assert getattr(value, name) == given


@pytest.mark.parametrize("cls, kwargs, field, other", CASES, ids=IDS)
def test_equality_and_hash_follow_the_fields(cls, kwargs, field, other):
    a, b = cls(**kwargs), cls(**kwargs)
    changed = cls(**dict(kwargs, **{field: other}))
    assert a == b and hash(a) == hash(b)
    assert a != changed
    assert a != object() and a.__eq__(object()) is NotImplemented
    assert list(dict.fromkeys([a, b, changed])) == [a, changed]


@pytest.mark.parametrize("cls, kwargs, field, other", CASES, ids=IDS)
def test_fields_cannot_change(cls, kwargs, field, other):
    value = cls(**kwargs)
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(value, field, other)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert getattr(value, field) == kwargs[field]


@pytest.mark.parametrize("cls, kwargs, field, other", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, kwargs, field, other):
    value = cls(**kwargs)
    for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
        assert type(clone) is cls and clone == value and hash(clone) == hash(value)
        with pytest.raises(AttributeError):
            setattr(clone, field, other)


def test_moebius_candidates_dedupe_in_order():
    candidates = [MoebiusTransform(-1.0, 0.5), MoebiusTransform(1j, 0.5), MoebiusTransform(-1.0 + 0j, 0.5 + 0j)]
    assert list(dict.fromkeys(candidates)) == candidates[:2]


def test_pinned_reprs():
    assert repr(B2) == "BlaschkeProduct(constant=(1+0j), zeros=(0j, (0.5+0j)))"
    assert repr(INVOLUTION) == "MoebiusTransform(c=(-1+0j), alpha=(0.5+0j))"
    assert repr(InvariantGroup(INVOLUTION, 2, 1e-6)) == (
        "InvariantGroup(generator=MoebiusTransform(c=(-1+0j), alpha=(0.5+0j)), order=2)"
    )


def test_identity_tol_is_kept_but_not_compared():
    loose = InvariantGroup(INVOLUTION, 2, 1e-6)
    assert loose == InvariantGroup(INVOLUTION, 2) and hash(loose) == hash(InvariantGroup(INVOLUTION, 2))
    assert loose.identity_tol == 1e-6 and InvariantGroup(INVOLUTION, 2).identity_tol == 1e-8
    assert pickle.loads(pickle.dumps(loose)).identity_tol == 1e-6
    with pytest.raises(AttributeError):
        loose.identity_tol = 1e-8


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: MoebiusTransform(2.0, 0), ValueError, r"\|c\| = 2.0 is not within 1e-09 of 1"),
        (lambda: MoebiusTransform(1.0, 1.0), ValueError, "must stay inside the open disk"),
        (lambda: MoebiusTransform(float("nan"), 0), ValueError, "non-finite complex value"),
        (lambda: MoebiusTransform(c=1), TypeError, "missing 1 required positional argument: 'alpha'"),
        (lambda: BlaschkeProduct(1.0, ()), ValueError, "a Blaschke product needs at least one zero"),
        (lambda: BlaschkeProduct(1.0, (1.0,)), ValueError, "must lie inside the open disk"),
        (lambda: ComplexPolynomial([]), ValueError, "a polynomial needs at least one coefficient"),
        (lambda: InvariantGroup(INVOLUTION, 1), ValueError, "an invariant group has order at least 2"),
        (lambda: InvariantGroup(INVOLUTION, 3), ValueError, "generator order does not match the declared order"),
        (lambda: PonceletEllipse(1.0, 0j, 3.0), NondegeneracyError, "must lie inside the open disk"),
        (lambda: PonceletEllipse(0.5, -0.5, 1.0), NondegeneracyError, "focal sum must exceed the focal distance"),
        (lambda: FigureSpec(), TypeError, "missing 1 required positional argument: 'product'"),
    ],
)
def test_construction_errors(make, error, message):
    with pytest.raises(error, match=message):
        make()
