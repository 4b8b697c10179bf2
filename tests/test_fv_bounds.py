"""The binder table and what reads it: every node knows one more than its
largest free index in each namespace and its least free term index,
``shift`` and ``open_tm_block`` hand back closed subterms untouched, and
``free_tm_vars`` finds the free term variables.  ``fv_bounds`` and
``free_tm_vars`` both read ``SHAPE``, so comparing the two checks no
offset; the literal table ``OFFSETS`` does, one row per syntax field,
each with the bounds and free set worked out by hand."""

import dataclasses
from math import inf

import pytest
from hypothesis import given, strategies as st

from adaptt import syntax
from adaptt.normalize import open_tm_block, set_trace
from adaptt.syntax import (
    TyVarRef, Pi, Sig, Ind, Var, Lam, App, Pair, Fst, Snd, Cast, Con,
    AdId, Chain, Post, PiAd, SigAd, IndAd, Sub, STy, Trans, KAd,
    RecDesc, ConDesc, IndDesc, TmEntry, TyEntry, SHAPE, ARITY, SEQ,
    free_tm_vars, fv_bounds, least_free_tm, shift,
)
from helpers import A, B, cons, list_ty, nil

leaves = st.one_of(
    st.builds(Var, st.integers(0, 4)),
    st.sampled_from([A, B, Post("f", A, B)]),
    st.builds(TyVarRef, st.integers(0, 2), st.just(())),
)


def _nodes(child):
    small = st.lists(child, max_size=3).map(tuple)
    arity = st.integers(0, 3)
    return st.one_of(
        st.builds(TyVarRef, st.integers(0, 2), small),
        st.builds(Pi, child, child),
        st.builds(Sig, child, child),
        st.builds(Lam, child, child),
        st.builds(App, child, child),
        st.builds(Cast, child, child),
        st.builds(Pair, child, child, child),
        st.builds(Fst, child),
        st.builds(Snd, child),
        st.builds(AdId, child),
        st.builds(Chain, small),
        st.builds(PiAd, child, child, child, child),
        st.builds(SigAd, child, child, child, child),
        st.builds(Ind, st.just("List"), child, small),
        st.builds(Con, st.just("List"), st.integers(0, 1), child, small),
        st.builds(IndAd, st.just("List"), child),
        st.builds(Sub, small),
        st.builds(Trans, small),
        st.builds(STy, child, arity),
        st.builds(KAd, child, child, arity),
    )


nodes = st.recursive(leaves, _nodes, max_leaves=12)
#: a bare tuple is read as a telescope: entry k sits under k binders
values = st.one_of(nodes, st.lists(nodes, max_size=4).map(tuple))


def test_shape_lists_every_syntax_node_field_in_order():
    interned = {c for c in vars(syntax).values()
                if isinstance(c, type) and "_fv" in vars(c)}
    signature_and_context = {RecDesc, ConDesc, IndDesc, TmEntry, TyEntry}
    assert set(SHAPE) == interned - signature_and_context
    for cls, row in SHAPE.items():
        assert [name for name, _ in row] == \
            [f.name for f in dataclasses.fields(cls)], cls
        for name, kind in row:
            assert kind in (None, SEQ, ARITY) or kind in (0, 1), (cls, name)


#: One row per syntax field that holds syntax, and one for a telescope:
#: ``(value, fv_bounds, free_tm_vars)``.  The field under test holds a
#: variable one past its offset (a sequence holds it at entry 1), every
#: other field the closed ``A``, so any other offset gives other figures.
#: A few more rows put a variable under its binder, or across an arity.
OFFSETS = [
    # telescope entry k sits under k binders
    ((A, Var(0), Var(3)), (2, 0), {1}),
    # one binder: Pi/Sig/Lam bodies, PiAd/SigAd codomains
    (Pi(A, Var(2)), (2, 0), {1}),
    (Sig(A, Var(2)), (2, 0), {1}),
    (Lam(A, Var(2)), (2, 0), {1}),
    (Lam(A, Var(0)), (0, 0), set()),
    (PiAd(A, Var(2), A, A), (2, 0), {1}),
    (SigAd(A, Var(2), A, A), (2, 0), {1}),
    (SigAd(AdId(A), AdId(Var(0)), A, A), (0, 0), set()),
    # the arity: STy's type, KAd's adapter and forced type
    (STy(Var(3), 2), (2, 0), {1}),
    (STy(Var(1), 2), (0, 0), set()),
    (KAd(Var(3), A, 2), (2, 0), {1}),
    (KAd(A, Var(3), 2), (2, 0), {1}),
    (KAd(AdId(Var(0)), Var(3), 1), (3, 0), {2}),
    # no binder
    (Pi(Var(1), A), (2, 0), {1}),
    (Sig(Var(1), A), (2, 0), {1}),
    (Lam(Var(1), A), (2, 0), {1}),
    (App(Var(1), A), (2, 0), {1}),
    (App(A, Var(1)), (2, 0), {1}),
    (Pair(Var(1), A, A), (2, 0), {1}),
    (Pair(A, Var(1), A), (2, 0), {1}),
    (Pair(A, A, Var(1)), (2, 0), {1}),
    (Fst(Var(1)), (2, 0), {1}),
    (Snd(Var(1)), (2, 0), {1}),
    (Cast(Var(1), A), (2, 0), {1}),
    (Cast(A, Var(1)), (2, 0), {1}),
    (AdId(Var(1)), (2, 0), {1}),
    (PiAd(Var(1), A, A, A), (2, 0), {1}),
    (PiAd(A, A, Var(1), A), (2, 0), {1}),
    (PiAd(A, A, A, Var(1)), (2, 0), {1}),
    (SigAd(Var(1), A, A, A), (2, 0), {1}),
    (SigAd(A, A, Var(1), A), (2, 0), {1}),
    (SigAd(A, A, A, Var(1)), (2, 0), {1}),
    (Ind("List", Var(1), ()), (2, 0), {1}),
    (Con("List", 1, Var(1), ()), (2, 0), {1}),
    (IndAd("List", Var(1)), (2, 0), {1}),
    # sequences: every entry at the node's own depth
    (TyVarRef(1, (A, Var(1))), (2, 2), {1}),
    (Ind("List", A, (A, Var(1))), (2, 0), {1}),
    (Con("List", 1, A, (A, Var(1))), (2, 0), {1}),
    (Chain((A, Var(1))), (2, 0), {1}),
    (Sub((A, Var(1))), (2, 0), {1}),
    (Trans((A, Var(1))), (2, 0), {1}),
    # the least free index of a body whose own least index is its binder
    (Pi(A, App(Var(0), Var(3))), (3, 0), {2}),
]


def test_offsets_cover_every_syntax_field():
    covered = {(type(x), name) for x, _, _ in OFFSETS if type(x) is not tuple
               for name, kind in SHAPE[type(x)]
               if kind is not None and fv_bounds(getattr(x, name))[0]}
    assert covered == {(cls, name) for cls, row in SHAPE.items()
                       for name, kind in row if kind is not None}
    assert any(type(x) is tuple for x, _, _ in OFFSETS)


@pytest.mark.parametrize("x, bounds, free", OFFSETS)
def test_offsets_give_the_bounds_and_free_variables_worked_out_by_hand(
        x, bounds, free):
    assert fv_bounds(x) == bounds
    assert free_tm_vars(x) == free
    assert least_free_tm(x) == min(free, default=inf)


@given(values)
def test_term_bound_is_one_past_the_largest_free_index(x):
    free = free_tm_vars(x)
    assert fv_bounds(x)[0] == (max(free) + 1 if free else 0)


@given(values)
def test_least_free_index_is_the_least_of_the_free_variables(x):
    assert least_free_tm(x) == min(free_tm_vars(x), default=inf)


@given(nodes)
def test_type_bound_is_the_least_cutoff_shift_leaves_alone(x):
    # no binder inside syntax binds a type variable, so shift's type cutoff
    # is always 0: it leaves a node alone exactly when its type bound is 0
    assert (shift(x, 0, 1) is x) == (fv_bounds(x)[1] == 0)


@given(values, st.integers(0, 3))
def test_shift_moves_exactly_the_free_indices_at_or_above_the_cutoff(x, c):
    free = free_tm_vars(x)
    out = shift(x, 3, 0, c)
    assert free_tm_vars(out) == {i + 3 if i >= c else i for i in free}
    b_tm, b_ty = fv_bounds(x)
    assert fv_bounds(out) == (b_tm + 3 if b_tm > c else b_tm, b_ty)


@given(nodes)
def test_shift_round_trip_returns_the_node(x):
    assert shift(shift(x, 2, 1), -2, -1) is x


def test_closed_nodes_come_back_untouched_and_silent():
    ident = Lam(A, Var(0))
    xs = cons(Pi(A, A), ident, cons(Pi(A, A), ident, nil(Pi(A, A))))
    under_one = Lam(A, App(Var(0), Var(1)))
    assert fv_bounds(xs) == (0, 0)
    assert fv_bounds(under_one) == (1, 0)
    seen = []
    set_trace(lambda rule, path: seen.append(rule))
    try:
        assert shift(xs, 3, 2) is xs
        assert shift(under_one, 1, 0, c_tm=1) is under_one
        assert open_tm_block(xs, (Var(7),)) is xs
        assert open_tm_block(Pi(A, list_ty(A)), (Var(7), Var(8))) \
            is Pi(A, list_ty(A))
    finally:
        set_trace(None)
    assert seen == []
