"""The binder table and what reads it: every node knows one more than its
largest free index in each namespace, ``shift`` and ``open_tm_block`` hand
back closed subterms untouched, and the occurrence check of the printer
agrees with the oracle's own traversal."""

import dataclasses

from hypothesis import example, given, strategies as st

from adaptt import syntax
from adaptt.normalize import open_tm_block, set_trace
from adaptt.pretty import _occurs
from adaptt.setmodel import free_tm_vars
from adaptt.syntax import (
    TyVarRef, Pi, Sig, Ind, Var, Lam, App, Pair, Fst, Snd, Cast, Con,
    AdId, Chain, Post, PiAd, SigAd, IndAd, Sub, STm, STy, Trans, KTm, KAd,
    RecDesc, ConDesc, IndDesc, TmEntry, TyEntry, SHAPE, ARITY, SEQ,
    fv_bounds, shift,
)
from helpers import A, B, cons, list_of, nil

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
        st.builds(STm, child),
        st.builds(KTm, child),
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


@given(values)
# one pinned case per binder offset: Pi/Sig/Lam bodies and PiAd/SigAd
# codomains add 1, STy/KAd their arity, telescope entry k adds k
@example(Pi(A, Var(1)))
@example(Lam(A, Var(0)))
@example(SigAd(AdId(A), AdId(Var(2)), A, A))
@example(STy(Var(2), 2))
@example(KAd(AdId(Var(0)), Var(3), 1))
@example((A, Var(0), Var(3)))
def test_term_bound_is_one_past_the_largest_free_index(x):
    free = free_tm_vars(x)
    assert fv_bounds(x)[0] == (max(free) + 1 if free else 0)


@given(values)
@example(Pi(A, Var(1)))
@example(KAd(AdId(Var(0)), Var(3), 1))
@example((A, Var(0), Var(3)))
def test_occurs_agrees_with_the_oracle(x):
    free = free_tm_vars(x)
    for i in range(fv_bounds(x)[0] + 1):
        assert _occurs(x, i) == (i in free)


@given(nodes)
def test_type_bound_is_the_least_cutoff_shift_leaves_alone(x):
    b_ty = fv_bounds(x)[1]
    assert shift(x, 0, 1, 0, b_ty) is x
    if b_ty:
        assert shift(x, 0, 1, 0, b_ty - 1) is not x


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
        assert open_tm_block(Pi(A, list_of(A)), (Var(7), Var(8))) \
            is Pi(A, list_of(A))
    finally:
        set_trace(None)
    assert seen == []
