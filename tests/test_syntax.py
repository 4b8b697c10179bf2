"""Representation-level invariants: direction group, dualization,
telescope extension, variable spines, weakening."""

from hypothesis import given, strategies as st

from adaptt.syntax import (
    POS, NEG, Dir, TmEntry, TyEntry, Base, TyVarRef, Pi, Var,
    dual_ctx, extend_tel, vinst, id_sub, shift,
    tm_count, ty_count, Sub, STy,
)
from helpers import A, B


def test_direction_group():
    assert NEG.flip is POS and POS.flip is NEG


def test_dualize_flips_every_direction():
    # ((X:Ty-) |> (Y:Ty+))^-  ==  (X:Ty+) |> (Y:Ty-)
    ctx = (TyEntry(NEG, POS, ()), TyEntry(POS, POS, ()))
    assert dual_ctx(ctx) == (TyEntry(POS, NEG, ()), TyEntry(NEG, NEG, ()))


def test_dualize_empty():
    assert dual_ctx(()) == ()


def test_dualize_by_pos_is_identity():
    ctx = (TyEntry(NEG, POS, ()), TmEntry(POS, TyVarRef(0, ())))
    assert dual_ctx(ctx, POS) == ctx


dirs = st.sampled_from([POS, NEG])


@st.composite
def contexts(draw):
    out = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            out.append(TmEntry(draw(dirs), Base(draw(st.sampled_from("AB")))))
        else:
            out.append(TyEntry(draw(dirs), draw(dirs), ()))
    return tuple(out)


@given(contexts())
def test_dualize_involution(ctx):
    assert dual_ctx(dual_ctx(ctx)) == ctx


def test_spines_are_self_dual_data():
    # dualizing the context leaves a transformation's components
    # untouched; the endpoint readings flip with the context instead
    from adaptt.syntax import Post, Trans, KAd
    from adaptt.transform import trans_source, trans_target
    ctx = (TyEntry(POS, POS, ()),)
    tr = Trans((KAd(Post("f", A, B), B, 0),))
    assert trans_source(ctx, tr) == Sub((STy(A, 0),))
    assert trans_target(ctx, tr) == Sub((STy(B, 0),))
    assert trans_source(dual_ctx(ctx), tr) == trans_target(ctx, tr)
    assert trans_target(dual_ctx(ctx), tr) == trans_source(ctx, tr)


def test_extend_by_empty_telescope():
    ctx = (TyEntry(POS, POS, ()),)
    assert extend_tel(ctx, POS, ()) == ctx


def test_extend_by_variable_telescope():
    # (X:Ty+) |>+ (<> |> X)  ==  (X:Ty+) |> (x:X)
    ctx = (TyEntry(POS, POS, ()),)
    out = extend_tel(ctx, POS, (TyVarRef(0, ()),))
    assert out == ctx + (TmEntry(POS, TyVarRef(0, ())),)


def test_extend_neg_adds_neg_entries():
    out = extend_tel((), NEG, (A, B))
    assert out == (TmEntry(NEG, A), TmEntry(NEG, B))


def test_vinst_lengths_and_indices():
    assert vinst(()) == ()
    assert vinst((A,)) == (Var(0),)
    assert vinst((A, B)) == (Var(1), Var(0))


def test_id_sub_spine_shape():
    ctx = (TyEntry(POS, POS, ()), TmEntry(POS, TyVarRef(0, ())),
           TmEntry(POS, Base("A")))
    s = id_sub(ctx)
    assert len(s.comps) == len(ctx)
    assert s.comps[0] == STy(TyVarRef(0, ()), 0)
    assert s.comps[1] == Var(1)
    assert s.comps[2] == Var(0)


def test_shift_namespaces_are_independent():
    t = TyVarRef(1, (Var(0),))
    assert shift(t, 3, 0) == TyVarRef(1, (Var(3),))
    assert shift(t, 0, 2) == TyVarRef(3, (Var(0),))


def test_shift_respects_binders():
    t = Pi(A, TyVarRef(0, (Var(0), Var(1))))
    out = shift(t, 1, 0)
    # Var(0) is bound by the Pi, Var(1) is free
    assert out == Pi(A, TyVarRef(0, (Var(0), Var(2))))


def test_counts():
    ctx = (TyEntry(POS, POS, ()), TmEntry(POS, TyVarRef(0, ())))
    assert tm_count(ctx) == 1 and ty_count(ctx) == 1
