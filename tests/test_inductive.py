"""Signature compiler: constructor elaboration against the hand-unfolded
shapes, and the derived cast-on-constructor equations for every stock
datatype (the golden computation rows), plus a datatype that is not in
the stock table to show the rules are derived generically."""

import pytest

from adaptt.syntax import (
    POS, NEG, TmEntry, TyEntry, Base, TyVarRef, Pi, Ind, Var, Cast, Con,
    Post, PiAd, IndAd, IndDesc, ConDesc, RecDesc, Sub, STy, Trans, KAd,
    desc, shift,
)
from adaptt.normalize import cast, conv_tm, KernelError
from adaptt.inductive import (
    con_data_tied, constr_type, cast_con, ind_adapter,
    generic_con, result_indices, nat, nat_zero, nat_succ, register,
)
from helpers import (
    A, B, C, D, f_AB, g_BC, q_DC, list_ty, vec_of, sum_of, w_of, id_of,
    nil, cons, mu1, list_ad, register_tree,
)
from test_session_memo import in_fresh_session, traced


# -- elaboration shapes ------------------------------------------------------


def test_con_data_list():
    d = desc("List")
    assert con_data_tied(d, 1) == (TyVarRef(0, ()), list_ty(TyVarRef(0, ())))


def test_con_data_w():
    d = desc("W")
    tied = con_data_tied(d, 0)
    assert tied == (
        TyVarRef(1, ()),
        Pi(TyVarRef(0, (Var(0),)),
           Ind("W", Sub((STy(TyVarRef(1, ()), 0),
                         STy(TyVarRef(0, (Var(0),)), 1))), ())))


def test_con_data_vec():
    d = desc("Vec")
    tied = con_data_tied(d, 1)
    assert tied == (
        TyVarRef(0, ()), nat(),
        Ind("Vec", Sub((STy(TyVarRef(0, ()), 0),)), (Var(0),)))


def test_constr_type_list_nil():
    ctx, ty = constr_type("List", 0)
    assert ctx == (TyEntry(POS, POS, ()),)
    assert ty == list_ty(TyVarRef(0, ()))


def test_constr_type_vec_cons():
    ctx, ty = constr_type("Vec", 1)
    assert ctx == (
        TyEntry(POS, POS, ()),
        TmEntry(POS, TyVarRef(0, ())),
        TmEntry(POS, nat()),
        TmEntry(POS, vec_of(TyVarRef(0, ()), Var(0))))
    assert ty == vec_of(TyVarRef(0, ()), nat_succ(Var(1)))


def test_constr_type_id_refl():
    ctx, ty = constr_type("Id", 0)
    assert ctx == (TyEntry(POS, POS, ()), TmEntry(POS, TyVarRef(0, ())))
    assert ty == id_of(TyVarRef(0, ()), Var(0), Var(0))


def test_generic_con_checks():
    from adaptt.check import infer_tm
    for name in ("Nat", "List", "Vec", "Sum", "W", "Id"):
        d = desc(name)
        for ci in range(len(d.cons)):
            ctx, want = constr_type(name, ci)
            got = infer_tm(ctx, generic_con(name, ci))
            assert conv_ty_here(ctx, got, want), (name, ci)


def conv_ty_here(ctx, a, b):
    from adaptt.normalize import conv_ty
    return conv_ty(ctx, a, b)


# -- golden computation rows -------------------------------------------------


def test_row_list_nil():
    ad = list_ad(f_AB, B)
    assert cast(nil(A), ad) == nil(B)


def test_row_list_cons():
    ad = list_ad(f_AB, B)
    t = cons(A, Var(1), Var(0))
    assert cast(t, ad) == cons(B, Cast(Var(1), f_AB), Cast(Var(0), ad))


def test_row_vec_nil():
    mu = mu1(f_AB, B)
    t = Con("Vec", 0, Sub((STy(A, 0),)), ())
    out = cast(t, ind_adapter("Vec", mu, (nat_zero(),)))
    assert out == Con("Vec", 0, Sub((STy(B, 0),)), ())


def test_row_vec_cons():
    # ctx: (a:A) |> (n:Nat) |> (v:Vec A n)
    mu = mu1(f_AB, B)
    t = Con("Vec", 1, Sub((STy(A, 0),)), (Var(2), Var(1), Var(0)))
    out = cast(t, ind_adapter("Vec", mu, (nat_succ(Var(1)),)))
    assert out == Con(
        "Vec", 1, Sub((STy(B, 0),)),
        (Cast(Var(2), f_AB), Var(1),
         Cast(Var(0), ind_adapter("Vec", mu, (Var(1),)))))


def test_row_sum_inl_inr():
    mu = Trans((KAd(f_AB, B, 0), KAd(g_BC, C, 0)))
    ad = ind_adapter("Sum", mu, ())
    params = Sub((STy(A, 0), STy(B, 0)))
    params2 = Sub((STy(B, 0), STy(C, 0)))
    assert cast(Con("Sum", 0, params, (Var(1),)), ad) == \
        Con("Sum", 0, params2, (Cast(Var(1), f_AB),))
    assert cast(Con("Sum", 1, params, (Var(0),)), ad) == \
        Con("Sum", 1, params2, (Cast(Var(0), g_BC),))


def test_row_w_sup():
    # constant branching families C (source) and D (target), g : D => C
    mu = Trans((KAd(f_AB, B, 0), KAd(q_DC, D, 1)))
    ad = ind_adapter("W", mu, ())
    params = Sub((STy(A, 0), STy(C, 1)))
    t = Con("W", 0, params, (Var(1), Var(0)))
    out = cast(t, ad)
    assert isinstance(out, Con) and out.params == Sub((STy(B, 0), STy(D, 1)))
    arg0, arg1 = out.args
    assert arg0 == Cast(Var(1), f_AB)
    # recursive argument: pre-composition with g, then the tree map
    assert isinstance(arg1, Cast) and isinstance(arg1.ad, PiAd)
    assert arg1.ad.dom_ad == q_DC
    assert arg1.ad.cod_ad == shift(ad, 1, 0)


def test_row_id_refl():
    mu = Trans((KAd(f_AB, B, 0), Var(0)))
    ad = ind_adapter("Id", mu, (Var(0),))
    t = Con("Id", 0, Sub((STy(A, 0), Var(0))), ())
    out = cast(t, ad)
    assert out == Con("Id", 0, Sub((STy(B, 0), Cast(Var(0), f_AB))), ())


def test_row_tree_not_in_stock_table():
    register_tree()
    mu = Trans((KAd(f_AB, B, 0), KAd(q_DC, D, 0)))
    ad = ind_adapter("Tree", mu, ())
    params = Sub((STy(A, 0), STy(C, 0)))
    leaf = Con("Tree", 0, params, ())
    node = Con("Tree", 1, params, (Var(1), Var(0)))
    assert cast(leaf, ad) == Con("Tree", 0, Sub((STy(B, 0), STy(D, 0))), ())
    out = cast(node, ad)
    assert out.args[0] == Cast(Var(1), f_AB)
    assert isinstance(out.args[1].ad, PiAd)
    assert out.args[1].ad.dom_ad == q_DC
    assert out.args[1].ad.cod_ad == shift(ad, 1, 0)


# -- error paths -------------------------------------------------------------


def test_cast_con_rejects_wrong_parameters():
    ad = list_ad(f_AB, B)
    with pytest.raises(KernelError):
        cast_con(nil(C), ad.trans)


def test_cast_con_rejects_wrong_indices():
    mu = mu1(f_AB, B)
    t = Con("Vec", 0, Sub((STy(A, 0),)), ())  # indices force zero
    with pytest.raises(KernelError):
        cast_con(t, ind_adapter("Vec", mu, (nat_succ(nat_zero()),)).trans)


# -- runs of equal cells ------------------------------------------------------
#
# ``cast_con`` reads what a cell's datatype, tag, parameter spine and
# transformation determine once per run of cells on which all four agree.
# In each case below a cell differs from the one above it in one of them,
# and must be read afresh.


def test_a_cell_at_other_parameters_than_the_one_above_is_rejected():
    # cons A a (cons B b l) <| List [[ f ]]: the transformation's source
    # is A, and the second cell's parameter is B
    with pytest.raises(KernelError, match="inductive cast parameter mismatch"):
        cast(cons(A, Var(2), cons(B, Var(1), Var(0))), list_ad(f_AB, B))


def test_each_cell_of_a_vector_cast_is_read_at_its_own_index():
    # vcons A a (succ zero) (vcons A a2 zero (vnil A))
    #   <| Vec [[ f > succ (succ zero) ]]: the transformation of the cell
    # below carries the index succ zero, not succ (succ zero)
    def vcons(x, n, xs):
        return Con("Vec", 1, xs.params, (x, n, xs))

    zero, one = nat_zero(), nat_succ(nat_zero())
    vnil_a, vnil_b = (Con("Vec", 0, Sub((STy(t, 0),)), ()) for t in (A, B))
    src = vcons(Var(1), one, vcons(Var(0), zero, vnil_a))
    out = cast(src, ind_adapter("Vec", mu1(f_AB, B), (nat_succ(one),)))
    assert out == vcons(Cast(Var(1), f_AB), one,
                        vcons(Cast(Var(0), f_AB), zero, vnil_b))


def test_the_cell_below_a_cons_is_cast_as_a_nil():
    # the nil shares the cons cell's parameters and transformation
    out = cast(cons(A, Var(0), nil(A)), list_ad(f_AB, B))
    assert out == cons(B, Cast(Var(0), f_AB), nil(B))


def test_a_cell_of_another_datatype_below_is_cast_as_its_own():
    # wrap A (nil A) <| Wrap [[ f ]]: nil is tag 0 like wrap, at the same
    # parameters and transformation, but a List cell
    def run():
        register(IndDesc("Wrap", (TyEntry(POS, POS, ()),), (),
                         (ConDesc("wrap", (list_ty(TyVarRef(0, ())),), (),
                                  ()),)))
        src = Con("Wrap", 0, Sub((STy(A, 0),)), (nil(A),))
        return cast(src, IndAd("Wrap", mu1(f_AB, B)))
    out, _ = in_fresh_session(run)
    assert out == Con("Wrap", 0, Sub((STy(B, 0),)), (nil(B),))


# An indexed datatype whose recursive argument sits at a constant index,
#   data T (X : Ty+) [Nat] { cnil : T X zero ;
#                            ccons : (x : X) (n : Nat) (xs : T X zero) -> T X n }
# so every ccons cell below the first is cast along the same
# transformation and a run of them repeats: each cell of the run still
# checks its own index, between the two halves of the run's steps.

def zero_tailed_cast(indices):
    """``ccons A a_k n_k (...(cnil A))`` for the ``n_k`` of ``indices``
    (top cell first) cast along ``T [[ f > n_0 ]]`` in a fresh session
    with ``T`` registered; returns the result and the rules reported,
    in order."""
    def run():
        register(IndDesc("T", (TyEntry(POS, POS, ()),), (nat(),),
                         (ConDesc("cnil", (), (), (nat_zero(),)),
                          ConDesc("ccons", (TyVarRef(0, ()), nat()),
                                  (RecDesc((), (nat_zero(),)),),
                                  (Var(0),)))))
        src = Con("T", 0, Sub((STy(A, 0),)), ())
        for k, n in enumerate(reversed(indices)):
            src = Con("T", 1, src.params, (Var(k), n, src))
        ad = ind_adapter("T", mu1(f_AB, B), (indices[0],))
        return traced(lambda: cast(src, ad))
    return in_fresh_session(run)[0]


def test_a_cell_of_an_indexed_run_with_a_wrong_index_is_rejected():
    # the third cell sits where T X zero is expected, at index succ zero
    zero = nat_zero()
    with pytest.raises(KernelError, match="inductive cast index mismatch"):
        zero_tailed_cast((zero, zero, nat_succ(zero), zero))


def test_an_indexed_run_reports_each_cells_index_check_in_order():
    # pinned at the cell-by-cell reading: each ccons cell reports its
    # index instantiation (SUB_VAR) before its argument adapters
    zero = nat_zero()
    out, seen = zero_tailed_cast((nat_succ(zero), zero, zero, zero))
    assert out.params == Sub((STy(B, 0),))
    adapters = ["PI_TEL_EMPTY", "TRANS_TYVAR", "TRANS_TYVAR", "TRANS_ID",
                "TRANS_TYVAR", "TRANS_TYVAR", "TRANS_ID", "CAST_ID",
                "TRANS_TYVAR", "SUB_TYVAR", "TRANS_IND", "CAST_ID"]
    assert seen == (["CAST_CONSTR", "SUB_VAR", *adapters] * 4
                    + ["CAST_CONSTR"])


def test_identity_cast_on_constructor():
    from adaptt.syntax import AdId
    from adaptt.transform import id_trans, trans_source
    d = desc("List")
    ident = ind_adapter("List", Trans((KAd(AdId(A), A, 0),)), ())
    t = cons(A, Var(1), Var(0))
    out = cast(t, ident)
    ctx = (TmEntry(POS, A), TmEntry(POS, list_ty(A)))
    assert conv_tm(ctx, list_ty(A), out, t)


def test_result_indices():
    t = Con("Vec", 1, Sub((STy(A, 0),)), (Var(2), Var(1), Var(0)))
    assert result_indices(t) == (nat_succ(Var(1)),)
    # no declared indices: nothing to instantiate
    assert result_indices(cons(A, Var(1), Var(0))) == ()


def test_full_ctx_is_built_once():
    d = desc("Vec")
    assert d.full_ctx is d.full_ctx
    assert d.full_ctx == d.params_ctx + (TmEntry(POS, nat()),)
