"""Casts with a genuinely dependent branching family.

A family substituted for a contravariant type variable lives over the
dualized extension, so its binder may only be used contravariantly; a
function type whose domain mentions the binder is the canonical legal
shape.  The test drives a tree cast whose branching family is
``x |-> (Id A x x) -> C`` and checks that the contravariant component is
instantiated at the actual node label when the cast computes.
"""

from adaptt.syntax import (
    POS, NEG, TmEntry, Base, TyVarRef, Pi, Ind, Var, Con,
    AdId, PiAd, Sub, STy, Trans, KAd, shift, desc,
)
from adaptt.normalize import cast, open_tm_block
from adaptt.inductive import ind_adapter
from adaptt.check import infer_tm, check_trans, check_sub
from helpers import A, C, D, q_DC


def id_ty(x):
    return Ind("Id", Sub((STy(A, 0), x)), (x,))


# families over one binder of type A (the binder used only in a domain)
SRC_FAM = Pi(id_ty(Var(0)), shift(C, 1, 0))
TGT_FAM = Pi(id_ty(Var(0)), shift(D, 1, 0))


def g_component(x):
    """Reversed component at label ``x``: target family to source family,
    the identity on the dependent domain and a ground adapter on the
    codomain."""
    return PiAd(AdId(id_ty(x)), shift(q_DC, 1, 0),
                Pi(id_ty(x), shift(D, 1, 0)), Pi(id_ty(x), shift(C, 1, 0)))


PARAMS = Sub((STy(A, 0), STy(SRC_FAM, 1)))
TR = Trans((KAd(AdId(A), A, 0), KAd(g_component(Var(0)), TGT_FAM, 1)))


def ambient():
    w_src = Ind("W", PARAMS, ())
    arg_ty = Pi(open_tm_block(SRC_FAM, (Var(0),)), shift(w_src, 1, 0))
    return (TmEntry(POS, A), TmEntry(POS, arg_ty))


def test_dependent_family_checks():
    check_sub(ambient(), PARAMS, desc("W").params_ctx)
    check_trans(ambient(), TR, desc("W").params_ctx)


def test_dependent_w_cast_instantiates_the_component():
    ctx = ambient()
    ad = ind_adapter("W", TR, ())
    sup = Con("W", 0, PARAMS, (Var(1), Var(0)))
    out = cast(sup, ad)
    assert isinstance(out, Con)
    assert out.params == Sub((STy(A, 0), STy(TGT_FAM, 1)))
    label, branch = out.args
    assert label == Var(1)  # the identity component leaves the label alone
    # the recursive argument's domain adapter is the family component
    # instantiated at the actual label
    assert branch.ad.dom_ad == g_component(Var(1))
    # and the result still checks at the target instance
    got = infer_tm(ctx, out)
    assert got == Ind("W", Sub((STy(A, 0), STy(TGT_FAM, 1))), ())
