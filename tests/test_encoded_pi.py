"""The function former reconstructed from type variables.

A context with a contravariant type variable and a covariant one whose
dependency telescope lives over the dualized prefix encodes the function
former; pushing a transformation through the generic function type over
that context must produce exactly the structural function adapter.  This
exercises the two exotic rows of the direction table (a contravariant
entry, and a covariant entry with a contravariant telescope) end to end.
"""

from adaptt.syntax import (
    POS, NEG, TmEntry, TyEntry, Base, TyVarRef, Pi, Ind, Var, Post,
    Sub, STy, Trans, KAd, shift, dual_ctx, id_sub,
)
from adaptt.normalize import apply, conv_ad, ad_src, ad_tgt
from adaptt.transform import push_ty, trans_source, trans_target
from adaptt.check import check_sub, check_trans, check_ty
from helpers import A, B, C, D


# (X : Ty-) |> (Y : (x : X over the dual prefix) Ty+)
PI_CTX = (
    TyEntry(NEG, POS, ()),
    TyEntry(POS, NEG, (TyVarRef(0, ()),)),
)

# the generic function type over that context
GENERIC = Pi(TyVarRef(1, ()), TyVarRef(0, (Var(0),)))

q_BA = Post("q", B, A)        # contravariant component: new => old domain
g_CD = Post("g2", C, D)       # covariant codomain component

SIGMA = Sub((STy(A, 0), STy(shift(C, 1, 0), 1)))
TAU = Sub((STy(B, 0), STy(shift(D, 1, 0), 1)))
TR = Trans((KAd(q_BA, B, 0), KAd(shift(g_CD, 1, 0), shift(C, 1, 0), 1)))


def test_generic_type_is_well_formed():
    check_ty(PI_CTX, GENERIC)


def test_substitution_instance_is_the_function_type():
    assert apply(GENERIC, SIGMA) == Pi(A, shift(C, 1, 0))
    assert apply(GENERIC, TAU) == Pi(B, shift(D, 1, 0))
    check_sub((), SIGMA, PI_CTX)
    check_sub((), TAU, PI_CTX)


def test_identity_substitution_checks():
    # the covariant entry's telescope is contravariant: its component is
    # checked over the prefix extended at that direction
    check_sub(PI_CTX, id_sub(PI_CTX), PI_CTX)
    dual = dual_ctx(PI_CTX)
    check_sub(dual, id_sub(dual), dual)


def test_transformation_endpoints():
    assert trans_source(PI_CTX, TR) == SIGMA
    assert trans_target(PI_CTX, TR) == TAU
    check_trans((), TR, PI_CTX)


def test_dual_reading_swaps_sides():
    assert trans_source(dual_ctx(PI_CTX), TR) == TAU
    assert trans_target(dual_ctx(PI_CTX), TR) == SIGMA


def test_push_produces_the_structural_function_adapter():
    out = push_ty(GENERIC, TR, PI_CTX)
    assert ad_src(out) == Pi(A, shift(C, 1, 0))
    assert ad_tgt(out) == Pi(B, shift(D, 1, 0))
    assert out.dom_ad == q_BA
    assert out.cod_ad == shift(g_CD, 1, 0)


def test_encoded_and_primitive_actions_agree():
    # pushing the primitive function type over a plain two-variable
    # context gives the same adapter as the encoded one
    plain_ctx = (TyEntry(NEG, POS, ()), TyEntry(POS, POS, ()))
    plain_ty = Pi(TyVarRef(1, ()), shift(TyVarRef(0, ()), 1, 0))
    plain_tr = Trans((KAd(q_BA, B, 0), KAd(g_CD, D, 0)))
    lhs = push_ty(plain_ty, plain_tr, plain_ctx)
    rhs = push_ty(GENERIC, TR, PI_CTX)
    assert conv_ad((), lhs, rhs) is not None


def test_vertical_composition_in_the_dual_reading():
    # the same spines read against the dualized context compose in the
    # opposite order; the functor law must hold there too, covering the
    # remaining rows of the direction table
    from adaptt.transform import vcomp
    from adaptt.normalize import compose_ad
    from helpers import r_CB, q_DC
    tr2 = Trans((KAd(r_CB, C, 0), KAd(shift(q_DC, 1, 0), shift(D, 1, 0), 1)))
    dual = dual_ctx(PI_CTX)
    composite = vcomp(TR, tr2, dual)
    assert trans_source(dual, composite) == \
        Sub((STy(C, 0), STy(shift(C, 1, 0), 1)))
    assert trans_target(dual, composite) == SIGMA
    ty = Ind("List", Sub((STy(TyVarRef(1, ()), 0),)), ())
    lhs = push_ty(ty, composite, dual)
    rhs = compose_ad(push_ty(ty, TR, dual), push_ty(ty, tr2, dual))
    assert conv_ad((), lhs, rhs) is not None


def test_vertical_composition_over_exotic_rows():
    # compose two function-former transformations componentwise and check
    # the functor law through the encoded type: this exercises vertical
    # composition at a contravariant entry and at a contravariant
    # dependency telescope, plus the conversion-side fusion
    from adaptt.transform import vcomp
    from adaptt.normalize import compose_ad
    from helpers import r_CB, q_DC
    tr2 = Trans((KAd(r_CB, C, 0), KAd(shift(q_DC, 1, 0), shift(D, 1, 0), 1)))
    assert trans_source(PI_CTX, tr2) == TAU
    assert trans_target(PI_CTX, tr2) == \
        Sub((STy(C, 0), STy(shift(C, 1, 0), 1)))
    composite = vcomp(tr2, TR, PI_CTX)
    assert trans_source(PI_CTX, composite) == SIGMA
    lhs = push_ty(GENERIC, composite, PI_CTX)
    rhs = compose_ad(push_ty(GENERIC, tr2, PI_CTX),
                     push_ty(GENERIC, TR, PI_CTX))
    assert conv_ad((), lhs, rhs) is not None
