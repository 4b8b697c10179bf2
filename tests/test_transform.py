"""Functorial action on transformations: structural push, whiskering,
vertical composition, naturality."""

from adaptt.syntax import (
    POS, NEG, TmEntry, TyEntry, Base, TyVarRef, Pi, Sig, Ind,
    Var, Cast, AdId, Chain, Post, PiAd, SigAd, IndAd,
    Sub, STm, STy, Trans, KTm, KAd, id_sub, shift,
)
from adaptt.normalize import (
    apply, cast, compose_ad, conv_ad, conv_tm, ad_src, ad_tgt,
)
from adaptt.transform import (
    push_ty, push_tel, trans_source, trans_target, whisker_left,
    whisker_right, vcomp, id_trans, cast_block_vars,
    check_naturality_tm, check_naturality_ad, fuse_chain,
)
from helpers import A, B, C, D, f_AB, g_BC, h_CD, q_DC, list_ty
from test_session_memo import in_fresh_session, traced


X_CTX = (TyEntry(POS, POS, ()),)          # (X : Ty+)
MU_F = Trans((KAd(f_AB, B, 0),))          # <> |> f : [A] => [B]


def test_push_type_variable_projects_component():
    assert push_ty(TyVarRef(0, ()), MU_F, X_CTX) == f_AB


def test_push_list_wraps_component():
    out = push_ty(list_ty(TyVarRef(0, ())), MU_F, X_CTX)
    assert out == IndAd("List", MU_F)
    assert ad_src(out) == list_ty(A)
    assert ad_tgt(out) == list_ty(B)


def test_push_identity_gives_identity():
    tr = Trans((KAd(AdId(A), A, 0),))
    out = push_ty(list_ty(TyVarRef(0, ())), tr, X_CTX)
    assert out == AdId(list_ty(A))


def test_push_constant_type_gives_identity():
    assert push_ty(C, MU_F, X_CTX) == AdId(C)


def test_push_pi_builds_function_adapter():
    # over (X:Ty-) |> (Y:Ty+): Pi X . Y  pushed along [a > b]
    ctx = (TyEntry(NEG, POS, ()), TyEntry(POS, POS, ()))
    a = Post("a", B, A)        # contravariant component: target => source
    b = Post("b", C, Base("D"))
    tr = Trans((KAd(a, B, 0), KAd(b, Base("D"), 0)))
    ty = Pi(TyVarRef(1, ()), shift(TyVarRef(0, ()), 1, 0))
    out = push_ty(ty, tr, ctx)
    assert isinstance(out, PiAd)
    assert out.dom_ad == a
    assert out.cod_ad == shift(b, 1, 0)
    assert out.src_ty == Pi(A, shift(C, 1, 0))
    assert out.tgt_ty == Pi(B, shift(Base("D"), 1, 0))


def test_push_sigma_builds_pair_adapter():
    ctx = (TyEntry(POS, POS, ()), TyEntry(POS, POS, ()))
    tr = Trans((KAd(f_AB, B, 0), KAd(g_BC, C, 0)))
    ty = Sig(TyVarRef(1, ()), shift(TyVarRef(0, ()), 1, 0))
    out = push_ty(ty, tr, ctx)
    assert isinstance(out, SigAd)
    assert out.fst_ad == f_AB
    assert out.snd_ad == shift(g_BC, 1, 0)


def test_push_telescope_componentwise():
    assert push_tel((), MU_F, X_CTX) == ()
    one = push_tel((TyVarRef(0, ()),), MU_F, X_CTX)
    assert one == (f_AB,)
    two = push_tel((TyVarRef(0, ()), shift(TyVarRef(0, ()), 1, 0)), MU_F, X_CTX)
    assert two == (f_AB, shift(f_AB, 1, 0))


# -- endpoints --------------------------------------------------------------


def test_endpoints_of_forced_term_component():
    # target of (mu |> t) at a dependent entry is t cast by the prefix
    ctx = X_CTX + (TmEntry(POS, TyVarRef(0, ())),)
    tr = Trans((KAd(f_AB, B, 0), KTm(Var(0))))
    src = trans_source(ctx, tr)
    tgt = trans_target(ctx, tr)
    assert src == Sub((STy(A, 0), STm(Var(0))))
    assert tgt == Sub((STy(B, 0), STm(Cast(Var(0), f_AB))))


def test_dual_reading_swaps_endpoints():
    from adaptt.syntax import dual_ctx
    ctx = X_CTX + (TmEntry(POS, TyVarRef(0, ())),)
    tr = Trans((KAd(f_AB, B, 0), KTm(Var(0))))
    assert trans_source(dual_ctx(ctx), tr) == trans_target(ctx, tr)
    assert trans_target(dual_ctx(ctx), tr) == trans_source(ctx, tr)


# -- whiskering -------------------------------------------------------------


def test_whisker_right_by_identity():
    ctx = (TmEntry(POS, A),)
    tr = Trans((KAd(f_AB, B, 0), KTm(Var(0))))
    assert whisker_right(tr, id_sub(ctx)) == tr


def test_whisker_left_by_identity_spine():
    ctx = X_CTX
    out = whisker_left(id_sub(ctx), ctx, MU_F, ctx)
    assert out == MU_F


def test_whisker_left_extension_by_type():
    # (<> |> List X) o mu  ->  <> |> List{{mu}}
    rho = Sub((STy(list_ty(TyVarRef(0, ())), 0),))
    tgt = (TyEntry(POS, POS, ()),)
    out = whisker_left(rho, tgt, MU_F, X_CTX)
    assert out == Trans((KAd(IndAd("List", MU_F), list_ty(B), 0),))


# -- vertical composition ---------------------------------------------------


def test_vcomp_identity():
    sub = Sub((STy(A, 0),))
    ident = id_trans(X_CTX, sub)
    out = vcomp(MU_F, ident, X_CTX)
    assert trans_source(X_CTX, out) == Sub((STy(A, 0),))
    assert trans_target(X_CTX, out) == Sub((STy(B, 0),))
    assert conv_ad((), out.comps[0].ad, f_AB) is not None


def test_vcomp_composes_components():
    nu = Trans((KAd(g_BC, C, 0),))
    out = vcomp(nu, MU_F, X_CTX)
    assert out.comps[0].ad == Chain((f_AB, g_BC))
    assert trans_source(X_CTX, out) == Sub((STy(A, 0),))
    assert trans_target(X_CTX, out) == Sub((STy(C, 0),))


def test_interchange_on_small_spines():
    # whisker then compose vs compose then whisker, on a 1-entry context
    rho = Sub((STy(list_ty(TyVarRef(0, ())), 0),))
    tgt = (TyEntry(POS, POS, ()),)
    nu = Trans((KAd(g_BC, C, 0),))
    lhs = whisker_left(rho, tgt, vcomp(nu, MU_F, X_CTX), X_CTX)
    rhs = vcomp(whisker_left(rho, tgt, nu, X_CTX),
                whisker_left(rho, tgt, MU_F, X_CTX), tgt)
    from adaptt.normalize import conv_trans
    assert conv_trans((), tgt, lhs, rhs)


# -- block adjustment -------------------------------------------------------


def test_cast_block_vars_shifts_components():
    # one-variable block: the variable is cast by the single component
    out = cast_block_vars(Var(0), (f_AB,), 1)
    assert out == Cast(Var(0), shift(f_AB, 1, 0))
    # variables beyond the block are untouched
    assert cast_block_vars(Var(1), (f_AB,), 1) == Var(1)


# -- naturality (property driver) -------------------------------------------


def test_naturality_tm_variable():
    # t = 0tm over (X:Ty+) |> (x:X): both sides are the forced component
    tgt = X_CTX + (TmEntry(POS, TyVarRef(0, ())),)
    ctx = (TmEntry(POS, A),)
    tr = Trans((KAd(f_AB, B, 0), KTm(Var(0))))
    assert check_naturality_tm(ctx, tgt, Var(0), TyVarRef(0, ()), tr)


def test_naturality_tm_constant():
    ctx = (TmEntry(POS, A),)
    tgt = X_CTX
    from helpers import nil
    assert check_naturality_tm(ctx, tgt, nil(C), list_ty(C), MU_F)


def test_naturality_ad_identity_adapter():
    ctx = (TmEntry(POS, A),)
    assert check_naturality_ad(ctx, X_CTX, AdId(TyVarRef(0, ())), MU_F)


def test_naturality_ad_structural():
    # f := List X {{nu}} for nu a postulate component; ADTRANS becomes an
    # interchange instance discharged by chain fusion
    ctx = (TmEntry(POS, A),)
    inner = IndAd("List", MU_F)
    assert check_naturality_ad(ctx, X_CTX, inner, Trans((KAd(AdId(A), A, 0),)))


# -- chain fusion (conversion side) ------------------------------------------


def test_fuse_list_adapters():
    one = IndAd("List", MU_F)
    two = IndAd("List", Trans((KAd(g_BC, C, 0),)))
    fused = fuse_chain((one, two))
    assert len(fused) == 1
    assert fused[0] == IndAd("List", Trans((KAd(Chain((f_AB, g_BC)), C, 0),)))


def test_fuse_keeps_postulates_free():
    assert fuse_chain((f_AB, g_BC)) == (f_AB, g_BC)


def test_fusion_of_a_mixed_chain_reports_its_rules_in_order():
    # List, List, postulate, Pi, Pi, Pi against the same chain with its
    # List links fused by hand; the rule sequence was recorded before
    # fusion became a left fold
    p = Post("p", list_ty(C), Pi(C, A))
    pis = (PiAd(q_DC, f_AB, Pi(C, A), Pi(D, B)),
           PiAd(h_CD, g_BC, Pi(D, B), Pi(C, C)),
           PiAd(q_DC, h_CD, Pi(C, C), Pi(D, D)))
    lists = (IndAd("List", MU_F), IndAd("List", Trans((KAd(g_BC, C, 0),))))
    chain = Chain(lists + (p,) + pis)
    by_hand = Chain((IndAd("List", Trans((KAd(Chain((f_AB, g_BC)), C, 0),))),
                     p) + pis)
    (same, seen), _ = in_fresh_session(
        lambda: traced(lambda: conv_ad((), chain, by_hand)))
    assert same is True
    assert seen == ["FUSE_IND", "FUSE_PI", "FUSE_PI", "FUSE_PI", "FUSE_PI"]
    assert len(fuse_chain(chain.parts)) == 3


def test_functor_law_for_actions():
    # A{{nu o mu}} == A{{nu}} . A{{mu}} as adapters
    nu = Trans((KAd(g_BC, C, 0),))
    ty = list_ty(TyVarRef(0, ()))
    lhs = push_ty(ty, vcomp(nu, MU_F, X_CTX), X_CTX)
    rhs = compose_ad(push_ty(ty, nu, X_CTX), push_ty(ty, MU_F, X_CTX))
    assert conv_ad((), lhs, rhs) is not None


def test_exchange_with_substitution():
    # A{{mu}}[d] == A{{mu o d}} : the action commutes with substitution
    from adaptt.normalize import apply, conv_ad
    ctx = (TmEntry(POS, A),)
    tgt = X_CTX + (TmEntry(POS, TyVarRef(0, ())),)
    tr = Trans((KAd(f_AB, B, 0), KTm(Var(0))))
    ty = Ind("List", Sub((STy(TyVarRef(0, ()), 0),)), ())
    pushed = push_ty(ty, tr, tgt)
    delta = Sub((STm(Var(1)),))  # reindex the ambient variable
    lhs = apply(pushed, delta)
    whiskered = whisker_right(tr, delta)
    rhs = push_ty(ty, whiskered, tgt)
    assert conv_ad((TmEntry(POS, B), TmEntry(POS, A)), lhs, rhs) is not None
