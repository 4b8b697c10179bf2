"""Rewrite engine: substitution pushing, composition laws, cast
computation, beta, conversion with eta."""

from collections import Counter

import pytest

from adaptt.inductive import nat_succ, nat_zero, register
from adaptt.syntax import (
    POS, NEG, TmEntry, TyEntry, Base, TyVarRef, Pi, Sig, Ind,
    Var, Lam, App, Pair, Fst, Snd, Cast, Con, AdId, Chain, Post, PiAd, SigAd,
    IndAd, Sub, STy, Trans, KAd, ConDesc, IndDesc, RecDesc, id_sub, shift,
)
from adaptt.normalize import (
    apply, compose_ad, cast, app, fst_, snd_,
    pi_tel, nf, conv_ty, conv_tm, conv_ad, conv_inst, assert_normal,
    NormalForm, KernelError, open_tm_block, note, replayed_cache, set_trace,
)
from helpers import A, B, C, f_AB, g_BC, h_CD, list_ty, nil, cons, list_ad, q_DC
from perfbench.gen import FUN_A, KERNEL_CTX, NAT
from test_session_memo import in_fresh_session, traced


def ctx_ab():
    return (TmEntry(POS, A), TmEntry(POS, B))


# -- substitution -----------------------------------------------------------


def test_tyvar_resolution():
    # X[<> |>ty A]  ->  A, for X the sole type variable
    sub = Sub((STy(A, 0),))
    assert apply(TyVarRef(0, ()), sub) == A


def test_identity_substitution():
    # context with a one-binder type variable and a term variable
    ctx = (TyEntry(POS, POS, (A,)), TmEntry(POS, A))
    ty = Pi(A, TyVarRef(0, (Var(0),)))
    assert apply(ty, id_sub(ctx)) == ty


def test_pi_substitution_lifts():
    # (Pi A . X x)[X := constant family]  pushes under the binder
    src = Pi(A, TyVarRef(0, (Var(0),)))
    out = apply(src, Sub((STy(Sig(B, A), 1),)))
    # family ignores its argument: (x => B ** A) applied to the bound var
    assert out == Pi(A, Sig(B, A))


@pytest.mark.parametrize("x, pushes", [
    (Lam(A, App(Var(0), Var(1))), 1),
    (Pi(A, Sig(B, A)), 2),
    (App(Var(0), Var(0)), 0),
    # only the stored Pi endpoints: the adapter itself binds nothing
    (PiAd(f_AB, g_BC, Pi(B, B), Pi(A, C)), 2),
])
def test_apply_reports_a_push_at_each_binder_former_only(x, pushes):
    # SUB_PUSH marks each node of syntax.BINDER_DIR the substitution walks
    _, seen = traced(lambda: apply(x, Sub((Var(3),))))
    assert Counter(seen)["SUB_PUSH"] == pushes


def test_family_instantiation_uses_argument():
    # dependent family: body mentions its own binder (Var 0 inside Sig snd)
    fam = STy(Sig(B, TyVarRef(0, (Var(1),))), 1)
    use = TyVarRef(0, (Var(0),))
    out = apply(use, Sub((fam, Var(5))))
    # the use's argument Var(0) maps to Var(5), then fills the binder
    assert out == Sig(B, TyVarRef(0, (Var(6),)))


def test_compose_sub_identity_law():
    ctx = ctx_ab()
    sigma = Sub((Var(1), Var(0)))
    assert apply(id_sub(ctx), sigma) == sigma
    assert apply(sigma, id_sub(ctx)) == sigma


def test_compose_sub_associativity():
    s1 = Sub((Var(0),))
    s2 = Sub((Var(1),))
    s3 = Sub((Var(0), Var(1)))
    lhs = apply(apply(s1, s2), s3)
    rhs = apply(s1, apply(s2, s3))
    assert lhs == rhs


def test_sub_error_on_missing_component():
    with pytest.raises(KernelError):
        apply(Var(2), Sub((Var(0),)))


# -- adapter composition ----------------------------------------------------


def test_compose_identity_laws():
    assert compose_ad(AdId(A), f_AB) == f_AB
    assert compose_ad(f_AB, AdId(A)) == f_AB
    assert compose_ad(AdId(A), AdId(A)) == AdId(A)


def test_compose_flattens_associatively():
    lhs = compose_ad(h_CD, compose_ad(g_BC, f_AB))
    rhs = compose_ad(compose_ad(h_CD, g_BC), f_AB)
    assert lhs == rhs == Chain((f_AB, g_BC, h_CD))
    assert_normal(lhs)


# -- cast computation -------------------------------------------------------


def test_cast_identity():
    t = Var(0)
    assert cast(t, AdId(A)) == t


def test_cast_splits_chains():
    t = Var(0)
    out = cast(t, compose_ad(g_BC, f_AB))
    assert out == Cast(Cast(t, f_AB), g_BC)
    assert_normal(out)


def test_cast_list_cons():
    # cons[A > a > l] <| List{{f}}  ->  cons[B > a<f> > l<List{{f}}>]
    ad = list_ad(f_AB, B)
    t = cons(A, Var(1), Var(0))
    out = cast(t, ad)
    assert out == cons(B, Cast(Var(1), f_AB), Cast(Var(0), ad))


def test_cast_pair_eagerly():
    sig_a = Sig(A, shift(B, 1, 0))
    sig_b = Sig(B, shift(C, 1, 0))
    ad = SigAd(f_AB, shift(g_BC, 1, 0), sig_a, sig_b)
    p = Pair(sig_a, Var(1), Var(0))
    out = cast(p, ad)
    assert out == Pair(sig_b, Cast(Var(1), f_AB), Cast(Var(0), g_BC))


def test_cast_stuck_on_neutral():
    out = cast(Var(0), f_AB)
    assert out == Cast(Var(0), f_AB)
    assert_normal(out)


# -- beta / projections / function casts ------------------------------------


def test_beta():
    assert app(Lam(A, Var(0)), Var(3)) == Var(3)


def test_app_through_function_cast():
    # (h <| Pi[[a > b]]) u  ->  (h (u <| a)) <| b[id > u]
    pi_ab = Pi(B, shift(C, 1, 0))
    pi_ab2 = Pi(A, shift(D_ty := Base("D"), 1, 0))
    ad = PiAd(f_AB, shift(h_CD, 1, 0), pi_ab, pi_ab2)
    h = Var(1)
    u = Var(0)
    out = app(Cast(h, ad), u)
    assert out == Cast(App(h, Cast(u, f_AB)), h_CD)


def test_projections_on_pairs():
    sig = Sig(A, shift(B, 1, 0))
    p = Pair(sig, Var(1), Var(0))
    assert fst_(p) == Var(1)
    assert snd_(p) == Var(0)


def test_projections_through_pair_cast():
    sig_a = Sig(A, shift(B, 1, 0))
    sig_b = Sig(B, shift(C, 1, 0))
    ad = SigAd(f_AB, shift(g_BC, 1, 0), sig_a, sig_b)
    p = Var(0)
    assert fst_(Cast(p, ad)) == Cast(Fst(p), f_AB)
    assert snd_(Cast(p, ad)) == Cast(Snd(p), g_BC)


def test_nf_beta():
    t = App(Lam(A, Var(0)), Var(2))
    assert nf(t).value == Var(2)


# -- iterated Pi ------------------------------------------------------------


def test_pi_tel():
    assert pi_tel((), A) == A
    assert pi_tel((A,), B) == Pi(A, B)
    assert pi_tel((A, B), C) == Pi(A, Pi(B, C))


# -- normal forms -----------------------------------------------------------


def test_nf_idempotent():
    t = App(Lam(A, Cast(Var(0), compose_ad(g_BC, f_AB))), Var(1))
    one = nf(t)
    assert nf(one) is one
    assert nf(one.value).value == one.value
    assert_normal(one.value)


def test_nf_idempotent_randomized():
    # randomized well-formed casts: normalize once, normalizing again is
    # the identity and the invariant scan holds
    from gen import Gen
    from adaptt.normalize import apply
    from adaptt.transform import push_ty, trans_source
    from adaptt.syntax import TyEntry
    g = Gen(seed=7)
    x_ctx = (TyEntry(POS, POS, ()),)
    for _ in range(50):
        a, mu, _, _ = g.triple(depth=2)
        f = push_ty(a, mu, x_ctx)
        t = g.tm_of(apply(a, trans_source(x_ctx, mu)), depth=2)
        v = nf(Cast(t, f)).value
        assert nf(v).value == v
        assert_normal(v)


# -- conversion -------------------------------------------------------------


def test_conv_cast_functoriality():
    ctx = (TmEntry(POS, A),)
    t = Var(0)
    lhs = cast(t, compose_ad(g_BC, f_AB))
    rhs = cast(cast(t, f_AB), g_BC)
    assert conv_tm(ctx, C, lhs, rhs)


def test_conv_cast_identity():
    ctx = (TmEntry(POS, A),)
    assert conv_tm(ctx, A, cast(Var(0), AdId(A)), Var(0))


def test_conv_eta_function():
    # h == fun x => h x   at  B -> C
    ty = Pi(B, shift(C, 1, 0))
    ctx = (TmEntry(POS, ty),)
    h = Var(0)
    expanded = Lam(B, App(Var(1), Var(0)))
    assert conv_tm(ctx, ty, h, expanded)


def test_conv_eta_pair():
    ty = Sig(A, shift(B, 1, 0))
    ctx = (TmEntry(POS, ty),)
    p = Var(0)
    assert conv_tm(ctx, ty, p, Pair(ty, Fst(p), Snd(p)))


def test_conv_distinguishes_constructors():
    ctx = (TmEntry(POS, A), TmEntry(POS, list_ty(A)))
    lhs = nil(A)
    rhs = cons(A, Var(1), Var(0))
    assert not conv_tm(ctx, list_ty(A), lhs, rhs)


def test_conv_rejects_different_postulate_casts():
    ctx = (TmEntry(POS, Base("D")),)
    lhs = cast(Var(0), q_DC)
    rhs = cast(Var(0), Post("other", Base("D"), C))
    assert not conv_tm(ctx, C, lhs, rhs)


def test_conv_distinguishes_two_type_variables():
    ctx = (TyEntry(POS, POS, ()), TyEntry(POS, POS, ()))
    assert not conv_ty(ctx, TyVarRef(0, ()), TyVarRef(1, ()))


# Two constructors at different parameters, or two datatype adapters of
# different datatypes, never share a type, so no well-typed equation
# compares them: the kernel is called directly.


def test_conv_distinguishes_constructors_at_other_parameters():
    assert not conv_tm((), list_ty(A), nil(A), nil(B))


def test_conv_distinguishes_adapters_of_two_datatypes():
    two = IndAd("Sum", Trans((KAd(f_AB, B, 0), KAd(f_AB, B, 0))))
    assert conv_ad((), list_ad(f_AB, B), two) is None


# Malformed spines: a constructor or an instantiation of the wrong length
# is a kernel error, not an answer (``tests/test_spine_reader.py`` has
# the substitution's).


def test_conv_rejects_a_constructor_of_the_wrong_arity():
    ctx = (TmEntry(POS, A), TmEntry(POS, list_ty(A)))
    short = Con("List", 1, Sub((STy(A, 0),)), (Var(1),))
    with pytest.raises(KernelError, match="instantiation length mismatch"):
        conv_tm(ctx, list_ty(A), short, cons(A, Var(1), Var(0)))


def test_conv_rejects_an_instantiation_of_the_wrong_length():
    with pytest.raises(KernelError, match="instantiation length mismatch"):
        conv_inst((TmEntry(POS, A),), (A,), (Var(0),), ())


# -- runs of equal cells --------------------------------------------------------
#
# ``conv_tm`` reads what a cell's datatype, tag, two parameter spines and
# context determine once per run of cells on which all five agree.  In
# each case below a cell differs from the one above it in one of them,
# and must be read afresh.  A cell at other parameters than its type's
# never occurs in a well-typed pair, so the kernel is called directly.


@pytest.mark.parametrize("left, right", [(B, A), (A, B)],
                         ids=["left", "right"])
def test_a_cell_at_other_parameters_than_the_one_above_is_compared(left, right):
    # cons A a (cons left a l) against cons A a (cons right a l)
    ctx = (TmEntry(POS, A), TmEntry(POS, list_ty(A)))
    lhs, rhs = (cons(A, Var(1), cons(p, Var(1), Var(0))) for p in (left, right))
    assert not conv_tm(ctx, list_ty(A), lhs, rhs)


#: ``data Q (X : Ty+) { q0 : (x : X) (r : Q X) -> Q X ;
#: q1 : (x : X) (y : X) (l : List X) -> Q X }``: a second constructor of
#: another arity, and a cell of another datatype below at the same
#: parameters
Q = IndDesc("Q", (TyEntry(POS, POS, ()),), (), (
    ConDesc("q0", (TyVarRef(0, ()),), (RecDesc((), ()),), ()),
    ConDesc("q1", (TyVarRef(0, ()), TyVarRef(0, ()),
                   list_ty(TyVarRef(0, ()))), (), ())))


def q(tag, *args):
    return Con("Q", tag, Sub((STy(FUN_A, 0),)), args)


def eta(h):
    """``fun (n : Nat) => h n``"""
    return Lam(NAT, App(shift(h, 1, 0), Var(0)))


@pytest.mark.parametrize("build", [
    lambda h, r: q(0, h, q(1, h, h, r)),
    lambda h, r: q(1, h, h, cons(FUN_A, h, r)),
], ids=["tag", "datatype"])
def test_a_cell_of_another_constructor_below_is_read_as_its_own(build):
    # over h : Nat -> A and l : List (Nat -> A); the two sides differ in
    # the cell below only, where one head is eta-expanded
    ctx = (TmEntry(POS, Pi(NAT, A)), TmEntry(POS, list_ty(FUN_A)))

    def run():
        register(Q)
        below = cons(FUN_A, Var(1), Var(0))
        lhs = build(Var(1), below)
        rhs = build(Var(1), cons(FUN_A, eta(Var(1)), Var(0)))
        return conv_tm(ctx, Ind("Q", lhs.params, ()), lhs, rhs)
    out, _ = in_fresh_session(run)
    assert out is True


def test_a_cell_under_a_binder_is_compared_in_its_own_context():
    # data R (X : Ty+) (x : X) { r : (k : Nat -> R X x) -> R X x }, over
    # h : Nat -> A and F : (Nat -> A) -> A.  The cell below sits under the
    # branch binder n, where the parameter nodes of the cell above read
    # n h and n (fun m => h m), which do not convert: its parameters are
    # compared in the extended context, not taken over from the cell
    # above.  (In a well-typed pair the parameters below a binder are the
    # shift of those above, the same nodes only when they mention no term
    # variable.)  The cells below share their one argument, so they
    # differ in parameters only
    r_desc = IndDesc("R", (TyEntry(POS, POS, ()), TmEntry(POS, TyVarRef(0, ()))),
                     (), (ConDesc("r", (), (RecDesc((NAT,), ()),), ()),))
    ctx = (TmEntry(POS, Pi(NAT, A)), TmEntry(POS, Pi(Pi(NAT, A), A)))

    def cell(arg):
        params = Sub((STy(A, 0), App(Var(0), arg)))
        below = Con("R", 0, params, (Var(2),))
        return params, Con("R", 0, params, (Lam(NAT, below),))

    def run():
        register(r_desc)
        (params, lhs), (_, rhs) = cell(Var(1)), cell(eta(Var(1)))
        return conv_tm(ctx, Ind("R", params, ()), lhs, rhs)
    out, _ = in_fresh_session(run)
    assert out is False


def test_a_vector_conversion_reports_the_steps_of_each_cell():
    # a Vec telescope opens each cell's tail type at the cell's length, so
    # every cell reports its SUB_VAR: 64-cell pairs that differ in the
    # innermost head, which is eta-expanded (converts) or another variable
    def vec(elem, heads):
        params, length = Sub((STy(elem, 0),)), nat_zero()
        out = Con("Vec", 0, params, ())
        for hd in reversed(heads):
            out = Con("Vec", 1, params, (hd, length, out))
            length = nat_succ(length)
        return out, Ind("Vec", params, (length,))

    hs = [Var(k % 2) for k in range(64)]
    xs = [Var(2 + k % 4) for k in range(64)]
    pairs = {
        "eta": (vec(FUN_A, hs), vec(FUN_A, hs[:-1] + [eta(hs[-1])])),
        "near": (vec(A, xs), vec(A, xs[:-1] + [Var(2)])),
    }
    want = {
        "eta": (True, {"BETA": 1, "ETA_FUN": 1, "PI_TEL_EMPTY": 64,
                       "SUB_TYVAR": 128, "SUB_VAR": 65}),
        "near": (False, {"PI_TEL_EMPTY": 64, "SUB_TYVAR": 128,
                         "SUB_VAR": 63}),
    }
    for name, ((lhs, ty), (rhs, _)) in pairs.items():
        (out, rules), _ = in_fresh_session(
            lambda: traced(lambda: conv_tm(KERNEL_CTX, ty, lhs, rhs)))
        assert (out, Counter(rules)) == want[name], name


def test_open_block_shifts_free_vars():
    # open (x. f x y) with [u] where y is free
    body = App(Var(2), Var(0))
    out = open_tm_block(body, (Var(4),))
    assert out == App(Var(1), Var(4))


def test_substitution_functoriality_randomized():
    # x[s o t] == x[s][t] and x[id] == x, structurally, on generated
    # types and terms (substitution computes eagerly on both routes)
    from gen import Gen, AMBIENT
    from adaptt.syntax import id_sub, TmEntry, TyEntry
    from adaptt.transform import trans_source
    g = Gen(seed=11)
    x_ctx = (TyEntry(POS, POS, ()),)
    wk = Sub(tuple(shift(c, 1, 0) for c in id_sub(AMBIENT).comps))
    for _ in range(50):
        a, mu, _, sigma = g.triple(depth=2)
        t = g.tm_of(apply(a, sigma), depth=2)
        for x in (apply(a, sigma), t):
            assert apply(x, id_sub(AMBIENT)) == x
            assert apply(apply(x, id_sub(AMBIENT)), wk) == \
                apply(x, apply(id_sub(AMBIENT), wk)) == apply(x, wk)
        # and through a genuinely non-identity spine into the type's
        # own context: a[sigma o wk] == a[sigma][wk]
        assert apply(a, apply(sigma, wk)) == apply(apply(a, sigma), wk)


# -- cached computations and the trace ----------------------------------------


def test_replayed_cache_reports_steps_on_hits_and_failures():
    runs = []

    @replayed_cache
    def step(x):
        runs.append(x)
        note("BETA")
        if x < 0:
            raise KernelError("negative")
        note("CAST_ID")
        return x

    seen = []
    set_trace(lambda rule, path: seen.append(rule))
    try:
        assert step(1) == 1 and step(1) == 1
        assert runs == [1]
        assert seen == ["BETA", "CAST_ID"] * 2
        seen.clear()
        for _ in range(2):
            with pytest.raises(KernelError):
                step(-1)
        assert runs == [1, -1, -1]
        assert seen == ["BETA"] * 2
    finally:
        set_trace(None)
    assert step.cache_info().hits == 1

    # the constructor telescope memo, on a hit and on its first call
    from adaptt.inductive import con_args_tel
    from adaptt.syntax import desc
    d, params = desc("List"), Sub((STy(Base("replay-probe"), 0),))
    seen.clear()
    set_trace(lambda rule, path: seen.append(rule))
    try:
        first = con_args_tel(d, 1, params)
        steps = list(seen)
        hits = con_args_tel.cache_info().hits
        assert con_args_tel(d, 1, params) is first
    finally:
        set_trace(None)
    assert con_args_tel.cache_info().hits == hits + 1
    assert "SUB_TYVAR" in steps
    assert seen == steps * 2


def test_a_full_telescope_memo_drops_its_oldest_entry(monkeypatch):
    from adaptt.inductive import con_args_tel
    from adaptt.normalize import _Bounded
    from adaptt.syntax import desc
    table = con_args_tel.cache_info()
    saved = dict(table)
    table.clear()
    monkeypatch.setattr(_Bounded, "SIZE", 4)
    d = desc("List")
    spines = [Sub((STy(Base(f"evict-probe-{k}"), 0),)) for k in range(5)]
    seen = []
    set_trace(lambda rule, path: seen.append(rule))
    try:
        firsts = []
        for params in spines:
            seen.clear()
            con_args_tel(d, 1, params)
            firsts.append(list(seen))
        assert len(table) == 4
        assert (con_args_tel.__wrapped__, d, 1, spines[0]) not in table
        misses = table.misses
        seen.clear()
        con_args_tel(d, 1, spines[0])
        assert table.misses == misses + 1
        assert "SUB_TYVAR" in firsts[0] and seen == firsts[0]
    finally:
        set_trace(None)
        table.clear()
        dict.update(table, saved)   # not through the evicting __setitem__
