"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured counts so the suite doubles as a report.

Criteria (all property- or oracle-based):
  1. stock computation rows derive and convert, plus a datatype that is
     not in the stock table; under one second in total
  2. functor laws on >= 200 generated triples; under ten seconds
  3. naturality on >= 100 generated instances
  4. function-former functoriality up to casts on >= 20 instances
  5. set-model agreement on >= 500 conversion-equal pairs under three
     bindings of sizes 1..3; every evaluable pair must agree
  6. dualization involution and spine eta-counts on 1000 instances
  7. every traced rewrite name is in the fixed registry
  8. surface round-trip over the corpus, including stock-datatype
     declarations elaborating to the registered signatures
"""

import pathlib
import time

import adaptt  # noqa: F401  (registers the stock datatypes)
from adaptt.syntax import (
    POS, NEG, TmEntry, TyEntry, Base, TyVarRef, Pi, Sig, Ind,
    Var, Lam, App, Pair, Cast, Con, AdId, Chain, Post, PiAd, SigAd, IndAd,
    Sub, STy, Trans, KAd, dual_ctx, id_sub, shift, vinst, desc,
)
from adaptt import normalize as N
from adaptt import transform as T
from adaptt import setmodel as M
from adaptt.normalize import (
    apply, cast, app, compose_ad, conv_tm, conv_ad, nf, RULES, set_trace,
)
from adaptt.transform import (
    push_ty, trans_source, trans_target, vcomp, check_naturality_tm,
    check_naturality_ad,
)
from adaptt.inductive import cast_con, ind_adapter

from gen import (
    Gen, AMBIENT, AMBIENT_NAMES, BASES, STEP, A, B, C,
    path_adapter, pos_var, neg_var,
)


def report(name: str, detail: str):
    print(f"PASS {name}: {detail}")


X_CTX = (TyEntry(POS, POS, ()),)


# -- 1. stock computation rows -------------------------------------------------


def test_criterion_stock_rows():
    from adaptt import inductive
    t0 = time.perf_counter()
    results = inductive.run()
    dt = time.perf_counter() - t0
    failures = [label for label, ok in results if not ok]
    assert not failures, failures
    assert [label for label, _ in results] == [
        "Nat.zero", "Nat.succ", "List.nil", "List.cons", "Vec.vnil",
        "Vec.vcons", "Sum.inl", "Sum.inr", "W.sup", "Id.refl",
        "Tree.leaf", "Tree.node"]
    assert dt < 1.0, f"rows took {dt:.3f}s"
    report("stock-rows", f"{len(results)} rows in {dt * 1000:.0f} ms, "
                         "including the non-stock datatype")


# -- 2. functor laws -----------------------------------------------------------


def test_criterion_functor_laws():
    g = Gen(seed=101)
    t0 = time.perf_counter()
    n = 0
    for _ in range(200):
        a, mu, nu, sigma = g.triple(depth=2)
        src_sub = trans_source(X_CTX, mu)
        mid_sub = trans_target(X_CTX, mu)
        f = push_ty(a, mu, X_CTX)
        h = push_ty(a, Trans(nu.comps), X_CTX)
        a_src = apply(a, src_sub)
        t = g.tm_of(a_src, depth=2)

        # cast functoriality on terms
        lhs = cast(t, compose_ad(h, f))
        rhs = cast(cast(t, f), h)
        a_end = apply(a, trans_target(X_CTX, nu))
        assert conv_tm(AMBIENT, a_end, lhs, rhs)
        assert conv_tm(AMBIENT, a_src, cast(t, AdId(a_src)), t)

        # identity and composition for the action itself
        ident = Trans((KAd(AdId(src_sub.comps[0].ty), src_sub.comps[0].ty, 0),))
        assert N.is_id_ad(push_ty(a, ident, X_CTX))
        composite = push_ty(a, vcomp(nu, mu, X_CTX), X_CTX)
        assert conv_ad(AMBIENT, composite, compose_ad(h, f)) is not None
        n += 1
    dt = time.perf_counter() - t0
    assert n >= 200 and dt < 10.0, (n, dt)
    report("functor-laws", f"{n} triples in {dt:.2f} s")


# -- 3. naturality --------------------------------------------------------------


def _tm_over_x_ctx(g: Gen, depth: int = 1):
    """A term over (X:Ty+) |> (x:X) of a type over the same context."""
    pick = g.rng.randrange(3)
    x_ty = TyVarRef(0, ())
    if pick == 0:
        return Var(0), x_ty
    if pick == 1:
        lst = Ind("List", Sub((STy(x_ty, 0),)), ())
        t = Con("List", 0, Sub((STy(x_ty, 0),)), ())
        for _ in range(g.rng.randrange(0, 3)):
            t = Con("List", 1, Sub((STy(x_ty, 0),)), (Var(0), t))
        return t, lst
    idt = Ind("Id", Sub((STy(x_ty, 0), Var(0))), (Var(0),))
    return Con("Id", 0, Sub((STy(x_ty, 0), Var(0))), ()), idt


def test_criterion_naturality():
    g = Gen(seed=202)
    n = 0
    # term naturality: t[src]<A{{mu}}> == t[tgt]
    for _ in range(60):
        s = g.base_name()
        t_ = g.base_name()
        tgt_ctx = X_CTX + (TmEntry(POS, TyVarRef(0, ())),)
        tr = Trans((KAd(path_adapter(s, t_), Base(t_), 0),
                    pos_var(s)))
        tm, ty = _tm_over_x_ctx(g)
        assert check_naturality_tm(AMBIENT, tgt_ctx, tm, ty, tr)
        n += 1
    # adapter naturality: b{{mu}} o f[src] == f[tgt] o a{{mu}}; the
    # adapters are genuinely variable-dependent: the action of a mixing
    # type on a transformation that is the identity at the variable and
    # a ground adapter at a closed slot
    two = (TyEntry(POS, POS, ()), TyEntry(POS, POS, ()))
    for _ in range(60):
        s = g.base_name()
        t_ = g.base_name()
        u = g.base_name()
        v = g.base_name()
        mixer = g.ty_over_two(depth=2)
        inner = Trans((KAd(AdId(TyVarRef(0, ())), TyVarRef(0, ()), 0),
                       KAd(path_adapter(u, v), Base(v), 0)))
        f = push_ty(mixer, inner, two)
        mu = Trans((KAd(path_adapter(s, t_), Base(t_), 0),))
        assert check_naturality_ad(AMBIENT, X_CTX, f, mu)
        n += 1
    assert n >= 100
    report("naturality", f"{n} instances (term and adapter forms)")


# -- 4. function-former functoriality up to casts --------------------------------


def test_criterion_pi_functoriality_up_to_cast():
    g = Gen(seed=303)
    n = 0
    for _ in range(20):
        # domain chain: a1 : B => C, a2 : A => B (new domains leftward)
        a1 = STEP["B"]          # B => C
        a2 = STEP["A"]          # A => B
        # codomain chain over closed families
        u = g.base_name()
        v = STEP[u].tgt_ty.name
        w = STEP[v].tgt_ty.name
        b1 = STEP[u]
        b2 = STEP[v]
        src = Pi(C, shift(Base(u), 1, 0))
        mid = Pi(B, shift(Base(v), 1, 0))
        tgt = Pi(A, shift(Base(w), 1, 0))
        pi1 = PiAd(a1, shift(b1, 1, 0), src, mid)
        pi2 = PiAd(a2, shift(b2, 1, 0), mid, tgt)
        fused = PiAd(compose_ad(a1, a2),
                     shift(compose_ad(b2, b1), 1, 0), src, tgt)
        ctx = AMBIENT + (TmEntry(POS, src),)
        h = Var(0)
        lhs = cast(h, fused)
        rhs = cast(cast(h, pi1), pi2)
        assert conv_tm(ctx, tgt, lhs, rhs)
        n += 1
    assert n >= 20
    report("pi-functoriality", f"{n} instances discharged through eta")


# -- 5. set-model oracle ---------------------------------------------------------


def _iter_conv_pairs(g: Gen, count: int):
    """Conversion-equal term pairs over the ambient context, built as raw
    trees so the two routes stay distinct; each comes with its type."""
    from adaptt.syntax import Fst, Snd
    made = 0
    while made < count:
        kind = g.rng.randrange(6)
        if kind == 0:
            # cast functoriality: t<g.f> vs t<f><g>
            a, mu, nu, _ = g.triple(depth=1)
            f = push_ty(a, mu, X_CTX)
            h = push_ty(a, nu, X_CTX)
            t = g.tm_of(apply(a, trans_source(X_CTX, mu)), depth=1)
            lhs = Cast(t, Chain((f, h)) if not isinstance(f, AdId)
                       and not isinstance(h, AdId) else compose_ad(h, f))
            rhs = Cast(Cast(t, f), h) if not (isinstance(f, AdId)
                                              or isinstance(h, AdId)) else lhs
            ty = apply(a, trans_target(X_CTX, nu))
            yield lhs, rhs, ty
        elif kind == 1:
            # identity cast
            a, mu, _, _ = g.triple(depth=1)
            src = apply(a, trans_source(X_CTX, mu))
            t = g.tm_of(src, depth=1)
            yield Cast(t, AdId(src)), t, src
        elif kind == 2:
            # beta: (fun x => body) u  vs  body[u]
            dom = Base(g.base_name())
            body_ty = Base(g.base_name())
            body = pos_var(body_ty.name)
            u = neg_var(dom.name)
            lhs = App(Lam(dom, shift(body, 1, 0)), u)
            yield lhs, body, body_ty
        elif kind == 3:
            # constructor cast row: raw cast vs derived form
            s = g.base_name()
            t_ = g.base_name()
            ad = ind_adapter("List", Trans((KAd(path_adapter(s, t_),
                                                Base(t_), 0),)), ())
            lst = g.tm_of(Ind("List", Sub((STy(Base(s), 0),)), ()), depth=1)
            lhs = Cast(lst, ad)
            rhs = cast_con(lst, ad.trans) if isinstance(lst, Con) else lhs
            yield lhs, rhs, Ind("List", Sub((STy(Base(t_), 0),)), ())
        elif kind == 4:
            # function cast applied: the application rule, both sides
            # (the domain adapter runs from the new domain to the old)
            s = g.base_name()
            t_ = g.base_name()
            u_b = g.base_name()
            v_b = g.base_name()
            da = path_adapter(s, t_)
            src = Pi(Base(t_), shift(Base(u_b), 1, 0))
            tgt = Pi(Base(s), shift(Base(v_b), 1, 0))
            ad = PiAd(da, shift(path_adapter(u_b, v_b), 1, 0), src, tgt)
            h = g.tm_of(src, depth=1)
            u = neg_var(s)
            lhs = App(Cast(h, ad), u)
            rhs = Cast(App(h, Cast(u, da)), path_adapter(u_b, v_b))
            yield lhs, rhs, Base(v_b)
        else:
            # pair cast and projection: both projection rules
            s = g.base_name()
            t_ = g.base_name()
            u_b = g.base_name()
            v_b = g.base_name()
            sig_src = Sig(Base(s), shift(Base(u_b), 1, 0))
            sig_tgt = Sig(Base(t_), shift(Base(v_b), 1, 0))
            ad = SigAd(path_adapter(s, t_),
                       shift(path_adapter(u_b, v_b), 1, 0), sig_src, sig_tgt)
            p = Pair(sig_src, pos_var(s), pos_var(u_b))
            if g.rng.random() < 0.5:
                yield (Fst(Cast(p, ad)),
                       Cast(Fst(p), path_adapter(s, t_)), Base(t_))
            else:
                yield (Snd(Cast(p, ad)),
                       Cast(Snd(p), path_adapter(u_b, v_b)), Base(v_b))
        made += 1


def test_criterion_set_model_oracle():
    g = Gen(seed=404)
    bindings = [Gen.binding(1, 1, 1), Gen.binding(2, 2, 2), Gen.binding(3, 2, 2)]
    pairs = list(_iter_conv_pairs(g, 500))
    assert len(pairs) >= 500
    evaluated = 0
    skipped = 0
    for lhs, rhs, ty in pairs:
        assert conv_tm(AMBIENT, ty, nf(lhs).value, nf(rhs).value), \
            "generated pair is not conversion-equal"
        used = (M.free_tm_vars(lhs) | M.free_tm_vars(rhs)
                | M.free_tm_vars(ty))
        for binding in bindings:
            ev = M.Evaluator(binding)
            try:
                envs = M.enumerate_envs(ev, AMBIENT, used)
                for env in envs:
                    x = ev.eval_tm(env, lhs)
                    y = ev.eval_tm(env, rhs)
                    assert M.sem_eq(x, y), \
                        "kernel equates but the model separates"
                evaluated += 1
            except M.NonEnumerable:
                skipped += 1
    assert evaluated >= 500
    report("set-model", f"{len(pairs)} pairs x 3 bindings: "
                        f"{evaluated} evaluations agree, {skipped} skipped")


# -- 6. dualization and spine shapes ----------------------------------------------


def test_criterion_dualization_and_spines():
    g = Gen(seed=505)
    n = 0
    for _ in range(1000):
        # random context over the base universe
        entries = []
        for _ in range(g.rng.randrange(0, 5)):
            d = POS if g.rng.random() < 0.5 else NEG
            if g.rng.random() < 0.5:
                entries.append(TmEntry(d, Base(g.base_name())))
            else:
                entries.append(TyEntry(d, POS if g.rng.random() < 0.5 else NEG,
                                       ()))
        ctx = tuple(entries)
        assert dual_ctx(dual_ctx(ctx)) == ctx
        sub = id_sub(ctx)
        assert len(sub.comps) == len(ctx)
        tr = T.id_trans(ctx, sub)
        assert len(tr.comps) == len(ctx)
        # dual reading swaps the endpoints
        assert trans_source(dual_ctx(ctx), tr) == trans_target(ctx, tr)
        n += 1
    report("dualization", f"{n} contexts: involution and spine counts hold")


# -- 7. trace audit ---------------------------------------------------------------


def test_criterion_trace_audit():
    # re-run slices of every suite family under the trace and audit the
    # emitted names against the fixed registry
    from adaptt import inductive
    from adaptt.syntax import Fst, Snd
    from adaptt.normalize import pi_tel
    seen = []
    set_trace(lambda rule, path: seen.append((rule, path)))
    try:
        inductive.run()
        g = Gen(seed=606)
        for _ in range(20):
            a, mu, nu, _ = g.triple(depth=2)
            f = push_ty(a, mu, X_CTX)
            h = push_ty(a, nu, X_CTX)
            t = g.tm_of(apply(a, trans_source(X_CTX, mu)), depth=2)
            nf(Cast(t, compose_ad(h, f)))
            a_end = apply(a, trans_target(X_CTX, nu))
            conv_tm(AMBIENT, a_end, cast(t, compose_ad(h, f)),
                    cast(cast(t, f), h))
            conv_ad(AMBIENT, push_ty(a, vcomp(nu, mu, X_CTX), X_CTX),
                    compose_ad(h, f))
        for lhs, rhs, ty in _iter_conv_pairs(g, 30):
            conv_tm(AMBIENT, ty, nf(lhs).value, nf(rhs).value)
        pi_tel((A, B), C)
        sig = Sig(A, B)
        nf(Fst(Pair(sig, pos_var("A"), pos_var("B"))))
        nf(Snd(Pair(sig, pos_var("A"), pos_var("B"))))
        # neutral-pair projections, eta at function and pair types, and
        # a nested chain, so the conversion-side rules fire too
        from gen import STEP
        sig_b = Sig(B, C)
        sad = SigAd(STEP["A"], shift(STEP["B"], 1, 0), sig, sig_b)
        pvar_ctx = AMBIENT + (TmEntry(POS, sig),)
        nf(Fst(Cast(Var(0), sad)))
        nf(Snd(Cast(Var(0), sad)))
        conv_tm(pvar_ctx, sig, Var(0), Pair(sig, Fst(Var(0)), Snd(Var(0))))
        fn_ty = Pi(A, shift(B, 1, 0))
        fvar_ctx = AMBIENT + (TmEntry(POS, fn_ty),)
        conv_tm(fvar_ctx, fn_ty, Var(0),
                Lam(A, App(Var(1), Var(0))))
        nf(Cast(pos_var("A"),
                Chain((STEP["A"], Chain((STEP["B"], STEP["C"]))))))
        # a deterministic function-adapter fusion instance
        fn_over_x = Pi(Base("A"), shift(TyVarRef(0, ()), 1, 0))
        mu1_ = Trans((KAd(STEP["A"], Base("B"), 0),))
        nu1_ = Trans((KAd(STEP["B"], Base("C"), 0),))
        conv_ad(AMBIENT, push_ty(fn_over_x, vcomp(nu1_, mu1_, X_CTX), X_CTX),
                compose_ad(push_ty(fn_over_x, nu1_, X_CTX),
                           push_ty(fn_over_x, mu1_, X_CTX)))
    finally:
        set_trace(None)
    assert seen, "no rewrite steps traced"
    names = {rule for rule, _ in seen}
    assert names <= RULES, names - RULES
    for rule, path in seen:
        assert isinstance(path, str) and path
    report("trace-audit", f"{len(seen)} steps over {len(names)} of "
                          f"{len(RULES)} registered rules, all in the registry")


# -- 8. surface round-trip ----------------------------------------------------------


def test_criterion_surface_roundtrip():
    from adaptt import surface as S, elaborate as E, pretty as P
    from adaptt.syntax import desc
    from adaptt.inductive import builtin_descs, data_decl_string
    checked = 0
    for path in ("corpus/prelude.adt", "corpus/casts.adt", "corpus/tree.adt"):
        out = E.elab_file(S.parse(pathlib.Path(path).read_text(encoding="utf-8")))
        for ctx, names, lhs, rhs, ty, span in out.asserts:
            sc = E.Scope(ctx, names)
            for side in (lhs, rhs):
                printed = P.tm_string(names, side)
                again, _ = E.elab_expr_in(sc, printed)
                assert again == side, (path, printed)
                checked += 1
    stock = {d.name: d for d in builtin_descs()}
    for name, d in stock.items():
        assert desc(name) == d
        out = E.elab_file(S.parse(data_decl_string(d)))
        assert desc(name) == d
        checked += 1
    report("surface-roundtrip",
           f"{checked} expressions and declarations round-trip")
