"""Rewriting engine: substitution application, composition, cast
computation, beta, and conversion checking.

The equational theory is oriented into eager computation at construction
time: every operation that could create a redex goes through the smart
constructors below (``app``, ``cast``, ``fst_``, ``snd_``), so values the
kernel builds are always in normal form.  ``nf`` re-runs the smart
constructors over an arbitrary tree; on kernel-built values it is the
identity.  Eta is not expanded by ``nf``: it is handled type-directed in
``conv``.

``shift`` and ``open_tm_block`` return a subterm untouched when its
cached free-variable bounds (``syntax.fv_bounds``) lie below the range
they act on.  That is exact because kernel values are normal: rebuilding
a closed normal subterm fires no rule and yields the same node.  Raw
non-normal input to ``open_tm_block`` is outside its contract.  ``apply``
walks every subterm, since it reports ``SUB_PUSH`` at each binder.

Every rewrite step is an instance of exactly one oriented equation and
reports its rule name to the trace sink; the registry of names, each with
its equation, is in ``docs/rewrite-rules.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

from .syntax import (
    POS, NEG, Context, TmEntry, TyEntry, Telescope, Inst,
    Type, Base, TyVarRef, Pi, Sig, Ind,
    Term, Var, Lam, App, Pair, Fst, Snd, Cast, Con,
    Adapter, AdId, Chain, Post, PiAd, SigAd, IndAd,
    Sub, STm, STy, Trans, KTm, KAd,
    dual_ctx, extend_tm, fv_bounds, map_scoped, scoped, shift,
    tm_entry_position, ty_entry_position, desc,
)


class KernelError(Exception):
    """Raised on malformed input to a kernel operation (sort mismatch,
    out-of-range variable, endpoint mismatch)."""


# ---------------------------------------------------------------------------
# Rewrite trace
# ---------------------------------------------------------------------------

#: Fixed registry of rewrite rule names; the trace auditor checks every
#: emitted name against this set.  docs/rewrite-rules.md states the
#: oriented equation behind each name.
RULES = frozenset({
    "BETA",            # (\t) @ u  ->  t[id > u]
    "CAST_ID",         # t<id>  ->  t
    "CAST_SPLIT",      # t<g . f>  ->  t<f><g>
    "CAST_PAIR",       # (a, b)<Sig[fa > sa]>  ->  (a<fa>, b<sa[id > a]>)
    "CAST_CONSTR",     # constructor cast along an inductive adapter
    "APP_CAST_FUN",    # (f<Pi[a > b]>) @ u  ->  (f @ u<a>)<b[id > u]>
    "PROJ1_PAIR",      # fst (a, b)  ->  a
    "PROJ2_PAIR",      # snd (a, b)  ->  b
    "PROJ1_CAST",      # fst (p<Sig[fa > sa]>)  ->  (fst p)<fa>
    "PROJ2_CAST",      # snd (p<Sig[fa > sa]>)  ->  (snd p)<sa[id > fst p]>
    "AD_UNIT",         # id . f -> f and f . id -> f (chain normal form)
    "AD_FLATTEN",      # h . (g . f) -> (h . g) . f (flat chain)
    "SUB_VAR",         # 0tm[s > t] -> t (variable lookup in a spine)
    "SUB_TYVAR",       # 0ty[s > A > i] -> A[id > i]
    "SUB_PUSH",        # structural substitution push at any other node
    "TRANS_ID",        # A{{id}} -> id
    "TRANS_TYVAR",     # 0ty{{m > f > i}} -> f[id > i]
    "TRANS_PI",        # (Pi A.B){{m}} -> Pi[A{{m-}} > B{{m+0tm}}]
    "TRANS_SIGMA",     # (Sig A.B){{m}} -> Sig[A{{m}} > B{{m+0tm}}]
    "TRANS_IND",       # ind(I)[s]{{m}} -> ind(I){{s o m}}
    "TRANS_BASE",      # constant type: X{{m}} -> id
    "PI_TEL_EMPTY",    # Pi <>.A -> A
    "PI_TEL_STEP",     # Pi (Th > A).B -> Pi Th. Pi A. B
    "ETA_FUN",         # conv-side: f == \ (f[^] @ 0tm)
    "ETA_PAIR",        # conv-side: p == (fst p, snd p)
    "FUSE_PI",         # conv-side: Pi[a2>b2] . Pi[a1>b1] == Pi[a1.a2 > ...]
    "FUSE_SIGMA",      # conv-side fusion for Sig adapters
    "FUSE_IND",        # conv-side: ind{{n}} . ind{{m}} == ind{{n o m}}
})

_trace_sink = None
_trace_path: list[str] = []


def set_trace(sink) -> None:
    """Install a callable receiving (rule_name, path) per rewrite step,
    or None to disable tracing."""
    global _trace_sink
    _trace_sink = sink


def note(rule: str) -> None:
    if _trace_sink is not None:
        assert rule in RULES, rule
        _trace_sink(rule, "/".join(_trace_path) or ".")


class at:
    """Context manager marking the current position for trace paths."""

    def __init__(self, seg: str):
        self.seg = seg

    def __enter__(self):
        _trace_path.append(self.seg)

    def __exit__(self, *exc):
        _trace_path.pop()


def _replay(rules) -> None:
    if _trace_sink is not None:
        path = "/".join(_trace_path) or "."
        for rule in rules:
            _trace_sink(rule, path)


def replayed_cache(maxsize: int | None):
    """``lru_cache`` for a kernel computation that reports rewrite steps.

    The computation runs with a sink that records the rule names it
    emits; every call, hit or miss, replays them to the current sink.  A
    trace and its rule counts are therefore those of the uncached program,
    whatever ran earlier in the process.  Cached computations never enter
    an ``at`` marker, so the replayed notes share the caller's path.  The
    sink is swapped here directly, not through ``set_trace``, so that a
    wrapper around ``set_trace`` never sees the recording sink."""
    def decorate(fn):
        @lru_cache(maxsize=maxsize)
        def recorded(*args):
            global _trace_sink
            rules: list[str] = []
            outer = _trace_sink
            _trace_sink = lambda rule, _path: rules.append(rule)
            try:
                out = fn(*args)
            except BaseException:
                # a failed computation is not cached: report its steps now
                _trace_sink = outer
                _replay(rules)
                raise
            _trace_sink = outer
            return out, tuple(rules)

        @wraps(fn)
        def cached(*args):
            out, rules = recorded(*args)
            _replay(rules)
            return out
        cached.cache_info = recorded.cache_info
        return cached
    return decorate


# ---------------------------------------------------------------------------
# Substitution application
# ---------------------------------------------------------------------------


def _split_spine(sub: Sub):
    tms = [c.tm for c in sub.comps if isinstance(c, STm)]
    tms.reverse()
    tys = [(c.arity, c.ty) for c in sub.comps if isinstance(c, STy)]
    tys.reverse()
    return tms, tys


def open_tm_block(x, terms: Inst):
    """Substitute the innermost ``len(terms)`` term variables of ``x`` by
    ``terms`` (given outermost-first, over the outer context)."""
    k = len(terms)
    if k == 0:
        return x
    return _open(x, terms, k, 0)


def _open(x, terms, k, d):
    if fv_bounds(x)[0] <= d:
        # no free term variable reaches the block: on a normal value the
        # rebuild below would return this very node
        return x
    if type(x) is Var:
        m = x.index - d
        if m < k:
            note("SUB_VAR")
            return shift(terms[k - 1 - m], d, 0)
        return Var(x.index - k)
    return map_scoped(x, _open, (terms, k), d, SMART)


def apply(x, sub: Sub):
    """Push a substitution spine through any syntax value, resolving
    variables against the spine and computing any redexes this creates."""
    return _ap(x, *_split_spine(sub), 0)


def _ap(x, tms, tys, d):
    cls = type(x)
    if cls is Var:
        i = x.index
        if i < d:
            return x
        try:
            t = tms[i - d]
        except IndexError:
            raise KernelError(f"substitution has no component for term var {i}")
        note("SUB_VAR")
        return shift(t, d, 0)
    if cls is TyVarRef:
        inst = tuple([_ap(t, tms, tys, d) for t in x.inst])
        j = x.index
        try:
            arity, body = tys[j]
        except IndexError:
            raise KernelError(f"substitution has no component for type var {j}")
        if arity != len(inst):
            raise KernelError("instantiation length does not match telescope")
        note("SUB_TYVAR")
        return open_tm_block(shift(body, d, 0, c_tm=arity), inst)
    if cls is Pi or cls is Sig or cls is Lam:
        note("SUB_PUSH")
    return map_scoped(x, _ap, (tms, tys), d, SMART)


def apply_tel(tel: Telescope, sub: Sub) -> Telescope:
    """Substitute a telescope; entry k sees k extra bound term variables."""
    return _ap(tel, *_split_spine(sub), 0)


def lift_sub_block(sub: Sub, k: int) -> Sub:
    """Lift a spine over k new positive term binders: (s o ^) > vinst."""
    if k == 0:
        return sub
    return Sub(shift(sub, k, 0).comps
               + tuple(STm(Var(k - 1 - m)) for m in range(k)))


def lift_trans_block(tr: Trans, k: int) -> Trans:
    """Lift a transformation over k new term binders: (m o ^) > 0tm..."""
    if k == 0:
        return tr
    return Trans(shift(tr, k, 0).comps
                 + tuple(KTm(Var(k - 1 - m)) for m in range(k)))


# ---------------------------------------------------------------------------
# Smart constructors (the computation rules)
# ---------------------------------------------------------------------------


def app(fn: Term, arg: Term) -> Term:
    match fn:
        case Lam(_, body):
            note("BETA")
            return open_tm_block(body, (arg,))
        case Cast(f, PiAd(dom_ad, cod_ad, _, _)):
            note("APP_CAST_FUN")
            return cast(app(f, cast(arg, dom_ad)), open_tm_block(cod_ad, (arg,)))
        case _:
            return App(fn, arg)


def fst_(p: Term) -> Term:
    match p:
        case Pair(_, a, _):
            note("PROJ1_PAIR")
            return a
        case Cast(q, SigAd(fst_ad, _, _, _)):
            note("PROJ1_CAST")
            return cast(fst_(q), fst_ad)
        case _:
            return Fst(p)


def snd_(p: Term) -> Term:
    match p:
        case Pair(_, _, b):
            note("PROJ2_PAIR")
            return b
        case Cast(q, SigAd(_, snd_ad, _, _)):
            note("PROJ2_CAST")
            return cast(snd_(q), open_tm_block(snd_ad, (fst_(q),)))
        case _:
            return Snd(p)


def cast(tm: Term, ad: Adapter) -> Term:
    match ad:
        case AdId(_):
            note("CAST_ID")
            return tm
        case Chain(parts):
            note("CAST_SPLIT")
            out = tm
            for p in parts:
                out = cast(out, p)
            return out
        case SigAd(fst_ad, snd_ad, _, tgt) if isinstance(tm, Pair):
            note("CAST_PAIR")
            return Pair(tgt, cast(tm.fst, fst_ad),
                        cast(tm.snd, open_tm_block(snd_ad, (tm.fst,))))
        case IndAd(dn, trans) if isinstance(tm, Con) and tm.desc == dn:
            from . import inductive
            note("CAST_CONSTR")
            return inductive.cast_con(tm, trans)
        case _:
            return Cast(tm, ad)


def parts_of(ad: Adapter) -> tuple[Adapter, ...]:
    match ad:
        case AdId(_):
            return ()
        case Chain(parts):
            return parts
        case _:
            return (ad,)


def compose_parts(parts: tuple[Adapter, ...]) -> Adapter:
    """Rebuild a chain from already-atomic parts, dropping identities."""
    flat: list[Adapter] = []
    for p in parts:
        sub = parts_of(p)
        if len(sub) != 1 or sub[0] is not p:
            note("AD_FLATTEN")
        flat.extend(sub)
    if not flat:
        raise KernelError("empty adapter chain needs an identity type")
    if len(flat) == 1:
        return flat[0]
    return Chain(tuple(flat))


def compose_ad(g: Adapter, f: Adapter) -> Adapter:
    """Composite g . f as a flat chain (innermost first); identities are
    dropped, atomic adapters are never fused here."""
    ps = parts_of(f) + parts_of(g)
    if not ps:
        note("AD_UNIT")
        return f  # both identities at the same type
    if len(ps) == 1:
        if isinstance(f, AdId) or isinstance(g, AdId):
            note("AD_UNIT")
        return ps[0]
    return Chain(ps)


def pi_tel(tel: Telescope, body: Type) -> Type:
    """Right-nested iterated Pi over a (contravariant) telescope."""
    if not tel:
        note("PI_TEL_EMPTY")
        return body
    note("PI_TEL_STEP")
    return Pi(tel[0], pi_tel(tel[1:], body))


#: The smart constructor of each node class that has one: every rewriting
#: walk rebuilds through these, so that what it builds is again normal.
SMART = {App: app, Fst: fst_, Snd: snd_, Cast: cast, Chain: compose_parts}


# ---------------------------------------------------------------------------
# Adapter endpoints
# ---------------------------------------------------------------------------


def ad_src(ad: Adapter) -> Type:
    match ad:
        case AdId(ty):
            return ty
        case Chain(parts):
            return ad_src(parts[0])
        case Post(_, s, _) | PiAd(_, _, s, _) | SigAd(_, _, s, _):
            return s
        case IndAd(dn, trans):
            from . import transform
            d = desc(dn)
            spine = transform.trans_source(d.full_ctx, trans)
            n = len(d.params_ctx)
            params = Sub(spine.comps[:n])
            indices = tuple(c.tm for c in spine.comps[n:])
            return Ind(dn, params, indices)
        case _:
            raise KernelError(f"not an adapter: {ad!r}")


def ad_tgt(ad: Adapter) -> Type:
    match ad:
        case AdId(ty):
            return ty
        case Chain(parts):
            return ad_tgt(parts[-1])
        case Post(_, _, t) | PiAd(_, _, _, t) | SigAd(_, _, _, t):
            return t
        case IndAd(dn, trans):
            from . import transform
            d = desc(dn)
            spine = transform.trans_target(d.full_ctx, trans)
            n = len(d.params_ctx)
            params = Sub(spine.comps[:n])
            indices = tuple(c.tm for c in spine.comps[n:])
            return Ind(dn, params, indices)
        case _:
            raise KernelError(f"not an adapter: {ad!r}")


def is_id_ad(ad: Adapter) -> bool:
    match ad:
        case AdId(_):
            return True
        case PiAd(da, ca, _, _) | SigAd(da, ca, _, _):
            return is_id_ad(da) and is_id_ad(ca)
        case IndAd(_, trans):
            return trans_is_identity(trans)
        case _:
            return False


def trans_is_identity(tr: Trans) -> bool:
    return all(isinstance(c, KTm) or is_id_ad(c.ad) for c in tr.comps)


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalForm:
    """Wrapper asserting normalizer invariants of the carried value."""

    value: object


def whnf(t: Term) -> Term:
    """Weak head normal form.  Kernel-built terms are already eagerly
    computed, so this re-fires the head rule if the node was assembled
    by hand."""
    match t:
        case App(fn, arg):
            out = app(whnf(fn), arg)
            return out if isinstance(out, App) else whnf(out)
        case Fst(p):
            out = fst_(whnf(p))
            return out if isinstance(out, Fst) else whnf(out)
        case Snd(p):
            out = snd_(whnf(p))
            return out if isinstance(out, Snd) else whnf(out)
        case Cast(tm, ad):
            out = cast(whnf(tm), ad)
            return out if isinstance(out, Cast) else whnf(out)
        case _:
            return t


def nf(x):
    """Full normal form of any syntax value (idempotent)."""
    if isinstance(x, NormalForm):
        return x
    return NormalForm(_nf(x))


#: Trace path segment entered while normalizing a node of each class.
_SEGMENT = {Lam: "body", App: "app", Cast: "cast"}


def _nf(x, _depth=0):
    cls = type(x)
    if cls is Pi:
        with at("dom"):
            dom = _nf(x.dom)
        with at("cod"):
            return Pi(dom, _nf(x.cod))
    seg = _SEGMENT.get(cls)
    if seg is None:
        return map_scoped(x, _nf, (), 0, SMART)
    with at(seg):
        return map_scoped(x, _nf, (), 0, SMART)


def assert_normal(x) -> None:
    """Tree scan for the normal-form invariants: no identity or composite
    adapter under a cast, no nested or identity-carrying chains."""
    cls = type(x)
    if cls is Cast and isinstance(x.ad, (AdId, Chain)):
        raise AssertionError("cast carries a non-atomic adapter")
    if cls is Chain:
        if len(x.parts) < 2:
            raise AssertionError("underfull chain")
        if any(isinstance(p, (AdId, Chain)) for p in x.parts):
            raise AssertionError("chain contains id or nested chain")
    for _, child in scoped(x):
        assert_normal(child)


# ---------------------------------------------------------------------------
# Conversion checking
# ---------------------------------------------------------------------------


def conv_ty(ctx: Context, a: Type, b: Type) -> bool:
    """Definitional equality of two well-formed types over ``ctx``."""
    if a is b:
        return True
    match (a, b):
        case (Base(x), Base(y)):
            return x == y
        case (TyVarRef(i, ii), TyVarRef(j, jj)):
            if i != j:
                return False
            entry = ctx[ty_entry_position(ctx, i)]
            tel = _entry_tel_here(ctx, i)
            inst_ctx = dual_ctx(ctx, entry.tel_dir)
            return conv_inst(inst_ctx, tel, ii, jj)
        case (Pi(d1, c1), Pi(d2, c2)):
            if not conv_ty(dual_ctx(ctx), d1, d2):
                return False
            return conv_ty(extend_tm(ctx, NEG, d1), c1, c2)
        case (Sig(f1, s1), Sig(f2, s2)):
            if not conv_ty(ctx, f1, f2):
                return False
            return conv_ty(extend_tm(ctx, POS, f1), s1, s2)
        case (Ind(d1, p1, i1), Ind(d2, p2, i2)):
            if d1 != d2:
                return False
            dd = desc(d1)
            if not conv_sub(ctx, dd.params_ctx, p1, p2):
                return False
            tel = apply_tel(dd.index_tel, p1)
            return conv_inst(ctx, tel, i1, i2)
        case _:
            return False


def _entry_tel_here(ctx: Context, index: int) -> Telescope:
    """Telescope of type-variable entry ``index`` shifted to ``ctx``
    (read against the tel-dir dual, which does not move indices)."""
    pos = ty_entry_position(ctx, index)
    entry = ctx[pos]
    rest = ctx[pos + 1:]
    d_tm = sum(1 for e in rest if isinstance(e, TmEntry))
    d_ty = 1 + sum(1 for e in rest if isinstance(e, TyEntry))
    return tuple(shift(t, d_tm, d_ty) for t in entry.tel)


def tm_entry_type(ctx: Context, index: int) -> Type:
    """Type of term variable ``index`` weakened to the full context."""
    pos = tm_entry_position(ctx, index)
    entry = ctx[pos]
    rest = ctx[pos:]
    d_tm = sum(1 for e in rest if isinstance(e, TmEntry))
    d_ty = sum(1 for e in rest if isinstance(e, TyEntry))
    return shift(entry.ty, d_tm, d_ty)


def conv_tm(ctx: Context, ty: Type, x: Term, y: Term) -> bool:
    """Type-directed term conversion with eta at Pi and Sigma."""
    if x is y:
        return True
    match ty:
        case Pi(dom, cod):
            note("ETA_FUN")
            ext = extend_tm(ctx, NEG, dom)
            xv = app(shift(x, 1, 0), Var(0))
            yv = app(shift(y, 1, 0), Var(0))
            return conv_tm(ext, cod, xv, yv)
        case Sig(fst, snd):
            note("ETA_PAIR")
            if not conv_tm(ctx, fst, fst_(x), fst_(y)):
                return False
            ty2 = open_tm_block(snd, (fst_(x),))
            return conv_tm(ctx, ty2, snd_(x), snd_(y))
        case _:
            pass
    match (x, y):
        case (Con(d1, t1, p1, a1), Con(d2, t2, p2, a2)):
            if d1 != d2 or t1 != t2:
                return False
            dd = desc(d1)
            if not conv_sub(ctx, dd.params_ctx, p1, p2):
                return False
            from . import inductive
            return conv_inst(ctx, inductive.con_args_tel(dd, t1, p1), a1, a2)
        case _:
            return conv_neutral(ctx, x, y) is not None


def conv_neutral(ctx: Context, x: Term, y: Term):
    """Compare two neutral terms; returns the common (normal) type on
    success, None on mismatch."""
    match (x, y):
        case (Var(i), Var(j)):
            if i != j:
                return None
            return tm_entry_type(ctx, i)
        case (App(f1, u1), App(f2, u2)):
            fty = conv_neutral(ctx, f1, f2)
            if not isinstance(fty, Pi):
                return None
            if not conv_tm(dual_ctx(ctx), fty.dom, u1, u2):
                return None
            return open_tm_block(fty.cod, (u1,))
        case (Fst(p1), Fst(p2)):
            pty = conv_neutral(ctx, p1, p2)
            if not isinstance(pty, Sig):
                return None
            return pty.fst
        case (Snd(p1), Snd(p2)):
            pty = conv_neutral(ctx, p1, p2)
            if not isinstance(pty, Sig):
                return None
            return open_tm_block(pty.snd, (fst_(p1),))
        case (Cast(t1, a1), Cast(t2, a2)):
            if conv_ad(ctx, a1, a2) is None:
                return None
            s1 = ad_src(a1)
            if not conv_tm(ctx, s1, t1, t2):
                return None
            return ad_tgt(a1)
        case _:
            return None


def conv_sub(ctx: Context, tgt: Context, s1: Sub, s2: Sub) -> bool:
    if len(s1.comps) != len(tgt) or len(s2.comps) != len(tgt):
        raise KernelError("substitution spine length mismatch")
    if s1 is s2:
        return True
    for k, entry in enumerate(tgt):
        c1, c2 = s1.comps[k], s2.comps[k]
        if isinstance(entry, TmEntry):
            if not (isinstance(c1, STm) and isinstance(c2, STm)):
                raise KernelError("spine component sort mismatch")
            pre = Sub(s1.comps[:k])
            ty = apply(entry.ty, pre)
            if not conv_tm(dual_ctx(ctx, entry.dir), ty, c1.tm, c2.tm):
                return False
        else:
            if not (isinstance(c1, STy) and isinstance(c2, STy)):
                raise KernelError("spine component sort mismatch")
            pre = Sub(s1.comps[:k])
            tel = apply_tel(entry.tel, pre)
            inner = ctx + tuple(TmEntry(entry.tel_dir, t) for t in tel)
            if not conv_ty(dual_ctx(inner, entry.dir), c1.ty, c2.ty):
                return False
    return True


def conv_inst(ctx: Context, tel: Telescope, i1: Inst, i2: Inst) -> bool:
    if len(i1) != len(tel) or len(i2) != len(tel):
        raise KernelError("instantiation length mismatch")
    for k, ty in enumerate(tel):
        here = open_tm_block(ty, i1[:k])
        if not conv_tm(ctx, here, i1[k], i2[k]):
            return False
    return True


def conv_ad(ctx: Context, f: Adapter, g: Adapter):
    """Adapter conversion.  Chains are compared after fusing adjacent
    structural adapters (the componentwise composition equations), so the
    functor laws for the derived actions hold definitionally; postulate
    links are never fused.  Returns True/None rather than a bool so it can
    be used in neutral position."""
    if f is g:
        return True
    from . import transform
    pf = transform.fuse_chain(ctx, parts_of(f))
    pg = transform.fuse_chain(ctx, parts_of(g))
    if len(pf) != len(pg):
        if not pf and len(pg) == 1 and is_id_ad(pg[0]):
            return True
        if not pg and len(pf) == 1 and is_id_ad(pf[0]):
            return True
        return None
    if not pf:
        return conv_ty(ctx, ad_src(f), ad_src(g)) or None
    for a, b in zip(pf, pg):
        if not _conv_atomic(ctx, a, b):
            return None
    return True


def _conv_atomic(ctx: Context, a: Adapter, b: Adapter) -> bool:
    if a is b:
        return True
    if is_id_ad(a) and is_id_ad(b):
        return conv_ty(ctx, ad_src(a), ad_src(b))
    match (a, b):
        case (Post(n1, _, _), Post(n2, _, _)):
            return n1 == n2
        case (PiAd(d1, c1, s1, _), PiAd(d2, c2, s2, _)):
            if conv_ad(dual_ctx(ctx), d1, d2) is None:
                return False
            ext = extend_tm(ctx, NEG, ad_src(d1))
            if conv_ad(ext, c1, c2) is None:
                return False
            return conv_ty(ctx, s1, s2)
        case (SigAd(f1, s1, a1, _), SigAd(f2, s2, a2, _)):
            if conv_ad(ctx, f1, f2) is None:
                return False
            ext = extend_tm(ctx, POS, a1.fst)
            if conv_ad(ext, s1, s2) is None:
                return False
            return conv_ty(ctx, a1, a2)
        case (IndAd(n1, t1), IndAd(n2, t2)):
            if n1 != n2:
                return False
            return conv_trans(ctx, desc(n1).full_ctx, t1, t2)
        case _:
            return False


def conv_trans(ctx: Context, tgt: Context, t1: Trans, t2: Trans) -> bool:
    if len(t1.comps) != len(tgt) or len(t2.comps) != len(tgt):
        raise KernelError("transformation spine length mismatch")
    if t1 is t2:
        return True
    from . import transform
    for k, entry in enumerate(tgt):
        c1, c2 = t1.comps[k], t2.comps[k]
        if isinstance(entry, TmEntry):
            if not (isinstance(c1, KTm) and isinstance(c2, KTm)):
                raise KernelError("transformation component sort mismatch")
            pre = Trans(t1.comps[:k])
            side = transform.trans_source if entry.dir is POS else transform.trans_target
            spine = side(tgt[:k], pre)
            ty = apply(entry.ty, spine)
            if not conv_tm(dual_ctx(ctx, entry.dir), ty, c1.tm, c2.tm):
                return False
        else:
            if not (isinstance(c1, KAd) and isinstance(c2, KAd)):
                raise KernelError("transformation component sort mismatch")
            pre = Trans(t1.comps[:k])
            # component context per the direction table: the source-side
            # block for covariant telescopes, the target-side one otherwise
            if entry.tel_dir is POS:
                spine = transform.trans_source(tgt[:k], pre)
                ext = ctx + tuple(TmEntry(POS, t)
                                  for t in apply_tel(entry.tel, spine))
            else:
                spine = transform.trans_target(tgt[:k], pre)
                ext = ctx + tuple(TmEntry(NEG, t)
                                  for t in apply_tel(entry.tel, spine))
            inner = dual_ctx(ext) if entry.dir is NEG else ext
            if conv_ad(inner, c1.ad, c2.ad) is None:
                return False
    return True


def conv(ctx: Context, x, y, ty: Type | None = None) -> bool:
    """Front door: conversion at any sort.  Terms need their classifier
    unless both sides are closed enough to compare neutrally."""
    x = _nf(x) if not isinstance(x, NormalForm) else x.value
    y = _nf(y) if not isinstance(y, NormalForm) else y.value
    if _is_type(x) and _is_type(y):
        return conv_ty(ctx, x, y)
    if _is_term(x) and _is_term(y):
        if ty is None:
            from . import check
            ty = check.infer_tm(ctx, x)
        return conv_tm(ctx, ty, x, y)
    if _is_adapter(x) and _is_adapter(y):
        return conv_ad(ctx, x, y) is not None
    if isinstance(x, Sub) and isinstance(y, Sub):
        if ty is None:
            raise KernelError("substitution conversion needs the target context")
        return conv_sub(ctx, ty, x, y)
    raise KernelError("conversion across sorts")


def _is_type(x) -> bool:
    return isinstance(x, (Base, TyVarRef, Pi, Sig, Ind))


def _is_term(x) -> bool:
    return isinstance(x, (Var, Lam, App, Pair, Fst, Snd, Cast, Con))


def _is_adapter(x) -> bool:
    return isinstance(x, (AdId, Chain, Post, PiAd, SigAd, IndAd))
