"""Named surface syntax to de Bruijn core, plus file-level processing.

Constructor declarations written as arrow telescopes are compiled to the
signature record form: an argument whose (possibly binder-prefixed) head
is the datatype being declared becomes a recursive-argument description;
the datatype name may not occur anywhere else (strict positivity is the
grammar).  All outputs are checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import surface as S
from .check import CheckError, Diagnostic, check_ty, infer_tm
from .normalize import (
    compose_ad, conv_ty, ad_src, ad_tgt, cast as mk_cast,
    app as mk_app, fst_ as mk_fst, snd_ as mk_snd, KernelError,
)
from .pretty import _occurs
from .syntax import (
    POS, NEG, Context, TmEntry, TyEntry, Telescope,
    Base, TyVarRef, Pi, Sig, Ind, Var, Lam, Pair, Con,
    AdId, Post, PiAd, SigAd, IndAd,
    Sub, STm, STy, Trans, KTm, KAd,
    RecDesc, ConDesc, IndDesc, DESC_TABLE, desc,
    dual_ctx, shift, vinst,
)


class ElabError(CheckError):
    pass


def _err(code: str, msg: str, span) -> ElabError:
    return ElabError(Diagnostic(code, msg, span))


@dataclass
class Scope:
    """File-level names plus the ambient context built by var/data
    declarations and local binders."""

    bases: dict[str, Base] = field(default_factory=dict)
    posts: dict[str, Post] = field(default_factory=dict)
    constructors: dict[str, tuple[str, int]] = field(default_factory=dict)
    defs: dict[str, tuple] = field(default_factory=dict)  # name -> (tm, ty)
    ctx: Context = ()
    names: tuple[str, ...] = ()

    def push(self, name: str, entry) -> "Scope":
        return Scope(self.bases, self.posts, self.constructors, self.defs,
                     self.ctx + (entry,), self.names + (name,))

    def tm_index(self, name: str) -> int | None:
        seen = 0
        for n, e in zip(reversed(self.names), reversed(self.ctx)):
            if isinstance(e, TmEntry):
                if n == name:
                    return seen
                seen += 1
        return None

    def ty_index(self, name: str) -> int | None:
        seen = 0
        for n, e in zip(reversed(self.names), reversed(self.ctx)):
            if isinstance(e, TyEntry):
                if n == name:
                    return seen
                seen += 1
        return None

    def ty_entry(self, name: str) -> TyEntry | None:
        for n, e in zip(reversed(self.names), reversed(self.ctx)):
            if n == name and isinstance(e, TyEntry):
                return e
        return None


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


def _head_spine(e: S.SExpr):
    args = []
    while isinstance(e, S.SApp):
        args.append(e.arg)
        e = e.fn
    return e, list(reversed(args))


def elab_ty(e: S.SExpr, sc: Scope):
    match e:
        case S.SName(_, _) | S.SApp(_, _, _):
            head, args = _head_spine(e)
            if not isinstance(head, S.SName):
                raise _err("Syntax", "expected a type head", e.span)
            return _elab_ty_head(head, args, sc)
        case S.SArrow(binder, dom, cod, _):
            dom_t = elab_ty(dom, sc)
            sc2 = sc.push(binder or "_", TmEntry(NEG, dom_t))
            return Pi(dom_t, elab_ty(cod, sc2))
        case S.SStar(binder, fst, snd, _):
            fst_t = elab_ty(fst, sc)
            sc2 = sc.push(binder or "_", TmEntry(POS, fst_t))
            return Sig(fst_t, elab_ty(snd, sc2))
        case _:
            raise _err("Syntax", "expected a type", e.span)


def _elab_ty_head(head: S.SName, args: list[S.SExpr], sc: Scope):
    name = head.name
    if name in sc.bases:
        if args:
            raise _err("ArityMismatch", f"base type {name} takes no arguments",
                       head.span)
        return sc.bases[name]
    if name in DESC_TABLE:
        d = desc(name)
        want = len(d.params_ctx) + len(d.index_tel)
        if len(args) != want:
            raise _err("ArityMismatch",
                       f"{name} expects {want} arguments, got {len(args)}",
                       head.span)
        params = _elab_param_spine(d.params_ctx, args[:len(d.params_ctx)], sc)
        indices = tuple(elab_tm(a, sc) for a in args[len(d.params_ctx):])
        return Ind(name, params, indices)
    ent = sc.ty_entry(name)
    if ent is not None:
        j = sc.ty_index(name)
        if len(args) != len(ent.tel):
            raise _err("ArityMismatch",
                       f"type variable {name} expects {len(ent.tel)} arguments",
                       head.span)
        return TyVarRef(j, tuple(elab_tm(a, sc) for a in args))
    raise _err("UnboundVariable", f"unknown type {name}", head.span)


def _elab_param_spine(params_ctx: Context, args: list[S.SExpr], sc: Scope) -> Sub:
    comps = []
    for entry, a in zip(params_ctx, args):
        if isinstance(entry, TmEntry):
            comps.append(STm(elab_tm(a, sc)))
        else:
            comps.append(_elab_family(a, len(entry.tel), sc))
    return Sub(tuple(comps))


def _elab_family(a: S.SExpr, arity: int, sc: Scope) -> STy:
    """A type-family argument: an in-scope type variable of the right
    arity (eta-expanded), an explicit binder form, or a constant type."""
    if isinstance(a, S.SFam):
        if len(a.binders) != arity:
            raise _err("ArityMismatch",
                       f"family binds {len(a.binders)} of {arity} variables",
                       a.span)
        sc2 = sc
        for b in a.binders:
            # binder types are not written; a placeholder entry carries
            # the name, indices are all the elaborator needs here
            sc2 = sc2.push(b, TmEntry(POS, Base("_")))
        return STy(elab_ty(a.body, sc2), arity)
    if isinstance(a, S.SName):
        ent = sc.ty_entry(a.name)
        if ent is not None:
            if len(ent.tel) != arity:
                raise _err("ArityMismatch",
                           f"type variable {a.name} has the wrong arity", a.span)
            return STy(TyVarRef(sc.ty_index(a.name), vinst(ent.tel)), arity)
    ty = elab_ty(a, sc)
    return STy(shift(ty, arity, 0), arity)


def elab_tm(e: S.SExpr, sc: Scope, pol=POS):
    match e:
        case S.SName(name, span):
            i = sc.tm_index(name)
            if i is not None:
                return Var(i)
            if name in sc.constructors:
                return _elab_con(e, [], sc, pol)
            if name in sc.defs:
                return sc.defs[name][0]
            raise _err("UnboundVariable", f"unknown term {name}", span)
        case S.SApp(_, _, _):
            head, args = _head_spine(e)
            if isinstance(head, S.SName) and head.name in sc.constructors:
                return _elab_con(head, args, sc, pol)
            fn = elab_tm(head, sc, pol)
            for a in args:
                fn = mk_app(fn, elab_tm(a, sc, pol * NEG))
            return fn
        case S.SFun(binder, dom, body, _):
            dom_t = elab_ty(dom, sc)
            sc2 = sc.push(binder, TmEntry(NEG, dom_t))
            return Lam(dom_t, elab_tm(body, sc2, pol))
        case S.SPair(fst, snd, ty, span):
            ty_t = elab_ty(ty, sc)
            if not isinstance(ty_t, Sig):
                raise _err("ClassifierMismatch",
                           "pair annotation must be a pair type", span)
            return Pair(ty_t, elab_tm(fst, sc, pol), elab_tm(snd, sc, pol))
        case S.SFst(arg, _):
            return mk_fst(elab_tm(arg, sc, pol))
        case S.SSnd(arg, _):
            return mk_snd(elab_tm(arg, sc, pol))
        case S.SCast(tm, ad, _):
            t = elab_tm(tm, sc, pol)
            want = infer_tm(dual_ctx(sc.ctx, pol), t)
            a = elab_ad(ad, sc, want_src=want, pol=pol)
            return mk_cast(t, a)
        case _:
            raise _err("Syntax", "expected a term", e.span)


def _elab_con(head: S.SName, args: list[S.SExpr], sc: Scope, pol=POS):
    from .inductive import con_data_tied
    dname, tag = sc.constructors[head.name]
    d = desc(dname)
    tel = con_data_tied(d, tag)
    want = len(d.params_ctx) + len(tel)
    if len(args) != want:
        raise _err("ArityMismatch",
                   f"constructor {head.name} expects {want} arguments, "
                   f"got {len(args)}", head.span)
    params = _elab_param_spine(d.params_ctx, args[:len(d.params_ctx)], sc)
    tms = tuple(elab_tm(a, sc, pol) for a in args[len(d.params_ctx):])
    return Con(dname, tag, params, tms)


def elab_ad(e: S.SExpr, sc: Scope, want_src=None, pol=POS):
    match e:
        case S.SId(None, span):
            if want_src is None:
                raise _err("Syntax",
                           "bare id needs a type; write `id A` here", span)
            return AdId(want_src)
        case S.SId(at, _):
            return AdId(elab_ty(at, sc))
        case S.SName(name, span):
            if name in sc.posts:
                return sc.posts[name]
            raise _err("UnboundVariable", f"unknown adapter {name}", span)
        case S.SComp(after, before, _):
            before_a = elab_ad(before, sc, want_src=want_src, pol=pol)
            after_a = elab_ad(after, sc, want_src=None, pol=pol)
            return compose_ad(after_a, before_a)
        case S.SPush(head, comps, span):
            return _elab_push(head, comps, span, sc, want_src, pol)
        case _:
            raise _err("Syntax", "expected an adapter", e.span)


def _elab_push(head: S.SExpr, comps, span, sc: Scope, want_src, pol=POS):
    if not isinstance(head, S.SName):
        raise _err("Syntax", "expected a named adapter former", span)
    if head.name in ("Pi", "Sig"):
        return _elab_pi_sig_ad(head.name, comps, span, sc, want_src, pol)
    if head.name not in DESC_TABLE:
        raise _err("UnboundVariable", f"unknown datatype {head.name}", span)
    d = desc(head.name)
    if len(comps) != len(d.full_ctx):
        raise _err("ArityMismatch",
                   f"{head.name} adapter expects {len(d.full_ctx)} components",
                   span)
    out = []
    for entry, c in zip(d.full_ctx, comps):
        if isinstance(entry, TmEntry):
            if c.binders:
                raise _err("Syntax", "term component cannot bind variables",
                           c.span)
            out.append(KTm(elab_tm(c.body, sc, pol * entry.dir)))
        else:
            ar = len(entry.tel)
            if c.binders and len(c.binders) != ar:
                raise _err("ArityMismatch",
                           f"component binds {len(c.binders)} of {ar} variables",
                           c.span)
            sc2 = sc
            for b in (c.binders or ("_",) * ar):
                sc2 = sc2.push(b, TmEntry(POS, Base("_")))
            ad = elab_ad(c.body, sc2, pol=pol * entry.dir)
            forced = ad_tgt(ad) if (entry.dir is POS) == (entry.tel_dir is POS) \
                else ad_src(ad)
            out.append(KAd(ad, forced, ar))
    return IndAd(head.name, Trans(tuple(out)))


def _elab_pi_sig_ad(kind: str, comps, span, sc: Scope, want_src, pol=POS):
    if len(comps) != 2:
        raise _err("ArityMismatch", f"{kind} adapter takes two components", span)
    c0, c1 = comps
    if c0.binders:
        raise _err("Syntax", "first component cannot bind variables", c0.span)
    first = elab_ad(c0.body, sc,
                    pol=pol * (NEG if kind == "Pi" else POS))
    if len(c1.binders) > 1:
        raise _err("ArityMismatch", "second component binds one variable",
                   c1.span)
    binder = c1.binders[0] if c1.binders else "_"
    if kind == "Pi":
        new_dom = ad_src(first)
        sc2 = sc.push(binder, TmEntry(NEG, new_dom))
        second = elab_ad(c1.body, sc2, pol=pol)
        tgt = Pi(new_dom, ad_tgt(second))
        if want_src is not None and isinstance(want_src, Pi):
            src = want_src
        else:
            cod_src = ad_src(second)
            if _occurs(cod_src, 0):
                raise _err("Syntax",
                           "cannot infer the source of this function adapter; "
                           "cast position provides it", span)
            src = Pi(ad_tgt(first), cod_src)
        return PiAd(first, second, src, tgt)
    src_fst = ad_src(first)
    sc2 = sc.push(binder, TmEntry(POS, src_fst))
    second = elab_ad(c1.body, sc2, pol=pol)
    src = Sig(src_fst, ad_src(second))
    if want_src is not None and not conv_ty(sc.ctx, src, want_src):
        raise _err("ClassifierMismatch", "pair adapter source mismatch", span)
    snd_tgt = ad_tgt(second)
    if _occurs(snd_tgt, 0):
        raise _err("Syntax",
                   "cannot infer the target of this pair adapter", span)
    tgt = Sig(ad_tgt(first), snd_tgt)
    return SigAd(first, second, src, tgt)


# ---------------------------------------------------------------------------
# Data declarations
# ---------------------------------------------------------------------------


def _mentions(e: S.SExpr, name: str) -> bool:
    match e:
        case S.SName(n, _):
            return n == name
        case S.SApp(f, a, _):
            return _mentions(f, name) or _mentions(a, name)
        case S.SArrow(_, d, c, _) | S.SStar(_, d, c, _):
            return _mentions(d, name) or _mentions(c, name)
        case S.SFun(_, d, b, _):
            return _mentions(d, name) or _mentions(b, name)
        case S.SFst(a, _) | S.SSnd(a, _):
            return _mentions(a, name)
        case S.SPair(a, b, t, _):
            return any(_mentions(x, name) for x in (a, b, t))
        case S.SCast(t, a, _):
            return _mentions(t, name) or _mentions(a, name)
        case S.SComp(g, f, _):
            return _mentions(g, name) or _mentions(f, name)
        case S.SId(at, _):
            return at is not None and _mentions(at, name)
        case S.SPush(h, comps, _):
            return _mentions(h, name) or any(_mentions(c.body, name)
                                             for c in comps)
        case S.SFam(_, b, _):
            return _mentions(b, name)
        case _:
            return False


def _peel_arrows(e: S.SExpr):
    """Split (x : A) -> ... -> HEAD into binders and head."""
    binders = []
    while isinstance(e, S.SArrow):
        binders.append((e.binder or "_", e.dom))
        e = e.cod
    return binders, e


def elab_data(decl: S.DData, sc: Scope) -> IndDesc:
    # re-declaring an existing datatype is allowed only when the result
    # is structurally identical, hence the same interned node (elab_file
    # enforces that)
    # parameter context
    psc = Scope(sc.bases, sc.posts, sc.constructors, sc.defs)
    for p in decl.params:
        if isinstance(p, S.PTmParam):
            psc = psc.push(p.name, TmEntry(POS, elab_ty(p.ty, psc)))
        else:
            tsc = psc
            tel = []
            for bn, bt in p.tele:
                ty = elab_ty(bt, tsc)
                tel.append(ty)
                tsc = tsc.push(bn, TmEntry(POS, ty))
            d = POS if p.dir == "+" else NEG
            psc = psc.push(p.name, TyEntry(d, POS, tuple(tel)))
    # index telescope
    isc = psc
    index_tel = []
    for iname, ity in decl.indices:
        ty = elab_ty(ity, isc)
        index_tel.append(ty)
        isc = isc.push(iname or "_", TmEntry(POS, ty))
    cons = []
    for con in decl.cons:
        cons.append(_elab_con_decl(decl, con, psc, tuple(index_tel)))
    return IndDesc(decl.name, psc.ctx, tuple(index_tel), tuple(cons))


def _elab_con_decl(decl: S.DData, con: S.SConDecl, psc: Scope,
                   index_tel: Telescope) -> ConDesc:
    self_name = decl.name
    nrec: list = []
    recs: list[RecDesc] = []
    nsc = psc
    seen_rec = False
    for arg_name, arg_ty in con.args:
        binders, head = _peel_arrows(arg_ty)
        h, hargs = _head_spine(head)
        is_rec = isinstance(h, S.SName) and h.name == self_name
        if is_rec:
            for _, bt in binders:
                if _mentions(bt, self_name):
                    raise _err("Positivity",
                               f"{self_name} occurs in a branching arity",
                               con.span)
            seen_rec = True
            asc = nsc
            arit = []
            for bn, bt in binders:
                ty = elab_ty(bt, asc)
                arit.append(ty)
                asc = asc.push(bn, TmEntry(NEG, ty))
            rind = _elab_self_result(decl, h, hargs, asc, con.span,
                                     indices_only=True)
            recs.append(RecDesc(tuple(arit), rind))
        else:
            if _mentions(arg_ty, self_name):
                raise _err("Positivity",
                           f"{self_name} occurs outside a recursive head "
                           f"in argument {arg_name}", con.span)
            if seen_rec:
                raise _err("IllFormedDescription",
                           "non-recursive arguments must precede recursive ones",
                           con.span)
            ty = elab_ty(arg_ty, nsc)
            nrec.append(ty)
            nsc = nsc.push(arg_name, TmEntry(POS, ty))
    h, hargs = _head_spine(con.result)
    if not (isinstance(h, S.SName) and h.name == self_name):
        raise _err("IllFormedDescription",
                   f"constructor {con.name} must build {self_name}", con.span)
    ind = _elab_self_result(decl, h, hargs, nsc, con.span, indices_only=True)
    return ConDesc(con.name, tuple(nrec), tuple(recs), ind)


def _elab_self_result(decl: S.DData, h: S.SName, hargs: list[S.SExpr],
                      sc: Scope, span, indices_only: bool):
    nparams = len(decl.params)
    if len(hargs) != nparams + len(decl.indices):
        raise _err("ArityMismatch",
                   f"{decl.name} expects {nparams + len(decl.indices)} "
                   f"arguments here", span)
    for p, a in zip(decl.params, hargs[:nparams]):
        if not (isinstance(a, S.SName) and a.name == p.name):
            raise _err("IllFormedDescription",
                       "parameters of recursive occurrences must be the "
                       "declared parameters, in order", span)
    return tuple(elab_tm(a, sc) for a in hargs[nparams:])


# ---------------------------------------------------------------------------
# Files
# ---------------------------------------------------------------------------


@dataclass
class Elaborated:
    scope: Scope
    checks: list = field(default_factory=list)      # (ctx, names, tm, ty, span)
    asserts: list = field(default_factory=list)     # (ctx, names, lhs, rhs, ty, span)
    normalizes: list = field(default_factory=list)  # (ctx, names, tm, span)
    datas: list = field(default_factory=list)       # registered names


def elab_file(decls: list[S.Decl]) -> Elaborated:
    from .inductive import register
    sc = Scope()
    for dname, d in DESC_TABLE.items():
        for i, c in enumerate(d.cons):
            sc.constructors.setdefault(c.name, (dname, i))
    out = Elaborated(sc)
    for decl in decls:
        try:
            match decl:
                case S.DBase(name, span):
                    _fresh(sc, name, span)
                    sc.bases[name] = Base(name)
                case S.DPostulate(name, src, tgt, span):
                    _fresh(sc, name, span)
                    s = elab_ty(src, Scope(sc.bases, sc.posts,
                                           sc.constructors, sc.defs))
                    t = elab_ty(tgt, Scope(sc.bases, sc.posts,
                                           sc.constructors, sc.defs))
                    check_ty((), s)
                    check_ty((), t)
                    sc.posts[name] = Post(name, s, t)
                case S.DVar(name, ty, span, neg):
                    t = elab_ty(ty, sc)
                    d = NEG if neg else POS
                    check_ty(dual_ctx(sc.ctx, d), t)
                    sc = sc.push(name, TmEntry(d, t))
                    out.scope = sc
                case S.DDef(name, ty, tm, span):
                    _fresh(sc, name, span)
                    closed = Scope(sc.bases, sc.posts, sc.constructors, sc.defs)
                    t = elab_ty(ty, closed)
                    check_ty((), t)
                    m = elab_tm(tm, closed)
                    got = infer_tm((), m)
                    if not conv_ty((), got, t):
                        raise _err("ClassifierMismatch",
                                   f"definition {name} does not have its "
                                   f"declared type", span)
                    sc.defs[name] = (m, t)
                case S.DData(_, _, _, _, span):
                    d = elab_data(decl, sc)
                    if DESC_TABLE.get(d.name, d) is not d:
                        raise _err("Redefinition", f"datatype {d.name} is "
                                   f"already defined differently", span)
                    register(d)
                    out.datas.append(d.name)
                    for i, c in enumerate(d.cons):
                        if sc.constructors.get(c.name) != (d.name, i):
                            _fresh(sc, c.name, decl.span)
                        sc.constructors[c.name] = (d.name, i)
                case S.DCheck(tm, ty, span):
                    t = elab_ty(ty, sc)
                    check_ty(sc.ctx, t)
                    m = elab_tm(tm, sc)
                    got = infer_tm(sc.ctx, m)
                    if not conv_ty(sc.ctx, got, t):
                        from . import pretty
                        raise ElabError(Diagnostic(
                            "ClassifierMismatch", "check failed", span,
                            pretty.ty_string(sc.ctx, t, list(sc.names)),
                            pretty.ty_string(sc.ctx, got, list(sc.names))))
                    out.checks.append((sc.ctx, list(sc.names), m, t, span))
                case S.DAssertEq(lhs, rhs, ty, span):
                    t = elab_ty(ty, sc)
                    check_ty(sc.ctx, t)
                    lv = elab_tm(lhs, sc)
                    rv = elab_tm(rhs, sc)
                    for v in (lv, rv):
                        got = infer_tm(sc.ctx, v)
                        if not conv_ty(sc.ctx, got, t):
                            raise _err("ClassifierMismatch",
                                       "equation side has the wrong type", span)
                    out.asserts.append((sc.ctx, list(sc.names), lv, rv, t, span))
                case S.DNormalize(tm, span):
                    m = elab_tm(tm, sc)
                    infer_tm(sc.ctx, m)
                    out.normalizes.append((sc.ctx, list(sc.names), m, span))
        except CheckError as e:
            raise e.with_span(getattr(decl, "span", None)) from None
        except KernelError as e:
            raise ElabError(Diagnostic("Kernel", str(e),
                                       getattr(decl, "span", None))) from None
    out.scope = sc
    return out


def _fresh(sc: Scope, name: str, span):
    if (name in sc.bases or name in sc.posts or name in sc.constructors
            or name in sc.defs or name in DESC_TABLE):
        raise _err("Redefinition", f"name {name} is already in use", span)


def elab_expr_in(sc: Scope, text: str):
    """Parse and elaborate one expression in a file's final scope (the
    ``norm -e`` entry point); returns the term and its type."""
    p = S.Parser(text)
    e = p.expr()
    p.eat("eof")
    tm = elab_tm(e, sc)
    return tm, infer_tm(sc.ctx, tm)
