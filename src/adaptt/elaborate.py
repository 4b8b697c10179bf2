"""Named surface syntax to de Bruijn core, plus file-level processing.

Constructor declarations written as arrow telescopes are compiled to the
signature record form: an argument whose (possibly binder-prefixed) head
is the datatype being declared becomes a recursive-argument description;
the datatype name may not occur anywhere else (strict positivity is the
grammar).  All outputs are checked.  Each subexpression is elaborated in
the context the checker reads it in (``Scope.dual``, ``Scope.component``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import field

from . import surface as S
from .check import CheckError, Diagnostic, check_ty, infer_tm
from .normalize import (
    apply, compose_ad, conv_ty, ad_end, ad_src, ad_tgt, cast as mk_cast,
    app as mk_app, fst_ as mk_fst, snd_ as mk_snd, KernelError,
    recording, replay,
)
from . import pretty
from .pretty import LOCAL, Names
from .inductive import register
from .transform import comp_ctx, free_is_ad_source, spine_prefix
from .syntax import (
    POS, NEG, BINDER_DIR, Dir, Context, TmEntry, TyEntry, Telescope,
    Base, TyVarRef, Pi, Sig, Ind, Var, Lam, Pair, Con,
    AdId, Post, PiAd, SigAd, IndAd,
    Sub, STy, Trans, KAd,
    RecDesc, ConDesc, IndDesc, SESSION,
    dual_ctx, entry_position, least_free_tm, record, shift, vinst,
)


class ElabError(CheckError):
    pass


def _err(code: str, msg: str, span) -> ElabError:
    return ElabError(Diagnostic(code, msg, span))


@record
class Scope:
    """The ambient context built by var/data declarations and local
    binders, and its names over the file-level ones (``names.table``)."""

    ctx: Context = ()
    names: Names = field(default_factory=Names)
    _dual: Scope | None = field(default=None, init=False, repr=False,
                                compare=False)

    def push(self, name: str, entry) -> "Scope":
        return Scope(self.ctx + (entry,), self.names.push(type(entry), name))

    def closed(self) -> "Scope":
        """The file-level names alone, with an empty context."""
        return Scope((), Names(self.names.table))

    def dual(self, d: Dir = NEG) -> "Scope":
        """The same names over ``dual_ctx(ctx, d)``, computed once."""
        if d is NEG and self._dual is None:
            self._dual = Scope(dual_ctx(self.ctx), self.names)
            self._dual._dual = self
        return self if d is POS else self._dual

    def component(self, tgt: Context, prefix: Sub | Trans, binders) -> "Scope":
        """The scope of the component after ``prefix`` in a spine into
        ``tgt``: ``binders`` name the entry's telescope, read as
        ``spine_slots`` reads it."""
        entry = tgt[len(prefix.comps)]
        if not binders:     # comp_ctx is then dual_ctx: reuse the kept dual
            return self.dual(entry.dir)
        tel = apply(entry.tel, spine_prefix(tgt, prefix))
        return Scope(comp_ctx(self.ctx, entry, tel),
                     self.names.push(TmEntry, *binders))


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
            kind, m = sc.names.resolve(head.name, TyEntry)
            if kind == "datatype":
                return _elab_inductive(head, args, sc, m)
            if kind is LOCAL:
                j, ent = m, sc.ctx[entry_position(sc.ctx, TyEntry, m)]
                if len(args) != len(ent.tel):
                    raise _err("ArityMismatch", f"type variable {head.name} "
                               f"expects {len(ent.tel)} arguments", head.span)
                isc = sc.dual(ent.tel_dir)
                return TyVarRef(j, tuple(elab_tm(a, isc) for a in args))
            if kind != "base":
                raise _err("UnboundVariable", f"unknown type {head.name}",
                           head.span)
            if args:
                raise _err("ArityMismatch",
                           f"base type {head.name} takes no arguments",
                           head.span)
            return m
        case (S.SArrow(binder, first, second, _)
              | S.SStar(binder, first, second, _)):
            former = Pi if type(e) is S.SArrow else Sig
            d = BINDER_DIR[former]
            first_t = elab_ty(first, sc.dual(d))
            sc2 = sc.push(binder or "_", TmEntry(d, first_t))
            return former(first_t, elab_ty(second, sc2))
        case _:
            raise _err("Syntax", "expected a type", e.span)


def _elab_param_spine(params_ctx: Context, args: list[S.SExpr], sc: Scope) -> Sub:
    comps = []
    for entry, a in zip(params_ctx, args):
        if isinstance(entry, TmEntry):
            comps.append(elab_tm(a, sc.dual(entry.dir)))
        else:
            comps.append(_elab_family(a, params_ctx, Sub(tuple(comps)), sc))
    return Sub(tuple(comps))


def _elab_family(a: S.SExpr, tgt: Context, prefix: Sub, sc: Scope) -> STy:
    """A type-family argument for the entry of ``tgt`` after ``prefix``:
    a type variable of its arity (eta-expanded), an explicit binder form,
    or a constant type."""
    entry = tgt[len(prefix.comps)]
    arity = len(entry.tel)
    if isinstance(a, S.SFam):
        if len(a.binders) != arity:
            raise _err("ArityMismatch",
                       f"family binds {len(a.binders)} of {arity} variables",
                       a.span)
        return STy(elab_ty(a.body, sc.component(tgt, prefix, a.binders)), arity)
    if isinstance(a, S.SName):
        kind, m = sc.names.resolve(a.name, TyEntry)
        if kind is LOCAL:
            j, ent = m, sc.ctx[entry_position(sc.ctx, TyEntry, m)]
            if len(ent.tel) != arity:
                raise _err("ArityMismatch",
                           f"type variable {a.name} has the wrong arity", a.span)
            return STy(TyVarRef(j, vinst(ent.tel)), arity)
    ty = elab_ty(a, sc.dual(entry.dir))
    return STy(shift(ty, arity, 0), arity)


def elab_tm(e: S.SExpr, sc: Scope):
    match e:
        case S.SName(_, _) | S.SApp(_, _, _):
            head, args = _head_spine(e) if type(e) is S.SApp else (e, ())
            if not isinstance(head, S.SName):
                fn = elab_tm(head, sc)
            else:
                kind, fn = sc.names.resolve(head.name, TmEntry)
                if kind == "constructor":
                    return _elab_inductive(head, args, sc, *fn)
                if kind is LOCAL:
                    fn = Var(fn)
                elif kind != "def":
                    raise _err("UnboundVariable", f"unknown term {head.name}",
                               head.span)
            for a in args:
                fn = mk_app(fn, elab_tm(a, sc.dual()))
            return fn
        case S.SFun(binder, dom, body, _):
            dom_t = elab_ty(dom, sc.dual())
            sc2 = sc.push(binder, TmEntry(NEG, dom_t))
            return Lam(dom_t, elab_tm(body, sc2))
        case S.SPair(fst, snd, ty, span):
            ty_t = elab_ty(ty, sc)
            if not isinstance(ty_t, Sig):
                raise _err("ClassifierMismatch",
                           "pair annotation must be a pair type", span)
            return Pair(ty_t, elab_tm(fst, sc), elab_tm(snd, sc))
        case S.SFst(arg, _):
            return mk_fst(elab_tm(arg, sc))
        case S.SSnd(arg, _):
            return mk_snd(elab_tm(arg, sc))
        case S.SCast(tm, ad, _):
            t = elab_tm(tm, sc)
            a = elab_ad(ad, sc, want_src=infer_tm(sc.ctx, t))
            return mk_cast(t, a)
        case _:
            raise _err("Syntax", "expected a term", e.span)


def _elab_inductive(head: S.SName, args: list[S.SExpr], sc: Scope,
                    d: IndDesc, tag: int | None = None):
    """``head`` applied to ``args``: datatype ``d`` (``tag`` None) or its
    constructor ``tag``.  The arguments are ``d``'s parameter spine, then
    the indices or the constructor's arguments.  A last argument that
    applies a constructor is taken in this frame, so a spine costs no
    stack: the cells are elaborated top-down and built bottom-up.  A cell
    whose datatype and parameters (up to spans) are those of the cell
    above reuses their elaboration and reports its steps again; each
    cell that reads its parameters records the steps."""
    cells, tail, seen = (), (), None
    while True:
        np = len(d.params_ctx)
        c = None if tag is None else d.cons[tag]
        want = np + (len(d.index_tel) if c is None else len(c.nrec) + len(c.rec))
        if len(args) != want:
            what = head.name if c is None else f"constructor {head.name}"
            raise _err("ArityMismatch",
                       f"{what} expects {want} arguments, got {len(args)}",
                       head.span)
        if c is None:
            params = _elab_param_spine(d.params_ctx, args[:np], sc)
            return Ind(d.name, params, tuple([elab_tm(a, sc) for a in args[np:]]))
        last = args[-1] if want > np else None
        nhead, nargs = _head_spine(last) if type(last) is S.SApp else (last, ())
        kind, m = (sc.names.resolve(nhead.name, TmEntry)
                   if type(nhead) is S.SName else (None, None))
        if d is seen and all(map(_same, args[:np], seen_args)):
            replay(record)
        else:
            seen, seen_args = d, args[:np]
            with recording() as record:
                params = _elab_param_spine(d.params_ctx, seen_args, sc)
        cells = (d.name, tag, params, [elab_tm(a, sc) for a in args[np:-1]],
                 cells)
        if kind != "constructor":
            if last is not None:
                tail = (elab_tm(last, sc),)
            break
        head, args, (d, tag) = nhead, nargs, m
    while cells:
        name, tag, params, lead, cells = cells
        tail = (Con(name, tag, params, (*lead, *tail)),)
    return tail[0]


def elab_ad(e: S.SExpr, sc: Scope, want_src=None):
    match e:
        case S.SId(None, span):
            if want_src is None:
                raise _err("Syntax",
                           "bare id needs a type; write `id A` here", span)
            return AdId(want_src)
        case S.SId(at, _):
            return AdId(elab_ty(at, sc))
        case S.SName(name, span):
            kind, m = sc.names.resolve(name, None)
            if kind != "adapter":
                raise _err("UnboundVariable", f"unknown adapter {name}", span)
            return m
        case S.SComp(after, before, _):
            before_a = elab_ad(before, sc, want_src=want_src)
            after_a = elab_ad(after, sc)
            return compose_ad(after_a, before_a)
        case S.SPush(head, comps, span):
            return _elab_push(head, comps, span, sc, want_src)
        case _:
            raise _err("Syntax", "expected an adapter", e.span)


def _elab_push(head: S.SExpr, comps, span, sc: Scope, want_src):
    if not isinstance(head, S.SName):
        raise _err("Syntax", "expected a named adapter former", span)
    if head.name in ("Pi", "Sig"):
        return _elab_pi_sig_ad(head.name, comps, span, sc, want_src)
    kind, d = sc.names.resolve(head.name, None)
    if kind != "datatype":
        raise _err("UnboundVariable", f"unknown datatype {head.name}", span)
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
            out.append(elab_tm(c.body, sc.dual(entry.dir)))
        else:
            ar = len(entry.tel)
            if c.binders and len(c.binders) != ar:
                raise _err("ArityMismatch",
                           f"component binds {len(c.binders)} of {ar} variables",
                           c.span)
            csc = sc.component(d.full_ctx, Trans(tuple(out)),
                               c.binders or ("_",) * ar)
            ad = elab_ad(c.body, csc)
            forced = ad_end(ad, not free_is_ad_source(entry))
            out.append(KAd(ad, forced, ar))
    return IndAd(head.name, Trans(tuple(out)))


def _elab_pi_sig_ad(kind: str, comps, span, sc: Scope, want_src):
    if len(comps) != 2:
        raise _err("ArityMismatch", f"{kind} adapter takes two components", span)
    c0, c1 = comps
    if c0.binders:
        raise _err("Syntax", "first component cannot bind variables", c0.span)
    first = elab_ad(c0.body, sc.dual() if kind == "Pi" else sc)
    if len(c1.binders) > 1:
        raise _err("ArityMismatch", "second component binds one variable",
                   c1.span)
    binder = c1.binders[0] if c1.binders else "_"
    if kind == "Pi":
        new_dom = ad_src(first)
        second = elab_ad(c1.body, sc.push(binder, TmEntry(NEG, new_dom)))
        tgt = Pi(new_dom, ad_tgt(second))
        src = want_src
        if not isinstance(src, Pi):
            src = Pi(ad_tgt(first), ad_src(second))
            if least_free_tm(src.cod) == 0:
                raise _err("Syntax",
                           "cannot infer the source of this function adapter; "
                           "cast position provides it", span)
        return PiAd(first, second, src, tgt)
    src_fst = ad_src(first)
    second = elab_ad(c1.body, sc.push(binder, TmEntry(POS, src_fst)))
    src = Sig(src_fst, ad_src(second))
    if want_src is not None and not conv_ty(sc.ctx, src, want_src):
        raise _err("ClassifierMismatch", "pair adapter source mismatch", span)
    snd_tgt = ad_tgt(second)
    if least_free_tm(snd_tgt) == 0:
        raise _err("Syntax",
                   "cannot infer the target of this pair adapter", span)
    tgt = Sig(ad_tgt(first), snd_tgt)
    return SigAd(first, second, src, tgt)


# ---------------------------------------------------------------------------
# Data declarations
# ---------------------------------------------------------------------------


def _mentions(e, name: str) -> bool:
    """Whether ``name`` is used in ``e``.  Every field of every surface
    node is walked (binder names are strings, not uses), so a surface
    form added later is covered without a case of its own."""
    if type(e) is S.SName:
        return e.name == name
    if type(e) is tuple:
        return any(_mentions(x, name) for x in e)
    names = getattr(e, "__slots__", ())     # a surface node's fields
    return any(_mentions(getattr(e, n), name) for n in names)


def _same(a, b) -> bool:
    """Whether surface values ``a`` and ``b`` are equal up to spans; every
    field is walked, as in ``_mentions``."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_same, a, b))
    names = getattr(a, "__slots__", None)     # a surface node's fields
    if names is None:
        return a == b
    for n in names:
        if n != "span" and not _same(getattr(a, n), getattr(b, n)):
            return False
    return True


def _peel_arrows(e: S.SExpr):
    """Split (x : A) -> ... -> HEAD into binders and head."""
    binders = []
    while isinstance(e, S.SArrow):
        binders.append((e.binder, e.dom))
        e = e.cod
    return binders, e


def elab_data(decl: S.DData, sc: Scope) -> IndDesc:
    # re-declaring an existing datatype is allowed only when the result
    # is structurally identical, hence the same interned node (elab_file
    # enforces that)
    psc = sc.closed()
    for p in decl.params:
        if isinstance(p, S.PTmParam):
            psc = psc.push(p.name, TmEntry(POS, elab_ty(p.ty, psc)))
        else:
            tel, _ = _elab_tel(p.tele, psc)
            psc = psc.push(p.name, TyEntry(Dir(p.dir), POS, tel))
    index_tel, _ = _elab_tel(decl.indices, psc)
    cons = tuple(_elab_con_decl(decl, con, psc) for con in decl.cons)
    return IndDesc(decl.name, psc.ctx, index_tel, cons)


def _elab_tel(binders, sc: Scope) -> tuple[Telescope, Scope]:
    """Elaborate ``(name, type)`` binders left to right, each type in the
    scope of the ones before it as covariant term entries (an unnamed
    binder is ``_``); returns the telescope and the extended scope."""
    tel = []
    for name, ty in binders:
        t = elab_ty(ty, sc)
        tel.append(t)
        sc = sc.push(name or "_", TmEntry(POS, t))
    return tuple(tel), sc


def _elab_con_decl(decl: S.DData, con: S.SConDecl, psc: Scope) -> ConDesc:
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
            if any(_mentions(bt, self_name) for _, bt in binders):
                raise _err("Positivity",
                           f"{self_name} occurs in a branching arity", con.span)
            seen_rec = True
            # read in the dual; dualized back, its binders are contravariant
            arit, asc = _elab_tel(binders, nsc.dual())
            recs.append(RecDesc(arit, _elab_self_result(decl, hargs,
                                                        asc.dual(), con.span)))
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
    ind = _elab_self_result(decl, hargs, nsc, con.span)
    return ConDesc(con.name, tuple(nrec), tuple(recs), ind)


def _elab_self_result(decl: S.DData, hargs: list[S.SExpr], sc: Scope, span):
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


@record
class Elaborated:
    """What a file elaborated to: its scope, and the checks, equations and
    normalizations it asks for, each with its context, names and place."""

    scope: Scope
    checks: list = field(default_factory=list)      # (ctx, names, tm, ty, span)
    asserts: list = field(default_factory=list)     # (ctx, names, lhs, rhs, ty, span)
    normalizes: list = field(default_factory=list)  # (ctx, names, tm, span)
    datas: list = field(default_factory=list)       # registered names


#: the declarations read over no context, only over file-level names
_CLOSED = (S.DPostulate, S.DDef, S.DData)


@contextmanager
def _diagnosed(span, kernel_span, sc: Scope):
    """The diagnostic boundary of one declaration or expression read in
    ``sc``: a check failure without a place gets ``span``, and a mismatch
    whose context extends ``sc``'s context or its dual prints its sides
    under ``sc``'s names (else under the names it was raised with); a
    kernel failure becomes a ``Kernel`` diagnostic at ``kernel_span``."""
    try:
        yield
    except CheckError as e:
        n = len(sc.ctx)
        if e.sides is not None and e.sides[0][:n] in (sc.ctx, sc.dual().ctx):
            e = e.named(sc.names.invent(map(type, e.sides[0][n:]))[0])
        raise e.with_span(span) from None
    except KernelError as e:
        raise ElabError(Diagnostic("Kernel", str(e), kernel_span)) from None


def elab_file(decls: list[S.Decl]) -> Elaborated:
    sc = Scope()
    for d in SESSION.get().descs.values():
        _enter_data(sc.names.table, d)
    out = Elaborated(sc)
    for decl in decls:
        dsc = sc.closed() if isinstance(decl, _CLOSED) else sc
        with _diagnosed(decl.span, decl.span, dsc):
            match decl:
                case S.DBase(name, span):
                    _fresh(sc, name, span)
                    sc.names.table[name] = ("base", Base(name))
                case S.DPostulate(name, src, tgt, span):
                    _fresh(sc, name, span)
                    s = elab_ty(src, dsc)
                    t = elab_ty(tgt, dsc)
                    check_ty((), s)
                    check_ty((), t)
                    sc.names.table[name] = ("adapter", Post(name, s, t))
                case S.DVar(name, ty, span, neg):
                    d = NEG if neg else POS
                    t = elab_ty(ty, sc.dual(d))
                    check_ty(sc.dual(d).ctx, t)
                    sc = sc.push(name, TmEntry(d, t))
                case S.DDef(name, ty, tm, span):
                    _fresh(sc, name, span)
                    t = elab_ty(ty, dsc)
                    check_ty((), t)
                    m = elab_tm(tm, dsc)
                    if not conv_ty((), infer_tm((), m), t):
                        raise _err("ClassifierMismatch",
                                   f"definition {name} does not have its "
                                   f"declared type", span)
                    sc.names.table[name] = ("def", m)
                case S.DData(_, _, _, _, span):
                    d = elab_data(decl, sc)
                    _enter_data(sc.names.table, d, span)
                    register(d)
                    out.datas.append(d.name)
                case S.DCheck(tm, ty, span):
                    t = elab_ty(ty, sc)
                    check_ty(sc.ctx, t)
                    m = elab_tm(tm, sc)
                    got = infer_tm(sc.ctx, m)
                    if not conv_ty(sc.ctx, got, t):
                        raise ElabError(Diagnostic(
                            "ClassifierMismatch", "check failed", span,
                            pretty.ty_string(sc.names, t),
                            pretty.ty_string(sc.names, got)))
                    out.checks.append((sc.ctx, sc.names, m, t, span))
                case S.DAssertEq(lhs, rhs, ty, span):
                    t = elab_ty(ty, sc)
                    check_ty(sc.ctx, t)
                    lv = elab_tm(lhs, sc)
                    rv = elab_tm(rhs, sc)
                    for v in (lv, rv):
                        if not conv_ty(sc.ctx, infer_tm(sc.ctx, v), t):
                            raise _err("ClassifierMismatch",
                                       "equation side has the wrong type", span)
                    out.asserts.append((sc.ctx, sc.names, lv, rv, t, span))
                case S.DNormalize(tm, span):
                    m = elab_tm(tm, sc)
                    infer_tm(sc.ctx, m)
                    out.normalizes.append((sc.ctx, sc.names, m, span))
    out.scope = sc
    return out


def _fresh(sc: Scope, name: str, span):
    if name in sc.names.table:
        raise _err("Redefinition", f"name {name} is already in use", span)


def _enter_data(table: dict, d: IndDesc, span=None) -> None:
    """Enter datatype ``d`` and its constructors into ``table``.  A name
    keeps its first meaning: seeding from the session (no ``span``) skips
    a taken name, and a declaration at ``span`` may only restate it.  Every
    name is checked before any is entered, and before the declaration is
    registered in the session, so a rejected one leaves no trace."""
    new = {}
    for name, meaning in ((d.name, ("datatype", d)),
                          *((c.name, ("constructor", (d, i)))
                            for i, c in enumerate(d.cons))):
        have = new.setdefault(name, table.get(name, meaning))
        if have != meaning and span is not None:
            msg = (f"datatype {name} is already defined differently"
                   if have[0] == meaning[0] == "datatype"
                   else f"name {name} is already in use")
            raise _err("Redefinition", msg, span)
    table.update(new)


def elab_expr_in(sc: Scope, text: str):
    """Parse and elaborate one expression in a file's final scope (the
    ``norm -e`` entry point); returns the term and its type."""
    p = S.Parser(text)
    e = p.expr()
    p.eat("eof")
    # a kernel failure in the expression has no place in its text
    with _diagnosed(e.span, None, sc):
        tm = elab_tm(e, sc)
        return tm, infer_tm(sc.ctx, tm)
