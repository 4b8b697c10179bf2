"""Well-formedness checking for all nine judgment forms.

Syntax-directed traversal in inference mode: terms are fully annotated,
every classifier equality demanded by a rule premise is discharged by
conversion, and variable rules only allow access to covariant entries
(contravariant positions are reached through explicitly dualized
contexts, which the traversal produces as it descends).

``infer_tm``, ``check_ty`` and ``check_sub`` keep their successes in the
session's memo (``normalize.session_memo``), so a judgment on the same
interned context and syntax is derived once per session; a failure is
derived again, with the same diagnostic.

The terms checked were built by the smart constructors, so they are
normal already, and ``adaptt check|norm`` print them as elaborated;
``normalize.nf`` serves callers that hold raw trees.
"""

from __future__ import annotations

from dataclasses import replace

from . import pretty
from .syntax import (
    POS, NEG, BINDER_DIR, Context, TmEntry, TyEntry, Telescope, Inst,
    Type, Base, TyVarRef, Pi, Sig, Ind,
    Term, Var, Lam, App, Pair, Fst, Snd, Cast, Con,
    Adapter, AdId, Chain, Post, PiAd, SigAd, IndAd,
    Sub, STy, Trans, KAd, IndDesc, TY_COMPS,
    SESSION, dual_ctx, extend_tm, extend_tel, shift, desc, record,
)
from .normalize import (
    apply, open_tm_block, conv_ty, fst_, ad_src, ad_tgt,
    entry_here, session_memo, con_args_tel, result_indices,
)
from .transform import (
    free_is_ad_source, spine_slots, cast_block_vars, _mid_telad,
)


@record(frozen=True)
class Diagnostic:
    """An error report: its code, message and place (an offset), and for a
    mismatch the expected and actual sides as printed."""

    code: str
    message: str
    span: int | None = None     # an offset into the checked text
    expected: str | None = None
    actual: str | None = None

    def render(self, filename: str, src) -> str:
        """The ``ERROR`` line, placed by ``src`` (a ``surface.Source`` of
        the checked text) in ``filename``."""
        loc = filename if self.span is None else src.at(filename, self.span)
        if self.expected is not None:
            return (f"ERROR {self.code} {loc} "
                    f"expected {self.expected} got {self.actual} ({self.message})")
        return f"ERROR {self.code} {loc} {self.message}"


class CheckError(Exception):
    """A failed judgment.  A mismatch keeps ``sides``: the context it failed
    in, and its expected and actual sides as nodes (or a phrase)."""

    def __init__(self, diag: Diagnostic, sides: tuple | None = None):
        super().__init__(diag.message)
        self.diag = diag
        self.sides = sides

    def with_span(self, span) -> CheckError:
        if self.diag.span is None and span is not None:
            return CheckError(replace(self.diag, span=span), self.sides)
        return self

    def named(self, names: pretty.Names) -> CheckError:
        """This mismatch with its sides printed under ``names``, the names
        of the context it failed in."""
        exp, act = [x if isinstance(x, str) else pretty.tm_string(names, x)
                    for x in self.sides[1:]]
        return CheckError(replace(self.diag, expected=exp, actual=act),
                          self.sides)


def _fail(code: str, message: str, ctx: Context = (), expected=None,
          actual=None):
    """A mismatch (``expected`` given) keeps the context ``ctx`` it failed
    in, and prints its sides under names invented for it."""
    if expected is None:
        raise CheckError(Diagnostic(code, message))
    e = CheckError(Diagnostic(code, message), (ctx, expected, actual))
    raise e.named(pretty.Names().invent(map(type, ctx))[0])


def _demand_conv_ty(ctx: Context, actual: Type, expected: Type, what: str):
    if not conv_ty(ctx, actual, expected):
        _fail("ClassifierMismatch", f"{what} has the wrong type", ctx,
              expected, actual)


# ---------------------------------------------------------------------------
# Contexts, telescopes, instantiations
# ---------------------------------------------------------------------------


def check_ctx(ctx: Context) -> None:
    for k, e in enumerate(ctx):
        prefix = ctx[:k]
        if isinstance(e, TmEntry):
            check_ty(dual_ctx(prefix, e.dir), e.ty)
        else:
            check_tel(dual_ctx(prefix, e.tel_dir), e.tel)


def check_tel(ctx: Context, tel: Telescope) -> None:
    for k, ty in enumerate(tel):
        check_ty(extend_tel(ctx, POS, tel[:k]), ty)


def check_inst(ctx: Context, inst: Inst, tel: Telescope, last: bool = True):
    """With ``last`` False the last component is left to the caller, and
    the type it must have is returned."""
    if len(inst) != len(tel):
        _fail("ArityMismatch",
              f"instantiation has {len(inst)} components, telescope wants {len(tel)}")
    for k, t in enumerate(inst):
        want = open_tm_block(tel[k], inst[:k])
        if not last and k == len(inst) - 1:
            return want
        got = infer_tm(ctx, t)
        _demand_conv_ty(ctx, got, want, "instantiation component")


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@session_memo
def check_ty(ctx: Context, ty: Type) -> None:
    match ty:
        case Base(_):
            pass
        case TyVarRef(j, inst):
            try:
                entry, tel = entry_here(ctx, TyEntry, j)
            except IndexError:
                _fail("UnboundVariable", f"type variable {j} is not in scope")
            if entry.dir is not POS:
                _fail("VarianceViolation",
                      f"type variable {j} is contravariant here")
            check_inst(dual_ctx(ctx, entry.tel_dir), inst, tel)
        case Pi(first, second) | Sig(first, second):
            d = BINDER_DIR[type(ty)]
            check_ty(dual_ctx(ctx, d), first)
            check_ty(extend_tm(ctx, d, first), second)
        case Ind(name, params, indices):
            d = desc(name)
            check_sub(ctx, params, d.params_ctx)
            check_inst(ctx, indices, apply(d.index_tel, params))
        case _:
            _fail("IllFormed", f"not a type: {ty!r}")


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@session_memo
def infer_tm(ctx: Context, t: Term) -> Type:
    match t:
        case Var(i):
            try:
                entry, ty = entry_here(ctx, TmEntry, i)
            except IndexError:
                _fail("UnboundVariable", f"term variable {i} is not in scope")
            if entry.dir is not POS:
                _fail("VarianceViolation", f"term variable {i} is contravariant here")
            return ty
        case Lam(dom, body):
            check_ty(dual_ctx(ctx), dom)
            cod = infer_tm(extend_tm(ctx, NEG, dom), body)
            return Pi(dom, cod)
        case App(fn, arg):
            fty = infer_tm(ctx, fn)
            if not isinstance(fty, Pi):
                _fail("ClassifierMismatch", "application head is not a function",
                      ctx, expected="a function type", actual=fty)
            aty = infer_tm(dual_ctx(ctx), arg)
            _demand_conv_ty(dual_ctx(ctx), aty, fty.dom, "function argument")
            return open_tm_block(fty.cod, (arg,))
        case Pair(ty, a, b):
            if not isinstance(ty, Sig):
                _fail("ClassifierMismatch", "pair annotation is not a pair type",
                      ctx, expected="a pair type", actual=ty)
            check_ty(ctx, ty)
            _demand_conv_ty(ctx, infer_tm(ctx, a), ty.fst, "first component")
            want = open_tm_block(ty.snd, (a,))
            _demand_conv_ty(ctx, infer_tm(ctx, b), want, "second component")
            return ty
        case Fst(p):
            pty = infer_tm(ctx, p)
            if not isinstance(pty, Sig):
                _fail("ClassifierMismatch", "projection of a non-pair",
                      ctx, expected="a pair type", actual=pty)
            return pty.fst
        case Snd(p):
            pty = infer_tm(ctx, p)
            if not isinstance(pty, Sig):
                _fail("ClassifierMismatch", "projection of a non-pair",
                      ctx, expected="a pair type", actual=pty)
            return open_tm_block(pty.snd, (fst_(p),))
        case Cast(tm, ad):
            tty = infer_tm(ctx, tm)
            src, tgt = check_ad(ctx, ad)
            _demand_conv_ty(ctx, tty, src, "cast subject")
            return tgt
        case Con():
            # the last argument is taken in this frame, so a spine costs no
            # stack.  A suffix with no kept type is walked with a record of
            # its own and kept on the way up, as a call of its own was; its
            # type is compared, and each cell's indices read, innermost
            # first, as the recursion did
            s, cells = SESSION.get(), ()
            while True:
                tel = _con_tel(ctx, t.desc, t.tag, t.params)
                want = check_inst(ctx, t.args, tel, last=False)
                cells = (t, want, s.record, cells)
                if not t.args:
                    break
                last = t.args[-1]
                ty = (_kept_type(ctx, last) if type(last) is Con
                      else infer_tm(ctx, last))
                if ty is not None:
                    break
                s.record.append(record := [])
                s.record, t = record, last
            while cells:
                t, want, s.record, cells = cells
                if t.args:
                    _demand_conv_ty(ctx, ty, want, "instantiation component")
                ty = Ind(t.desc, t.params, result_indices(t))
                if cells:
                    _keep_type(ty, s.record, ctx, t)
            return ty
        case _:
            _fail("IllFormed", f"not a term: {t!r}")


_kept_type, _keep_type = infer_tm.kept, infer_tm.keep


@session_memo
def _con_tel(ctx: Context, name: str, tag: int, params: Sub) -> Telescope:
    """The argument telescope of constructor ``tag`` of datatype ``name``
    at ``params``, the tag and parameters checked.  Every cell of a list
    has the same ones, so a list reads it once and its other cells hit."""
    d = desc(name)
    if not 0 <= tag < len(d.cons):
        _fail("UnboundVariable", f"no constructor {tag} in {name}")
    check_sub(ctx, params, d.params_ctx)
    return con_args_tel(d, tag, params)


# ---------------------------------------------------------------------------
# Adapters
# ---------------------------------------------------------------------------


def check_ad(ctx: Context, ad: Adapter) -> tuple[Type, Type]:
    match ad:
        case AdId(ty):
            check_ty(ctx, ty)
            return ty, ty
        case Chain(parts):
            if len(parts) < 2:
                _fail("IllFormed", "composite adapter with fewer than two links")
            src, cur = check_ad(ctx, parts[0])
            for p in parts[1:]:
                s, t = check_ad(ctx, p)
                _demand_conv_ty(ctx, s, cur, "adapter composition middle")
                cur = t
            return src, cur
        case Post(_, s, t):
            check_ty(ctx, s)
            check_ty(ctx, t)
            return s, t
        case PiAd(dom_ad, cod_ad, src, tgt):
            if not (isinstance(src, Pi) and isinstance(tgt, Pi)):
                _fail("ClassifierMismatch", "function adapter endpoints must be functions",
                      ctx, expected="a function type", actual=src)
            check_ty(ctx, src)
            check_ty(ctx, tgt)
            das, dat = check_ad(dual_ctx(ctx), dom_ad)
            _demand_conv_ty(dual_ctx(ctx), das, tgt.dom, "domain adapter source")
            _demand_conv_ty(dual_ctx(ctx), dat, src.dom, "domain adapter target")
            ext = extend_tm(ctx, NEG, tgt.dom)
            cas, cat = check_ad(ext, cod_ad)
            expected = cast_block_vars(src.cod, (dom_ad,), 1)
            _demand_conv_ty(ext, cas, expected, "codomain adapter source")
            _demand_conv_ty(ext, cat, tgt.cod, "codomain adapter target")
            return src, tgt
        case SigAd(fst_ad, snd_ad, src, tgt):
            if not (isinstance(src, Sig) and isinstance(tgt, Sig)):
                _fail("ClassifierMismatch", "pair adapter endpoints must be pair types",
                      ctx, expected="a pair type", actual=src)
            check_ty(ctx, src)
            check_ty(ctx, tgt)
            fas, fat = check_ad(ctx, fst_ad)
            _demand_conv_ty(ctx, fas, src.fst, "first adapter source")
            _demand_conv_ty(ctx, fat, tgt.fst, "first adapter target")
            ext = extend_tm(ctx, POS, src.fst)
            sas, sat = check_ad(ext, snd_ad)
            _demand_conv_ty(ext, sas, src.snd, "second adapter source")
            expected = cast_block_vars(tgt.snd, (fst_ad,), 1)
            _demand_conv_ty(ext, sat, expected, "second adapter target")
            return src, tgt
        case IndAd(name, trans):
            d = desc(name)
            check_trans(ctx, trans, d.full_ctx)
            return ad_src(ad), ad_tgt(ad)
        case _:
            _fail("IllFormed", f"not an adapter: {ad!r}")


def check_telad(ctx: Context, ads, src_tel: Telescope, tgt_tel: Telescope) -> None:
    """Telescope adapter: componentwise, each component over the source
    prefix with its target adjusted along the earlier components."""
    if len(ads) != len(src_tel) or len(ads) != len(tgt_tel):
        _fail("ArityMismatch", "telescope adapter length mismatch")
    for k, ad in enumerate(ads):
        comp_ctx = extend_tel(ctx, POS, src_tel[:k])
        s, t = check_ad(comp_ctx, ad)
        _demand_conv_ty(comp_ctx, s, src_tel[k], "telescope adapter source")
        _demand_conv_ty(comp_ctx, t, cast_block_vars(tgt_tel[k], ads[:k], k),
                        "telescope adapter target")


# ---------------------------------------------------------------------------
# Substitutions and transformations
# ---------------------------------------------------------------------------


@session_memo
def check_sub(ctx: Context, sub: Sub, tgt: Context) -> None:
    if len(sub.comps) != len(tgt):
        _fail("ArityMismatch",
              f"substitution has {len(sub.comps)} components for a context of {len(tgt)}")
    for entry, c, here, want in spine_slots(ctx, tgt, sub):
        if isinstance(entry, TmEntry):
            if isinstance(c, TY_COMPS):
                _fail("ArityMismatch", "term entry needs a term component")
            _demand_conv_ty(here, infer_tm(here, c), want,
                            "substitution component")
        else:
            if not isinstance(c, STy):
                _fail("ArityMismatch", "type entry needs a type component")
            if c.arity != len(entry.tel):
                _fail("ArityMismatch", "type component arity mismatch")
            check_ty(here, c.ty)


def check_trans(ctx: Context, tr: Trans, tgt: Context) -> None:
    """Each component against the direction table: a term component at
    its free side's type; an adapter component over its free side's
    telescope block, its forced end the stored other adjusted along the
    telescope adapter of the prefix."""
    if len(tr.comps) != len(tgt):
        _fail("ArityMismatch",
              f"transformation has {len(tr.comps)} components for a context of {len(tgt)}")
    for k, (entry, c, here, want) in enumerate(spine_slots(ctx, tgt, tr)):
        if isinstance(entry, TmEntry):
            if isinstance(c, TY_COMPS):
                _fail("ArityMismatch", "term entry needs a term component")
            _demand_conv_ty(here, infer_tm(here, c), want,
                            "transformation component")
            continue
        if not isinstance(c, KAd):
            _fail("ArityMismatch", "type entry needs an adapter component")
        if c.arity != len(entry.tel):
            _fail("ArityMismatch", "adapter component arity mismatch")
        alpha = _mid_telad(tgt, tr, k)
        s, t = check_ad(here, c.ad)
        got, end = (t, "target") if free_is_ad_source(entry) else (s, "source")
        want = cast_block_vars(c.forced_ty, alpha, len(alpha))
        _demand_conv_ty(here, got, want, f"adapter component {end}")


# ---------------------------------------------------------------------------
# Signatures
# ---------------------------------------------------------------------------


def check_desc(d: IndDesc) -> None:
    check_ctx(d.params_ctx)
    check_tel(d.params_ctx, d.index_tel)
    for c in d.cons:
        check_tel(d.params_ctx, c.nrec)
        nr_ctx = extend_tel(d.params_ctx, POS, c.nrec)
        for r in c.rec:
            check_tel(dual_ctx(nr_ctx), r.arit)
            r_ctx = extend_tel(nr_ctx, NEG, r.arit)
            idx_tel = shift((d.index_tel), len(c.nrec) + len(r.arit), 0)
            check_inst(r_ctx, r.rind, idx_tel)
        idx_tel = shift((d.index_tel), len(c.nrec), 0)
        check_inst(nr_ctx, c.ind, idx_tel)
