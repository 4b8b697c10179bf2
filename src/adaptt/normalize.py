"""Rewriting engine: substitution application, composition, cast
computation, beta, and conversion checking.

The equational theory is oriented into eager computation at construction
time: every operation that could create a redex goes through the smart
constructors below (``app``, ``cast``, ``fst_``, ``snd_``), so values the
kernel builds are always in normal form.  The commands print terms as
elaborated, for that reason.  ``nf`` re-runs the smart constructors over a
raw tree, for a library caller that built one with the node constructors;
on kernel-built values it is the identity, and a node it has returned
before it returns without a walk, by a mark kept on the node.  Eta is not
expanded by ``nf``: conversion (``conv_tm``) handles it type-directed.

``shift`` and ``open_tm_block`` return a subterm untouched when its
cached free-variable bounds (``syntax.fv_bounds``) lie below the range
they act on.  That is exact because kernel values are normal: rebuilding
a closed normal subterm fires no rule and yields the same node.  Raw
non-normal input to ``open_tm_block`` is outside its contract.  ``apply``
walks every subterm, since it reports ``SUB_PUSH`` at each node of
``syntax.BINDER_DIR``.

Beside ``pi_tel`` sit the constructor argument telescopes a signature
gives (``con_data_tied``, ``con_args_tel``), which the checker reads once
per list cell and conversion once per run of equal cells.

Every rewrite step is an instance of exactly one oriented equation and
reports its rule name to the trace sink; the registry of names, each with
its equation, is in ``docs/rewrite-rules.md``.
"""

from __future__ import annotations

from functools import wraps
from operator import attrgetter

from .syntax import (
    NEG, BINDER_DIR, Context, TmEntry, TyEntry, Telescope, Inst,
    Type, Base, TyVarRef, Pi, Sig, Ind,
    Term, Var, Lam, App, Pair, Fst, Snd, Cast, Con,
    Adapter, AdId, Chain, Post, PiAd, SigAd, IndAd,
    Sub, STy, Trans, KAd, IndDesc, TY_COMPS,
    dual_ctx, extend_tm, fv_bounds, id_sub, map_scoped, scoped, shift,
    entry_position, tm_count, ty_count, desc, record, SESSION,
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
    "SUB_PUSH",        # substitution push at a node of syntax.BINDER_DIR
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


def set_trace(sink) -> None:
    """Install a callable receiving (rule_name, path) per rewrite step in
    the current session, or None to disable tracing."""
    SESSION.get().sink = sink


def note(rule: str) -> None:
    assert rule in RULES, rule
    s = SESSION.get()
    if s.record is not None:
        s.record.append(rule)
    elif s.sink is not None:
        s.sink(rule, "/".join(s.path) or ".")


class at:
    """Context manager marking the current position for trace paths."""

    def __init__(self, seg: str):
        self.seg = seg

    def __enter__(self):
        SESSION.get().path.append(self.seg)

    def __exit__(self, *exc):
        SESSION.get().path.pop()


# A record is what a cached computation reported: a list whose items are
# rule names and the records of the cached calls it made, in order, each
# of those appended by reference.  Nesting copies nothing; the sink reads
# the outermost record in one walk.  Cached computations never enter an
# ``at`` marker, so every step in a record shares the caller's path.


def _replay(s, record: list) -> None:
    """Report a finished record: into the record being made, if a cached
    computation is running, else to the sink at the current path."""
    if s.record is not None:
        s.record.append(record)
        return
    sink = s.sink
    if sink is None:
        return
    path = "/".join(s.path) or "."
    stack = [iter(record)]
    while stack:
        for item in stack[-1]:
            if type(item) is str:
                sink(item, path)
            else:
                stack.append(iter(item))
                break
        else:
            stack.pop()


class recording:
    """``with recording() as record``: the steps of the block go to a fresh
    record, reported on leaving, on a failure too, so a failure's steps are
    reported as made.  ``replay(record)`` reports it again wherever the
    block's result is reused.  It adds no frame to a recursion through the
    block."""

    __slots__ = ("s", "outer", "record")

    def __enter__(self) -> list:
        self.s = s = SESSION.get()
        self.outer = s.record
        s.record = self.record = record = []
        return record

    def __exit__(self, typ, val, tb):
        s, record = self.s, self.record
        s.record = self.outer
        if record:
            _replay(s, record)


def replay(record: list) -> None:
    """Report a finished ``record`` at this point."""
    if record:
        _replay(SESSION.get(), record)


def _replaying(fn, table_of):
    """``fn`` with its successes kept in the table ``table_of(session)``,
    keyed by ``fn`` and the arguments, each with its record.  Every call,
    hit or miss, reports the record, so a trace and its rule counts are
    those of the uncached program, whatever ran earlier.  A failure is not
    kept: its steps are reported as made, and a retry makes them again.
    The wrapper is the one frame this adds to a recursion through ``fn``;
    a loop that walks that recursion itself reads and fills the table
    through ``cached.kept`` and ``cached.keep``."""
    @wraps(fn)
    def cached(*args):
        s = SESSION.get()
        table = table_of(s)
        key = (fn, *args)
        hit = table.get(key)
        if hit is not None:
            out, record = hit
            if record:
                _replay(s, record)
            return out
        with recording() as record:
            out = fn(*args)
        table[key] = out, record
        return out

    def kept(*args):
        """A hit of ``cached(*args)``, its record reported; None on a miss."""
        s = SESSION.get()
        hit = table_of(s).get((fn, *args))
        if hit is not None and hit[1]:
            _replay(s, hit[1])
        return None if hit is None else hit[0]

    def keep(out, record, *args):
        """Keep ``out`` and ``record`` as a miss of ``cached(*args)`` would."""
        table_of(SESSION.get())[(fn, *args)] = out, record
    cached.kept, cached.keep = kept, keep
    return cached


def session_memo(fn):
    """Keep ``fn``'s successes in the current session's memo.  For a
    judgment or computation that reads the datatype table by name, which
    belongs to the session; syntax is hash-consed, so equal arguments are
    one key."""
    return _replaying(fn, attrgetter("memo"))


class _Bounded(dict):
    """Process-wide table of a ``replayed_cache``: at most ``SIZE``
    entries, the oldest dropped first, its lookups counted."""

    SIZE, hits, misses = 1024, 0, 0

    def get(self, key):
        hit = super().get(key)
        if hit is None:
            self.misses += 1
        else:
            self.hits += 1
        return hit

    def __setitem__(self, key, value):
        if len(self) >= self.SIZE:
            del self[next(iter(self))]
        super().__setitem__(key, value)


def replayed_cache(fn):
    """The recording of ``session_memo`` over a process-wide table, for a
    computation keyed by a datatype description itself, whose results
    therefore outlive a session; ``cache_info()`` gives the hit and miss
    counts."""
    table = _Bounded()
    cached = _replaying(fn, lambda _s: table)
    cached.cache_info = lambda: table
    return cached


# ---------------------------------------------------------------------------
# Substitution application
# ---------------------------------------------------------------------------


def _split_spine(sub: Sub):
    tms = [c for c in sub.comps if not isinstance(c, STy)]
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
    variables against the spine and computing any redexes this creates.
    A bare tuple is a telescope: entry k sees k extra bound term
    variables."""
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
    if cls in BINDER_DIR:
        note("SUB_PUSH")
    return map_scoped(x, _ap, (tms, tys), d, SMART)


def lift_block(spine, k: int):
    """Lift a substitution or transformation over k new term binders:
    (s o ^) > vinst, each new variable its own component."""
    if k == 0:
        return spine
    return type(spine)(shift(spine, k, 0).comps
                       + tuple(Var(k - 1 - m) for m in range(k)))


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
            from . import transform
            note("CAST_CONSTR")
            return transform.cast_con(tm, trans)
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


def con_data_tied(d: IndDesc, ci: int) -> Telescope:
    """Argument telescope of constructor ``ci`` over the parameter
    context: the non-recursive arguments as declared, then recursive
    argument k, an iterated Pi over its arity into the datatype at its
    indices, shifted past the k recursive arguments before it."""
    c = d.cons[ci]
    tel: list[Type] = list(c.nrec)
    for k, r in enumerate(c.rec):
        params = shift(id_sub(d.params_ctx), len(c.nrec) + len(r.arit), 0)
        tel.append(shift(pi_tel(r.arit, Ind(d.name, params, r.rind)), k, 0))
    return tuple(tel)


@replayed_cache
def con_args_tel(d: IndDesc, ci: int, params: Sub) -> Telescope:
    """Argument telescope of constructor ``ci`` at the parameters
    ``params``.  Every cell of a list has the same parameters, so a check
    or conversion of the list instantiates the telescope once; the checker
    looks it up at each cell, ``conv_tm`` once per run of equal cells."""
    return apply(con_data_tied(d, ci), params)


def result_indices(tm: Con) -> Inst:
    """Actual indices of a constructor term (its result type's index
    instantiation): the declared indices at the term's parameters and
    non-recursive arguments."""
    d = desc(tm.desc)
    c = d.cons[tm.tag]
    if not c.ind:
        return ()
    argn = tm.args[:len(c.nrec)]
    spine = Sub(tm.params.comps + argn)
    return tuple(apply(t, spine) for t in c.ind)


#: The smart constructor of each node class that has one: every rewriting
#: walk rebuilds through these, so that what it builds is again normal.
SMART = {App: app, Fst: fst_, Snd: snd_, Cast: cast, Chain: compose_parts}


# ---------------------------------------------------------------------------
# Adapter endpoints
# ---------------------------------------------------------------------------


def ad_end(ad: Adapter, want_src: bool) -> Type:
    """Source (or target) type of an adapter."""
    match ad:
        case AdId(ty):
            return ty
        case Chain(parts):
            return ad_end(parts[0] if want_src else parts[-1], want_src)
        case Post(_, s, t) | PiAd(_, _, s, t) | SigAd(_, _, s, t):
            return s if want_src else t
        case IndAd(dn, trans):
            from . import transform
            d = desc(dn)
            spine = transform._endpoint(d.full_ctx, trans, want_src)
            n = len(d.params_ctx)
            params = Sub(spine.comps[:n])
            return Ind(dn, params, spine.comps[n:])
        case _:
            raise KernelError(f"not an adapter: {ad!r}")


def ad_src(ad: Adapter) -> Type:
    return ad_end(ad, True)


def ad_tgt(ad: Adapter) -> Type:
    return ad_end(ad, False)


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
    return all(not isinstance(c, KAd) or is_id_ad(c.ad) for c in tr.comps)


# ---------------------------------------------------------------------------
# Normal forms
# ---------------------------------------------------------------------------


@record(frozen=True)
class NormalForm:
    """The value ``nf`` returned; ``nf`` hands a wrapped value back as is.
    The wrapper itself checks nothing (``assert_normal`` does)."""

    value: object


def nf(x):
    """Full normal form of a syntax node (idempotent)."""
    if isinstance(x, NormalForm):
        return x
    return NormalForm(_nf(x))


#: Trace path segment entered while normalizing a node of each class.
_SEGMENT = {Lam: "body", App: "app", Cast: "cast"}


def _nf(x, _depth=0):
    # ``_depth`` is the binder depth ``map_scoped`` hands each child; a
    # normal form does not depend on it.  Each node returned is marked
    # normal, and a marked node is returned as is: rebuilding it would
    # fire no rule and read no datatype, so it would give the node back.
    cls = type(x)
    if x._normal:
        return x
    if cls is Pi:
        with at("dom"):
            dom = _nf(x.dom)
        with at("cod"):
            out = Pi(dom, _nf(x.cod))
    elif cls is Con and x.args:
        # the last argument is taken in this frame, so a spine costs no
        # stack, and the walk down stops at a marked suffix; a constructor
        # enters no trace segment
        cells = []
        while type(x) is Con and x.args and not x._normal:
            cells.append((x, _nf(x.params), [_nf(a) for a in x.args[:-1]]))
            x = x.args[-1]
        out = _nf(x)
        for cell, params, lead in reversed(cells):
            out = Con(cell.desc, cell.tag, params, (*lead, out))
            out.__dict__["_normal"] = True
    else:
        seg = _SEGMENT.get(cls)
        if seg is None:
            out = map_scoped(x, _nf, (), 0, SMART)
        else:
            with at(seg):
                out = map_scoped(x, _nf, (), 0, SMART)
    out.__dict__["_normal"] = True
    return out


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
            entry, tel = entry_here(ctx, TyEntry, i)
            inst_ctx = dual_ctx(ctx, entry.tel_dir)
            return conv_inst(inst_ctx, tel, ii, jj)
        case (Pi(f1, s1), Pi(f2, s2)) | (Sig(f1, s1), Sig(f2, s2)):
            d = BINDER_DIR[type(a)]
            if not conv_ty(dual_ctx(ctx, d), f1, f2):
                return False
            return conv_ty(extend_tm(ctx, d, f1), s1, s2)
        case (Ind(d1, p1, i1), Ind(d2, p2, i2)):
            if d1 != d2:
                return False
            dd = desc(d1)
            if not conv_sub(ctx, dd.params_ctx, p1, p2):
                return False
            tel = apply(dd.index_tel, p1)
            return conv_inst(ctx, tel, i1, i2)
        case _:
            return False


def entry_here(ctx: Context, cls: type, index: int):
    """The ``cls`` entry (``TmEntry`` or ``TyEntry``) with de Bruijn index
    ``index``, and its classifier (a term entry's type, a type entry's
    telescope) weakened to ``ctx``: past every entry from the entry's own
    position on, itself included.  A telescope is shifted as one node, so
    references between its own entries stay put; it is read against the
    tel-dir dual, which does not move indices.  An unbound index raises
    ``IndexError``."""
    pos = entry_position(ctx, cls, index)
    entry, rest = ctx[pos], ctx[pos:]
    return entry, shift(entry.ty if cls is TmEntry else entry.tel,
                        tm_count(rest), ty_count(rest))


def conv_tm(ctx: Context, ty: Type, x: Term, y: Term) -> bool:
    """Type-directed term conversion with eta at Pi and Sigma.  A
    comparison in tail position (under eta, a second component, a
    constructor's last argument) continues the loop: no stack per cell.

    A run of constructor cells whose two parameter spines and context are
    the same nodes, and whose datatypes and tags are equal, is read once:
    the parameter comparison and the argument telescope depend on those
    values only, so a cell of the run reuses those of the cell above and
    reports their steps again.  When no entry of the telescope mentions an
    earlier argument, argument k's type is entry k itself, and a pair of
    arguments that are the same node is passed over; otherwise each type
    is opened at the cell's own arguments.  Each cell's datatypes, tags
    and argument counts are checked on the cell itself."""
    run = None
    while x is not y:
        if type(ty) is Pi:
            note("ETA_FUN")
            ctx = extend_tm(ctx, NEG, ty.dom)
            ty, x, y = (ty.cod, app(shift(x, 1, 0), Var(0)),
                        app(shift(y, 1, 0), Var(0)))
        elif type(ty) is Sig:
            note("ETA_PAIR")
            if not conv_tm(ctx, ty.fst, fst_(x), fst_(y)):
                return False
            ty, x, y = open_tm_block(ty.snd, (fst_(x),)), snd_(x), snd_(y)
        elif type(x) is Con and type(y) is Con:
            if x.desc != y.desc or x.tag != y.tag:
                return False
            if (run is not None and x.params is run[2] and y.params is run[3]
                    and ctx is run[4] and x.tag == run[1] and x.desc == run[0]):
                replay(read)
            else:
                with recording() as read:
                    dd = desc(x.desc)
                    if not conv_sub(ctx, dd.params_ctx, x.params, y.params):
                        return False
                    tel = con_args_tel(dd, x.tag, x.params)
                closed = all(fv_bounds(t)[0] == 0 for t in tel)
                run = (x.desc, x.tag, x.params, y.params, ctx)
            a1, a2 = x.args, y.args
            if len(a1) != len(tel) or len(a2) != len(tel):
                raise KernelError("instantiation length mismatch")
            if not tel:
                return True
            if closed:
                for k in range(len(tel) - 1):
                    if a1[k] is not a2[k] and not conv_tm(ctx, tel[k], a1[k], a2[k]):
                        return False
                ty = tel[-1]
            else:
                if not conv_inst(ctx, tel[:-1], a1[:-1], a2[:-1]):
                    return False
                ty = open_tm_block(tel[-1], a1[:-1])
            x, y = a1[-1], a2[-1]
        else:
            return conv_neutral(ctx, x, y) is not None
    return True


def conv_neutral(ctx: Context, x: Term, y: Term):
    """Compare two neutral terms; returns the common (normal) type on
    success, None on mismatch."""
    match (x, y):
        case (Var(i), Var(j)):
            if i != j:
                return None
            return entry_here(ctx, TmEntry, i)[1]
        case (App(f1, u1), App(f2, u2)):
            fty = conv_neutral(ctx, f1, f2)
            if not isinstance(fty, Pi):
                return None
            if not conv_tm(dual_ctx(ctx), fty.dom, u1, u2):
                return None
            return open_tm_block(fty.cod, (u1,))
        case (Fst(p1), Fst(p2)) | (Snd(p1), Snd(p2)):
            pty = conv_neutral(ctx, p1, p2)
            if not isinstance(pty, Sig):
                return None
            if type(x) is Fst:
                return pty.fst
            return open_tm_block(pty.snd, (fst_(p1),))
        case (Cast(), _) | (_, Cast()):
            # a cast tower is compared as the composite of its links, so
            # the functor laws hold on neutral subjects too
            (t1, l1), (t2, l2) = _tower(x), _tower(y)
            src = ad_src((l1 or l2)[0])
            c1, c2 = (compose_parts(l) if l else AdId(src) for l in (l1, l2))
            if conv_ad(ctx, c1, c2) is None or not conv_tm(ctx, src, t1, t2):
                return None
            return ad_tgt(c1)
        case _:
            return None


def _tower(t: Term) -> tuple[Term, tuple[Adapter, ...]]:
    """A term's subject under its casts, and their links innermost first."""
    links = ()
    while type(t) is Cast:
        t, links = t.tm, (t.ad,) + links
    return t, links


def _sort_fits(c, ty, ty_comp: type) -> bool:
    # a term entry (``ty`` its type) takes a term, anything but a type
    # component; a type entry takes a ``ty_comp``
    if ty is None:
        return isinstance(c, ty_comp)
    return not isinstance(c, TY_COMPS)


def conv_sub(ctx: Context, tgt: Context, s1: Sub, s2: Sub) -> bool:
    if len(s1.comps) != len(tgt) or len(s2.comps) != len(tgt):
        raise KernelError("substitution spine length mismatch")
    if s1 is s2:
        return True
    from .transform import spine_slots
    for (_, c1, here, ty), c2 in zip(spine_slots(ctx, tgt, s1), s2.comps):
        if not (_sort_fits(c1, ty, STy) and _sort_fits(c2, ty, STy)):
            raise KernelError("spine component sort mismatch")
        if not (conv_tm(here, ty, c1, c2) if ty is not None
                else conv_ty(here, c1.ty, c2.ty)):
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
    pf = transform.fuse_chain(parts_of(f))
    pg = transform.fuse_chain(parts_of(g))
    if len(pf) != len(pg):
        return None
    if not pf:
        return conv_ty(ctx, ad_src(f), ad_src(g)) or None
    return all(_conv_atomic(ctx, a, b) for a, b in zip(pf, pg)) or None


def _conv_atomic(ctx: Context, a: Adapter, b: Adapter) -> bool:
    if a is b:
        return True
    match (a, b):
        case (Post(n1, _, _), Post(n2, _, _)):
            return n1 == n2
        case ((PiAd(f1, s1, a1, _), PiAd(f2, s2, a2, _))
              | (SigAd(f1, s1, a1, _), SigAd(f2, s2, a2, _))):
            d = BINDER_DIR[type(a1)]
            if conv_ad(dual_ctx(ctx, d), f1, f2) is None:
                return False
            # a Pi binds its target domain, the source of ``f1``; a Sig its
            # stored first component, read without the steps ``ad_src``
            # replays for an inductive adapter
            bound = ad_src(f1) if type(a) is PiAd else a1.fst
            if conv_ad(extend_tm(ctx, d, bound), s1, s2) is None:
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
    from .transform import spine_slots
    for (_, c1, here, ty), c2 in zip(spine_slots(ctx, tgt, t1), t2.comps):
        if not (_sort_fits(c1, ty, KAd) and _sort_fits(c2, ty, KAd)):
            raise KernelError("transformation component sort mismatch")
        if not (conv_tm(here, ty, c1, c2) if ty is not None
                else conv_ad(here, c1.ad, c2.ad) is not None):
            return False
    return True

