"""Functorial action of types on transformations, and the 2-categorical
operations on transformations themselves.

A transformation is an eta-expanded spine with one component per entry of
its target context.  Components are self-dual data; which endpoint a
component belongs to is a function of the entry's direction flags:

====================  ==================  ===========  ===========
entry (dir, tel_dir)  component context   source comp  target comp
====================  ==================  ===========  ===========
(+, +)                G |>+ Th[src]       ad source    stored other
(+, -)                G |>- Th[tgt]       stored other ad target
(-, +)                (G |>+ Th[src])^-   ad target    stored other
(-, -)                (G |>- Th[tgt])^-   stored other ad source
====================  ==================  ===========  ===========

(The (-,d') rows are the whole-context duals of the (+,-d') rows; the
table is what makes dualization the identity on component spines.)

The table is read in one place, the three helpers below it, and every
kernel reader of it calls them: ``free_is_source`` (whether an entry's
free part, a term entry's stored term or a type entry's adapter, sits on
the source), ``free_is_ad_source`` (whether that free part is the
adapter's source end, the stored other matching its target end) and
``comp_ctx`` (the context a type component lives over).  The set-model
oracle keeps its own copy, so that it shares no code with the kernel.

Beside them sits the spine reader, ``spine_slots``: component k of a
substitution or transformation into a context is typed by entry k read
under the spine's first k components (the context-extension rule of a
category with families), and for a transformation those components are
read through their endpoint on the entry's free side.  ``check_sub``,
``check_trans``, ``conv_sub`` and ``conv_trans`` are loops over it.

``push_ty`` eliminates transformations eagerly: the result adapter
grammar is closed (identity, postulates, Pi/Sigma/inductive structure),
so cast computation never sees a transformation at the head.  The cast
rule of a constructor, ``cast_con``, is the same action on its argument
telescope (``push_tel``): the rewrite engine's ``cast`` calls it, and it
calls ``cast`` on each argument.
"""

from __future__ import annotations

from .syntax import (
    POS, BINDER_DIR, Context, TmEntry, TyEntry, Telescope, TelAd,
    Type, Base, TyVarRef, Pi, Sig, Ind, Term, Var, Con,
    Adapter, AdId, PiAd, SigAd, IndAd,
    Sub, STm, STy, Trans, KTm, KAd, IndDesc,
    dual_ctx, extend_tm, extend_tel, fv_bounds, map_scoped, shift, desc,
    entry_position,
)
from .normalize import (
    KernelError, SMART, apply, lift_block,
    open_tm_block, cast, compose_ad, ad_end, ad_src, ad_tgt, is_id_ad,
    trans_is_identity, note, conv_tm, conv_ad, session_memo, replayed_cache,
    con_data_tied, result_indices, recording, replay,
)


# ---------------------------------------------------------------------------
# The direction table
# ---------------------------------------------------------------------------


def free_is_source(entry) -> bool:
    """Whether the entry's free component sits on the source: a term
    entry's stored term, or a type entry's adapter (read at its free end;
    the stored other is the spine component on the other side)."""
    return (entry.dir if type(entry) is TmEntry else entry.tel_dir) is POS


def free_is_ad_source(entry: TyEntry) -> bool:
    """Whether a type component's free end is its adapter's source, so
    that the adapter runs from the free side to the forced one."""
    return entry.dir is entry.tel_dir


def comp_ctx(ctx: Context, entry: TyEntry, tel: Telescope) -> Context:
    """Context of a type component over ``ctx``: the entry's telescope,
    instantiated on the free side, at the telescope direction, and the
    whole read at the entry direction."""
    return dual_ctx(extend_tel(ctx, entry.tel_dir, tel), entry.dir)


def spine_slots(ctx: Context, tgt: Context, spine: Sub | Trans):
    """Read a substitution or transformation over ``ctx`` into ``tgt``
    one component at a time, yielding ``(entry, comp, here, ty)``:
    ``here`` is the context the component lives over and ``ty`` a term
    component's type (None for a type component).  Entry k is read under
    the spine's first k components: for a transformation, under their
    endpoint on the entry's free side.  Lazy, so a caller that rejects a
    bad component never reads a prefix that contains it; callers check
    the spine's length and its component sorts themselves."""
    comps = spine.comps
    for k, (entry, comp) in enumerate(zip(tgt, comps)):
        pre = spine_prefix(tgt, type(spine)(comps[:k]))
        if type(entry) is TmEntry:
            yield entry, comp, dual_ctx(ctx, entry.dir), apply(entry.ty, pre)
        else:
            yield (entry, comp,
                   comp_ctx(ctx, entry, apply(entry.tel, pre)), None)


def spine_prefix(tgt: Context, prefix: Sub | Trans) -> Sub:
    """The substitution entry k of ``tgt`` is read under, for the first k
    components ``prefix`` of a spine into ``tgt``: the prefix itself, or
    a transformation's endpoint on the entry's free side."""
    if type(prefix) is Sub:
        return prefix
    k = len(prefix.comps)
    return _endpoint(tgt[:k], prefix, free_is_source(tgt[k]))


# ---------------------------------------------------------------------------
# Transformation endpoints
# ---------------------------------------------------------------------------


def trans_source(tgt_ctx: Context, tr: Trans) -> Sub:
    return _endpoint(tgt_ctx, tr, True)


def trans_target(tgt_ctx: Context, tr: Trans) -> Sub:
    return _endpoint(tgt_ctx, tr, False)


@session_memo
def _endpoint(tgt_ctx: Context, tr: Trans, want_src: bool) -> Sub:
    """``tr``'s endpoint on the source side (``want_src``) or the target
    side.  Entry k is read under the first k components alone, so a kept
    endpoint of the prefix one entry shorter is extended by the last
    entry, its steps reported first, as reading it afresh would report
    them; without one, every entry is read in this loop."""
    n = len(tgt_ctx)
    if len(tr.comps) != n:
        raise KernelError("transformation spine does not match its context")
    kept = (_endpoint_kept(tgt_ctx[:-1], Trans(tr.comps[:-1]), want_src)
            if n else None)
    comps = [] if kept is None else list(kept.comps)
    for k in range(len(comps), n):
        entry, c = tgt_ctx[k], tr.comps[k]
        if isinstance(entry, TmEntry):
            if not isinstance(c, KTm):
                raise KernelError("transformation component sort mismatch")
            if want_src == free_is_source(entry):
                comps.append(STm(c.tm))
            else:
                ad = push_ty(entry.ty, Trans(tr.comps[:k]),
                             dual_ctx(tgt_ctx[:k], entry.dir))
                comps.append(STm(cast(c.tm, ad)))
        else:
            if not isinstance(c, KAd):
                raise KernelError("transformation component sort mismatch")
            if want_src == free_is_source(entry):
                comps.append(STy(ad_end(c.ad, free_is_ad_source(entry)),
                                 c.arity))
            else:
                comps.append(STy(c.forced_ty, c.arity))
    return Sub(tuple(comps))


# read through a module name bound here, so that a wrapper put in place of
# ``_endpoint`` still reaches the memo
_endpoint_kept = _endpoint.kept


# ---------------------------------------------------------------------------
# Functorial action on types and telescopes
# ---------------------------------------------------------------------------


def push_ty(a: Type, tr: Trans, tgt_ctx: Context) -> Adapter:
    """Adapter ``a`` gives rise to under a transformation into the
    context it lives over: from a[source] to a[target]."""
    if trans_is_identity(tr):
        note("TRANS_ID")
        return AdId(apply(a, trans_source(tgt_ctx, tr)))
    match a:
        case Base(_):
            note("TRANS_BASE")
            return AdId(a)
        case TyVarRef(j, inst):
            pos = entry_position(tgt_ctx, TyEntry, j)
            entry = tgt_ctx[pos]
            if entry.dir is not POS:
                raise KernelError("type variable accessed at negative direction")
            comp = tr.comps[pos]
            if not isinstance(comp, KAd):
                raise KernelError("transformation component sort mismatch")
            side = trans_source if free_is_source(entry) else trans_target
            inst2 = tuple(apply(t, side(tgt_ctx, tr)) for t in inst)
            note("TRANS_TYVAR")
            return open_tm_block(comp.ad, inst2)
        case Pi(first, second) | Sig(first, second):
            d = BINDER_DIR[type(a)]
            first_ad = push_ty(first, tr, dual_ctx(tgt_ctx, d))
            second_ad = push_ty(second, lift_block(tr, 1),
                                extend_tm(tgt_ctx, d, first))
            src = apply(a, trans_source(tgt_ctx, tr))
            tgt = apply(a, trans_target(tgt_ctx, tr))
            pi = type(a) is Pi
            note("TRANS_PI" if pi else "TRANS_SIGMA")
            return (PiAd if pi else SigAd)(first_ad, second_ad, src, tgt)
        case Ind(dn, params, indices):
            d = desc(dn)
            spine = Sub(params.comps + tuple(STm(t) for t in indices))
            whiskered = whisker_left(spine, d.full_ctx, tr, tgt_ctx)
            if trans_is_identity(whiskered):
                note("TRANS_ID")
                return AdId(apply(a, trans_source(tgt_ctx, tr)))
            note("TRANS_IND")
            return IndAd(dn, whiskered)
        case _:
            raise KernelError(f"not a type: {a!r}")


def push_tel(tel: Telescope, tr: Trans, tgt_ctx: Context) -> TelAd:
    """Componentwise action on a telescope; component k lives over the
    source-side extension by the first k entries."""
    ads = []
    for k, ty in enumerate(tel):
        ads.append(push_ty(ty, lift_block(tr, k),
                           extend_tel(tgt_ctx, POS, tel[:k])))
    return tuple(ads)


def cast_con(tm: Con, tr: Trans) -> Term:
    """Computation rule for a constructor cast along the datatype's
    functorial adapter: same constructor at the target parameters, each
    argument adapted by the argument telescope's action on the parameter
    transformation.  The index side of the transformation is forced, so
    a mismatch there means the cast was ill-typed.  While the last
    argument's cast is again a constructor cast, the loop walks down to
    it and rebuilds the cells bottom-up.

    A run of cells whose parameter spines and transformations are the
    same nodes, and whose datatypes and tags are equal, is read once: the
    source spine, the parameter check, the argument adapters and the
    target parameters depend on those four values only, so a cell of the
    run reuses those of the cell above and reports their steps again.
    The cell that reads them records their steps in two records, one on
    each side of the index check, and each cell of the run replays the
    two around its own index check, so the steps come in the order of the
    cell-by-cell reading.  A datatype without indices has no indices on
    either side of the check, so its cells skip it.  When no adapter
    mentions an earlier argument, argument k is cast along adapter k
    itself; otherwise each adapter is opened at the cell's own arguments.
    Each cell's argument count is checked on the cell itself."""
    cells, tail, run = [], (), None
    while True:
        args = tm.args
        if (run is not None and tm.params is run[2] and tr is run[3]
                and tm.tag == run[1] and tm.desc == run[0]):
            replay(found)
            if src_idx and src_idx != result_indices(tm):
                raise KernelError("inductive cast index mismatch")
            replay(adapted)
        else:
            d = desc(tm.desc)
            npar = len(d.params_ctx)
            if len(tr.comps) != len(d.full_ctx):
                raise KernelError("inductive adapter spine does not match the signature")
            run = (tm.desc, tm.tag, tm.params, tr)
            with recording() as found:
                src_spine = trans_source(d.full_ctx, tr)
            if Sub(src_spine.comps[:npar]) != tm.params:
                raise KernelError("inductive cast parameter mismatch")
            src_idx = tuple(c.tm for c in src_spine.comps[npar:])
            if src_idx != result_indices(tm):
                raise KernelError("inductive cast index mismatch")
            with recording() as adapted:
                alpha, params = _con_adapter(d, tm.tag, Trans(tr.comps[:npar]))
            closed = all(fv_bounds(a)[0] == 0 for a in alpha)
        if len(args) != len(alpha):
            raise KernelError("telescope adapter length mismatch")
        if closed:
            lead = [cast(t, a) for t, a in zip(args[:-1], alpha)]
        else:
            lead = [cast(t, open_tm_block(a, args[:k]))
                    for k, (t, a) in enumerate(zip(args[:-1], alpha))]
        cells.append((tm, params, lead))
        if args:
            last = args[-1]
            ad = alpha[-1] if closed else open_tm_block(alpha[-1], args[:-1])
            if type(ad) is IndAd and type(last) is Con and last.desc == ad.desc:
                note("CAST_CONSTR")
                tm, tr = last, ad.trans
                continue
            tail = (cast(last, ad),)
        break
    for cell, params, lead in reversed(cells):
        tail = (Con(cell.desc, cell.tag, params, (*lead, *tail)),)
    return tail[0]


@replayed_cache
def _con_adapter(d: IndDesc, ci: int, mu: Trans) -> tuple[TelAd, Sub]:
    """Argument telescope adapter of constructor ``ci`` under the
    parameter transformation ``mu``, and the target parameters.  Every
    cell of a cast list shares ``mu``, so this is computed once per cast,
    and ``cast_con`` looks it up once per run of equal cells."""
    return (push_tel(con_data_tied(d, ci), mu, d.params_ctx),
            trans_target(d.params_ctx, mu))


# ---------------------------------------------------------------------------
# Whiskering
# ---------------------------------------------------------------------------


def whisker_right(tr: Trans, rho: Sub) -> Trans:
    """Precompose a transformation with a substitution (nu o s):
    componentwise substitution."""
    return apply(tr, rho)


def whisker_left(rho: Sub, rho_tgt: Context, tr: Trans, mid_ctx: Context) -> Trans:
    """Postcompose: (rho o tr) for rho out of the middle context.  Term
    components are substituted at the matching endpoint; type components
    are recomputed by pushing the lifted transformation through them."""
    if len(rho.comps) != len(rho_tgt):
        raise KernelError("substitution spine does not match its context")
    src = trans_source(mid_ctx, tr)
    tgt = trans_target(mid_ctx, tr)
    comps = []
    for k, (entry, c) in enumerate(zip(rho_tgt, rho.comps)):
        free, forced = (src, tgt) if free_is_source(entry) else (tgt, src)
        if isinstance(entry, TmEntry):
            comps.append(KTm(apply(c.tm, free)))
        else:
            ar = c.arity
            tel_here = apply(entry.tel, Sub(rho.comps[:k]))
            ad = push_ty(c.ty, lift_block(tr, ar),
                         comp_ctx(mid_ctx, entry, tel_here))
            other = apply(c.ty, lift_block(forced, ar))
            comps.append(KAd(ad, other, ar))
    return Trans(tuple(comps))


# ---------------------------------------------------------------------------
# Vertical composition
# ---------------------------------------------------------------------------


def cast_block_vars(x, ads: TelAd, k: int):
    """Precompose the innermost ``k`` term variables of ``x`` with the
    components of a telescope adapter (variable m of telescope position p
    becomes itself cast along the p-th component, suitably weakened)."""
    if not ads:
        return x
    return _cbv(x, ads, k, 0)


def _cbv(x, ads, k, dd):
    if type(x) is Var:
        m = x.index - dd
        if 0 <= m < k:
            p = k - 1 - m
            return cast(x, shift(ads[p], dd + k - p, 0))
        return x
    return map_scoped(x, _cbv, (ads, k), dd, SMART)


def _mid_telad(tgt_ctx: Context, tr: Trans, k: int) -> TelAd:
    """Telescope adapter of entry k's telescope under the first k
    components of ``tr``, read at the telescope direction."""
    entry = tgt_ctx[k]
    return push_tel(entry.tel, Trans(tr.comps[:k]),
                    dual_ctx(tgt_ctx[:k], entry.tel_dir))


def vcomp(nu: Trans, mu: Trans, tgt_ctx: Context) -> Trans:
    """Vertical composite nu o mu (mu first).  The caller ensures that
    mu's target spine converts to nu's source spine."""
    if len(nu.comps) != len(tgt_ctx) or len(mu.comps) != len(tgt_ctx):
        raise KernelError("transformation spine does not match its context")
    comps = []
    for k, entry in enumerate(tgt_ctx):
        # the composite's free part is that of the transformation on the
        # free side; the other transformation's adapter is moved along the
        # telescope adapter of the free one's prefix, and its stored other
        # is the composite's
        free_tr, other_tr = (mu, nu) if free_is_source(entry) else (nu, mu)
        cf, co = free_tr.comps[k], other_tr.comps[k]
        if isinstance(entry, TmEntry):
            comps.append(cf)
            continue
        ar = mu.comps[k].arity
        alpha = _mid_telad(tgt_ctx, free_tr, k)
        moved = cast_block_vars(co.ad, alpha, ar)
        ad = compose_ad(moved, cf.ad) if free_is_ad_source(entry) \
            else compose_ad(cf.ad, moved)
        comps.append(KAd(ad, co.forced_ty, ar))
    return Trans(tuple(comps))


def id_trans(ctx: Context, sub: Sub) -> Trans:
    """Identity transformation on a substitution spine."""
    comps = []
    for entry, c in zip(ctx, sub.comps):
        if isinstance(entry, TmEntry):
            comps.append(KTm(c.tm))
        else:
            comps.append(KAd(AdId(c.ty), c.ty, c.arity))
    return Trans(tuple(comps))


# ---------------------------------------------------------------------------
# Chain fusion (conversion side)
# ---------------------------------------------------------------------------


def fuse_pair(f: Adapter, g: Adapter) -> Adapter | None:
    """Fuse adjacent structural adapters g o f of the same former, per the
    componentwise composition equations.  Returns None when not fusable."""
    match (f, g):
        case (IndAd(d1, t1), IndAd(d2, t2)) if d1 == d2:
            note("FUSE_IND")
            return IndAd(d1, vcomp(t2, t1, desc(d1).full_ctx))
        case (PiAd(a1, b1, s1, _), PiAd(a2, b2, _, t2)):
            note("FUSE_PI")
            dom = compose_ad(a1, a2)
            cod = compose_ad(b2, cast_block_vars(b1, (a2,), 1))
            return PiAd(dom, cod, s1, t2)
        case (SigAd(a1, b1, s1, _), SigAd(a2, b2, _, t2)):
            note("FUSE_SIGMA")
            fst = compose_ad(a2, a1)
            snd = compose_ad(cast_block_vars(b2, (a1,), 1), b1)
            return SigAd(fst, snd, s1, t2)
        case _:
            return None


def fuse_chain(parts: tuple[Adapter, ...]) -> tuple[Adapter, ...]:
    """Normalize a chain for comparison: drop identities, fuse adjacent
    same-former structural adapters.  Postulates are never fused."""
    work: list[Adapter] = []
    for p in parts:
        if is_id_ad(p):
            continue
        fused = fuse_pair(work[-1], p) if work else None
        if fused is None:
            work.append(p)
        else:
            work[-1] = fused
    return tuple(work)


# ---------------------------------------------------------------------------
# Naturality (property driver, never a rewrite)
# ---------------------------------------------------------------------------


def check_naturality_tm(ctx: Context, tgt_ctx: Context, t: Term, a: Type,
                        tr: Trans) -> bool:
    """t[src]<a{{tr}}>  ==  t[tgt]  at  a[tgt]."""
    src = trans_source(tgt_ctx, tr)
    tgt = trans_target(tgt_ctx, tr)
    lhs = cast(apply(t, src), push_ty(a, tr, tgt_ctx))
    rhs = apply(t, tgt)
    return conv_tm(ctx, apply(a, tgt), lhs, rhs)


def check_naturality_ad(ctx: Context, tgt_ctx: Context, f: Adapter,
                        tr: Trans) -> bool:
    """b{{tr}} o f[src]  ==  f[tgt] o a{{tr}}  for f : a => b."""
    src = trans_source(tgt_ctx, tr)
    tgt = trans_target(tgt_ctx, tr)
    a = ad_src(f)
    b = ad_tgt(f)
    lhs = compose_ad(push_ty(b, tr, tgt_ctx), apply(f, src))
    rhs = compose_ad(apply(f, tgt), push_ty(a, tr, tgt_ctx))
    return conv_ad(ctx, lhs, rhs) is not None
