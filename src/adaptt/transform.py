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

``push_ty`` eliminates transformations eagerly: the result adapter
grammar is closed (identity, postulates, Pi/Sigma/inductive structure),
so cast computation never sees a transformation at the head.
"""

from __future__ import annotations

from .syntax import (
    POS, NEG, Context, TmEntry, TyEntry, Telescope, TelAd, Inst,
    Type, Base, TyVarRef, Pi, Sig, Ind, Term, Var,
    Adapter, AdId, PiAd, SigAd, IndAd,
    Sub, STm, STy, Trans, KTm, KAd,
    dual_ctx, extend_tm, extend_tel, map_scoped, shift, desc,
    ty_entry_position,
)
from .normalize import (
    KernelError, SMART, apply, apply_tel, lift_sub_block, lift_trans_block,
    open_tm_block, cast, compose_ad, ad_src, ad_tgt, is_id_ad,
    trans_is_identity, note,
)


# ---------------------------------------------------------------------------
# Transformation endpoints
# ---------------------------------------------------------------------------


def _comp_endpoint(entry, comp, want_src: bool):
    """Spine component of the source (or target) substitution for one
    type-variable entry, per the direction table above."""
    dirpos = entry.dir is POS
    telpos = entry.tel_dir is POS
    if want_src:
        if dirpos and telpos:
            ty = ad_src(comp.ad)
        elif not dirpos and telpos:
            ty = ad_tgt(comp.ad)
        else:
            ty = comp.forced_ty
    else:
        if dirpos and not telpos:
            ty = ad_tgt(comp.ad)
        elif not dirpos and not telpos:
            ty = ad_src(comp.ad)
        else:
            ty = comp.forced_ty
    return STy(ty, comp.arity)


def trans_source(tgt_ctx: Context, tr: Trans) -> Sub:
    return _endpoint(tgt_ctx, tr, want_src=True)


def trans_target(tgt_ctx: Context, tr: Trans) -> Sub:
    return _endpoint(tgt_ctx, tr, want_src=False)


def _endpoint(tgt_ctx: Context, tr: Trans, want_src: bool) -> Sub:
    if len(tr.comps) != len(tgt_ctx):
        raise KernelError("transformation spine does not match its context")
    comps = []
    for k, (entry, c) in enumerate(zip(tgt_ctx, tr.comps)):
        if isinstance(entry, TmEntry):
            if not isinstance(c, KTm):
                raise KernelError("transformation component sort mismatch")
            stored_is_src = entry.dir is POS
            if want_src == stored_is_src:
                comps.append(STm(c.tm))
            else:
                prefix = Trans(tr.comps[:k])
                ctx = tgt_ctx[:k] if entry.dir is POS else dual_ctx(tgt_ctx[:k])
                ad = push_ty(entry.ty, prefix, ctx)
                comps.append(STm(cast(c.tm, ad)))
        else:
            if not isinstance(c, KAd):
                raise KernelError("transformation component sort mismatch")
            comps.append(_comp_endpoint(entry, c, want_src))
    return Sub(tuple(comps))


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
            pos = ty_entry_position(tgt_ctx, j)
            entry = tgt_ctx[pos]
            if entry.dir is not POS:
                raise KernelError("type variable accessed at negative direction")
            comp = tr.comps[pos]
            if not isinstance(comp, KAd):
                raise KernelError("transformation component sort mismatch")
            side = trans_source if entry.tel_dir is POS else trans_target
            inst2 = tuple(apply(t, side(tgt_ctx, tr)) for t in inst)
            note("TRANS_TYVAR")
            return open_tm_block(comp.ad, inst2)
        case Pi(dom, cod):
            dom_ad = push_ty(dom, tr, dual_ctx(tgt_ctx))
            cod_ad = push_ty(cod, lift_trans_block(tr, 1),
                             extend_tm(tgt_ctx, NEG, dom))
            src = apply(a, trans_source(tgt_ctx, tr))
            tgt = apply(a, trans_target(tgt_ctx, tr))
            note("TRANS_PI")
            return PiAd(dom_ad, cod_ad, src, tgt)
        case Sig(fst, snd):
            fst_ad = push_ty(fst, tr, tgt_ctx)
            snd_ad = push_ty(snd, lift_trans_block(tr, 1),
                             extend_tm(tgt_ctx, POS, fst))
            src = apply(a, trans_source(tgt_ctx, tr))
            tgt = apply(a, trans_target(tgt_ctx, tr))
            note("TRANS_SIGMA")
            return SigAd(fst_ad, snd_ad, src, tgt)
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
        ads.append(push_ty(ty, lift_trans_block(tr, k),
                           extend_tel(tgt_ctx, POS, tel[:k])))
    return tuple(ads)


def cast_inst(inst: Inst, ads: TelAd) -> Inst:
    """Cast an instantiation along a telescope adapter, instantiating the
    dependency of each component on its predecessors."""
    if len(inst) != len(ads):
        raise KernelError("telescope adapter length mismatch")
    out = []
    for k, (t, a) in enumerate(zip(inst, ads)):
        out.append(cast(t, open_tm_block(a, tuple(inst[:k]))))
    return tuple(out)


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
        if isinstance(entry, TmEntry):
            side = src if entry.dir is POS else tgt
            comps.append(KTm(apply(c.tm, side)))
        else:
            ar = c.arity
            pre = Sub(rho.comps[:k])
            tel_here = apply_tel(entry.tel, pre)
            ext = extend_tel(mid_ctx, entry.tel_dir, tel_here)
            if entry.dir is NEG:
                ext = dual_ctx(ext)
            ad = push_ty(c.ty, lift_trans_block(tr, ar), ext)
            other_side = tgt if entry.tel_dir is POS else src
            other = apply(c.ty, lift_sub_block(other_side, ar))
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


def _mid_telad(entry: TyEntry, tgt_prefix: Context, pre: Trans) -> TelAd:
    """Telescope adapter of the entry's telescope under the prefix
    transformation, read at the telescope direction."""
    return push_tel(entry.tel, pre, dual_ctx(tgt_prefix, entry.tel_dir))


def vcomp(nu: Trans, mu: Trans, tgt_ctx: Context, check: bool = False) -> Trans:
    """Vertical composite nu o mu (mu first); the precondition that mu's
    target spine converts to nu's source spine is checked on demand."""
    if len(nu.comps) != len(tgt_ctx) or len(mu.comps) != len(tgt_ctx):
        raise KernelError("transformation spine does not match its context")
    comps = []
    for k, entry in enumerate(tgt_ctx):
        cm, cn = mu.comps[k], nu.comps[k]
        if isinstance(entry, TmEntry):
            comps.append(cm if entry.dir is POS else cn)
            continue
        ar = cm.arity
        mu_pre = Trans(mu.comps[:k])
        nu_pre = Trans(nu.comps[:k])
        prefix = tgt_ctx[:k]
        if entry.tel_dir is POS:
            alpha = _mid_telad(entry, prefix, mu_pre)
            if entry.dir is POS:
                ad = compose_ad(cast_block_vars(cn.ad, alpha, ar), cm.ad)
                other = cn.forced_ty
            else:
                ad = compose_ad(cm.ad, cast_block_vars(cn.ad, alpha, ar))
                other = cn.forced_ty
        else:
            alpha = _mid_telad(entry, prefix, nu_pre)
            if entry.dir is POS:
                ad = compose_ad(cn.ad, cast_block_vars(cm.ad, alpha, ar))
                other = cm.forced_ty
            else:
                ad = compose_ad(cast_block_vars(cm.ad, alpha, ar), cn.ad)
                other = cm.forced_ty
        comps.append(KAd(ad, other, ar))
    out = Trans(tuple(comps))
    if check:
        mid1 = trans_target(tgt_ctx, mu)
        mid2 = trans_source(tgt_ctx, nu)
        # endpoint agreement is a conversion check over the (unknown)
        # source context; spine equality after normalization suffices here
        if mid1 != mid2:
            raise KernelError("vertical composition endpoint mismatch")
    return out


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


def fuse_pair(ctx: Context, f: Adapter, g: Adapter) -> Adapter | None:
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


def fuse_chain(ctx: Context, parts: tuple[Adapter, ...]) -> tuple[Adapter, ...]:
    """Normalize a chain for comparison: drop identities, fuse adjacent
    same-former structural adapters.  Postulates are never fused."""
    work = [p for p in parts if not is_id_ad(p)]
    i = 0
    while i + 1 < len(work):
        fused = fuse_pair(ctx, work[i], work[i + 1])
        if fused is None:
            i += 1
        elif is_id_ad(fused):
            del work[i:i + 2]
            i = max(i - 1, 0)
        else:
            work[i:i + 2] = [fused]
            i = max(i - 1, 0)
    return tuple(work)


# ---------------------------------------------------------------------------
# Naturality (property driver, never a rewrite)
# ---------------------------------------------------------------------------


def check_naturality_tm(ctx: Context, tgt_ctx: Context, t: Term, a: Type,
                        tr: Trans) -> bool:
    """t[src]<a{{tr}}>  ==  t[tgt]  at  a[tgt]."""
    from .normalize import conv_tm
    src = trans_source(tgt_ctx, tr)
    tgt = trans_target(tgt_ctx, tr)
    lhs = cast(apply(t, src), push_ty(a, tr, tgt_ctx))
    rhs = apply(t, tgt)
    return conv_tm(ctx, apply(a, tgt), lhs, rhs)


def check_naturality_ad(ctx: Context, tgt_ctx: Context, f: Adapter,
                        tr: Trans) -> bool:
    """b{{tr}} o f[src]  ==  f[tgt] o a{{tr}}  for f : a => b."""
    from .normalize import conv_ad
    src = trans_source(tgt_ctx, tr)
    tgt = trans_target(tgt_ctx, tr)
    a = ad_src(f)
    b = ad_tgt(f)
    lhs = compose_ad(push_ty(b, tr, tgt_ctx), apply(f, src))
    rhs = compose_ad(apply(f, tgt), push_ty(a, tr, tgt_ctx))
    return conv_ad(ctx, lhs, rhs) is not None
