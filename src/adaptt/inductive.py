"""Datatype signature compiler.

From a signature (parameter context, index telescope, constructor
records) this module elaborates the argument telescope of each
constructor over a fresh type variable standing for the type being
defined, ties the knot with a single substitution, and derives the
computation rule for casting a constructor along the datatype's
functorial adapter.  The six stock datatypes (naturals, lists, vectors,
sums, branching trees, propositional equality) are registered here.
"""

from __future__ import annotations

from .syntax import (
    POS, NEG, Context, TmEntry, TyEntry, Telescope, TelAd, Inst,
    Type, TyVarRef, Ind, Term, Var, Con, Adapter, Post,
    Sub, STm, STy, Trans, KTm, KAd,
    RecDesc, ConDesc, IndDesc, DESC_TABLE, desc, install_desc,
    extend_tel, shift, id_sub, vinst,
)
from .normalize import KernelError, apply, apply_tel, pi_tel, replayed_cache
from .transform import (
    push_tel, cast_inst, trans_source, trans_target,
)


def elab_rec_data(d: IndDesc, r: RecDesc) -> Type:
    """Type of one recursive argument, over the parameter context
    extended by the fresh type variable and the non-recursive block:
    an iterated Pi over the (contravariant) arity, ending in the fresh
    variable at the recursive indices."""
    arit = shift(r.arit, 0, 1)
    rind = tuple(shift(t, 0, 1) for t in r.rind)
    return pi_tel(arit, TyVarRef(0, rind))


def con_data(d: IndDesc, ci: int) -> Telescope:
    """Argument telescope of constructor ``ci`` over the parameter
    context extended by the fresh type variable."""
    c = d.cons[ci]
    tel: list[Type] = list(shift(c.nrec, 0, 1))
    for k, r in enumerate(c.rec):
        tel.append(shift(elab_rec_data(d, r), k, 0))
    return tuple(tel)


def tie_sub(d: IndDesc) -> Sub:
    """Substitution instantiating the fresh type variable with the
    datatype itself (identity on the parameters)."""
    base = id_sub(d.params_ctx)
    k = len(d.index_tel)
    weakened = Sub(tuple(shift(c, k, 0) for c in base.comps))
    family = Ind(d.name, weakened, vinst(d.index_tel))
    return Sub(base.comps + (STy(family, k),))


@replayed_cache(maxsize=None)
def _con_data_tied(d: IndDesc, ci: int) -> Telescope:
    return apply_tel(con_data(d, ci), tie_sub(d))


def con_data_tied(d: IndDesc, ci: int) -> Telescope:
    """Constructor argument telescope over the parameter context, with
    recursive occurrences referring to the datatype itself."""
    return _con_data_tied(d, ci)


@replayed_cache(maxsize=1024)
def con_args_tel(d: IndDesc, ci: int, params: Sub) -> Telescope:
    """Argument telescope of constructor ``ci`` at the parameters
    ``params``.  Every cell of a list has the same parameters, so a check
    or conversion of the list instantiates the telescope once."""
    return apply_tel(con_data_tied(d, ci), params)


def constr_type(name: str, ci: int) -> tuple[Context, Type]:
    """Context and result type of a constructor in its universal form."""
    d = desc(name)
    c = d.cons[ci]
    tied = con_data_tied(d, ci)
    ctx = extend_tel(d.params_ctx, POS, tied)
    params = Sub(tuple(shift(cp, len(tied), 0) for cp in id_sub(d.params_ctx).comps))
    indices = tuple(shift(t, len(c.rec), 0) for t in c.ind)
    return ctx, Ind(name, params, indices)


def generic_con(name: str, ci: int) -> Con:
    """The constructor term in its universal context."""
    d = desc(name)
    tied = con_data_tied(d, ci)
    params = Sub(tuple(shift(cp, len(tied), 0) for cp in id_sub(d.params_ctx).comps))
    return Con(name, ci, params, vinst(tied))


def result_indices(tm: Con) -> Inst:
    """Actual indices of a constructor term (its result type's index
    instantiation): the declared indices at the term's parameters and
    non-recursive arguments."""
    d = desc(tm.desc)
    c = d.cons[tm.tag]
    if not c.ind:
        return ()
    argn = tm.args[:len(c.nrec)]
    spine = Sub(tm.params.comps + tuple(STm(t) for t in argn))
    return tuple(apply(t, spine) for t in c.ind)


def cast_con(tm: Con, tr: Trans) -> Term:
    """Computation rule for a constructor cast along the datatype's
    functorial adapter: same constructor at the target parameters, each
    argument adapted by the argument telescope's action on the parameter
    transformation.  The index side of the transformation is forced, so
    a mismatch there means the cast was ill-typed."""
    d = desc(tm.desc)
    npar = len(d.params_ctx)
    if len(tr.comps) != len(d.full_ctx):
        raise KernelError("inductive adapter spine does not match the signature")
    mu = Trans(tr.comps[:npar])
    src_spine = trans_source(d.full_ctx, tr)
    if Sub(src_spine.comps[:npar]) != tm.params:
        raise KernelError("inductive cast parameter mismatch")
    src_idx = tuple(c.tm for c in src_spine.comps[npar:])
    if src_idx != result_indices(tm):
        raise KernelError("inductive cast index mismatch")
    alpha, params = _con_adapter(d, tm.tag, mu)
    return Con(tm.desc, tm.tag, params, cast_inst(tm.args, alpha))


@replayed_cache(maxsize=1024)
def _con_adapter(d: IndDesc, ci: int, mu: Trans) -> tuple[TelAd, Sub]:
    """Argument telescope adapter of constructor ``ci`` under the
    parameter transformation ``mu``, and the target parameters.  Every
    cell of a cast list shares ``mu``, so this is computed once per cast."""
    return (push_tel(con_data_tied(d, ci), mu, d.params_ctx),
            trans_target(d.params_ctx, mu))


def ind_adapter(name: str, mu: Trans, src_indices: Inst) -> Adapter:
    """Functorial adapter of a datatype from a parameter transformation
    and the source-side indices (the target indices are forced)."""
    d = desc(name)
    if len(mu.comps) != len(d.params_ctx):
        raise KernelError("parameter transformation arity mismatch")
    if len(src_indices) != len(d.index_tel):
        raise KernelError("index arity mismatch")
    from .syntax import IndAd
    comps = mu.comps + tuple(KTm(t) for t in src_indices)
    return IndAd(name, Trans(comps))


def register(d: IndDesc) -> None:
    """Checked registration: re-verifies every well-formedness premise of
    the signature sorts, then installs the description."""
    from . import check
    check.check_desc(d)
    install_desc(d)


# ---------------------------------------------------------------------------
# Stock datatypes
# ---------------------------------------------------------------------------


def _ty_param(dir=POS, tel: Telescope = ()) -> TyEntry:
    return TyEntry(dir, POS, tel)


NAT = "Nat"
LIST = "List"
VEC = "Vec"
SUM = "Sum"
W = "W"
ID = "Id"


def nat() -> Type:
    return Ind(NAT, Sub(()), ())


def nat_zero() -> Term:
    return Con(NAT, 0, Sub(()), ())


def nat_succ(t: Term) -> Term:
    return Con(NAT, 1, Sub(()), (t,))


def builtin_descs() -> tuple[IndDesc, ...]:
    nat_d = IndDesc(
        NAT, (), (),
        (ConDesc("zero", (), (), ()),
         ConDesc("succ", (), (RecDesc((), ()),), ())))
    one_param: Context = (_ty_param(),)
    list_d = IndDesc(
        LIST, one_param, (),
        (ConDesc("nil", (), (), ()),
         ConDesc("cons", (TyVarRef(0, ()),), (RecDesc((), ()),), ())))
    vec_d = IndDesc(
        VEC, one_param, (nat(),),
        (ConDesc("vnil", (), (), (nat_zero(),)),
         ConDesc("vcons", (TyVarRef(0, ()), nat()),
                 (RecDesc((), (Var(0),)),),
                 (nat_succ(Var(0)),))))
    sum_d = IndDesc(
        SUM, (_ty_param(), _ty_param()), (),
        (ConDesc("inl", (TyVarRef(1, ()),), (), ()),
         ConDesc("inr", (TyVarRef(0, ()),), (), ())))
    w_d = IndDesc(
        W, (_ty_param(), TyEntry(NEG, POS, (TyVarRef(0, ()),))), (),
        (ConDesc("sup", (TyVarRef(1, ()),),
                 (RecDesc((TyVarRef(0, (Var(0),)),), ()),), ()),))
    id_d = IndDesc(
        ID, (_ty_param(), TmEntry(POS, TyVarRef(0, ()))),
        (TyVarRef(0, ()),),
        (ConDesc("refl", (), (), (Var(0),)),))
    return (nat_d, list_d, vec_d, sum_d, w_d, id_d)


def install_builtins() -> None:
    for d in builtin_descs():
        if d.name not in DESC_TABLE:
            register(d)


# ---------------------------------------------------------------------------
# Derived adapter rule, human-readable and as structured data
# ---------------------------------------------------------------------------


_AD_NAMES = "fghkpq"
_TM_NAMES = "abcde"


def _generic_setup(d: IndDesc):
    """Generic instantiation of a parameter transformation: postulated
    base types for type parameters (constant families when the parameter
    has a dependency telescope), postulated adapters between them, and
    ambient variables for term parameters.

    Returns (ambient context, names, source params spine, transformation).
    """
    from .syntax import Base
    ctx: list = []
    names: list[str] = []
    p_comps: list = []
    mu_comps: list = []
    n_ty = 0
    n_tm = 0
    for entry in d.params_ctx:
        if isinstance(entry, TyEntry):
            src = Base(chr(ord("A") + n_ty))
            tgt = Base(chr(ord("A") + n_ty) + "'")
            ad_name = _AD_NAMES[n_ty]
            ar = len(entry.tel)
            if entry.dir is POS:
                ad = Post(ad_name, src, tgt)
                other = tgt
            else:
                ad = Post(ad_name, tgt, src)
                other = tgt
            p_comps.append(STy(src, ar))
            mu_comps.append(KAd(ad, other, ar))
            n_ty += 1
        else:
            ty = apply(entry.ty, Sub(tuple(p_comps)))
            ty = shift(ty, n_tm, 0)
            ctx.append(TmEntry(POS, ty))
            names.append(_TM_NAMES[n_tm])
            n_tm += 1
            # every later component sees one more ambient variable
            p_comps = [shift(c, 1, 0) for c in p_comps]
            mu_comps = [shift(c, 1, 0) for c in mu_comps]
            p_comps.append(STm(Var(0)))
            mu_comps.append(KTm(Var(0)))
    return tuple(ctx), names, Sub(tuple(p_comps)), Trans(tuple(mu_comps))


def derive_rule_doc(name: str) -> dict:
    """Specialize the generic adapter typing rule at one datatype and
    compute the per-constructor cast equations, as printable strings and
    structured data.  Everything is derived by the engine itself."""
    from . import pretty
    from .normalize import ad_src, ad_tgt, cast
    from .syntax import Cast, IndAd

    d = desc(name)
    doc: dict = {"name": name}

    pnames = pretty.ctx_names(d.params_ctx)
    doc["params"] = [
        {
            "name": pnames[k],
            "dir": e.dir.value,
            "telescope": pretty.tel_strings(d.params_ctx[:k], e.tel)
            if isinstance(e, TyEntry) else
            [pretty.ty_string(d.params_ctx[:k], e.ty)],
        }
        for k, e in enumerate(d.params_ctx)
    ]
    doc["indices"] = pretty.tel_strings(d.params_ctx, d.index_tel)
    doc["constructors"] = [
        {
            "name": c.name,
            "nrec": pretty.tel_strings(d.params_ctx, c.nrec),
            "rec": [
                {
                    "arit": pretty.tel_strings(
                        extend_tel(d.params_ctx, POS, c.nrec), r.arit),
                    "rind": pretty.inst_strings(
                        extend_tel(d.params_ctx, POS, c.nrec + r.arit), r.rind),
                }
                for r in c.rec
            ],
            "ind": pretty.inst_strings(
                extend_tel(d.params_ctx, POS, c.nrec), c.ind),
        }
        for c in d.cons
    ]

    ctx, names, p_src, mu = _generic_setup(d)

    premises = []
    for comp, entry in zip(mu.comps, d.params_ctx):
        if isinstance(comp, KAd):
            a = comp.ad
            premises.append(
                f"{a.name} : "
                f"{pretty.ty_string(ctx, ad_src(a), names)} => "
                f"{pretty.ty_string(ctx, ad_tgt(a), names)}")
        else:
            premises.append(
                f"{pretty.tm_string(ctx, comp.tm, names)} : "
                f"{pretty.ty_string(ctx, _entry_ty_at(d, entry, p_src), names)}")

    src_idx = vinst_of_indices(d, ctx, p_src)
    k = len(d.index_tel)
    mu_idx = Trans(tuple(shift(c, k, 0) for c in mu.comps))
    full_ad = ind_adapter(name, mu_idx, src_idx["terms"])
    conclusion = (
        f"{pretty.ad_string(src_idx['ctx'], full_ad, src_idx['names'])} : "
        f"{pretty.ty_string(src_idx['ctx'], ad_src(full_ad), src_idx['names'])} => "
        f"{pretty.ty_string(src_idx['ctx'], ad_tgt(full_ad), src_idx['names'])}")
    doc["adapterRule"] = {"premises": premises, "conclusion": conclusion}

    rows = []
    for ci, c in enumerate(d.cons):
        row_ctx, row_names, lhs_tm, tr = _generic_row(d, ci, ctx, names, p_src, mu)
        lhs = Cast(lhs_tm, IndAd(name, tr))
        rhs = cast_con(lhs_tm, tr)
        rows.append({
            "lhs": pretty.tm_string(row_ctx, lhs, row_names),
            "rhs": pretty.tm_string(row_ctx, rhs, row_names),
        })
    doc["computation"] = rows
    return doc


def _entry_ty_at(d: IndDesc, entry: TmEntry, p_src: Sub) -> Type:
    k = d.params_ctx.index(entry)
    return apply(entry.ty, Sub(p_src.comps[:k]))


def vinst_of_indices(d: IndDesc, ctx: Context, p_src: Sub) -> dict:
    """Ambient context extended with one variable per index, for stating
    the generic rule at arbitrary indices."""
    names = list(_iter_names(ctx))
    tel = apply_tel(d.index_tel, p_src)
    full_ctx = extend_tel(ctx, POS, tel)
    idx_names = [f"i{k}" for k in range(len(tel))]
    terms = vinst(tel)
    return {
        "ctx": full_ctx,
        "names": names + idx_names,
        "terms": terms,
    }


def _iter_names(ctx: Context):
    for k, e in enumerate(ctx):
        yield _TM_NAMES[k] if k < len(_TM_NAMES) else f"v{k}"


def _generic_row(d: IndDesc, ci: int, ctx: Context, names: list[str],
                 p_src: Sub, mu: Trans):
    """Ambient data for one computation row: the generic setup extended
    with one variable per constructor argument at the source parameters."""
    tied = con_data_tied(d, ci)
    args_tel = apply_tel(tied, p_src)
    row_ctx = extend_tel(ctx, POS, args_tel)
    n = len(args_tel)
    row_names = list(names) + [f"x{k}" for k in range(n)]
    p_here = Sub(tuple(shift(c, n, 0) for c in p_src.comps))
    mu_here = Trans(tuple(shift(c, n, 0) for c in mu.comps))
    tm = Con(d.name, ci, p_here, vinst(args_tel))
    tr = Trans(mu_here.comps + tuple(KTm(t) for t in result_indices(tm)))
    return row_ctx, row_names, tm, tr
