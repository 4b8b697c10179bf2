"""Datatype signature compiler.

From a signature (parameter context, index telescope, constructor
records) this module builds the argument telescope of each constructor
over the parameter context, each recursive argument naming the datatype
itself, and derives the computation rule for casting a constructor along
the datatype's functorial adapter.  The six stock datatypes (naturals,
lists, vectors, sums, branching trees, propositional equality) are
registered here.
"""

from __future__ import annotations

from . import pretty
from .syntax import (
    POS, NEG, Context, TmEntry, TyEntry, Telescope, TelAd, Inst,
    Type, Base, TyVarRef, Ind, Term, Var, Con, Cast, Adapter, Post, IndAd,
    Sub, STm, STy, Trans, KTm, KAd,
    RecDesc, ConDesc, IndDesc, SESSION, desc,
    extend_tel, shift, id_sub, vinst,
)
from .normalize import (
    KernelError, apply, cast, note, open_tm_block, pi_tel, replayed_cache,
    ad_src, ad_tgt,
)
from .transform import (
    push_tel, trans_source, trans_target, free_is_source,
)


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
    or conversion of the list instantiates the telescope once."""
    return apply(con_data_tied(d, ci), params)


def constr_type(name: str, ci: int) -> tuple[Context, Type]:
    """Context and result type of a constructor in its universal form."""
    d = desc(name)
    c = d.cons[ci]
    tied = con_data_tied(d, ci)
    ctx = extend_tel(d.params_ctx, POS, tied)
    params = shift(id_sub(d.params_ctx), len(tied), 0)
    indices = tuple(shift(t, len(c.rec), 0) for t in c.ind)
    return ctx, Ind(name, params, indices)


def generic_con(name: str, ci: int) -> Con:
    """The constructor term in its universal context."""
    d = desc(name)
    tied = con_data_tied(d, ci)
    return Con(name, ci, shift(id_sub(d.params_ctx), len(tied), 0), vinst(tied))


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
    a mismatch there means the cast was ill-typed.  While the last
    argument's cast is again a constructor cast, the loop walks down to
    it, checking each cell in full, and rebuilds the cells bottom-up."""
    cells, tail = [], ()
    while True:
        d = desc(tm.desc)
        npar = len(d.params_ctx)
        if len(tr.comps) != len(d.full_ctx):
            raise KernelError("inductive adapter spine does not match the signature")
        src_spine = trans_source(d.full_ctx, tr)
        if Sub(src_spine.comps[:npar]) != tm.params:
            raise KernelError("inductive cast parameter mismatch")
        src_idx = tuple(c.tm for c in src_spine.comps[npar:])
        if src_idx != result_indices(tm):
            raise KernelError("inductive cast index mismatch")
        alpha, params = _con_adapter(d, tm.tag, Trans(tr.comps[:npar]))
        args = tm.args
        if len(args) != len(alpha):
            raise KernelError("telescope adapter length mismatch")
        lead = [cast(t, open_tm_block(a, args[:k]))
                for k, (t, a) in enumerate(zip(args[:-1], alpha))]
        cells.append((tm, params, lead))
        if args:
            last, ad = args[-1], open_tm_block(alpha[-1], args[:-1])
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
    comps = mu.comps + tuple(KTm(t) for t in src_indices)
    return IndAd(name, Trans(comps))


def register(d: IndDesc) -> None:
    """Checked registration: re-verifies every well-formedness premise of
    the signature sorts, then installs the description in the current
    session.  Re-registering the same description is a no-op; a different
    one under a name already taken raises ``ValueError``."""
    from . import check
    check.check_desc(d)
    if SESSION.get().descs.setdefault(d.name, d) is not d:
        raise ValueError(f"datatype {d.name} is already defined differently")


# ---------------------------------------------------------------------------
# Stock datatypes
# ---------------------------------------------------------------------------


_TY_PARAM = TyEntry(POS, POS, ())


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
    one_param: Context = (_TY_PARAM,)
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
        SUM, (_TY_PARAM, _TY_PARAM), (),
        (ConDesc("inl", (TyVarRef(1, ()),), (), ()),
         ConDesc("inr", (TyVarRef(0, ()),), (), ())))
    w_d = IndDesc(
        W, (_TY_PARAM, TyEntry(NEG, POS, (TyVarRef(0, ()),))), (),
        (ConDesc("sup", (TyVarRef(1, ()),),
                 (RecDesc((TyVarRef(0, (Var(0),)),), ()),), ()),))
    id_d = IndDesc(
        ID, (_TY_PARAM, TmEntry(POS, TyVarRef(0, ()))),
        (TyVarRef(0, ()),),
        (ConDesc("refl", (), (), (Var(0),)),))
    return (nat_d, list_d, vec_d, sum_d, w_d, id_d)


def install_builtins() -> None:
    for d in builtin_descs():
        register(d)


# ---------------------------------------------------------------------------
# Derived adapter rule, human-readable and as structured data
# ---------------------------------------------------------------------------


_TY_NAMES = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_AD_NAMES = "fghkpq"
_TM_NAMES = "abcde"


def _pool_name(pool: str, n: int) -> str:
    """The n-th name drawn from a pool: its letters in order, then its
    first letter with the number as a suffix."""
    return pool[n] if n < len(pool) else f"{pool[0]}{n}"


def generic_setup(d: IndDesc):
    """The generic instance of a signature's parameters: a postulated
    base type and adapter per type parameter (constant families when the
    parameter has a dependency telescope), and an ambient variable per
    term parameter.

    Returns (ambient context, names, source params spine, transformation).
    """
    ctx: list = []
    names: list[str] = []
    p_comps: list = []
    mu_comps: list = []
    n_ty = 0
    n_tm = 0
    for entry in d.params_ctx:
        if isinstance(entry, TyEntry):
            src = Base(_pool_name(_TY_NAMES, n_ty))
            tgt = Base(src.name + "'")
            ad_name = _pool_name(_AD_NAMES, n_ty)
            ar = len(entry.tel)
            ad = Post(ad_name, src, tgt) if entry.dir is POS \
                else Post(ad_name, tgt, src)
            other = tgt if free_is_source(entry) else src
            p_comps.append(STy(src, ar))
            mu_comps.append(KAd(ad, other, ar))
            n_ty += 1
        else:
            ctx.append(TmEntry(POS, apply(entry.ty, Sub(tuple(p_comps)))))
            names.append(_pool_name(_TM_NAMES, n_tm))
            n_tm += 1
            # every later component sees one more ambient variable
            p_comps = [shift(c, 1, 0) for c in p_comps]
            mu_comps = [shift(c, 1, 0) for c in mu_comps]
            p_comps.append(STm(Var(0)))
            mu_comps.append(KTm(Var(0)))
    return tuple(ctx), names, Sub(tuple(p_comps)), Trans(tuple(mu_comps))


def generic_rows(d: IndDesc, setup):
    """The computation rows of ``d`` at its generic instance ``setup``
    (as returned by ``generic_setup``).  For each constructor, yield
    ``(constructor, ctx, names, term, trans)``: the ambient context
    extended by one variable per constructor argument at the source
    parameters, its names, the constructor applied to those variables, and
    the datatype's full transformation (the parameter part followed by the
    term's indices), so that ``Cast(term, IndAd(d.name, trans))`` is the
    row's left-hand side and ``cast_con(term, trans)`` its right."""
    ctx, names, p_src, mu = setup
    for ci, c in enumerate(d.cons):
        args_tel = con_args_tel(d, ci, p_src)
        n = len(args_tel)
        tm = Con(d.name, ci, shift(p_src, n, 0), vinst(args_tel))
        tr = Trans(shift(mu, n, 0).comps
                   + tuple(KTm(t) for t in result_indices(tm)))
        yield (c, extend_tel(ctx, POS, args_tel),
               names + [f"x{k}" for k in range(n)], tm, tr)


def derive_rule_doc(name: str) -> dict:
    """Specialize the generic adapter typing rule at one datatype and
    compute the per-constructor cast equations, as printable strings and
    structured data.  Everything is derived by the engine itself."""
    d = desc(name)
    doc: dict = {"name": name}

    pnames = pretty.ctx_names(d.params_ctx)
    doc["params"] = [
        {"name": n, "dir": e.dir.value,
         "telescope": pretty.tel_strings(d.params_ctx[:k], e.tel)}
        if isinstance(e, TyEntry) else
        {"name": n, "type": pretty.ty_string(d.params_ctx[:k], e.ty)}
        for k, (n, e) in enumerate(zip(pnames, d.params_ctx))
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

    ctx, names, p_src, mu = setup = generic_setup(d)

    premises = []
    n_tm = 0
    for comp in mu.comps:
        if isinstance(comp, KAd):
            a = comp.ad
            premises.append(
                f"{a.name} : "
                f"{pretty.ty_string(ctx, ad_src(a), names)} => "
                f"{pretty.ty_string(ctx, ad_tgt(a), names)}")
        else:
            # the ambient entry's type lives over the variables before it
            premises.append(
                f"{names[n_tm]} : "
                f"{pretty.ty_string(ctx[:n_tm], ctx[n_tm].ty, names)}")
            n_tm += 1

    # the conclusion is stated at one fresh variable per index
    idx_tel = apply(d.index_tel, p_src)
    idx_ctx = extend_tel(ctx, POS, idx_tel)
    idx_names = names + [f"i{k}" for k in range(len(idx_tel))]
    full_ad = ind_adapter(name, shift(mu, len(idx_tel), 0), vinst(idx_tel))
    conclusion = (
        f"{pretty.ad_string(idx_ctx, full_ad, idx_names)} : "
        f"{pretty.ty_string(idx_ctx, ad_src(full_ad), idx_names)} => "
        f"{pretty.ty_string(idx_ctx, ad_tgt(full_ad), idx_names)}")
    doc["adapterRule"] = {"premises": premises, "conclusion": conclusion}

    doc["computation"] = [
        {"lhs": pretty.tm_string(row_ctx, Cast(tm, IndAd(name, tr)), row_names),
         "rhs": pretty.tm_string(row_ctx, cast_con(tm, tr), row_names)}
        for _, row_ctx, row_names, tm, tr in generic_rows(d, setup)
    ]
    return doc
