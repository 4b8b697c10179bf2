"""Datatype signatures above the kernel and the checker.

This module holds the stock table (naturals, lists, vectors, sums,
branching trees, propositional equality) and ``Tree``, the one datatype
deliberately left out of it; checked registration; the universal and
generic instances of a signature and its computation rows, with the
checker's judgment of them that ``adaptt selftest`` prints; and every
printer of a signature (``derive_rule_doc``, ``data_decl_string``).

The kernel reads a signature through two pieces that live beside the code
that runs them once per list cell: the constructor argument telescopes
(``normalize.con_data_tied``, ``con_args_tel``) and the constructor cast
rule, the functorial action of a datatype (``transform.cast_con``).
"""

from __future__ import annotations

from . import pretty
from .pretty import ATOM, LOW, Names, render
from .check import CheckError, check_desc, infer_tm
from .syntax import (
    POS, NEG, Context, TmEntry, TyEntry, Inst,
    Type, Base, TyVarRef, Ind, Term, Var, Con, Cast, Adapter, Post, IndAd,
    Sub, STy, Trans, KAd,
    RecDesc, ConDesc, IndDesc, SESSION, desc,
    extend_tel, shift, id_sub, vinst,
)
from .normalize import (
    KernelError, apply, conv_ty, ad_src, ad_tgt,
    con_data_tied, con_args_tel, result_indices,
)
from .transform import cast_con, free_is_source


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


def ind_adapter(name: str, mu: Trans, src_indices: Inst) -> Adapter:
    """Functorial adapter of a datatype from a parameter transformation
    and the source-side indices (the target indices are forced)."""
    d = desc(name)
    if len(mu.comps) != len(d.params_ctx):
        raise KernelError("parameter transformation arity mismatch")
    if len(src_indices) != len(d.index_tel):
        raise KernelError("index arity mismatch")
    return IndAd(name, Trans(mu.comps + src_indices))


def register(d: IndDesc) -> None:
    """Checked registration: re-verifies every well-formedness premise of
    the signature sorts, then installs the description in the current
    session.  Re-registering the same description is a no-op; a different
    one under a name already taken raises ``ValueError``."""
    check_desc(d)
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


def tree_desc() -> IndDesc:
    """Node-labelled trees with a contravariant branching parameter; the
    datatype deliberately absent from the stock table."""
    return IndDesc(
        "Tree",
        (TyEntry(POS, POS, ()), TyEntry(NEG, POS, ())),
        (),
        (ConDesc("leaf", (), (), ()),
         ConDesc("node", (TyVarRef(1, ()),),
                 (RecDesc((TyVarRef(0, ()),), ()),), ())))


#: the stock table; ``install_builtins`` checks it into the root session
#: at import, and each CLI command starts from a copy
STOCK = {d.name: d for d in builtin_descs()}


def install_builtins() -> None:
    for d in STOCK.values():
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

    Returns (ambient context, its names, source params spine,
    transformation).
    """
    ctx: list = []
    names = Names()
    p_comps: list = []
    mu_comps: list = []
    n_ty = 0
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
            names = names.push(TmEntry, _pool_name(_TM_NAMES, len(names.tm)))
            # every later component sees one more ambient variable
            p_comps = [shift(c, 1, 0) for c in p_comps]
            mu_comps = [shift(c, 1, 0) for c in mu_comps]
            p_comps.append(Var(0))
            mu_comps.append(Var(0))
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
        tr = Trans(shift(mu, n, 0).comps + result_indices(tm))
        yield (c, extend_tel(ctx, POS, args_tel),
               names.push(TmEntry, *[f"x{k}" for k in range(n)]), tm, tr)


def run() -> list[tuple[str, bool]]:
    """Judge every generic row of the stock datatypes and ``Tree``: the
    rows ``adaptt selftest`` prints."""
    register(tree_desc())
    return [row for d in (*STOCK.values(), tree_desc()) for row in judge(d)]


def judge(d: IndDesc) -> list[tuple[str, bool]]:
    """Judge every generic row of ``d``, labelled
    ``<Datatype>.<constructor>``, by the checker rather than by the engine
    that derives them: the raw cast must be well-typed (its adapter, and
    its subject at the adapter's source), and the derived constructor cast
    must be well-typed at a type convertible with the cast's.  A
    ``CheckError`` or ``KernelError`` on either side fails the row."""
    results = []
    for c, ctx, _, tm, tr in generic_rows(d, generic_setup(d)):
        try:
            ok = conv_ty(ctx, infer_tm(ctx, Cast(tm, IndAd(d.name, tr))),
                         infer_tm(ctx, cast_con(tm, tr)))
        except (CheckError, KernelError):
            ok = False
        results.append((f"{d.name}.{c.name}", ok))
    return results


def derive_rule_doc(name: str) -> dict:
    """Specialize the generic adapter typing rule at one datatype and
    compute the per-constructor cast equations, as printable strings and
    structured data.  Everything is derived by the engine itself."""
    d = desc(name)
    doc: dict = {"name": name, "params": []}

    # each parameter is named once, and printed under those before it
    names = Names()
    for e in d.params_ctx:
        n = names.fresh(type(e))
        doc["params"].append(
            {"name": n, "dir": e.dir.value,
             "telescope": pretty.tel_strings(names, e.tel)}
            if isinstance(e, TyEntry) else
            {"name": n, "type": pretty.ty_string(names, e.ty)})
        names = names.push(type(e), n)
    doc["indices"] = pretty.tel_strings(names, d.index_tel)
    # a constructor's arguments are printed under fresh names
    doc["constructors"] = []
    for c in d.cons:
        args = names.invent([TmEntry] * len(c.nrec))[0]
        rec = [{"arit": pretty.tel_strings(args, r.arit),
                "rind": pretty.inst_strings(
                    args.invent([TmEntry] * len(r.arit))[0], r.rind)}
               for r in c.rec]
        doc["constructors"].append(
            {"name": c.name, "nrec": pretty.tel_strings(names, c.nrec),
             "rec": rec, "ind": pretty.inst_strings(args, c.ind)})

    ctx, names, p_src, mu = setup = generic_setup(d)

    premises = []
    outer = Names()     # the ambient entries before the next one
    for comp in mu.comps:
        if isinstance(comp, KAd):
            a = comp.ad
            premises.append(
                f"{a.name} : "
                f"{pretty.ty_string(names, ad_src(a))} => "
                f"{pretty.ty_string(names, ad_tgt(a))}")
        else:
            # the ambient entry's type lives over the variables before it
            k = len(outer.tm)
            n = names.name(TmEntry, len(ctx) - 1 - k)
            premises.append(f"{n} : {pretty.ty_string(outer, ctx[k].ty)}")
            outer = outer.push(TmEntry, n)

    # the conclusion is stated at one fresh variable per index
    idx_tel = apply(d.index_tel, p_src)
    idx_names = names.push(TmEntry, *[f"i{k}" for k in range(len(idx_tel))])
    full_ad = ind_adapter(name, shift(mu, len(idx_tel), 0), vinst(idx_tel))
    conclusion = (
        f"{pretty.ad_string(idx_names, full_ad)} : "
        f"{pretty.ty_string(idx_names, ad_src(full_ad))} => "
        f"{pretty.ty_string(idx_names, ad_tgt(full_ad))}")
    doc["adapterRule"] = {"premises": premises, "conclusion": conclusion}

    doc["computation"] = [
        {"lhs": pretty.tm_string(row_names, Cast(tm, IndAd(name, tr))),
         "rhs": pretty.tm_string(row_names, cast_con(tm, tr))}
        for _, _, row_names, tm, tr in generic_rows(d, setup)
    ]
    return doc


def data_decl_string(d: IndDesc) -> str:
    """Surface declaration for a registered datatype; reparses and
    re-elaborates to a structurally identical signature."""
    names = Names()
    header, params = [f"data {d.name}"], []
    for e in d.params_ctx:
        if isinstance(e, TyEntry):
            tel = zip(names.invent([TmEntry] * len(e.tel))[1],
                      pretty.tel_strings(names, e.tel))
            sort = " ".join([*(f"({n} : {s})" for n, s in tel),
                             f"Ty{e.dir.value}"])
        else:
            sort = render(e.ty, names, LOW)
        params.append(names.fresh(type(e)))
        names = names.push(type(e), params[-1])
        header.append(f"({params[-1]} : {sort})")
    idx_names = names
    for k, ty in enumerate(d.index_tel):
        header.append(f"[i{k} : {render(ty, idx_names, LOW)}]")
        idx_names = idx_names.push(TmEntry, f"i{k}")
    lines = [" ".join(header) + " {"]
    con_lines = []
    for ci, c in enumerate(d.cons):
        arg_names = names
        parts = []
        for k, ty in enumerate(con_data_tied(d, ci)):
            parts.append(f"(x{k} : {render(ty, arg_names, LOW)})")
            arg_names = arg_names.push(TmEntry, f"x{k}")
        head = [d.name] + params
        idx = shift(c.ind, len(c.rec), 0)
        head += [render(t, arg_names, ATOM) for t in idx]
        result = " ".join(head)
        arrow = f"{' '.join(parts)} -> {result}" if parts else result
        con_lines.append(f"  {c.name} : {arrow}")
    lines.append(" ;\n".join(con_lines))
    lines.append("}")
    return "\n".join(lines)
