"""The stock computation rows: for every constructor of every stock
datatype, the cast along a generic parameter transformation and the
right-hand side it must compute to.

Both sides are produced by the engine (a raw cast node on the left, the
derived constructor-cast on the right) and compared by conversion; the
suite also runs on an extra datatype that is not in the stock table, so
a per-datatype shortcut anywhere would show up immediately.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import (
    POS, NEG, Context, TmEntry, TyEntry, Base, TyVarRef, Pi, Ind,
    Var, Cast, Con, Post, Sub, STm, STy, Trans, KTm, KAd,
    RecDesc, ConDesc, IndDesc, desc, shift,
)
from .normalize import nf, conv_tm, ad_tgt
from .inductive import cast_con, ind_adapter, nat, nat_zero, nat_succ, register
from .transform import trans_target

A = Base("GA")
B = Base("GB")
C = Base("GC")
D = Base("GD")

f = Post("gf", A, B)      # covariant parameter component
g = Post("gg", C, D)      # second covariant component
k = Post("gk", D, C)      # contravariant (branching) component


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


def ensure_tree() -> None:
    register(tree_desc())


@dataclass(frozen=True)
class Row:
    label: str
    ctx: Context
    term: Con
    adapter: object
    result_ty: object


def rows() -> list[Row]:
    ensure_tree()
    out: list[Row] = []
    mu_f = Trans((KAd(f, B, 0),))
    mu_fg = Trans((KAd(f, B, 0), KAd(g, D, 0)))
    mu_fk = Trans((KAd(f, B, 0), KAd(k, D, 1)))
    mu_fk0 = Trans((KAd(f, B, 0), KAd(k, D, 0)))

    def row(label, ctx, term, adapter):
        out.append(Row(label, ctx, term, adapter, ad_tgt(adapter)))

    # naturals: no parameters, the adapter is degenerate
    nat_tr = Trans(())
    row("Nat.zero", (), nat_zero(), ind_adapter("Nat", nat_tr, ()))
    row("Nat.succ", (TmEntry(POS, nat()),),
        nat_succ(Var(0)), ind_adapter("Nat", nat_tr, ()))

    # lists
    pa = Sub((STy(A, 0),))
    list_a = Ind("List", pa, ())
    row("List.nil", (), Con("List", 0, pa, ()), ind_adapter("List", mu_f, ()))
    row("List.cons", (TmEntry(POS, A), TmEntry(POS, list_a)),
        Con("List", 1, pa, (Var(1), Var(0))), ind_adapter("List", mu_f, ()))

    # vectors
    row("Vec.vnil", (), Con("Vec", 0, pa, ()),
        ind_adapter("Vec", mu_f, (nat_zero(),)))
    vec_ctx = (TmEntry(POS, A), TmEntry(POS, nat()),
               TmEntry(POS, Ind("Vec", pa, (Var(0),))))
    row("Vec.vcons", vec_ctx,
        Con("Vec", 1, pa, (Var(2), Var(1), Var(0))),
        ind_adapter("Vec", mu_f, (nat_succ(Var(1)),)))

    # sums
    pac = Sub((STy(A, 0), STy(C, 0)))
    row("Sum.inl", (TmEntry(POS, A),),
        Con("Sum", 0, pac, (Var(0),)), ind_adapter("Sum", mu_fg, ()))
    row("Sum.inr", (TmEntry(POS, C),),
        Con("Sum", 1, pac, (Var(0),)), ind_adapter("Sum", mu_fg, ()))

    # branching trees (contravariant arity)
    w_params = Sub((STy(A, 0), STy(C, 1)))
    w_ctx = (TmEntry(POS, A),
             TmEntry(POS, Pi(C, Ind("W", Sub((STy(shift(A, 1, 0), 0),
                                              STy(shift(C, 1, 0), 1))), ()))))
    row("W.sup", w_ctx, Con("W", 0, w_params, (Var(1), Var(0))),
        ind_adapter("W", mu_fk, ()))

    # propositional equality (term parameter, forced index)
    id_params = Sub((STy(A, 0), STm(Var(0))))
    row("Id.refl", (TmEntry(POS, A),),
        Con("Id", 0, id_params, ()),
        ind_adapter("Id", Trans((KAd(f, B, 0), KTm(Var(0)))), (Var(0),)))

    # the extra datatype, not in the stock table
    tp = Sub((STy(A, 0), STy(C, 0)))
    row("Tree.leaf", (), Con("Tree", 0, tp, ()),
        ind_adapter("Tree", mu_fk0, ()))
    tree_ctx = (TmEntry(POS, A),
                TmEntry(POS, Pi(C, Ind("Tree", Sub((STy(shift(A, 1, 0), 0),
                                                    STy(shift(C, 1, 0), 0))),
                                       ()))))
    row("Tree.node", tree_ctx, Con("Tree", 1, tp, (Var(1), Var(0))),
        ind_adapter("Tree", mu_fk0, ()))
    return out


def run() -> list[tuple[str, bool]]:
    """Evaluate every row: the raw cast node must convert to the derived
    constructor form, and the derived form must again be a constructor
    at the transformation's target parameters."""
    results = []
    for r in rows():
        rhs = cast_con(r.term, r.adapter.trans)
        ok = conv_tm(r.ctx, r.result_ty, nf(Cast(r.term, r.adapter)).value, rhs)
        d = desc(rhs.desc)
        mu = Trans(r.adapter.trans.comps[:len(d.params_ctx)])
        ok = ok and rhs.params == trans_target(d.params_ctx, mu)
        results.append((r.label, ok))
    return results
