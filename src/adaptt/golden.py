"""The stock computation rows: for every constructor of every stock
datatype, and of ``Tree``, the cast along the generic parameter
transformation and the right-hand side it must compute to.

The rows are the ones ``adaptt derive`` prints, built once over the
signature by ``inductive.generic_rows`` at ``inductive.generic_setup``.
Both sides are produced by the engine (a raw cast node on the left, the
derived constructor-cast on the right) and compared by conversion; the
suite also runs on a datatype that is not in the stock table, so a
per-datatype shortcut anywhere would show up immediately.
"""

from __future__ import annotations

from .syntax import (
    POS, NEG, TyEntry, TyVarRef, Cast, IndAd, Trans, RecDesc, ConDesc, IndDesc,
)
from .normalize import nf, conv_tm, ad_tgt
from .inductive import (
    builtin_descs, cast_con, generic_rows, generic_setup, register,
)
from .transform import trans_target


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


def run() -> list[tuple[str, bool]]:
    """Evaluate every row, labelled ``<Datatype>.<constructor>``: the raw
    cast node must convert to the derived constructor form, and the
    derived form must again be a constructor at the transformation's
    target parameters."""
    ensure_tree()
    results = []
    for d in builtin_descs() + (tree_desc(),):
        npar = len(d.params_ctx)
        for c, ctx, _, tm, tr in generic_rows(d, generic_setup(d)):
            ad = IndAd(d.name, tr)
            rhs = cast_con(tm, tr)
            ok = conv_tm(ctx, ad_tgt(ad), nf(Cast(tm, ad)).value, rhs)
            ok = ok and rhs.params == trans_target(d.params_ctx,
                                                   Trans(tr.comps[:npar]))
            results.append((f"{d.name}.{c.name}", ok))
    return results
