"""The generic instance of a signature and its computation rows, the ones
``adaptt derive`` prints and ``adaptt selftest`` checks.

Every row is checked four ways: its context is well-formed, its full
adapter is well-typed, its constructor term has the adapter's source
type, and the raw cast converts to the derived constructor cast.  The
datatypes are the stock ones, ``Tree``, and four declared in the surface
language: dependent term parameters, a parameter with a dependency
telescope, a contravariant parameter under a function-typed argument,
and an indexed tree with two recursive arguments, the second typed under
the first."""

import contextvars

import pytest

from adaptt import elaborate, golden, surface
from adaptt.check import check_ad, check_ctx, infer_tm
from adaptt.inductive import (
    builtin_descs, cast_con, generic_rows, generic_setup,
)
from adaptt.normalize import ad_src, ad_tgt, conv_tm, conv_ty, nf
from adaptt.syntax import SESSION, Cast, IndAd, Session, desc

DECLARED = {
    "P": "data P (X : Ty+) (n : Nat) (x : Vec X n) (m : Nat) (y : Vec X m) "
         "{ mk : P X n x m y }",
    "Fam": "data Fam (F : (n : Nat) Ty+) (k : Nat) "
           "{ fam : (v : F k) -> Fam F k }",
    "Co": "data Co (X : Ty-) (Y : Ty+) { co : (h : X -> Y) -> Co X Y }",
    "Bin": "data Bin (X : Ty+) [Nat] { tip : Bin X zero ; "
           "fork : (x : X) (n : Nat) (l : Bin X n) (r : Bin X n) "
           "-> Bin X (succ n) }",
}

NAMES = [d.name for d in builtin_descs()] + ["Tree", *DECLARED]


def checked_rows(name):
    """The constructor names of ``name`` and ``(label, ok)`` per generic
    row, in a fresh session that holds the stock datatypes, ``Tree`` and
    the declared ones."""
    def go():
        SESSION.set(Session({d.name: d for d in builtin_descs()}))
        golden.ensure_tree()
        elaborate.elab_file(surface.parse("\n".join(DECLARED.values())))
        d = desc(name)
        rows = []
        for c, ctx, _, tm, tr in generic_rows(d, generic_setup(d)):
            ad = IndAd(d.name, tr)
            check_ctx(ctx)
            check_ad(ctx, ad)
            typed = conv_ty(ctx, infer_tm(ctx, tm), ad_src(ad))
            computes = conv_tm(ctx, ad_tgt(ad), nf(Cast(tm, ad)).value,
                               cast_con(tm, tr))
            rows.append((f"{d.name}.{c.name}", typed and computes))
        return [c.name for c in d.cons], rows
    return contextvars.copy_context().run(go)


@pytest.mark.parametrize("name", NAMES)
def test_every_generic_row_is_well_typed_and_computes(name):
    cons, rows = checked_rows(name)
    assert [label for label, _ in rows] == [f"{name}.{c}" for c in cons]
    assert all(ok for _, ok in rows), rows

