"""The generic instance of a signature and its computation rows, the ones
``adaptt derive`` prints and ``adaptt selftest`` checks.

Every row is checked five ways: its context is well-formed, its full
adapter is well-typed, its constructor term has the adapter's source
type, the derived constructor cast has the adapter's target type, and
the raw cast converts to the derived constructor cast.  The
datatypes are the stock ones, ``Tree``, and four declared in the surface
language: dependent term parameters, a parameter with a dependency
telescope, a contravariant parameter under a function-typed argument,
and an indexed tree with two recursive arguments, the second typed under
the first."""

import contextlib
import contextvars
import io

import pytest

from adaptt import cli, elaborate, inductive, surface
from adaptt.check import check_ad, check_ctx, infer_tm
from adaptt.inductive import (
    builtin_descs, cast_con, generic_rows, generic_setup, register, tree_desc,
)
from adaptt.normalize import ad_src, ad_tgt, conv_tm, conv_ty, nf
from adaptt.syntax import SESSION, Cast, Con, IndAd, Session, Trans, desc
from adaptt.transform import _con_adapter

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
        register(tree_desc())
        elaborate.elab_file(surface.parse("\n".join(DECLARED.values())))
        d = desc(name)
        rows = []
        for c, ctx, _, tm, tr in generic_rows(d, generic_setup(d)):
            ad = IndAd(d.name, tr)
            check_ctx(ctx)
            check_ad(ctx, ad)
            rhs = cast_con(tm, tr)
            typed = (conv_ty(ctx, infer_tm(ctx, tm), ad_src(ad))
                     and conv_ty(ctx, infer_tm(ctx, rhs), ad_tgt(ad)))
            computes = conv_tm(ctx, ad_tgt(ad), nf(Cast(tm, ad)).value, rhs)
            rows.append((f"{d.name}.{c.name}", typed and computes))
        return [c.name for c in d.cons], rows
    return contextvars.copy_context().run(go)


@pytest.mark.parametrize("name", NAMES)
def test_every_generic_row_is_well_typed_and_computes(name):
    cons, rows = checked_rows(name)
    assert [label for label, _ in rows] == [f"{name}.{c}" for c in cons]
    assert all(ok for _, ok in rows), rows



def test_selftest_fails_every_row_whose_arguments_a_broken_rule_leaves_uncast(
        monkeypatch):
    """The judge of ``adaptt selftest`` is the checker, not the engine that
    derives the rows: a constructor rule that casts the parameters but
    keeps the arguments as they were (mutant M1) fails exactly the rows
    that have an argument whose type mentions a parameter."""
    def keep_arguments(tm, tr):
        d = desc(tm.desc)
        _, params = _con_adapter(d, tm.tag, Trans(tr.comps[:len(d.params_ctx)]))
        return Con(tm.desc, tm.tag, params, tm.args)

    monkeypatch.setattr(inductive, "cast_con", keep_arguments)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["selftest"])
    lines = buf.getvalue().splitlines()
    assert [line.split()[1] for line in lines if line.startswith("FAIL")] == [
        "List.cons", "Vec.vcons", "Sum.inl", "Sum.inr", "W.sup", "Tree.node"]
    assert lines[-1] == "selftest: 6/12 rows hold"
    assert code == 1
