"""A list literal restates its parameters in every cell.  The elaborator
and the printer read them once per run of cells with equal parameters,
and report the rules of that reading again at every cell of the run.
``check.infer_tm`` reads each cell's argument telescope through the
session memo (``check._con_tel``), keyed on the datatype, tag and
parameters, so the run's later cells are hits that report the record of
the first.  A cell whose parameters differ from the cell above is read on
its own, so a spine that changes its parameters half-way keeps the
verdict, diagnostic and printout of a cell-by-cell reading."""

import contextlib
import io
from collections import Counter

import pytest

from adaptt import check, cli, elaborate, pretty
from adaptt import surface as S
from adaptt.check import CheckError, infer_tm
from adaptt.elaborate import elab_file, elab_tm
from adaptt.syntax import POS, SESSION, Sub, STy, TmEntry, Var
from helpers import A, B, cons, list_ty, nil
from perfbench.gen import list_of
from test_session_memo import in_fresh_session, traced

CELLS = 64

#: l : List A, a : A, b : B; without ``l``, the scope of ``DECLS``
CTX = (TmEntry(POS, list_ty(A)), TmEntry(POS, A), TmEntry(POS, B))
NAMES = pretty.Names().push(TmEntry, "l", "a", "b")
l, a, b = Var(2), Var(1), Var(0)

#: the scope of the surface literals: no parameter spine of its own.
#: ``Pt X x`` restates a term parameter in every cell, where a redex fires
DECLS = """base A ; base B ; var a : A ; var b : B ;
data Pt (X : Ty+) (x : X) {
  here : Pt X x ;
  there : (y : X) (p : Pt X x) -> Pt X x
}
"""


def nested(cells, innermost):
    """``cells`` outermost first, each an applied head awaiting its last
    argument, around ``innermost``."""
    return "".join(f"{c} (" for c in cells) + innermost + ")" * len(cells)


def counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` made through the module."""
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def elaborated(text):
    """``text`` elaborated in the scope of ``DECLS``, in a fresh session;
    returns the term and the rules elaboration reported, in order."""
    def run():
        sc = elab_file(S.parse(DECLS)).scope
        p = S.Parser(text)
        return traced(lambda: elab_tm(p.expr(), sc))
    return in_fresh_session(run)[0]


def test_a_list_literal_elaborates_its_parameters_once(monkeypatch):
    calls = counting(monkeypatch, elaborate, "_elab_param_spine")
    tm, _ = elaborated(nested(["cons A a"] * CELLS, "nil A"))
    assert tm is list_of(A, [a] * CELLS)
    assert len(calls) == 1


def test_a_list_checks_its_parameters_once(monkeypatch):
    calls = counting(monkeypatch, check, "check_sub")
    tm = l
    for _ in range(CELLS):
        tm = cons(A, a, tm)
    ty, _ = in_fresh_session(lambda: infer_tm(CTX, tm))
    assert ty is list_ty(A)
    assert len(calls) == 1


def test_a_list_prints_its_parameters_once(monkeypatch):
    calls = counting(monkeypatch, pretty, "_spine_str")
    text = pretty.tm_string(NAMES, list_of(A, [a] * CELLS))
    assert text == nested(["cons A a"] * CELLS, "nil A")
    assert len(calls) == 1


def con_tel_entries(s):
    """The ``_con_tel`` entries of session ``s``'s memo, each as its
    datatype, tag and parameter spine, counted."""
    fn = check._con_tel.__wrapped__
    return Counter(key[2:] for key in s.memo if key[0] is fn)


def params(ty):
    return Sub((STy(ty, 0),))


def test_a_list_keeps_one_telescope_entry_per_constructor():
    _, s = in_fresh_session(lambda: infer_tm(CTX, list_of(A, [a] * CELLS)))
    assert con_tel_entries(s) == Counter({("List", 1, params(A)): 1,
                                          ("List", 0, params(A)): 1})


MIXED = cons(A, a, cons(B, b, nil(B)))


def test_parameters_that_change_mid_spine_keep_a_telescope_entry_each():
    def run():
        with pytest.raises(CheckError):
            infer_tm(CTX, MIXED)
        return SESSION.get()
    s, _ = in_fresh_session(run)
    assert con_tel_entries(s) == Counter({("List", 1, params(A)): 1,
                                          ("List", 1, params(B)): 1,
                                          ("List", 0, params(B)): 1})


def test_parameters_that_change_mid_spine_are_elaborated_cell_by_cell(
        monkeypatch):
    calls = counting(monkeypatch, elaborate, "_elab_param_spine")
    tm, _ = elaborated("cons A a (cons B b (nil B))")
    assert tm is MIXED
    assert len(calls) == 2


def test_parameters_that_change_mid_spine_keep_their_diagnostic(tmp_path):
    path = tmp_path / "mixed.adt"
    path.write_text(DECLS + "check cons A a (cons B b (nil B)) : List A ;\n",
                    encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["check", str(path)]) == 1
    assert buf.getvalue() == (
        f"ERROR ClassifierMismatch {path}:6:1 expected List A got List B "
        f"(instantiation component has the wrong type)\n")


def test_parameters_that_change_mid_spine_are_checked_cell_by_cell():
    with pytest.raises(CheckError) as e:
        in_fresh_session(lambda: infer_tm(CTX, MIXED))
    d = e.value.diag
    assert (d.code, d.expected, d.actual) == (
        "ClassifierMismatch", "List A", "List B")


def test_parameters_that_change_mid_spine_are_printed_cell_by_cell():
    assert pretty.tm_string(NAMES, MIXED) == \
        "cons A a (cons B b (nil B))"


@pytest.mark.parametrize("cells", [1, 2, CELLS])
def test_a_redex_in_a_term_parameter_fires_in_every_cell(cells):
    # the parameter's BETA is reported at each cell, before the CAST_ID of
    # the cell's head, as when each cell's parameters were elaborated
    redex = "(fun (z : Nat) => a) zero"
    _, rules = elaborated(nested([f"there A ({redex}) (a <| id A)"] * cells,
                                 f"here A ({redex})"))
    assert rules == ["BETA", "CAST_ID"] * cells + ["BETA"]
