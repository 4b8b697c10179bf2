"""Elaboration is the one normalization on the command path: every term
and type that ``elab_file`` and ``elab_expr_in`` return was built by the
smart constructors and is normal already, so ``adaptt check|norm`` print
them as elaborated, with no ``nf`` of their own."""

import pathlib
import random

import pytest

from adaptt import surface as S
from adaptt.elaborate import elab_expr_in, elab_file
from adaptt.normalize import assert_normal, nf
from adaptt.syntax import TmEntry, desc
from perfbench.gen import surface_file
from test_print_parse import EXTRA_SCOPE, PRINTED
from test_session_memo import in_fresh_session

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: the corpus files that elaborate (``broken.adt`` stops at a diagnostic)
CORPUS = ["casts.adt", "prelude.adt", "tree.adt"]


def assert_elaborated_normal(x):
    """``x`` is its own normal form, and passes the invariant scan."""
    assert nf(x).value is x, x
    assert_normal(x)


def elaborated_values(out):
    """Every term and type an elaborated file holds: its checks, equations
    and normalizations, its definitions, the types of its variables and
    the signatures of the datatypes it declares."""
    for _, _, tm, ty, _ in out.checks:
        yield from (tm, ty)
    for _, _, lhs, rhs, ty, _ in out.asserts:
        yield from (lhs, rhs, ty)
    for _, _, tm, _ in out.normalizes:
        yield tm
    for kind, meaning in out.scope.table.values():
        if kind == "def":
            yield meaning
    for entry in out.scope.ctx:
        yield entry.ty
    for name in out.datas:
        d = desc(name)
        for entry in d.params_ctx:
            yield from (entry.ty,) if type(entry) is TmEntry else entry.tel
        yield from d.index_tel
        for c in d.cons:
            yield from (*c.nrec, *c.ind)
            for r in c.rec:
                yield from (*r.arit, *r.rind)


def assert_file_normal(text):
    def run():
        out = elab_file(S.parse(text))
        values = list(elaborated_values(out))
        assert values
        for x in values:
            assert_elaborated_normal(x)
    in_fresh_session(run)


@pytest.mark.parametrize("name", CORPUS)
def test_a_corpus_file_elaborates_to_normal_values(name):
    assert_file_normal((ROOT / "corpus" / name).read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cells", [6, 96, 400])
def test_a_generated_file_elaborates_to_normal_values(seed, cells):
    assert_file_normal(surface_file(random.Random(seed), cells).text)


def test_a_norm_expression_elaborates_to_normal_values():
    # the ``norm -e`` entry point, on a cast list literal and on the
    # printer cases
    text = (ROOT / "corpus" / "casts.adt").read_text(encoding="utf-8")
    lst = "nil A"
    for k in range(64):
        lst = f"cons A {('a', 'a2')[k % 2]} ({lst})"

    def run():
        sc = elab_file(S.parse(text)).scope
        for expr in (lst, f"{lst} <| List [[ g . f ]]"):
            for x in elab_expr_in(sc, expr):
                assert_elaborated_normal(x)
    in_fresh_session(run)
    for expr in PRINTED:
        for x in elab_expr_in(EXTRA_SCOPE, expr):
            assert_elaborated_normal(x)
