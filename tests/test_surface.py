"""Surface language: parsing, elaboration, positivity, round-trips."""

import pathlib

import pytest

import adaptt  # noqa: F401  (registers the stock datatypes)
from adaptt import surface as S, elaborate as E, pretty as P
from adaptt.surface import ParseError
from adaptt.syntax import DESC_TABLE, desc, TyVarRef, Var
from adaptt.inductive import builtin_descs

def elab(text: str):
    return E.elab_file(S.parse(text))


def test_parse_data_decl():
    decls = S.parse("data List2 (X : Ty+) { nil2 : List2 X ; "
                    "cons2 : (x : X)(xs : List2 X) -> List2 X }")
    assert len(decls) == 1
    d = decls[0]
    assert isinstance(d, S.DData)
    assert d.params[0].dir == "+"
    assert [c.name for c in d.cons] == ["nil2", "cons2"]


def test_parse_postulate():
    decls = S.parse("base A ; postulate adapter f : A => A ;")
    assert isinstance(decls[1], S.DPostulate)


def test_parse_error_at_end_of_input():
    with pytest.raises(ParseError) as e:
        S.parse("data List (X : Ty+")
    assert e.value.line == 1
    assert e.value.expected


def test_parse_error_has_expected_set():
    with pytest.raises(ParseError) as e:
        S.parse("frobnicate ;")
    assert "data" in e.value.expected


def test_elaboration_matches_stock_signatures():
    out = elab(pathlib.Path("corpus/prelude.adt").read_text(encoding="utf-8"))
    stock = {d.name: d for d in builtin_descs()}
    assert set(out.datas) == set(stock)
    for name, d in stock.items():
        assert DESC_TABLE[name] == d


def test_positivity_rejected_left_of_arrow():
    text = """
    data Bad (X : Ty+) {
      mk : (f : (Bad X -> X)) -> Bad X
    }
    """
    with pytest.raises(E.ElabError) as e:
        elab(text)
    assert e.value.diag.code == "Positivity"


def test_positivity_rejected_in_arity():
    text = """
    data Bad2 (X : Ty+) {
      mk : (f : (y : Bad2 X) -> Bad2 X) -> Bad2 X
    }
    """
    with pytest.raises(E.ElabError) as e:
        elab(text)
    assert e.value.diag.code == "Positivity"


def test_branching_argument_becomes_rec_desc():
    out = elab("""
    data Rose (X : Ty+) (Y : Ty-) {
      grow : (x : X) (kids : (y : Y) -> Rose X Y) -> Rose X Y
    }
    """)
    d = desc("Rose")
    (con,) = d.cons
    assert len(con.nrec) == 1
    assert len(con.rec) == 1
    assert con.rec[0].arit == (TyVarRef(0, ()),)
    assert con.rec[0].rind == ()


def test_w_branching_with_dependency():
    d = desc("W")
    (con,) = d.cons
    assert con.rec[0].arit == (TyVarRef(0, (Var(0),)),)


def test_scope_error():
    with pytest.raises(E.ElabError) as e:
        elab("base A ; var a : A ; check b : A ;")
    assert e.value.diag.code == "UnboundVariable"


def test_definitions_inline():
    out = elab("""
    base A ;
    def emptyA : List A := nil A ;
    var a : A ;
    asserteq cons A a emptyA = cons A a (nil A) : List A ;
    """)
    ctx, names, lhs, rhs, ty, _ = out.asserts[0]
    assert lhs == rhs  # the definition inlines to the same normal form


def test_definition_type_mismatch():
    with pytest.raises(E.ElabError) as e:
        elab("base A ; base B ; def bad : List A := nil B ;")
    assert e.value.diag.code == "ClassifierMismatch"


def test_redefinition_rejected():
    with pytest.raises(E.ElabError) as e:
        elab("base A ; base A ;")
    assert e.value.diag.code == "Redefinition"


def test_conflicting_data_redeclaration_rejected():
    with pytest.raises(Exception):
        elab("data List (X : Ty+) { nil : List X }")


# -- round trips --------------------------------------------------------------


def roundtrip_exprs(path: str):
    out = elab(pathlib.Path(path).read_text(encoding="utf-8"))
    for ctx, names, lhs, rhs, ty, span in out.asserts:
        sc = _scope_at(out, ctx, names)
        for side in (lhs, rhs):
            printed = P.tm_string(ctx, side, names)
            again, _ = E.elab_expr_in(sc, printed)
            assert again == side, (path, span, printed)
    for ctx, names, tm, span in out.normalizes:
        sc = _scope_at(out, ctx, names)
        printed = P.tm_string(ctx, tm, names)
        again, _ = E.elab_expr_in(sc, printed)
        assert again == tm, (path, span, printed)


def _scope_at(out, ctx, names):
    sc = out.scope
    return E.Scope(sc.bases, sc.posts, sc.constructors, sc.defs,
                   ctx, tuple(names))


def test_roundtrip_casts_corpus():
    roundtrip_exprs("corpus/casts.adt")


def test_roundtrip_tree_corpus():
    roundtrip_exprs("corpus/tree.adt")


def test_roundtrip_data_declarations():
    for name in ("Nat", "List", "Vec", "Sum", "W", "Id"):
        d = desc(name)
        text = P.data_decl_string(d)
        out = elab(text)
        assert DESC_TABLE[name] == d
