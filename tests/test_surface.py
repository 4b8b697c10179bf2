"""Surface language: parsing, elaboration, positivity, round-trips."""

import pathlib

import pytest

import adaptt  # noqa: F401  (registers the stock datatypes)
from adaptt import surface as S, elaborate as E, pretty as P
from adaptt.surface import ParseError
from adaptt.syntax import desc, TyVarRef, Var
from adaptt.inductive import builtin_descs, data_decl_string
from test_session_memo import in_fresh_session

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
        assert desc(name) == d


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


@pytest.mark.parametrize("arg", [
    "(x : (X , X : Bad X ** X)) -> Bad X",
    "(x : (X <| Bad)) -> Bad X",
    "(x : (X <| Bad . id X)) -> Bad X",
    "(x : (X <| id Bad)) -> Bad X",
    "(x : (X <| List [[ Bad ]])) -> Bad X",
    "(x : List (y => Bad X)) -> Bad X",
    "(x : (fun (y : Bad X) => y) X) -> Bad X",
    "(x : fst Bad) -> Bad X",
    "(x : Bad X ** X) -> Bad X",
    "(x : X Bad) -> Bad X",
], ids=["pair-annotation", "cast", "composite", "id", "push", "family",
        "fun-domain", "fst", "star", "application"])
def test_positivity_rejected_in_every_surface_form(arg):
    # each form is reached only by walking that node's fields: the name
    # hides in one field of one form, and the datatype is named nowhere
    # else in the argument
    with pytest.raises(E.ElabError) as e:
        elab(f"data Bad (X : Ty+) {{ mk : {arg} }}")
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


def test_branching_arity_is_read_in_the_dual():
    # the arity is read in the dual context and an application argument
    # in the dual of that, so the covariant argument ``a`` may be a cast
    # subject inside an argument there, as the checker reads it
    elab("""
    base A ; base B ;
    postulate adapter f : A => B ;
    def g : B -> Nat := fun (b : B) => zero ;
    data Gated {
      stop : Gated ;
      gate : (a : A) (r : (y : Id Nat (g (a <| f)) zero) -> Gated) -> Gated
    }
    """)
    _, gate = desc("Gated").cons
    assert len(gate.nrec) == len(gate.rec) == 1


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


@pytest.mark.parametrize("text, name", [
    ("base Foo ;\ndata Foo { mk : Foo }\n", "Foo"),
    ("base mk ;\ndata Bar { mk : Bar }\n", "Bar"),
], ids=["datatype-name-taken", "constructor-name-taken"])
def test_a_rejected_data_declaration_is_not_registered(text, name):
    def rejected():
        with pytest.raises(E.ElabError) as e:
            elab(text)
        return e.value.diag.code
    code, session = in_fresh_session(rejected)
    assert code == "Redefinition"
    assert name not in session.descs


# -- round trips --------------------------------------------------------------


def roundtrip_exprs(path: str):
    out = elab(pathlib.Path(path).read_text(encoding="utf-8"))
    for ctx, names, lhs, rhs, ty, span in out.asserts:
        sc = E.Scope(ctx, names)
        for side in (lhs, rhs):
            printed = P.tm_string(names, side)
            again, _ = E.elab_expr_in(sc, printed)
            assert again == side, (path, span, printed)
    for ctx, names, tm, span in out.normalizes:
        sc = E.Scope(ctx, names)
        printed = P.tm_string(names, tm)
        again, _ = E.elab_expr_in(sc, printed)
        assert again == tm, (path, span, printed)


def test_roundtrip_casts_corpus():
    roundtrip_exprs("corpus/casts.adt")


def test_roundtrip_tree_corpus():
    roundtrip_exprs("corpus/tree.adt")


def test_roundtrip_data_declarations():
    for name in ("Nat", "List", "Vec", "Sum", "W", "Id"):
        d = desc(name)
        text = data_decl_string(d)
        out = elab(text)
        assert desc(name) == d


# -- component binders ---------------------------------------------------------

#: a family whose binder ranges over pairs: a pair adapter cast on the
#: binder must find its source in the entry's telescope
OVER_PAIRS = """base A ;
data P (Y : (p : (x : A) ** A) Ty+) { mk : P Y }
var t : P (p => Id ((x : A) ** A) p p) ;
"""


def check_text(tmp_path, text: str):
    import contextlib
    import io
    from adaptt import cli
    path = tmp_path / "t.adt"
    path.write_text(text, encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", str(path)])
    return code, buf.getvalue().replace(str(path), "t.adt").splitlines()


def test_family_binders_range_over_the_entry_telescope(tmp_path):
    # a parameter spine: the binder's type is the telescope at the prefix
    code, out = check_text(tmp_path, OVER_PAIRS + (
        "check mk (p => Id ((x : A) ** A) (p <| Sig [[ id A > id A ]]) p)"
        " : P (p => Id ((x : A) ** A) p p) ;\n"))
    assert out == ["checked t.adt: 1 datatypes, 1 checks, 0 equations"]
    assert code == 0


def test_adapter_component_binders_range_over_the_entry_telescope(tmp_path):
    # a push spine: the binder's type is the telescope at the prefix's
    # free-side endpoint
    code, out = check_text(tmp_path, OVER_PAIRS + (
        "normalize t <| P [[ p => Id [[ id ((x : A) ** A)"
        " > p <| Sig [[ id A > id A ]] > p ]] ]] ;\n"))
    assert out == [
        "NORMAL t <| P [[ x => Id [[ id (A ** A)"
        " > x <| Sig [[ id A > id A ]] > x ]] ]]",
        "checked t.adt: 1 datatypes, 0 checks, 0 equations"]
    assert code == 0
