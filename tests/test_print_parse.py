"""Print, then parse: for random normal kernel terms over the
generators' ambient context, ``pretty.tm_string`` followed by
``elaborate.elab_expr_in`` gives back the same interned term, at a type
that is normal too, as everything elaboration returns is."""

import pytest
from hypothesis import example, given, settings, strategies as st

from adaptt import surface as S, elaborate as E, pretty as P
from adaptt.inductive import nat, nat_zero
from adaptt.normalize import assert_normal, nf
from adaptt.syntax import Base, Cast, Ind, Lam, Pair, Pi, Sig, Sub, STy, shift

from gen import AMBIENT, AMBIENT_NAMES, BASES, Gen, path_adapter, pos_var

HEADER = """
base A ; base B ; base C ;
postulate adapter f : A => B ;
postulate adapter g : B => C ;
postulate adapter h : C => A ;
var a : A ; var b : B ; var c : C ;
covar na : A ; covar nb : B ; covar nc : C ;
"""


def _scope():
    sc = E.elab_file(S.parse(HEADER)).scope
    assert sc.ctx == AMBIENT and sc.names.tm[::-1] == tuple(AMBIENT_NAMES)
    return sc


SCOPE = _scope()

bases = st.sampled_from(BASES)


def closed_types(depth: int):
    """Closed types over the ambient context, built from the stock
    formers and function types with an enumerable domain."""
    leaf = st.one_of(bases.map(Base), st.just(nat()))
    if depth <= 0:
        return leaf
    sub = closed_types(depth - 1)
    return st.one_of(
        leaf,
        sub.map(lambda t: Ind("List", Sub((STy(t, 0),)), ())),
        st.tuples(sub, sub).map(
            lambda p: Ind("Sum", Sub((STy(p[0], 0), STy(p[1], 0))), ())),
        st.tuples(sub, sub).map(lambda p: Sig(p[0], shift(p[1], 1, 0))),
        st.tuples(bases, sub).map(
            lambda p: Pi(Base(p[0]), shift(p[1], 1, 0))),
    )


@st.composite
def terms(draw):
    """The normal form of a canonical term of a random type, or of a
    variable cast along the adapter cycle."""
    if draw(st.integers(0, 3)) == 0:
        src, tgt = draw(bases), draw(bases)
        ad = path_adapter(src, tgt)
        var = pos_var(src)
        tm = var if src == tgt else Cast(var, ad)
    else:
        ty = draw(closed_types(2))
        gen = Gen(draw(st.integers(0, 2**16)))
        tm = gen.tm_of(ty, draw(st.integers(0, 3)))
    return nf(tm).value


# at least 150 examples, and the whole budget of a larger profile
@settings(max_examples=max(150, settings.default.max_examples), deadline=None)
@given(terms())
# a function type to the right of a plain ``**`` must be parenthesized
@example(Pair(Sig(nat(), Pi(Base("A"), nat())), nat_zero(),
              Lam(Base("A"), nat_zero())))
def test_printed_term_parses_back_to_itself(tm):
    printed = P.tm_string(SCOPE.names, tm)
    again, ty = E.elab_expr_in(SCOPE, printed)
    assert again is tm, printed
    assert nf(ty).value is ty
    assert_normal(ty)


#: the ambient scope with a pair and a list variable, for the printer
#: cases random canonical terms do not reach
EXTRA_SCOPE = E.elab_file(S.parse(
    HEADER + "var p : A ** B ;\nvar l : List A ;\n")).scope

#: source text, and how it prints: projections, adapters inside a
#: component (a pair adapter, a chain, an identity) and dependent types
PRINTED = {
    "fst p": "fst p",
    "snd p": "snd p",
    "p <| Sig [[ f > g ]]": "p <| Sig [[ f > g ]]",
    "l <| List [[ g . f ]]": "l <| List [[ g . f ]]",
    "l <| List [[ id A ]]": "l <| List [[ id A ]]",
    "fun (r : (n : Nat) -> Vec A n -> B) => a":
        "fun (x : (x : Nat) -> Vec A x -> B) => a",
    "(zero , vnil A : (n : Nat) ** Vec A n)":
        "(zero , vnil A : (x : Nat) ** Vec A x)",
    # a family argument that ignores its binder prints as its bare body,
    # parenthesized as an argument
    "fun (r : W A (x => List B)) => a": "fun (x : W A (List B)) => a",
    "fun (r : W A (x => B)) => a": "fun (x : W A B) => a",
    "fun (r : W A (x => Id A x x -> B)) => a":
        "fun (x : W A (x => Id A x x -> B)) => a",
}


@pytest.mark.parametrize("text", PRINTED)
def test_printer_cases_parse_back(text):
    tm, _ = E.elab_expr_in(EXTRA_SCOPE, text)
    printed = P.tm_string(EXTRA_SCOPE.names, tm)
    assert printed == PRINTED[text]
    again, _ = E.elab_expr_in(EXTRA_SCOPE, printed)
    assert again is tm
