"""Conversion on neutral terms: a cast tower is compared as the composite
of its links, so the functor laws of the derived adapters hold on a
variable as they do on constructor trees; applications and projections
compare spine by spine; types compare under binders and type variables.
The surface programs run through ``adaptt check``."""

import contextlib
import io

import adaptt  # noqa: F401  (registers the stock datatypes)
from adaptt import cli
from adaptt.normalize import conv_ty
from adaptt.syntax import (
    POS, TmEntry, TyEntry, Base, TyVarRef, Pi, Sig, Var, Lam, App,
    shift,
)

HEADER = """base A ;
base B ;
base C ;
postulate adapter f : A => B ;
postulate adapter g : B => C ;
postulate adapter k : B => C ;
var l : List A ;
var m : List A ;
var v : Vec A (succ zero) ;
var s : Sum A B ;
"""

#: the functor laws on variables: identity and composition, per former
LAWS = [
    "asserteq l <| List [[ id A ]] = l : List A ;",
    "asserteq (l <| List [[ f ]]) <| List [[ g ]] = l <| List [[ g . f ]]"
    " : List C ;",
    "asserteq v <| Vec [[ id A > succ zero ]] = v : Vec A (succ zero) ;",
    "asserteq (v <| Vec [[ f > succ zero ]]) <| Vec [[ g > succ zero ]]"
    " = v <| Vec [[ g . f > succ zero ]] : Vec C (succ zero) ;",
    "asserteq s <| Sum [[ id A > id B ]] = s : Sum A B ;",
    "asserteq (s <| Sum [[ f > id B ]]) <| Sum [[ g > k ]]"
    " = s <| Sum [[ g . f > k ]] : Sum C C ;",
]

#: towers that differ in a link or in the subject, with the printout
MISMATCHED = {
    "asserteq (l <| List [[ f ]]) <| List [[ k ]] = l <| List [[ g . f ]]"
    " : List C ;":
        "expected l <| List [[ g . f ]] got l <| List [[ f ]] <| List [[ k ]]",
    "asserteq (l <| List [[ f ]]) <| List [[ g ]] = m <| List [[ g . f ]]"
    " : List C ;":
        "expected m <| List [[ g . f ]] got l <| List [[ f ]] <| List [[ g ]]",
    "asserteq l <| List [[ f ]] = l <| List [[ g . f ]] : List C ;": None,
    "asserteq (s <| Sum [[ f > id B ]]) <| Sum [[ g > k ]]"
    " = s <| Sum [[ k . f > k ]] : Sum C C ;":
        "expected s <| Sum [[ k . f > k ]] "
        "got s <| Sum [[ f > id B ]] <| Sum [[ g > k ]]",
}


def check(tmp_path, text: str):
    path = tmp_path / "t.adt"
    path.write_text(text, encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", str(path)])
    return code, buf.getvalue().replace(str(path), "t.adt").splitlines()


def test_functor_laws_hold_on_neutral_casts(tmp_path):
    code, out = check(tmp_path, HEADER + "\n".join(LAWS) + "\n")
    first = HEADER.count("\n") + 1
    assert out == [f"OK asserteq t.adt:{first + i}:1" for i in range(len(LAWS))
                   ] + [f"checked t.adt: 0 datatypes, 0 checks, "
                        f"{len(LAWS)} equations"]
    assert code == 0


def test_mismatched_towers_still_fail(tmp_path):
    for row, printed in MISMATCHED.items():
        code, out = check(tmp_path, HEADER + row + "\n")
        assert code == 1, row
        line = HEADER.count("\n") + 1
        if printed is None:     # the two sides do not even share a type
            assert out[0].startswith(f"ERROR ClassifierMismatch t.adt:{line}:1")
        else:
            assert out[0] == f"ERROR ConversionFailed t.adt:{line}:1 {printed}"


def test_applications_and_projections_compare_argument_by_argument(tmp_path):
    # at a pair type conversion compares the projections, which reach
    # the two applications; their arguments differ only by eta
    text = ("base A ; base B ;\n"
            "covar h : A -> B ;\n"
            "var q : (A -> B) -> A ** B ;\n"
            "asserteq q h = q (fun (x : A) => h x) : A ** B ;\n"
            "asserteq fst (q h) = fst (q (fun (x : A) => h x)) : A ;\n"
            "asserteq snd (q h) = snd (q (fun (x : A) => h x)) : B ;\n")
    code, out = check(tmp_path, text)
    assert out[:3] == [f"OK asserteq t.adt:{n}:1" for n in (4, 5, 6)]
    assert code == 0


def test_the_two_projections_of_a_neutral_pair_differ(tmp_path):
    # fst p and snd p share their type and subject, not their projection
    for lhs, rhs in (("fst p", "snd p"), ("snd p", "fst p")):
        text = f"base A ; var p : A ** A ;\nasserteq {lhs} = {rhs} : A ;\n"
        code, out = check(tmp_path, text)
        assert out == [f"ERROR ConversionFailed t.adt:2:1 expected {rhs} "
                       f"got {lhs}",
                       "checked t.adt: 0 datatypes, 0 checks, 1 equations"]
        assert code == 1


def test_each_projection_of_a_neutral_pair_has_its_own_type(tmp_path):
    # the function type is q's second component and r's first: each
    # projection must read its own component's type for the two arguments,
    # which differ only by eta, to be compared at A -> A
    text = ("base A ; base B ; covar f : A -> A ;"
            " var q : A ** ((A -> A) -> B) ; var r : ((A -> A) -> B) ** A ;\n"
            "asserteq snd q f = snd q (fun (x : A) => f x) : B ;\n"
            "asserteq fst r f = fst r (fun (x : A) => f x) : B ;\n")
    code, out = check(tmp_path, text)
    assert out == ["OK asserteq t.adt:2:1", "OK asserteq t.adt:3:1",
                   "checked t.adt: 0 datatypes, 0 checks, 2 equations"]
    assert code == 0


def test_pair_types_compare_componentwise(tmp_path):
    # the declared and inferred types differ by an eta step inside the
    # second component
    text = ("base A ; base B ;\n"
            "var h : A -> B ;\n"
            "var p : (x : A) ** Id (A -> B) h h ;\n"
            "check p : (x : A) ** Id (A -> B) (fun (y : A) => h y) h ;\n")
    code, out = check(tmp_path, text)
    assert out == ["checked t.adt: 0 datatypes, 1 checks, 0 equations"]
    assert code == 0


def test_pair_adapter_in_cast_position(tmp_path):
    text = ("base A ; base B ; base C ;\n"
            "postulate adapter f : A => B ;\n"
            "postulate adapter g : B => C ;\n"
            "var p : A ** B ;\n"
            "asserteq fst (p <| Sig [[ f > g ]]) = fst p <| f : B ;\n"
            "asserteq snd (p <| Sig [[ f > g ]]) = snd p <| g : C ;\n")
    code, out = check(tmp_path, text)
    assert out[:2] == ["OK asserteq t.adt:5:1", "OK asserteq t.adt:6:1"]
    assert code == 0


def test_type_variable_instances_compare_up_to_eta():
    # (X : (h : A -> B) Ty+) |> (h : A -> B) |> (h2 : A -> B):
    # X h == X (\x. h x), and X h is not X h2
    fn = Pi(Base("A"), Base("B"))
    ctx = (TyEntry(POS, POS, (fn,)), TmEntry(POS, fn), TmEntry(POS, fn))
    x_h = TyVarRef(0, (Var(1),))
    x_eta = TyVarRef(0, (Lam(Base("A"), App(Var(2), Var(0))),))
    assert x_h is not x_eta
    assert conv_ty(ctx, x_h, x_eta)
    assert not conv_ty(ctx, x_h, TyVarRef(0, (Var(0),)))
    # and under a pair type's binder
    assert conv_ty(ctx, Sig(Base("A"), shift(x_h, 1, 0)),
                   Sig(Base("A"), shift(x_eta, 1, 0)))
    assert not conv_ty(ctx, Sig(Base("A"), Base("B")),
                       Sig(Base("B"), Base("B")))
