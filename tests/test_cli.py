"""Command-line front end: exit statuses, output stability, tracing."""

import io
import json
import os
import contextlib
import subprocess
import sys

import pytest

import adaptt  # noqa: F401  (registers the stock datatypes)
from adaptt import cli
from test_trace_golden import COMMANDS


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_selftest_passes():
    code, out = run(["selftest"])
    assert code == 0
    assert out.count("OK") >= 12
    assert "FAIL" not in out


def test_check_good_file():
    code, out = run(["check", "corpus/casts.adt"])
    assert code == 0
    assert "checked corpus/casts.adt" in out


def test_check_type_error_exit_1():
    code, out = run(["check", "corpus/broken.adt"])
    assert code == 1
    assert "ERROR ClassifierMismatch" in out
    assert "expected B got A" in out


ENDO = "base A ;\npostulate adapter e : A => A ;\nvar a : A ;\n"


@pytest.mark.parametrize("lhs, rhs, ty, got", [
    ("cons A a (nil A) <| List [[ e ]]", "cons A a (nil A)", "List A",
     "cons A (a <| e) (nil A)"),
    ("vcons A a zero (vnil A) <| Vec [[ e > succ zero ]]",
     "vcons A a zero (vnil A)", "Vec A (succ zero)",
     "vcons A (a <| e) zero (vnil A)"),
    ("inl A A a <| Sum [[ e > e ]]", "inl A A a", "Sum A A",
     "inl A A (a <| e)"),
], ids=["List", "Vec", "Sum"])
def test_an_endo_cast_of_a_constructor_casts_its_arguments(
        lhs, rhs, ty, got, tmp_path):
    # source and target parameters agree, yet the cast is not the identity
    p = tmp_path / "endo.adt"
    p.write_text(f"{ENDO}asserteq {lhs} = {rhs} : {ty} ;\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert out.splitlines()[0] == (
        f"ERROR ConversionFailed {p}:4:1 expected {rhs} got {got}")


def test_parse_error_exit_2(tmp_path):
    p = tmp_path / "bad.adt"
    p.write_text("data List (X : Ty+")
    code, out = run(["check", str(p)])
    assert code == 2
    assert "ERROR Parse" in out


def test_a_diagnostic_at_the_first_character_is_placed(tmp_path):
    # offset 0 is a position like any other
    p = tmp_path / "first.adt"
    p.write_text("base Nat ;\nbase A ;\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert out == f"ERROR Redefinition {p}:1:1 name Nat is already in use\n"


def test_usage_error_exit_4():
    code, _ = run([])
    assert code == 4
    code, _ = run(["check", "no-such-file.adt"])
    assert code == 4


#: bindings files that are not JSON or not shaped like a binding
_BAD_BINDINGS = {"malformed-json": '{"types": ', "list": "[]",
                 "labels-not-a-list": '{"types": {"A": 3}}'}


@pytest.mark.parametrize("label", ["non-utf8", "directory", *_BAD_BINDINGS])
def test_unreadable_input_is_a_usage_diagnostic(label, tmp_path):
    if label == "non-utf8":
        path = tmp_path / "latin.adt"
        path.write_bytes("base \u00c5 ;\n".encode("latin-1"))
        argv, kind = ["check", str(path)], "Unreadable"
    elif label == "directory":
        argv, kind = ["check", str(tmp_path)], "Unreadable"
    else:
        path = tmp_path / "bindings.json"
        path.write_text(_BAD_BINDINGS[label])
        argv = ["model", "corpus/casts.adt", "--bindings", str(path)]
        kind = "Bindings"
    src = os.path.dirname(os.path.dirname(adaptt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "adaptt.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout.startswith(f"ERROR {kind} {argv[-1]} ")


def test_norm_evaluates_in_scope():
    code, out = run(["norm", "corpus/casts.adt", "-e",
                     "cons A a (nil A) <| List [[ g . f ]]"])
    assert code == 0
    assert "cons C (a <| f <| g) (nil C)" in out


def test_norm_kernel_error_in_the_expression_is_a_diagnostic():
    # the cast is rejected by the kernel while the expression elaborates:
    # a rendered diagnostic with exit 1, as for a declaration in the file
    code, out = run(["norm", "corpus/casts.adt", "-e", "nil A <| List [[ g ]]"])
    assert code == 1
    assert out == ("ERROR Kernel corpus/casts.adt "
                   "inductive cast parameter mismatch\n")


@pytest.mark.parametrize("expr, out", [
    ("zzz", "ERROR UnboundVariable -e:1:1 unknown term zzz\n"),
    ("((", "ERROR Parse -e:1:3 expected an expression, "
           "found 'end of input'\n"),
    ("h b'", "ERROR ClassifierMismatch -e:1:1 expected Nat got B "
             "(function argument has the wrong type)\n"),
    ("fst a", "ERROR ClassifierMismatch -e:1:1 expected a pair type got A "
              "(projection of a non-pair)\n"),
])
def test_norm_places_an_error_in_the_expression_text(expr, out):
    code, got = run(["norm", "corpus/casts.adt", "-e", expr])
    assert code == (2 if out.startswith("ERROR Parse") else 1)
    assert got == out


@pytest.mark.parametrize("argv", [["check", "corpus/casts.adt"],
                                  ["selftest"]])
def test_memory_exhaustion_is_a_resource_limit_diagnostic(argv, monkeypatch):
    # a stand-in handler raises it: memory is never really exhausted here
    def exhausted(args, src):
        raise MemoryError
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", exhausted)
    code, out = run(argv)
    assert code == 5
    assert out == (f"ERROR TooLarge {argv[-1]} "
                   "input too large for available memory\n")


def test_derive_of_an_unknown_datatype_is_a_usage_diagnostic():
    code, out = run(["derive", "corpus/prelude.adt", "Foo"])
    assert code == 4
    assert out == "ERROR UnknownDatatype corpus/prelude.adt Foo\n"


#: a contravariant variable ``c``: it may be a cast subject only where a
#: type former reads its argument in the dual context
_COVAR = ("base A ; base B ; postulate adapter f : A => B ; "
          "covar c : A ;\n")
_CAST_ID = "Id B (c <| f) (c <| f)"
#: ``W``'s branching family is contravariant, so its component is dual
_W = f"W A (x => {_CAST_ID})"


@pytest.mark.parametrize("decl", [
    f"covar d : {_CAST_ID} ;",
    f"var h : {_CAST_ID} -> Nat ;",
    f"check fun (x : {_CAST_ID}) => zero : {_CAST_ID} -> Nat ;",
    f"var w : {_W} ;",
    f"var w : {_W} ; check w <| W [[ id A > x => id ({_CAST_ID}) ]] : {_W} ;",
])
def test_a_dual_read_cast_subject_is_accepted(decl, tmp_path):
    p = tmp_path / "dual.adt"
    p.write_text(_COVAR + decl + "\n")
    code, out = run(["check", str(p)])
    assert code == 0, out


def test_a_wrong_domain_read_in_the_dual_is_a_mismatch(tmp_path):
    p = tmp_path / "dual.adt"
    p.write_text(_COVAR + "check fun (x : Id A c c) => zero "
                 f": {_CAST_ID} -> Nat ;\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert out == (f"ERROR ClassifierMismatch {p}:2:1 expected {_CAST_ID} "
                   "-> Nat got Id A c c -> Nat (check failed)\n")


#: a vector whose length is a variable, where ``vcons`` wants one of length
#: zero
_VEC = "base A ; var a : A ; var n : Nat ; var v : Vec A n ;\n"


@pytest.mark.parametrize("check", [
    "check vcons A a zero v : Vec A (succ zero) ;",
    "check fun (k : Nat) => vcons A a zero v : Nat -> Vec A (succ zero) ;",
], ids=["in_the_file_context", "under_a_binder"])
def test_a_kernel_mismatch_names_variables_as_the_file_does(check, tmp_path):
    p = tmp_path / "vec.adt"
    p.write_text(_VEC + check + "\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert out == (f"ERROR ClassifierMismatch {p}:2:1 expected Vec A zero got "
                   "Vec A n (instantiation component has the wrong type)\n")


def test_a_definition_mismatch_is_not_named_by_the_file_variables(tmp_path):
    # a definition is read over no context: its binders ``n`` and ``v``
    # dualize to a context equal to the file's ``m`` and ``w``, which must
    # not name them
    p = tmp_path / "def.adt"
    p.write_text("base A ; var m : Nat ; var w : Vec A m ;\n"
                 "def f : (n : Nat) -> (v : Vec A n) -> Id (Vec A zero) v v "
                 "-> Nat := fun (n : Nat) => fun (v : Vec A n) => "
                 "fun (e : Id (Vec A zero) v v) => zero ;\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert out == (f"ERROR ClassifierMismatch {p}:2:1 expected Vec A zero got "
                   "Vec A x (substitution component has the wrong type)\n")


_TWO_ADAPTERS = ("base A ; base B ; postulate adapter f : A => B ; "
                 "postulate adapter f2 : A => B ;\n")


@pytest.mark.parametrize("var, former, ty", [
    ("B -> A", "Pi [[ {} > id A ]]", "A -> A"),
    ("A -> A", "Pi [[ id A > {} ]]", "A -> B"),
    ("A ** A", "Sig [[ {} > id A ]]", "B ** A"),
    ("A ** A", "Sig [[ id A > {} ]]", "A ** B"),
], ids=["Pi_domain", "Pi_codomain", "Sig_first", "Sig_second"])
def test_function_and_pair_adapters_differing_in_one_component_are_not_equal(
        var, former, ty, tmp_path):
    # each equation is rejected only by the comparison of that component
    # in the conversion of atomic adapters
    p = tmp_path / "adapters.adt"
    lhs, rhs = (f"l <| List [[ {former.format(a)} ]]" for a in ("f", "f2"))
    p.write_text(f"{_TWO_ADAPTERS}var l : List ({var}) ;\n"
                 f"asserteq {lhs} = {rhs} : List ({ty}) ;\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert out.startswith(f"ERROR ConversionFailed {p}:3:1 "), out


@pytest.mark.parametrize("decls, lhs, rhs, ty", [
    ("var a : A ; var a2 : A ; var b : B ;",
     "(a, b : A ** B)", "(a2, b : A ** B)", "A ** B"),
    ("postulate adapter p : List A => List B ; var l : List A ;",
     "l <| p", "l <| List [[ f ]]", "List B"),
], ids=["pair_first", "postulate_against_datatype_adapter"])
def test_a_pair_or_an_adapter_differing_in_one_place_is_not_equal(
        decls, lhs, rhs, ty, tmp_path):
    # the first equation is rejected only by the comparison of the first
    # components under eta at a pair type, the second only by the rule
    # that atomic adapters of two shapes differ
    p = tmp_path / "near.adt"
    p.write_text(f"{_TWO_ADAPTERS}{decls}\nasserteq {lhs} = {rhs} : {ty} ;\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert out.startswith(f"ERROR ConversionFailed {p}:3:1 "), out


@pytest.mark.parametrize("lhs, rhs", [
    ("h zero", "h (succ zero)"),
    ("fst p", "fst p2"),
    ("snd p", "snd p2"),
], ids=["argument", "first_projection", "second_projection"])
def test_neutral_terms_with_one_head_and_different_arguments_are_not_equal(
        lhs, rhs, tmp_path):
    # each equation is rejected only where the comparison of two neutral
    # terms finds different arguments, or different pairs under a
    # projection
    p = tmp_path / "neutral.adt"
    p.write_text("base A ; var h : Nat -> A ; var p : A ** A ; "
                 f"var p2 : A ** A ;\nasserteq {lhs} = {rhs} : A ;\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert out.startswith(
        f"ERROR ConversionFailed {p}:2:1 expected {rhs} got {lhs}\n"), out


#: an equation whose sides are argument-less constructors at distinct but
#: convertible parameters (eta at a function type), a check whose types
#: differ only in a Pi codomain, and a family printed with its binder
_CONVERTIBLE = """base A ;
var f : A -> A ;
covar g : A -> A ;
var a : A ;
asserteq nil (Id (A -> A) f f) = nil (Id (A -> A) f (fun (y : A) => f y)) \
: List (Id (A -> A) f f) ;
check (fun (x : Id (A -> A) g g) => a) \
: (x : Id (A -> A) g (fun (y : A) => g y)) -> A ;
var w : W A (x => Id A x x -> A) ;
"""


def test_parameters_and_codomains_are_compared_by_conversion(tmp_path):
    p = tmp_path / "conv.adt"
    p.write_text(_CONVERTIBLE)
    assert run(["check", str(p)]) == (0, (
        f"OK asserteq {p}:5:1\n"
        f"checked {p}: 0 datatypes, 1 checks, 1 equations\n"))
    assert run(["norm", str(p), "-e", "w"]) == (
        0, "w\n: W A (x => Id A x x -> A)\n")


def test_model_exit_0_and_reports():
    code, out = run(["model", "corpus/casts.adt",
                     "--bindings", "corpus/bindings_small.json"])
    assert code == 0
    assert "0 disagreements" in out


def test_model_maps_a_branching_tree():
    # the one corpus model run whose casts map trees with a branching
    # argument; the open branch is a function out of Tree, so it is skipped
    code, out = run(["model", "corpus/tree.adt",
                     "--bindings", "corpus/bindings_small.json"])
    assert code == 0
    assert out == (
        "OK corpus/tree.adt:20:1 conv=True model=True\n"
        "SKIP corpus/tree.adt:21:1 unevaluable: SInd(desc='Tree')\n"
        "OK corpus/tree.adt:26:1 conv=True model=True\n"
        "model: 2 evaluated, 1 skipped, 0 disagreements\n")


def test_derive_byte_stable():
    code1, out1 = run(["derive", "corpus/prelude.adt", "List", "--json"])
    code2, out2 = run(["derive", "corpus/prelude.adt", "List", "--json"])
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert list(doc.keys()) == ["name", "params", "indices", "constructors",
                                "adapterRule", "computation"]
    assert doc["adapterRule"]["conclusion"] == \
        "List [[ f ]] : List A => List A'"


def test_derive_conclusion_for_w():
    code, out = run(["derive", "corpus/tree.adt", "W", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["adapterRule"]["premises"] == ["f : A => A'", "g : B' => B"]
    assert doc["adapterRule"]["conclusion"] == \
        "W [[ f > g ]] : W A B => W A' B'"


def _derive_json(tmp_path, decl, name):
    p = tmp_path / "d.adt"
    p.write_text(decl)
    code, out = run(["derive", str(p), name, "--json"])
    assert code == 0 and "Traceback" not in out, out
    return json.loads(out)


def test_derive_seven_type_parameters(tmp_path):
    params = " ".join(f"(X{i} : Ty+)" for i in range(7))
    head = "P " + " ".join(f"X{i}" for i in range(7))
    doc = _derive_json(tmp_path, f"data P {params} "
                       f"{{ mk : (x : X6) -> {head} }}", "P")
    rule = doc["adapterRule"]
    assert rule["premises"][5:] == ["q : F => F'", "f6 : G => G'"]
    assert rule["conclusion"] == \
        "P [[ f > g > h > k > p > q > f6 ]] : P A B C D E F G => " \
        "P A' B' C' D' E' F' G'"
    assert doc["computation"] == [{
        "lhs": "mk A B C D E F G x0 <| P [[ f > g > h > k > p > q > f6 ]]",
        "rhs": "mk A' B' C' D' E' F' G' (x0 <| f6)"}]


def test_derive_six_term_parameters_names_each_variable_once(tmp_path):
    params = " ".join(f"(n{i} : Nat)" for i in range(6))
    head = "Q " + " ".join(f"n{i}" for i in range(6))
    doc = _derive_json(tmp_path, f"data Q {params} [Nat] "
                       f"{{ mk : (m : Nat) -> {head} m }}", "Q")
    rule = doc["adapterRule"]
    assert rule["premises"] == [f"{v} : Nat" for v in "abcde"] + ["a5 : Nat"]
    # the conclusion, its index and the rows use the premises' names
    assert rule["conclusion"] == \
        "Q [[ a > b > c > d > e > a5 > i0 ]] : Q a b c d e a5 i0 => " \
        "Q a b c d e a5 i0"
    assert doc["computation"][0]["lhs"] == \
        "mk a b c d e a5 x0 <| Q [[ a > b > c > d > e > a5 > x0 ]]"


def test_derive_reads_each_premise_at_its_own_entry(tmp_path):
    # x and y have the same declared type, Vec X (Var 0), at different
    # positions: y's premise is read under m, not under n
    doc = _derive_json(tmp_path, "data P (X : Ty+) (n : Nat) (x : Vec X n) "
                       "(m : Nat) (y : Vec X m) { mk : P X n x m y }", "P")
    assert doc["adapterRule"]["premises"] == [
        "f : A => A'", "a : Nat", "b : Vec A a", "c : Nat", "d : Vec A c"]
    assert doc["adapterRule"]["conclusion"].endswith(
        "=> P A' a (b <| Vec [[ f > a ]]) c (d <| Vec [[ f > c ]])")


def test_derive_prints_a_term_parameter_with_its_type(tmp_path):
    code, out = run(["derive", "corpus/prelude.adt", "Id"])
    assert code == 0
    assert "\n  parameter x : X\n" in out
    assert "Ty+ over (X)" not in out
    code, out = run(["derive", "corpus/prelude.adt", "Id", "--json"])
    assert json.loads(out)["params"] == [
        {"name": "X", "dir": "+", "telescope": []},
        {"name": "x", "type": "X"}]
    p = tmp_path / "p.adt"
    p.write_text("data P (X : Ty+) (n : Nat) (x : Vec X n) (m : Nat) "
                 "(y : Vec X m) { mk : P X n x m y }")
    code, out = run(["derive", str(p), "P"])
    assert code == 0
    assert out.splitlines()[1:6] == [
        "  parameter X : Ty+ over -", "  parameter x : Nat",
        "  parameter y : Vec X x", "  parameter z : Nat",
        "  parameter u : Vec X z"]


#: one equation whose trace is about 690 bytes; 400 copies print more than
#: a pipe holds, so the command is still writing when its reader leaves
_CAST_EQUATION = ("asserteq cons A a (nil A) <| List [[ f ]] "
                  "= cons B (a <| f) (nil B) : List B ;\n")


@pytest.mark.parametrize("lines_read", [1, 0])
def test_closed_stdout_is_exit_1_without_traceback(lines_read, tmp_path):
    if lines_read:
        path = tmp_path / "long.adt"
        path.write_text("base A ; base B ; postulate adapter f : A => B ;\n"
                        "var a : A ;\n" + _CAST_EQUATION * 400)
        argv = ["--trace", "check", str(path)]
    else:
        argv = ["check", "corpus/prelude.adt"]
    src = os.path.dirname(os.path.dirname(adaptt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.Popen([sys.executable, "-m", "adaptt.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    for _ in range(lines_read):
        assert proc.stdout.readline().startswith(b"RULE ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert err == b""


@pytest.mark.parametrize("unbuffered", [False, True])
def test_bare_command_into_a_closed_pipe_is_exit_4_without_stderr(unbuffered):
    # the help text of a bare ``adaptt`` meets a pipe whose reader is gone
    src = os.path.dirname(os.path.dirname(adaptt.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "adaptt.cli"],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 4
    assert proc.stderr == b""


def test_trace_flag_emits_rule_lines():
    code, out = run(["--trace", "norm", "corpus/casts.adt", "-e",
                     "a <| g . f"])
    assert code == 0
    assert any(line.startswith("RULE ") and " AT " in line
               for line in out.splitlines())


_RUN_ALL = """
import contextlib, io, json, sys
from adaptt import cli
outs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    outs.append([code, buf.getvalue()])
print(json.dumps(outs))
"""


def in_fresh_interpreter(argvs):
    """``[code, stdout]`` of each ``cli.main(argv)``, run in order in one
    new interpreter."""
    src = os.path.dirname(os.path.dirname(adaptt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout)


def test_trace_does_not_depend_on_process_history():
    # a fresh interpreter, so the first run of each command sees cold
    # caches; cached kernel computations replay their rule notes, so the
    # second run prints the same trace
    argvs = [["--trace", "check", f"corpus/{name}.adt"]
             for name in ("casts", "prelude", "tree", "broken")]
    argvs += [["--trace", *argv] for argv in COMMANDS.values()
              if argv[0] != "check"]
    outs = in_fresh_interpreter([argv for argv in argvs for _ in range(2)])
    for k, argv in enumerate(argvs):
        first, second = outs[2 * k], outs[2 * k + 1]
        assert first == second, argv
        assert first == list(run(argv)), argv


def test_redefining_a_stock_datatype_is_a_diagnostic(tmp_path):
    p = tmp_path / "list.adt"
    p.write_text("data List (X : Ty+) {\n  nil : List X\n}\n")
    code, out = run(["check", str(p)])
    assert code == 1
    assert out == (f"ERROR Redefinition {p}:1:1 datatype List is already "
                   f"defined differently\n")


#: per file: the constructors of its own ``Box``, and a ``Box A`` cell
#: with its cast along ``f``; both files declare the same ``Foo`` over it
_BOXES = {
    "c1.adt": ("box : (x : X) -> Box X", "box A a", "box B (a <| f)"),
    "c2.adt": ("empty : Box X ;\n  two : (x : X) (y : X) -> Box X",
               "two A a a", "two B (a <| f) (a <| f)"),
}


def test_checking_a_file_does_not_depend_on_earlier_files(tmp_path):
    # the memoized casts of Foo's constructor are shared by both files;
    # the datatype table is not
    argvs = []
    for name, (cons, cell, cast_cell) in _BOXES.items():
        path = tmp_path / name
        path.write_text(
            "base A ;\nbase B ;\npostulate adapter f : A => B ;\n"
            "var a : A ;\n\n"
            f"data Box (X : Ty+) {{\n  {cons}\n}}\n\n"
            "data Foo (X : Ty+) {\n  foo : (b : Box X) -> Foo X\n}\n\n"
            f"asserteq foo A ({cell}) <| Foo [[ f ]] = foo B ({cast_cell}) "
            ": Foo B ;\n")
        argvs.append(["--trace", "check", str(path)])
    fresh = [in_fresh_interpreter([argv])[0] for argv in argvs]
    assert [code for code, _ in fresh] == [0, 0]
    assert in_fresh_interpreter(argvs * 2) == fresh * 2


def test_normalizing_in_a_file_does_not_depend_on_earlier_files(tmp_path):
    # ``nf`` returns a node it has normalized before as is, whichever file
    # normalized it; the two files give Box different constructors
    argvs = []
    for name, (cons, cell, _) in _BOXES.items():
        path = tmp_path / name
        path.write_text(
            "base A ;\nbase B ;\npostulate adapter f : A => B ;\n"
            "var a : A ;\n\n"
            f"data Box (X : Ty+) {{\n  {cons}\n}}\n\n"
            f"normalize {cell} ;\nnormalize {cell} <| Box [[ f ]] ;\n")
        argvs.append(["--trace", "check", str(path)])
    fresh = [in_fresh_interpreter([argv])[0] for argv in argvs]
    assert [code for code, _ in fresh] == [0, 0]
    assert all("RULE CAST_CONSTR" in out for _, out in fresh)
    for order, want in ((argvs, fresh), (argvs[::-1], fresh[::-1])):
        assert in_fresh_interpreter(order * 2) == want * 2


# -- names: one table, the innermost binder of a sort wins --------------------


def _check_file(tmp_path, text, command="check", *rest):
    p = tmp_path / "names.adt"
    p.write_text(text)
    code, out = run([command, str(p), *rest])
    return p, code, out


def test_a_variable_shadows_a_constructor_bare_and_applied(tmp_path):
    # `one` is the constructor applied; the `succ` of the equation is the
    # variable, so the equation is false
    p, code, out = _check_file(
        tmp_path, "def one : Nat := succ zero ;\nvar succ : Nat -> Nat ;\n"
        "asserteq succ zero = one : Nat ;\n")
    assert code == 1
    assert out.startswith(f"ERROR ConversionFailed {p}:3:1 "), out


def test_an_applied_variable_named_like_a_constructor_is_the_variable(
        tmp_path):
    _, code, out = _check_file(
        tmp_path, "var nil : Nat -> Nat ;\ncheck nil zero : Nat ;\n")
    assert code == 0, out


def test_a_term_binder_does_not_shadow_a_type_name(tmp_path):
    _, code, out = _check_file(
        tmp_path, "base A ;\nvar A : Nat ;\nvar a : A ;\ncheck a : A ;\n")
    assert code == 0, out


_BOX_PARAM = ("base A ;\nbase B ;\nvar b : B ;\n"
              "data Box (A : Ty+) { box : (y : A) -> Box A }\n")


def test_a_datatype_parameter_shadows_a_base_of_its_name(tmp_path):
    _, code, out = _check_file(tmp_path,
                               _BOX_PARAM + "check box B b : Box B ;\n")
    assert code == 0, out
    _, code, out = _check_file(tmp_path, _BOX_PARAM, "derive", "Box")
    assert code == 0
    assert "    == box A' (x0 <| f)\n" in out


@pytest.mark.parametrize("text, pos, name", [
    ("base Foo ;\ndata Foo { mk : Foo }\n", "2:1", "Foo"),
    ("def mk : Nat := zero ;\ndata Foo { mk : Foo }\n", "2:1", "mk"),
    ("data Foo { mk : Foo }\nbase mk ;\n", "2:1", "mk"),
    ("data Foo { Foo : Foo }\n", "1:1", "Foo"),
], ids=["base-then-data", "def-then-constructor", "constructor-then-base",
        "constructor-named-like-its-datatype"])
def test_file_level_names_share_one_namespace(text, pos, name, tmp_path):
    p, code, out = _check_file(tmp_path, text)
    assert code == 1
    assert out == (f"ERROR Redefinition {p}:{pos} name {name} is already "
                   "in use\n")


#: one program per diagnostic guard of the elaborator, with its
#: ``code LINE:COL message``
_ELAB_GUARDS = {
    "type-head": ("var x : (fun (y : Nat) => y) zero ;",
                  "Syntax 1:9 expected a type head"),
    "type": ("var x : fun (y : Nat) => y ;", "Syntax 1:9 expected a type"),
    "base-arity": ("base A ;\nvar x : A zero ;",
                   "ArityMismatch 2:9 base type A takes no arguments"),
    "datatype-arity": ("var x : List ;",
                       "ArityMismatch 1:9 List expects 1 arguments, got 0"),
    "type-variable-arity": (
        "data D (X : Ty+) { mk : (x : X zero) -> D X }",
        "ArityMismatch 1:30 type variable X expects 0 arguments"),
    "unknown-type": ("var x : Foo ;", "UnboundVariable 1:9 unknown type Foo"),
    "family-binders": ("var x : List (a b => Nat) ;",
                       "ArityMismatch 1:14 family binds 2 of 0 variables"),
    "family-arity": (
        "data D (F : (n : Nat) Ty+) { mk : (x : List F) -> D F }",
        "ArityMismatch 1:45 type variable F has the wrong arity"),
    "pair-annotation": ("check (zero, zero : Nat) : Nat ;",
                        "ClassifierMismatch 1:7 pair annotation must be a "
                        "pair type"),
    "term": ("check Nat -> Nat : Nat ;", "Syntax 1:7 expected a term"),
    "constructor-arity": ("check succ : Nat ;",
                          "ArityMismatch 1:7 constructor succ expects 1 "
                          "arguments, got 0"),
    "unknown-term": ("check zz : Nat ;",
                     "UnboundVariable 1:7 unknown term zz"),
    "bare-id": ("check nil Nat <| List [[ id ]] : List Nat ;",
                "Syntax 1:26 bare id needs a type; write `id A` here"),
    "unknown-adapter": ("check zero <| g : Nat ;",
                        "UnboundVariable 1:15 unknown adapter g"),
    "adapter": ("check zero <| (zero, zero : Nat ** Nat) : Nat ;",
                "Syntax 1:15 expected an adapter"),
    "adapter-former": ("check zero <| (id Nat) [[ id Nat ]] : Nat ;",
                       "Syntax 1:24 expected a named adapter former"),
    "unknown-datatype": ("check zero <| Foo [[ ]] : Nat ;",
                         "UnboundVariable 1:19 unknown datatype Foo"),
    "datatype-adapter-arity": (
        "check nil Nat <| List [[ id Nat > id Nat ]] : List Nat ;",
        "ArityMismatch 1:23 List adapter expects 1 components"),
    "term-component-binders": (
        "var v : Vec Nat zero ;\n"
        "check v <| Vec [[ id Nat > x => zero ]] : Vec Nat zero ;",
        "Syntax 2:28 term component cannot bind variables"),
    "component-binders": (
        "check nil Nat <| List [[ x y => id Nat ]] : List Nat ;",
        "ArityMismatch 1:26 component binds 2 of 0 variables"),
    "pi-arity": ("var f : Nat -> Nat ;\n"
                 "check f <| Pi [[ id Nat ]] : Nat -> Nat ;",
                 "ArityMismatch 2:15 Pi adapter takes two components"),
    "pi-first-binders": (
        "var f : Nat -> Nat ;\n"
        "check f <| Pi [[ x => id Nat > id Nat ]] : Nat -> Nat ;",
        "Syntax 2:18 first component cannot bind variables"),
    "pi-second-binders": (
        "var f : Nat -> Nat ;\n"
        "check f <| Pi [[ id Nat > x y => id Nat ]] : Nat -> Nat ;",
        "ArityMismatch 2:27 second component binds one variable"),
    "pi-source": (
        "check nil Nat <| List [[ Pi [[ id Nat > x => id (Vec Nat x) ]] ]] "
        ": List Nat ;",
        "Syntax 1:29 cannot infer the source of this function adapter; "
        "cast position provides it"),
    "sig-source": (
        "var p : Nat ** Nat ;\n"
        "check p <| Sig [[ id (List Nat) > id Nat ]] : Nat ** Nat ;",
        "ClassifierMismatch 2:16 pair adapter source mismatch"),
    "sig-target": (
        "var p : (n : Nat) ** Vec Nat n ;\n"
        "check p <| Sig [[ id Nat > x => id (Vec Nat x) ]] "
        ": (n : Nat) ** Vec Nat n ;",
        "Syntax 2:16 cannot infer the target of this pair adapter"),
    "non-recursive-after-recursive": (
        "data D { mk : (d : D) (n : Nat) -> D }",
        "IllFormedDescription 1:10 non-recursive arguments must precede "
        "recursive ones"),
    "constructor-result": ("data D { mk : Nat }",
                           "IllFormedDescription 1:10 constructor mk must "
                           "build D"),
    "recursive-arity": ("data D { mk : D zero }",
                        "ArityMismatch 1:10 D expects 0 arguments here"),
    "recursive-parameters": (
        "data D (X : Ty+) { mk : D Nat }",
        "IllFormedDescription 1:20 parameters of recursive occurrences must "
        "be the declared parameters, in order"),
}


@pytest.mark.parametrize("program, diagnostic", _ELAB_GUARDS.values(),
                         ids=_ELAB_GUARDS.keys())
def test_each_elaborator_guard_is_a_placed_diagnostic(program, diagnostic,
                                                     tmp_path):
    p, code, out = _check_file(tmp_path, program + "\n")
    kind, pos, message = diagnostic.split(" ", 2)
    assert code == 1
    assert out == f"ERROR {kind} {p}:{pos} {message}\n"
