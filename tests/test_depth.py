"""Deep inputs at the stock recursion limit.

A generated ``surface_scale`` file nests one parenthesis per list cell,
so its cell count is its nesting depth.  At 256 and 400 cells the file
must parse, elaborate, check and print exactly the verdicts its
generator knows by construction, and at 480 cells ``model`` must give its
verdict; at 600 cells, past what the parser
reads at the stock limit (it recurses once per parenthesis, and gives up
near 490 cells), it must print a ``TooDeep`` diagnostic and exit 5.

Every layer after the parser takes a constructor's last argument in the
same frame: the elaborator, type inference (``check.infer_tm``), the
kernel's cast, ``nf`` and conversion, and the printer.  So spines of
thousands of cells built directly pass through each of them, every
per-cell check still fires at the innermost cell with the diagnostic it
gives on a short spine, and the rules they report keep the order of the
recursive reading."""

import contextlib
import hashlib
import io
import os
import pathlib
import random
import subprocess
import sys
import tempfile
from collections import Counter

import pytest

from adaptt import cli
from adaptt import surface as S
from adaptt.check import CheckError, infer_tm
from adaptt.elaborate import ElabError, elab_file, elab_tm
from adaptt.inductive import (
    generic_rows, generic_setup, ind_adapter, nat_succ, nat_zero, register,
    tree_desc,
)
from adaptt.normalize import KernelError, cast, conv_tm, nf
from adaptt.pretty import Names, tm_string
from adaptt.syntax import (
    POS, SESSION, Base, Cast, Con, Ind, IndAd, Post, Sub, STy, TmEntry,
    Trans, KAd, TyEntry, TyVarRef, Var, desc,
)
from adaptt.transform import trans_source, trans_target
from perfbench import gen
from perfbench.gen import surface_file
from test_session_memo import in_fresh_session, traced

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_256_cell_surface_file_checks(tmp_path):
    sf = surface_file(random.Random(1), 256)
    path = tmp_path / "deep.adt"
    path.write_text(sf.text, encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", str(path)])
    assert code == sf.expected_exit
    assert buf.getvalue().splitlines() == [
        line.format(path=path) for line in sf.expected_lines]


def test_400_cell_surface_file_checks(tmp_path):
    # past what the elaborator and the checker read when they recursed
    # once per cell (320 cells)
    sf = surface_file(random.Random(1), 400)
    path = tmp_path / "deep.adt"
    path.write_text(sf.text, encoding="utf-8")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", str(path)])
    assert code == sf.expected_exit
    assert buf.getvalue().splitlines() == [
        line.format(path=path) for line in sf.expected_lines]


def test_480_cell_surface_file_gets_its_model_verdict(tmp_path):
    # past what the set-model oracle read when it compiled, ran and
    # compared a constructor's arguments through generator expressions
    # (328 cells); in a process of its own, as the test runner's frames
    # would take part of the stock limit
    path = tmp_path / "deep.adt"
    path.write_text(surface_file(random.Random(1), 480).text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "adaptt.cli", "model", str(path),
         "--bindings", str(ROOT / "corpus" / "bindings_small.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == (
        "model: 2 evaluated, 1 skipped, 0 disagreements")


def test_600_cell_surface_file_is_a_too_deep_diagnostic(tmp_path):
    # past the stock recursion limit: a rendered diagnostic with its own
    # exit code, not a traceback
    path = tmp_path / "deeper.adt"
    path.write_text(surface_file(random.Random(1), 600).text, encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "adaptt.cli", "check",
                           str(path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 5
    assert "Traceback" not in proc.stdout + proc.stderr
    assert proc.stdout == f"ERROR TooDeep {path} input nested too deeply\n"


# -- constructor spines in the kernel ----------------------------------------

DEEP = 5000
#: the outermost variable of ``gen.KERNEL_CTX``, of type A
A_VAR = Var(len(gen.KERNEL_CTX) - 1)


@pytest.fixture(scope="module")
def deep():
    return gen.kernel_case(random.Random(0), DEEP)


def test_a_deep_list_casts(deep):
    assert cast(deep.src, deep.ad) is deep.cast_expected


def test_a_deep_list_normalizes(deep):
    assert nf(Cast(deep.src, deep.ad)).value is deep.cast_expected


def test_deep_lists_equal_up_to_eta_convert(deep):
    ty = gen.list_ty(gen.FUN_A)
    assert conv_tm(gen.KERNEL_CTX, ty, deep.fun_lhs, deep.fun_rhs) is True


def test_deep_lists_differing_in_the_innermost_head_do_not_convert(deep):
    ty = gen.list_ty(gen.A)
    assert conv_tm(gen.KERNEL_CTX, ty, deep.near_lhs, deep.near_rhs) is False


def test_a_deep_numeral_does_not_convert_to_its_successor():
    n = nat_zero()
    for _ in range(DEEP):
        n = nat_succ(n)
    assert conv_tm((), gen.NAT, n, nat_succ(n)) is False


def test_deep_lists_differing_in_the_innermost_tag_do_not_convert():
    # the same heads, one more cell: nil meets cons at the innermost cell
    lhs = gen.list_of(gen.A, [A_VAR] * DEEP)
    rhs = gen.list_of(gen.A, [A_VAR] * (DEEP + 1))
    assert conv_tm(gen.KERNEL_CTX, gen.list_ty(gen.A), lhs, rhs) is False


def test_a_cold_endpoint_of_600_entries_is_read_in_one_frame():
    # in a fresh session no prefix's endpoint is kept, so each endpoint is
    # read entry by entry: type entries, and term entries typed by the
    # type entry before them, whose target is their cast along its adapter
    ctx, comps, src, tgt = [], [], [], []
    for k in range(300):
        a, b = Base(f"A{k}"), Base(f"B{k}")
        f = Post(f"f{k}", a, b)
        ctx += [TyEntry(POS, POS, ()), TmEntry(POS, TyVarRef(0, ()))]
        comps += [KAd(f, b, 0), Var(0)]
        src += [STy(a, 0), Var(0)]
        tgt += [STy(b, 0), Cast(Var(0), f)]
    ctx, tr = tuple(ctx), Trans(tuple(comps))
    ends, _ = in_fresh_session(
        lambda: (trans_source(ctx, tr), trans_target(ctx, tr)))
    assert ends == (Sub(tuple(src)), Sub(tuple(tgt)))


def test_the_parameter_check_fires_at_the_innermost_cell(deep):
    # the innermost nil is at B, every cell above it at A
    out = gen.nil(gen.B)
    for _ in range(DEEP - 1):
        out = gen.cons(gen.A, A_VAR, out)
    with pytest.raises(KernelError, match="inductive cast parameter mismatch"):
        cast(out, deep.ad)


def test_the_index_check_fires_at_the_innermost_cell():
    # each vcons claims its tail one longer than it is, so every cell but
    # the innermost agrees with the one above it
    params = Sub((STy(gen.A, 0),))
    out, length = Con("Vec", 0, params, ()), nat_succ(nat_zero())
    for _ in range(DEEP):
        out = Con("Vec", 1, params, (Var(0), length, out))
        length = nat_succ(length)
    ad = ind_adapter("Vec", Trans((KAd(gen.STEP["A"], gen.B, 0),)), (length,))
    with pytest.raises(KernelError, match="inductive cast index mismatch"):
        cast(out, ad)


# -- constructor spines in inference, elaboration and printing ---------------


def vec_of(n, innermost_length):
    """An ``n``-cell ``Vec A`` of ``A_VAR``s whose innermost ``vcons``
    claims a tail of ``innermost_length``; each cell above claims the
    length of the cell below it."""
    params = Sub((STy(gen.A, 0),))
    out, length = Con("Vec", 0, params, ()), innermost_length
    for _ in range(n):
        out = Con("Vec", 1, params, (A_VAR, length, out))
        length = nat_succ(length)
    return out


def inference_failure(tm):
    with pytest.raises(CheckError) as e:
        infer_tm(gen.KERNEL_CTX, tm)
    return e.value.diag


def test_a_deep_list_has_its_type(deep):
    assert infer_tm(gen.KERNEL_CTX, deep.src) is gen.list_ty(gen.A)


def test_a_deep_vector_has_its_length():
    length = nat_zero()
    for _ in range(DEEP):
        length = nat_succ(length)
    assert infer_tm(gen.KERNEL_CTX, vec_of(DEEP, nat_zero())) is \
        Ind("Vec", Sub((STy(gen.A, 0),)), (length,))


def test_a_wrong_innermost_index_is_the_diagnostic_of_a_short_vector():
    short = inference_failure(vec_of(3, nat_succ(nat_zero())))
    assert short.code == "ClassifierMismatch"
    assert inference_failure(vec_of(DEEP, nat_succ(nat_zero()))) == short


#: a defect of the innermost cell of a list of ``A``s, by the check it
#: trips: its head's type (Var(0) is one of KERNEL_CTX's functions
#: Nat -> A), its parameter's scope, its tag's range, its length
INNERMOST = {
    "head": (gen.cons(gen.A, Var(0), gen.nil(gen.A)), "ClassifierMismatch"),
    "parameter": (gen.nil(TyVarRef(9, ())), "UnboundVariable"),
    "tag": (Con("List", 2, Sub((STy(gen.A, 0),)), ()), "UnboundVariable"),
    "length": (Con("List", 1, Sub((STy(gen.A, 0),)), (A_VAR,)),
               "ArityMismatch"),
}


@pytest.mark.parametrize("defect", INNERMOST)
def test_an_innermost_defect_is_the_diagnostic_of_a_short_list(defect):
    innermost, code = INNERMOST[defect]

    def ill(n):
        out = innermost
        for _ in range(n - 1):
            out = gen.cons(gen.A, A_VAR, out)
        return out
    short = inference_failure(ill(3))
    assert short.code == code
    assert inference_failure(ill(DEEP)) == short


def test_every_suffix_of_an_inferred_list_keeps_its_type():
    # as when each suffix was inferred by a call of its own: a later
    # question about a suffix (a vector's length index one cell down)
    # is a hit
    kc = gen.kernel_case(random.Random(2), 48)

    def kept():
        infer_tm(gen.KERNEL_CTX, kc.src)
        out, t = [], kc.src
        while type(t) is Con:
            out.append(infer_tm.kept(gen.KERNEL_CTX, t))
            t = t.args[-1] if t.args else None
        return out
    types, _ = in_fresh_session(kept)
    assert types == [gen.list_ty(gen.A)] * 49


def test_a_kept_suffix_ends_the_walk():
    # the walk stops at a suffix whose type is kept, as a hit ended the
    # recursion: inferring a longer numeral rewrites no kept entry
    three = nat_succ(nat_succ(nat_succ(nat_zero())))

    def rewritten():
        infer_tm((), three)
        memo = SESSION.get().memo
        before = dict(memo)
        infer_tm((), nat_succ(three))
        return [k for k, v in before.items() if memo[k] is not v]
    assert in_fresh_session(rewritten)[0] == []


def surface_list(n, innermost):
    """The surface spine ``cons A a (... (cons A a innermost))`` of ``n``
    cells, built directly: the parser reads only a few hundred.  A node's
    span is its cell's distance from the innermost one, so a diagnostic
    at the innermost cell is at span 0 whatever ``n`` is."""
    out = innermost
    for k in range(1, n + 1):
        cell = S.SName("cons", k)
        for arg in (S.SName("A", k), S.SName("a", k)):
            cell = S.SApp(cell, arg, k)
        out = S.SApp(cell, out, k)
    return out


@pytest.fixture(scope="module")
def list_scope():
    return elab_file(S.parse("base A ;\nvar a : A ;\n")).scope


def test_a_deep_surface_spine_elaborates(list_scope):
    nil_a = S.SApp(S.SName("nil", 0), S.SName("A", 0), 0)
    assert elab_tm(surface_list(DEEP, nil_a), list_scope) is \
        gen.list_of(Base("A"), [Var(0)] * DEEP)


@pytest.mark.parametrize("innermost, code, message", [
    (S.SName("nil", 0),
     "ArityMismatch", "constructor nil expects 1 arguments, got 0"),
    (S.SApp(S.SName("nil", 0), S.SName("Z", 0), 0),
     "UnboundVariable", "unknown type Z"),
], ids=["arity", "parameter"])
def test_an_error_at_the_innermost_cell_is_that_of_a_short_spine(
        list_scope, innermost, code, message):
    def failure(n):
        with pytest.raises(ElabError) as e:
            elab_tm(surface_list(n, innermost), list_scope)
        return e.value.diag
    short = failure(3)
    assert (short.code, short.message, short.span) == (code, message, 0)
    assert failure(DEEP) == short


def test_a_deep_list_prints_as_its_short_rendering_extends():
    def text(n):
        return tm_string(Names().invent(map(type, gen.KERNEL_CTX))[0],
                         gen.list_of(gen.A, [A_VAR] * n))
    assert text(3) == "cons A x (cons A x (cons A x (nil A)))"
    assert text(DEEP) == "cons A x (" * DEEP + "nil A" + ")" * DEEP


def test_a_deep_numeral_prints_as_its_short_rendering_extends():
    def text(n):
        out = nat_zero()
        for _ in range(n):
            out = nat_succ(out)
        return tm_string(Names(), out)
    assert text(3) == "succ (succ (succ zero))"
    assert text(DEEP) == "succ (" * (DEEP - 1) + "succ zero" + ")" * (DEEP - 1)


# -- rule order --------------------------------------------------------------
#
# The full rule sequence of each input, as counts and the sha256 of the
# names joined by spaces, recorded when the walks were recursive.


def in_session(ops):
    """The rules ``ops()`` reports in a fresh session, in order."""
    def rules():
        (_, seen), _ = in_fresh_session(lambda: traced(ops))
        return seen
    return rules


def kernel_ops():
    kc = gen.kernel_case(random.Random(0), 24)
    ctx = gen.KERNEL_CTX
    cast(kc.src, kc.ad)
    nf(Cast(kc.src, kc.ad))
    conv_tm(ctx, gen.list_ty(gen.FUN_A), kc.fun_lhs, kc.fun_rhs)
    conv_tm(ctx, gen.list_ty(gen.A), kc.near_lhs, kc.near_rhs)


def raw_rows():
    register(tree_desc())
    for d in map(desc, ("Tree", "W", "Vec")):
        for _, _, _, tm, tr in generic_rows(d, generic_setup(d)):
            nf(Cast(tm, IndAd(d.name, tr)))


def infer_list():
    infer_tm(gen.KERNEL_CTX, gen.kernel_case(random.Random(0), 24).src)


def infer_vec():
    # a vector's indices are read (``SUB_VAR``) bottom-up
    infer_tm(gen.KERNEL_CTX, vec_of(24, nat_zero()))


def trace_check():
    """The rule names ``adaptt --trace check`` prints on a generated
    24-cell file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "s24.adt"
        path.write_text(surface_file(random.Random(1), 24).text,
                        encoding="utf-8")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.main(["--trace", "check", str(path)])
    return [line.split()[1] for line in buf.getvalue().splitlines()
            if line.startswith("RULE ")]


@pytest.mark.parametrize("rules, counts, digest", [
    (in_session(kernel_ops),
     {"BETA": 1, "CAST_CONSTR": 50, "CAST_SPLIT": 96, "ETA_FUN": 1,
      "PI_TEL_EMPTY": 96, "SUB_TYVAR": 144, "SUB_VAR": 1, "TRANS_IND": 48,
      "TRANS_TYVAR": 144},
     "00a619852439d04b28cbe3b382f7571bf3f62bc931abe6ed9ce319a557c53c13"),
    (in_session(raw_rows),
     {"CAST_CONSTR": 5, "CAST_ID": 2, "PI_TEL_EMPTY": 6, "PI_TEL_STEP": 4,
      "SUB_PUSH": 6, "SUB_TYVAR": 28, "SUB_VAR": 11, "TRANS_ID": 2,
      "TRANS_IND": 3, "TRANS_PI": 2, "TRANS_TYVAR": 20},
     "e36bfdee418c21271623788390308a547466f304595df36aab83fbdc170868a0"),
    (in_session(infer_list),
     {"PI_TEL_EMPTY": 24, "SUB_TYVAR": 48},
     "b88b3c6050c27d342892b765d31fdcad581c88ae99905d84cb03db16e6457de8"),
    (in_session(infer_vec),
     {"PI_TEL_EMPTY": 300, "SUB_TYVAR": 48, "SUB_VAR": 48},
     "cf7fe0a7729ec4f99f32b871cf87e6515cf3161830db05c9fe6c38c5eee3cfe1"),
    (trace_check,
     {"BETA": 1, "CAST_CONSTR": 25, "CAST_SPLIT": 48, "ETA_FUN": 1,
      "PI_TEL_EMPTY": 240, "SUB_TYVAR": 456, "SUB_VAR": 1, "TRANS_IND": 24,
      "TRANS_TYVAR": 72},
     "264e49aa5324cc940a956219daabe736eb62259f016e610665d97f48165613a2"),
], ids=["kernel_case", "raw_rows", "infer_list", "infer_vec", "trace_check"])
def test_the_rule_sequence_is_that_of_the_recursive_walks(rules, counts, digest):
    seen = rules()
    assert (Counter(seen), hashlib.sha256(" ".join(seen).encode()).hexdigest()
            ) == (Counter(counts), digest)
