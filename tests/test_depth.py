"""Deep inputs at the stock recursion limit.

A generated ``surface_scale`` file nests one parenthesis per list cell,
so its cell count is its nesting depth.  At 256 cells the file must
parse, elaborate, check and print exactly the verdicts its generator
knows by construction; at 600 cells, past the recursion limit, it must
print a ``TooDeep`` diagnostic and exit 5.

The kernel's constructor walks (cast, ``nf``, conversion) take a
constructor's last argument in the same frame, so spines of thousands of
cells built directly pass through them, every per-cell check still
fires at the innermost cell, and the rules they report keep the order
of the recursive reading."""

import contextlib
import hashlib
import io
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

from adaptt import cli
from adaptt.golden import ensure_tree
from adaptt.inductive import (
    generic_rows, generic_setup, ind_adapter, nat_succ, nat_zero,
)
from adaptt.normalize import KernelError, cast, conv_tm, nf
from adaptt.syntax import Cast, Con, IndAd, Sub, STy, Trans, KAd, Var, desc
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


# -- rule order --------------------------------------------------------------
#
# The full rule sequence of two inputs, as counts and the sha256 of the
# names joined by spaces, recorded when the walks were recursive.


def rule_sequence(fn):
    (_, seen), _ = in_fresh_session(lambda: traced(fn))
    return Counter(seen), hashlib.sha256(" ".join(seen).encode()).hexdigest()


def kernel_ops():
    kc = gen.kernel_case(random.Random(0), 24)
    ctx = gen.KERNEL_CTX
    cast(kc.src, kc.ad)
    nf(Cast(kc.src, kc.ad))
    conv_tm(ctx, gen.list_ty(gen.FUN_A), kc.fun_lhs, kc.fun_rhs)
    conv_tm(ctx, gen.list_ty(gen.A), kc.near_lhs, kc.near_rhs)


def raw_rows():
    ensure_tree()
    for d in map(desc, ("Tree", "W", "Vec")):
        for _, _, _, tm, tr in generic_rows(d, generic_setup(d)):
            nf(Cast(tm, IndAd(d.name, tr)))


@pytest.mark.parametrize("ops, counts, digest", [
    (kernel_ops,
     {"BETA": 1, "CAST_CONSTR": 50, "CAST_SPLIT": 96, "ETA_FUN": 1,
      "PI_TEL_EMPTY": 96, "SUB_TYVAR": 144, "SUB_VAR": 1, "TRANS_IND": 48,
      "TRANS_TYVAR": 144},
     "00a619852439d04b28cbe3b382f7571bf3f62bc931abe6ed9ce319a557c53c13"),
    (raw_rows,
     {"CAST_CONSTR": 5, "CAST_ID": 2, "PI_TEL_EMPTY": 6, "PI_TEL_STEP": 4,
      "SUB_PUSH": 6, "SUB_TYVAR": 28, "SUB_VAR": 11, "TRANS_ID": 2,
      "TRANS_IND": 3, "TRANS_PI": 2, "TRANS_TYVAR": 20},
     "e36bfdee418c21271623788390308a547466f304595df36aab83fbdc170868a0"),
], ids=["kernel_case", "raw_rows"])
def test_the_rule_sequence_is_that_of_the_recursive_walks(ops, counts, digest):
    assert rule_sequence(ops) == (Counter(counts), digest)
