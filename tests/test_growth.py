"""Work counts on doubling ladders: the Python calls a computation makes,
counted with ``sys.setprofile``, and the rules it fires grow at most 2.1x
when its input doubles.  Call counts vary across Python versions, so only
ratios are asserted."""

import contextlib
import io
import random
import sys

import pytest

from adaptt import cli
from adaptt.check import infer_tm
from adaptt.inductive import nat_zero
from adaptt.normalize import cast, conv_ad, conv_tm, nf
from adaptt.pretty import ty_string
from adaptt.syntax import POS, Cast, Pi, Sig, TmEntry, Var, fv_bounds
from helpers import A, id_of
from perfbench import gen
from perfbench.gen import surface_file
from test_depth import vec_of
from test_session_memo import in_fresh_session


def calls(fn, *args) -> int:
    n = 0

    def count(frame, event, arg):
        nonlocal n
        if event == "call":
            n += 1

    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return n


def chain(former, n):
    """``A -> … -> A`` (or ``A ** … ** A``), ``n`` links, nested right."""
    ty = A
    for _ in range(n):
        ty = former(A, ty)
    return ty


def id_chain(n):
    """``Id A a a -> … -> Id A a a`` over ``a : A``, ``n`` links, nested
    right: every link mentions the outer variable, none its own binder."""
    ty = id_of(A, Var(n), Var(n))
    for k in reversed(range(n)):
        ty = Pi(id_of(A, Var(k), Var(k)), ty)
    return ty


@pytest.mark.parametrize("ctx, build", [
    ((), lambda n: chain(Pi, n)),
    ((), lambda n: chain(Sig, n)),
    ((TmEntry(POS, A),), id_chain),
], ids=["Pi", "Sig", "Id_chain"])
def test_printing_a_chain_grows_linearly(ctx, build):
    counts = []
    for n in (64, 128, 256):
        ty = build(n)
        fv_bounds(ty)       # filled once per node, outside the count
        counts.append(calls(ty_string, ctx, ty))
    assert counts[2] / counts[1] <= 2.1, counts


def test_checking_a_generated_file_grows_linearly(tmp_path):
    # ``surface_scale`` files: three equations over lists of n cells
    def check(*args):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.main([*args, "check", str(path)])
        return out.getvalue()
    work = []
    for n in (32, 64, 128, 256):
        path = tmp_path / f"s{n}.adt"
        path.write_text(surface_file(random.Random(1), n).text,
                        encoding="utf-8")
        check()             # process-wide tables filled outside the count
        rules = sum(line.startswith("RULE ")
                    for line in check("--trace").splitlines())
        work.append((calls(check), rules))
    for k in range(2):
        assert work[3][k] / work[2][k] <= 2.1, work


def kernel_calls(run, x) -> int:
    """Python calls of ``run(x)`` in a fresh session, after a first run in
    another fresh session has filled the process-wide tables."""
    in_fresh_session(lambda: run(x))
    return in_fresh_session(lambda: calls(run, x))[0]


def test_inferring_a_vec_grows_linearly():
    # each cell's type is read off the one below: a suffix's type is kept
    # for the cell above, or every cell would infer its whole tail again
    counts = [kernel_calls(lambda t: infer_tm(gen.KERNEL_CTX, t),
                           vec_of(n, nat_zero()))
              for n in (16, 32, 64, 128)]
    assert counts[3] / counts[2] <= 2.1, counts


#: the kernel ops of ``kernel_scale`` on one generated case
KERNEL_OPS = {
    "cast": lambda kc: cast(kc.src, kc.ad),
    "nf": lambda kc: nf(Cast(kc.src, kc.ad)),
    "conv_tm_eta": lambda kc: conv_tm(gen.KERNEL_CTX, gen.list_ty(gen.FUN_A),
                                      kc.fun_lhs, kc.fun_rhs),
    "conv_tm_near": lambda kc: conv_tm(gen.KERNEL_CTX, gen.list_ty(gen.A),
                                       kc.near_lhs, kc.near_rhs),
}


@pytest.mark.parametrize("op", KERNEL_OPS.values(), ids=KERNEL_OPS.keys())
def test_a_kernel_op_on_a_list_grows_linearly(op):
    counts = [kernel_calls(op, gen.kernel_case(random.Random(1), n))
              for n in (24, 48, 96, 192)]
    assert counts[3] / counts[2] <= 2.1, counts


def test_normalizing_a_cast_list_expression_grows_linearly():
    # ``norm -e`` of an n-cell list literal cast along ``List [[ g . f ]]``
    def norm(expr, *args):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            cli.main([*args, "norm", "corpus/casts.adt", "-e", expr])
        return out.getvalue()
    work = []
    for n in (32, 64, 128, 256):
        lst = "nil A"
        for k in range(n):
            lst = f"cons A {('a', 'a2')[k % 2]} ({lst})"
        expr = f"{lst} <| List [[ g . f ]]"
        norm(expr)          # process-wide tables filled outside the count
        rules = sum(line.startswith("RULE ")
                    for line in norm(expr, "--trace").splitlines())
        work.append((calls(norm, expr), rules))
    for k in range(2):
        assert work[3][k] / work[2][k] <= 2.1, work


def test_fusing_a_cast_tower_grows_linearly():
    # conversion of k single-link List adapters against their composite
    counts = [kernel_calls(lambda c: conv_ad(gen.KERNEL_CTX, *c),
                           gen.fusible_chain(k))
              for k in (8, 16, 32, 64)]
    assert counts[3] / counts[2] <= 2.1, counts
