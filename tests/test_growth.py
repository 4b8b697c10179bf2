"""Work counts on doubling ladders: the Python calls a computation makes,
counted with ``sys.setprofile``, the rules it fires, the entries of its
session's memo and the nodes it adds to the intern table grow at most
2.1x when its input doubles.  Call counts vary across Python versions, so
only ratios are asserted."""

import contextlib
import gc
import io
import random
import sys

import pytest

from adaptt import cli
from adaptt.check import infer_tm
from adaptt.inductive import nat_zero
from adaptt.normalize import cast, conv_ad, conv_tm, nf
from adaptt.pretty import ty_string
from adaptt.syntax import (
    INTERNED, POS, Cast, Pi, Session, Sig, TmEntry, Var, fv_bounds,
)
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


def command(*args) -> str:
    """The output of ``adaptt *args``, run in this process."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.main(list(args))
    return out.getvalue()


def cli_work(*args) -> tuple[int, int]:
    """Python calls of ``adaptt *args``, and the ``RULE`` lines it prints
    under ``--trace``, after a first run has filled the process-wide
    tables.  Each run is a command of its own, in a fresh session."""
    command(*args)
    rules = sum(line.startswith("RULE ")
                for line in command("--trace", *args).splitlines())
    return calls(command, *args), rules


def generated_files(tmp_path):
    """``surface_scale`` files: three equations over lists of n cells."""
    for n in (32, 64, 128, 256):
        path = tmp_path / f"s{n}.adt"
        path.write_text(surface_file(random.Random(1), n).text,
                        encoding="utf-8")
        yield str(path)


def test_checking_a_generated_file_grows_linearly(tmp_path, monkeypatch):
    # the last command's session is kept past it, so that its memo and the
    # nodes it holds alive can be counted
    sessions = []

    def kept(*args):
        sessions.append(Session(*args))
        return sessions[-1]
    monkeypatch.setattr(cli, "Session", kept)
    work = []
    for path in generated_files(tmp_path):
        calls_rules = cli_work("check", path)
        sessions.clear()
        gc.collect()
        interned = len(INTERNED)
        command("check", path)
        gc.collect()
        work.append((*calls_rules, len(sessions[-1].memo),
                     len(INTERNED) - interned))
    for k in range(4):
        assert work[3][k] / work[2][k] <= 2.1, work


def test_the_oracle_on_a_generated_file_grows_linearly(tmp_path):
    work = [cli_work("model", path, "--bindings",
                     "corpus/bindings_small.json")
            for path in generated_files(tmp_path)]
    for k in range(2):
        assert work[3][k] / work[2][k] <= 2.1, work


def test_deriving_a_wide_datatype_grows_linearly(tmp_path):
    # ``data Wide (X0 : Ty+) … (Xk-1 : Ty+) { mk : (x : Xk-1) -> Wide … }``
    work = []
    for k in (1, 2, 4, 8):
        xs = [f"X{i}" for i in range(k)]
        path = tmp_path / f"wide{k}.adt"
        path.write_text(
            f"data Wide {' '.join(f'({x} : Ty+)' for x in xs)} "
            f"{{ mk : (x : {xs[-1]}) -> Wide {' '.join(xs)} }}\n",
            encoding="utf-8")
        work.append(cli_work("derive", str(path), "Wide"))
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
    work = []
    for n in (32, 64, 128, 256):
        lst = "nil A"
        for k in range(n):
            lst = f"cons A {('a', 'a2')[k % 2]} ({lst})"
        expr = f"{lst} <| List [[ g . f ]]"
        work.append(cli_work("norm", "corpus/casts.adt", "-e", expr))
    for k in range(2):
        assert work[3][k] / work[2][k] <= 2.1, work


def test_fusing_a_cast_tower_grows_linearly():
    # conversion of k single-link List adapters against their composite
    counts = [kernel_calls(lambda c: conv_ad(gen.KERNEL_CTX, *c),
                           gen.fusible_chain(k))
              for k in (8, 16, 32, 64)]
    assert counts[3] / counts[2] <= 2.1, counts
