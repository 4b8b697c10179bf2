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
from adaptt.pretty import ty_string
from adaptt.syntax import POS, Pi, Sig, TmEntry, Var, fv_bounds
from helpers import A, id_of
from perfbench.gen import surface_file


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
