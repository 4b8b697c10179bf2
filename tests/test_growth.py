"""Work counts on doubling ladders: the Python calls a computation makes,
counted with ``sys.setprofile``, the lines it executes in the modules
that do the work, counted with ``sys.settrace``, the rules it fires, the
entries of its session's memo and the nodes it adds to the intern table
grow at most 2.1x when its input doubles.  Counts vary across Python
versions, so only ratios are asserted."""

import contextlib
import gc
import io
import random
import sys
from collections import Counter

import pytest

from adaptt import (
    cli, elaborate, inductive, normalize, pretty, surface, transform,
)
from adaptt.check import infer_tm
from adaptt.inductive import nat_zero
from adaptt.normalize import cast, conv_ad, conv_tm, nf
from adaptt.pretty import Names, ty_string
from adaptt.syntax import (
    INTERNED, POS, Cast, Pi, Session, Sig, TmEntry, Var, desc, fv_bounds,
)
from helpers import A, id_of
from perfbench import gen
from perfbench.gen import surface_file
from test_depth import vec_of
from test_session_memo import in_fresh_session, traced


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
        names = Names().invent(map(type, ctx))[0]
        counts.append(calls(ty_string, names, ty))
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


def wide(k: int) -> str:
    """``data Wide (X0 : Ty+) … (Xk-1 : Ty+) { mk : (x : Xk-1) -> Wide … }``"""
    xs = [f"X{i}" for i in range(k)]
    return (f"data Wide {' '.join(f'({x} : Ty+)' for x in xs)} "
            f"{{ mk : (x : {xs[-1]}) -> Wide {' '.join(xs)} }}\n")


def test_deriving_a_wide_datatype_grows_linearly(tmp_path):
    # each parameter is named once, not once per prefix of the parameters,
    # and a fresh name is found without trying every name taken before it
    work = []
    for k in (8, 16, 32, 64):
        path = tmp_path / f"wide{k}.adt"
        path.write_text(wide(k), encoding="utf-8")
        calls_rules = cli_work("derive", str(path), "Wide")
        work.append((*calls_rules, lines_in((inductive, pretty), command,
                                            "derive", str(path), "Wide")))
    for k in range(3):
        assert work[3][k] / work[2][k] <= 2.1, work


def test_judging_a_wide_datatype_grows_linearly():
    # ``selftest``'s judge on ``Wide``: the checker reads the endpoint of
    # each prefix of the parameter transformation by extending that of the
    # prefix one entry shorter, not afresh.  Calls are counted in a second
    # session, after the first has filled the process-wide tables.
    def judged(count, k):
        elaborate.elab_file(surface.parse(wide(k)))
        return count(inductive.judge, desc("Wide"))

    def rules(fn, d):
        rows, seen = traced(lambda: fn(d))
        assert all(ok for _, ok in rows), rows
        return len(seen)
    work = []
    for k in (8, 16, 32, 64):
        seen, _ = in_fresh_session(lambda: judged(rules, k))
        n, _ = in_fresh_session(lambda: judged(calls, k))
        work.append((n, seen))
    for k in range(2):
        for m in range(3):
            assert work[m + 1][k] / work[m][k] <= 2.1, work


def lines_in(modules, fn, *args) -> int:
    """Lines ``fn(*args)`` executes in ``modules``, counted with
    ``sys.settrace``; the frames of other modules are not traced.  A
    tracer already installed (a line-coverage run) is put back after."""
    files, outer = {m.__file__ for m in modules}, sys.gettrace()
    n = 0

    def count(frame, event, arg):
        nonlocal n
        n += event == "line"
        return count

    def enter(frame, event, arg):
        return count if frame.f_code.co_filename in files else None

    sys.settrace(enter)
    try:
        fn(*args)
    finally:
        sys.settrace(outer)
    return n


def test_naming_a_long_context_grows_linearly(tmp_path):
    # n ``var``s, then n equations between neighbours, each of which fails
    # and is printed: the elaborator resolves every name and the printer
    # names every variable through the one name scope.  Only the lines of
    # those two modules are counted; the kernel's own walks of the context
    # are another matter
    work = []
    for n in (125, 250, 500, 1000):
        path = tmp_path / f"vars{n}.adt"
        path.write_text(
            "".join(f"var x_{k} : Nat ;\n" for k in range(n))
            + "".join(f"asserteq x_{k} = x_{(k + 1) % n} : Nat ;\n"
                      for k in range(n)), encoding="utf-8")
        command("check", str(path))
        work.append(lines_in((elaborate, pretty), command, "check", str(path)))
    for k in range(3):
        assert work[k + 1] / work[k] <= 2.1, work


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


def counting(monkeypatch, module, *names) -> Counter:
    """A counter of the calls of ``module``'s functions ``names``, made
    through the module's globals from now on."""
    looked_up = Counter()
    for name in names:
        def counted(*args, fn=getattr(module, name), name=name):
            looked_up[name] += 1
            return fn(*args)
        monkeypatch.setattr(module, name, counted)
    return looked_up


def warm_list_cast_calls(monkeypatch, *names) -> list[dict]:
    """The calls of ``transform``'s functions ``names`` in a cast of the
    generated 24-cell and 192-cell lists, each counted in a fresh session
    after a first cast has filled the process-wide tables."""
    looked_up = counting(monkeypatch, transform, *names)
    counts = []
    for n in (24, 192):
        kc = gen.kernel_case(random.Random(1), n)
        in_fresh_session(lambda: cast(kc.src, kc.ad))
        looked_up.clear()
        out, _ = in_fresh_session(lambda: cast(kc.src, kc.ad))
        assert out == kc.cast_expected
        counts.append(dict(looked_up))
    return counts


def test_a_list_cast_reads_its_parameters_once(monkeypatch):
    # every cell of a generated list has the same parameters and
    # transformation: the source spine and the argument adapters are
    # looked up once for the run of cons cells and once for the nil,
    # whatever the length
    counts = warm_list_cast_calls(monkeypatch, "_endpoint", "_con_adapter")
    assert counts[0] == counts[1], counts


def test_a_list_cast_opens_no_argument_adapter(monkeypatch):
    # no argument adapter of a List cell mentions an earlier argument, so
    # each cell casts along the adapters themselves, and a cell of the run
    # below the first has no indices to check
    counts = warm_list_cast_calls(monkeypatch, "open_tm_block",
                                  "result_indices")
    assert counts[0] == counts[1], counts
    assert "open_tm_block" not in counts[0], counts


def test_a_list_conversion_reads_its_parameters_once(monkeypatch):
    # both sides of each generated pair have the same parameters in every
    # cell: the parameter spines are compared, and the argument telescope
    # looked up, once for the run of cons cells, whatever the length
    looked_up = counting(monkeypatch, normalize, "conv_sub", "con_args_tel")
    for op in ("conv_tm_eta", "conv_tm_near"):
        counts = []
        for n in (24, 192):
            kc = gen.kernel_case(random.Random(1), n)
            looked_up.clear()
            out, _ = in_fresh_session(lambda: KERNEL_OPS[op](kc))
            assert out is (op == "conv_tm_eta")
            counts.append(dict(looked_up))
        assert counts[0] == counts[1], (op, counts)


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
