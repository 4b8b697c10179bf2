"""The session's judgment memo: a hit reports the rewrite steps of its
miss, a failure is never kept, and a command's memo dies with it."""

import contextlib
import contextvars
import io
import pathlib
import random
from collections import Counter

import pytest

from adaptt import check, cli, normalize
from adaptt.check import CheckError
from adaptt.inductive import builtin_descs
from adaptt.syntax import (
    POS, SESSION, Session, Cast, TmEntry, Var,
)
from perfbench import gen

ROOT = pathlib.Path(__file__).resolve().parent.parent

STOCK = {d.name: d for d in builtin_descs()}


def in_fresh_session(fn):
    """``fn()`` in a copied context with a fresh session of the stock
    datatypes; returns its result and the session."""
    def run():
        s = Session(dict(STOCK))
        SESSION.set(s)
        return fn(), s
    return contextvars.copy_context().run(run)


def traced(fn):
    """``fn()`` under a sink in the current session; returns its result
    and the rules it reported, in order."""
    seen = []
    normalize.set_trace(lambda rule, path: seen.append(rule))
    try:
        return fn(), seen
    finally:
        normalize.set_trace(None)


def test_a_warm_call_reports_the_rules_of_a_cold_one():
    kc = gen.kernel_case(random.Random(3), 12)
    judge = lambda: check.infer_tm(gen.KERNEL_CTX, kc.src)  # noqa: E731
    (want_ty, want), _ = in_fresh_session(lambda: traced(judge))

    def untraced_then_traced():
        judge()                 # the miss runs with no sink at all
        return traced(judge)
    (ty, rules), s = in_fresh_session(untraced_then_traced)
    assert ty is want_ty
    assert want and rules == want
    assert s.memo and s.record is None


def test_a_failing_judgment_is_not_kept():
    kc = gen.kernel_case(random.Random(3), 6)
    # a List B cast along an adapter out of List A: the subject's type is
    # inferred, with its steps, before the cast rejects it
    bad = Cast(gen.list_of(gen.B, [Var(0)]), kc.ad)
    ctx = (TmEntry(POS, gen.B),)

    def twice():
        runs = []
        for _ in range(2):
            def judge():
                with pytest.raises(CheckError) as e:
                    check.infer_tm(ctx, bad)
                return e.value.diag
            runs.append(traced(judge))
        return runs
    ((d1, r1), (d2, r2)), s = in_fresh_session(twice)
    assert d1 == d2 and d1.code == "ClassifierMismatch"
    assert r1 and r1 == r2
    assert not any(key[1:] == (ctx, bad) for key in s.memo)


@pytest.mark.parametrize("what", ["infer_tm", "cast"])
def test_a_192_cell_list_reports_one_rule_multiset_cold_and_warm(what):
    kc = gen.kernel_case(random.Random(1), 192)
    run = {"infer_tm": lambda: check.infer_tm(gen.KERNEL_CTX, kc.src),
           "cast": lambda: normalize.cast(kc.src, kc.ad)}[what]

    def cold_and_warm():
        return traced(run), traced(run)
    ((cold_out, cold), (warm_out, warm)), _ = in_fresh_session(cold_and_warm)
    assert cold_out is warm_out
    assert cold and Counter(cold) == Counter(warm)


def test_a_command_memo_dies_with_the_command(monkeypatch):
    root = SESSION.get()
    monkeypatch.setattr(root, "memo", {})   # whatever earlier tests judged
    seen = []
    cmd_check = cli.cmd_check

    def spy(args, src):
        seen.append(SESSION.get())
        return cmd_check(args, src)
    monkeypatch.setattr(cli, "cmd_check", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["check", str(ROOT / "corpus" / "casts.adt")]) == 0
    (command,) = seen
    assert command is not root and command.memo
    assert SESSION.get() is root and not root.memo
