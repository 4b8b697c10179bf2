"""The four workloads: the operations of one round and their known answers.

An op is one closed-loop call into ``adaptt``: the client issues the next
only after the previous one returns.  ``run`` is the timed call; ``check``
compares its output with the known answer, untimed.  A round runs every
op once, with the ladder sizes interleaved, so drift in host speed falls
on every size alike.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

from perfbench import gen

#: list lengths of the two scale ladders, each doubling, all below the
#: depth at which the shipped program gives up (parse: 120 cells work and
#: 128 do not; conv_tm: 240 work and 256 do not).  A round holds an odd
#: number of ops whose times form well-separated groups, so that the
#: median op falls inside a group rather than in the gap between two.
SURFACE_LADDER = (6, 12, 24, 48, 96)
KERNEL_LADDER = (24, 48, 96, 192)
#: links of the fusible adapter chain of ``kernel_scale``
CHAIN_LINKS = 24
#: the depth probe doubles each ladder up to this many cells
DEPTH_CAP = 4096
#: oracle pairs per kind in one round
ORACLE_PER_KIND = 10


@dataclass(frozen=True)
class Op:
    label: str
    size: int                       # ladder size, 0 off the ladders
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    ops: list[Op]                   # one round
    ladder: tuple[int, ...] = ()
    ops_at: Callable[[int], list[Op]] | None = None   # the ops of one size


def _cli(argv: list[str]):
    """One in-process ``adaptt`` invocation: exit code and stdout."""
    from adaptt import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def _corpus_ops(root: str) -> list[Op]:
    c = os.path.join(root, "corpus")
    casts = os.path.join(c, "casts.adt")
    prelude = os.path.join(c, "prelude.adt")
    tree = os.path.join(c, "tree.adt")
    broken = os.path.join(c, "broken.adt")
    bindings = os.path.join(c, "bindings_small.json")

    def checked(path, datas, checks, eqs, oks):
        def ok(out):
            rc, text = out
            lines = text.splitlines()
            return (rc == 0 and lines[-1] == f"checked {path}: {datas} "
                    f"datatypes, {checks} checks, {eqs} equations"
                    and sum(l.startswith("OK asserteq ") for l in lines) == oks
                    and not any(l.startswith("ERROR") for l in lines))
        return ok

    def casts_ok(out):
        return (checked(casts, 0, 1, 13, 13)(out)
                and "NORMAL cons C (a <| f <| g) (nil C)" in out[1].splitlines())

    def broken_ok(out):
        rc, text = out
        return rc == 1 and text.startswith(
            f"ERROR ClassifierMismatch {broken}:4:1 ")

    def model_ok(out):
        rc, text = out
        return rc == 0 and text.splitlines()[-1] == (
            "model: 11 evaluated, 2 skipped, 0 disagreements")

    def derive_list_ok(out):
        rc, text = out
        return rc == 0 and text.splitlines() == [
            "datatype List",
            "  parameter X : Ty+ over -",
            "adapter rule:",
            "  premise    f : A => A'",
            "  conclusion List [[ f ]] : List A => List A'",
            "computation:",
            "  nil A <| List [[ f ]]",
            "    == nil A'",
            "  cons A x0 x1 <| List [[ f ]]",
            "    == cons A' (x0 <| f) (x1 <| List [[ f ]])",
        ]

    def derive_w_ok(out):
        rc, text = out
        doc = json.loads(text)
        return (rc == 0 and doc["name"] == "W"
                and [p["dir"] for p in doc["params"]] == ["+", "-"]
                and [c["name"] for c in doc["constructors"]] == ["sup"])

    def norm_ok(out):
        return out == (0, "cons C (a <| f <| g) (nil C)\n: List C\n")

    def selftest_ok(out):
        rc, text = out
        return rc == 0 and text.splitlines()[-1] == "selftest: 12/12 rows hold"

    table = [
        (["check", casts], casts_ok),
        (["check", prelude], checked(prelude, 6, 0, 0, 0)),
        (["check", tree], checked(tree, 1, 0, 3, 3)),
        (["check", broken], broken_ok),
        (["model", casts, "--bindings", bindings], model_ok),
        (["derive", prelude, "List"], derive_list_ok),
        (["derive", prelude, "W", "--json"], derive_w_ok),
        (["norm", casts, "-e", "cons A a (nil A) <| List [[ g . f ]]"],
         norm_ok),
        (["selftest"], selftest_ok),
    ]
    return [Op(" ".join(os.path.basename(a) for a in argv), 0,
               lambda argv=argv: _cli(argv), ok) for argv, ok in table]


def corpus(rng: random.Random, root: str, workdir: str) -> Workload:
    # the shipped files are the input, so the seed changes nothing here;
    # a seeded order of the commands would move the timings by up to 10%
    return Workload("corpus", _corpus_ops(root))


# ---------------------------------------------------------------------------
# surface_scale
# ---------------------------------------------------------------------------


def _surface_op(rng: random.Random, workdir: str, n: int) -> Op:
    sf = gen.surface_file(rng, n)
    path = os.path.join(workdir, f"list{n}.adt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(sf.text)
    expected = [line.replace("{path}", path) for line in sf.expected_lines]

    def ok(out):
        rc, text = out
        return rc == sf.expected_exit and text.splitlines() == expected
    return Op(f"check list{n}.adt", n, lambda: _cli(["check", path]), ok)


def surface_scale(rng: random.Random, root: str, workdir: str) -> Workload:
    return Workload(
        "surface_scale",
        [_surface_op(rng, workdir, n) for n in SURFACE_LADDER],
        SURFACE_LADDER, lambda n: [_surface_op(rng, workdir, n)])


# ---------------------------------------------------------------------------
# kernel_scale
# ---------------------------------------------------------------------------


def _kernel_ops(rng: random.Random, n: int) -> list[Op]:
    from adaptt import check, normalize
    from adaptt.syntax import Cast
    kc = gen.kernel_case(rng, n)
    ctx = gen.KERNEL_CTX
    list_a, list_fun = gen.list_ty(gen.A), gen.list_ty(gen.FUN_A)
    raw = Cast(kc.src, kc.ad)
    return [
        Op(f"cast n={n}", n, lambda: normalize.cast(kc.src, kc.ad),
           lambda out: out == kc.cast_expected),
        Op(f"infer_tm n={n}", n, lambda: check.infer_tm(ctx, kc.src),
           lambda out: out == list_a),
        Op(f"nf n={n}", n, lambda: normalize.nf(raw).value,
           lambda out: out == kc.cast_expected),
        Op(f"conv_tm eta n={n}", n,
           lambda: normalize.conv_tm(ctx, list_fun, kc.fun_lhs, kc.fun_rhs),
           lambda out: out is True),
        Op(f"conv_tm near n={n}", n,
           lambda: normalize.conv_tm(ctx, list_a, kc.near_lhs, kc.near_rhs),
           lambda out: out is False),
    ]


def _fusion_op() -> Op:
    from adaptt import normalize
    chain, fused = gen.fusible_chain(CHAIN_LINKS)
    return Op(f"conv_ad k={CHAIN_LINKS}", 0,
              lambda: normalize.conv_ad(gen.KERNEL_CTX, chain, fused),
              lambda out: out is True)


def kernel_scale(rng: random.Random, root: str, workdir: str) -> Workload:
    ops = [op for n in KERNEL_LADDER for op in _kernel_ops(rng, n)]
    return Workload("kernel_scale", ops + [_fusion_op()], KERNEL_LADDER,
                    lambda n: _kernel_ops(rng, n))


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _oracle_op(pair: gen.OraclePair) -> Op:
    from adaptt import normalize, setmodel

    def run():
        lhs = normalize.nf(pair.lhs).value
        rhs = normalize.nf(pair.rhs).value
        conv = normalize.conv_tm(gen.ORACLE_CTX, pair.ty, lhs, rhs)
        used = (setmodel.free_tm_vars(pair.lhs)
                | setmodel.free_tm_vars(pair.rhs)
                | setmodel.free_tm_vars(pair.ty))
        agree = True
        for text in gen.ORACLE_BINDINGS:
            ev = setmodel.Evaluator(setmodel.ModelBinding.from_json(text))
            for env in setmodel.enumerate_envs(ev, gen.ORACLE_CTX, used):
                agree &= setmodel.sem_eq(ev.eval_tm(env, pair.lhs),
                                         ev.eval_tm(env, pair.rhs))
        return conv, agree
    return Op(pair.kind, 0, run, lambda out: out == (True, True))


def oracle(rng: random.Random, root: str, workdir: str) -> Workload:
    return Workload("oracle", [_oracle_op(p) for p in
                               gen.oracle_pairs(rng, ORACLE_PER_KIND)])


WORKLOADS = {
    "corpus": corpus,
    "surface_scale": surface_scale,
    "kernel_scale": kernel_scale,
    "oracle": oracle,
}
