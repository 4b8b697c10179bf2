"""Benchmark driver for adaptt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

One run measures one workload in this process, closed loop, one client.
It prints its metrics by name and unit, then, as the last line of stdout,
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run spends half its time untraced and half traced, and reports the
per-layer ones.  ``--all`` runs every workload, each in a fresh process;
``--smoke`` does that with one round per workload.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("corpus", "surface_scale", "kernel_scale", "oracle")

#: fresh interpreters timed for ``setup_s``; the median is reported
SETUP_PROBES = 5

#: rewrite rules of docs/rewrite-rules.md, each reported by name
RULE_NAMES = (
    "BETA", "CAST_ID", "CAST_SPLIT", "CAST_PAIR", "CAST_CONSTR",
    "APP_CAST_FUN", "PROJ1_PAIR", "PROJ2_PAIR", "PROJ1_CAST", "PROJ2_CAST",
    "AD_UNIT", "AD_FLATTEN", "SUB_VAR", "SUB_TYVAR", "SUB_PUSH", "TRANS_ID",
    "TRANS_TYVAR", "TRANS_PI", "TRANS_SIGMA", "TRANS_IND", "TRANS_BASE",
    "PI_TEL_EMPTY", "PI_TEL_STEP", "ETA_FUN", "ETA_PAIR", "FUSE_PI",
    "FUSE_SIGMA", "FUSE_IND",
)

#: layers whose self time gets a growth exponent on the kernel ladder
GROWTH_LAYERS = ("check", "normalize.rewrite", "normalize.conv")

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: end-to-end figures that apply to some workloads only; printed with
#: the rest and reported in the traced run under ``workload.``
SCALE_UNITS = {
    "largest_n_ms": "ms",
    "growth_exp": "1",
    "depth_ceiling_cells": "cells",
    "fail_ratio": "1",
}


class Setup(Exception):
    """The program under test cannot be found or imported."""


def import_program() -> None:
    """Import ``adaptt`` from this checkout's ``src``, never from
    elsewhere on the path."""
    if not (SRC / "adaptt" / "__init__.py").is_file():
        raise Setup(f"no adaptt package under {SRC}")
    sys.path.insert(0, str(SRC))
    import adaptt
    if Path(adaptt.__file__).resolve().parent != SRC / "adaptt":
        raise Setup(f"imported adaptt from {adaptt.__file__}, not {SRC}")


def build(name: str, seed: int, workdir: str):
    from perfbench import workloads
    return workloads.WORKLOADS[name](random.Random(seed), str(ROOT), workdir)


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def run_op(op):
    """Run one op; returns (seconds, correct).  An exception, including
    RecursionError, is a wrong answer."""
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        dt = time.perf_counter() - t0
        print(f"op {op.label} raised:\n{traceback.format_exc(limit=3)}",
              file=sys.stderr)
        return dt, False
    dt = time.perf_counter() - t0
    try:
        ok = bool(op.check(out))
    except Exception:
        ok = False
    if not ok:
        print(f"op {op.label} gave a wrong answer", file=sys.stderr)
    return dt, ok


#: op time after which the next op is preceded by a calibration chunk
CALIBRATE_EVERY_S = 0.05


class Phase:
    """Complete rounds of a workload: per op, its time and verdict.  A
    calibration chunk runs before an op once ``CALIBRATE_EVERY_S`` of op
    time has passed since the last one; ``scaled`` holds each op time at
    the reference host speed, by the chunks around it (hostspeed.py)."""

    def __init__(self, workload, seconds: float, on_op=None):
        from perfbench import hostspeed
        self.workload = workload
        self.rounds: list[list[tuple[float, bool]]] = []
        chunks: list[float] = []
        at_chunk: list[list[int]] = []
        since = CALIBRATE_EVERY_S
        t_end = time.perf_counter() + seconds
        while True:
            row, marks = [], []
            for op in workload.ops:
                if since >= CALIBRATE_EVERY_S:
                    chunks.append(hostspeed.chunk_seconds())
                    since = 0.0
                if on_op is not None:
                    on_op.begin(len(self.rounds), op.size)
                dt, ok = run_op(op)
                if on_op is not None:
                    on_op.end()
                since += dt
                row.append((dt, ok))
                marks.append(len(chunks) - 1)
            self.rounds.append(row)
            at_chunk.append(marks)
            if time.perf_counter() >= t_end:
                break
        scale = hostspeed.scales(chunks)
        self.scaled = [[dt * scale[c] for (dt, _), c in zip(row, marks)]
                       for row, marks in zip(self.rounds, at_chunk)]

    def scaled_times(self) -> list[float]:
        return [dt for row in self.scaled for dt in row]

    def raw_wall(self) -> float:
        return sum(dt for row in self.rounds for dt, _ in row)

    @property
    def attempted(self) -> int:
        return sum(len(row) for row in self.rounds)

    @property
    def failed(self) -> int:
        return sum(not ok for row in self.rounds for _, ok in row)

    def round_times(self) -> list[float]:
        return [sum(row) for row in self.scaled]

    def per_size(self) -> list[dict[int, float]]:
        """Per round: mean scaled op time (seconds) at each ladder size."""
        sizes = [op.size for op in self.workload.ops]
        out = []
        for row in self.scaled:
            acc: dict[int, list[float]] = {}
            for n, dt in zip(sizes, row):
                if n:
                    acc.setdefault(n, []).append(dt)
            out.append({n: sum(v) / len(v) for n, v in acc.items()})
        return out

    def correct_sizes(self) -> set[int]:
        bad = {op.size for row in self.rounds
               for op, (_, ok) in zip(self.workload.ops, row) if not ok}
        return set(self.workload.ladder) - bad


def depth_ceiling(workload, phases) -> int:
    """Largest ladder size decided correctly, continuing the ladder by
    doubling up to the cap until the first size that is not.  Failures
    here feed only this figure."""
    from perfbench.workloads import DEPTH_CAP
    if not workload.ladder:
        return 0
    good = set.intersection(*(p.correct_sizes() for p in phases))
    ceiling = 0
    for n in workload.ladder:
        if n not in good:
            return ceiling
        ceiling = n
    n = ceiling * 2
    while n <= DEPTH_CAP:
        for op in workload.ops_at(n):
            try:
                if not op.check(op.run()):
                    return ceiling
            except Exception:        # RecursionError is the expected one
                return ceiling
        ceiling = n
        n *= 2
    return ceiling


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def setup_probe(name: str, seed: int) -> float:
    """Set up as a fresh interpreter does before timing starts: import
    ``adaptt`` (which registers the stock datatypes), build the inputs and
    run the untimed warm-up round.  Returns the seconds this took, scaled
    to the reference host by calibration chunks run in this process
    between the steps (the first chunk, on a cold heap, is dropped)."""
    from perfbench import hostspeed
    chunks = [hostspeed.chunk_seconds() for _ in range(3)]
    t0 = time.perf_counter()
    import_program()
    workdir = make_workdir()
    try:
        ops = build(name, seed, workdir).ops
        spent = time.perf_counter() - t0
        for op in ops:
            chunks.append(hostspeed.chunk_seconds())
            spent += run_op(op)[0]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    chunks += [hostspeed.chunk_seconds() for _ in range(3)]
    return spent * hostspeed.REFERENCE_S / statistics.median(chunks[1:])


def setup_seconds(name: str, seed: int, probes: int) -> float:
    """Median set-up time over ``probes`` fresh interpreters.  Each times
    itself, so the start-up of the interpreter, which is not the
    program's, stays out."""
    times = []
    for _ in range(probes):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=str(ROOT), check=True, stdout=subprocess.PIPE, text=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def make_workdir() -> str:
    path = HERE / ".work" / str(os.getpid())
    path.mkdir(parents=True, exist_ok=True)
    return str(path)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def e2e_metrics(phase: Phase, setup_s: float, phases) -> dict[str, float]:
    from perfbench.stats import growth, percentile
    times = phase.scaled_times()
    m = {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "latency_p50_ms": percentile(times, 50) * 1e3,
        "latency_p90_ms": percentile(times, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    ladder = phase.workload.ladder
    med, slope = growth(phase.per_size()) if ladder else ({}, 0.0)
    m["largest_n_ms"] = med[ladder[-1]] * 1e3 if ladder else 0.0
    m["growth_exp"] = slope
    m["depth_ceiling_cells"] = depth_ceiling(phase.workload, phases)
    m["fail_ratio"] = phase.failed / phase.attempted
    return m


class OpLog:
    """Marks which spans each traced op opened, and its size."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ops: list[tuple[int, int, int, int]] = []
        self._open = (0, 0, 0)

    def begin(self, round_no: int, size: int) -> None:
        self._open = (round_no, size, self.tracer.span_count())

    def end(self) -> None:
        round_no, size, lo = self._open
        self.ops.append((round_no, size, lo, self.tracer.span_count()))
        for out in self.tracer.elaborated:
            self.tracer.out_nodes += count_nodes(out)
        self.tracer.elaborated.clear()


def count_nodes(elab) -> int:
    """Syntax nodes in the terms and types a file elaborated to."""
    from dataclasses import fields, is_dataclass
    roots = [x for row in elab.asserts for x in row[2:5]]
    roots += [x for row in elab.checks for x in row[2:4]]
    roots += [row[2] for row in elab.normalizes]
    n = 0
    todo = roots
    while todo:
        x = todo.pop()
        if isinstance(x, tuple):
            todo.extend(x)
        elif is_dataclass(x):
            n += 1
            todo.extend(getattr(x, f.name) for f in fields(x))
    return n


def layer_metrics(tracer, log: OpLog, traced: Phase, untraced: Phase,
                  scale: dict[str, float]) -> dict[str, float]:
    """Per-layer figures of the traced phase, each per round."""
    from perfbench.stats import growth
    from perfbench.tracer import LAYERS, LAYER_NAMES, self_times
    rounds = len(traced.rounds)
    wall = traced.raw_wall()
    own = tracer.own_times()
    selfs = self_times(tracer.layer, own, len(LAYER_NAMES))
    m: dict[str, float] = {}
    for lid, name in enumerate(LAYER_NAMES):
        modname, funcs = LAYERS[name]
        calls = sum(tracer.calls[f"{modname}.{f}"] for f in funcs)
        m[f"{name}.calls"] = calls / rounds
        m[f"{name}.self_ms"] = selfs[lid] * 1e3 / rounds
        m[f"{name}.share"] = selfs[lid] / wall
    surface_s = selfs[LAYER_NAMES.index("surface")]
    m["surface.tokens_per_s"] = tracer.tokens / surface_s if surface_s else 0.0
    m["elaborate.decls"] = tracer.decls / rounds
    m["elaborate.out_nodes"] = tracer.out_nodes / rounds
    m["normalize.rule_firings"] = sum(tracer.rules.values()) / rounds
    for rule in RULE_NAMES:
        m[f"normalize.rule.{rule}"] = tracer.rules[rule] / rounds
    m["inductive.con_data_tied.hit_ratio"] = tracer.cache_hit_ratio()
    m["syntax.shift.calls"] = tracer.calls["syntax.shift"] / rounds
    m["setmodel.envs"] = tracer.envs / rounds
    tried = tracer.evaluated + tracer.skipped
    m["setmodel.evaluated_ratio"] = tracer.evaluated / tried if tried else 0.0

    # growth of each layer's self time over the ladder, per round and size
    per_round: list[dict[int, list[float]]] = [{} for _ in range(rounds)]
    for round_no, size, lo, hi in log.ops:
        if size:
            acc = per_round[round_no].setdefault(size, [0.0] * len(LAYER_NAMES))
            for lid, t in enumerate(self_times(tracer.layer[lo:hi], own[lo:hi],
                                               len(LAYER_NAMES))):
                acc[lid] += t
    for name in GROWTH_LAYERS:
        lid = LAYER_NAMES.index(name)
        m[f"{name}.growth_exp"] = growth(
            [{n: v[lid] for n, v in r.items()} for r in per_round])[1]

    m["trace.wall_ms"] = wall * 1e3 / rounds
    m["trace.unattributed_ms"] = (wall - sum(selfs)) * 1e3 / rounds
    m["trace.spans"] = tracer.span_count() / rounds
    m["trace.overhead_ratio"] = (statistics.median(traced.round_times())
                                 / statistics.median(untraced.round_times()))
    for key, value in scale.items():
        m[f"workload.{key}"] = value
    return m


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in order."""
    from perfbench.tracer import LAYER_NAMES
    names = [f"{layer}.{k}" for layer in LAYER_NAMES
             for k in ("calls", "self_ms", "share")]
    names += ["surface.tokens_per_s", "elaborate.decls", "elaborate.out_nodes",
              "normalize.rule_firings"]
    names += [f"normalize.rule.{r}" for r in RULE_NAMES]
    names += ["inductive.con_data_tied.hit_ratio", "syntax.shift.calls",
              "setmodel.envs", "setmodel.evaluated_ratio"]
    names += [f"{layer}.growth_exp" for layer in GROWTH_LAYERS]
    names += ["trace.wall_ms", "trace.unattributed_ms", "trace.spans",
              "trace.overhead_ratio"]
    names += [f"workload.{k}" for k in SCALE_UNITS]
    return names


def per_layer_unit(name: str) -> str:
    if name.startswith("workload."):
        return SCALE_UNITS[name.split(".", 1)[1]]
    for suffix, unit in ((".self_ms", "ms"), ("_ms", "ms"), (".share", "1"),
                         (".tokens_per_s", "1/s"), ("_ratio", "1"),
                         ("growth_exp", "1")):
        if name.endswith(suffix):
            return unit
    return "count"


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_program()
    setup_s = setup_seconds(name, seed, SETUP_PROBES if seconds >= 1 else 1)
    workdir = make_workdir()
    try:
        workload = build(name, seed, workdir)
        phases = [Phase(workload, 0)]       # the untimed warm-up round
        untraced = Phase(workload, seconds / 2 if trace else seconds)
        phases.append(untraced)
        e2e = e2e_metrics(untraced, setup_s, phases)
        print_metrics(name, seed, untraced, e2e)
        if trace:
            from perfbench.tracer import Tracer
            tracer = Tracer()
            log = OpLog(tracer)
            tracer.install()
            try:
                traced = Phase(workload, seconds / 2, on_op=log)
            finally:
                tracer.uninstall()
            phases.append(traced)
            tracer.write_spans(HERE / ".out" / f"{name}.spans.tsv.gz")
            layers = layer_metrics(tracer, log, traced, untraced,
                                   {k: e2e[k] for k in SCALE_UNITS})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if trace:
        for k in per_layer_names():
            print(f"  {k:<40} {layers[k]:.6g} {per_layer_unit(k)}")
        report = {k: {"value": layers[k], "unit": per_layer_unit(k)}
                  for k in per_layer_names()}
    else:
        report = {k: {"value": e2e[k], "unit": u} for k, u in E2E_UNITS.items()}
    failed = sum(p.failed for p in phases)
    return {"correct": failed == 0,
            "attempted": sum(p.attempted for p in phases),
            "failed": failed, "metrics": report}


def print_metrics(name: str, seed: int, phase: Phase, m: dict) -> None:
    print(f"workload {name}  seed {seed}  rounds {len(phase.rounds)}  "
          f"ops {phase.attempted}  failed {phase.failed}")
    for k, unit in {**E2E_UNITS, **SCALE_UNITS}.items():
        note = f"  (of {phase.attempted} ops)" if k.startswith("latency") else ""
        print(f"  {k:<22} {m[k]:.6g} {unit}{note}")


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in a fresh interpreter; exits 1 if any run
    failed or gave a wrong answer."""
    bad = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(trace))],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(f"  FAILED: exit {proc.returncode}, result {result}")
            bad += 1
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in a fresh process")
    ap.add_argument("--smoke", action="store_true",
                    help="one round of every workload, traced, all checks on")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    try:
        if args.smoke:
            return run_all(args.seed, 0, True)
        if args.all:
            return run_all(args.seed, args.seconds, bool(args.trace))
        if args.workload is None:
            ap.error("--workload, --all or --smoke is required")
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except (Setup, ImportError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
