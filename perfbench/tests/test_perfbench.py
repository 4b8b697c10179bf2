"""The benchmark's own tests: generator known answers against the
program, the span arithmetic of the tracer, and the statistics.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import io
import math
import random
import statistics
from pathlib import Path

import pytest

import adaptt  # noqa: F401  (registers the stock datatypes)
from adaptt import check, cli, normalize, setmodel
from adaptt.syntax import Cast

from perfbench import gen, hostspeed, stats, tracer, workloads

ROOT = Path(__file__).resolve().parents[2]


# -- generators ----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 5, 24])
def test_kernel_case_known_answers(n):
    kc = gen.kernel_case(random.Random(n), n)
    ctx = gen.KERNEL_CTX
    assert normalize.cast(kc.src, kc.ad) == kc.cast_expected
    assert normalize.nf(Cast(kc.src, kc.ad)).value == kc.cast_expected
    assert check.infer_tm(ctx, kc.src) == gen.list_ty(gen.A)
    assert check.infer_tm(ctx, kc.fun_rhs) == gen.list_ty(gen.FUN_A)
    assert kc.fun_lhs != kc.fun_rhs
    assert normalize.conv_tm(ctx, gen.list_ty(gen.FUN_A), kc.fun_lhs,
                             kc.fun_rhs)
    assert not normalize.conv_tm(ctx, gen.list_ty(gen.A), kc.near_lhs,
                                 kc.near_rhs)


def test_fusible_chain_fuses():
    chain, fused = gen.fusible_chain(6)
    assert len(chain.parts) == 6
    assert normalize.conv_ad(gen.KERNEL_CTX, chain, fused) is True
    short, _ = gen.fusible_chain(3)
    assert normalize.conv_ad(gen.KERNEL_CTX, short, fused) is None


@pytest.mark.parametrize("n", [1, 6, 12])
def test_surface_file_known_output(tmp_path, n):
    sf = gen.surface_file(random.Random(n), n)
    path = tmp_path / "gen.adt"
    path.write_text(sf.text)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["check", str(path)])
    assert rc == sf.expected_exit
    assert buf.getvalue().splitlines() == [
        line.replace("{path}", str(path)) for line in sf.expected_lines]


def test_oracle_pairs_convert_and_agree():
    pairs = gen.oracle_pairs(random.Random(7), 4)
    assert sorted({p.kind for p in pairs}) == sorted(gen.PAIR_KINDS)
    bindings = [setmodel.ModelBinding.from_json(t)
                for t in gen.ORACLE_BINDINGS]
    for p in pairs:
        ctx = gen.ORACLE_CTX
        assert check.infer_tm(ctx, p.lhs) == check.infer_tm(ctx, p.rhs)
        assert normalize.conv_tm(ctx, p.ty, normalize.nf(p.lhs).value,
                                 normalize.nf(p.rhs).value), p.kind
        used = setmodel.free_tm_vars(p.lhs) | setmodel.free_tm_vars(p.rhs)
        for b in bindings:
            ev = setmodel.Evaluator(b)
            for env in setmodel.enumerate_envs(ev, ctx, used):
                assert setmodel.sem_eq(ev.eval_tm(env, p.lhs),
                                       ev.eval_tm(env, p.rhs)), p.kind


def test_seed_fixes_inputs_not_sizes():
    a = gen.kernel_case(random.Random(1), 12)
    assert a == gen.kernel_case(random.Random(1), 12)
    b = gen.kernel_case(random.Random(2), 12)
    assert len(gen.surface_file(random.Random(1), 12).text.splitlines()) == \
        len(gen.surface_file(random.Random(2), 12).text.splitlines())
    assert a != b


def test_every_workload_round_is_correct(tmp_path):
    for name, make in workloads.WORKLOADS.items():
        w = make(random.Random(3), str(ROOT), str(tmp_path))
        for op in w.ops:
            assert op.check(op.run()), (name, op.label)


# -- tracer ----------------------------------------------------------------------


def test_self_time_arithmetic_on_a_span_tree():
    # root [0, 10) -> a [1, 4) -> b [2, 3); root -> c [5, 9); second root [20, 22)
    layer = [0, 1, 2, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0, 20.0]
    end = [10.0, 4.0, 3.0, 9.0, 22.0]
    parent = [-1, 0, 1, 0, -1]
    own = tracer.own_times(start, end, parent)
    assert own == [3.0, 2.0, 1.0, 4.0, 2.0]
    assert tracer.self_times(layer, own, 3) == [5.0, 6.0, 1.0]
    roots = sum(e - s for s, e, p in zip(start, end, parent) if p < 0)
    assert sum(own) == roots == 12.0


def test_tracer_counts_spans_and_restores_the_program():
    from adaptt import elaborate
    before = (normalize.cast, elaborate.infer_tm, check.infer_tm)
    t = tracer.Tracer()
    t.install()
    try:
        assert normalize.cast is not before[0]
        assert elaborate.infer_tm is check.infer_tm
        kc = gen.kernel_case(random.Random(0), 3)
        assert normalize.cast(kc.src, kc.ad) == kc.cast_expected
    finally:
        t.uninstall()
    assert (normalize.cast, elaborate.infer_tm, check.infer_tm) == before
    assert t.calls["normalize.cast"] > 1
    assert t.rules["CAST_CONSTR"] == 4
    assert t.layer[0] == tracer.LAYER_NAMES.index("normalize.rewrite")
    assert t.parent[0] == -1
    # a span opens only where control changes layer
    assert all(t.layer[i] != t.layer[p]
               for i, p in enumerate(t.parent) if p >= 0)
    own = t.own_times()
    assert all(x >= 0 for x in own)


def test_tracer_skips_functions_the_program_lacks(monkeypatch):
    layers = dict(tracer.LAYERS)
    layers["syntax"] = ("syntax", ("shift", "no_such_function",
                                   "NoSuchClass.method"))
    monkeypatch.setattr(tracer, "LAYERS", layers)
    from adaptt import syntax
    shift = syntax.shift
    t = tracer.Tracer()
    t.install()
    try:
        assert syntax.shift is not shift
    finally:
        t.uninstall()
    assert syntax.shift is shift


# -- statistics ------------------------------------------------------------------


def test_loglog_slope_recovers_the_exponent():
    sizes = [24, 48, 96, 192]
    assert stats.loglog_slope(sizes, [3 * n ** 2 for n in sizes]) == \
        pytest.approx(2.0)
    assert stats.loglog_slope(sizes, [0.5 * n for n in sizes]) == \
        pytest.approx(1.0)
    noisy = [n ** 1.5 * (1.1 if i % 2 else 0.9) for i, n in enumerate(sizes)]
    assert 1.3 < stats.loglog_slope(sizes, noisy) < 1.7


def test_growth_takes_medians_over_rounds():
    rounds = [{10: 1.0, 20: 4.0}, {10: 1.0, 20: 4.0}, {10: 9.0, 20: 1.0}]
    med, slope = stats.growth(rounds)
    assert med == {10: 1.0, 20: 4.0}
    assert slope == pytest.approx(2.0)
    assert stats.growth([{10: 0.0, 20: 1.0}])[1] == 0.0


def test_percentile_matches_statistics():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == statistics.median(values)
    assert stats.percentile(values, 90) == pytest.approx(90.1)


def test_host_speed_scales():
    chunks = [hostspeed.REFERENCE_S * 2] * 5
    assert hostspeed.scales(chunks) == [0.5] * 5
    spiky = [1.0, 1.0, 9.0, 1.0, 1.0]
    assert hostspeed.scales(spiky)[2] == hostspeed.REFERENCE_S
    assert math.isfinite(hostspeed.chunk_seconds())


def test_benchmark_json_lists_what_a_run_reports():
    import json
    from perfbench import run
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.E2E_UNITS.items())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        [(n, run.per_layer_unit(n)) for n in run.per_layer_names()]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
