"""Tests of the benchmark's own logic.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 7)
    assert first == workloads.generate(workload, 7)
    assert len({tuple(r.argv for r in workloads.generate(workload, s))
                for s in range(1, 6)}) > 1
    # the request count, and so the tail percentile, does not depend on the seed
    assert {len(workloads.generate(workload, s)) for s in range(1, 6)} == {len(first)}


def test_wide_inputs_repeat_no_exponent_pattern():
    requests = workloads.generate("analyze-wide", 3)
    patterns = [tuple(sorted((a for _, a in req.expect[2]), reverse=True))
                for req in requests]
    assert len(set(patterns)) == len(patterns) > run.TAIL_BEYOND
    assert {len(p) for p in patterns} == set(workloads.WIDE_OMEGA)
    assert all(workloads.vertex_count(p) <= workloads.WIDE_MAX_VERTICES
               for p in patterns)


def test_bigprime_inputs_are_two_large_primes_times_a_small_cofactor():
    for req in workloads.generate("analyze-bigprime", 3):
        _, n, factors = req.expect
        large = [p for p, _ in factors if p >= workloads.SMALL_PRIME_RANGE[0]]
        assert len(large) == 2 and all(workloads.is_prime(p) for p in large)
        assert max(large) < workloads.LARGE_PRIME_LIMIT
        assert min(large) < workloads.SMALL_PRIME_RANGE[1]
        assert n == int(req.argv[1])


@pytest.mark.parametrize("count", [11, 40, 100, 137])
def test_tail_keeps_ten_samples_beyond(count):
    values = [float(v) for v in range(count, 0, -1)]
    value, percentile = run.tail(values)
    assert sum(1 for v in values if v > value) == 10
    assert percentile == pytest.approx(100.0 * (count - 10) / count)


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_latencies_are_scaled_by_the_reference_job():
    requests = [workloads.Request(("analyze", str(n), "--json"), 1, ())
                for n in range(2, 22)]
    costs = [0.01 * (i + 1) for i in range(len(requests))]

    def round_at(slowdown):
        rows = [[c * slowdown, run.REFERENCE_S * slowdown, "digest", None]
                for c in costs]
        return {"rows": rows, "setup_s": 0.3, "peak_rss_mb": 40.0}

    summary = run.summarize(requests, [round_at(1.2), round_at(1.5),
                                       round_at(1.3)], None)
    assert summary["failed"] == 0 and summary["attempted"] == 60
    assert summary["e2e"]["n_per_s"] == pytest.approx(len(costs) / sum(costs))
    assert summary["e2e"]["latency_p50_s"] == pytest.approx(
        (costs[9] + costs[10]) / 2)
    assert summary["e2e"]["latency_tail_s"] == pytest.approx(costs[9])


def test_self_time_subtracts_direct_children_only():
    spans = [["a", -1, 0.0, 10.0, None],
             ["b", 0, 1.0, 4.0, None],
             ["c", 1, 2.0, 3.0, None],
             ["d", 0, 5.0, 9.0, None]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


@pytest.fixture
def fake_program(monkeypatch):
    """A two-function module whose outer() reaches inner() by global name."""
    package = types.ModuleType("fakeprog")
    layer = types.ModuleType("fakeprog.layer")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return inner(x) * inner(x)\n", layer.__dict__)
    monkeypatch.setitem(sys.modules, "fakeprog", package)
    monkeypatch.setitem(sys.modules, "fakeprog.layer", layer)
    return layer


def test_nested_call_records_parents_and_self_time(fake_program):
    tracer = tracing.Tracer()
    tracer.install([("layer.outer", "fakeprog.layer", "outer"),
                    ("layer.inner", "fakeprog.layer", "inner")], "fakeprog")
    assert fake_program.outer(2) == 9
    names = [s[0] for s in tracer.spans]
    parents = [s[1] for s in tracer.spans]
    assert names == ["layer.outer", "layer.inner", "layer.inner"]
    assert parents == [-1, 0, 0]
    outer, first, second = tracer.spans
    assert first[2] >= outer[2] and second[3] <= outer[3]
    own = tracing.self_times(tracer.spans)
    assert own[0] == pytest.approx((outer[3] - outer[2]) - (first[3] - first[2])
                                   - (second[3] - second[2]))
    metrics = tracing.layer_metrics(tracer, 0, 1e-6)
    assert metrics["trace.spans"] == 3
    assert metrics["trace.overhead_s"] == pytest.approx(3e-6)


def test_span_cost_is_positive():
    assert tracing.span_cost_s(calls=2000, repeats=3) > 0


def test_missing_target_is_reported_not_fatal(fake_program):
    tracer = tracing.Tracer()
    tracer.install([("layer.outer", "fakeprog.layer", "outer"),
                    ("layer.gone", "fakeprog.layer", "renamed_away"),
                    ("other.fn", "fakeprog.no_such_module", "fn")], "fakeprog")
    assert tracer.missing == ["layer.gone", "other.fn"]
    assert fake_program.outer(1) == 4
    assert [s[0] for s in tracer.spans] == ["layer.outer"]


def test_layer_metrics_mark_missing_targets_as_null():
    tracer = tracing.Tracer()
    tracer.missing = ["topology.lr", "verify.cached_host_tree"]
    metrics = tracing.layer_metrics(tracer, 0, 1e-6)
    assert metrics["topology.lr.calls"] is None
    assert metrics["topology.lr_calls_per_graph"] is None
    assert metrics["verify.host_tree_cache.hit_ratio"] is None
    assert metrics["metrics.diameter.calls"] == 0
    assert set(metrics) == set(tracing.metric_units())


def _cli_output(argv):
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from znhg import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_check_accepts_real_output_and_rejects_altered(workload):
    # the first sweep block, or the smallest n
    req = min(workloads.generate(workload, 1), key=lambda r: int(r.argv[1]))
    code, text = _cli_output(req.argv)
    assert workloads.check(req, code, text) is None
    doc = json.loads(text)
    if req.expect[0] == "sweep":
        doc["compared"][req.expect[3][0]] += 1
    else:
        next(iter(doc["agreement"].values()))["agree"] = False
    assert workloads.check(req, code, json.dumps(doc)) is not None
    assert workloads.check(req, 2, text) is not None


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == tracing.metric_units()
