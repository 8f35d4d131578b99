import json
import math

import pytest

from znhg.arith import factorize_range
from znhg.hypergraph import build_intersection_hypergraph
from znhg.metrics import has_host_tree
from znhg.verify import (ALL_CHECKS, AnalysisReport, analyze, cached_host_tree,
                         render_report, render_sweep, run_sweep)


def test_analyze_30():
    r = analyze(30)
    assert r.edges == ((2, 15), (3, 10), (5, 6), (6, 10, 15))
    assert r.computed["diameter"] == 3
    assert r.computed["girth"] == math.inf
    assert r.computed["star"] is False
    assert r.computed["host_tree"] == "yes"
    assert r.findings == []
    assert all(cmp.mode == "computed" for cmp in r.agreement.values())


def test_analyze_empty_case():
    r = analyze(8)
    assert r.vertices == ()
    assert list(r.agreement) == ["is_empty"]
    assert r.agreement["is_empty"].agree
    assert r.findings == []
    assert "empty" in render_report(r)


def test_analyze_rejects_small_n():
    with pytest.raises(ValueError):
        analyze(1)


def test_report_json_round_trip():
    # prime power, star, squarefree, nonplanar, genus-one, larger omega
    for n in (8, 12, 30, 210, 216, 360, 1296):
        r = analyze(n)
        again = AnalysisReport.from_json(r.to_json())
        assert again == r


def test_report_json_schema_field():
    doc = json.loads(analyze(12).to_json())
    assert doc["schema"] == "znhg/1"
    assert doc["verification_modes"]["planar"] == "computed"
    assert doc["verification_modes"]["genus_one"] == "formula-only"


def test_render_report_marks_formula_only():
    text = render_report(analyze(12))
    assert "formula-only" in text
    assert "all verifiable fields agree" in text


def test_run_sweep_zero_findings_small():
    r = run_sweep(2, 120, ALL_CHECKS)
    assert r.total_findings == 0
    assert r.compared["emptiness"] == 119
    assert r.compared["diameter"] == len(
        [f for f in factorize_range(2, 120) if f.omega >= 2])


def test_run_sweep_deterministic_and_parallel_identical():
    a = render_sweep(run_sweep(2, 200, ("diameter", "girth", "hypertree")))
    b = render_sweep(run_sweep(2, 200, ("diameter", "girth", "hypertree")))
    c = render_sweep(run_sweep(2, 200, ("diameter", "girth", "hypertree"),
                               jobs=2))
    assert a == b == c


def test_run_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        run_sweep(5, 2)
    with pytest.raises(ValueError):
        run_sweep(2, 10, ("diameter", "nonsense"))


def test_cached_host_tree_matches_direct_search():
    for f in factorize_range(2, 400):
        if f.omega < 2:
            continue
        h = build_intersection_hypergraph(f)
        if len(h.vertices) > 9:
            continue
        assert cached_host_tree(f, h, 9).status == has_host_tree(h, 9).status, f.n


def test_cached_host_tree_survives_poisoned_cache(monkeypatch):
    # an entry whose representative is not isomorphic to the query must be
    # ignored in favour of a direct search, never trusted
    from znhg import verify as v

    f = factorize_range(60, 60)[0]
    h = build_intersection_hypergraph(f)
    wrong_f = factorize_range(30, 30)[0]
    wrong_h = build_intersection_hypergraph(wrong_f)
    key = tuple(sorted(f.exponents))
    monkeypatch.setitem(v._host_tree_cache, key,
                        (wrong_h, has_host_tree(wrong_h, 9)))
    assert cached_host_tree(f, h, 9).status == "no"


def test_sweep_counts_unknown_hypertrees():
    r = run_sweep(2, 1000, ("hypertree",))
    assert r.hypertree_unknown > 0
    assert r.compared["hypertree"] + r.hypertree_unknown == len(
        [f for f in factorize_range(2, 1000) if f.omega >= 2])


def test_computed_disagreement_reported_by_analyze_and_sweep(monkeypatch):
    from znhg import verify as v

    real_diameter = v.metrics.diameter

    def wrong_diameter(h):
        value = real_diameter(h)
        return 99 if value == 3 else value

    monkeypatch.setattr(v.metrics, "diameter", wrong_diameter)
    r = analyze(30)
    assert r.findings == ["diameter"]
    cmp = r.agreement["diameter"]
    assert (cmp.computed, cmp.predicted, cmp.agree) == (99, 3, False)
    s = run_sweep(30, 30, ("diameter",))
    assert [(f.n, f.check, f.computed, f.predicted) for f in s.findings] == [
        (30, "diameter", "99", "3")]


def test_run_sweep_bounds_jobs(monkeypatch):
    # a fake pool records the process count and maps serially, so no
    # worker process is ever started
    from znhg import verify as v

    pools = []

    class FakePool:
        def __init__(self, processes):
            pools.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(v.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(v.multiprocessing, "Pool", FakePool)
    checks = ("diameter", "hypertree")
    serial = render_sweep(run_sweep(2, 80, checks))
    assert render_sweep(run_sweep(2, 80, checks, jobs=1000)) == serial
    assert render_sweep(run_sweep(2, 80, checks, jobs=2)) == serial
    assert pools == [3, 2]
    for jobs in (0, -4):
        with pytest.raises(ValueError):
            run_sweep(2, 80, checks, jobs=jobs)
    assert pools == [3, 2]
