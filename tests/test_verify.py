import enum
import itertools
import json
import math
import multiprocessing
from pathlib import Path

import pytest

from znhg.arith import Factorization, factorize, factorize_range
from znhg.hypergraph import build_intersection_hypergraph
from znhg.metrics import has_host_tree
from znhg.verify import (ALL_CHECKS, AnalysisReport, analyze, cached_host_tree,
                         dumps, render_report, render_sweep, run_sweep,
                         sweep_to_json)


def test_analyze_30():
    r = analyze(30)
    assert r.vertices == (2, 3, 5, 6, 10, 15)
    # hyperedges are positions into vertices, as in Hypergraph.edges
    assert r.edges == ((0, 5), (1, 4), (2, 3), (3, 4, 5))
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


def _assert_json_round_trips(r):
    # to_json writes the label arrays by hand; json.dumps is the reference
    text = r.to_json()
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True), r.n
    back = AnalysisReport.from_json(text)
    assert back == r, r.n
    h = build_intersection_hypergraph(factorize(r.n))
    assert back.edges == h.edges, r.n
    assert json.loads(text)["edges"] == [list(e) for e in h.edge_label_sets()]


def _assert_text_hyperedges(r):
    # render_report maps positions to labels; h's own label sets are the
    # reference for its hyperedge line
    labels = build_intersection_hypergraph(factorize(r.n)).edge_label_sets()
    line = f"hyperedges ({len(labels)}): " + " ".join(
        "{" + ",".join(map(str, e)) + "}" for e in labels)
    lines = render_report(r).splitlines()
    assert (line in lines) == bool(labels), r.n
    assert sum(x.startswith("hyperedges") for x in lines) == bool(labels), r.n


def test_report_json_round_trip():
    # prime powers (empty arrays), stars, squarefree, nonplanar,
    # genus-one and omega up to 4 occur below 2000; the last three n
    # have omega 5, 6 and 6
    for n in [*range(2, 2001), 2310, 30030, 720720]:
        r = analyze(n)
        _assert_json_round_trips(r)
        _assert_text_hyperedges(r)


def test_report_json_with_labels_above_a_million():
    r = analyze(2 * 1000003 * 1000033)
    assert sorted(r.vertices)[1] > 10**6
    _assert_json_round_trips(r)
    _assert_text_hyperedges(r)


GOLDEN = Path(__file__).parent / "golden"
WRITER_CORPUS = [
    *(json.loads(p.read_text()) for p in sorted(GOLDEN.glob("*.json"))),
    "caf\u00e9 \u2203 \U0001d4b5 \"quoted\" back\\slash \t\n\r\x00\x1f\x7f",
    {"\u00e9": "\u00e9", "a\"b": ["\\", "\x08\x0c"], "": ""},
    {}, [], (), [{}], [[]], {"a": {}}, {"a": []}, [[[], {}], {"b": [{}]}],
    {"x": {"y": {"z": {}}}, "w": [[[[]]]]},
    [{"n": 30, "check": "diameter"}, {"n": 42, "check": "girth"}],
    [True, 1, False, 0, None], {"t": True, "o": 1, "f": False, "z": 0},
    [-1, -10**12, 0, 10**300 + 7, -(10**299) - 3],
    (1, (2, (3, ())), [4, (5,)]),
    {"b": 1, "a": 2, "B": 3, "_": 4, "a0": 5, "\u00e9": 6, "aa": 7},
]


@pytest.mark.parametrize("value", WRITER_CORPUS)
def test_dumps_matches_json_dumps(value):
    assert dumps(value) == json.dumps(value, indent=2, sort_keys=True)


class _Level(enum.IntEnum):
    ONE = 1


@pytest.mark.parametrize("value", [1.5, math.inf, {1, 2}, {1: "a"},
                                   [1, {"a": [0.0]}], _Level.ONE])
def test_dumps_refuses_other_types(value):
    # json.dumps would write these, some of them differently; an
    # unsupported value never yields bytes
    with pytest.raises(TypeError):
        dumps(value)


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
    # each worker fills its own clique cache; 2310 is the first n of omega 5
    checks = [c for c in ALL_CHECKS if c != "planarity"]
    a, b, c = (run_sweep(2, 2400, checks, jobs=jobs) for jobs in (1, 1, 2))
    assert sweep_to_json(a) == sweep_to_json(b) == sweep_to_json(c)
    assert render_sweep(a) == render_sweep(b) == render_sweep(c)


def test_sweep_output_is_unchanged_when_the_memos_evict(monkeypatch):
    # a budget of 64 hyperedges keeps almost nothing, so the sweep
    # rebuilds and re-compares most n; jobs = 2 forks workers that
    # inherit the patched budget
    from znhg import hypergraph, metrics, verify as v

    want = sweep_to_json(run_sweep(2, 3000))
    monkeypatch.setattr(hypergraph, "EDGE_BUDGET", 64)
    for memo in (hypergraph._index_edges, metrics._maps_edges_onto):
        memo.cache_clear()
    for jobs in (1, 2):
        v._pattern_base.cache_clear()
        assert sweep_to_json(run_sweep(2, 3000, jobs=jobs)) == want, jobs
    for memo in (hypergraph._index_edges, metrics._maps_edges_onto):
        assert 0 < memo.pinned <= 64


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


def test_no_host_tree_yes_escapes_verification(monkeypatch):
    # n = 30 has a host tree; if its check fails, no "yes" may come back,
    # and the rejection is an "uncertified" finding, not an exception
    from znhg import verify as v

    monkeypatch.setattr(v.metrics, "verify_host_tree", lambda h, tree: False)
    r = analyze(30)
    assert r.computed["host_tree"] == "uncertified"
    assert r.agreement["hypertree"].computed == "uncertified"
    assert r.findings == ["hypertree"]
    r = run_sweep(30, 30, ("hypertree",))
    assert [(x.n, x.check, x.computed, x.predicted) for x in r.findings] == [
        (30, "hypertree", "uncertified", "yes")]


def test_sweep_decides_every_host_tree_with_a_large_limit():
    r = run_sweep(2, 5000, ("hypertree",), host_tree_limit=10**6)
    assert r.hypertree_unknown == 0
    assert r.total_findings == 0


def test_proper_split_certifies_chromatic_two_without_search(monkeypatch):
    from znhg import verify as v

    def no_search(h):
        raise AssertionError("chromatic backtracking called")

    monkeypatch.setattr(v.metrics, "chromatic_number", no_search)
    assert run_sweep(2, 5000, ("chromatic",)).total_findings == 0
    assert analyze(360).findings == []


def test_improper_split_is_an_uncertified_finding(monkeypatch):
    # an improper A/B split proves nothing, so every n with an edge gets
    # an "uncertified" chromatic number and no search runs
    from znhg import verify as v

    def improper(f, h):
        raise v.metrics.ColoringContradiction("forced")

    monkeypatch.setattr(v.metrics, "constructive_two_coloring", improper)
    r = run_sweep(2, 200, ("chromatic",))
    assert [(f.n, f.check, f.computed, f.predicted) for f in r.findings] == [
        (f.n, "chromatic", "uncertified", "2")
        for f in factorize_range(2, 200) if f.omega >= 2]
    report = analyze(30)
    assert report.findings == ["chromatic"]
    assert report.computed["chromatic"] == "uncertified"
    assert report.computed["two_coloring_proper"] is False


def test_z_n_path_runs_no_isomorphism_search(monkeypatch):
    # the iso check and the host-tree cache use explicit bijections only
    from znhg import verify as v

    def no_search(h1, h2):
        raise AssertionError("isomorphism search called")

    monkeypatch.setattr(v.metrics, "isomorphic", no_search)
    assert run_sweep(2, 400, ALL_CHECKS).total_findings == 0
    assert analyze(360).findings == []


def test_iso_check_verifies_the_explicit_map(monkeypatch):
    # the intersection hypergraph of 30 is isomorphic to its co-maximal
    # hypergraph, but not through d -> 30/d, so the check must fail; and
    # each n gets its own iso row, not the one of the n0 it carries from
    from znhg import verify as v

    real_comaximal = v.build_comaximal_hypergraph
    monkeypatch.setattr(v, "build_comaximal_hypergraph",
                        build_intersection_hypergraph)
    r = run_sweep(30, 30, ("iso",))
    assert [(f.n, f.check, f.computed) for f in r.findings] == [
        (30, "iso", "NOT isomorphic")]
    monkeypatch.setattr(v, "build_comaximal_hypergraph", lambda f: (
        build_intersection_hypergraph if f.n == 42 else real_comaximal)(f))
    v._pattern_base.cache_clear()
    r = run_sweep(2, 60, ("iso",))
    assert [(f.n, f.check, f.computed) for f in r.findings] == [
        (42, "iso", "NOT isomorphic")]


def test_sweep_counts_unknown_hypertrees():
    r = run_sweep(2, 1000, ("hypertree",))
    assert r.hypertree_unknown > 0
    assert r.compared["hypertree"] + r.hypertree_unknown == len(
        [f for f in factorize_range(2, 1000) if f.omega >= 2])


def test_computed_disagreement_reported_by_analyze_and_sweep(monkeypatch):
    from znhg import verify as v

    real_diameter = v._certified_diameter

    def wrong_diameter(f, h):
        value = real_diameter(f, h)
        return 99 if value == 3 else value

    monkeypatch.setattr(v, "_certified_diameter", wrong_diameter)
    r = analyze(30)
    assert r.findings == ["diameter"]
    cmp = r.agreement["diameter"]
    assert (cmp.computed, cmp.predicted, cmp.agree) == (99, 3, False)
    s = run_sweep(30, 30, ("diameter",))
    assert [(f.n, f.check, f.computed, f.predicted) for f in s.findings] == [
        (30, "diameter", "99", "3")]


def test_no_diameter_girth_or_star_search_for_n_up_to_5000(monkeypatch):
    # every n with omega >= 2 gets a certificate its checker accepts
    from znhg import metrics

    def searched(h):
        raise AssertionError("searched instead of certified")

    for name in ("diameter", "girth", "is_star"):
        monkeypatch.setattr(metrics, name, searched)
    r = run_sweep(2, 5000, ("diameter", "girth", "star"))
    assert r.total_findings == 0
    assert r.compared["diameter"] == len(
        [f for f in factorize_range(2, 5000) if f.omega >= 2])
    assert analyze(2**3 * 3**3 * 5 * 7).findings == []


def test_rejected_certificates_are_uncertified_findings(monkeypatch):
    # a checker that rejects every certificate leaves no value to report
    from znhg import classify, metrics

    for name in ("check_diameter", "check_girth", "check_star"):
        monkeypatch.setattr(metrics, name, lambda h, *certificate: False)
    r = run_sweep(2, 500, ("diameter", "girth", "star"))
    expected = []
    for f in factorize_range(2, 500):
        if f.omega >= 2:
            pred = classify.predict(f)
            expected += [
                (f.n, "diameter", "uncertified", str(pred.diameter)),
                (f.n, "girth", "uncertified",
                 "infinite" if pred.girth == math.inf else str(pred.girth)),
                (f.n, "star", "uncertified", str(pred.star))]
    assert [(f.n, f.check, f.computed, f.predicted)
            for f in r.findings] == expected
    assert r.total_findings == 1155


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

        def imap(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(v.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    checks = ("diameter", "hypertree")
    serial = render_sweep(run_sweep(2, 80, checks))
    assert render_sweep(run_sweep(2, 80, checks, jobs=1000)) == serial
    assert render_sweep(run_sweep(2, 80, checks, jobs=2)) == serial
    assert pools == [3, 2]
    for jobs in (0, -4):
        with pytest.raises(ValueError):
            run_sweep(2, 80, checks, jobs=jobs)
    assert pools == [3, 2]


def _first_of_pattern(fs) -> dict:
    """n -> the first n of fs with its sorted exponent pattern; a prime
    power p^a has the pattern (a,)."""
    first = {}
    return {f.n: first.setdefault(tuple(sorted(f.exponents)), f.n)
            for f in fs}


def test_sweep_factors_each_n_where_it_evaluates_it(monkeypatch):
    # one ascending pass factors each n once, with no list of the range
    # built first; _evaluate runs right after the first n of each
    # pattern, prime powers included, and on no other n.  Under jobs > 1
    # the workers factor their own n, so the parent factors none.  A
    # range past the limit is refused before anything is factored
    from znhg import verify as v
    from znhg.arith import RANGE_LIMIT

    firsts = _first_of_pattern(factorize_range(2, 60))
    events = []
    real_factorize, real_evaluate = v.factorize, v._evaluate

    def factorize(n):
        events.append(("factor", n))
        return real_factorize(n)

    def evaluate(f, *args):
        events.append(("evaluate", f.n))
        return real_evaluate(f, *args)

    monkeypatch.setattr(v, "factorize", factorize)
    monkeypatch.setattr(v, "_evaluate", evaluate)
    run_sweep(2, 60, ("diameter", "emptiness"))
    assert events == [(kind, n) for n in range(2, 61)
                      for kind in ("factor", "evaluate")
                      if kind == "factor" or firsts[n] == n]
    assert sum(kind == "evaluate" for kind, _ in events) == 12
    events.clear()
    with pytest.raises(ValueError, match="limited"):
        run_sweep(2, RANGE_LIMIT + 1, ("emptiness",))
    assert events == []
    monkeypatch.setattr(v.os, "cpu_count", lambda: 2)
    run_sweep(2, 60, ("diameter", "emptiness"), jobs=2)
    assert events == []
    with pytest.raises(ValueError, match="limited"):
        run_sweep(2, RANGE_LIMIT + 1, ("emptiness",), jobs=2)
    assert events == []


def _per_n_sweep(builds, lo, hi, checks, host_tree_limit=9):
    """run_sweep's result from the per-n reference path alone: every n
    goes through _sweep_one on its own hypergraph."""
    from znhg import verify as v

    checks = tuple(c for c in ALL_CHECKS if c in checks)
    result = v.SweepResult(lo, hi, checks, host_tree_limit,
                           compared={c: 0 for c in checks})
    for n in range(lo, hi + 1):
        _, rows, unknown = v._sweep_one(*builds[n], checks, host_tree_limit)
        result.hypertree_unknown += unknown
        for check, _, _, _, agree, computed, predicted in rows:
            result.compared[check] += 1
            if not agree:
                result.findings.append(v.Finding(n, check, computed, predicted))
    return result


@pytest.mark.parametrize("checks", [ALL_CHECKS, ("planarity",)],
                         ids=["every check", "planarity"])
def test_carried_sweep_matches_the_per_n_path(builds5000, checks):
    # rows carried by a checked prime relabelling are the rows the per-n
    # path computes; 2..5000 spans two blocks under jobs > 1, and a range
    # that starts at 2311, first on a cold cache, carries most of its
    # patterns from a smallest n that lies outside it
    for lo in (2311, 2):
        want = sweep_to_json(_per_n_sweep(builds5000, lo, 5000, checks))
        for jobs in (1, 2):
            assert sweep_to_json(run_sweep(lo, 5000, checks,
                                           jobs=jobs)) == want


@pytest.mark.parametrize("jobs", [1, 2])
def test_refused_relabelling_makes_each_carried_row_uncertified(
        monkeypatch, builds5000, jobs):
    # sigma = identity maps h0 onto itself, not onto n's hypergraph, so
    # the check refuses it on every carried n but a prime power, whose h0
    # and sigma are empty; the rows of each n0 and of each prime power,
    # and every iso row, stay as the per-n path has them
    from znhg import verify as v

    reference = _per_n_sweep(builds5000, 2, 1000, ALL_CHECKS)
    assert reference.findings == []
    firsts = _first_of_pattern(f for f, _ in builds5000.values())
    want = []
    for n in range(2, 1001):
        if firsts[n] == n or builds5000[n][0].omega < 2:
            continue
        _, rows, _ = v._sweep_one(*builds5000[n], ALL_CHECKS, 9)
        want += [(n, check, "uncertified", predicted)
                 for check, _, _, _, _, _, predicted in rows if check != "iso"]
    # sigma from n0 onto itself fixes each label, so it gives h0's labels
    real_relabelling = v._relabelling
    monkeypatch.setattr(v, "_relabelling", lambda vectors0, f: real_relabelling(
        vectors0, v._smallest(tuple(sorted(f.exponents)))))
    r = run_sweep(2, 1000, ALL_CHECKS, jobs=jobs)
    assert [(f.n, f.check, f.computed, f.predicted)
            for f in r.findings] == want
    assert {check for _, check, _, _ in want} == set(ALL_CHECKS) - {"iso"}
    assert r.compared == reference.compared
    assert r.hypertree_unknown == reference.hypertree_unknown


def test_a_prime_power_with_a_wrong_build_is_an_uncertified_finding(
        monkeypatch):
    # 9 carries the pattern (2,) from 4, whose hypergraph is empty; the
    # empty relabelling is refused onto the nonempty hypergraph of 6
    from znhg import verify as v

    real_build = v.build_intersection_hypergraph
    six = real_build(v.factorize(6))
    monkeypatch.setattr(v, "build_intersection_hypergraph",
                        lambda f: six if f.n == 9 else real_build(f))
    r = run_sweep(2, 30, ("emptiness",))
    assert [(f.n, f.check, f.computed, f.predicted)
            for f in r.findings] == [(9, "emptiness", "uncertified", "True")]


def test_a_label_foreign_to_n0_is_an_uncertified_finding(monkeypatch):
    # 7 divides no n of the pattern (1, 1) at 6, so no relabelling of h0
    # exists; 10 carries from 6 and reports each row as uncertified
    from znhg import verify as v
    from znhg.hypergraph import Hypergraph

    real_build = v.build_intersection_hypergraph
    foreign = Hypergraph((2, 7), ((0, 1),))
    monkeypatch.setattr(v, "build_intersection_hypergraph",
                        lambda f: foreign if f.n == 6 else real_build(f))
    r = run_sweep(2, 12, ("emptiness", "single-edge"))
    assert [(f.n, f.check, f.computed, f.predicted) for f in r.findings] == [
        (10, "emptiness", "uncertified", "False"),
        (10, "single-edge", "uncertified", "True")]


def test_a_sweep_builds_nothing_for_an_n_that_carries_nothing(monkeypatch):
    # a planarity sweep has no row at a prime power, and no iso row is
    # due, so its hypergraph is not built; with emptiness selected there
    # is a row, and it is, from n = 2 on.  The bases are warmed first,
    # since a prime power's base builds 2^a
    from znhg import verify as v

    want = sweep_to_json(run_sweep(2, 1000, ("planarity",)))
    run_sweep(2, 1000, ("emptiness",))
    real_build = v.build_intersection_hypergraph

    def build(f):
        if f.omega == 1:
            raise AssertionError(f"built the prime power {f.n}")
        return real_build(f)

    monkeypatch.setattr(v, "build_intersection_hypergraph", build)
    assert sweep_to_json(run_sweep(2, 1000, ("planarity",))) == want
    with pytest.raises(AssertionError, match="built the prime power 2$"):
        run_sweep(2, 1000, ("emptiness",))


def test_exponent_table_holds_one_entry_per_pattern_or_base():
    from znhg import verify as v

    v._exponent_vectors.cache_clear()
    run_sweep(2, 5000)
    patterns = {tuple(sorted(f.exponents)) for f in factorize_range(2, 5000)}
    assert 0 < v._exponent_vectors.cache_info().currsize <= (
        len(patterns) + len(v._BASES))


def test_a_break_at_a_base_shows_on_every_later_n_of_its_pattern(monkeypatch):
    # 30 is the smallest n of (1, 1, 1), so every later (1, 1, 1) n
    # carries its broken diameter, whichever block evaluates it, and a
    # range that starts past 30 still does: it carries from 30 too, kept
    # from the sweeps before it or evaluated again on a cold cache
    from znhg import verify as v

    real_diameter = v._certified_diameter

    def broken_at_30(f, h):
        return 99 if f.n == 30 else real_diameter(f, h)

    monkeypatch.setattr(v, "_certified_diameter", broken_at_30)
    monkeypatch.setattr(v, "_BLOCK", 100)
    want = [(f.n, "diameter", "99", "3") for f in factorize_range(30, 1000)
            if f.exponents == (1, 1, 1)]
    for jobs in (1, 2):
        r = run_sweep(2, 1000, ("diameter",), jobs=jobs)
        assert [(f.n, f.check, f.computed, f.predicted)
                for f in r.findings] == want
    assert len(want) == 135
    for clear in (False, True):
        if clear:
            v._pattern_base.cache_clear()
        r = run_sweep(31, 1000, ("diameter",))
        assert [(f.n, f.check, f.computed, f.predicted)
                for f in r.findings] == want[1:]


def test_sweep_evaluates_each_pattern_once(monkeypatch):
    # guards the carry against a silent fallback to the per-n path
    from znhg import verify as v

    fs = factorize_range(2, 5000)
    evaluated = []
    real_evaluate = v._evaluate

    def evaluate(f, *args):
        evaluated.append(f.n)
        return real_evaluate(f, *args)

    monkeypatch.setattr(v, "_evaluate", evaluate)
    assert run_sweep(2, 5000, ("diameter", "emptiness")).total_findings == 0
    patterns = {tuple(sorted(f.exponents)) for f in fs}
    assert len(evaluated) == len(patterns)
    assert evaluated == sorted(set(_first_of_pattern(fs).values()))


def test_every_n_checks_its_own_iso_row_in_every_sweep(monkeypatch):
    # a warm pattern base holds no iso row, so the second sweep checks
    # d -> n/d at each n0 again, as at every other n with an edge
    from znhg import verify as v

    checked = []
    real_iso_row = v._iso_row

    def iso_row(f, h):
        checked.append(f.n)
        return real_iso_row(f, h)

    monkeypatch.setattr(v, "_iso_row", iso_row)
    want = [f.n for f in factorize_range(2, 1000) if f.omega >= 2]
    for _ in range(2):
        checked.clear()
        assert run_sweep(2, 1000, ("iso",), jobs=1).total_findings == 0
        assert checked == want


def test_smallest_is_the_first_n_of_each_pattern():
    # built without factoring: the exponents, in descending order, on the
    # first primes
    from znhg import verify as v

    firsts = {}
    for f in factorize_range(2, 10**5):
        if f.omega >= 2:
            firsts.setdefault(tuple(sorted(f.exponents)), f)
    assert len(firsts) == 143
    assert [p for p, f in firsts.items() if v._smallest(p) != f] == []


def test_successive_sweeps_evaluate_each_pattern_once_in_all(monkeypatch):
    # a process keeps each pattern's base across sweeps, and a warm base
    # gives the bytes a cold one gives
    from znhg import verify as v

    evaluated = []
    real_evaluate = v._evaluate

    def evaluate(f, *args):
        evaluated.append(f.n)
        return real_evaluate(f, *args)

    monkeypatch.setattr(v, "_evaluate", evaluate)
    ranges = [(2, 1500), (700, 3000)]
    warm = [sweep_to_json(run_sweep(lo, hi, ALL_CHECKS)) for lo, hi in ranges]
    fs = factorize_range(2, 3000)
    assert sorted(evaluated) == sorted(set(_first_of_pattern(fs).values()))
    for (lo, hi), text in zip(ranges, warm):
        v._pattern_base.cache_clear()
        assert sweep_to_json(run_sweep(lo, hi, ALL_CHECKS)) == text


def test_lifted_witness_exists_exactly_for_nonplanar_patterns(builds5000):
    # the embedding lemma: every nonplanar pattern dominates a base, no
    # planar one does, and the shifted witness is a Kuratowski subdivision
    # of n's own incidence graph
    from znhg import classify, topology
    from znhg import verify as v

    lifted = 0
    for f, h in builds5000.values():
        if f.omega < 2:
            continue
        res = v._lifted_planarity(f, h)
        assert (res is not None) == (not classify.predict(f).planar), f.n
        if res is not None:
            lifted += 1
            assert not res.planar
            kind = topology.verify_kuratowski_witness(
                topology.incidence_graph(h), res.witness)
            assert kind == res.witness_kind, f.n
    assert lifted == 812


def test_stored_witnesses_are_the_oracles_on_each_base():
    # the data's provenance, checked without the search that produced it:
    # on its own key sigma is the identity and the cofactor 1, so each
    # stored witness lifts onto exactly its own edges, and each is a K33
    # that the LR test finds nonplanar and planar once any one edge is
    # removed, the edge-minimality that its extraction guaranteed
    import networkx as nx

    from znhg import topology
    from znhg import verify as v

    assert [f0.n for f0 in v._BASES] == [216, 180, 120, 210]
    for f0 in v._BASES:
        h = build_intersection_hypergraph(f0)
        assert v._dominated_base(f0.exponents) is f0
        kind, base_edges = v._BASE_WITNESSES[f0.n]
        node = {d: i for i, d in enumerate(h.vertices)}
        node.update((frozenset(e), len(h.vertices) + j)
                    for j, e in enumerate(h.edge_label_sets()))
        stored = topology.simple_graph(
            len(h.vertices) + len(h.edges),
            [(node[d], node[c]) for d, c in base_edges])
        lifted = v._lifted_planarity(f0, h)
        assert lifted.witness == stored, f0.n
        assert kind == lifted.witness_kind == "K33"
        edges = stored.sorted_edges()
        assert not nx.check_planarity(nx.Graph(edges))[0], f0.n
        for drop in edges:
            assert nx.check_planarity(
                nx.Graph([e for e in edges if e != drop]))[0], (f0.n, drop)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _dominates(exponents, base_exponents):
    alpha = sorted(exponents, reverse=True)
    beta = sorted(base_exponents, reverse=True)
    return len(beta) <= len(alpha) and all(
        b <= a for a, b in zip(alpha, beta))


def test_prime_map_lifts_compatibility_exactly():
    # the lift lemma on divisors alone: for every base n0 that n
    # dominates, d -> sigma(d) * n / sigma(n0) is injective on the
    # divisors of n0, lands on divisors of n, and has lcm(d, d') = n0 iff
    # the images have lcm n, which is compatibility; for n of n0's own
    # pattern sigma is a bijection of divisors taking n0 to n
    from znhg import verify as v

    pairs = 0
    for f in factorize_range(2, 3000):
        for f0 in v._BASES:
            if not _dominates(f.exponents, f0.exponents):
                continue
            pairs += 1
            divisors = _divisors(f0.n)
            sigma = v._prime_map(f0, f)
            assert sorted(sigma) == divisors
            cofactor, rest = divmod(f.n, sigma[f0.n])
            assert rest == 0, (f.n, f0.n)
            lam = {d: sigma[d] * cofactor for d in divisors}
            assert len(set(lam.values())) == len(divisors), (f.n, f0.n)
            assert all(f.n % image == 0 for image in lam.values())
            for d, e in itertools.combinations(divisors, 2):
                assert ((math.lcm(d, e) == f0.n)
                        == (math.lcm(lam[d], lam[e]) == f.n)), (f.n, d, e)
            if sorted(f.exponents) == sorted(f0.exponents):
                assert cofactor == 1
                assert sorted(sigma.values()) == _divisors(f.n)
    assert pairs == 497


def _smallest_n(pattern):
    factors = tuple(zip((2, 3, 5, 7, 11, 13), pattern))
    return Factorization(math.prod(p**a for p, a in factors), factors)


def test_a_base_is_dominated_exactly_by_the_nonplanar_patterns():
    # every sorted pattern with 2 to 6 primes and exponents up to 8, far
    # past the patterns of n <= 5000: a base is found iff the classifier
    # says nonplanar, and each base is minimal, since lowering any one
    # exponent gives a planar pattern
    from znhg import classify
    from znhg import verify as v

    patterns = [p for k in range(2, 7)
                for p in itertools.combinations_with_replacement(range(1, 9), k)]
    assert len(patterns) == 2994
    for pattern in patterns:
        nonplanar = not classify.predict(_smallest_n(pattern)).planar
        assert (v._dominated_base(pattern) is not None) == nonplanar, pattern
    for f0 in v._BASES:
        for i in range(f0.omega):
            lowered = list(f0.exponents)
            lowered[i] -= 1
            pattern = tuple(sorted(a for a in lowered if a))
            assert v._dominated_base(pattern) is None, (f0.n, pattern)
            assert classify.predict(_smallest_n(pattern)).planar, pattern


def _planarity_findings(lo, hi, builds=None):
    """The n with a planarity finding, from run_sweep, or from the per-n
    reference path when builds are given."""
    r = (run_sweep(lo, hi, ("planarity",)) if builds is None
         else _per_n_sweep(builds, lo, hi, ("planarity",)))
    assert {f.computed for f in r.findings} <= {"uncertified"}
    return [f.n for f in r.findings]


@pytest.mark.parametrize("breakage", ["identity map", "truncated witness"])
def test_broken_lift_is_an_uncertified_finding(monkeypatch, builds5000,
                                               breakage):
    # a refused lift (an image not found, or a witness the Kuratowski
    # check rejects) leaves n without a certificate, and n is reported
    from znhg import classify
    from znhg import verify as v

    if breakage == "identity map":
        # the lift's sigma fixes each divisor of the base; a carry's sigma
        # comes from _relabelling and stays as it is
        monkeypatch.setattr(v, "_prime_map",
                            lambda f0, f: {d: d for d in v._exponent_vectors(f0)})
    else:
        for base, (kind, edges) in list(v._BASE_WITNESSES.items()):
            monkeypatch.setitem(v._BASE_WITNESSES, base, (kind, edges[:-1]))
    refused = [n for n, (f, h) in builds5000.items() if n <= 1000
               and v._dominated_base(f.exponents)
               and v._lifted_planarity(f, h) is None]
    assert _planarity_findings(2, 1000, builds5000) == refused
    # a sweep evaluates only the first n of each pattern and carries its
    # rows, so it reports n iff that n0 is refused; the identity map's
    # break depends on how the exponents sit on the primes, so there the
    # two differ
    firsts = _first_of_pattern(f for f, _ in builds5000.values() if f.n <= 1000)
    carried = [n for n, n0 in firsts.items() if n0 in refused]
    assert _planarity_findings(2, 1000) == carried
    assert (carried == refused) == (breakage == "truncated witness")
    nonplanar = [n for n, (f, _) in builds5000.items() if n <= 1000
                 and f.omega >= 2 and not classify.predict(f).planar]
    if breakage == "truncated witness":
        # every image is found, so the Kuratowski check is what refuses
        assert refused == nonplanar and len(refused) == 89
    else:
        # d -> d * n / n0 shifts each exponent of n0 on its own prime,
        # which is a lift exactly when n0 divides n
        assert set(refused) < set(nonplanar) and len(refused) == 72
        assert refused == [n for n in nonplanar if n % v._dominated_base(
            builds5000[n][0].exponents).n]


def test_no_bisection_for_an_n_that_dominates_a_base(monkeypatch):
    # every nonplanar n lifts a stored base witness and every planar n
    # gets a constructed embedding, so neither the LR test nor the
    # Kuratowski extraction that follows it runs
    from znhg import topology

    def searched(*args):
        raise AssertionError("searched instead of certified")

    for name in ("is_planar", "hypergraph_planar"):
        monkeypatch.setattr(topology, name, searched)
    r = run_sweep(2, 5000, ("planarity",))
    assert r.total_findings == 0
    assert r.compared["planarity"] == len(
        [f for f in factorize_range(2, 5000) if f.omega >= 2])
    r = analyze(2**3 * 3**3 * 5 * 7)
    assert r.findings == []
    assert r.computed["planar"] is False


def test_constructed_embedding_exists_exactly_for_planar_patterns(builds5000):
    # the incidence graph of every planar pattern is a forest plus at most
    # one subdivided theta graph, which topology.theta_rotation embeds;
    # each construction is a rotation system of n's own incidence graph
    # that passes the Euler check, and no nonplanar n gets one
    from znhg import classify, topology
    from znhg import verify as v

    constructed = 0
    for f, h in builds5000.values():
        if f.omega < 2:
            continue
        res = v._constructed_embedding(h)
        assert (res is not None) == classify.predict(f).planar, f.n
        if res is not None:
            constructed += 1
            assert res.planar
            assert topology.verify_rotation_system(
                topology.incidence_graph(h), res.rotation), f.n
    assert constructed == 3476


def _break_at_branch_node(real, which, damage):
    # the branch nodes are the nodes of degree >= 3 in networkx's 2-core,
    # found independently of theta_rotation's own leaf stripping
    import networkx as nx

    def rotation(g):
        found = real(g)
        core = nx.k_core(nx.Graph(list(g.edges)), 2)
        branch = sorted(v for v in core if core.degree(v) >= 3)
        if found is None or not branch:
            return found
        found = list(found)
        found[branch[which]] = damage(found[branch[which]])
        return tuple(found)
    return rotation


@pytest.mark.parametrize("which,damage", [
    (0, lambda order: order[:-1]),
    (1, lambda order: (order[1], order[0]) + order[2:]),
], ids=["truncated at the first branch node",
        "two paths swapped at the second branch node"])
def test_broken_embedding_is_an_uncertified_finding(monkeypatch, which,
                                                    damage):
    # a rotation the check rejects leaves n without a certificate, and n
    # is reported, on exactly the n whose incidence graph has a theta:
    # (2, b >= 3), the graph K_{2,b}, and (2, 1, 1).  Truncation fails
    # the neighbourhood check; with three or more paths, a swap at one
    # end of the theta draws it with a crossing, which fails Euler
    from znhg import topology

    monkeypatch.setattr(topology, "theta_rotation", _break_at_branch_node(
        topology.theta_rotation, which, damage))

    def broken(f):
        pattern = tuple(sorted(f.exponents, reverse=True))
        return (pattern == (2, 1, 1)
                or f.omega == 2 and min(f.exponents) == 2 < max(f.exponents))

    want = [f.n for f in factorize_range(2, 1000) if broken(f)]
    assert _planarity_findings(2, 1000) == want and len(want) == 94
