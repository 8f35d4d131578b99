import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from znhg import cli, verify
from znhg.arith import factorize
from znhg.cli import main
from znhg.hypergraph import build_intersection_hypergraph
from znhg.verify import FieldComparison


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", [("analyze", "8"), ("analyze", "30"),
                                  ("analyze", "216"), ("sweep", "2", "120"),
                                  ("analyze", "840")])
def test_json_output_matches_golden(capsys, argv):
    # empty, planar, nonplanar with its witness, a sweep summary, and a
    # witness lifted onto 840 from a smaller base, 120
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out == (GOLDEN / ("_".join(argv) + ".json")).read_text()


# sha256 of `znhg analyze N --json` for each base and for three n with
# primes that the lift's sigma does not reach (2310 over 210, 720720 over
# 180, 9699690 over 210), as the full incidence graph checked them
NONPLANAR_JSON_SHA256 = {
    216: "84c81b1f6ebb572f1085292aa4168799b01b1bc7080059006f6253e98aaef580",
    180: "ed119b2d12da09bd568dbdc3c9249f58bd6c94c6c0fa2613de10212003e50c34",
    120: "16f4469cb19e43a3f906d6889dcf4efc09164f67576ceedf097737b2f554458c",
    210: "dd3da832db9799ee6c1d0e51e3748b56b67d5cbd7a7b5057c344b09265393fe9",
    2310: "d865745f554af6dc2b5c0c5d95d4356671035afc8ff0e15970dd0ada37846a5d",
    720720: "ecb80bbc2ab95afa79104b935c2a1971252a7a367cf155d1e1680a812389ee9f",
    9699690: "297c4383a324131d4b99dd57da1512ab09a7f6ac63c85edd031a047cd69b084b",
}


def test_nonplanar_analyze_builds_no_incidence_graph(capsys, monkeypatch):
    # the lifted witness is checked against n's hyperedges, so a
    # nonplanar analyze never builds the incidence graph, and its bytes
    # stay those of the check on the incidence graph
    from znhg import topology

    def built(h):
        raise AssertionError("incidence graph built")

    monkeypatch.setattr(topology, "incidence_graph", built)
    for n, digest in NONPLANAR_JSON_SHA256.items():
        code, out, err = run(capsys, "analyze", str(n), "--json")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, n


def test_analyze_and_export_build_no_label_tuples(capsys, monkeypatch):
    # the report and the exports hold hyperedges as positions into the
    # vertices, so no request converts them to label tuples, and their
    # bytes stay the goldens, the pinned hashes and the label sets' text
    from znhg.hypergraph import Hypergraph

    expected_json = {int(p.stem.split("_")[1]): p.read_text()
                     for p in GOLDEN.glob("analyze_*.json")}
    assert sorted(expected_json) == [8, 30, 216, 840]
    exports = {}
    lines = {}
    for n in [*expected_json, *NONPLANAR_JSON_SHA256]:
        labels = build_intersection_hypergraph(factorize(n)).edge_label_sets()
        lines[n] = f"hyperedges ({len(labels)}): " + " ".join(
            "{" + ",".join(map(str, e)) + "}" for e in labels)
    for n in (30, 216, 2310):
        for target in ("hypergraph", "incidence"):
            argv = ("export", str(n), "--format", "json", "--target", target)
            exports[argv] = run(capsys, *argv)

    def built(h):
        raise AssertionError("label tuples built")

    monkeypatch.setattr(Hypergraph, "edge_label_sets", built)
    for n in [*expected_json, *NONPLANAR_JSON_SHA256]:
        code, out, err = run(capsys, "analyze", str(n), "--json")
        assert (code, err) == (0, ""), n
        if n in expected_json:
            assert out == expected_json[n], n
        else:
            digest = hashlib.sha256(out.encode()).hexdigest()
            assert digest == NONPLANAR_JSON_SHA256[n], n
        code, out, err = run(capsys, "analyze", str(n))
        assert (code, err) == (0, ""), n
        if n == 8:
            assert "hyperedges" not in out and "empty" in out
        else:
            assert lines[n] in out.splitlines(), n
    for argv, before in exports.items():
        assert run(capsys, *argv) == before, argv


def test_analyze_30_json(capsys):
    code, out, _ = run(capsys, "analyze", "30", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["edges"] == [[2, 15], [3, 10], [5, 6], [6, 10, 15]]
    assert doc["computed"]["diameter"] == 3
    assert doc["computed"]["girth"] == "infinite"
    assert doc["computed"]["star"] is False
    assert doc["computed"]["host_tree"] == "yes"


def test_analyze_12_text(capsys):
    code, out, _ = run(capsys, "analyze", "12")
    assert code == 0
    assert "star" in out and "planar" in out
    assert "all verifiable fields agree" in out


def test_analyze_8_empty_notice(capsys):
    code, out, _ = run(capsys, "analyze", "8")
    assert code == 0
    assert "empty" in out


def test_analyze_usage_error(capsys):
    code, _, err = run(capsys, "analyze", "1")
    assert code == 1
    assert "error" in err


def test_analyze_host_tree_limit_flag(capsys):
    code, out, _ = run(capsys, "analyze", "60", "--host-tree-limit", "8",
                       "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["computed"]["host_tree"] == "unknown"
    assert "hypertree" not in doc["agreement"]


@pytest.mark.parametrize("argv", [("analyze", "210", "--host-tree-limit", "20"),
                                  ("sweep", "2", "30", "--host-tree-limit", "10")])
def test_host_tree_limit_above_default_decides(capsys, argv):
    # a limit above the default must decide, not hang: n = 210 has 14
    # vertices, and every n <= 30 has at most 10
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    doc = json.loads(out)
    if argv[0] == "analyze":
        assert doc["computed"]["host_tree"] == "no"
        assert doc["agreement"]["hypertree"]["agree"] is True
    else:
        assert doc["hypertree_unknown"] == 0


def test_analyze_exit_2_on_finding(capsys, monkeypatch):
    # no n in range disagrees with its prediction, so force one
    real = verify.analyze

    def tampered(n, limit=9):
        report = real(n, limit)
        agreement = dict(report.agreement)
        agreement["diameter"] = FieldComparison(99, report.predicted.diameter,
                                                False, "computed")
        return verify.AnalysisReport(
            report.n, report.factors, report.vertices, report.edges,
            report.computed, report.predicted, agreement,
            report.host_tree_limit)

    monkeypatch.setattr(verify, "analyze", tampered)
    code, out, _ = run(capsys, "analyze", "30")
    assert code == 2
    assert "FINDINGS" in out


def _diameter_3_reads_99(monkeypatch):
    real_diameter = verify._certified_diameter

    def wrong_diameter(f, h):
        value = real_diameter(f, h)
        return 99 if value == 3 else value

    monkeypatch.setattr(verify, "_certified_diameter", wrong_diameter)


def test_sweep_exit_2_on_finding(capsys, monkeypatch):
    _diameter_3_reads_99(monkeypatch)
    code, out, _ = run(capsys, "sweep", "2", "40", "--checks", "diameter")
    assert code == 2
    assert "FINDING n=30 diameter: computed=99 predicted=3" in out


def _rejecting(checker):
    def patch(monkeypatch):
        monkeypatch.setattr(verify.metrics, checker,
                            lambda h, *certificate: False)
    return patch


def _improper_split(monkeypatch):
    def improper(f, h):
        raise verify.metrics.ColoringContradiction("forced")
    monkeypatch.setattr(verify.metrics, "constructive_two_coloring", improper)


def _truncated_lift(monkeypatch):
    for base, (kind, edges) in list(verify._BASE_WITNESSES.items()):
        monkeypatch.setitem(verify._BASE_WITNESSES, base, (kind, edges[:-1]))


def _truncated_rotation(monkeypatch):
    real = verify.topology.theta_rotation

    def truncated(g):
        rotation = real(g)
        return rotation and tuple(order[:-1] for order in rotation)
    monkeypatch.setattr(verify.topology, "theta_rotation", truncated)


@pytest.mark.parametrize("patch,n,check,fld,predicted", [
    (_rejecting("check_diameter"), 30, "diameter", "diameter", "3"),
    (_rejecting("check_girth"), 30, "girth", "girth", "infinite"),
    (_rejecting("check_star"), 30, "star", "star", "False"),
    (_improper_split, 30, "chromatic", "chromatic", "2"),
    (_truncated_lift, 216, "planarity", "planar", "False"),
    (_truncated_rotation, 60, "planarity", "planar", "True"),
    (_rejecting("verify_host_tree"), 30, "hypertree", "hypertree", "yes"),
], ids=["diameter", "girth", "star", "chromatic", "nonplanar lift",
        "planar theta rotation", "host tree"])
def test_rejected_certificate_exits_2(capsys, monkeypatch, patch, n, check,
                                      fld, predicted):
    # a rejected certificate is reported as an "uncertified" finding,
    # never replaced by a searched value; hypertree's computed value is
    # reported as host_tree
    patch(monkeypatch)
    code, out, _ = run(capsys, "analyze", str(n), "--json")
    assert code == 2
    doc = json.loads(out)
    assert doc["computed"][{"hypertree": "host_tree"}.get(fld, fld)] == (
        "uncertified")
    assert doc["agreement"][fld]["computed"] == "uncertified"
    assert doc["agreement"][fld]["agree"] is False
    if check == "planarity":
        assert doc["computed"]["planarity_certificate_valid"] is False
        assert "planarity_witness" not in doc["computed"]
    code, out, _ = run(capsys, "sweep", str(n), str(n), "--checks", check)
    assert code == 2
    assert (f"FINDING n={n} {check}: computed=uncertified "
            f"predicted={predicted}") in out


def test_bad_subcommand_exits_1(capsys):
    assert run(capsys, "frobnicate")[0] == 1
    assert run(capsys, "export", "30", "--format", "svg",
               "--target", "incidence")[0] == 1


def test_sweep_small(capsys):
    code, out, _ = run(capsys, "sweep", "2", "100",
                       "--checks", "hypertree,emptiness")
    assert code == 0
    assert "total findings: 0" in out
    assert "hypertree" in out


def test_sweep_2000_core_invariants(capsys):
    code, out, _ = run(capsys, "sweep", "2", "2000",
                       "--checks", "diameter,girth,chromatic")
    assert code == 0
    assert "total findings: 0" in out


def test_sweep_500_isomorphism(capsys):
    code, out, _ = run(capsys, "sweep", "2", "500", "--checks", "iso")
    assert code == 0
    assert "iso: 385 compared, 0 findings" in out


def test_sweep_json(capsys):
    code, out, _ = run(capsys, "sweep", "2", "100",
                       "--checks", "diameter,girth", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "znhg/1"
    assert doc["total_findings"] == 0
    assert doc["compared"]["diameter"] == doc["compared"]["girth"] > 0


def test_sweep_rejects_unknown_check(capsys):
    code, _, err = run(capsys, "sweep", "2", "10", "--checks", "zzz")
    assert code == 1
    assert "unknown checks" in err


@pytest.mark.parametrize("checks", ["", ","])
def test_sweep_rejects_empty_checks(capsys, checks):
    code, out, err = run(capsys, "sweep", "2", "10", "--checks", checks)
    assert code == 1
    assert out == ""
    assert "znhg: error: no checks selected" in err


def test_sweep_rejects_jobs_below_one(capsys):
    code, _, err = run(capsys, "sweep", "2", "10", "--jobs", "0")
    assert code == 1
    assert "jobs" in err


def test_sweep_jobs_have_identical_output(capsys):
    _, out1, _ = run(capsys, "sweep", "2", "150", "--checks", "diameter,girth")
    _, out2, _ = run(capsys, "sweep", "2", "150", "--checks", "diameter,girth",
                     "--jobs", "2")
    assert out1 == out2


def test_group_dihedral_4(capsys):
    code, out, _ = run(capsys, "group", "dihedral", "4")
    assert code == 0
    assert "intersection hypergraph: 8 vertices, 4 hyperedges" in out
    assert "co-maximal hypergraph: 7 vertices, 5 hyperedges" in out
    assert "isomorphic: no" in out


def test_group_dihedral_3(capsys):
    code, out, _ = run(capsys, "group", "dihedral", "3")
    assert code == 0
    assert "intersection hypergraph: 4 vertices, 1 hyperedges" in out
    # literal set products make only <a> co-maximal with the reflections
    assert "co-maximal hypergraph: 4 vertices, 3 hyperedges" in out


def test_group_cyclic_30(capsys):
    code, out, _ = run(capsys, "group", "cyclic", "30")
    assert code == 0
    assert "isomorphic: yes" in out


def test_group_json(capsys):
    code, out, _ = run(capsys, "group", "dihedral", "4", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["intersection"]["edge_count"] == 4
    assert doc["comaximal"]["edge_count"] == 5
    assert doc["isomorphic"] is False


def _canonical(out: str) -> str:
    return json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("argv", [("cyclic", "12"), ("dihedral", "4")])
def test_group_json_bytes(capsys, argv):
    code, out, _ = run(capsys, "group", *argv, "--json")
    assert code == 0
    assert out == _canonical(out)


def test_sweep_json_bytes_with_findings(capsys, monkeypatch):
    # the golden sweep has no findings, so this pins a list of dicts
    _diameter_3_reads_99(monkeypatch)
    code, out, _ = run(capsys, "sweep", "2", "40", "--checks", "diameter",
                       "--json")
    assert code == 2
    assert json.loads(out)["findings"]
    assert out == _canonical(out)


def test_group_capability_error(capsys):
    code, _, err = run(capsys, "group", "cyclic", "999")
    assert code == 1
    assert "limit" in err


def incidence_reference(n):
    """The incidence export's nodes and links, built from h: v<d> for
    each vertex, e<j> for each hyperedge, links in ascending (vertex
    node, hyperedge node) order."""
    h = build_intersection_hypergraph(factorize(n))
    vertices = [f"v{d}" for d in h.vertices]
    hyperedges = [f"e{j}" for j in range(len(h.edges))]
    links = [[vertices[i], hyperedges[j]] for i, j in
             sorted((i, j) for j, e in enumerate(h.edges) for i in e)]
    return vertices, hyperedges, links


def test_export_dot_incidence(capsys):
    code, out, _ = run(capsys, "export", "30", "--format", "dot",
                       "--target", "incidence")
    vertices, hyperedges, links = incidence_reference(30)
    assert code == 0
    assert out == "".join(
        ["graph {\n"]
        + [f"  {v} [shape=circle];\n" for v in vertices]
        + [f"  {e} [shape=square];\n" for e in hyperedges]
        + [f"  {v} -- {e};\n" for v, e in links]
        + ["}\n"])
    assert len(vertices) + len(hyperedges) == 10 and len(links) == 9


def test_export_json_hypergraph(capsys):
    code, out, _ = run(capsys, "export", "6", "--format", "json",
                       "--target", "hypergraph")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6
    assert doc["vertices"] == [2, 3]
    assert doc["edges"] == [[2, 3]]
    assert doc["schema"] == "znhg/1"


def test_export_json_empty(capsys):
    code, out, _ = run(capsys, "export", "9", "--format", "json",
                       "--target", "hypergraph")
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == [] and doc["edges"] == []


@pytest.mark.parametrize("n", [360, 2310, 243])
def test_export_json_hypergraph_bytes(capsys, n):
    # the label arrays are written by hand; json.dumps is the reference
    code, out, _ = run(capsys, "export", str(n), "--format", "json",
                       "--target", "hypergraph")
    h = build_intersection_hypergraph(factorize(n))
    assert code == 0
    assert out == json.dumps({
        "schema": "znhg/1", "kind": "hypergraph", "n": n,
        "vertices": list(h.vertices),
        "edges": [list(e) for e in h.edge_label_sets()],
    }, indent=2, sort_keys=True) + "\n"


def test_export_json_incidence(capsys):
    code, out, _ = run(capsys, "export", "30", "--format", "json",
                       "--target", "incidence")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 10
    assert len(doc["links"]) == 9


@pytest.mark.parametrize("n", [30, 360, 2310, 243, 9699690])
def test_export_json_incidence_bytes(capsys, n):
    # the node and link arrays are written by hand as well
    code, out, _ = run(capsys, "export", str(n), "--format", "json",
                       "--target", "incidence")
    vertices, hyperedges, links = incidence_reference(n)
    assert code == 0
    assert out == json.dumps({
        "schema": "znhg/1", "kind": "incidence", "n": n,
        "nodes": vertices + hyperedges, "links": links,
    }, indent=2, sort_keys=True) + "\n"


def test_export_to_file(capsys, tmp_path):
    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, "export", "6", "--format", "dot",
                       "--target", "hypergraph", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("graph {")


def test_export_to_missing_directory_exits_1(capsys, tmp_path):
    target = tmp_path / "missing" / "out.json"
    code, out, err = run(capsys, "export", "12", "--format", "json",
                         "--target", "hypergraph", "--output", str(target))
    assert code == 1
    assert out == ""
    assert err.startswith("znhg: error:")
    assert not target.exists()


@pytest.mark.parametrize("argv", [("analyze", "30", "--host-tree-limit", "-1"),
                                  ("sweep", "2", "30", "--host-tree-limit", "-3")])
def test_negative_host_tree_limit_exits_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "host-tree-limit" in err


def test_host_tree_limit_zero_is_valid(capsys):
    code, out, _ = run(capsys, "analyze", "30", "--host-tree-limit", "0",
                       "--json")
    assert code == 0
    assert json.loads(out)["computed"]["host_tree"] == "unknown"


def test_analyze_large_prime_cofactor(capsys):
    # 999999999989000000000121 = 3 * 31 * 37 * 199 * 1460367808220118319;
    # trial division would run to the square root of the last factor
    start = time.perf_counter()
    code, out, _ = run(capsys, "analyze", "999999999989000000000121", "--json")
    assert time.perf_counter() - start < 5
    assert code == 0
    assert json.loads(out)["factorization"] == [
        [3, 1], [31, 1], [37, 1], [199, 1], [1460367808220118319, 1]]


@pytest.mark.parametrize("argv,message", [
    (("analyze", "3317044064679887385961981"), "primality"),
    (("export", "3317044064679887385961981", "--format", "json",
      "--target", "hypergraph"), "primality"),
    (("analyze", "200560490130"), "678569 hyperedges"),
    (("export", "200560490130", "--format", "dot", "--target", "incidence"),
     "678569 hyperedges"),
    (("analyze", str(2 * 3**2000)), "2001 vertices"),
    (("export", str(2 * 3**2000), "--format", "json", "--target",
      "hypergraph"), "2001 vertices"),
    (("analyze", str(2 * 3**9000), "--json"), "9001 vertices"),
], ids=["argv0-primality", "argv1-primality", "argv2-678569 hyperedges",
        "argv3-678569 hyperedges", "analyze 2*3^2000", "export 2*3^2000",
        "analyze 2*3^9000"])
def test_refusals_before_construction(capsys, monkeypatch, argv, message):
    def refuse(f):
        raise AssertionError(f"built the hypergraph of {f.n}")

    monkeypatch.setattr(verify, "build_intersection_hypergraph", refuse)
    monkeypatch.setattr(cli, "build_intersection_hypergraph", refuse)
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("znhg: error:") and message in err


@pytest.mark.parametrize("kind,n", [("cyclic", "100000000000000000000"),
                                    ("dihedral", "101")])
def test_group_order_refused_before_table(capsys, monkeypatch, kind, n):
    def refuse(n):
        raise AssertionError(f"built a table for {n}")

    monkeypatch.setattr(cli, "cyclic", refuse)
    monkeypatch.setattr(cli, "dihedral", refuse)
    code, out, err = run(capsys, "group", kind, n)
    assert code == 1
    assert out == ""
    assert "limited to order 200" in err


def test_sweep_range_refused(capsys):
    code, out, err = run(capsys, "sweep", "2", str(10**30))
    assert code == 1
    assert out == ""
    assert "limited" in err


# integers of every size, with small ones drawn often enough to run
INTS = st.one_of(st.integers(min_value=-10, max_value=300),
                 st.integers(min_value=-10, max_value=10**30)).map(str)
WORDS = st.sampled_from([
    "", "x", "1.5", "1e3", "-", "--json", "--bogus", "cyclic", "dihedral",
    "--format", "dot", "json", "--target", "hypergraph", "incidence",
    "--checks", "iso,planarity", "--host-tree-limit"])
TOKENS = st.lists(st.one_of(INTS, WORDS), max_size=4)
EXTRA = st.lists(st.one_of(INTS, WORDS), max_size=2)
# sweeps keep hi small or beyond the range limit, so no example runs long
SWEEP_HI = st.one_of(st.integers(min_value=-10, max_value=300),
                     st.integers(min_value=10**30, max_value=10**31)).map(str)
ARGV = st.one_of(
    st.builds(lambda n, extra: ["analyze", n, *extra], INTS, EXTRA),
    st.builds(lambda kind, n, extra: ["group", kind, n, *extra],
              st.sampled_from(["cyclic", "dihedral"]), INTS, EXTRA),
    st.builds(lambda n, fmt, target, extra: [
        "export", n, "--format", fmt, "--target", target, *extra],
        INTS, st.sampled_from(["dot", "json"]),
        st.sampled_from(["hypergraph", "incidence"]), EXTRA),
    st.builds(lambda lo, hi, extra: ["sweep", lo, hi, *extra],
              INTS, SWEEP_HI, EXTRA),
    st.builds(lambda command, tokens: [command, *tokens],
              st.sampled_from(["analyze", "group", "export"]), TOKENS),
    TOKENS)


@settings(max_examples=100, deadline=None)
@given(ARGV)
def test_random_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# every kind of outcome main has: text and JSON reports, an empty
# hypergraph, findings (every diameter of 3 is made 99), group and both
# export formats, help, and each kind of refusal
REPEATED_ARGV = [
    (("analyze", "12"), 0),
    (("analyze", "360", "--json"), 2),
    (("analyze", "243", "--json"), 0),
    (("sweep", "2", "40", "--checks", "diameter"), 2),
    (("group", "dihedral", "4"), 0),
    (("export", "30", "--format", "dot", "--target", "incidence"), 0),
    (("export", "30", "--format", "json", "--target", "hypergraph"), 0),
    (("analyze",), 1),
    (("--help",), 0),
    (("analyze", "--help"), 0),
    (("frobnicate",), 1),
    (("sweep", "2", "30", "--checks", "bogus"), 1),
    (("sweep", "2", str(10**30)), 1),
]


def test_main_repeats_identically_in_one_process(capsys, monkeypatch):
    _diameter_3_reads_99(monkeypatch)
    passes = [[run(capsys, *argv) for argv, _ in REPEATED_ARGV]
              for _ in range(2)]
    assert passes[0] == passes[1]
    assert [code for code, _, _ in passes[0]] == [
        code for _, code in REPEATED_ARGV]
    assert all(out or err for _, out, err in passes[0])


def _fresh_python(source: str, *args: str) -> str:
    """stdout of source run by a fresh interpreter that imports this
    checkout's znhg."""
    import znhg

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(znhg.__file__).parent.parent)]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", source, *args],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_PARSERS_BUILT = """
import argparse, contextlib, io
roots = []
init = argparse.ArgumentParser.__init__
def counted(self, *args, **kwargs):
    if kwargs.get("prog") == "znhg":
        roots.append(self)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counted
from znhg import cli
print(len(roots))
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["analyze", "6"], ["analyze", "6", "--json"],
                 ["export", "6", "--format", "dot", "--target", "incidence"]):
        assert cli.main(argv) == 0, argv
print(len(roots))
"""


def test_parser_built_on_first_call_only():
    # not at import, which every importer would pay, and not per call
    assert _fresh_python(_PARSERS_BUILT).split() == ["0", "1"]


_NO_NETWORKX = """
import contextlib, io, sys
from znhg import arith, cli, topology
from znhg.hypergraph import build_intersection_hypergraph
if sys.argv[1] == "oracle":
    topology.hypergraph_planar(
        build_intersection_hypergraph(arith.factorize(60)))
for argv in (["analyze", "60"], ["analyze", "7560"],
             ["sweep", "2", "2000", "--checks", "planarity", "--json"],
             ["export", "60", "--format", "dot", "--target", "incidence"],
             ["export", "60", "--format", "json", "--target", "incidence"],
             ["group", "cyclic", "12"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
print("networkx" in sys.modules)
"""


@pytest.mark.parametrize("mode,imported", [("constructed", "False"),
                                           ("oracle", "True")])
def test_planarity_on_z_n_never_imports_networkx(mode, imported):
    # a fresh interpreter, since this one may have imported networkx for
    # other tests; one call of the LR oracle shows that the probe sees it.
    # Every subcommand runs, since networkx is only a test dependency
    assert _fresh_python(_NO_NETWORKX, mode).strip() == imported


_MULTIPROCESSING = """
import contextlib, io, os, sys
from znhg import cli
os.cpu_count = lambda: 2
print("multiprocessing" in sys.modules)
for argv in (["analyze", "60"], ["sweep", "2", "300", "--jobs", "1"],
             ["export", "60", "--format", "json", "--target", "hypergraph"],
             ["group", "dihedral", "4", "--json"],
             ["sweep", "2", "300", "--jobs", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    print("multiprocessing" in sys.modules)
"""


def test_only_a_parallel_sweep_imports_multiprocessing():
    # a fresh interpreter, since this one has imported it for other
    # tests; two CPUs are claimed so that --jobs 2 is not capped to 1
    assert _fresh_python(_MULTIPROCESSING).split() == ["False"] * 5 + ["True"]
