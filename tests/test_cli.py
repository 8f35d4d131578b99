import json
from pathlib import Path

import pytest

from znhg import verify
from znhg.cli import main
from znhg.verify import FieldComparison


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", [("analyze", "8"), ("analyze", "30"),
                                  ("analyze", "216"), ("sweep", "2", "120")])
def test_json_output_matches_golden(capsys, argv):
    # empty, planar, nonplanar with its witness, and a sweep summary
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 0
    assert out == (GOLDEN / ("_".join(argv) + ".json")).read_text()


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


def test_sweep_exit_2_on_finding(capsys, monkeypatch):
    real_diameter = verify.metrics.diameter

    def wrong_diameter(h):
        value = real_diameter(h)
        return 99 if value == 3 else value

    monkeypatch.setattr(verify.metrics, "diameter", wrong_diameter)
    code, out, _ = run(capsys, "sweep", "2", "40", "--checks", "diameter")
    assert code == 2
    assert "FINDING n=30 diameter: computed=99 predicted=3" in out


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


def test_group_capability_error(capsys):
    code, _, err = run(capsys, "group", "cyclic", "999")
    assert code == 1
    assert "limit" in err


def test_export_dot_incidence(capsys):
    code, out, _ = run(capsys, "export", "30", "--format", "dot",
                       "--target", "incidence")
    assert code == 0
    node_lines = [l for l in out.splitlines() if "[shape=" in l]
    assert len(node_lines) == 10
    assert "  v2 [shape=circle];" in out
    assert "  e0 [shape=square];" in out
    assert out.count(" -- ") == 9


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


def test_export_json_incidence(capsys):
    code, out, _ = run(capsys, "export", "30", "--format", "json",
                       "--target", "incidence")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["nodes"]) == 10
    assert len(doc["links"]) == 9


def test_export_to_file(capsys, tmp_path):
    target = tmp_path / "out.dot"
    code, out, _ = run(capsys, "export", "6", "--format", "dot",
                       "--target", "hypergraph", "--output", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("graph {")
