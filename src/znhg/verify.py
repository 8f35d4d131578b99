"""Computed-versus-predicted comparison harness.

analyze() produces the full per-n report: construction, every exactly
computable invariant, the closed-form prediction, and per-field
agreement flags.  run_sweep() applies selected comparisons over a range
of n; disagreements come back as findings in the result, never as
exceptions, because the harness exists to report them.  Both go through
one evaluator, _evaluate(), where each check is defined once; analyze
runs every sweep check except iso.

Exact host-tree searches are cached per isomorphism class for both
analyze and sweeps: hypergraphs of equal exponent pattern are matched by
an explicit isomorphism search, witnesses carried across the verified
bijection and re-verified, so the per-n guarantee does not rest on the
cache key.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from dataclasses import dataclass, field

from . import classify, metrics, topology
from .arith import Factorization, factorize, factorize_range
from .classify import COMPUTED_FIELDS, FORMULA_ONLY_FIELDS, Classification
from .hypergraph import (Hypergraph, build_comaximal_hypergraph,
                         build_intersection_hypergraph)

SCHEMA = "znhg/1"
ALL_CHECKS = ("diameter", "girth", "chromatic", "star", "hypertree",
              "planarity", "single-edge", "emptiness", "iso")
DEFAULT_HOST_TREE_LIMIT = 9


def _encode(value):
    if value is math.inf or value == math.inf:
        return "infinite"
    return value


@dataclass(frozen=True)
class FieldComparison:
    computed: object
    predicted: object
    agree: bool
    mode: str  # "computed" or "formula-only"


@dataclass(frozen=True)
class AnalysisReport:
    n: int
    factors: tuple[tuple[int, int], ...]
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]  # generator sets
    computed: dict
    predicted: Classification
    agreement: dict
    host_tree_limit: int

    @property
    def findings(self) -> list[str]:
        return [name for name, cmp in self.agreement.items() if not cmp.agree]

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA,
            "kind": "analysis",
            "n": self.n,
            "factorization": [list(pair) for pair in self.factors],
            "vertices": list(self.vertices),
            "edges": [list(e) for e in self.edges],
            "computed": {k: _encode(v) for k, v in sorted(self.computed.items())},
            "predicted": self.predicted.to_json_dict(),
            "agreement": {
                name: {"computed": _encode(cmp.computed),
                       "predicted": _encode(cmp.predicted),
                       "agree": cmp.agree,
                       "mode": cmp.mode}
                for name, cmp in sorted(self.agreement.items())},
            "verification_modes": {
                **{f: "computed" for f in COMPUTED_FIELDS},
                **{f: "formula-only" for f in FORMULA_ONLY_FIELDS}},
            "host_tree_limit": self.host_tree_limit,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "AnalysisReport":
        doc = json.loads(text)
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"unsupported schema {doc.get('schema')!r}")

        def dec(v):
            return math.inf if v == "infinite" else v

        return AnalysisReport(
            n=doc["n"],
            factors=tuple((p, a) for p, a in doc["factorization"]),
            vertices=tuple(doc["vertices"]),
            edges=tuple(tuple(e) for e in doc["edges"]),
            computed={k: dec(v) for k, v in doc["computed"].items()},
            predicted=Classification.from_json_dict(doc["predicted"]),
            agreement={
                name: FieldComparison(dec(c["computed"]), dec(c["predicted"]),
                                      c["agree"], c["mode"])
                for name, c in doc["agreement"].items()},
            host_tree_limit=doc["host_tree_limit"],
        )


def analyze(n: int, host_tree_limit: int = DEFAULT_HOST_TREE_LIMIT) -> AnalysisReport:
    """Full report for one n: build, compute, predict, compare."""
    if n < 2:
        raise ValueError("analysis needs n >= 2")
    f = factorize(n)
    h = build_intersection_hypergraph(f)
    pred = classify.predict(f)
    rows, computed = _evaluate(f, h, pred,
                               [c for c in ALL_CHECKS if c != "iso"],
                               host_tree_limit)
    agreement = {fld: FieldComparison(comp, predicted, agree, "computed")
                 for _, fld, comp, predicted, agree, _, _ in rows}
    return AnalysisReport(n, f.factors, h.vertices, h.edge_label_sets(),
                          computed, pred, agreement, host_tree_limit)


def render_report(report: AnalysisReport) -> str:
    """Human-readable analysis text."""
    lines = [f"n = {report.n} = "
             + " * ".join(f"{p}^{a}" if a > 1 else str(p)
                          for p, a in report.factors)]
    if not report.vertices:
        lines.append("hypergraph: empty (n has at most one prime divisor)")
    else:
        lines.append(f"vertices ({len(report.vertices)}): "
                     + " ".join(f"<{d}>" for d in report.vertices))
        lines.append(f"hyperedges ({len(report.edges)}): "
                     + " ".join("{" + ",".join(map(str, e)) + "}"
                                for e in report.edges))
    lines.append("field           computed    predicted   agree  mode")
    pred_dict = report.predicted.to_json_dict()
    for name, cmp in sorted(report.agreement.items()):
        lines.append(f"{name:<15} {str(_encode(cmp.computed)):<11} "
                     f"{str(_encode(cmp.predicted)):<11} "
                     f"{'yes' if cmp.agree else 'NO':<6} {cmp.mode}")
    for name in FORMULA_ONLY_FIELDS:
        lines.append(f"{name:<15} {'-':<11} {str(_encode(pred_dict[name])):<11} "
                     f"{'-':<6} formula-only")
    if report.findings:
        lines.append("FINDINGS: " + ", ".join(report.findings))
    else:
        lines.append("all verifiable fields agree")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Finding:
    n: int
    check: str
    computed: str
    predicted: str


@dataclass
class SweepResult:
    lo: int
    hi: int
    checks: tuple[str, ...]
    host_tree_limit: int
    compared: dict = field(default_factory=dict)
    findings: list = field(default_factory=list)
    hypertree_unknown: int = 0

    @property
    def total_findings(self) -> int:
        return len(self.findings)


# host-tree searches per exponent pattern; entries are (representative
# hypergraph, its exact result) and transfer only via verified isomorphism
_host_tree_cache: dict[tuple[int, ...], tuple[Hypergraph, metrics.HostTreeResult]] = {}


def cached_host_tree(f: Factorization, h: Hypergraph,
                     limit: int) -> metrics.HostTreeResult:
    if len(h.vertices) > limit:
        return metrics.HostTreeResult("unknown")
    key = tuple(sorted(f.exponents))
    hit = _host_tree_cache.get(key)
    if hit is not None:
        h0, r0 = hit
        ok, mapping = metrics.isomorphic(h0, h)
        if ok:
            return metrics.host_tree_relabelled(r0, h0, h, mapping)
    result = metrics.has_host_tree(h, limit)
    _host_tree_cache.setdefault(key, (h, result))
    return result


def _evaluate(f: Factorization, h: Hypergraph, pred: Classification,
              checks, host_tree_limit: int) -> tuple[list, dict]:
    """Run the selected checks on h against the prediction for n.

    Returns (rows, facts).  A row is (check, report field, computed,
    predicted, agree, computed text, predicted text), in the order the
    checks run; facts are the computed values analyze reports.  Callees
    are looked up at call time, so patched or traced module attributes
    take effect.
    """
    rows = []
    facts = {"is_empty": h.is_empty, "vertex_count": len(h.vertices),
             "edge_count": len(h.edges), "single_edge": len(h.edges) == 1}

    def compare(check, fld, computed, predicted, agree=None,
                computed_text=None, predicted_text=None):
        rows.append((
            check, fld, computed, predicted,
            bool(computed == predicted if agree is None else agree),
            str(_encode(computed)) if computed_text is None else computed_text,
            str(_encode(predicted)) if predicted_text is None else predicted_text))

    if "emptiness" in checks:
        compare("emptiness", "is_empty", h.is_empty, pred.is_empty)
    if h.is_empty:
        return rows, facts
    if "diameter" in checks:
        facts["diameter"] = metrics.diameter(h)
        compare("diameter", "diameter", facts["diameter"], pred.diameter)
    if "girth" in checks:
        facts["girth"] = metrics.girth(h)
        compare("girth", "girth", facts["girth"], pred.girth)
    if "chromatic" in checks:
        chi = facts["chromatic"] = metrics.chromatic_number(h)
        try:
            metrics.constructive_two_coloring(f, h)
            proper = True
        except metrics.ColoringContradiction:
            proper = False
        facts["two_coloring_proper"] = proper
        compare("chromatic", "chromatic", chi, pred.chromatic,
                agree=chi == pred.chromatic and proper,
                computed_text=f"{chi}{'' if proper else ' (A/B split improper)'}")
    if "star" in checks:
        facts["star"] = metrics.is_star(h)
        compare("star", "star", facts["star"], pred.star)
    if "single-edge" in checks:
        compare("single-edge", "single_edge", facts["single_edge"],
                pred.single_edge)
    if "hypertree" in checks:
        status = facts["host_tree"] = cached_host_tree(f, h, host_tree_limit).status
        if status != "unknown":
            compare("hypertree", "hypertree", status == "yes", pred.hypertree,
                    computed_text=status,
                    predicted_text="yes" if pred.hypertree else "no")
    if "planarity" in checks:
        # is_planar verifies the certificate it returns and raises if it
        # fails, so a result reaching here always carries a valid one
        res = topology.hypergraph_planar(h)
        facts["planar"] = res.planar
        if not res.planar:
            facts["planarity_witness"] = res.witness_kind
        facts["planarity_certificate_valid"] = True
        compare("planarity", "planar", res.planar, pred.planar)
    if "iso" in checks:
        co = build_comaximal_hypergraph(f)
        same, witness = metrics.isomorphic(h, co)
        ok = same and metrics.verify_isomorphism(h, co, witness)
        compare("iso", "iso", ok, True,
                computed_text="isomorphic" if ok else "NOT isomorphic",
                predicted_text="isomorphic")
    return rows, facts


def _sweep_one(args) -> tuple[int, list, int]:
    f, checks, host_tree_limit = args
    rows, facts = _evaluate(f, build_intersection_hypergraph(f),
                            classify.predict(f), checks, host_tree_limit)
    return f.n, rows, int(facts.get("host_tree") == "unknown")


def run_sweep(lo: int, hi: int, checks=ALL_CHECKS,
              host_tree_limit: int = DEFAULT_HOST_TREE_LIMIT,
              jobs: int = 1) -> SweepResult:
    """Run the selected computed-vs-predicted comparisons for lo..hi.

    Results are merged in ascending n regardless of jobs, so output is
    deterministic across concurrency levels; jobs above the CPU count
    are capped to it.
    """
    if not 2 <= lo <= hi:
        raise ValueError("need 2 <= lo <= hi")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    unknown_checks = set(checks) - set(ALL_CHECKS)
    if unknown_checks:
        raise ValueError(f"unknown checks: {sorted(unknown_checks)}")
    checks = tuple(c for c in ALL_CHECKS if c in checks)
    result = SweepResult(lo, hi, checks, host_tree_limit,
                         compared={c: 0 for c in checks})
    tasks = [(f, checks, host_tree_limit) for f in factorize_range(lo, hi)]
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            rows = pool.map(_sweep_one, tasks, chunksize=64)
    else:
        rows = [_sweep_one(t) for t in tasks]
    for n, outcomes, unknown in sorted(rows):
        result.hypertree_unknown += unknown
        for check, _, _, _, agree, comp, predicted in outcomes:
            result.compared[check] += 1
            if not agree:
                result.findings.append(Finding(n, check, comp, predicted))
    return result


def sweep_to_json(result: SweepResult) -> str:
    doc = {
        "schema": SCHEMA,
        "kind": "sweep",
        "lo": result.lo,
        "hi": result.hi,
        "checks": list(result.checks),
        "host_tree_limit": result.host_tree_limit,
        "compared": result.compared,
        "hypertree_unknown": result.hypertree_unknown,
        "findings": [{"n": f.n, "check": f.check, "computed": f.computed,
                      "predicted": f.predicted} for f in result.findings],
        "total_findings": result.total_findings,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def render_sweep(result: SweepResult) -> str:
    lines = [f"sweep {result.lo}..{result.hi} "
             f"checks={','.join(result.checks)}"]
    for check in result.checks:
        n_findings = sum(1 for f in result.findings if f.check == check)
        line = f"  {check}: {result.compared[check]} compared, {n_findings} findings"
        if check == "hypertree" and result.hypertree_unknown:
            line += f", {result.hypertree_unknown} unknown (above search limit)"
        lines.append(line)
    for f in result.findings:
        lines.append(f"  FINDING n={f.n} {f.check}: "
                     f"computed={f.computed} predicted={f.predicted}")
    lines.append(f"total findings: {result.total_findings}")
    return "\n".join(lines) + "\n"
