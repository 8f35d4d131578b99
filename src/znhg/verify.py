"""Computed-versus-predicted comparison harness.

analyze() produces the full per-n report: construction, every exactly
computable invariant, the closed-form prediction, and per-field
agreement flags.  run_sweep() applies selected comparisons over a range
of n; disagreements come back as findings in the result, never as
exceptions, because the harness exists to report them.  Both go through
one evaluator, _evaluate(), where each check is defined once.  analyze
runs every check but iso, and a sweep takes iso at each n from _iso_row.

No isomorphism is searched for.  The iso check verifies the explicit
map d -> n/d, exact because gcd(n/d, n/d') = n/lcm(d, d'), given to
metrics.verify_relabelling as the image of each vertex of h.

A sweep evaluates each exponent pattern once per process.  n0 of a
sorted pattern is its smallest n, the exponents in descending order on
2, 3, 5, ..., built without factoring; _pattern_base evaluates it through
_evaluate, every selected check but iso, and keeps the rows for the
life of the process, so n0 is the same for every range and every sweep.
Every n builds its own hypergraph h, takes n0's rows, once
metrics.verify_relabelling accepts the prime relabelling sigma from h0
onto h unless n is n0, and adds its own iso row on h; no iso row is kept.
sigma is given as the image of each of h0's labels, computed from their
exponent vectors on n0, which the base keeps in h0's vertex order.  A
prime power p^a is the pattern (a,): h0 and sigma are empty, which the
check accepts exactly when h is empty too.  Each carried value is then
certified by n0's checked certificate plus a checked isomorphism, and a
refused sigma makes each carried row "uncertified".  An n whose base has
no row to carry and no iso row due, such as a prime power in a sweep
that does not check emptiness, has nothing to certify, and nothing is
built for it.
A defect that depends on the primes themselves, not on the pattern
alone, shows only where its n is evaluated: in analyze, or at a
pattern's smallest n, which carries it to every n of the pattern.

Nor is planarity searched for.  Two vertices are compatible iff their
deficiency sets {i : r_i < alpha_i}, the masks of
hypergraph.vertex_set, are disjoint.  For n0 of a pattern beta <= alpha,
d -> sigma(d) * n / sigma(n0), sigma being _prime_map's, raises each
matched exponent by alpha - beta and puts alpha on the other primes,
which keeps exactly that, so the incidence graph of n0 embeds in n's
and a Kuratowski witness of it maps in edge for edge: a hyperedge goes
to the images of its vertices, completed, where sigma misses some of
n's primes, by the hub n / (their product).  A sweep's carry is the
same map with cofactor 1.  Every nonplanar pattern dominates one of four
bases, whose witnesses are stored as literal data on the divisors of
their smallest n.  The incidence graph of every planar pattern, (1, a),
(2, a), (1, 1, 1) and (1, 1, 2), is a forest plus at most one subdivided
theta graph, which topology.theta_rotation embeds without knowing n.  A
lifted witness counts only after topology.verify_incidence_witness
accepts it, which tests each of its pairs against n's own hyperedges
and so builds no incidence graph; a rotation counts only after
verify_rotation_system accepts it on n's own incidence graph.

Diameter, girth and star are not searched for either.  The same masks
give each value a witness: the hubs n/p, deficient only at p, form a
dominating clique, and p^alpha, q^beta for the first and last of three or
more primes have no common neighbour, so the diameter is 3; for two
primes the split by divisibility by p^a is complete bipartite, the
graph K_{b,a}, which gives diameter 2 (1 for n = pq) and, with both
exponents at least 2, girth 4.  Otherwise a vertex pair met in two
hyperedges gives girth 2, and with none the claim is a forest.  Star
takes a common vertex or hyperedges with empty intersection.
metrics.check_diameter, check_girth and check_star re-check each witness
on h alone.

No check falls back to a search.  A certificate that is missing or that
its checker rejects, like an improper A/B split for the chromatic
number, gives the computed value "uncertified", which agrees with no
prediction and so is reported as a finding.  The searches in metrics
and topology serve the tests as independent oracles.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

from . import classify, metrics, topology
from .arith import Factorization, check_range, factorize
from .classify import (COMPUTED_FIELDS, FORMULA_ONLY_FIELDS, Classification,
                       decode_infinite, encode_infinite)
from .hypergraph import (Hypergraph, build_comaximal_hypergraph,
                         build_intersection_hypergraph, check_buildable)

SCHEMA = "znhg/1"
ALL_CHECKS = ("diameter", "girth", "chromatic", "star", "hypertree",
              "planarity", "single-edge", "emptiness", "iso")
DEFAULT_HOST_TREE_LIMIT = 9
UNCERTIFIED = "uncertified"
# Pool.imap's chunksize under jobs > 1, in values of n per task; each worker
# evaluates each pattern it meets once, and smaller chunks even out the load
_BLOCK = 4096


# each scalar type's C-level encoder, keyed by exact type, so bool, whose
# type is not int, never reaches int.__repr__
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__,
            bool: {False: "false", True: "true"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


def dumps(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True), byte for byte, for the
    types a result document holds: dicts with str keys, lists, tuples,
    str, int, bool and None; anything else raises TypeError.  indent is
    the newline and the indentation the value itself sits at.

    Containers are laid out here and scalars encoded by C functions: with
    indent, json.dumps runs CPython's pure-Python encoder, which costs
    more than this on every document the package writes."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        # a loop and map, not comprehensions, which in Python 3.11 would
        # make value and inner cell variables, slower to load;
        # encode_basestring_ascii raises TypeError on a key that is no str
        items = []
        for key in sorted(value):
            # a scalar value is encoded here, without a call to dumps
            item = value[key]
            encode = _SCALARS.get(type(item))
            body = dumps(item, inner) if encode is None else encode(item)
            items.append(f"{encode_basestring_ascii(key)}: {body}")
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        inner = indent + "  "
        body = ("," + inner).join(map(dumps, value,
                                      itertools.repeat(inner)))
        return "[" + inner + body + indent + "]"
    encode = _SCALARS.get(kind)
    if encode is None:
        raise TypeError(f"{kind.__name__} is not written to JSON")
    return encode(value)


def json_with_label_arrays(doc: dict, vertices, edges,
                           keys=("vertices", "edges")) -> str:
    """dumps(doc) with two top-level keys added: keys[0] lists the labels
    in vertices, which are distinct, and keys[1] the label sequences of
    edges, each a nonempty tuple of positions into vertices, as
    Hypergraph.edges holds them.  Labels are integers, or strings that
    are already JSON-encoded.

    Each label is converted to text once, into a list indexed by
    position, which for labels of hundreds of digits is most of the
    cost, and the arrays are written by str.join alone: one join per
    position tuple, and one over the tuples."""
    parts = {key: dumps(value, "\n  ") for key, value in doc.items()}
    text = list(map(str, vertices))
    labels = ",\n    ".join(text)
    # itemgetter gives the labels of two or more positions as a tuple,
    # which join takes without a copy, and of one position the bare label
    rows = "\n    ],\n    [\n      ".join([
        ",\n      ".join(operator.itemgetter(*e)(text)) if len(e) > 1
        else text[e[0]] for e in edges])
    parts[keys[0]] = f"[\n    {labels}\n  ]" if labels else "[]"
    parts[keys[1]] = f"[\n    [\n      {rows}\n    ]\n  ]" if rows else "[]"
    return ("{\n" + ",\n".join(f"  {encode_basestring_ascii(key)}: "
                                 f"{parts[key]}" for key in sorted(parts))
            + "\n}")


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
    # each hyperedge as positions into vertices, as in Hypergraph.edges
    edges: tuple[tuple[int, ...], ...]
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
            "computed": {k: encode_infinite(v)
                         for k, v in sorted(self.computed.items())},
            "predicted": self.predicted.to_json_dict(),
            "agreement": {
                name: {"computed": encode_infinite(cmp.computed),
                       "predicted": encode_infinite(cmp.predicted),
                       "agree": cmp.agree,
                       "mode": cmp.mode}
                for name, cmp in sorted(self.agreement.items())},
            "verification_modes": {
                **{f: "computed" for f in COMPUTED_FIELDS},
                **{f: "formula-only" for f in FORMULA_ONLY_FIELDS}},
            "host_tree_limit": self.host_tree_limit,
        }
        return json_with_label_arrays(doc, self.vertices, self.edges)

    @staticmethod
    def from_json(text: str) -> "AnalysisReport":
        doc = json.loads(text)
        if doc.get("schema") != SCHEMA:
            raise ValueError(f"unsupported schema {doc.get('schema')!r}")

        vertices = tuple(doc["vertices"])
        position = {d: i for i, d in enumerate(vertices)}
        return AnalysisReport(
            n=doc["n"],
            factors=tuple((p, a) for p, a in doc["factorization"]),
            vertices=vertices,
            edges=tuple(tuple(map(position.__getitem__, e))
                        for e in doc["edges"]),
            computed={k: decode_infinite(v) for k, v in doc["computed"].items()},
            predicted=Classification.from_json_dict(doc["predicted"]),
            agreement={
                name: FieldComparison(decode_infinite(c["computed"]),
                                      decode_infinite(c["predicted"]),
                                      c["agree"], c["mode"])
                for name, c in doc["agreement"].items()},
            host_tree_limit=doc["host_tree_limit"],
        )


def _check_host_tree_limit(limit: int) -> None:
    if limit < 0:
        raise ValueError(f"need host-tree-limit >= 0, got {limit}")


def analyze(n: int, host_tree_limit: int = DEFAULT_HOST_TREE_LIMIT) -> AnalysisReport:
    """Full report for one n: build, compute, predict, compare."""
    if n < 2:
        raise ValueError("analysis needs n >= 2")
    _check_host_tree_limit(host_tree_limit)
    f = factorize(n)
    check_buildable(f)
    h = build_intersection_hypergraph(f)
    pred = classify.predict(f)
    rows, computed = _evaluate(f, h, pred,
                               [c for c in ALL_CHECKS if c != "iso"],
                               host_tree_limit)
    agreement = {fld: FieldComparison(comp, predicted, agree, "computed")
                 for _, fld, comp, predicted, agree, _, _ in rows}
    return AnalysisReport(n, f.factors, h.vertices, h.edges,
                          computed, pred, agreement, host_tree_limit)


def render_report(report: AnalysisReport) -> str:
    """Human-readable analysis text."""
    lines = [f"n = {report.n} = "
             + " * ".join(f"{p}^{a}" if a > 1 else str(p)
                          for p, a in report.factors)]
    if not report.vertices:
        lines.append("hypergraph: empty (n has at most one prime divisor)")
    else:
        text = list(map(str, report.vertices))
        lines.append(f"vertices ({len(text)}): "
                     + " ".join(f"<{d}>" for d in text))
        lines.append(f"hyperedges ({len(report.edges)}): "
                     + " ".join("{" + ",".join(map(text.__getitem__, e)) + "}"
                                for e in report.edges))
    lines.append("field           computed    predicted   agree  mode")
    pred_dict = report.predicted.to_json_dict()
    for name, cmp in sorted(report.agreement.items()):
        lines.append(f"{name:<15} {str(encode_infinite(cmp.computed)):<11} "
                     f"{str(encode_infinite(cmp.predicted)):<11} "
                     f"{'yes' if cmp.agree else 'NO':<6} {cmp.mode}")
    for name in FORMULA_ONLY_FIELDS:
        lines.append(f"{name:<15} {'-':<11} {str(pred_dict[name]):<11} "
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


def cached_host_tree(f: Factorization, h: Hypergraph,
                     limit: int) -> metrics.HostTreeResult:
    """The exact host-tree answer for h; f is unused and kept for callers."""
    return metrics.has_host_tree(h, limit)


# A Kuratowski witness of each minimal nonplanar pattern, (3, 3),
# (1, 2, 2), (1, 1, 3) and (1, 1, 1, 1), tried in this order, on the
# pattern's smallest n, which puts the exponents, in descending order, on
# 2, 3, 5, 7, and keyed by that n.  They were taken once from the
# edge-minimal bisection that topology.is_planar ran before it took
# networkx's Kuratowski subgraph, which is another witness at 180 and
# 210; test_stored_witnesses_are_the_oracles_on_each_base pins them.
# An edge is (vertex, frozenset of the hyperedge's vertices), all divisors
# of the key; every edge runs from a vertex node to a hyperedge node.
_BASE_WITNESSES = {
    216: ("K33", (
        (8, frozenset({8, 27})),
        (8, frozenset({8, 54})),
        (8, frozenset({8, 108})),
        (24, frozenset({24, 27})),
        (24, frozenset({24, 54})),
        (24, frozenset({24, 108})),
        (27, frozenset({8, 27})),
        (27, frozenset({24, 27})),
        (27, frozenset({27, 72})),
        (54, frozenset({8, 54})),
        (54, frozenset({24, 54})),
        (54, frozenset({54, 72})),
        (72, frozenset({27, 72})),
        (72, frozenset({54, 72})),
        (72, frozenset({72, 108})),
        (108, frozenset({8, 108})),
        (108, frozenset({24, 108})),
        (108, frozenset({72, 108})),
    )),
    180: ("K33", (
        (9, frozenset({9, 20})),
        (9, frozenset({9, 60})),
        (12, frozenset({12, 45})),
        (12, frozenset({12, 90})),
        (20, frozenset({9, 20})),
        (20, frozenset({20, 36, 45})),
        (20, frozenset({20, 36, 90})),
        (36, frozenset({20, 36, 45})),
        (36, frozenset({20, 36, 90})),
        (36, frozenset({36, 45, 60})),
        (45, frozenset({12, 45})),
        (45, frozenset({20, 36, 45})),
        (45, frozenset({36, 45, 60})),
        (60, frozenset({9, 60})),
        (60, frozenset({36, 45, 60})),
        (90, frozenset({12, 90})),
        (90, frozenset({20, 36, 90})),
    )),
    120: ("K33", (
        (8, frozenset({8, 15})),
        (8, frozenset({8, 30})),
        (8, frozenset({8, 60})),
        (15, frozenset({8, 15})),
        (15, frozenset({15, 24, 40})),
        (24, frozenset({15, 24, 40})),
        (24, frozenset({24, 30, 40})),
        (24, frozenset({24, 40, 60})),
        (30, frozenset({8, 30})),
        (30, frozenset({24, 30, 40})),
        (40, frozenset({15, 24, 40})),
        (40, frozenset({24, 30, 40})),
        (40, frozenset({24, 40, 60})),
        (60, frozenset({8, 60})),
        (60, frozenset({24, 40, 60})),
    )),
    210: ("K33", (
        (6, frozenset({6, 35})),
        (6, frozenset({6, 70, 105})),
        (10, frozenset({10, 21})),
        (10, frozenset({10, 42, 105})),
        (14, frozenset({14, 15})),
        (14, frozenset({14, 30, 105})),
        (15, frozenset({14, 15})),
        (15, frozenset({15, 42, 70})),
        (21, frozenset({10, 21})),
        (21, frozenset({21, 30, 70})),
        (30, frozenset({14, 30, 105})),
        (30, frozenset({21, 30, 70})),
        (30, frozenset({30, 35, 42})),
        (35, frozenset({6, 35})),
        (35, frozenset({30, 35, 42})),
        (42, frozenset({10, 42, 105})),
        (42, frozenset({15, 42, 70})),
        (42, frozenset({30, 35, 42})),
        (70, frozenset({6, 70, 105})),
        (70, frozenset({15, 42, 70})),
        (70, frozenset({21, 30, 70})),
    )),
}

# the bases' factorizations, in the order they are tried
_BASES = tuple(map(factorize, _BASE_WITNESSES))


def _by_exponent(exponents: tuple[int, ...]) -> list[int]:
    """Indices of n's primes by descending exponent, ties in prime order:
    the order in which sigma pairs the primes of two n."""
    return sorted(range(len(exponents)), key=lambda i: -exponents[i])


def _ranked_primes(f: Factorization) -> list[int]:
    """n's primes in _by_exponent order: sigma sends the i-th prime of n0
    to the i-th prime of n."""
    return [f.factors[j][0] for j in _by_exponent(f.exponents)]


@functools.cache
def _exponent_vectors(f0: Factorization) -> dict:
    """Each divisor of n0 -> its exponents on n0's primes in _by_exponent
    order.  Kept for the life of the process: one entry per n0, a pattern
    base or one of _BASES."""
    vectors = {1: ()}
    for i in _by_exponent(f0.exponents):
        p, a = f0.factors[i]
        vectors = {d * p**k: r + (k,) for d, r in vectors.items()
                   for k in range(a + 1)}
    return vectors


def _prime_map(f0: Factorization, f: Factorization) -> dict:
    """sigma on the divisors of n0: a divisor goes where its prime powers
    go under _ranked_primes."""
    primes = _ranked_primes(f)
    return {d: math.prod(map(pow, primes, r))
            for d, r in _exponent_vectors(f0).items()}


def _dominated_base(exponents: tuple[int, ...]) -> Factorization | None:
    """The first of _BASES whose exponents, descending on 2, 3, 5, 7, each
    sit under n's exponent at the same _by_exponent rank, or None."""
    order = _by_exponent(exponents)
    for f0 in _BASES:
        if f0.omega <= len(order) and all(
                b <= exponents[i] for b, i in zip(f0.exponents, order)):
            return f0
    return None


def _position(items, item) -> int | None:
    """The index of item in the ascending sequence items, by bisection,
    or None if it is not there."""
    i = bisect.bisect_left(items, item)
    return i if i < len(items) and items[i] == item else None


def _lifted_planarity(f: Factorization,
                      h: Hypergraph) -> topology.PlanarityResult | None:
    """A checked nonplanarity certificate lifted from a base, or None.

    A vertex label d of the witness of the base n0 goes to
    sigma(d) * n / sigma(n0), sigma being _prime_map's on the divisors of
    n0, found by bisection in h.vertices.  The images of a hyperedge's
    vertices have pairwise disjoint deficiency masks that cover the
    primes sigma reaches, and every image is full on the primes sigma
    does not reach.  So when there are such primes, the hub n / (their product),
    deficient exactly there, completes the images to masks that cover
    every prime, which by maximality is a hyperedge; a hyperedge label
    goes to the sorted positions of its images, with the hub, found by
    bisection in the canonical h.edges.  A label without an image, or
    positions that are no hyperedge, refuse the lift.  The witness is
    checked against h's hyperedges by topology.verify_incidence_witness,
    so the cost follows the witness and the bisections, not h's size.
    """
    f0 = _dominated_base(f.exponents)
    if f0 is None:
        return None
    sigma = _prime_map(f0, f)
    top = sigma[f0.n]
    cofactor = f.n // top
    vertices, edges = h.vertices, h.edges
    nv = len(vertices)
    vertex = {d: _position(vertices, e * cofactor) for d, e in sigma.items()}
    unreached = [p for p in f.primes if top % p]
    hub = [_position(vertices, f.n // math.prod(unreached))] if unreached else []
    kind, base_edges = _BASE_WITNESSES[f0.n]
    node = {}
    for label in {c for _, c in base_edges}:
        members = [vertex.get(d) for d in label] + hub
        if None in members:
            return None
        j = _position(edges, tuple(sorted(members)))
        if j is None:
            return None
        node[label] = nv + j
    pairs = [(vertex.get(d), node[c]) for d, c in base_edges]
    if any(u is None for u, _ in pairs):
        return None
    witness = topology.simple_graph(nv + len(edges), pairs)
    if topology.verify_incidence_witness(h, witness) != kind:
        return None
    return topology.PlanarityResult(False, witness=witness, witness_kind=kind)


def _constructed_embedding(h: Hypergraph) -> topology.PlanarityResult | None:
    """A checked planarity certificate from topology.theta_rotation, or None."""
    g = topology.incidence_graph(h)
    rotation = topology.theta_rotation(g)
    if rotation is None or not topology.verify_rotation_system(g, rotation):
        return None
    return topology.PlanarityResult(True, rotation=rotation)


def _sides(f: Factorization, h: Hypergraph) -> tuple[list[int], list[int]]:
    """For omega = 2, the vertex indices divisible by p^a, the full power
    of the first prime, and the rest: the vertices deficient only at q
    and those deficient only at p."""
    p, a = f.factors[0]
    return ([i for i, d in enumerate(h.vertices) if d % p**a == 0],
            [i for i, d in enumerate(h.vertices) if d % p**a])


def _diameter_certificate(f: Factorization, h: Hypergraph):
    """(value, upper, lower) for metrics.check_diameter, or None.

    omega >= 3: the hubs n/p are deficient only at p, so they are
    pairwise compatible, and every other vertex, full at some prime, is
    compatible with that prime's hub: a dominating clique.  p^alpha and
    q^beta for the first and last primes are both deficient at the
    middle primes, and a common neighbour would be deficient nowhere,
    that is n.  omega = 2: the two sides of _sides form a complete
    bipartite graph with no edge inside a side, one vertex each when
    n = pq.
    """
    if f.omega >= 3:
        index = {d: i for i, d in enumerate(h.vertices)}
        (p, a), (q, b) = f.factors[0], f.factors[-1]
        return (3, tuple(index.get(f.n // r) for r in f.primes),
                (index.get(p**a), index.get(q**b)))
    if f.omega == 2:
        if f.exponents == (1, 1):
            return 1, None, None
        side_a, side_b = _sides(f, h)
        return 2, (side_a, side_b), tuple(max(side_a, side_b, key=len)[:2])
    return None


def _girth_certificate(f: Factorization, h: Hypergraph):
    """(value, witness) for metrics.check_girth.

    For n = p^a q^b with a, b >= 2 the hypergraph is the graph K_{b,a}
    on the two sides of _sides.  Otherwise the first vertex pair met
    again, scanning the hyperedges in order, gives girth 2, and without
    one the claim is a forest.
    """
    if f.omega == 2 and min(f.exponents) >= 2:
        side_a, side_b = _sides(f, h)
        return 4, (side_a, (side_a[0], side_b[0], side_a[1], side_b[1]))
    first: dict[tuple[int, int], int] = {}
    for j, e in enumerate(h.edges):
        for x, u in enumerate(e):
            for v in e[x + 1:]:
                k = first.setdefault((u, v), j)
                if k != j:
                    return 2, (k, j, u, v)
    return math.inf, None


def _star_certificate(h: Hypergraph):
    """(value, witness) for metrics.check_star, or None without edges:
    a vertex common to every hyperedge, or the hyperedges that shrank the
    running intersection until it emptied."""
    if not h.edges:
        return None
    common, chosen = set(h.edges[0]), [0]
    for j, e in enumerate(h.edges):
        if not common.issubset(e):
            common.intersection_update(e)
            chosen.append(j)
            if not common:
                return False, chosen
    return True, min(common)


def _certified(h: Hypergraph, certificate, check):
    """The certificate's value if check accepts it on h, else UNCERTIFIED."""
    if certificate is not None and check(h, *certificate):
        return certificate[0]
    return UNCERTIFIED


def _certified_diameter(f: Factorization, h: Hypergraph):
    return _certified(h, _diameter_certificate(f, h), metrics.check_diameter)


def _certified_girth(f: Factorization, h: Hypergraph):
    return _certified(h, _girth_certificate(f, h), metrics.check_girth)


def _certified_star(h: Hypergraph):
    return _certified(h, _star_certificate(h), metrics.check_star)


def _row(check, fld, computed, predicted, computed_text=None,
         predicted_text=None) -> tuple:
    """A row as _evaluate returns it."""
    return (check, fld, computed, predicted, bool(computed == predicted),
            str(encode_infinite(computed)) if computed_text is None else computed_text,
            str(encode_infinite(predicted)) if predicted_text is None else predicted_text)


def _iso_row(f: Factorization, h: Hypergraph) -> tuple:
    """The iso row: d -> n/d checked from h onto n's co-maximal hypergraph."""
    co = build_comaximal_hypergraph(f)
    n = f.n
    ok = metrics.verify_relabelling(h, co, [n // d for d in h.vertices])
    return _row("iso", "iso", ok, True,
                computed_text="isomorphic" if ok else "NOT isomorphic",
                predicted_text="isomorphic")


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

    def compare(*row, **texts):
        rows.append(_row(*row, **texts))

    if "emptiness" in checks:
        compare("emptiness", "is_empty", h.is_empty, pred.is_empty)
    if h.is_empty:
        return rows, facts
    if "diameter" in checks:
        facts["diameter"] = _certified_diameter(f, h)
        compare("diameter", "diameter", facts["diameter"], pred.diameter)
    if "girth" in checks:
        facts["girth"] = _certified_girth(f, h)
        compare("girth", "girth", facts["girth"], pred.girth)
    if "chromatic" in checks:
        try:
            metrics.constructive_two_coloring(f, h)
            proper = True
        except metrics.ColoringContradiction:
            proper = False
        # a proper A/B split of a hypergraph with an edge proves chi = 2
        facts["chromatic"] = 2 if proper and h.edges else UNCERTIFIED
        facts["two_coloring_proper"] = proper
        compare("chromatic", "chromatic", facts["chromatic"], pred.chromatic)
    if "star" in checks:
        facts["star"] = _certified_star(h)
        compare("star", "star", facts["star"], pred.star)
    if "single-edge" in checks:
        compare("single-edge", "single_edge", facts["single_edge"],
                pred.single_edge)
    if "hypertree" in checks:
        host = cached_host_tree(f, h, host_tree_limit)
        status = host.status
        if status == "yes" and not metrics.verify_host_tree(h, host.tree):
            status = UNCERTIFIED
        facts["host_tree"] = status
        if status != "unknown":
            compare("hypertree", "hypertree",
                    status if status == UNCERTIFIED else status == "yes",
                    pred.hypertree, computed_text=status,
                    predicted_text="yes" if pred.hypertree else "no")
    if "planarity" in checks:
        # a lifted witness or constructed embedding is checked before it
        # is returned, so a result here always carries a valid certificate
        res = _lifted_planarity(f, h) or _constructed_embedding(h)
        facts["planar"] = UNCERTIFIED if res is None else res.planar
        if res is not None and not res.planar:
            facts["planarity_witness"] = res.witness_kind
        facts["planarity_certificate_valid"] = res is not None
        compare("planarity", "planar", facts["planar"], pred.planar)
    if "iso" in checks:
        rows.append(_iso_row(f, h))
    return rows, facts


def _sweep_one(f: Factorization, h: Hypergraph, checks,
               host_tree_limit: int) -> tuple[int, list, int]:
    """The per-n outcome (n, rows, 1 if the host tree is unknown else 0)."""
    rows, facts = _evaluate(f, h, classify.predict(f), checks, host_tree_limit)
    return f.n, rows, int(facts.get("host_tree") == "unknown")


def _relabelling(vectors0: tuple, f: Factorization) -> list:
    """sigma's image in n of each label of h0, in h0's vertex order, from
    the labels' exponent vectors, as _prime_map maps a divisor of n0.  A
    label that is no divisor of n0 has the vector None and the image
    None, which verify_relabelling refuses."""
    primes = _ranked_primes(f)
    return [None if r is None else math.prod(map(pow, primes, r))
            for r in vectors0]


def _smallest(pattern: tuple[int, ...]) -> Factorization:
    """The smallest n with the sorted exponent pattern, built without
    factoring: the exponents, in descending order, on 2, 3, 5, ...."""
    primes = (p for p in itertools.count(2)
              if all(p % q for q in range(2, math.isqrt(p) + 1)))
    factors = tuple(zip(primes, sorted(pattern, reverse=True)))
    return Factorization(math.prod(p**a for p, a in factors), factors)


@functools.cache
def _pattern_base(pattern: tuple[int, ...], checks,
                  host_tree_limit: int) -> tuple:
    """(f0, h0, vectors0, rows0, unknown0) for n0 = _smallest(pattern),
    evaluated through _sweep_one on every selected check but iso, which
    belongs to each n itself; vectors0 holds the exponent vectors of h0's
    labels for _relabelling, None for a label that does not divide n0.
    Kept for the life of the process: one entry per (pattern, checks,
    limit), and 288 patterns have their smallest n within RANGE_LIMIT,
    269 of two or more primes and the 19 prime powers 2^1..2^19."""
    f0 = _smallest(pattern)
    h0 = build_intersection_hypergraph(f0)
    vectors0 = tuple(map(_exponent_vectors(f0).get, h0.vertices))
    _, rows0, unknown0 = _sweep_one(f0, h0, [c for c in checks if c != "iso"],
                                    host_tree_limit)
    return f0, h0, vectors0, rows0, unknown0


def _sweep_outcome(n: int, checks, host_tree_limit: int) -> tuple:
    """n's outcome (n, rows, unknown): its pattern's base rows, each made
    "uncertified" if n is not n0 and verify_relabelling refuses the prime
    relabelling from h0 onto n's hypergraph h, then n's own iso row on h
    if iso is selected and h0 is nonempty.  With no base row and no iso
    row there is nothing to certify, and h is not built."""
    f = factorize(n)
    f0, h0, vectors0, rows, unknown = _pattern_base(
        tuple(sorted(f.exponents)), checks, host_tree_limit)
    iso = "iso" in checks and not h0.is_empty
    if not rows and not iso:
        return n, rows, unknown
    h = build_intersection_hypergraph(f)
    if f0.n != n and not metrics.verify_relabelling(
            h0, h, _relabelling(vectors0, f)):
        rows = [_row(check, fld, UNCERTIFIED, predicted, predicted_text=text)
                for check, fld, _, predicted, _, _, text in rows]
    if iso:
        rows = [*rows, _iso_row(f, h)]
    return n, rows, unknown


def run_sweep(lo: int, hi: int, checks=ALL_CHECKS,
              host_tree_limit: int = DEFAULT_HOST_TREE_LIMIT,
              jobs: int = 1) -> SweepResult:
    """Run the selected computed-vs-predicted comparisons for lo..hi.

    _sweep_outcome is mapped over lo..hi.  It factors n, whose sorted
    exponent pattern has a smallest n, n0, that _pattern_base evaluates
    once per process on every selected check but iso; a prime power p^a
    has the pattern (a,) and n0 = 2^a.  Every n builds its own hypergraph
    h and takes n0's rows; unless n is n0, a relabelling from h0 onto h
    that metrics.verify_relabelling refuses makes each "uncertified", a
    finding.  iso is n's own, checked on h at every n of a pattern with a
    nonempty hypergraph and never kept.  An n with neither builds
    nothing.  So an n's outcome depends neither on lo nor on the sweeps
    run before.  Outcomes are folded in ascending n for every jobs value:
    jobs > 1 maps the same function with Pool.imap, which keeps order,
    _BLOCK values of n per task, and each worker process evaluates the
    patterns it meets, so output is identical across concurrency levels.
    Memory does not grow with the range: one base and one table of
    divisor exponents per pattern (and per base of the planarity lift)
    are kept for the life of the process, one divisor table and its
    vertex columns, of the last n built, and the two memos of
    index-level builds and edge comparisons keep at most
    hypergraph.EDGE_BUDGET hyperedges each.  jobs above the CPU count
    are capped to it.
    """
    if not 2 <= lo <= hi:
        raise ValueError("need 2 <= lo <= hi")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    _check_host_tree_limit(host_tree_limit)
    jobs = min(jobs, os.cpu_count() or 1)
    unknown_checks = set(checks) - set(ALL_CHECKS)
    if unknown_checks:
        raise ValueError(f"unknown checks: {sorted(unknown_checks)}")
    check_range(hi)
    if not checks:
        raise ValueError("no checks selected; choose from: "
                         + ",".join(ALL_CHECKS))
    checks = tuple(c for c in ALL_CHECKS if c in checks)
    result = SweepResult(lo, hi, checks, host_tree_limit,
                         compared={c: 0 for c in checks})

    def fold(outcomes):
        for n, rows, unknown in outcomes:
            result.hypertree_unknown += unknown
            for check, _, _, _, agree, comp, predicted in rows:
                result.compared[check] += 1
                if not agree:
                    result.findings.append(Finding(n, check, comp, predicted))

    outcome = functools.partial(_sweep_outcome, checks=checks,
                                host_tree_limit=host_tree_limit)
    if jobs > 1:
        # imported here: no other path starts a process, and the import
        # is about an eighth of the time `import znhg.cli` takes
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            fold(pool.imap(outcome, range(lo, hi + 1), _BLOCK))
    else:
        fold(map(outcome, range(lo, hi + 1)))
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
    return dumps(doc)


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
