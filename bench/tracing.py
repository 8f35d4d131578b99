"""Per-layer spans, timed from outside the program.

A Tracer replaces each layer's public functions with a wrapper that
records a span: name, start, end, parent span and request id.  The
wrapper is bound at every attribute of the program's modules that holds
the function, so callers that imported it by name are timed too.  A
target that no longer exists is recorded as missing and its metrics come
out as null, so a refactor that renames or removes one does not break
the traced run.  A ratio over nothing (no cache lookups, no planarity
tests) reads 0.

Spans stay in memory until the round ends.  A layer's self time is its
spans' durations minus the time their direct children cover; children
of one span never overlap because the program runs on one thread.

trace.overhead_s is the number of spans times the cost of one wrapper
call, timed on a no-op function in the same process.  Comparing a traced
round's wall time with untraced rounds cannot resolve it: the tracer
adds tens of milliseconds to a round, well below the round-to-round noise.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

# (span name, module, attribute) of every layer boundary a traced round times
TARGETS = (
    ("cli", "znhg.cli", "main"),
    ("verify.analyze", "znhg.verify", "analyze"),
    ("verify.run_sweep", "znhg.verify", "run_sweep"),
    ("verify.cached_host_tree", "znhg.verify", "cached_host_tree"),
    ("arith.factorize", "znhg.arith", "factorize"),
    ("arith.factorize_range", "znhg.arith", "factorize_range"),
    ("classify.predict", "znhg.classify", "predict"),
    ("hypergraph.build_intersection", "znhg.hypergraph",
     "build_intersection_hypergraph"),
    ("hypergraph.build_comaximal", "znhg.hypergraph",
     "build_comaximal_hypergraph"),
    ("metrics.diameter", "znhg.metrics", "diameter"),
    ("metrics.girth", "znhg.metrics", "girth"),
    ("metrics.chromatic", "znhg.metrics", "chromatic_number"),
    ("metrics.two_coloring", "znhg.metrics", "constructive_two_coloring"),
    ("metrics.star", "znhg.metrics", "is_star"),
    ("metrics.host_tree", "znhg.metrics", "has_host_tree"),
    ("metrics.isomorphic", "znhg.metrics", "isomorphic"),
    ("metrics.verify_isomorphism", "znhg.metrics", "verify_isomorphism"),
    ("metrics.verify_host_tree", "znhg.metrics", "verify_host_tree"),
    ("topology.incidence_graph", "znhg.topology", "incidence_graph"),
    ("topology.is_planar", "znhg.topology", "is_planar"),
    ("topology.lr", "networkx", "check_planarity"),
    ("topology.verify_rotation", "znhg.topology", "verify_rotation_system"),
    ("topology.verify_kuratowski", "znhg.topology", "verify_kuratowski_witness"),
)

# counters taken from a span's return value: span name -> (counter, amount)
RESULT_COUNTS = {
    "hypergraph.build_intersection": ("hypergraph.edges_built",
                                      lambda h: len(h.edges)),
    "hypergraph.build_comaximal": ("hypergraph.edges_built",
                                   lambda h: len(h.edges)),
    "topology.is_planar": ("topology.nonplanar_graphs",
                           lambda r: int(not r.planar)),
}

# derived metrics: name -> unit, after the .calls/.self_s pair of each target
DERIVED_UNITS = {
    "verify.self_s": "s",
    "verify.host_tree_cache.hit_ratio": "ratio",
    "hypergraph.edges_built": "count",
    "topology.lr_calls_per_graph": "ratio",
    "topology.nonplanar_graphs": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced round reports, with its unit."""
    units = {}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(DERIVED_UNITS)
    return units


class Tracer:
    """Span recorder for one round; spans are [name, parent, start, end, request]."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self.counts: Counter = Counter()
        self.request = None
        self._stack: list[int] = []

    def install(self, targets, program: str) -> None:
        """Wrap each target at its module and at every attribute of the
        program's loaded modules bound to the same function."""
        for name, module_name, attr in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            holders = [module] + [m for key, m in list(sys.modules.items())
                                  if key == program or key.startswith(program + ".")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a Factorization argument names the n being worked on
            n = getattr(args[0], "n", None) if args else None
            if isinstance(n, int):
                self.request = n
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, self.request]
            spans.append(span)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                span[2] = start
                stack.pop()
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one wrapper adds to a call: the best of ``repeats`` timings
    of ``calls`` wrapped no-op calls, less the same calls unwrapped."""
    def noop(x):
        return x

    traced = Tracer()._wrap("noop", noop)

    def best(fn):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for i in range(calls):
                fn(i)
            times.append(time.perf_counter() - start)
        return min(times)

    return max(best(traced) - best(noop), 0.0) / calls


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ratio(num, den):
    if num is None or den is None:
        return None
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, hypertree_unknown: int,
                  span_cost: float) -> dict:
    """Per-layer metrics of one traced round; None marks a missing target."""
    spans = tracer.spans
    calls: Counter = Counter()
    own_s: dict = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        own_s[span[0]] += own
    present = {name for name, _, _ in TARGETS} - set(tracer.missing)

    def calls_of(name):
        return calls[name] if name in present else None

    out = {}
    for name, _, _ in TARGETS:
        out[f"{name}.calls"] = calls_of(name)
        out[f"{name}.self_s"] = own_s[name] if name in present else None
    verify_spans = [n for n in present if n.startswith("verify.")]
    out["verify.self_s"] = (sum(own_s[n] for n in verify_spans)
                            if verify_spans else None)
    cache_calls = calls_of("verify.cached_host_tree")
    if cache_calls is None or "metrics.host_tree" not in present:
        out["verify.host_tree_cache.hit_ratio"] = None
    else:
        cached = {i for i, s in enumerate(spans) if s[0] == "verify.cached_host_tree"}
        misses = sum(1 for s in spans
                     if s[0] == "metrics.host_tree" and s[1] in cached)
        lookups = cache_calls - hypertree_unknown
        out["verify.host_tree_cache.hit_ratio"] = _ratio(lookups - misses, lookups)
    for counter, sources in (("hypergraph.edges_built",
                              ("hypergraph.build_intersection",
                               "hypergraph.build_comaximal")),
                             ("topology.nonplanar_graphs", ("topology.is_planar",))):
        out[counter] = (tracer.counts[counter]
                        if any(s in present for s in sources) else None)
    out["topology.lr_calls_per_graph"] = _ratio(calls_of("topology.lr"),
                                                calls_of("topology.is_planar"))
    out["trace.spans"] = len(spans)
    out["trace.overhead_s"] = len(spans) * span_cost
    return out
