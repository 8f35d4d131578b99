"""Hypergraphs on the subgroups of Z_n.

Two constructions on the proper nontrivial subgroups <d> of Z_n:

* the trivial-intersection hypergraph: vertices are subgroups having a
  partner with trivial intersection (equivalently lcm(d, d') = n), and
  hyperedges are the maximal families of pairwise trivially
  intersecting subgroups;
* the co-maximal hypergraph: same construction with <d><d'> = Z_n,
  which for Z_n reduces to gcd(d, d') = 1 (validated element-wise
  against the group engine in groups.py).

A vertex <d> of the first carries its deficiency mask, bit i set iff the
exponent of the i-th prime in d is below alpha_i.  lcm(d, d') = n iff no
prime is deficient in both, so trivial intersection is disjointness of
masks.  A vertex of the second carries its support mask, bit i set iff
the i-th prime divides d, and gcd(d, d') = 1 iff the supports are
disjoint.  d -> n/d swaps the two masks.  Both masks of every divisor
come from one table of (d, deficiency mask, support mask) rows, ascending
by d; each builder filters its own column, and the table of the last n
is kept, so building both hypergraphs of one n enumerates its divisors
once and memory does not grow with the number of n built.

Either way compatibility depends on the mask alone, and vertices of one
mask class have the same neighbours and are never compatible with each
other.  So the hyperedges are the maximal cliques of the graph on the at
most 2^omega - 2 mask classes, enumerated with pivoted Bron-Kerbosch over
bitmasks, each expanded into one vertex per class in every way and
re-sorted into a canonical form.  The class cliques depend on the set of
masks alone, so they are enumerated once per mask set and cached.  For
Z_n every mask of 0 < mask < 2^omega - 1 occurs in both hypergraphs, so
that is one enumeration per omega, shared by both builders.

The hyperedges as tuples of vertex positions depend on the sequence of
masks alone, in ascending label order, and a sweep meets the same
sequences again and again.  So _index_edges, which expands the class
cliques, is memoized on that sequence by an EdgeMemo: an LRU memo that
keeps no more than EDGE_BUDGET hyperedges across its entries and keeps no
result larger than that at all.  metrics.verify_isomorphism memoizes its
edge comparison the same way.  Every n is still built on its own labels,
and memory does not grow with the number of n built.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import dataclass
from itertools import product
from math import comb, gcd, lcm, prod
from typing import Callable, Hashable, Sequence

from .arith import CapabilityError, Factorization

# analyze on a 2-core machine: 0.5 s for the 9th primorial (21,146
# hyperedges, 510 vertices), whose mask classes are single vertices; 0.2 s
# for (150, 150) (22,500, 300), for (18, 18, 18) (23,328, 1,026) and for
# (24, 1000) (24,000, 1,024), the largest pattern both bounds pass; 0.8 s
# for (9, 9, 9, 9) (91,854).  At 1,100 vertices (1, a) and (4, a) take
# 0.03 s, and (1, 2000) takes 0.06 s.  Both bounds sit far inside the ~7 s
# budget they were set for; they stay put so no exit code changes.
MAX_HYPEREDGES = 25000
MAX_VERTICES = 1100

# Hyperedges an EdgeMemo keeps across its entries.  In a sweep of 2..7000
# with every check but planarity, 91 % of index-level builds hit at
# 8,192, against 88 % at 4,096 and 92 % at 16,384; the two memos, full,
# hold about 0.7 MB.
EDGE_BUDGET = 8192


@dataclass(frozen=True)
class Hypergraph:
    """Vertex labels plus a canonical list of maximal hyperedges.

    ``edges`` holds tuples of vertex indices, each sorted ascending, the
    whole list sorted lexicographically.  The empty hypergraph is
    Hypergraph((), ()).
    """

    vertices: tuple[Hashable, ...]
    edges: tuple[tuple[int, ...], ...]

    @property
    def is_empty(self) -> bool:
        return not self.vertices and not self.edges

    def edge_label_sets(self) -> tuple[tuple[Hashable, ...], ...]:
        """Edges as tuples of vertex labels instead of indices."""
        return tuple(tuple(map(self.vertices.__getitem__, e))
                     for e in self.edges)

    def vertex_index(self, label: Hashable) -> int:
        try:
            return self.vertices.index(label)
        except ValueError:
            raise KeyError(f"no vertex labelled {label!r}") from None

    def validate(self) -> None:
        """Check the structural invariants; raises ValueError on violation."""
        n = len(self.vertices)
        if len(set(self.vertices)) != n:
            raise ValueError("duplicate vertex labels")
        covered = set()
        seen = set()
        for e in self.edges:
            if len(e) < 2:
                raise ValueError(f"hyperedge {e} has fewer than 2 vertices")
            if list(e) != sorted(set(e)):
                raise ValueError(f"hyperedge {e} not sorted/deduplicated")
            if e[-1] >= n or e[0] < 0:
                raise ValueError(f"hyperedge {e} references unknown vertex")
            seen.add(frozenset(e))
            covered.update(e)
        for a in seen:
            for b in seen:
                if a < b:
                    raise ValueError(f"hyperedge {set(a)} contained in {set(b)}")
        if covered != set(range(n)):
            raise ValueError("some vertex lies on no hyperedge")
        if list(self.edges) != sorted(self.edges):
            raise ValueError("hyperedges not in canonical order")


def canonical_hypergraph(vertices: Sequence[Hashable],
                         edges: Sequence[Sequence[int]]) -> Hypergraph:
    """Build a Hypergraph in canonical form from raw index sets."""
    canon = sorted(tuple(sorted(set(e))) for e in edges)
    return Hypergraph(tuple(vertices), tuple(canon))


def enumerate_maximal_edges(vertex_count: int,
                            compatible: Callable[[int, int], bool]) -> list[tuple[int, ...]]:
    """All maximal cliques of size >= 2 of the given symmetric relation.

    Self-pairs are ignored.  Output is canonical: each clique sorted
    ascending, cliques sorted lexicographically.
    """
    adj = [0] * vertex_count
    for i in range(vertex_count):
        for j in range(i + 1, vertex_count):
            if compatible(i, j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    cliques: list[int] = []
    if vertex_count:
        _bron_kerbosch_pivot(adj, 0, (1 << vertex_count) - 1, 0, cliques)
    out = []
    for mask in cliques:
        members = _mask_to_tuple(mask)
        if len(members) >= 2:
            out.append(members)
    out.sort()
    return out


def _bron_kerbosch_pivot(adj: list[int], r: int, p: int, x: int,
                         out: list[int]) -> None:
    if p == 0 and x == 0:
        out.append(r)
        return
    # pivot: element of P|X with the most neighbours inside P
    best, pivot_adj = -1, 0
    px = p | x
    while px:
        u = (px & -px).bit_length() - 1
        px &= px - 1
        k = (p & adj[u]).bit_count()
        if k > best:
            best, pivot_adj = k, adj[u]
    cand = p & ~pivot_adj
    while cand:
        bit = cand & -cand
        v = bit.bit_length() - 1
        _bron_kerbosch_pivot(adj, r | bit, p & adj[v], x & adj[v], out)
        p &= ~bit
        x |= bit
        cand &= ~bit


def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        bit = mask & -mask
        out.append(bit.bit_length() - 1)
        mask &= mask - 1
    return tuple(out)


def _require_proper_divisor(d: int, f: Factorization) -> None:
    if not (1 < d < f.n) or f.n % d != 0:
        raise ValueError(f"{d} is not a proper nontrivial divisor of {f.n}")


def trivially_intersects(d1: int, d2: int, f: Factorization) -> bool:
    """True iff <d1> and <d2> meet only in the identity, i.e. lcm(d1, d2) = n."""
    _require_proper_divisor(d1, f)
    _require_proper_divisor(d2, f)
    return lcm(d1, d2) == f.n


def comaximal(d1: int, d2: int, f: Factorization) -> bool:
    """True iff <d1><d2> = Z_n, i.e. gcd(d1, d2) = 1."""
    _require_proper_divisor(d1, f)
    _require_proper_divisor(d2, f)
    return gcd(d1, d2) == 1


@functools.lru_cache(maxsize=1)
def _divisor_table(f: Factorization) -> tuple[tuple[int, int, int], ...]:
    """(d, deficiency mask, support mask) for every divisor d of n,
    ascending by d.  Bit i of the deficiency mask is set iff the exponent
    r of the i-th prime in d is below alpha_i, and bit i of the support
    mask iff r > 0.  Divisors are built from their exponents as in
    arith.divisors.  One entry is kept, so building both hypergraphs of
    one n enumerates its divisors once.
    """
    rows = [(1, 0, 0)]
    for i, (p, a) in enumerate(f.factors):
        steps = [(p**r, (r < a) << i, (r > 0) << i) for r in range(a + 1)]
        rows = [(d * q, m | b, s | c) for d, m, s in rows for q, b, c in steps]
    rows.sort()
    return tuple(rows)


def vertex_set(f: Factorization) -> list[tuple[int, int]]:
    """Vertices of the trivial-intersection hypergraph as (generator,
    deficiency mask) pairs, ascending by generator: the deficiency column
    of the divisor table.

    <d> qualifies iff its mask is neither full (some exponent is full,
    which excludes d = 1) nor 0 (d = n): then any divisor whose mask is
    the complement is a partner.  Empty when omega(n) <= 1.
    """
    full = (1 << f.omega) - 1
    return [(d, m) for d, m, _ in _divisor_table(f) if 0 < m < full]


def support_set(f: Factorization) -> list[tuple[int, int]]:
    """Vertices of the co-maximal hypergraph as (generator, support mask)
    pairs, ascending by generator: the support column of the divisor
    table.

    <d> is coprime to some other proper nontrivial divisor iff some prime
    p of n does not divide d, that is iff its support is not full; a
    support of 0 is d = 1.  Then p is such a partner: p < n since d > 1
    brings another prime, and p != d since p divides itself but not d.
    Conversely every prime of a coprime partner e is a prime of n that
    does not divide d.  Empty when omega(n) <= 1.
    """
    full = (1 << f.omega) - 1
    return [(d, s) for d, _, s in _divisor_table(f) if 0 < s < full]


def intersection_edge_count(f: Factorization) -> int:
    """Hyperedges of the trivial-intersection hypergraph, in closed form.

    Two vertices are compatible iff the sets of primes where they sit
    below full exponent are disjoint, so a hyperedge is one vertex per
    block of a set partition of the primes into at least two blocks,
    the vertex having any exponent in 0..alpha_i - 1 on each prime of
    its block and alpha_i off it.  Hence (B_omega - 1) * prod(alpha_i),
    with B_omega the Bell number.
    """
    bell = [1]
    for k in range(f.omega):
        bell.append(sum(comb(k, i) * b for i, b in enumerate(bell)))
    return (bell[-1] - 1) * prod(f.exponents)


def intersection_vertex_count(f: Factorization) -> int:
    """Vertices of the trivial-intersection hypergraph, in closed form.

    The divisors with no exponent full number prod(alpha_i); the rest,
    less n itself, are the vertices: d(n) - prod(alpha_i) - 1, which is
    0 for a prime power.
    """
    return f.divisor_count() - prod(f.exponents) - 1


def check_buildable(f: Factorization) -> None:
    """Refuse, before construction, a hypergraph above MAX_HYPEREDGES
    hyperedges or MAX_VERTICES vertices."""
    for count, limit, what in (
            (intersection_edge_count(f), MAX_HYPEREDGES, "hyperedges"),
            (intersection_vertex_count(f), MAX_VERTICES, "vertices")):
        if count > limit:
            raise CapabilityError(
                f"the hypergraph of {f.n} has {count} {what}; construction "
                f"is limited to {limit}")


@functools.cache
def _class_cliques(masks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The maximal cliques of two or more classes of the disjointness
    graph on the given distinct masks, as tuples of positions in masks.

    Keyed by the masks themselves, so it is exact for any mask set.
    """
    return tuple(enumerate_maximal_edges(
        len(masks), lambda a, b: not masks[a] & masks[b]))


class EdgeMemo:
    """An LRU memo of a pure function of hashable arguments, bounded by
    the hyperedges its entries hold rather than by their number.

    cost(args, result) is the hyperedges an entry keeps alive, counted as
    at least 1 so the entry count is bounded too.  After each insertion
    the least recently used entries are evicted while the total, pinned,
    exceeds EDGE_BUDGET, read at call time; a result that alone exceeds it
    is returned and not kept.
    """

    def __init__(self, fn, cost):
        self._fn = fn
        self._cost = cost
        self._entries: OrderedDict = OrderedDict()
        self.pinned = 0
        functools.update_wrapper(self, fn)

    def __call__(self, *args):
        entries = self._entries
        entry = entries.get(args)
        if entry is not None:
            entries.move_to_end(args)
            return entry[0]
        result = self._fn(*args)
        cost = max(self._cost(args, result), 1)
        if cost <= EDGE_BUDGET:
            entries[args] = result, cost
            self.pinned += cost
            while self.pinned > EDGE_BUDGET:
                self.pinned -= entries.popitem(last=False)[1][1]
        return result

    def cache_clear(self) -> None:
        self._entries.clear()
        self.pinned = 0


def edge_memo(cost):
    """Decorator form of EdgeMemo."""
    return functools.partial(EdgeMemo, cost=cost)


@edge_memo(lambda args, edges: len(edges))
def _index_edges(vertex_masks: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The maximal families of positions in vertex_masks whose masks are
    pairwise disjoint, in canonical order; every mask is nonzero.

    Equal masks meet, so a family takes at most one vertex per mask
    class, and it is maximal iff its classes form a maximal clique of
    the class graph: a class extending the classes extends the family
    by any of its members.  Each maximal class clique is therefore the
    product of its classes' member lists.  The class cliques come from
    _class_cliques, enumerated once per set of distinct masks.
    """
    members: dict[int, list[int]] = {}
    for i, m in enumerate(vertex_masks):
        members.setdefault(m, []).append(i)
    masks = tuple(sorted(members))
    lists = [members[m] for m in masks]
    edges = []
    for classes in _class_cliques(masks):
        edges += map(tuple, map(sorted, product(
            *map(lists.__getitem__, classes))))
    edges.sort()
    return tuple(edges)


def _build_on_mask_classes(pairs: list[tuple[int, int]]) -> Hypergraph:
    """The hypergraph of maximal families with pairwise disjoint masks,
    on (label, nonzero mask) pairs in ascending label order: the labels
    over _index_edges of the masks."""
    labels, vertex_masks = tuple(zip(*pairs)) or ((), ())
    return Hypergraph(labels, _index_edges(vertex_masks))


def build_intersection_hypergraph(f: Factorization) -> Hypergraph:
    """The trivial-intersection hypergraph of Z_n on generator labels."""
    return _build_on_mask_classes(vertex_set(f))


def build_comaximal_hypergraph(f: Factorization) -> Hypergraph:
    """The co-maximal hypergraph of Z_n on generator labels."""
    return _build_on_mask_classes(support_set(f))
