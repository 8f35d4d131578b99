"""Exact structural invariants of hypergraphs.

Distance and diameter live on the primal graph (one primal edge = one
hyperedge of path length).  Girth is half the shortest cycle of the
bipartite incidence representation.  The weak chromatic number comes
from exact backtracking, host trees from a maximum-weight spanning tree
of co-membership counts, and isomorphism from pruned bijection search --
all answers are exact, never heuristic.  The isomorphism search serves
the group engine and the tests; the Z_n harness checks explicit maps
with verify_relabelling.

The Z_n harness also takes diameter, girth and star from witnesses that
check_diameter, check_girth and check_star accept on the hypergraph
alone, in a few passes over the vertices and hyperedges instead of a
BFS from every vertex.  A witness they reject is reported, not searched
around: diameter, girth, is_star and chromatic_number serve the tests
as independent oracles.  This module imports nothing from verify, where
the witnesses are built.

verify_relabelling is the one checker of an explicit map.  It takes the
map as the image of each of h1's labels, in h1's vertex order, checks
the images against h2's labels in one pass on every call, then compares
the edge sets through _maps_edges_onto, a pure function of the two edge
tuples and the map as vertex positions.  A sweep compares the same
index-level inputs again and again, so it is memoized by a
hypergraph.EdgeMemo, which keeps at most hypergraph.EDGE_BUDGET
hyperedges across its entries.  verify_isomorphism takes the map as a
dict, for the tests and the group command, and passes its images on.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import combinations, repeat
from typing import Hashable

from .arith import Factorization
from .hypergraph import Hypergraph, edge_memo
from .topology import SimpleGraph, component_count, simple_graph

INFINITE = math.inf


class ColoringContradiction(RuntimeError):
    """The closed-form two-coloring failed verification.

    Raised instead of returning, because a failure here contradicts the
    chromatic classification and must surface as a finding.
    """


def primal_adjacency(h: Hypergraph) -> list[int]:
    """Bitmask adjacency of the primal graph (co-membership in an edge)."""
    adj = [0] * len(h.vertices)
    for e in h.edges:
        members = 0
        for i in e:
            members |= 1 << i
        for i in e:
            adj[i] |= members
    return [a & ~(1 << i) for i, a in enumerate(adj)]


def is_connected(h: Hypergraph) -> bool:
    """Vacuously true for at most one vertex."""
    if len(h.vertices) <= 1:
        return True
    return INFINITE not in _bfs_distances(primal_adjacency(h), 0)


def _bfs_distances(adj: list[int], source: int) -> list[float]:
    n = len(adj)
    dist: list[float] = [INFINITE] * n
    dist[source] = 0
    reached = 1 << source
    frontier = 1 << source
    d = 0
    while frontier:
        d += 1
        nxt = 0
        while frontier:
            bit = frontier & -frontier
            frontier &= frontier - 1
            nxt |= adj[bit.bit_length() - 1]
        frontier = nxt & ~reached
        reached |= frontier
        m = frontier
        while m:
            bit = m & -m
            m &= m - 1
            dist[bit.bit_length() - 1] = d
    return dist


def distance(h: Hypergraph, u: Hashable, v: Hashable):
    """Hyperedge count of a shortest path between the labelled vertices;
    0 for u == v, math.inf when unreachable."""
    iu = h.vertex_index(u)
    iv = h.vertex_index(v)
    if iu == iv:
        return 0
    return _bfs_distances(primal_adjacency(h), iu)[iv]


def diameter(h: Hypergraph):
    """Maximum pairwise distance; None for the empty hypergraph,
    math.inf when disconnected."""
    n = len(h.vertices)
    if n == 0:
        return None
    if n == 1:
        return 0
    adj = primal_adjacency(h)
    best = 0
    for s in range(n):
        best = max(best, max(_bfs_distances(adj, s)))
        if best == INFINITE:
            return INFINITE
    return best


def girth(h: Hypergraph):
    """Length of a shortest hypergraph cycle, math.inf if acyclic.

    Computed as half the shortest cycle of the vertex/edge incidence
    graph: a hypergraph cycle of length k (k distinct vertices and k
    distinct hyperedges, closed) is exactly an incidence cycle of
    length 2k, so in particular two hyperedges sharing two vertices
    give girth 2.
    """
    nv = len(h.vertices)
    if len(h.edges) < 2:
        return INFINITE
    adj: list[list[int]] = [[] for _ in range(nv + len(h.edges))]
    for j, e in enumerate(h.edges):
        for v in e:
            adj[v].append(nv + j)
            adj[nv + j].append(v)
    best = INFINITE
    # every cycle alternates sides, so rooting at vertex nodes suffices
    for root in range(nv):
        dist = {root: 0}
        parent = {root: -1}
        layer = [root]
        while layer:
            nxt = []
            for u in layer:
                du = dist[u]
                if du * 2 >= best:
                    continue
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = du + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent[w] != u:
                        cand = du + dist[w] + 1
                        if cand < best:
                            best = cand
            layer = nxt
    return best if best is INFINITE else best // 2


def chromatic_number(h: Hypergraph) -> int:
    """Smallest k admitting a weak proper k-coloring (no monochromatic
    hyperedge), by exact backtracking from k = 1; 0 for the empty
    hypergraph."""
    n = len(h.vertices)
    if n == 0:
        return 0
    if not h.edges:
        return 1
    for k in range(1, n + 1):
        if _try_color(h, k) is not None:
            return k
    raise AssertionError("n colors always suffice")  # pragma: no cover


def _try_color(h: Hypergraph, k: int) -> list[int] | None:
    """Backtracking weak coloring with k colors, or None."""
    n = len(h.vertices)
    member = [[] for _ in range(n)]
    for j, e in enumerate(h.edges):
        for v in e:
            member[v].append(j)
    # color most-constrained vertices first
    order = sorted(range(n), key=lambda v: -len(member[v]))
    pos = [0] * n
    for idx, v in enumerate(order):
        pos[v] = idx
    edge_last = [max(pos[v] for v in e) for e in h.edges]
    colors = [-1] * n

    def feasible(j: int, upto: int) -> bool:
        # an edge fully colored at step `upto` must see two colors
        if edge_last[j] != upto:
            return True
        e = h.edges[j]
        first = colors[e[0]]
        return any(colors[v] != first for v in e)

    def extend(i: int) -> bool:
        if i == n:
            return True
        v = order[i]
        limit = k if i > 0 else 1  # symmetry break on the first vertex
        for c in range(limit):
            colors[v] = c
            if all(feasible(j, i) for j in member[v]) and extend(i + 1):
                return True
        colors[v] = -1
        return False

    return list(colors) if extend(0) else None


def constructive_two_coloring(f: Factorization, h: Hypergraph) -> dict:
    """The closed-form proper 2-coloring of the trivial-intersection
    hypergraph: color A = vertices with the full exponent of the smallest
    prime, color B = the rest.  Verified before returning."""
    if f.omega < 2:
        raise ValueError("two-coloring needs at least two prime divisors")
    p, a = f.factors[0]
    full = p**a
    colors = ["B" if lab % full else "A" for lab in h.vertices]
    for e in h.edges:
        if len({colors[i] for i in e}) != 2:
            labels = tuple(h.vertices[i] for i in e)
            raise ColoringContradiction(
                f"edge {labels} is monochromatic under the A/B split for n={f.n}")
    return dict(zip(h.vertices, colors))


def is_star(h: Hypergraph) -> bool:
    """True iff some vertex lies on every hyperedge (vacuously true with
    no edges)."""
    if not h.edges:
        return True
    common = set(h.edges[0])
    for e in h.edges[1:]:
        common.intersection_update(e)
        if not common:
            return False
    return True


# Certificate checkers.  Each accepts a claimed value of diameter, girth
# or is_star only when the witness proves it on h itself; none knows n or
# the exponent pattern that produced the witness.


def _index_mask(indices, count: int) -> int | None:
    """Bitmask of distinct integers in range(count); None otherwise."""
    mask = 0
    for i in indices:
        if not isinstance(i, int) or not 0 <= i < count or mask >> i & 1:
            return None
        mask |= 1 << i
    return mask


def _far_pair(adj: list[int], u, v, apart: int) -> bool:
    """u and v are distinct and not adjacent, so at least 2 apart; for
    apart == 3 they also have no common neighbour."""
    return (_index_mask((u, v), len(adj)) is not None
            and not adj[u] >> v & 1
            and (apart == 2 or not adj[u] & adj[v]))


def _complete_bipartite(adj: list[int], side_a, side_b) -> bool:
    """side_a and side_b partition the vertices, both nonempty, and every
    side_a vertex is adjacent to every side_b vertex: any two vertices
    are then at most 2 apart."""
    count = len(adj)
    a, b = _index_mask(side_a, count), _index_mask(side_b, count)
    return (bool(a) and bool(b) and not a & b and a | b == (1 << count) - 1
            and all(adj[u] & b == b for u in side_a))


def _dominating_clique(adj: list[int], hubs) -> bool:
    """The hubs are pairwise adjacent and every other vertex is adjacent
    to one: any two vertices are then joined through at most two hubs,
    so they are at most 3 apart."""
    clique = _index_mask(hubs, len(adj))
    return (bool(clique)
            and all((adj[x] | 1 << x) & clique == clique for x in hubs)
            and all(clique >> v & 1 or adj[v] & clique
                    for v in range(len(adj))))


def check_diameter(h: Hypergraph, value, upper, lower) -> bool:
    """Accept the claim diameter(h) == value.

    value 1: upper and lower are unused; every two of at least two
    vertices are adjacent.  value 2: upper = (side_a, side_b), a complete
    bipartite split; lower = a pair that is not adjacent.  value 3: upper
    = hubs, a dominating clique; lower = a pair that is not adjacent and
    has no common neighbour.  Any other value is rejected.
    """
    adj = primal_adjacency(h)
    if value == 1:
        everyone = (1 << len(adj)) - 1
        return len(adj) >= 2 and all(a | 1 << v == everyone
                                     for v, a in enumerate(adj))
    if value == 2:
        return _complete_bipartite(adj, *upper) and _far_pair(adj, *lower, 2)
    if value == 3:
        return _dominating_clique(adj, upper) and _far_pair(adj, *lower, 3)
    return False


def _two_coloured_four_cycle(h: Hypergraph, side, cycle) -> bool:
    """Every hyperedge has two vertices and no two are equal, so h is a
    simple graph; side holds exactly one end of each, so it has no odd
    cycle; and cycle lists four distinct vertices whose consecutive pairs,
    closing, are hyperedges.  Then the shortest cycle has length 4."""
    nv = len(h.vertices)
    a = _index_mask(side, nv)
    if a is None or any(len(e) != 2 for e in h.edges):
        return False
    pairs = {frozenset(e) for e in h.edges}
    return (len(pairs) == len(h.edges)
            and all(a >> u & 1 != a >> v & 1 for u, v in h.edges)
            and len(cycle) == 4 and _index_mask(cycle, nv) is not None
            and all(frozenset((cycle[i - 1], cycle[i])) in pairs
                    for i in range(4)))


def check_girth(h: Hypergraph, value, witness) -> bool:
    """Accept the claim girth(h) == value.

    value 2: witness = (j, k, u, v), two distinct hyperedges that both
    hold the distinct vertices u and v; no cycle is shorter.  INFINITE:
    witness is unused; the incidence graph is a forest.  value 4: witness
    = (side, cycle) for _two_coloured_four_cycle.  Any other value is
    rejected.
    """
    if value == 2:
        j, k, u, v = witness
        edges = range(len(h.edges))
        return (j in edges and k in edges and j != k and u != v
                and all(x in h.edges[j] and x in h.edges[k] for x in (u, v)))
    if value == INFINITE:
        # a list, not a set: a hyperedge that lists a vertex twice gives
        # a repeated pair, which closes a cycle
        nv = len(h.vertices)
        pairs = [(v, nv + j) for j, e in enumerate(h.edges) for v in e]
        nodes = nv + len(h.edges)
        return component_count(nodes, pairs) == nodes - len(pairs)
    if value == 4:
        return _two_coloured_four_cycle(h, *witness)
    return False


def check_star(h: Hypergraph, value, witness) -> bool:
    """Accept the claim is_star(h) == value.

    True: witness = a vertex that lies on every hyperedge.  False:
    witness = hyperedge indices whose common intersection is empty.
    """
    if value:
        return (witness in range(len(h.vertices))
                and all(witness in e for e in h.edges))
    if not witness or any(j not in range(len(h.edges)) for j in witness):
        return False
    return not set(h.edges[witness[0]]).intersection(
        *(h.edges[j] for j in witness[1:]))


def _comembership(h: Hypergraph) -> list[list[int]]:
    """co[u][v]: the hyperedges holding both u and v.  The diagonal counts
    each vertex's hyperedges; no caller reads it."""
    co = [[0] * len(h.vertices) for _ in h.vertices]
    for e in h.edges:
        for u in e:
            row = co[u]
            for v in e:
                row[v] += 1
    return co


@dataclass(frozen=True)
class HostTreeResult:
    """Outcome of the exact host-tree test.

    status is "yes" (tree is the witness, for verify_host_tree to
    check), "no" (no host tree exists, exact by the spanning-tree weight
    bound) or "unknown" (vertex count above the limit; tree is None).
    """

    status: str
    tree: SimpleGraph | None = None


def has_host_tree(h: Hypergraph, search_limit: int = 9) -> HostTreeResult:
    """Exact test for a spanning tree in which every hyperedge induces a
    subtree.

    Weight each vertex pair by the number of hyperedges containing both.
    A spanning tree T then weighs sum_e |E(T[e])| <= sum_e (|e| - 1), with
    equality iff every hyperedge induces a subtree, so a host tree exists
    iff a maximum-weight spanning tree reaches the bound, and that tree is
    one (the join-tree test: Bernstein & Goodman 1981, Tarjan & Yannakakis
    1984).  Above search_limit vertices the answer is "unknown".  A "yes"
    comes with the Prim tree unchecked; verify_host_tree checks it.
    """
    m = len(h.vertices)
    if m > search_limit:
        return HostTreeResult("unknown")
    weight = _comembership(h)
    # Prim from vertex 0; weight-0 pairs are allowed, so the tree spans
    chosen: list[tuple[int, int]] = []
    total = 0
    outside = list(range(1, m))
    best = list(weight[0]) if m else []
    link = [0] * m
    while outside:
        v = max(outside, key=best.__getitem__)
        outside.remove(v)
        total += best[v]
        chosen.append((link[v], v))
        for u in outside:
            if weight[v][u] > best[u]:
                best[u] = weight[v][u]
                link[u] = v
    if total < sum(len(e) - 1 for e in h.edges):
        return HostTreeResult("no")
    return HostTreeResult("yes", simple_graph(m, chosen))


def verify_host_tree(h: Hypergraph, tree: SimpleGraph) -> bool:
    """Independent check: a spanning tree in which every hyperedge e
    contains exactly |e| - 1 tree edges.

    max(m - 1, 0) edges that form a forest, which topology.component_count
    tells by counting m - edge_count components, make a tree.  A vertex
    subset of a tree induces a forest, and a forest on k vertices is
    connected iff it has k - 1 edges.  The count looks up each pair of e
    in the tree's edge set, O(|e|^2) lookups.
    """
    m = len(h.vertices)
    if tree.vertex_count != m or tree.edge_count != max(m - 1, 0):
        return False
    return (component_count(m, tree.edges) == m - tree.edge_count
            and all(sum(p in tree.edges for p in combinations(sorted(e), 2))
                    == len(e) - 1 for e in h.edges))


def isomorphic(h1: Hypergraph, h2: Hypergraph):
    """Exact hypergraph isomorphism; returns (True, vertex label map) or
    (False, None).

    Backtracking over vertex bijections pruned by per-vertex incident
    edge-size multisets and pairwise co-membership counts; a complete
    candidate is accepted only if it maps the edge set exactly onto the
    edge set.
    """
    n = len(h1.vertices)
    if n != len(h2.vertices) or len(h1.edges) != len(h2.edges):
        return False, None
    if sorted(map(len, h1.edges)) != sorted(map(len, h2.edges)):
        return False, None
    if n == 0:
        return True, {}

    def signatures(h: Hypergraph) -> list[tuple[int, ...]]:
        sig = [[] for _ in range(len(h.vertices))]
        for e in h.edges:
            for v in e:
                sig[v].append(len(e))
        return [tuple(sorted(s)) for s in sig]

    sig1, sig2 = signatures(h1), signatures(h2)
    if sorted(sig1) != sorted(sig2):
        return False, None

    co1, co2 = _comembership(h1), _comembership(h2)
    # rarest signatures first
    freq: dict[tuple[int, ...], int] = {}
    for s in sig1:
        freq[s] = freq.get(s, 0) + 1
    order = sorted(range(n), key=lambda v: (freq[sig1[v]], sig1[v], v))
    mapping = [-1] * n
    used = [False] * n
    edge_set2 = {frozenset(e) for e in h2.edges}

    def extend(k: int) -> bool:
        if k == n:
            mapped = {frozenset(mapping[v] for v in e) for e in h1.edges}
            return mapped == edge_set2
        v = order[k]
        for w in range(n):
            if used[w] or sig2[w] != sig1[v]:
                continue
            if any(co1[v][order[i]] != co2[w][mapping[order[i]]] for i in range(k)):
                continue
            mapping[v] = w
            used[w] = True
            if extend(k + 1):
                return True
            used[w] = False
            mapping[v] = -1
        return False

    if extend(0):
        return True, {h1.vertices[v]: h2.vertices[mapping[v]] for v in range(n)}
    return False, None


def verify_relabelling(h1: Hypergraph, h2: Hypergraph, images) -> bool:
    """Check that h1.vertices[i] -> images[i] is a bijection onto h2's
    labels that maps hyperedges onto hyperedges.

    images is a sequence, one image per label of h1 in h1's vertex order.
    One pass finds each image's position in h2.  An image that is no
    label of h2, such as the sentinel a caller gives a label it cannot
    map, gets position count, which no vertex of h2 has, and refuses the
    map, as does an image taken twice.  h2's labels must be distinct, as
    Hypergraph.validate requires and every builder guarantees.  Then the
    edges, which must be tuples as Hypergraph holds them, are compared by
    the memoized _maps_edges_onto.
    """
    count = len(h1.vertices)
    if not len(images) == count == len(h2.vertices):
        return False
    index2 = {lab: i for i, lab in enumerate(h2.vertices)}
    to2 = array("I", map(index2.get, images, repeat(count)))
    if count in to2 or len(set(to2)) != count:
        return False
    return _maps_edges_onto(h1.edges, h2.edges, to2.tobytes())


def verify_isomorphism(h1: Hypergraph, h2: Hypergraph, mapping: dict) -> bool:
    """Check a claimed witness bijection, given as a dict from h1's labels
    to h2's, with verify_relabelling.

    The keys must be exactly h1's labels, whose count they match when
    each label has an image; a label without one gets a sentinel that no
    hypergraph holds, which verify_relabelling refuses.
    """
    if len(mapping) != len(h1.vertices):
        return False
    return verify_relabelling(h1, h2, list(map(
        mapping.get, h1.vertices, repeat(object()))))


@edge_memo(lambda args, _: len(args[0]) + len(args[1]),
           key=lambda edges1, edges2, to2: (id(edges1), id(edges2), to2))
def _maps_edges_onto(edges1: tuple, edges2: tuple, to2: bytes) -> bool:
    """True iff position i -> to2[i] maps the edges of edges1 onto
    those of edges2.

    to2 holds the positions as native unsigned ints.  It is bytes, not a
    tuple, because CPython keeps up to 2,000 freed tuples of each length
    below 20 for reuse: the map of every lookup, freed once it hits,
    would pile up there, which raised a sweep's peak memory by 0.6 MB.
    """
    to2 = memoryview(to2).cast("I")
    image = {frozenset(map(to2.__getitem__, e)) for e in edges1}
    return image == set(map(frozenset, edges2))
