"""Simple graphs, incidence graphs and certified planarity.

Planarity decisions are delegated to networkx's left-right test, but
both kinds of certificate -- a rotation system for planar graphs, a
Kuratowski subdivision for nonplanar ones -- are re-verified here by
independent code.  is_planar verifies the certificate once, before
returning, and raises if it fails, so callers never re-check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import networkx as nx

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range or unnormalized")
        if self.labels is not None and len(self.labels) != self.vertex_count:
            raise ValueError("label count does not match vertex count")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacency(self) -> list[set[int]]:
        adj = [set() for _ in range(self.vertex_count)]
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        return adj

    def degrees(self) -> list[int]:
        deg = [0] * self.vertex_count
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


def simple_graph(vertex_count: int, pairs, labels=None) -> SimpleGraph:
    """Normalize an edge list into a SimpleGraph."""
    edges = frozenset((min(u, v), max(u, v)) for u, v in pairs)
    return SimpleGraph(vertex_count, edges,
                       tuple(labels) if labels is not None else None)


def connected_components(g: SimpleGraph) -> list[list[int]]:
    adj = g.adjacency()
    seen = [False] * g.vertex_count
    comps = []
    for s in range(g.vertex_count):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        stack = [s]
        while stack:
            u = stack.pop()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def shortest_cycle_length(g: SimpleGraph):
    """Length of a shortest cycle, or math.inf for forests.

    BFS from every vertex; a non-tree edge (u, w) seen from root r gives a
    cycle of length dist[u] + dist[w] + 1, and the minimum over all roots
    is exact because every root on a shortest cycle detects it.
    """
    adj = g.adjacency()
    best = math.inf
    for root in range(g.vertex_count):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for w in adj[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif parent[u] != w and parent[w] != u:
                        cand = dist[u] + dist[w] + 1
                        if cand < best:
                            best = cand
            queue = nxt
    return best


def incidence_graph(h: Hypergraph) -> SimpleGraph:
    """Bipartite representation: subgroup nodes first, then hyperedge nodes.

    Node i < |V| is vertex i of the hypergraph (label ``v<generator>``);
    node |V| + j is hyperedge j (label ``e<j>``).
    """
    nv = len(h.vertices)
    pairs = []
    for j, e in enumerate(h.edges):
        for v in e:
            pairs.append((v, nv + j))
    labels = [f"v{lab}" for lab in h.vertices] + [f"e{j}" for j in range(len(h.edges))]
    return simple_graph(nv + len(h.edges), pairs, labels)


@dataclass(frozen=True)
class PlanarityResult:
    """Decision plus certificate.

    planar: rotation[v] lists v's neighbours in cyclic order, and the
    traced faces satisfy Euler's formula componentwise.
    nonplanar: witness is a subgraph of the input whose edges form a
    subdivision of K5 or K33 (witness_kind says which).
    """

    planar: bool
    rotation: tuple[tuple[int, ...], ...] | None = None
    witness: SimpleGraph | None = None
    witness_kind: str | None = None


def _edges_planar(vertex_count: int, *edge_groups) -> bool:
    ng = nx.Graph()
    ng.add_nodes_from(range(vertex_count))
    for group in edge_groups:
        ng.add_edges_from(group)
    return nx.check_planarity(ng)[0]


def _minimal_nonplanar_core(vertex_count: int, edges: list) -> list:
    """Edge-minimal nonplanar subset of a nonplanar edge list.

    Recursive bisection: every edge of the result is necessary, and an
    edge-minimal nonplanar graph is exactly a K5 or K33 subdivision.
    Needs O(k log E) planarity tests for a size-k core instead of the
    O(E) of one-at-a-time deletion.
    """

    def minimize(committed: list, candidates: list) -> list:
        # invariant: committed+candidates nonplanar, committed alone planar
        if len(candidates) <= 1:
            return candidates
        mid = len(candidates) // 2
        a, b = candidates[:mid], candidates[mid:]
        if not _edges_planar(vertex_count, committed, a):
            return minimize(committed, a)
        if not _edges_planar(vertex_count, committed, b):
            return minimize(committed, b)
        kept_b = minimize(committed + a, b)
        kept_a = minimize(committed + kept_b, a)
        return kept_a + kept_b

    return minimize([], edges)


def is_planar(g: SimpleGraph) -> PlanarityResult:
    """Planarity with a verified certificate either way."""
    ng = nx.Graph()
    ng.add_nodes_from(range(g.vertex_count))
    ng.add_edges_from(g.sorted_edges())
    ok, embedding = nx.check_planarity(ng)
    if ok:
        data = embedding.get_data()
        rotation = tuple(tuple(data.get(v, ())) for v in range(g.vertex_count))
        result = PlanarityResult(True, rotation=rotation)
        if not verify_rotation_system(g, rotation):
            raise AssertionError("embedding failed Euler verification")
        return result
    core = _minimal_nonplanar_core(g.vertex_count, g.sorted_edges())
    witness = simple_graph(g.vertex_count, core, g.labels)
    kind = verify_kuratowski_witness(g, witness)
    if kind is None:
        raise AssertionError("extracted core is not a Kuratowski subdivision")
    return PlanarityResult(False, witness=witness, witness_kind=kind)


def hypergraph_planar(h: Hypergraph) -> PlanarityResult:
    """A hypergraph is planar iff its incidence graph is."""
    return is_planar(incidence_graph(h))


def count_faces(g: SimpleGraph, rotation) -> int:
    """Faces traced from the rotation system (whole graph, all components).

    Walks half-edge orbits: after arriving at v along (u, v), leave along
    the successor of u in the cyclic order around v.
    """
    succ = {}
    for v in range(g.vertex_count):
        order = rotation[v]
        k = len(order)
        for idx, u in enumerate(order):
            succ[(u, v)] = (v, order[(idx + 1) % k])
    faces = 0
    unseen = set(succ)
    while unseen:
        start = min(unseen)
        cur = start
        while True:
            unseen.discard(cur)
            cur = succ[cur]
            if cur == start:
                break
        faces += 1
    return faces


def verify_rotation_system(g: SimpleGraph, rotation) -> bool:
    """Check the rotation system certifies a sphere embedding.

    Each rotation must permute the actual neighbourhood, and every
    connected component must satisfy V - E + F = 2, faces counted by
    orbit tracing (an isolated vertex contributes its single face).
    """
    adj = g.adjacency()
    if len(rotation) != g.vertex_count:
        return False
    for v in range(g.vertex_count):
        if sorted(rotation[v]) != sorted(adj[v]):
            return False
    for comp in connected_components(g):
        comp_set = set(comp)
        sub_edges = [(u, v) for u, v in g.edges if u in comp_set]
        if not sub_edges:
            continue  # isolated vertex: V=1, E=0, F=1
        sub = simple_graph(g.vertex_count, sub_edges)
        sub_rot = tuple(rotation[v] if v in comp_set else () for v in range(g.vertex_count))
        faces = count_faces(sub, sub_rot)
        if len(comp) - len(sub_edges) + faces != 2:
            return False
    return True


def verify_kuratowski_witness(host: SimpleGraph, witness: SimpleGraph) -> str | None:
    """Return "K5" or "K33" if witness is a valid Kuratowski subdivision
    inside host, else None.

    Branch vertices must have degree 4 (K5, five of them) or 3 (K33, six
    of them); every other touched vertex has degree 2, and contracting
    the degree-2 chains must reproduce K5 or K33 exactly.
    """
    if witness.vertex_count != host.vertex_count:
        return None
    if not witness.edges <= host.edges:
        return None
    deg = witness.degrees()
    active = [v for v in range(witness.vertex_count) if deg[v] > 0]
    branch = [v for v in active if deg[v] >= 3]
    if any(deg[v] not in (2, 3, 4) for v in active):
        return None
    if len(branch) == 5 and all(deg[v] == 4 for v in branch):
        expect = "K5"
    elif len(branch) == 6 and all(deg[v] == 3 for v in branch):
        expect = "K33"
    else:
        return None

    adj = witness.adjacency()
    branch_set = set(branch)
    seen_mid = set()
    base_edges = []
    for b in branch:
        for first in adj[b]:
            prev, cur = b, first
            while cur not in branch_set:
                seen_mid.add(cur)
                nxts = [w for w in adj[cur] if w != prev]
                if len(nxts) != 1:
                    return None
                prev, cur = cur, nxts[0]
            if cur == b:
                return None  # chain loops back: not a subdivision
            if b < cur:
                base_edges.append((b, cur))
    mids = [v for v in active if deg[v] == 2]
    if set(mids) != seen_mid:
        return None  # stray degree-2 cycle not attached to any branch
    if len(base_edges) != len(set(base_edges)):
        return None  # two parallel chains between the same branch pair
    base_edges = set(base_edges)
    if expect == "K5":
        want = {(u, v) for i, u in enumerate(branch) for v in branch[i + 1:]}
        return "K5" if base_edges == want else None
    # K33: contracted graph must be complete bipartite 3+3
    if len(base_edges) != 9:
        return None
    side = {branch[0]: 0}
    queue = [branch[0]]
    nbr = {b: set() for b in branch}
    for u, v in base_edges:
        nbr[u].add(v)
        nbr[v].add(u)
    while queue:
        u = queue.pop()
        for w in nbr[u]:
            if w not in side:
                side[w] = 1 - side[u]
                queue.append(w)
            elif side[w] == side[u]:
                return None
    part0 = [b for b in branch if side.get(b) == 0]
    part1 = [b for b in branch if side.get(b) == 1]
    if len(part0) != 3 or len(part1) != 3:
        return None
    want = {(min(u, v), max(u, v)) for u in part0 for v in part1}
    return "K33" if base_edges == want else None


def to_dot(g: SimpleGraph) -> str:
    """DOT serialization; subgroup nodes (v...) are circles, hyperedge
    nodes (e...) squares, anything else plain."""
    lines = ["graph {"]
    for v in range(g.vertex_count):
        name = g.labels[v] if g.labels else f"n{v}"
        if name.startswith("e"):
            shape = "square"
        else:
            shape = "circle"
        lines.append(f'  {name} [shape={shape}];')
    for u, v in g.sorted_edges():
        nu = g.labels[u] if g.labels else f"n{u}"
        nv = g.labels[v] if g.labels else f"n{v}"
        lines.append(f"  {nu} -- {nv};")
    lines.append("}")
    return "\n".join(lines) + "\n"
