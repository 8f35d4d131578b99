"""Simple graphs, incidence graphs and certified planarity.

A SimpleGraph is index-only: a vertex count and a set of normalized
pairs.  incidence_names is the one place where the nodes of an incidence
graph get names, for to_dot and the JSON export.  component_count is the
one component counter: the rotation, host-tree and incidence-forest
checkers all count with it.

is_planar decides planarity by networkx's left-right (LR) test, which
also gives either kind of certificate -- a rotation system for planar
graphs, a Kuratowski subgraph for nonplanar ones -- and both are
re-verified here by independent code.  is_planar verifies the
certificate once, before returning, and raises if it fails, so callers
never re-check it.

hypergraph_planar is the generic path: it knows nothing of Z_n.
theta_rotation, which knows nothing of Z_n either, embeds in linear
time any graph that is a forest plus at most one subdivided theta graph,
the shape of the incidence graph of every planar Z_n.  On Z_n, verify
takes theta_rotation's embedding and checks it with
verify_rotation_system, or lifts a stored witness from the exponent
pattern and checks it with verify_incidence_witness, which tests each
witness pair against h's hyperedges and so never builds the incidence
graph; it never calls hypergraph_planar, which the tests use as the
independent oracle.  verify_kuratowski_witness and
verify_incidence_witness share one structural K5/K33 test,
_kuratowski_kind, which looks at the witness's own vertices alone.
networkx is imported inside
is_planar, the one function that runs the LR test, so a process that
never takes the generic path never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypergraph import Hypergraph


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 0..vertex_count-1."""

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (0 <= u < v < self.vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range or unnormalized")

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


def simple_graph(vertex_count: int, pairs) -> SimpleGraph:
    """Normalize an edge list into a SimpleGraph."""
    return SimpleGraph(vertex_count,
                       frozenset((min(u, v), max(u, v)) for u, v in pairs))


def component_count(vertex_count: int, pairs) -> int:
    """Components of the graph on 0..vertex_count-1 with the given pairs
    as edges, by union-find with path halving.

    Each pair either merges two components or closes a cycle, so the
    pairs form a forest iff the count is vertex_count - len(pairs); a
    repeated pair or a loop closes a cycle.
    """
    root = list(range(vertex_count))
    count = vertex_count
    for u, v in pairs:
        while root[u] != u:
            root[u] = u = root[root[u]]  # path halving
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            root[u] = v
            count -= 1
    return count


def incidence_graph(h: Hypergraph) -> SimpleGraph:
    """Bipartite representation: subgroup nodes first, then hyperedge nodes.

    Node i < |V| is vertex i of the hypergraph and node |V| + j is
    hyperedge j; incidence_names names them.  Each pair (v, |V| + j) is
    already normalized, since v < |V|.
    """
    nv = len(h.vertices)
    return SimpleGraph(nv + len(h.edges),
                       frozenset((v, nv + j)
                                 for j, e in enumerate(h.edges) for v in e))


def incidence_names(h: Hypergraph) -> list[str]:
    """The names of incidence_graph(h)'s nodes, the one place they are
    made: ``v<generator>`` for vertex i, ``e<j>`` for hyperedge j."""
    return ([f"v{lab}" for lab in h.vertices]
            + [f"e{j}" for j in range(len(h.edges))])


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


def is_planar(g: SimpleGraph) -> PlanarityResult:
    """Planarity with a verified certificate either way: networkx's LR
    test gives the rotation system or, for a nonplanar g, its Kuratowski
    subgraph, and each is re-checked here before it is returned."""
    import networkx as nx

    ng = nx.Graph()
    ng.add_nodes_from(range(g.vertex_count))
    ng.add_edges_from(g.sorted_edges())
    ok, certificate = nx.check_planarity(ng, counterexample=True)
    if ok:
        data = certificate.get_data()
        rotation = tuple(tuple(data.get(v, ())) for v in range(g.vertex_count))
        result = PlanarityResult(True, rotation=rotation)
        if not verify_rotation_system(g, rotation):
            raise AssertionError("embedding failed Euler verification")
        return result
    witness = simple_graph(g.vertex_count, certificate.edges)
    kind = verify_kuratowski_witness(g, witness)
    if kind is None:
        raise AssertionError("counterexample is not a Kuratowski subdivision")
    return PlanarityResult(False, witness=witness, witness_kind=kind)


def hypergraph_planar(h: Hypergraph) -> PlanarityResult:
    """A hypergraph is planar iff its incidence graph is."""
    return is_planar(incidence_graph(h))


def theta_rotation(g: SimpleGraph) -> tuple[tuple[int, ...], ...] | None:
    """A planar rotation system of a forest plus at most one subdivided
    theta graph, or None for any other graph.

    Leaves are stripped until the 2-core is left.  If the core has no
    node of degree 3 or more it is a union of cycles, every rotation
    system is planar, and each node lists its neighbours in index order.
    If it has two branch nodes u < v joined only by internally disjoint
    paths, the paths leave u in u's index order and reach v in the
    reverse order, which draws them side by side.  Trees hang anywhere,
    so every other node keeps index order.
    """
    adj = [sorted(a) for a in g.adjacency()]
    rotation = [tuple(a) for a in adj]
    deg = [len(a) for a in adj]
    leaves = [v for v in range(g.vertex_count) if deg[v] == 1]
    while leaves:
        v = leaves.pop()
        deg[v] = 0
        for w in adj[v]:
            if deg[w]:
                deg[w] -= 1
                if deg[w] == 1:
                    leaves.append(w)
    branch = [v for v in range(g.vertex_count) if deg[v] >= 3]
    if not branch:
        return tuple(rotation)
    if len(branch) != 2:
        return None
    u, v = branch
    ends = []
    for w in (w for w in adj[u] if deg[w]):
        prev = u
        while deg[w] == 2:
            prev, w = w, next(x for x in adj[w] if deg[x] and x != prev)
        if w != v:
            return None
        ends.append(prev)
    if len(ends) != deg[v]:
        return None
    rotation[v] = tuple(ends[::-1]) + tuple(x for x in adj[v] if not deg[x])
    return tuple(rotation)


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
        start = cur = unseen.pop()
        while True:
            unseen.discard(cur)
            cur = succ[cur]
            if cur == start:
                break
        faces += 1
    return faces


def verify_rotation_system(g: SimpleGraph, rotation) -> bool:
    """Check the rotation system certifies a sphere embedding.

    Each rotation must permute the actual neighbourhood; then
    V - E + F + (isolated vertices) must equal 2C, with F the faces
    traced over the whole graph and C its component count.  Face orbits
    never leave a component, and each component with an edge has
    V - E + F = 2 - 2*genus <= 2 (an isolated vertex traces no face, so
    the extra term brings it to 2), so the sum reaches 2C only when
    every component is a sphere.
    """
    adj = g.adjacency()
    if len(rotation) != g.vertex_count:
        return False
    for v in range(g.vertex_count):
        if sorted(rotation[v]) != sorted(adj[v]):
            return False
    isolated = sum(1 for a in adj if not a)
    return (g.vertex_count - g.edge_count + count_faces(g, rotation) + isolated
            == 2 * component_count(g.vertex_count, g.edges))


def _kuratowski_kind(edges) -> str | None:
    """Return "K5" or "K33" if the normalized pairs in edges form a
    subdivision of K5 or K33, else None.

    Branch vertices must have degree 4 (K5, five of them) or 3 (K33, six
    of them); every other touched vertex has degree 2, and contracting
    the degree-2 chains must reproduce K5 or K33 exactly.  With no loop
    and no parallel chain, each branch vertex has exactly three base
    neighbours, so for K33 the base neighbours of the first branch
    vertex are one side and the base edges must be the 9 pairs between
    it and the other three branch vertices.  Degrees and adjacency are
    kept for the touched vertices alone, so the test costs time in
    proportion to the edges, whatever graph they lie in.
    """
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(a) not in (2, 3, 4) for a in adj.values()):
        return None
    branch = sorted(v for v, a in adj.items() if len(a) >= 3)
    if len(branch) == 5 and all(len(adj[v]) == 4 for v in branch):
        expect = "K5"
    elif len(branch) == 6 and all(len(adj[v]) == 3 for v in branch):
        expect = "K33"
    else:
        return None

    branch_set = set(branch)
    seen_mid = set()
    base_edges = []
    for b in branch:
        for first in adj[b]:
            prev, cur = b, first
            while cur not in branch_set:
                # cur has degree 2, so one neighbour besides prev
                seen_mid.add(cur)
                a = adj[cur]
                prev, cur = cur, a[1] if a[0] == prev else a[0]
            if cur == b:
                return None  # chain loops back: not a subdivision
            if b < cur:
                base_edges.append((b, cur))
    if len(seen_mid) != len(adj) - len(branch):
        return None  # stray degree-2 cycle not attached to any branch
    if len(base_edges) != len(set(base_edges)):
        return None  # two parallel chains between the same branch pair
    if expect == "K5":
        want = {(u, v) for i, u in enumerate(branch) for v in branch[i + 1:]}
    else:
        # branch is ascending, so each base edge at branch[0] starts there
        side = {v for u, v in base_edges if u == branch[0]}
        want = {(min(u, v), max(u, v)) for u in side for v in branch_set - side}
    return expect if set(base_edges) == want else None


def verify_kuratowski_witness(host: SimpleGraph, witness: SimpleGraph) -> str | None:
    """Return "K5" or "K33" if witness is a valid Kuratowski subdivision
    inside host, else None: witness has host's vertex count, its edges
    are host's, and they pass _kuratowski_kind."""
    if witness.vertex_count != host.vertex_count:
        return None
    if not witness.edges <= host.edges:
        return None
    return _kuratowski_kind(witness.edges)


def verify_incidence_witness(h: Hypergraph, witness: SimpleGraph) -> str | None:
    """verify_kuratowski_witness(incidence_graph(h), witness), without
    building the incidence graph.

    witness must have incidence_graph(h)'s |V| + |E| nodes, and each of
    its pairs (u, w) must join a vertex node u < |V| to a hyperedge node
    w >= |V| whose hyperedge holds u: exactly the pairs of
    incidence_graph(h), since a SimpleGraph keeps w below its vertex
    count.  Then the pairs pass _kuratowski_kind.  The cost is one
    membership test per pair and the structural test, in proportion to
    the witness, not to h.
    """
    nv = len(h.vertices)
    edges = h.edges
    if witness.vertex_count != nv + len(edges):
        return None
    for u, w in witness.edges:
        if not (u < nv <= w and u in edges[w - nv]):
            return None
    return _kuratowski_kind(witness.edges)


def to_dot(h: Hypergraph) -> str:
    """DOT serialization of incidence_graph(h), its nodes named by
    incidence_names: subgroup nodes are circles, hyperedge nodes squares."""
    names = incidence_names(h)
    nv = len(h.vertices)
    lines = ["graph {"]
    for i, name in enumerate(names):
        shape = "circle" if i < nv else "square"
        lines.append(f'  {name} [shape={shape}];')
    for u, v in incidence_graph(h).sorted_edges():
        lines.append(f"  {names[u]} -- {names[v]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
