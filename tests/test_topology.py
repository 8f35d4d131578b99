import random
from itertools import combinations

import pytest

from znhg import topology
from znhg.arith import factorize
from znhg.hypergraph import Hypergraph, build_intersection_hypergraph
from znhg.topology import (SimpleGraph, component_count, hypergraph_planar,
                           incidence_graph, incidence_names, is_planar,
                           simple_graph, theta_rotation, to_dot,
                           verify_incidence_witness, verify_kuratowski_witness,
                           verify_rotation_system)


def build(n):
    return build_intersection_hypergraph(factorize(n))


def complete_graph(k):
    return simple_graph(k, combinations(range(k), 2))


def complete_bipartite(a, b):
    return simple_graph(a + b, ((i, a + j) for i in range(a) for j in range(b)))


def test_simple_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(1, 1)}))
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(0, 3)}))
    with pytest.raises(ValueError):
        SimpleGraph(3, frozenset({(2, 0)}))  # unnormalized pair


def test_incidence_graph_examples():
    g6 = incidence_graph(build(6))
    assert g6.vertex_count == 3
    assert g6.sorted_edges() == [(0, 2), (1, 2)]
    assert incidence_names(build(6)) == ["v2", "v3", "e0"]

    g30 = incidence_graph(build(30))
    assert g30.vertex_count == 10
    assert g30.edge_count == 9  # hyperedge sizes 2+2+2+3

    assert incidence_graph(Hypergraph((), ())).vertex_count == 0


def test_planarity_known_graphs():
    res = is_planar(complete_graph(4))
    assert res.planar
    assert verify_rotation_system(complete_graph(4), res.rotation)

    res = is_planar(complete_bipartite(3, 3))
    assert not res.planar
    assert res.witness_kind == "K33"
    assert res.witness.edges == complete_bipartite(3, 3).edges

    res = is_planar(complete_graph(5))
    assert not res.planar
    assert res.witness_kind == "K5"

    res = is_planar(complete_graph(6))
    assert not res.planar
    assert res.witness_kind in ("K5", "K33")
    assert res.witness.edges <= complete_graph(6).edges


def test_power_cube_incidence_graph_nonplanar():
    res = hypergraph_planar(build(2**3 * 3**3))
    assert not res.planar
    g = incidence_graph(build(216))
    assert verify_kuratowski_witness(g, res.witness) == res.witness_kind


@pytest.mark.parametrize("n,planar", [
    (60, True),    # p^2 q r
    (210, False),  # four primes
    (12, True),    # p^a q
    (100, True),   # p^2 q^2
    (216, False),  # p^3 q^3
])
def test_hypergraph_planarity_cases(n, planar):
    res = hypergraph_planar(build(n))
    assert res.planar is planar
    g = incidence_graph(build(n))
    if planar:
        assert verify_rotation_system(g, res.rotation)
    else:
        assert verify_kuratowski_witness(g, res.witness) is not None


def test_empty_hypergraph_planar():
    res = hypergraph_planar(Hypergraph((), ()))
    assert res.planar


def test_rotation_verifier_rejects_tampering():
    g = complete_graph(4)
    res = is_planar(g)
    rot = list(res.rotation)
    rot[0] = tuple(reversed(rot[0]))  # flip one vertex's orientation
    if verify_rotation_system(g, tuple(rot)):
        # reversing a single rotation usually breaks face tracing; if this
        # particular one survived, dropping a neighbour must not
        rot[0] = rot[0][:-1]
        assert not verify_rotation_system(g, tuple(rot))


def test_rotation_verifier_requires_neighbourhoods():
    g = complete_graph(4)
    bad = tuple((0,) for _ in range(4))
    assert not verify_rotation_system(g, bad)


def cycle(nodes):
    return [(u, nodes[(i + 1) % len(nodes)]) for i, u in enumerate(nodes)]


# hubs 0 and 1 joined by 0-2-1, 0-3-1 and 0-4-5-1, with leaves 6 on hub 1
# and 7 on node 5, and a separate path 8-9-10
SUBDIVIDED_K23 = simple_graph(11, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4),
                                   (4, 5), (5, 1), (1, 6), (5, 7), (8, 9),
                                   (9, 10)])


@pytest.mark.parametrize("g", [
    simple_graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]),
    simple_graph(7, cycle([0, 3, 1, 4, 2]) + [(4, 5), (5, 6)]),
    SUBDIVIDED_K23,
], ids=["tree", "cycle", "subdivided K23"])
def test_theta_rotation_embeds_forest_plus_theta(g):
    rotation = theta_rotation(g)
    assert rotation is not None and verify_rotation_system(g, rotation)


def test_theta_rotation_reverses_the_paths_at_the_second_hub():
    # index order at both hubs would draw K23 with a crossing
    index_order = tuple(tuple(sorted(a)) for a in SUBDIVIDED_K23.adjacency())
    assert not verify_rotation_system(SUBDIVIDED_K23, index_order)
    assert theta_rotation(SUBDIVIDED_K23)[1] == (5, 3, 2, 6)


@pytest.mark.parametrize("g", [
    complete_graph(4),
    complete_bipartite(3, 3),
    simple_graph(5, cycle([0, 1, 2]) + cycle([0, 3, 4])),
    simple_graph(10, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 1), (1, 4),
                      (4, 5), (5, 6), (6, 8), (8, 7), (6, 9), (9, 7),
                      (6, 7)]),
    simple_graph(7, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 1)]
                 + cycle([1, 4, 5]) + [(5, 6)]),
    simple_graph(10, cycle([0, 1, 2]) + cycle([0, 3, 4]) + cycle([5, 6, 7])
                 + cycle([5, 8, 9])),
], ids=["K4", "K33", "figure-eight", "two thetas joined by a path",
        "theta with a cycle at one hub",
        "two figure-eights"])
def test_theta_rotation_refuses_other_cores(g):
    assert theta_rotation(g) is None


def test_kuratowski_verifier_rejects_non_witnesses():
    g = complete_graph(6)
    assert verify_kuratowski_witness(g, complete_graph(4)) is None
    # planar subgraph is never a witness
    sub = simple_graph(6, [(0, 1), (1, 2), (2, 3)])
    assert verify_kuratowski_witness(g, sub) is None
    # witness must live inside the host
    host = simple_graph(6, [(0, 1)])
    assert verify_kuratowski_witness(host, complete_bipartite(3, 3)) is None


def test_kuratowski_verifier_accepts_subdivisions():
    # K5 with one edge subdivided through a sixth vertex
    edges = [(u, v) for u, v in combinations(range(5), 2) if (u, v) != (3, 4)]
    edges += [(3, 5), (4, 5)]
    g = simple_graph(6, edges)
    assert verify_kuratowski_witness(g, g) == "K5"
    # K33 with a subdivided edge
    edges = [(i, 3 + j) for i in range(3) for j in range(3) if (i, j) != (2, 2)]
    edges += [(2, 6), (5, 6)]
    g = simple_graph(7, edges)
    assert verify_kuratowski_witness(g, g) == "K33"


def test_face_count_euler_disconnected():
    # two disjoint triangles embed with 2 faces each, one shared outer face
    tri2 = simple_graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    res = is_planar(tri2)
    assert res.planar
    assert verify_rotation_system(tri2, res.rotation)
    assert component_count(tri2.vertex_count, tri2.edges) == 2


def bfs_component_count(vertex_count, pairs):
    adj = [[] for _ in range(vertex_count)]
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * vertex_count
    count = 0
    for s in range(vertex_count):
        if not seen[s]:
            count += 1
            seen[s] = True
            queue = [s]
            for u in queue:
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        queue.append(w)
    return count


def is_forest(vertex_count, pairs):
    return component_count(vertex_count, pairs) == vertex_count - len(pairs)


def test_component_count_matches_bfs():
    assert component_count(0, []) == 0
    rng = random.Random(22)
    for _ in range(500):
        # few pairs on many nodes leave isolated nodes; pairs may repeat
        # or be loops
        vertex_count = rng.randrange(1, 12)
        pairs = [(rng.randrange(vertex_count), rng.randrange(vertex_count))
                 for _ in range(rng.randrange(2 * vertex_count))]
        assert (component_count(vertex_count, pairs)
                == bfs_component_count(vertex_count, pairs))
        # each node joins an earlier one or starts a tree: a forest, until
        # a loop or a repeated pair closes a cycle
        forest = [(rng.randrange(v), v) for v in range(1, vertex_count)
                  if rng.random() < 0.7]
        rng.shuffle(forest)
        assert is_forest(vertex_count, forest)
        for extra in [(0, 0)] + forest[:1] + [(v, u) for u, v in forest[:1]]:
            assert not is_forest(vertex_count, forest + [extra])


def test_rotation_verifier_counts_every_component():
    # K4 on 0..3, a triangle on 4..6 and the isolated vertex 7.  Index
    # order around K4 traces 2 faces (a torus), the other rotation 4 (a
    # sphere); the triangle and the isolated vertex are spheres either way
    g = simple_graph(8, list(combinations(range(4), 2)) + cycle([4, 5, 6]))
    rest = ((5, 6), (4, 6), (4, 5), ())
    torus = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))
    sphere = ((1, 2, 3), (2, 0, 3), (0, 1, 3), (0, 2, 1))
    assert not verify_rotation_system(g, torus + rest)
    assert verify_rotation_system(g, sphere + rest)


def test_kuratowski_verifier_reads_the_sides_off_the_contraction():
    assert verify_kuratowski_witness(PRISM, PRISM) is None
    assert verify_kuratowski_witness(INTERLEAVED, INTERLEAVED) == "K33"


# K5 with the edge 3 -- 4 subdivided by 5
SUBDIVIDED_K5 = simple_graph(6, [(u, v) for u, v in combinations(range(5), 2)
                                 if (u, v) != (3, 4)] + [(3, 5), (4, 5)])
# triangular prism 0-1-2, 3-4-5 with rungs i -- i+3, the rung 2 -- 5
# subdivided by 6: six cubic branch vertices and 9 base edges, but the
# triangles make it not bipartite
PRISM = simple_graph(7, cycle([0, 1, 2]) + cycle([3, 4, 5])
                     + [(0, 3), (1, 4), (2, 6), (6, 5)])
# K33 with sides {0, 2, 4} and {1, 3, 5}, the edge 4 -- 5 subdivided
INTERLEAVED = simple_graph(7, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)
                               if (u, v) != (4, 5)] + [(4, 6), (6, 5)])
# K33 and a triangle apart from it, whose degree-2 vertices no chain
# from a branch vertex reaches
K33_AND_TRIANGLE = simple_graph(9, complete_bipartite(3, 3).sorted_edges()
                                + cycle([6, 7, 8]))


@pytest.mark.parametrize("g,kind", [
    (complete_graph(5), "K5"),
    (complete_bipartite(3, 3), "K33"),
    (SUBDIVIDED_K5, "K5"),
    (PRISM, None),
    (INTERLEAVED, "K33"),
    (K33_AND_TRIANGLE, None),
    (complete_graph(6), None),
], ids=["K5", "K33", "subdivided K5", "prism", "interleaved",
        "K33 and a triangle", "K6"])
def test_structural_test_reads_each_kind(g, kind):
    # the structural test alone, and through the host check with the
    # graph as its own host, give the same answer
    assert topology._kuratowski_kind(g.edges) == kind
    assert verify_kuratowski_witness(g, g) == kind


def _moved(h, witness, incident):
    """witness with its first pair moved to the first vertex-hyperedge
    pair outside it whose hyperedge holds its vertex (incident) or does
    not; None if there is no such pair, as when witness is the whole
    incidence graph."""
    nv = len(h.vertices)
    _, *rest = witness.sorted_edges()
    pair = next(((u, w) for w in range(nv, witness.vertex_count)
                 for u in range(nv) if (u in h.edges[w - nv]) == incident
                 and (u, w) not in witness.edges), None)
    return pair and simple_graph(witness.vertex_count, rest + [pair])


def _relabelled(h, witness):
    """witness with its least vertex node u renamed to the least vertex
    node it does not touch, which keeps its shape; None if it touches
    every vertex node."""
    nv = len(h.vertices)
    touched = {u for u, _ in witness.edges}
    spare = next((x for x in range(nv) if x not in touched), None)
    if spare is None:
        return None
    u = min(touched)
    return simple_graph(witness.vertex_count,
                        [(spare if x == u else x, w) for x, w in witness.edges])


def test_incidence_witness_agrees_with_the_incidence_graph(builds5000):
    # on every lifted witness of n <= 5000, on each with one pair moved
    # off the incidence graph or onto another of its pairs, and on each
    # with a vertex node renamed, which keeps the shape, so that only
    # incidence can refuse it, the check on h's hyperedges answers as the
    # check on the incidence graph
    from znhg import verify

    lifted = renamed_off = 0
    for f, h in builds5000.values():
        res = verify._lifted_planarity(f, h)
        if res is None:
            continue
        lifted += 1
        g = incidence_graph(h)
        assert (verify_incidence_witness(h, res.witness)
                == verify_kuratowski_witness(g, res.witness)
                == res.witness_kind), f.n
        for incident in (False, True):
            w = _moved(h, res.witness, incident)
            if w is None:
                continue
            want = verify_kuratowski_witness(g, w)
            assert verify_incidence_witness(h, w) == want, (f.n, incident)
            if not incident:
                assert want is None
        w = _relabelled(h, res.witness)
        if w is not None:
            want = verify_kuratowski_witness(g, w)
            assert verify_incidence_witness(h, w) == want, f.n
            renamed_off += want is None
    assert lifted == 812 and renamed_off > 0


def test_incidence_witness_rejects_non_incidences(monkeypatch):
    # with the structural test made to accept anything, only the
    # incidence conditions stand between each pair list and acceptance
    monkeypatch.setattr(topology, "_kuratowski_kind", lambda edges: "K33")
    h = build(216)
    nv, total = len(h.vertices), len(h.vertices) + len(h.edges)

    def check(count, pairs, host=h):
        return verify_incidence_witness(host, simple_graph(count, pairs))

    first = h.edges[0][0]
    assert check(total, [(first, nv)]) == "K33"
    # a vertex-vertex pair (u, v) with u on hyperedge v - |V| counted
    # from the end, so that only the test w >= |V| refuses it
    v = nv - 1
    u = h.edges[v - nv][0]
    assert u < v
    assert check(total, [(u, v)]) is None
    # a vertex that is not on the hyperedge
    off = next(x for x in range(nv) if x not in h.edges[0])
    assert check(total, [(off, nv)]) is None
    # a vertex count other than |V| + |E|, either way
    assert check(total + 1, [(first, nv)]) is None
    assert check(total - 1, [(first, nv)]) is None
    # a node past the last hyperedge, which only a larger count admits
    assert check(total + 1, [(first, total)]) is None
    # a malformed h whose second hyperedge names node 2, past its two
    # vertices: membership alone would pass the hyperedge-hyperedge pair
    # (2, 3), and only the test u < |V| refuses it
    bad = Hypergraph((2, 3), ((0, 1), (1, 2)))
    assert check(4, [(1, 3)], bad) == "K33"
    assert check(4, [(2, 3)], bad) is None


def test_removing_hyperedges_preserves_planarity():
    # dropping a hyperedge node from a planar incidence graph keeps it planar
    for n in (60, 12, 100, 30):
        h = build(n)
        g = incidence_graph(h)
        nv = len(h.vertices)
        for j in range(len(h.edges)):
            kept = [(u, v) for u, v in g.sorted_edges()
                    if nv + j not in (u, v)]
            assert is_planar(simple_graph(g.vertex_count, kept)).planar


def test_dot_output_golden():
    dot = to_dot(build(6))
    assert dot == (
        "graph {\n"
        "  v2 [shape=circle];\n"
        "  v3 [shape=circle];\n"
        "  e0 [shape=square];\n"
        "  v2 -- e0;\n"
        "  v3 -- e0;\n"
        "}\n"
    )
