"""Invariant computations checked against oracles that implement the
definitions directly: alternating vertex/edge paths for distance,
alternating closed walks for girth, exhaustive color assignments for
the chromatic number, and undecorated Prüfer enumeration for host
trees.
"""

import math
from itertools import combinations, product

import pytest

from znhg.arith import factorize, factorize_range
from znhg.groups import build_hypergraphs_for_group, dihedral
from znhg.hypergraph import Hypergraph, build_comaximal_hypergraph, build_intersection_hypergraph
from znhg.metrics import (INFINITE, ColoringContradiction, check_diameter,
                          check_girth, check_star, chromatic_number,
                          constructive_two_coloring, diameter, distance, girth,
                          has_host_tree, is_connected, is_star, isomorphic,
                          verify_host_tree, verify_isomorphism)
from znhg.topology import incidence_graph, simple_graph


def build(n):
    return build_intersection_hypergraph(factorize(n))


# --- definition-level oracles -------------------------------------------

def path_distance_oracle(h, u, v):
    """Shortest alternating vertex/edge path, straight from the definition."""
    if u == v:
        return 0
    best = [math.inf]

    def extend(vertex, used_edges, used_vertices, length):
        if length >= best[0]:
            return
        for ei, e in enumerate(h.edges):
            if ei in used_edges:
                continue
            labels = [h.vertices[i] for i in e]
            if vertex not in labels:
                continue
            if v in labels:
                best[0] = min(best[0], length + 1)
                continue
            for nxt in labels:
                if nxt not in used_vertices:
                    extend(nxt, used_edges | {ei}, used_vertices | {nxt},
                           length + 1)

    extend(u, frozenset(), frozenset({u}), 0)
    return best[0]


def girth_oracle(h):
    """Shortest closed alternating walk with distinct vertices and edges."""
    best = [math.inf]
    nv = len(h.vertices)

    def extend(start, vertex, used_edges, used_vertices, length):
        if length + 1 >= best[0]:
            return
        for ei, e in enumerate(h.edges):
            if ei in used_edges:
                continue
            if vertex not in e:
                continue
            if start in e and length >= 1:
                best[0] = min(best[0], length + 1)
            for nxt in e:
                if nxt not in used_vertices:
                    extend(start, nxt, used_edges | {ei},
                           used_vertices | {nxt}, length + 1)

    for s in range(nv):
        extend(s, s, frozenset(), frozenset({s}), 0)
    return best[0]


def chromatic_oracle(h, max_k=4):
    """Smallest k over all k^|V| assignments with no monochromatic edge."""
    nv = len(h.vertices)
    if nv == 0:
        return 0
    for k in range(1, max_k + 1):
        for assignment in product(range(k), repeat=nv):
            if all(len({assignment[i] for i in e}) > 1 for e in h.edges):
                return k
    raise AssertionError("oracle cap too low")


def prufer_trees(m):
    """Every labeled tree on 0..m-1, decoded plainly with no pruning."""
    if m <= 1:
        yield []
        return
    if m == 2:
        yield [(0, 1)]
        return
    for seq in product(range(m), repeat=m - 2):
        deg = [1] * m
        for s in seq:
            deg[s] += 1
        used = [False] * m
        edges = []
        for s in seq:
            leaf = min(v for v in range(m) if deg[v] == 1 and not used[v])
            edges.append((min(leaf, s), max(leaf, s)))
            used[leaf] = True
            deg[leaf] -= 1
            deg[s] -= 1
        u, v = [x for x in range(m) if deg[x] == 1 and not used[x]]
        edges.append((min(u, v), max(u, v)))
        yield edges


def host_tree_oracle(h):
    m = len(h.vertices)
    return any(verify_host_tree(h, simple_graph(m, edges))
               for edges in prufer_trees(m))


# --- connectivity / distance / diameter ---------------------------------

def test_connectivity():
    assert is_connected(build(30))
    assert is_connected(Hypergraph((), ()))  # vacuously
    assert is_connected(Hypergraph((2, 3), ((0, 1),)))
    two_parts = Hypergraph(("a", "b", "c", "d"), ((0, 1), (2, 3)))
    assert not is_connected(two_parts)


def test_distance_examples():
    h12 = build(12)
    assert distance(h12, 3, 6) == 2
    assert path_distance_oracle(h12, 3, 6) == 2
    assert distance(build(6), 2, 3) == 1
    assert distance(h12, 4, 4) == 0
    with pytest.raises(KeyError):
        distance(h12, 3, 5)


@pytest.mark.parametrize("n", [6, 12, 30, 36, 60])
def test_distance_matches_path_oracle(n):
    h = build(n)
    for u, v in combinations(h.vertices, 2):
        assert distance(h, u, v) == path_distance_oracle(h, u, v), (n, u, v)


def test_diameter_examples():
    assert diameter(build(6)) == 1
    assert diameter(build(12)) == 2
    assert diameter(build(30)) == 3
    assert diameter(Hypergraph((), ())) is None
    assert diameter(Hypergraph(("a", "b", "c", "d"), ((0, 1), (2, 3)))) == math.inf


def test_diameter_at_most_three(builds5000):
    for n, (f, h) in builds5000.items():
        if f.omega >= 2:
            assert diameter(h) <= 3, n


# --- girth ----------------------------------------------------------------

def test_girth_examples():
    assert girth(build(30)) == math.inf
    assert girth(build(36)) == 4
    assert girth(build(60)) == 2
    assert girth(Hypergraph((), ())) == math.inf


@pytest.mark.parametrize("n", [6, 12, 30, 36, 60, 100, 144, 210])
def test_girth_matches_cycle_oracle(n):
    h = build(n)
    assert girth(h) == girth_oracle(h), n


def test_girth_is_half_incidence_girth(builds5000):
    # against networkx's shortest-cycle search on the incidence graph
    import networkx as nx

    for n in range(2, 2001):
        f, h = builds5000[n]
        if f.omega < 2:
            continue
        g = girth(h)
        incidence = nx.girth(nx.Graph(list(incidence_graph(h).edges)))
        if g is math.inf:
            assert incidence == math.inf, n
        else:
            assert incidence == 2 * g, n


# --- chromatic ------------------------------------------------------------

def test_chromatic_examples():
    assert chromatic_number(build(12)) == 2
    assert chromatic_number(Hypergraph((), ())) == 0
    assert chromatic_number(Hypergraph((2, 3), ((0, 1),))) == 2


@pytest.mark.parametrize("n", [6, 12, 30, 36, 60])
def test_chromatic_matches_exhaustive_oracle(n):
    h = build(n)
    assert chromatic_number(h) == chromatic_oracle(h) == 2


def test_constructive_two_coloring_examples():
    f12, h12 = factorize(12), build(12)
    col = constructive_two_coloring(f12, h12)
    assert col == {4: "A", 3: "B", 6: "B"}

    f30, h30 = factorize(30), build(30)
    col = constructive_two_coloring(f30, h30)
    assert {d for d, c in col.items() if c == "A"} == {2, 6, 10}
    assert {d for d, c in col.items() if c == "B"} == {3, 5, 15}

    col = constructive_two_coloring(factorize(6), build(6))
    assert col == {2: "A", 3: "B"}


def test_constructive_two_coloring_flags_improper_split():
    # a hand-built hypergraph whose edge sits entirely in the B class
    f = factorize(12)
    fake = Hypergraph((3, 6), ((0, 1),))
    with pytest.raises(ColoringContradiction):
        constructive_two_coloring(f, fake)


# --- star / host tree -------------------------------------------------------

def test_is_star_examples():
    h12 = build(12)
    assert is_star(h12)
    assert all(h12.vertex_index(4) in e for e in h12.edges)
    assert not is_star(build(30))
    assert not is_star(build(36))
    assert is_star(Hypergraph((), ()))


# --- certificate checkers ----------------------------------------------------
#
# Each mutation below breaks one part of a certificate the producers in
# verify build, and the checker must reject it; the unmutated certificate
# is accepted first, so the rejection is the mutation's doing.

def certificates(n):
    from znhg import verify

    f = factorize(n)
    h = build_intersection_hypergraph(f)
    return (h, verify._diameter_certificate(f, h),
            verify._girth_certificate(f, h), verify._star_certificate(h))


def test_diameter_checker_rejects_a_removed_hub():
    for n in (30, 210):
        h, (value, hubs, far), _, _ = certificates(n)
        assert check_diameter(h, value, hubs, far)
        for k in range(len(hubs)):
            assert not check_diameter(h, value, hubs[:k] + hubs[k + 1:], far)


def test_diameter_checker_rejects_hubs_that_are_not_a_clique():
    # the path 0-1-2-3-4 has diameter 4; {1, 3} dominates it and 0, 3
    # have no common neighbour, but 1 and 3 are not adjacent
    path = Hypergraph(tuple(range(5)), ((0, 1), (1, 2), (2, 3), (3, 4)))
    assert diameter(path) == 4
    assert not check_diameter(path, 3, (1, 3), (0, 3))
    h, (value, hubs, far), _, _ = certificates(30)
    assert not check_diameter(h, value, hubs + far[:1], far)


def test_diameter_checker_rejects_an_adjacent_far_pair():
    h, (value, hubs, far), _, _ = certificates(30)
    assert not check_diameter(h, value, hubs, (hubs[0], hubs[1]))
    h, (value, sides, far), _, _ = certificates(36)
    assert check_diameter(h, value, sides, far)
    assert not check_diameter(h, value, sides, (sides[0][0], sides[1][0]))
    assert not check_diameter(h, value, sides, (far[0], far[0]))


def test_diameter_checker_rejects_a_pair_with_a_common_neighbour():
    # 15 and 30 are both deficient only at 2, so not adjacent, and both
    # are adjacent to the hub 20: 2 apart, not 3
    h, (value, hubs, far), _, _ = certificates(60)
    pair = (h.vertex_index(15), h.vertex_index(30))
    assert check_diameter(h, value, hubs, far)
    assert not check_diameter(h, 3, hubs, pair)


def test_diameter_checker_rejects_a_split_that_is_not_complete_bipartite():
    h, (value, (side_a, side_b), far), _, _ = certificates(36)
    assert not check_diameter(h, value, (side_a[1:], side_b + side_a[:1]), far)
    assert not check_diameter(h, value, (side_a[1:], side_b), far)
    assert not check_diameter(h, value, (side_a, side_a), far)


def test_diameter_checker_decides_completeness():
    assert check_diameter(build(6), 1, None, None)
    assert not check_diameter(build(12), 1, None, None)
    assert not check_diameter(build(30), 4, (), ())


def test_girth_checker_rejects_edges_sharing_one_vertex():
    h, _, (value, (j, k, u, v)), _ = certificates(60)
    assert value == 2 and check_girth(h, 2, (j, k, u, v))
    for a, b in combinations(range(len(h.edges)), 2):
        shared = set(h.edges[a]) & set(h.edges[b])
        if len(shared) == 1:
            (x,) = shared
            y = next(w for w in h.edges[a] if w != x)
            assert not check_girth(h, 2, (a, b, x, y))
            break
    else:
        raise AssertionError("no two hyperedges share exactly one vertex")
    assert not check_girth(h, 2, (j, j, u, v))


def test_girth_checker_rejects_a_cycle_as_a_forest():
    for n in (36, 60, 210):
        assert not check_girth(build(n), INFINITE, None)
    for n in (6, 12, 30):
        h = build(n)
        assert check_girth(h, INFINITE, None) == (girth(h) == INFINITE)
    # a hyperedge that lists a vertex twice repeats an incidence pair
    assert check_girth(Hypergraph((0, 1), ((0, 1),)), INFINITE, None)
    assert not check_girth(Hypergraph((0, 1), ((0, 1, 1),)), INFINITE, None)


def test_girth_checker_rejects_a_four_cycle_with_an_edge_missing():
    h, _, (value, (side, cycle)), _ = certificates(36)
    assert value == 4 and check_girth(h, 4, (side, cycle))
    w, x, y, z = cycle
    missing = sorted((z, w))
    cut = Hypergraph(h.vertices, tuple(e for e in h.edges if list(e) != missing))
    assert len(cut.edges) == len(h.edges) - 1
    assert not check_girth(cut, 4, (side, cycle))
    assert not check_girth(h, 4, (side, (w, x, y, x)))


def test_girth_checker_rejects_an_improper_two_colouring():
    h, _, (_, (side, cycle)), _ = certificates(36)
    assert not check_girth(h, 4, (side[1:], cycle))
    assert not check_girth(h, 4, (range(len(h.vertices)), cycle))
    # hyperedges of three vertices are outside the 4-cycle certificate
    h60 = build(60)
    assert not check_girth(h60, 4, ((), (0, 1, 2, 3)))


def test_star_checker_rejects_a_wrong_star_vertex():
    h, _, _, (value, centre) = certificates(12)
    assert value is True and h.vertices[centre] == 4
    assert check_star(h, True, centre)
    for v in range(len(h.vertices)):
        if v != centre:
            assert not check_star(h, True, v)
    assert not check_star(h, True, len(h.vertices))


def test_star_checker_needs_an_empty_intersection():
    h, _, _, (value, chosen) = certificates(30)
    assert value is False and check_star(h, False, chosen)
    assert not check_star(h, False, chosen[:-1])
    assert not check_star(h, False, [])
    assert not check_star(build(12), False, list(range(len(build(12).edges))))


def test_host_tree_examples():
    r30 = has_host_tree(build(30), 8)
    assert r30.status == "yes"
    assert verify_host_tree(build(30), r30.tree)
    # the witness is forced into the same shape as the three-prime host
    # tree: three leaf edges plus a path through the size-3 hyperedge
    assert sorted(r30.tree.degrees()) == [1, 1, 1, 2, 2, 3]

    assert has_host_tree(build(36), 8).status == "no"
    r12 = has_host_tree(build(12), 8)
    assert r12.status == "yes"  # stars are hypertrees
    assert has_host_tree(build(60), 9).status == "no"
    assert has_host_tree(build(60), 8).status == "unknown"


@pytest.mark.parametrize("n", [6, 12, 18, 30, 36, 100])
def test_host_tree_matches_prufer_oracle(n):
    h = build(n)
    result = has_host_tree(h, 9)
    assert (result.status == "yes") == host_tree_oracle(h), n


def test_host_tree_oracle_covers_every_structure_up_to_7_vertices(builds5000):
    # one representative per exponent pattern: hypergraphs of equal pattern
    # are isomorphic, so this exercises every structure the sweep meets
    seen = {}
    for n in sorted(builds5000):
        f, h = builds5000[n]
        if f.omega < 2 or not 2 <= len(h.vertices) <= 7:
            continue
        seen.setdefault(tuple(sorted(f.exponents)), (n, h))
    assert len(seen) >= 10
    for pattern, (n, h) in sorted(seen.items()):
        result = has_host_tree(h, 9)
        assert (result.status == "yes") == host_tree_oracle(h), (pattern, n)


def test_verify_host_tree_rejects_bad_trees():
    h = build(30)
    m = len(h.vertices)
    star_at_wrong_vertex = simple_graph(m, [(0, i) for i in range(1, m)])
    assert not verify_host_tree(h, star_at_wrong_vertex)
    assert not verify_host_tree(h, simple_graph(m, []))


def test_verify_host_tree_counts_the_tree_edges_inside_each_hyperedge():
    # on the path 0-1-2 the hyperedge {0, 2} holds no tree edge, where a
    # subtree on its 2 vertices needs 1
    path = simple_graph(3, [(0, 1), (1, 2)])
    assert not verify_host_tree(Hypergraph((0, 1, 2), ((0, 2), (1, 2))), path)
    # on the path 0-1-2-3 the hyperedges {0, 1, 3} and {0, 2, 3} hold one
    # tree edge each, where a subtree on 3 vertices needs 2
    h = Hypergraph((0, 1, 2, 3), ((0, 1, 3), (0, 2, 3)))
    assert not verify_host_tree(h, simple_graph(4, [(0, 1), (1, 2), (2, 3)]))
    # a triangle beside the path 3-4-5 has m - 1 edges and holds every
    # hyperedge's subtree, but is no tree
    h = Hypergraph(tuple(range(6)), ((0, 1), (0, 2), (1, 2), (3, 4), (4, 5)))
    assert not verify_host_tree(h, simple_graph(6, h.edges))


# --- isomorphism -------------------------------------------------------------

def test_isomorphic_examples():
    h12i = build(12)
    h12c = build_comaximal_hypergraph(factorize(12))
    ok, witness = isomorphic(h12i, h12c)
    assert ok and verify_isomorphism(h12i, h12c, witness)

    d4i, d4c = build_hypergraphs_for_group(dihedral(4))
    ok, witness = isomorphic(d4i, d4c)
    assert not ok and witness is None

    h = build(360)
    ok, witness = isomorphic(h, h)
    assert ok and verify_isomorphism(h, h, witness)


def test_isomorphic_handles_relabelling():
    h = build(60)
    relabelled = Hypergraph(tuple(f"x{d}" for d in h.vertices), h.edges)
    ok, witness = isomorphic(h, relabelled)
    assert ok and verify_isomorphism(h, relabelled, witness)
    assert witness == {d: f"x{d}" for d in h.vertices}


def test_isomorphic_distinguishes_structures():
    path = Hypergraph(("a", "b", "c"), ((0, 1), (1, 2)))
    triangle = Hypergraph(("a", "b", "c"), ((0, 1), (0, 2), (1, 2)))
    ok, _ = isomorphic(path, triangle)
    assert not ok
    # same degree profile, different edge sizes
    h1 = Hypergraph(("a", "b", "c", "d"), ((0, 1, 2), (2, 3)))
    h2 = Hypergraph(("a", "b", "c", "d"), ((0, 1), (1, 2), (2, 3)))
    ok, _ = isomorphic(h1, h2)
    assert not ok


def test_isomorphism_is_equivalence_on_pool():
    pool = [build(n) for n in (6, 12, 30, 36, 60, 72)]
    pool += [Hypergraph(tuple(f"y{d}" for d in h.vertices), h.edges)
             for h in pool[:3]]
    for h in pool:
        ok, w = isomorphic(h, h)
        assert ok and verify_isomorphism(h, h, w)
    for a in pool:
        for b in pool:
            ab, _ = isomorphic(a, b)
            ba, _ = isomorphic(b, a)
            assert ab == ba
    for a in pool:
        for b in pool:
            for c in pool:
                ab, _ = isomorphic(a, b)
                bc, _ = isomorphic(b, c)
                if ab and bc:
                    ac, _ = isomorphic(a, c)
                    assert ac


def test_verify_isomorphism_rejects_wrong_maps():
    h = build(12)
    other = build_comaximal_hypergraph(factorize(12))
    ok, witness = isomorphic(h, other)
    assert ok
    broken = dict(witness)
    keys = list(broken)
    broken[keys[0]], broken[keys[1]] = broken[keys[1]], broken[keys[0]]
    assert not verify_isomorphism(h, other, broken)
    f = factorize(30)
    h, co = build_intersection_hypergraph(f), build_comaximal_hypergraph(f)
    dual = {d: f.n // d for d in h.vertices}
    assert verify_isomorphism(h, co, dual)
    assert not verify_isomorphism(h, co, {**dual, 2: 7})
    assert not verify_isomorphism(h, co, {**dual, 2: dual[3]})
    # onto every vertex of h2, but not injective
    path = Hypergraph(("a", "b", "c"), ((0, 1), (1, 2)))
    edge = Hypergraph(("x", "y"), ((0, 1),))
    assert not verify_isomorphism(path, edge, {"a": "x", "b": "y", "c": "x"})
    # each maps every label of h1 to a distinct vertex of h2, and edges
    # onto edges, so only the vertex and key counts refuse them: a key
    # outside h1, and a vertex of h2 that is no image
    assert not verify_isomorphism(h, co, {**dual, 7: 1})
    spare = Hypergraph(("x", "y", "z"), ((0, 1),))
    assert not verify_isomorphism(edge, spare, {"x": "x", "y": "y"})


def test_verify_isomorphism_memo_is_keyed_on_the_map():
    # the same h1 and h2 after an accepted map: a memo of the edge
    # comparison keyed without the map would accept the swapped map, and
    # the map missing a key must be refused before any comparison
    f = factorize(60)
    h, co = build_intersection_hypergraph(f), build_comaximal_hypergraph(f)
    dual = {d: f.n // d for d in h.vertices}
    assert verify_isomorphism(h, co, dual)
    swapped = {**dual, 4: dual[6], 6: dual[4]}
    assert not verify_isomorphism(h, co, swapped)
    assert not verify_isomorphism(h, co, {d: dual[d] for d in h.vertices[1:]})
    assert verify_isomorphism(h, co, dual)


def test_verify_isomorphism_refuses_a_map_not_defined_on_h1():
    # onto and injective, but "c" has no image: refused, not a KeyError
    path = Hypergraph(("a", "b", "c"), ((0, 1), (1, 2)))
    edge = Hypergraph(("x", "y"), ((0, 1),))
    assert not verify_isomorphism(path, edge, {"a": "x", "b": "y"})


def test_duality_map_is_accepted_and_a_dropped_hyperedge_refused_to_2000():
    for f in factorize_range(2, 2000):
        h, co = build_intersection_hypergraph(f), build_comaximal_hypergraph(f)
        dual = {d: f.n // d for d in h.vertices}
        assert verify_isomorphism(h, co, dual), f.n
        if co.edges:
            k = f.n % len(co.edges)
            dropped = Hypergraph(co.vertices, co.edges[:k] + co.edges[k + 1:])
            assert not verify_isomorphism(h, dropped, dual), f.n


# --- randomized properties over arbitrary small hypergraphs -----------------

from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def small_hypergraphs(draw, max_vertices=6, max_edges=5):
    m = draw(st.integers(min_value=2, max_value=max_vertices))
    n_edges = draw(st.integers(min_value=1, max_value=max_edges))
    edges = []
    for _ in range(n_edges):
        size = draw(st.integers(min_value=2, max_value=m))
        members = draw(st.sets(st.integers(min_value=0, max_value=m - 1),
                               min_size=size, max_size=size))
        edges.append(tuple(sorted(members)))
    covered = sorted({v for e in edges for v in e})
    relabel = {v: i for i, v in enumerate(covered)}
    edges = sorted({tuple(relabel[v] for v in e) for e in edges})
    return Hypergraph(tuple(range(len(covered))), tuple(edges))


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs())
def test_host_tree_agrees_with_prufer_oracle_on_random_inputs(h):
    result = has_host_tree(h, 9)
    assert (result.status == "yes") == host_tree_oracle(h)
    if result.status == "yes":
        assert verify_host_tree(h, result.tree)


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs(max_vertices=6, max_edges=4))
def test_chromatic_agrees_with_exhaustive_oracle_on_random_inputs(h):
    assert chromatic_number(h) == chromatic_oracle(h, max_k=6)


@settings(max_examples=150, deadline=None)
@given(small_hypergraphs(), st.randoms(use_true_random=False))
def test_isomorphic_finds_random_relabellings(h, rng):
    perm = list(range(len(h.vertices)))
    rng.shuffle(perm)
    new_edges = sorted(tuple(sorted(perm[v] for v in e)) for e in h.edges)
    shuffled = Hypergraph(tuple(f"g{i}" for i in range(len(h.vertices))),
                          tuple(new_edges))
    ok, witness = isomorphic(h, shuffled)
    assert ok
    assert verify_isomorphism(h, shuffled, witness)


@settings(max_examples=100, deadline=None)
@given(small_hypergraphs())
def test_girth_agrees_with_cycle_oracle_on_random_inputs(h):
    assert girth(h) == girth_oracle(h)


vertex_ids = st.integers(min_value=-1, max_value=6)


@settings(max_examples=300, deadline=None)
@given(small_hypergraphs(), st.sampled_from([1, 2, 3]),
       st.lists(vertex_ids, max_size=4), st.lists(vertex_ids, max_size=4),
       st.tuples(vertex_ids, vertex_ids))
def test_accepted_certificates_are_true_on_random_inputs(h, value, xs, ys, pair):
    # whatever the witness, a claim the checkers accept holds
    if check_diameter(h, value, (xs, ys) if value == 2 else xs, pair):
        assert diameter(h) == value
    for claim, witness in ((2, (*pair, *xs[:2], 0, 0)[:4]),
                           (4, (xs, (*ys, 0, 0, 0, 0)[:4])),
                           (INFINITE, None)):
        if check_girth(h, claim, witness):
            assert girth(h) == claim
    if check_star(h, True, pair[0]):
        assert is_star(h)
    if check_star(h, False, xs):
        assert not is_star(h)
