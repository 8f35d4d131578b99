"""Construction oracles: the clique enumerator is checked against an
exhaustive subset scan, the vertex-set formula against a brute-force
partner search, the deficiency masks against lcm, the support masks
against gcd, the mask-class builders against the generic enumerator on
the pairwise relation, and the gcd reduction against the element-level
engine.
"""

import math
from itertools import combinations

import pytest

from znhg.arith import CapabilityError, divisors, factorize, factorize_range
from znhg.groups import Subgroup, cyclic, set_product, zn_subgroup_of_divisor
from znhg import hypergraph
from znhg.hypergraph import (EDGE_BUDGET, MAX_HYPEREDGES, MAX_VERTICES,
                             Hypergraph, _build_on_mask_classes,
                             _class_cliques, _divisor_table, _index_edges,
                             build_comaximal_hypergraph,
                             build_intersection_hypergraph, canonical_hypergraph,
                             check_buildable, comaximal, enumerate_maximal_edges,
                             intersection_edge_count,
                             intersection_vertex_count, support_set,
                             trivially_intersects, vertex_set)
from znhg.metrics import _maps_edges_onto, isomorphic
from znhg.verify import ALL_CHECKS, run_sweep


def brute_force_vertex_generators(f):
    """d is a vertex iff some other proper divisor meets it trivially."""
    divs = divisors(f)[1:-1]
    return [d for d in divs
            if any(math.lcm(d, e) == f.n for e in divs if e != d)]


def brute_force_maximal_sets(count, compatible):
    """Maximal pairwise-compatible subsets by scanning all 2^count subsets."""
    subsets = []
    for r in range(2, count + 1):
        for combo in combinations(range(count), r):
            if all(compatible(i, j) for i, j in combinations(combo, 2)):
                subsets.append(set(combo))
    return sorted(tuple(sorted(s)) for s in subsets
                  if not any(s < t for t in subsets))


@pytest.mark.parametrize("d1,d2,n,expected", [
    (4, 3, 12, True),
    (3, 6, 12, False),
    (6, 10, 30, True),
    (2, 15, 30, True),
    (3, 6, 30, False),
])
def test_trivially_intersects(d1, d2, n, expected):
    assert trivially_intersects(d1, d2, factorize(n)) is expected


def test_trivially_intersects_rejects_nondivisors():
    f = factorize(12)
    with pytest.raises(ValueError):
        trivially_intersects(5, 3, f)
    with pytest.raises(ValueError):
        trivially_intersects(12, 3, f)  # not proper
    with pytest.raises(ValueError):
        trivially_intersects(1, 3, f)  # not nontrivial


@pytest.mark.parametrize("d1,d2,n,expected", [
    (4, 3, 12, True),
    (2, 6, 12, False),
    (6, 10, 30, False),
])
def test_comaximal(d1, d2, n, expected):
    assert comaximal(d1, d2, factorize(n)) is expected


def test_relations_differ_pointwise_with_group_oracle():
    # <6> and <10> in Z_30 meet trivially yet their set product is not Z_30
    f = factorize(30)
    assert trivially_intersects(6, 10, f)
    assert not comaximal(6, 10, f)
    g = cyclic(30)
    h6 = Subgroup(zn_subgroup_of_divisor(30, 6))
    h10 = Subgroup(zn_subgroup_of_divisor(30, 10))
    assert set(h6.elements) & set(h10.elements) == {0}
    assert set_product(g, h6, h10) != frozenset(range(30))


@pytest.mark.parametrize("n,generators", [
    (12, [3, 4, 6]),
    (8, []),
    (30, [2, 3, 5, 6, 10, 15]),
    (7, []),
    (36, [4, 9, 12, 18]),
])
def test_vertex_set_examples(n, generators):
    assert [d for d, _ in vertex_set(factorize(n))] == generators


def test_vertex_set_matches_brute_force_to_10000():
    for f in factorize_range(2, 10000):
        got = [d for d, _ in vertex_set(f)]
        assert got == brute_force_vertex_generators(f), f.n


def test_vertex_masks_are_disjoint_exactly_when_lcm_is_n_to_2000():
    for f in factorize_range(2, 2000):
        full = (1 << f.omega) - 1

        def deficiency(d):
            return sum(1 << i for i, (p, a) in enumerate(f.factors)
                       if d % p**a)

        verts = vertex_set(f)
        for d, mask in verts:
            assert mask == deficiency(d), (f.n, d)
        for (d1, m1), (d2, m2) in combinations(verts, 2):
            assert (not m1 & m2) == trivially_intersects(d1, d2, f), \
                (f.n, d1, d2)
        divs = [d for d in range(1, f.n + 1) if f.n % d == 0]
        assert verts == [(d, deficiency(d)) for d in divs
                         if 0 < deficiency(d) < full], f.n


def test_comaximal_vertices_match_pairwise_definition_to_3000():
    for f in factorize_range(2, 3000):
        divs = divisors(f)[1:-1]
        pairwise = [d for d in divs
                    if any(math.gcd(d, e) == 1 for e in divs if e != d)]
        assert [d for d, _ in support_set(f)] == pairwise, f.n


def test_support_masks_are_disjoint_exactly_when_gcd_is_1_to_2000():
    for f in factorize_range(2, 2000):
        verts = support_set(f)
        for d, mask in verts:
            assert mask == sum(1 << i for i, p in enumerate(f.primes)
                               if d % p == 0), (f.n, d)
        for (d1, m1), (d2, m2) in combinations(verts, 2):
            assert (not m1 & m2) == comaximal(d1, d2, f), (f.n, d1, d2)


def pairwise_builds(f):
    """Both hypergraphs by the generic enumerator on the pairwise lcm and
    gcd relations, the construction the mask-class builders replace."""
    gens = [d for d, _ in vertex_set(f)]
    inter = canonical_hypergraph(gens, enumerate_maximal_edges(
        len(gens), lambda i, j: math.lcm(gens[i], gens[j]) == f.n))
    co_gens = [d for d in divisors(f)[1:-1]
               if any(d % p for p in f.primes)]
    comax = canonical_hypergraph(co_gens, enumerate_maximal_edges(
        len(co_gens), lambda i, j: math.gcd(co_gens[i], co_gens[j]) == 1))
    return inter, comax


@pytest.mark.parametrize("n", [2**24 * 3**1000, 2**18 * 3**18 * 5**18,
                               2**2 * 3**2 * 5**2 * 7**2 * 11 * 13,
                               223092870])
def test_mask_class_builders_match_pairwise_construction(n):
    f = factorize(n)
    assert (build_intersection_hypergraph(f),
            build_comaximal_hypergraph(f)) == pairwise_builds(f)


def test_mask_class_builders_match_pairwise_construction_to_2000(builds5000):
    for n in range(2, 2001):
        f, h = builds5000[n]
        assert (h, build_comaximal_hypergraph(f)) == pairwise_builds(f), n


@pytest.mark.parametrize("masks", [
    # six distinct masks of 4 bits: as many as omega = 3 has, as wide as
    # omega = 4's
    (12, 3, 5, 10, 3, 6, 9, 12, 5),
    # two masks of 3 bits that meet, as many as omega = 2's disjoint two
    (5, 3, 5),
    (6, 1, 4, 1, 2, 6),
])
def test_class_cliques_are_keyed_on_the_masks_themselves(masks):
    # the full mask sets of omega 2, 3 and 4 are cached first
    for n in (6, 30, 210):
        build_intersection_hypergraph(factorize(n))
    labels = [10 * i for i in range(len(masks))]
    expected = canonical_hypergraph(labels, enumerate_maximal_edges(
        len(labels), lambda i, j: not masks[i] & masks[j]))
    assert _build_on_mask_classes(list(zip(labels, masks))) == expected


def test_class_clique_cache_holds_one_entry_per_omega():
    # 2..7000 reaches omega 1..5; omega 1 builds on the empty mask set
    _class_cliques.cache_clear()
    run_sweep(2, 7000, [c for c in ALL_CHECKS if c != "planarity"])
    assert _class_cliques.cache_info().currsize == 5


def test_divisor_table_masks_match_the_exponents_to_10000():
    for f in factorize_range(2, 10000):
        rows = _divisor_table(f)
        assert [d for d, _, _ in rows] == divisors(f), f.n
        for d, deficiency, support in rows:
            assert deficiency == sum(1 << i for i, (p, a)
                                     in enumerate(f.factors) if d % p**a)
            assert support == sum(1 << i for i, p in enumerate(f.primes)
                                  if d % p == 0)


def test_interleaved_builds_equal_fresh_builds():
    fs = list(factorize_range(2, 1500))
    for f, g in zip(fs, fs[1:]):
        got = (build_intersection_hypergraph(f),
               build_comaximal_hypergraph(g),
               build_comaximal_hypergraph(f))
        fresh = []
        for build, x in ((build_intersection_hypergraph, f),
                         (build_comaximal_hypergraph, g),
                         (build_comaximal_hypergraph, f)):
            _divisor_table.cache_clear()
            _index_edges.cache_clear()
            fresh.append(build(x))
        assert got == tuple(fresh), f.n


def test_a_build_above_the_edge_budget_is_correct_and_not_kept():
    f = factorize(2**100 * 3**100)
    assert intersection_edge_count(f) == 10000 > EDGE_BUDGET
    build_intersection_hypergraph(factorize(30))
    kept = (list(_index_edges._entries), _index_edges.pinned)
    assert build_intersection_hypergraph(f) == pairwise_builds(f)[0]
    assert (list(_index_edges._entries), _index_edges.pinned) == kept
    run_sweep(2, 5000)
    for memo in (_index_edges, _maps_edges_onto):
        assert 0 < memo.pinned <= EDGE_BUDGET
        assert sum(cost for _, cost in memo._entries.values()) == memo.pinned


def test_edge_memo_evicts_least_recently_used_under_the_budget(monkeypatch):
    monkeypatch.setattr(hypergraph, "EDGE_BUDGET", 5)
    calls = []

    @hypergraph.edge_memo(lambda args, result: len(result))
    def run(width):
        calls.append(width)
        return (0,) * width

    for width in (2, 3, 2, 1, 6, 2, 0):
        assert run(width) == (0,) * width
    # 1 evicts 3, used less recently than 2; 6 is never kept; 0 costs 1
    assert calls == [2, 3, 1, 6, 0]
    assert list(run._entries) == [(1,), (2,), (0,)] and run.pinned == 4
    # 3 evicts entries until at most 5 edges are kept
    run(3)
    assert list(run._entries) == [(0,), (3,)] and run.pinned == 4
    run.cache_clear()
    assert not run._entries and run.pinned == 0


def test_divisor_table_cache_holds_one_entry():
    assert _divisor_table.cache_info().maxsize == 1


def test_enumerate_maximal_edges_complete_triple():
    assert enumerate_maximal_edges(3, lambda i, j: True) == [(0, 1, 2)]


@pytest.mark.parametrize("n", [12, 30, 36, 60, 210])
def test_enumerate_maximal_edges_against_subset_scan(n):
    f = factorize(n)
    gens = [d for d, _ in vertex_set(f)]

    def compat(i, j):
        return trivially_intersects(gens[i], gens[j], f)

    assert enumerate_maximal_edges(len(gens), compat) == \
        brute_force_maximal_sets(len(gens), compat)


def test_build_intersection_examples():
    h6 = build_intersection_hypergraph(factorize(6))
    assert h6.vertices == (2, 3)
    assert h6.edge_label_sets() == ((2, 3),)

    h12 = build_intersection_hypergraph(factorize(12))
    assert h12.vertices == (3, 4, 6)
    assert h12.edge_label_sets() == ((3, 4), (4, 6))

    assert build_intersection_hypergraph(factorize(9)).is_empty


def test_build_30_edge_sets():
    h = build_intersection_hypergraph(factorize(30))
    assert h.edge_label_sets() == ((2, 15), (3, 10), (5, 6), (6, 10, 15))


def test_build_comaximal_examples():
    h6 = build_comaximal_hypergraph(factorize(6))
    assert h6.edge_label_sets() == ((2, 3),)
    assert build_comaximal_hypergraph(factorize(4)).is_empty
    h12i = build_intersection_hypergraph(factorize(12))
    h12c = build_comaximal_hypergraph(factorize(12))
    ok, witness = isomorphic(h12i, h12c)
    assert ok and witness is not None


def test_edges_are_maximal_and_pairwise_compatible(builds5000):
    for n in range(2, 2001):
        f, h = builds5000[n]
        gens = h.vertices
        for e in h.edge_label_sets():
            for d1, d2 in combinations(e, 2):
                assert trivially_intersects(d1, d2, f)
            others = [d for d in gens if d not in e]
            for d in others:
                assert not all(trivially_intersects(d, x, f) for x in e), \
                    f"edge {e} of n={n} extendable by {d}"


def test_emptiness_and_single_edge_to_10000():
    for f in factorize_range(2, 10000):
        h = build_intersection_hypergraph(f)
        assert h.is_empty == (f.omega <= 1), f.n
        expected_single = tuple(sorted(f.exponents)) == (1, 1)
        assert (len(h.edges) == 1) == expected_single, f.n
        if not h.is_empty:
            h.validate()


def test_edge_count_closed_form_to_7000(builds5000):
    for n, (f, h) in builds5000.items():
        assert intersection_edge_count(f) == len(h.edges), n
        assert intersection_vertex_count(f) == len(h.vertices), n
    for f in factorize_range(5001, 7000):
        assert intersection_edge_count(f) == len(
            build_intersection_hypergraph(f).edges), f.n


@pytest.mark.parametrize("n,count", [(9699690, 4139), (223092870, 21146),
                                     (6469693230, 115974),
                                     (200560490130, 678569)])
def test_edge_count_of_primorials(n, count):
    assert intersection_edge_count(factorize(n)) == count


def test_check_buildable_bound():
    check_buildable(factorize(223092870))
    assert intersection_edge_count(factorize(6469693230)) > MAX_HYPEREDGES
    with pytest.raises(CapabilityError, match="hyperedges"):
        check_buildable(factorize(6469693230))
    # the 9th primorial, (150, 150) and (18, 18, 18) stay admitted
    for n, vertices in ((223092870, 510), (2**150 * 3**150, 300),
                        (2**18 * 3**18 * 5**18, 1026)):
        f = factorize(n)
        assert intersection_vertex_count(f) == vertices <= MAX_VERTICES
        check_buildable(f)
    # 2 * 3**2000 has 2,000 hyperedges but 2,001 vertices
    f = factorize(2 * 3**2000)
    assert intersection_edge_count(f) == 2000
    assert intersection_vertex_count(f) == 2001 > MAX_VERTICES
    with pytest.raises(CapabilityError, match="2001 vertices"):
        check_buildable(f)


def test_build_deterministic():
    a = build_intersection_hypergraph(factorize(360))
    b = build_intersection_hypergraph(factorize(360))
    assert a == b


def test_validate_rejects_bad_hypergraphs():
    with pytest.raises(ValueError):
        Hypergraph((2, 3), ((0,),)).validate()  # undersized edge
    with pytest.raises(ValueError):
        Hypergraph((2, 3, 5), ((0, 1), (0, 1, 2))).validate()  # nested edges
    with pytest.raises(ValueError):
        Hypergraph((2, 3, 5), ((0, 1),)).validate()  # vertex 2 uncovered
    with pytest.raises(ValueError):
        Hypergraph((2, 3), ((1, 0),)).validate()  # unsorted edge


def test_canonical_hypergraph_sorts_edges():
    h = canonical_hypergraph((2, 3, 5), [(2, 1), (0, 2)])
    assert h.edges == ((0, 2), (1, 2))


# --- randomized relation property -------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=7), st.data())
def test_maximal_cliques_match_subset_scan_on_random_relations(count, data):
    pairs = {(i, j): data.draw(st.booleans(), label=f"rel{i},{j}")
             for i, j in combinations(range(count), 2)}

    def compat(i, j):
        return pairs[(min(i, j), max(i, j))]

    assert enumerate_maximal_edges(count, compat) == \
        brute_force_maximal_sets(count, compat)
