import pytest

from znhg import hypergraph, metrics, verify
from znhg.arith import factorize_range
from znhg.hypergraph import build_intersection_hypergraph


@pytest.fixture(scope="session")
def builds5000():
    """(factorization, hypergraph) for every n in 2..5000, built once."""
    return {f.n: (f, build_intersection_hypergraph(f))
            for f in factorize_range(2, 5000)}


@pytest.fixture(autouse=True)
def cold_memos():
    """Each test starts with no pattern base, index-level build or edge
    comparison kept, so a callee that it patches takes effect in every
    sweep it runs, and no test depends on what an earlier one left."""
    verify._pattern_base.cache_clear()
    hypergraph._index_edges.cache_clear()
    metrics._maps_edges_onto.cache_clear()
