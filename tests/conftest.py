import pytest

from znhg import verify
from znhg.arith import factorize_range
from znhg.hypergraph import build_intersection_hypergraph


@pytest.fixture(scope="session")
def builds5000():
    """(factorization, hypergraph) for every n in 2..5000, built once."""
    return {f.n: (f, build_intersection_hypergraph(f))
            for f in factorize_range(2, 5000)}


@pytest.fixture(autouse=True)
def cold_pattern_bases():
    """Each test starts with no pattern base kept, so a callee that it
    patches takes effect in every sweep it runs."""
    verify._pattern_base.cache_clear()
