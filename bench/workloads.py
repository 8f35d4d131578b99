"""Seeded benchmark inputs, and the expectations each output is checked against.

Nothing here imports znhg: the expected counts and factorizations come
from this file's own trial division and from how each n was built, so a
defect in znhg's computing code cannot also hide in its check.

A workload is a fixed list of requests.  Each request is the argv of one
``znhg`` invocation plus what its JSON document must say.  The seed moves
the inputs but not their cost profile, so runs on different seeds measure
the same amount of work:

* sweeps cover 2..N in fixed-width blocks, one ``sweep`` request per block,
  with N drawn inside the last block;
* analyze-wide draws the primes for a fixed set of distinct exponent
  patterns, one request each (every invariant depends on the pattern, not
  on the primes, and no pattern repeats within a round);
* analyze-bigprime draws the smaller prime of n = m*p*q from one stratum
  per request, on a log scale, so the trial-division costs are spread the
  same way for every seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import prod

SCHEMA = "znhg/1"
# the CLI default; requests leave --host-tree-limit unset
HOST_TREE_LIMIT = 9
STRUCTURE_CHECKS = ("diameter", "girth", "chromatic", "star", "hypertree",
                    "single-edge", "emptiness", "iso")
PRIMES_BELOW_50 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# analyze-wide sends one request for every exponent pattern with omega 4
# to 6 and at most WIDE_MAX_VERTICES vertices: 24 patterns, 14 to 71
# vertices, one round near 5 s on a 2-core machine.  The 24 requests leave
# the tail at p58; a higher cap buys a higher tail percentile with longer
# rounds, and so fewer of them in a run.
WIDE_OMEGA = (4, 5, 6)
WIDE_MAX_VERTICES = 71
BIGPRIME_REQUESTS = 40
# trial division in arith.factorize runs up to the smaller prime and takes
# about 90% of a request; [3e5, 6e5) keeps a round of 40 near 1.5 s, so a
# run times each request in many rounds
SMALL_PRIME_RANGE = (3 * 10**5, 6 * 10**5)
LARGE_PRIME_LIMIT = 10**7
# one small prime, so every n has the pattern (1, 1, 1) and a tiny hypergraph
BIGPRIME_COFACTORS = (2, 3, 5, 7)


@dataclass(frozen=True)
class Request:
    """One znhg invocation: its argv, the values of n it verifies, and
    the expectations its document is checked against."""

    argv: tuple[str, ...]
    n_count: int
    expect: tuple


@dataclass(frozen=True)
class SweepSpec:
    block: int   # values of n per sweep request
    blocks: int  # requests per round
    checks: tuple[str, ...]


SWEEPS = {
    "sweep-planarity": SweepSpec(10, 100, ("planarity",)),
    "sweep-structure": SweepSpec(70, 100, STRUCTURE_CHECKS),
}
WORKLOADS = ("sweep-planarity", "sweep-structure", "analyze-wide",
             "analyze-bigprime")


def generate(workload: str, seed: int) -> list[Request]:
    """The requests of one round; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload in SWEEPS:
        return _sweep_requests(SWEEPS[workload], rng)
    if workload == "analyze-wide":
        return _wide_requests(rng)
    if workload == "analyze-bigprime":
        return _bigprime_requests(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _sweep_requests(spec: SweepSpec, rng: random.Random) -> list[Request]:
    # N falls inside the last block, so every seed has the same block count
    hi_last = 2 + spec.blocks * spec.block - 1 - rng.randrange(spec.block)
    out = []
    for lo in range(2, hi_last + 1, spec.block):
        hi = min(lo + spec.block - 1, hi_last)
        argv = ("sweep", str(lo), str(hi), "--checks", ",".join(spec.checks),
                "--jobs", "1", "--json")
        out.append(Request(argv, hi - lo + 1, ("sweep", lo, hi, spec.checks)))
    return out


def _analyze_request(factors: list[tuple[int, int]]) -> Request:
    factors = sorted(factors)
    n = prod(p**a for p, a in factors)
    return Request(("analyze", str(n), "--json"), 1, ("analyze", n, tuple(factors)))


def wide_patterns() -> list[tuple[int, ...]]:
    """Every non-increasing exponent tuple with a length in WIDE_OMEGA
    whose hypergraph has at most WIDE_MAX_VERTICES vertices."""
    out = []

    def extend(prefix, length):
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for a in range(1, (prefix[-1] if prefix else WIDE_MAX_VERTICES) + 1):
            # vertex_count grows with every exponent, so padding with 1s
            # gives the cheapest completion of the prefix
            if vertex_count(prefix + [a] + [1] * (length - len(prefix) - 1)) \
                    > WIDE_MAX_VERTICES:
                break
            extend(prefix + [a], length)

    for omega in WIDE_OMEGA:
        extend([], omega)
    return out


def _wide_requests(rng: random.Random) -> list[Request]:
    out = []
    for pattern in wide_patterns():
        primes = rng.sample(PRIMES_BELOW_50, len(pattern))
        out.append(_analyze_request(list(zip(primes, pattern))))
    rng.shuffle(out)
    return out


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3,215,031,751."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_in(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        p = rng.randrange(lo, hi)
        if is_prime(p):
            return p


def _bigprime_requests(rng: random.Random) -> list[Request]:
    lo, hi = SMALL_PRIME_RANGE
    ratio = hi / lo
    out = []
    for i in range(BIGPRIME_REQUESTS):
        s_lo = int(lo * ratio ** (i / BIGPRIME_REQUESTS))
        s_hi = int(lo * ratio ** ((i + 1) / BIGPRIME_REQUESTS))
        small = _prime_in(rng, s_lo, s_hi)
        large = _prime_in(rng, small + 1, LARGE_PRIME_LIMIT)
        m = rng.choice(BIGPRIME_COFACTORS)
        out.append(_analyze_request([(m, 1), (small, 1), (large, 1)]))
    rng.shuffle(out)
    return out


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def vertex_count(exponents) -> int:
    """Vertices of the trivial-intersection hypergraph: proper nontrivial
    divisors with at least one exponent at its maximum, d(n) - prod(a) - 1."""
    if len(exponents) < 2:
        return 0
    return prod(a + 1 for a in exponents) - prod(exponents) - 1


def check(request: Request, exit_code: int, stdout: str) -> str | None:
    """None when the document meets the request's expectations, else why not."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if doc.get("schema") != SCHEMA:
        return f"schema {doc.get('schema')!r}"
    if request.expect[0] == "sweep":
        return _check_sweep(request.expect, doc)
    return _check_analysis(request.expect, doc)


def _check_sweep(expect: tuple, doc: dict) -> str | None:
    _, lo, hi, checks = expect
    exps = [tuple(_factor(n).values()) for n in range(lo, hi + 1)]
    multi = [e for e in exps if len(e) >= 2]
    unknown = (sum(1 for e in multi if vertex_count(e) > HOST_TREE_LIMIT)
               if "hypertree" in checks else 0)
    compared = {c: len(multi) for c in checks}
    if "emptiness" in checks:
        compared["emptiness"] = len(exps)
    if "hypertree" in checks:
        compared["hypertree"] = len(multi) - unknown
    want = {"kind": "sweep", "lo": lo, "hi": hi, "checks": list(checks),
            "host_tree_limit": HOST_TREE_LIMIT, "compared": compared,
            "hypertree_unknown": unknown, "findings": [], "total_findings": 0}
    for key, value in want.items():
        if doc.get(key) != value:
            return f"{key}: got {doc.get(key)!r}, want {value!r}"
    return None


def _check_analysis(expect: tuple, doc: dict) -> str | None:
    _, n, factors = expect
    want = {"kind": "analysis", "n": n,
            "factorization": [list(pf) for pf in factors],
            "host_tree_limit": HOST_TREE_LIMIT}
    for key, value in want.items():
        if doc.get(key) != value:
            return f"{key}: got {doc.get(key)!r}, want {value!r}"
    vertices = vertex_count([a for _, a in factors])
    if len(doc.get("vertices", ())) != vertices:
        return f"{len(doc.get('vertices', ()))} vertices, want {vertices}"
    disagree = sorted(k for k, v in doc.get("agreement", {}).items()
                      if v.get("agree") is not True)
    if disagree or not doc.get("agreement"):
        return f"agreement flags not all true: {disagree}"
    if doc.get("computed", {}).get("planarity_certificate_valid") is not True:
        return "planarity certificate not valid"
    return None
