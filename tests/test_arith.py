import random
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from znhg.arith import (PRIMALITY_BOUND, RANGE_LIMIT, CapabilityError,
                        Factorization, _is_prime, divisors, factorize,
                        factorize_range)


def trial_division(n):
    """The reference factorization: divide by every integer up to sqrt."""
    counts = Counter()
    p = 2
    while p * p <= n:
        while n % p == 0:
            counts[p] += 1
            n //= p
        p += 1
    if n > 1:
        counts[n] += 1
    return tuple(sorted(counts.items()))


def lucas_lehmer(p):
    """2^p - 1 is prime, for an odd prime p."""
    m, s = 2**p - 1, 4
    for _ in range(p - 2):
        s = (s * s - 2) % m
    return s == 0


def _primes_below(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, int(limit**0.5) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


PRIMES_BELOW_10_6 = _primes_below(10**6)


@pytest.mark.parametrize("n,factors", [
    (12, ((2, 2), (3, 1))),
    (1, ()),
    (30, ((2, 1), (3, 1), (5, 1))),
    (2, ((2, 1),)),
    (9973, ((9973, 1),)),
    (1024, ((2, 10),)),
])
def test_factorize_examples(n, factors):
    assert factorize(n) == Factorization(n, factors)


@pytest.mark.parametrize("n", [
    561,                         # Carmichael
    3215031751,                  # strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,         # strong pseudoprime to bases 2..31
    1000003**2 * 999983,
])
def test_factorize_matches_trial_division(n):
    assert factorize(n).factors == trial_division(n)


def test_factorize_prime_square_beyond_trial_reach():
    # trial division of n itself would take 10^12 steps; its square root
    # is certified prime by trial division instead
    p = 999999999989
    assert trial_division(p) == ((p, 1),)
    assert factorize(p * p).factors == ((p, 2),)


def test_factorize_mersenne_prime():
    assert lucas_lehmer(61)
    assert factorize(2**61 - 1).factors == ((2**61 - 1, 1),)


def test_factorize_just_below_primality_bound():
    n = PRIMALITY_BOUND - 1
    f = factorize(n)
    assert all(trial_division(p) == ((p, 1),) for p in f.primes)
    assert f.factors == ((2, 2), (3, 4), (5, 1), (127, 1), (18778597, 1),
                         (858557454841, 1))


@pytest.mark.parametrize("n", [
    PRIMALITY_BOUND,                      # strong pseudoprime to all 13 bases
    (2**31 - 1) * (2**61 - 1),
    7 * PRIMALITY_BOUND,
])
def test_factorize_refuses_cofactor_at_primality_bound(n):
    with pytest.raises(CapabilityError, match="primality"):
        factorize(n)


@pytest.mark.parametrize("n,factors", [
    (2**100, ((2, 100),)),
    (10**30, ((2, 30), (5, 30))),
    (47**20 * 1000003, ((47, 20), (1000003, 1))),
])
def test_factorize_large_n_with_small_cofactor(n, factors):
    # the bound applies to what is left after the small primes, not to n
    assert factorize(n).factors == factors


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES_BELOW_10_6), st.sampled_from(PRIMES_BELOW_10_6))
def test_factorize_products_of_two_primes(p, q):
    expected = ((p, 2),) if p == q else tuple(sorted(((p, 1), (q, 1))))
    assert factorize(p * q).factors == expected


# psi_k, the least strong pseudoprime to the first k prime bases (OEIS
# A014233); psi_7 = psi_8 and psi_9 = psi_10 = psi_11
PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
       341550071728321, 341550071728321, 3825123056546413051,
       3825123056546413051, 3825123056546413051, 318665857834031151167461,
       PRIMALITY_BOUND)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def strong_probable_prime(m, a):
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, m)
    if x in (1, m - 1):
        return True
    for _ in range(s - 1):
        x = x * x % m
        if x == m - 1:
            return True
    return False


@pytest.mark.parametrize("k", range(1, 13))
def test_is_prime_rejects_psi_k(k):
    # psi_k passes the first k bases, so a test that stops one base early
    # at any bound calls it prime; called directly, since trial division
    # would strip 2047 = 23 * 89 before Miller-Rabin sees it
    psi = PSI[k - 1]
    assert all(strong_probable_prime(psi, a) for a in MR_BASES[:k])
    # a prime passes every base, so a failing one proves psi composite
    assert not all(strong_probable_prime(psi, a) for a in MR_BASES)
    assert not _is_prime(psi)


def test_is_prime_accepts_the_primality_bound():
    # psi_13 passes all 13 bases: the reason factorize refuses a leftover
    # from PRIMALITY_BOUND on (test_factorize_refuses_cofactor_at_...)
    assert all(strong_probable_prime(PRIMALITY_BOUND, a) for a in MR_BASES)
    assert _is_prime(PRIMALITY_BOUND)


def test_is_prime_matches_all_thirteen_bases_in_every_band():
    # below each psi_k, the first k bases decide as all 13 do: primes and
    # odd composites drawn from every band [psi_{k-1}, psi_k)
    rng = random.Random(12)
    for lo, hi in zip((53,) + PSI, PSI):
        if lo == hi:
            continue
        m = lo | 1
        primes = 0
        while primes < 3:
            expected = all(strong_probable_prime(m, a) for a in MR_BASES)
            assert _is_prime(m) == expected, m
            primes += expected
            m += 2
        for _ in range(50):
            m = rng.randrange(lo, hi) | 1
            assert _is_prime(m) == all(strong_probable_prime(m, a)
                                       for a in MR_BASES), m


def test_factorize_range_refuses_before_allocating():
    start = time.perf_counter()
    with pytest.raises(ValueError, match="limited"):
        factorize_range(1, 10**30)
    with pytest.raises(ValueError, match="limited"):
        factorize_range(1, RANGE_LIMIT + 1)
    assert time.perf_counter() - start < 1


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_product_reconstruction_dense():
    for f in factorize_range(1, 20000):
        prod = 1
        for p, a in f.factors:
            prod *= p**a
        assert prod == f.n
        assert list(f.primes) == sorted(set(f.primes))
        assert all(a >= 1 for a in f.exponents)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**6))
def test_product_reconstruction_sampled(n):
    f = factorize(n)
    prod = 1
    for p, a in f.factors:
        prod *= p**a
    assert prod == n


def test_factorize_matches_a_sieve_to_30000():
    # a smallest-prime-factor sieve is the dense reference; it covers every
    # leftover around 53^2, below which factorize skips Miller-Rabin
    limit = 30000
    spf = list(range(limit))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit, p):
                if spf[m] == m:
                    spf[m] = p
    ranged = factorize_range(1, limit - 1)
    assert [f.n for f in ranged] == list(range(1, limit))
    for n, f in zip(range(1, limit), ranged):
        counts = Counter()
        m = n
        while m > 1:
            counts[spf[m]] += 1
            m //= spf[m]
        expected = tuple(sorted(counts.items()))
        assert factorize(n).factors == expected, n
        assert f.factors == expected, n


@pytest.mark.parametrize("n,expected", [
    (12, [2, 3, 4, 6]),
    (7, []),
    (30, [2, 3, 5, 6, 10, 15]),
    (1, []),
    (4, [2]),
])
def test_proper_nontrivial_divisors(n, expected):
    # the construction oracles take these as divisors(f)[1:-1]
    assert divisors(factorize(n))[1:-1] == expected


def test_divisor_count_matches_formula():
    for f in factorize_range(2, 5000):
        assert len(divisors(f)) == f.divisor_count()


def test_divisors_ascending():
    for n in (12, 30, 360, 5040):
        assert divisors(factorize(n)) == [d for d in range(1, n + 1)
                                          if n % d == 0]
