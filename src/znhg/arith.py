"""Prime factorizations, divisor enumeration and exponent vectors.

Every subgroup of Z_n is <d> for a divisor d of n, so all lattice
operations downstream reduce to componentwise min/max on the exponent
vectors provided here.  Divisors are always produced in ascending
numeric order; canonical forms elsewhere depend on that.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Factorization:
    """n together with its prime-power decomposition.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes and all exponents >= 1; it is empty iff n == 1.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    @property
    def omega(self) -> int:
        """Number of distinct prime divisors."""
        return len(self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(a for _, a in self.factors)

    def divisor_count(self) -> int:
        out = 1
        for _, a in self.factors:
            out *= a + 1
        return out


def factorize(n: int) -> Factorization:
    """Factor n by trial division.  Deterministic; n must be >= 1."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def factorize_range(lo: int, hi: int) -> list[Factorization]:
    """Factorizations of lo..hi inclusive via a smallest-prime-factor sieve.

    Agrees with factorize() on every n; exists only so that range sweeps
    do not pay trial division per n.
    """
    if lo < 1:
        raise ValueError(f"range must start at 1 or above, got {lo}")
    if hi < lo:
        return []
    spf = list(range(hi + 1))
    for p in range(2, int(hi**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, hi + 1, p):
                if spf[m] == m:
                    spf[m] = p
    out = []
    for n in range(lo, hi + 1):
        m = n
        factors = []
        while m > 1:
            p = spf[m]
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        out.append(Factorization(n, tuple(factors)))
    return out


def divisors(f: Factorization) -> list[int]:
    """All divisors of n, ascending."""
    out = [1]
    for p, a in f.factors:
        out = [d * p**r for d in out for r in range(a + 1)]
    out.sort()
    return out


def proper_nontrivial_divisors(f: Factorization) -> list[int]:
    """Divisors d with 1 < d < n, ascending; empty for n = 1 and n prime."""
    return [d for d in divisors(f) if 1 < d < f.n]


def exponent_vector(d: int, f: Factorization) -> tuple[int, ...]:
    """Exponent tuple (r_1, ..., r_k) of the divisor d, aligned with f.factors."""
    if d < 1 or f.n % d != 0:
        raise ValueError(f"{d} does not divide {f.n}")
    exps = []
    m = d
    for p, _ in f.factors:
        r = 0
        while m % p == 0:
            m //= p
            r += 1
        exps.append(r)
    return tuple(exps)


def from_exponents(exps: tuple[int, ...], f: Factorization) -> int:
    """Inverse of exponent_vector: rebuild the divisor from its exponents."""
    if len(exps) != f.omega:
        raise ValueError(f"expected {f.omega} exponents, got {len(exps)}")
    d = 1
    for (p, a), r in zip(f.factors, exps):
        if not 0 <= r <= a:
            raise ValueError(f"exponent {r} of {p} out of range 0..{a}")
        d *= p**r
    return d

