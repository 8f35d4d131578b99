"""Prime factorizations and divisor enumeration.

Every subgroup of Z_n is <d> for a divisor d of n, so all lattice
operations downstream reduce to componentwise min/max on the exponents
of divisors, which are built from those exponents here.  Divisors are
always produced in ascending numeric order; canonical forms elsewhere
depend on that.

One n is factored by trial division by the primes below 50, then
deterministic Miller-Rabin and Brent's rho on what is left.  Miller-Rabin
is a proof only below PRIMALITY_BOUND, so a larger leftover is refused;
below it, a composite's least prime is under 1.9 * 10^12, which rho finds
in about 10^6 steps, near a second.  Ranges of n are factored one n at a
time the same way and refused above RANGE_LIMIT.
CapabilityError, raised by every such refusal in the package, lives here
because every module can import this one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass


class CapabilityError(RuntimeError):
    """The request exceeds a documented limit of this library."""


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


# Miller-Rabin on the first 13 prime bases is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson & Webster, Math. Comp.
# 86, 2017)
PRIMALITY_BOUND = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_k, the least strong pseudoprime to the first k bases (OEIS A014233):
# the first k bases decide every odd m < psi_k
_PSI = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 341550071728321, 3825123056546413051,
        3825123056546413051, 3825123056546413051,
        318665857834031151167461, PRIMALITY_BOUND)
# trial division removes these, so Miller-Rabin sees only m > 47
_SMALL_PRIMES = _BASES + (43, 47)
# bounds the time of a range sweep, not its memory, which does not grow
# with the range
RANGE_LIMIT = 10**6


def _is_prime(m: int) -> bool:
    """Deterministic strong-probable-prime test, exact for odd
    41 < m < PRIMALITY_BOUND: it stops after the first k bases, k the
    least with m < psi_k."""
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a, psi in zip(_BASES, _PSI):
        x = pow(a, d, m)
        if x != 1 and x != m - 1:
            for _ in range(s - 1):
                x = x * x % m
                if x == m - 1:
                    break
            else:
                return False
        if m < psi:
            return True
    return True


def _rho_factor(m: int) -> int:
    """A proper factor of the odd composite m, by Brent's variant of
    Pollard's rho (BIT 20, 1980): iterate x -> x^2 + c, double the
    distance between the compared points, and batch the gcds."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            # the batch overshot: step from its start one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g


def factorize(n: int) -> Factorization:
    """Factor n exactly; n must be >= 1.

    Trial division by the primes below 50, then each cofactor is proven
    prime by Miller-Rabin (_is_prime) or split by Brent's rho; a cofactor
    below 53^2 needs neither, since every prime left is at least 53.
    Everything is deterministic.  Raises CapabilityError when the part of
    n left after the small primes is PRIMALITY_BOUND or more, where the
    primality test would no longer be a proof.
    """
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    counts: dict[int, int] = {}
    m = n
    for p in _SMALL_PRIMES:
        while m % p == 0:
            m //= p
            counts[p] = counts.get(p, 0) + 1
    if m >= PRIMALITY_BOUND:
        raise CapabilityError(
            f"cannot factor {n}: {m} is left after the primes below 50, and "
            f"primality is proven only below {PRIMALITY_BOUND}")
    pending = [m] if m > 1 else []
    while pending:
        m = pending.pop()
        if m < 53 * 53 or _is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        else:
            d = _rho_factor(m)
            pending += [d, m // d]
    return Factorization(n, tuple(sorted(counts.items())))


def check_range(hi: int) -> None:
    """Refuse a range of n past RANGE_LIMIT, before any work."""
    if hi > RANGE_LIMIT:
        raise ValueError(f"ranges are limited to hi <= {RANGE_LIMIT}, got {hi}")


def factorize_range(lo: int, hi: int) -> list[Factorization]:
    """Factorizations of lo..hi inclusive, each by factorize().

    Refuses hi above RANGE_LIMIT before factoring anything.
    """
    if lo < 1:
        raise ValueError(f"range must start at 1 or above, got {lo}")
    check_range(hi)
    return [factorize(n) for n in range(lo, hi + 1)]


def divisors(f: Factorization) -> list[int]:
    """All divisors of n, ascending."""
    out = [1]
    for p, a in f.factors:
        out = [d * p**r for d in out for r in range(a + 1)]
    out.sort()
    return out
