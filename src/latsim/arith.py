"""Sieve-backed arithmetic functions and coprimality counting.

Provides:
- Vectorised sieve tables: smallest prime factor, Mobius mu(n), Euler
  phi(n), omega(n) (distinct prime factors), d(n) (divisor count), prefix
  sums of phi
- Restricted totient phi_{alpha,beta}(n) on open intervals (alpha*n, beta*n)
- Coprime counting on closed integer ranges via Mobius inclusion-exclusion
  over the signed squarefree divisors of n, memoised per n and sieve
- Power sums of residues coprime to b restricted to [1, b/2]
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from math import gcd, isqrt
from typing import Sequence

import numpy as np

MAX_POWER_SUM_B = 10 ** 6


@dataclass(frozen=True, eq=False)
class SieveTables:
    """Dense arithmetic-function tables for n = 1..bound.

    Arrays have length bound+1 and are indexed directly by n; index 0 is a
    sentinel. Immutable after construction and safe to share across threads.
    Equality and hash are by identity, so a sieve can key a cache.
    """

    bound: int
    spf: np.ndarray        # smallest prime factor, int64
    mu: np.ndarray         # Mobius function, int8
    phi: np.ndarray        # Euler totient, int64
    omega: np.ndarray      # number of distinct prime factors, int8
    divcount: np.ndarray   # number of divisors, int32
    phi_prefix: np.ndarray # phi_prefix[n] = sum_{k<=n} phi(k), int64

    def __post_init__(self):
        # equality and hash are by identity, not by the arrays' values; lock
        # the arrays so that a sieve keying a cache entry never changes
        for arr in (self.spf, self.mu, self.phi, self.omega,
                    self.divcount, self.phi_prefix):
            arr.setflags(write=False)


def build_sieve(bound: int) -> SieveTables:
    """Fill all tables up to `bound` with a vectorised sieve.

    Each prime p <= sqrt(bound), in increasing order, lowers the smallest
    prime factor of its multiples from p^2 on to p. The multiplicative
    tables then follow in dyadic blocks m in [L, 2L): the cofactor
    r = m / spf(m) is below L, so its entries are final, and whether spf(m)
    divides r decides each table's recurrence.
    """
    if bound < 1:
        raise ValueError("sieve bound must be >= 1")
    n = bound
    spf = np.arange(n + 1, dtype=np.int64)
    for p in range(2, isqrt(n) + 1):
        if spf[p] == p:
            multiples = spf[p * p::p]
            np.minimum(multiples, p, out=multiples)

    mu = np.zeros(n + 1, dtype=np.int8)
    phi = np.zeros(n + 1, dtype=np.int64)
    omega = np.zeros(n + 1, dtype=np.int8)
    divcount = np.zeros(n + 1, dtype=np.int32)
    # exponent of spf[i] in i, used for the divisor-count recurrence
    e = np.zeros(n + 1, dtype=np.int8)
    mu[1] = phi[1] = divcount[1] = 1

    lo = 2
    while lo <= n:
        hi = min(2 * lo, n + 1)
        p = spf[lo:hi]
        r = np.arange(lo, hi) // p
        sq = spf[r] == p
        mu[lo:hi] = np.where(sq, 0, -mu[r])
        phi[lo:hi] = phi[r] * np.where(sq, p, p - 1)
        omega[lo:hi] = omega[r] + ~sq
        e_r = e[r]
        e[lo:hi] = np.where(sq, e_r + 1, 1)
        divcount[lo:hi] = np.where(sq, divcount[r] // (e_r + 1) * (e_r + 2),
                                   divcount[r] * 2)
        lo = hi

    phi_prefix = np.cumsum(phi)
    return SieveTables(bound=n, spf=spf, mu=mu, phi=phi, omega=omega,
                       divcount=divcount, phi_prefix=phi_prefix)


def distinct_primes(n: int, tables: SieveTables | None = None) -> list[int]:
    """Distinct prime factors of n, increasing.

    Walks the smallest-prime-factor table when `tables` covers n, and falls
    back to trial division otherwise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = []
    if tables is not None and n <= tables.bound:
        while n > 1:
            p = int(tables.spf[n])
            primes.append(p)
            while n % p == 0:
                n //= p
        return primes
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        primes.append(m)
    return primes


def _squarefree_divisors(primes: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (e, mu(e)) over the squarefree divisors e of prod(primes).

    Each prime doubles the list: every e already in it gains e * p with the
    sign flipped. Expects distinct primes, as from distinct_primes.
    """
    divs = [(1, 1)]
    for p in primes:
        divs += [(e * p, -m) for e, m in divs]
    return divs


@lru_cache(maxsize=64)
def _signed_divisors(n: int, tables: SieveTables | None
                     ) -> tuple[tuple[int, int], ...]:
    """_squarefree_divisors of n's distinct primes, memoised per (n, tables).

    Callers that count many ranges against one n factor it once. The bound
    is small because each entry keeps its sieve alive.
    """
    return tuple(_squarefree_divisors(distinct_primes(n, tables)))


def phi_restricted(alpha: Fraction, beta: Fraction, n: int,
                   tables: SieveTables | None = None) -> int:
    """Count integers k in the open interval (alpha*n, beta*n) coprime to n.

    Requires 0 <= alpha < beta <= 1. Open-interval semantics: integer
    endpoints alpha*n, beta*n are excluded, so the count runs over the
    closed range [floor(alpha*n) + 1, ceil(beta*n) - 1]. Passing sieve
    tables skips the trial-division factorization of n; repeated calls with
    the same n and tables reuse its memoised signed divisors.
    """
    if not isinstance(alpha, (int, Fraction)):
        alpha = Fraction(alpha)
    if not isinstance(beta, (int, Fraction)):
        beta = Fraction(beta)
    an, ad = alpha.numerator, alpha.denominator
    bn, bd = beta.numerator, beta.denominator
    # 0 <= an/ad < bn/bd <= 1 with positive denominators
    if not (0 <= an and an * bd < bn * ad and bn <= bd):
        raise ValueError("need 0 <= alpha < beta <= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    lo = an * n // ad + 1
    hi = -(-bn * n // bd) - 1
    return coprime_count_range(lo, hi, n, tables)


def phi_restricted_scan(alpha: Fraction, beta: Fraction, n: int) -> int:
    """Direct-scan reference for phi_restricted (independent oracle)."""
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    if not (0 <= alpha < beta <= 1):
        raise ValueError("need 0 <= alpha < beta <= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    lo, hi = alpha * n, beta * n
    return sum(1 for k in range(0, n + 1) if lo < k < hi and gcd(k, n) == 1)


def coprime_count_range(lo: int, hi: int, n: int,
                        tables: SieveTables | None = None) -> int:
    """Count integers k in [lo, hi] with gcd(k, n) = 1.

    Empty ranges (hi = lo - 1) are allowed and return 0.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if lo > hi + 1:
        raise ValueError("need lo <= hi + 1")
    if lo > hi:
        return 0
    total = 0
    for e, mu_e in _signed_divisors(n, tables):
        total += mu_e * (hi // e - (lo - 1) // e)
    return total


def coprime_count_scan(lo: int, hi: int, n: int) -> int:
    """Direct-scan reference for coprime_count_range."""
    return sum(1 for k in range(lo, hi + 1) if gcd(k, n) == 1)


def restricted_power_sum(b: int, j: int) -> int:
    """Sum of a**j over 1 <= a <= b//2 with gcd(a, b) = 1, exact."""
    if b < 2:
        raise ValueError("b must be >= 2")
    if j < 0:
        raise ValueError("j must be >= 0")
    return sum(a ** j for a in range(1, b // 2 + 1) if gcd(a, b) == 1)


def power_sum_tables(bmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Restricted power sums S_j(b) for j = 0, 1, 2 and b = 2..bmax.

    Mobius inversion over e = gcd(a, b) gives
    S_j(b) = sum over e | b of mu(e) e^j F_j(floor(b / 2e)), with F_j(m) the
    sum of t^j over 1 <= t <= m; each squarefree e adds to all its multiples
    b = k e in one slice, F_j taken at floor(k / 2): O(bmax log bmax).
    Returns three int64 arrays indexed by b (indices 0, 1 unused). Every
    partial sum is below (bmax^3 / 24)(1 + ln bmax) < 2^63 for the allowed
    bmax <= 10^6.
    """
    if bmax < 2:
        raise ValueError("bmax must be >= 2")
    if bmax > MAX_POWER_SUM_B:
        raise ValueError(f"int64 power sums are exact only for bmax <= "
                         f"{MAX_POWER_SUM_B}")
    mu = build_sieve(bmax).mu.tolist()
    m = np.arange(bmax + 1, dtype=np.int64) // 2
    f = (m, m * (m + 1) // 2, m * (m + 1) * (2 * m + 1) // 6)
    sums = tuple(np.zeros(bmax + 1, dtype=np.int64) for _ in range(3))
    for e in range(1, bmax // 2 + 1):
        if mu[e]:
            k = bmax // e + 1
            for j, (s, fj) in enumerate(zip(sums, f)):
                s[e::e] += mu[e] * e ** j * fj[1:k]
    return sums


def _check_T(T: int, tables: SieveTables) -> None:
    if T < 1:
        raise ValueError("T must be >= 1")
    if T > tables.bound:
        raise ValueError(f"T={T} exceeds sieve bound {tables.bound}")


def phi_sum(tables: SieveTables, T: int) -> int:
    """Exact sum of phi(n) for n <= T."""
    _check_T(T, tables)
    return int(tables.phi_prefix[T])
