"""Sieve-backed arithmetic functions and coprimality counting.

Provides:
- Vectorised sieve tables: smallest prime factor, Mobius mu(n), Euler
  phi(n), omega(n) (distinct prime factors), d(n) (divisor count), prefix
  sums of phi
- Restricted totient phi_{alpha,beta}(n) on open intervals (alpha*n, beta*n)
- A table of the signed squarefree divisors (e, mu(e)) of every n up to a
  bound, built once from the sieve's mu
- Coprime counting on closed integer ranges via Mobius inclusion-exclusion
  over the signed squarefree divisors of n: one range at a time, or int64
  arrays of ranges for a run of rows n = start, start + 1, ... with the
  divisors read off that table, every term counted in one exact float64 pass
- Power sums S2(b) of the squares of the residues coprime to b in [1, b/2],
  by Mobius inversion with the divisors read off that table
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

import numpy as np

# Largest sieve bound, refused before any table is allocated: a sieve to
# 10^7 peaks at about 360 MB, and no count or check needs a larger one.
MAX_SIEVE_BOUND = 10 ** 7
# Largest bound of a squarefree-divisor table, refused before any array is
# allocated: the table holds sum over n <= N of 2^omega(n), about
# (6 / pi^2) N (ln N + 1.29) entries: 63,869 at 10^4, and 9.2 million
# (54 MB) at 10^6, where its build peaks at about 250 MB.
MAX_DIVISOR_BOUND = 10 ** 6
# coprime_counts takes |lo|, |hi| below this bound, where its float64
# counts are exact (its docstring says why)
COUNT_RANGE = 2 ** 45


@dataclass(frozen=True, eq=False)
class SieveTables:
    """Dense arithmetic-function tables for n = 1..bound.

    Arrays have length bound+1 and are indexed directly by n; index 0 is a
    sentinel. Immutable after construction and safe to share across threads.
    Equality and hash are by identity: the generated ones would compare and
    hash the arrays, which numpy refuses.
    """

    bound: int
    spf: np.ndarray        # smallest prime factor, int64
    mu: np.ndarray         # Mobius function, int8
    phi: np.ndarray        # Euler totient, int64
    omega: np.ndarray      # number of distinct prime factors, int8
    divcount: np.ndarray   # number of divisors, int32
    phi_prefix: np.ndarray # phi_prefix[n] = sum_{k<=n} phi(k), int64

    def __post_init__(self):
        # lock the arrays so that every holder of a shared sieve reads the
        # same tables
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
    if bound > MAX_SIEVE_BOUND:
        raise ValueError(f"sieve bound {bound} exceeds {MAX_SIEVE_BOUND}")
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


def distinct_primes(n: int) -> list[int]:
    """Distinct prime factors of n, increasing, by trial division."""
    if n < 1:
        raise ValueError("n must be >= 1")
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
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


@dataclass(frozen=True, eq=False)
class SquarefreeDivisors:
    """The signed squarefree divisors (e, mu(e)) of every n = 1..bound.

    The divisors of n sit at start[n]:start[n + 1] of e and mu, e
    increasing; row 0 is empty. Immutable after construction; equality and
    hash are by identity, as for SieveTables.
    """

    bound: int
    start: np.ndarray  # int64, length bound + 2
    e: np.ndarray      # squarefree divisor, int32
    mu: np.ndarray     # its Mobius sign, int8

    def __post_init__(self):
        for arr in (self.start, self.e, self.mu):
            arr.setflags(write=False)


def squarefree_divisor_table(tables: SieveTables) -> SquarefreeDivisors:
    """The signed squarefree divisors of every n up to tables.bound.

    Each squarefree e lists its multiples n = k e, as the keys n 2^32 + e;
    one sort of the keys gathers each n's divisors, in increasing order.
    Row n has 2^omega(n) entries.
    """
    bound = tables.bound
    if bound > MAX_DIVISOR_BOUND:
        raise ValueError(f"divisor table bound {bound} exceeds "
                         f"{MAX_DIVISOR_BOUND}")
    # int32 but for the keys: every multiple is at most bound
    squarefree = np.flatnonzero(tables.mu).astype(np.int32)
    count = bound // squarefree
    e = np.repeat(squarefree, count)
    # the multiple n = k e of each entry, k = 1..count, then its key
    key = np.arange(1, len(e) + 1, dtype=np.int64)
    key -= np.repeat(np.cumsum(count) - count, count)
    key *= e
    key <<= 32
    key |= e
    key.sort()
    e = np.bitwise_and(key, 0xFFFFFFFF, out=key).astype(np.int32)
    start = np.zeros(bound + 2, dtype=np.int64)
    np.cumsum(np.int64(1) << tables.omega[1:].astype(np.int64),
              out=start[2:])
    return SquarefreeDivisors(bound=bound, start=start, e=e,
                              mu=tables.mu[e])


def phi_restricted(alpha: Fraction, beta: Fraction, n: int) -> int:
    """Count integers k in the open interval (alpha*n, beta*n) coprime to n.

    Requires 0 <= alpha < beta <= 1. Open-interval semantics: integer
    endpoints alpha*n, beta*n are excluded, so the count runs over the
    closed range [floor(alpha*n) + 1, ceil(beta*n) - 1].
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
    return coprime_count_range(lo, hi, n)


def coprime_count_range(lo: int, hi: int, n: int) -> int:
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
    for e, mu_e in _squarefree_divisors(distinct_primes(n)):
        total += mu_e * (hi // e - (lo - 1) // e)
    return total


def _table_rows(divisors: SquarefreeDivisors, first: int, last: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows n = first..last as (at, e, mu), row first + r at at[r]:at[r + 1]
    of e and mu; refuses rows outside 1..divisors.bound."""
    if first < 1 or last > divisors.bound:
        raise ValueError(f"need rows 1..{divisors.bound} of the divisor table")
    at = divisors.start[first:last + 2]
    e, mu = divisors.e[at[0]:at[-1]], divisors.mu[at[0]:at[-1]]
    return at - at[0], e, mu


def coprime_counts(lo: np.ndarray, hi: np.ndarray, start: int,
                   divisors: SquarefreeDivisors) -> np.ndarray:
    """coprime_count_range(lo[r, c], hi[r, c], start + r) per entry, int64.

    lo and hi have shape (rows, m) for the run of rows n = start, ...,
    start + rows - 1 (1 <= n <= divisors.bound), with every |lo|, |hi| below
    COUNT_RANGE = 2^45. Each row reads its signed divisors (e, mu(e)) off
    the table; one in-place float64 divide-and-floor pass gives every term
    mu(e) (floor(hi / e) - floor((lo - 1) / e)) of the call, and one
    np.add.reduceat sums each row's terms.

    Every step is exact. A quotient x / e with |x| < 2^53 and e >= 1
    rounds to within |x / e| 2^-53 < 1/e of itself, while a non-integer
    x / e lies at least 1/e from every integer, so floor(fl(x / e)) =
    floor(x / e). Both floors are at most 2^45 in size, so their difference
    is exact; it counts the multiples of e in [lo, hi], at most
    hi - lo + 1 < 2^46 of them. A row sums 2^omega(n) <= 2^7 such terms
    (omega(n) <= 7 for n <= MAX_DIVISOR_BOUND = 10^6), so every partial sum,
    in any order, is an integer below 2^53, and each float addition is
    exact too.
    """
    lo, hi = (np.asarray(a, dtype=np.int64) for a in (lo, hi))
    if lo.ndim != 2 or hi.shape != lo.shape:
        raise ValueError("need lo, hi of one shape (rows, m)")
    at, e, mu = _table_rows(divisors, start, start + len(lo) - 1)
    if lo.size and not (-COUNT_RANGE < min(lo.min(), hi.min())
                        and max(lo.max(), hi.max()) < COUNT_RANGE):
        raise ValueError("need |lo|, |hi| < 2^45")
    if (lo > hi + 1).any():
        raise ValueError("need lo <= hi + 1")
    # term t is divisor e[t] of row rows[t]
    rows = np.repeat(np.arange(len(lo)), np.diff(at))
    terms, below = (x.astype(np.float64)[rows] for x in (hi, lo - 1))
    terms /= e[:, None]
    below /= e[:, None]
    np.floor(terms, out=terms)
    terms -= np.floor(below, out=below)
    terms *= mu[:, None]
    return np.add.reduceat(terms, at[:-1], axis=0).astype(np.int64)


def power_sum_tables(divisors: SquarefreeDivisors, bmax: int) -> np.ndarray:
    """Restricted power sums S2(b) = sum of a^2 over 1 <= a <= b/2 with
    gcd(a, b) = 1, for b = 2..bmax, with 2 <= bmax <= divisors.bound.

    Mobius inversion over e = gcd(a, b) gives
    S2(b) = sum over e | b of mu(e) e^2 F(floor(b / 2e)), with F(m) the sum
    of t^2 over 1 <= t <= m. Row b reads its signed divisors (e, mu(e)) off
    the table, one int64 term per divisor, and one np.add.reduceat sums each
    row's terms. Returns an int64 array indexed by b (indices 0, 1 unused).
    With m = floor(b / 2e), F(m) <= m^3, so each term is at most
    e^2 m^3 <= b^3 / 8e in size and a row's partial sums at most
    (b^3 / 8)(1 + ln b) < 2^63 for b <= MAX_DIVISOR_BOUND = 10^6.
    """
    if bmax < 2:
        raise ValueError("need bmax >= 2")
    # rows b = 2..bmax: row b's entries are at[b - 2]:at[b - 1]
    at, e, mu = _table_rows(divisors, 2, bmax)
    e = e.astype(np.int64)
    m = np.repeat(np.arange(2, bmax + 1), np.diff(at)) // (2 * e)
    terms = mu * e * e * (m * (m + 1) * (2 * m + 1) // 6)
    s2 = np.zeros(bmax + 1, dtype=np.int64)
    s2[2:] = np.add.reduceat(terms, at[:-1])
    return s2
