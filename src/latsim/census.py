"""Enumeration and counting of arithmetic similarity classes of bounded height.

Three families:
- All arithmetic classes (quadruples with c in [ceil(d*(b^2-a^2)/b^2), T])
- Semi-stable classes (additionally c <= d)
- Well-rounded classes (pairs (a, b), counted by b <= T, plus the square
  lattice class (0, 1))

_class_blocks is the one source of class rows: blocks of five int64
columns (a, b, c, d, height) in enumerate order, one shape for all three
sets, with height max(b, c, d) for a quadruple and b for a well-rounded
pair. The quadruple sets build the rows of a group of pairs per numpy
call. enumerate_classes builds its objects from the blocks; the CLI's
enumerate and the verify oracles read the columns.

count_bruteforce enumerates; count_fast reads N3 off Phi(T) and N1, N2 off
one Farey-pair count (one sort of the pairs' a/b and a two-run merge, in
O(T^2 log T)), and must agree with it everywhere both run. Main terms:
  N1 ~ 39 T^4 / (8 pi^4),  N2 ~ 3 T^4 / (8 pi^4),  N3 ~ 3 T^2 / (2 pi^2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

import numpy as np
from numpy.polynomial.legendre import leggauss

from .arith import SieveTables, build_sieve
from .classes import TauQuadruple, WrPair

BRUTEFORCE_LIMIT = 60
# _class_blocks yields at most this many rows per block, so a stream holds
# no more as Python ints: one pair's columns hold up to ~0.3 T^2 classes,
# 1.2M for (0, 1) at T = 2000
_LIST_SLICE = 1 << 14

# Largest T at which count_fast is exact for the quadruple sets, checked in
# _farey_count. Relative to c/d, its query fl(c/d) (4c <= d) is off by at most
# 2^-53; relative to a^2/b^2 * (1 - 2^-49), its key fl(fl(x*x) * _SHRINK), with
# x = fl(a/b), by at most 2^-51 (four roundings). So the key lies strictly below
# every y >= a^2/b^2, the exact ties included, and not below a y < a^2/b^2 whose
# relative gap exceeds 2^-49 + 2^-51 + 2^-53 ~ 2.3e-15. That gap is at least
# 1/(b^2 c) >= 4/T^3 (b, d <= T, c <= T/4), 4e-15 at T = 10^5, so the argument
# holds up to T ~ 1.2e5. The int64 sum of the running key counts over the P + M
# merged entries is at most P * (P + M), ~3.5e18 < 2^63 at 10^5.
MAX_FAST_HEIGHT = 100_000
_SHRINK = 1.0 - 2.0 ** -49
# bit pattern of 1/4: nonnegative floats order as their int64 bit patterns, and
# those in [0, 1/4] lie in [0, 2^62), so they take a tag bit below them
_QUARTER_BITS = int(np.float64(0.25).view(np.int64))


class ClassSetId(enum.Enum):
    ALL = "all"
    SEMISTABLE = "semistable"
    WELL_ROUNDED = "wr"


@dataclass(frozen=True)
class CountReport:
    T: int
    n1: int
    n2: int
    n3: int
    phi: int  # Phi(T) = phi(1) + ... + phi(T)
    v: int    # V(T) of the Farey-pair count, so N2 = N3 + V
    main1: float
    main2: float
    main3: float
    rel_dev1: float
    rel_dev2: float
    rel_dev3: float


def c_lower(a: int, b: int, d: int | np.ndarray) -> int | np.ndarray:
    """Smallest admissible c for (a, b, d): ceil(d*(b^2 - a^2) / b^2), for
    each entry if d is an int64 array."""
    bsq = b * b
    return -((-d * (bsq - a * a)) // bsq)


def _coprime_mask(T: int, ncols: int, tables: SieveTables) -> np.ndarray:
    """bool table mask[d, c] = (gcd(c, d) == 1), d <= T, c < ncols.

    Strikes mask[::p, ::p] for each prime p < ncols (from tables.spf, so the
    sieve must reach ncols - 1), the only primes that divide a c in
    [1, ncols - 1]; column 0 is set apart, as gcd(0, d) = d.
    """
    mask = np.ones((T + 1, ncols), dtype=bool)
    n = np.arange(ncols)
    for p in n[2:][tables.spf[2:ncols] == n[2:]].tolist():
        mask[::p, ::p] = False
    mask[:, 0] = np.arange(T + 1) == 1
    return mask


def _coprime_pairs(T: int, tables: SieveTables
                   ) -> tuple[np.ndarray, np.ndarray]:
    """int32 arrays a, b over gcd(a,b)=1, 0 <= 2a <= b <= T, ordered by (b, a).

    The coprimality table of _coprime_mask, cut to the triangle 2a <= b.
    """
    rows = np.arange(T + 1, dtype=np.int32)
    cols = rows[:T // 2 + 1]
    mask = _coprime_mask(T, cols.size, tables)
    mask &= 2 * cols <= rows[:, None]
    a = np.broadcast_to(cols, mask.shape)[mask]
    counts = np.count_nonzero(mask, axis=1)
    del mask  # so the table is freed before np.repeat builds b
    return a, np.repeat(rows, counts)


def _class_blocks(set_id: ClassSetId, T: int) -> Iterator[tuple]:
    """Every class of height <= T in set_id, in the order of
    enumerate_classes, as blocks (a, b, c, d, height) of int64 columns of at
    most _LIST_SLICE rows. A bad set_id or T is refused at the call; the
    blocks come from a generator, and one sieve to T serves all.

    The well-rounded set takes the pairs of _coprime_pairs(T), starting
    with (0, 1), as the columns (a, b, b^2 - a^2, b^2) with height b. The
    quadruple sets take the pairs (a, b) in groups of
    k = max(1, _LIST_SLICE // (T + 1)^2), with the columns c, d of each
    pair's quadruples in (d, c) order and height max(b, c, d): one bool
    table [pair, d, c] holds c >= c_lower(a, b, d), ANDed with the entries
    of _coprime_mask(T, T + 1), cleared at c = 0 and d = 0 (and above c = d
    if semistable), and one np.nonzero of it gives the group's rows in
    (pair, d, c) order. All three sets yield the same block shape.

    So every row is valid, and the checks of TauQuadruple and WrPair never
    raise on one: gcd(a, b) = 1 and 0 <= 2a <= b because (a, b) comes from
    _coprime_pairs; gcd(c, d) = 1 and c, d >= 1 because (d, c) is marked in
    the table; and c * b^2 >= d * (b^2 - a^2) because c >= c_lower(a, b, d).
    """
    if not isinstance(set_id, ClassSetId):
        raise ValueError(f"unknown class set {set_id!r}")
    if T < 1:
        raise ValueError("T must be >= 1")
    return _class_block_stream(set_id, T)


def _class_block_stream(set_id: ClassSetId, T: int) -> Iterator[tuple]:
    """The blocks of _class_blocks, for a checked set_id and T."""
    tables = build_sieve(T)
    a_arr, b_arr = _coprime_pairs(T, tables)
    if set_id is ClassSetId.WELL_ROUNDED:
        for i in range(0, a_arr.size, _LIST_SLICE):
            a = a_arr[i:i + _LIST_SLICE].astype(np.int64)
            b = b_arr[i:i + _LIST_SLICE].astype(np.int64)
            bsq = b * b
            yield a, b, bsq - a * a, bsq, b
        return
    marked = _coprime_mask(T, T + 1, tables)
    marked[0] = marked[:, 0] = False
    if set_id is ClassSetId.SEMISTABLE:
        marked = np.tril(marked)
    a_arr, b_arr = a_arr.astype(np.int64), b_arr.astype(np.int64)
    cs = np.arange(T + 1)
    # k pairs per table keep it within _LIST_SLICE cells, so each group is
    # one block; from T = 90 on k = 1, and from T = 128 on a pair's rows may
    # span blocks. A process that makes one verify_counts + verify_heights
    # call then peaks at 32.1 MB (ru_maxrss, median of 5 fresh processes,
    # Python 3.11.7, numpy 2.4.6, 2-core Xeon VM), against 33.5 MB with
    # 4 * _LIST_SLICE cells per table and 32.1 MB one pair at a time; one
    # that drains enumerate_classes(ALL, 60) at 31.3 MB, against 32.5 and
    # 31.3 MB
    k = max(1, _LIST_SLICE // (T + 1) ** 2)
    for i in range(0, a_arr.size, k):
        a, b = a_arr[i:i + k], b_arr[i:i + k]
        table = cs >= c_lower(a[:, None], b[:, None], cs)[:, :, None]
        table &= marked
        pair, d, c = np.nonzero(table)
        del table  # so the table is freed while the blocks are read
        for j in range(0, c.size, _LIST_SLICE):
            p, cj, dj = (x[j:j + _LIST_SLICE] for x in (pair, c, d))
            bj = b[p]
            yield a[p], bj, cj, dj, np.maximum(np.maximum(cj, dj), bj)


def enumerate_classes(set_id: ClassSetId, T: int
                      ) -> Iterator[Union[TauQuadruple, WrPair]]:
    """Yield every class of height <= T exactly once, built from the blocks
    of _class_blocks: quadruple sets lexicographically by (b, a, d, c), as
    TauQuadruple; the well-rounded set by (b, a), starting with the extra
    class (0, 1), as WrPair."""
    for a, b, c, d, _ in _class_blocks(set_id, T):
        if set_id is ClassSetId.WELL_ROUNDED:
            yield from map(WrPair, a.tolist(), b.tolist())
        else:
            yield from map(TauQuadruple, a.tolist(), b.tolist(), c.tolist(),
                           d.tolist())


def count_bruteforce(set_id: ClassSetId, T: int) -> int:
    """Oracle counter by full enumeration; guarded against O(T^4) blowup."""
    if T > BRUTEFORCE_LIMIT:
        raise ValueError(f"brute-force counting capped at T={BRUTEFORCE_LIMIT}")
    return sum(1 for _ in enumerate_classes(set_id, T))


def count_fast(set_id: ClassSetId, T: int) -> int:
    """Exact class count at height T without enumeration, in O(T^2 log T).

    With Phi(T) = phi(1) + ... + phi(T), N3(T) = floor(Phi(T)/2) + 1: phi(b)
    is even for b >= 3 and a <-> b - a pairs its residues, while b = 1 and
    b = 2 add one class each. N3 is also the number P of pairs.

    For a pair (a, b) with r = a^2/b^2 <= 1/4, the c coprime to d in
    [d - floor(d r), d - 1] are the c = d - k, one for each Farey fraction
    k/d <= r of order T; as 1 <= 4k <= d, k/d is itself a pair. So with V
    from _farey_count (one sort of the pairs' x = a/b; its slice x <= 1/4
    and the squares x^2 are the two runs of one merge):
    N2(T) = P + V (c = d = 1 adds one class per pair) and
    N1(T) = P * Phi(T) + V (per pair the c <= T coprime to d give
    2 Phi(T) - 1, and those below the range Phi(T) - 1 less its share of V).
    """
    if not isinstance(set_id, ClassSetId):
        raise ValueError(f"unknown class set {set_id!r}")
    if T < 1:
        raise ValueError("T must be >= 1")
    if set_id is not ClassSetId.WELL_ROUNDED and T > MAX_FAST_HEIGHT:
        raise ValueError(f"count_fast is exact only for T <= {MAX_FAST_HEIGHT}")
    tables = build_sieve(T)
    if set_id is ClassSetId.WELL_ROUNDED:
        return int(tables.phi_prefix[T]) // 2 + 1
    row = _count_row(T, tables)
    return row.n2 if set_id is ClassSetId.SEMISTABLE else row.n1


def _count_row(T: int, tables: SieveTables) -> CountReport:
    """The CountReport at T, from a sieve reaching T. N3 comes from the
    totients, not from the kernel's pair count P: verify compares the two."""
    phi_sum = int(tables.phi_prefix[T])
    pairs, v = _farey_count(T, tables)
    n1, n2, n3 = pairs * phi_sum + v, pairs + v, phi_sum // 2 + 1
    m1, m2, m3 = main_terms(T)
    return CountReport(
        T=T, n1=n1, n2=n2, n3=n3, phi=phi_sum, v=v, main1=m1, main2=m2,
        main3=m3, rel_dev1=abs(n1 / m1 - 1), rel_dev2=abs(n2 / m2 - 1),
        rel_dev3=abs(n3 / m3 - 1))


def _farey_count(T: int, tables: SieveTables) -> tuple[int, int]:
    """(P, V): P pairs 0 <= 2a <= b <= T, and V the (x, y) with x = a/b from
    them, y = c/d from those with 1 <= 4c <= d, and y <= x^2.

    One sort of the P values x = a/b gives two ascending runs: the M queries
    y, its slice 0 < x <= 1/4, and the keys x*x*_SHRINK. Their bit patterns,
    tagged in the low bit (0 query, 1 key), are merged by one stable sort
    (timsort, which finds the two runs), a query before an equal key; the
    running count of key tags then sums the keys below each query, plus
    1 + ... + P over the keys. The shrink puts the exact ties y = x^2
    (c = a^2, d = b^2 <= T) below their queries (see MAX_FAST_HEIGHT), so
    their number, Phi(isqrt(T)) // 2, is added back.
    """
    if not 1 <= T <= MAX_FAST_HEIGHT:
        raise ValueError(f"_farey_count is exact only for 1 <= T <= "
                         f"{MAX_FAST_HEIGHT}")
    a, b = _coprime_pairs(T, tables)
    pairs = a.size
    queries = int(np.count_nonzero(a <= b >> 2)) - 1  # all but (0, 1)
    # x is sorted in the merge buffer's tail and its query slice copied to
    # the head, so no other P-sized array outlives the pairs
    merged = np.empty(pairs + queries, dtype=np.int64)
    x = merged[queries:].view(np.float64)
    np.divide(a, b, out=x)
    del a, b
    x.sort()
    merged[:queries] = merged[1 + queries:1 + 2 * queries]
    x *= x
    x *= _SHRINK
    # both runs ascend, so their ends bound every entry
    ends = merged[[0, queries - 1, queries, -1]]
    if ends.min() < 0 or ends.max() > _QUARTER_BITS:
        raise ArithmeticError("Farey-pair values outside [0, 1/4]")
    merged <<= 1
    merged[queries:] |= 1
    merged.sort(kind="stable")
    merged &= 1
    merged.cumsum(out=merged)
    below = int(merged.sum()) - pairs * (pairs + 1) // 2
    ties = int(tables.phi_prefix[math.isqrt(T)]) // 2
    return pairs, pairs * queries - below + ties


def main_terms(T: int) -> tuple[float, float, float]:
    """Leading asymptotic terms (39T^4/(8pi^4), 3T^4/(8pi^4), 3T^2/(2pi^2))."""
    if T < 1:
        raise ValueError("T must be >= 1")
    pi4 = math.pi ** 4
    return (39 * T ** 4 / (8 * pi4),
            3 * T ** 4 / (8 * pi4),
            3 * T ** 2 / (2 * math.pi ** 2))


def census_report(Ts: Sequence[int]) -> list[CountReport]:
    """Exact counts with main-term comparisons for each requested T, all
    read off one sieve to max(Ts)."""
    if len(Ts) == 0:
        raise ValueError("census_report needs at least one height T")
    if min(Ts) < 1:
        raise ValueError("T must be >= 1")
    if max(Ts) > MAX_FAST_HEIGHT:
        raise ValueError(f"census_report is exact only for T <= "
                         f"{MAX_FAST_HEIGHT}")
    tables = build_sieve(max(Ts))
    return [_count_row(T, tables) for T in Ts]


def haar_volumes() -> tuple[float, float, float]:
    """Hyperbolic volume of the class space and of its semi-stable part.

    The inner integral of dy/y^2 is taken in closed form, leaving
    vol_F = int_0^(1/2) dx / sqrt(1 - x^2)            (= pi/6)
    vol_ss = int_0^(1/2) (1/sqrt(1 - x^2) - 1) dx     (= pi/6 - 1/2)
    evaluated by 20- and 40-point Gauss-Legendre rules, which must agree to
    1e-12. Returns (vol_F, vol_ss, vol_ss/vol_F) from the 40-point rule.
    """
    def gauss(n: int) -> tuple[float, float]:
        t, w = leggauss(n)
        f = 1.0 / np.sqrt(1.0 - np.square(0.25 * (t + 1.0)))  # x in [0, 1/2]
        return 0.25 * float(w @ f), 0.25 * float(w @ (f - 1.0))
    (f_lo, ss_lo), (vol_f, vol_ss) = gauss(20), gauss(40)
    if abs(vol_f - f_lo) > 1e-12 or abs(vol_ss - ss_lo) > 1e-12:
        raise ArithmeticError(f"quadrature did not converge: rules differ by "
                              f"{vol_f - f_lo:g}, {vol_ss - ss_lo:g}")
    return vol_f, vol_ss, vol_ss / vol_f
