import inspect
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice
from math import gcd, prod

import numpy as np
import pytest

from latsim import arith, census, classes
from latsim.census import ClassSetId
from latsim.classes import TauQuadruple, WrPair

TABLES = arith.build_sieve(400)


def scan_quadruples(T: int, semistable: bool) -> set[TauQuadruple]:
    """Independent oracle: raw quadruple scan straight off the set definition."""
    out = set()
    for b in range(1, T + 1):
        for a in range(0, b // 2 + 1):
            if gcd(a, b) != 1:
                continue
            for d in range(1, T + 1):
                for c in range(1, (d if semistable else T) + 1):
                    if gcd(c, d) == 1 and c * b * b >= d * (b * b - a * a):
                        out.add(TauQuadruple(a, b, c, d))
    return out


def gcd_stream(set_id: ClassSetId, T: int):
    """The stream that the row-sliced enumeration replaced, kept as an oracle:
    a gcd test per candidate c and a validated TauQuadruple per item."""
    a_arr, b_arr = census._coprime_pairs(T, arith.build_sieve(T))
    pairs = zip(a_arr.tolist(), b_arr.tolist())
    if set_id is ClassSetId.WELL_ROUNDED:
        for a, b in pairs:
            yield WrPair(a, b)
        return
    semistable = set_id is ClassSetId.SEMISTABLE
    for a, b in pairs:
        for d in range(1, T + 1):
            hi = d if semistable else T
            for c in range(census.c_lower(a, b, d), hi + 1):
                if math.gcd(c, d) == 1:
                    yield TauQuadruple(a, b, c, d)


def per_pair_blocks(set_id: ClassSetId, T: int):
    """The class blocks that the grouped build replaced, kept as an oracle:
    one pass per pair (a, b) of a quadruple set, with a, b as ints and one
    mask of the table, its rows cut at _LIST_SLICE; the well-rounded
    blocks as _class_blocks builds them."""
    tables = arith.build_sieve(T)
    a_arr, b_arr = census._coprime_pairs(T, tables)
    if set_id is ClassSetId.WELL_ROUNDED:
        for i in range(0, a_arr.size, census._LIST_SLICE):
            a = a_arr[i:i + census._LIST_SLICE].astype(np.int64)
            b = b_arr[i:i + census._LIST_SLICE].astype(np.int64)
            yield a, b, b * b - a * a, b * b, b
        return
    marked = census._coprime_mask(T, T + 1, tables)
    marked[0] = marked[:, 0] = False
    if set_id is ClassSetId.SEMISTABLE:
        marked = np.tril(marked)
    cs = np.arange(T + 1)
    for a, b in zip(a_arr.tolist(), b_arr.tolist()):
        d, c = np.nonzero(marked & (cs >= census.c_lower(a, b, cs[:, None])))
        height = np.maximum(np.maximum(c, d), b)
        for i in range(0, c.size, census._LIST_SLICE):
            j = i + census._LIST_SLICE
            yield a, b, c[i:j], d[i:j], height[i:j]


def block_rows(blocks, limit: int | None = None) -> list[np.ndarray]:
    """The rows of a block stream, or its first limit rows, as five int64
    columns, with a scalar a or b of a block spread over its rows."""
    cols, n = [], 0
    for a, b, c, d, height in blocks:
        cols.append([np.full(c.size, x, dtype=np.int64) if np.ndim(x) == 0
                     else x for x in (a, b)] + [c, d, height])
        n += c.size
        if limit is not None and n >= limit:
            break
    return [np.concatenate(col)[:limit] for col in zip(*cols)]


def moebius_oracle(semistable: bool, T: int, tables: arith.SieveTables) -> int:
    """The Theta(T^3 log T) counter that count_fast replaced, kept as an oracle.

    For each d, the coprime c in [c_lower, hi] are counted by Mobius
    inclusion-exclusion over the squarefree divisors of d, for all pairs
    at once.
    """
    pairs = [(a, b) for b in range(1, T + 1) for a in range(0, b // 2 + 1)
             if gcd(a, b) == 1]
    a_arr = np.array([a for a, _ in pairs], dtype=np.int64)
    b_arr = np.array([b for _, b in pairs], dtype=np.int64)
    bsq = b_arr * b_arr
    k = bsq - a_arr * a_arr
    total = 0
    for d in range(1, T + 1):
        lo_minus_1 = (d * k + bsq - 1) // bsq - 1
        hi = d if semistable else T
        primes = arith.distinct_primes(d)
        for r in range(len(primes) + 1):
            for combo in combinations(primes, r):
                e = prod(combo)
                part = a_arr.size * (hi // e) - int((lo_minus_1 // e).sum())
                total += (-1) ** r * part
    return total


def gcd_pairs(T: int) -> tuple[np.ndarray, np.ndarray]:
    """The triangle 0 <= 2a <= b <= T filtered by np.gcd, ordered by (b, a)."""
    rows = np.arange(1, T + 1, dtype=np.int32)
    b = np.repeat(rows, rows // 2 + 1)
    a = np.concatenate([np.arange(r // 2 + 1, dtype=np.int32)
                        for r in rows.tolist()])
    keep = np.gcd(a, b) == 1
    return a[keep], b[keep]


def sweep_oracle(semistable: bool, T: int, tables: arith.SieveTables) -> int:
    """The sorted-sweep Mobius counter that count_fast replaced, kept as an
    oracle: N = sum over e of mu(e) * (P*B(M) + U(M)) with M = T // e,
    B(M) = M(M+1)/2 (all) or M (semi-stable), and U(M) the sum over d <= M and
    pairs of floor(d a^2/b^2), from one searchsorted of the queries c/d,
    c <= d/4, against the sorted keys a^2/b^2.
    """
    a, b = gcd_pairs(T)
    keys = np.square(a, dtype=np.float64) / np.square(b, dtype=np.float64)
    keys.sort()
    f = np.zeros(T + 1, dtype=np.int64)
    for d in range(4, T + 1):
        queries = np.arange(1, d // 4 + 1) / d
        below = np.searchsorted(keys, queries, side="left")
        f[d] = (d // 4) * keys.size - int(below.sum())
    U = np.cumsum(f).tolist()
    total = 0
    for e in range(1, T + 1):
        mu = int(tables.mu[e])
        if mu:
            M = T // e
            total += mu * (keys.size * (M if semistable else M * (M + 1) // 2)
                           + U[M])
    return total


def searchsorted_farey_count(T: int, tables: arith.SieveTables
                             ) -> tuple[int, int]:
    """The two-sort kernel that _farey_count replaced, kept as an oracle: the
    sorted queries y = a/b (1 <= 4a <= b) searched, by one searchsorted,
    among the sorted correctly rounded keys a^2/b^2."""
    a, b = census._coprime_pairs(T, tables)
    low = (4 * a <= b) & (a > 0)
    ys = a[low] / b[low]
    ys.sort()
    keys = np.square(a, dtype=np.float64)
    keys /= np.square(b, dtype=np.float64)
    keys.sort()
    below = np.searchsorted(keys, ys, side="left")
    return keys.size, keys.size * ys.size - int(below.sum())


# Exact counts at which the two earlier kernels (Mobius and prefix tables)
# agreed, and the sorted sweep at T = 3200; the benchmark checks the T = 800
# and 1600 values.
PINNED_COUNTS = {
    (800, ClassSetId.ALL): 20542882284,
    (800, ClassSetId.SEMISTABLE): 1579003660,
    (1600, ClassSetId.ALL): 328049970981,
    (1600, ClassSetId.SEMISTABLE): 25227058954,
    (3200, ClassSetId.ALL): 5250026039436,
    (3200, ClassSetId.SEMISTABLE): 403805662891,
}


class TestEnumerate:
    def test_all_height_one(self):
        assert list(census.enumerate_classes(ClassSetId.ALL, 1)) == \
            [TauQuadruple(0, 1, 1, 1)]

    def test_all_height_two(self):
        got = list(census.enumerate_classes(ClassSetId.ALL, 2))
        assert got == [TauQuadruple(0, 1, 1, 1), TauQuadruple(0, 1, 2, 1),
                       TauQuadruple(1, 2, 1, 1), TauQuadruple(1, 2, 2, 1)]

    def test_semistable_height_two(self):
        got = list(census.enumerate_classes(ClassSetId.SEMISTABLE, 2))
        assert got == [TauQuadruple(0, 1, 1, 1), TauQuadruple(1, 2, 1, 1)]

    def test_matches_raw_scan(self):
        for T in (3, 7, 12):
            for semistable in (False, True):
                set_id = ClassSetId.SEMISTABLE if semistable else ClassSetId.ALL
                got = list(census.enumerate_classes(set_id, T))
                assert len(got) == len(set(got))  # no duplicates
                assert set(got) == scan_quadruples(T, semistable)

    def test_wr_stream_starts_with_square_class(self):
        got = list(census.enumerate_classes(ClassSetId.WELL_ROUNDED, 5))
        assert got[0] == WrPair(0, 1)
        assert got == [WrPair(0, 1), WrPair(1, 2), WrPair(1, 3),
                       WrPair(1, 4), WrPair(1, 5), WrPair(2, 5)]

    def test_lexicographic_order(self):
        keys = [(q.b, q.a, q.d, q.c)
                for q in census.enumerate_classes(ClassSetId.ALL, 6)]
        assert keys == sorted(keys)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            list(census.enumerate_classes(ClassSetId.ALL, 0))

    def test_is_a_generator_function(self):
        # bench/tracer.py times a stream per next() only when it is one
        assert inspect.isgeneratorfunction(census.enumerate_classes)

    def test_rejects_unknown_set(self):
        with pytest.raises(ValueError, match="unknown class set"):
            list(census.enumerate_classes("all", 5))

    def test_equals_gcd_stream(self):
        # The oracle builds every item with the checked TauQuadruple(a, b, c,
        # d), so equal lists mean each item equals its checked twin.
        for T in [*range(1, 26), 30]:
            for set_id in ClassSetId:
                got = list(census.enumerate_classes(set_id, T))
                want = list(gcd_stream(set_id, T))
                assert got == want, (T, set_id)
                assert list(map(hash, got)) == list(map(hash, want))
                assert list(map(repr, got)) == list(map(repr, want))
                if T == 30:
                    assert pickle.loads(pickle.dumps(got)) == want

    def test_stream_crosses_list_slice(self):
        # the (0, 1) columns at T = 250 hold Phi(250) > _LIST_SLICE classes,
        # so _class_blocks yields them as two blocks, and the stream crosses
        # from one to the next before the next pair
        T = 250
        blocks = census._class_blocks(ClassSetId.ALL, T)
        (a0, b0, c0, _, _), (a1, b1, c1, _, _), (a2, b2, _, _, _) = \
            islice(blocks, 3)
        for a, b, pair in ((a0, b0, (0, 1)), (a1, b1, (0, 1)),
                           (a2, b2, (1, 2))):
            assert set(zip(a.tolist(), b.tolist())) == {pair}
        assert c0.size == census._LIST_SLICE and c1.size > 0
        n = c0.size + c1.size + 50
        got = list(islice(census.enumerate_classes(ClassSetId.ALL, T), n))
        want = list(islice(gcd_stream(ClassSetId.ALL, T), n))
        assert got == want
        assert list(map(repr, got)) == list(map(repr, want))

    @pytest.mark.parametrize("set_id", list(ClassSetId))
    def test_grouped_blocks_equal_per_pair_blocks(self, set_id):
        # k = _LIST_SLICE // (T + 1)^2 pairs per table through T = 89, one
        # pair from T = 90 on; above T = 60 the first 8 blocks are compared
        for T in (1, 2, 3, 5, 20, 40, 60, 127, 128, 250):
            got = list(islice(census._class_blocks(set_id, T),
                              None if T <= 60 else 8))
            for block in got:
                assert len(block) == 5
                assert all(x.dtype == np.int64 and x.shape == block[2].shape
                           for x in block), (set_id, T)
                assert 0 < block[2].size <= census._LIST_SLICE, (set_id, T)
            rows = block_rows(got)
            want = block_rows(per_pair_blocks(set_id, T), rows[2].size)
            for x, y in zip(rows, want):
                assert np.array_equal(x, y), (set_id, T)
        if set_id is ClassSetId.ALL:
            # the (0, 1) pair still spans two blocks at T = 250
            assert [bool((blk[1] == 1).all()) for blk in got[:3]] == \
                [True, True, False]

    def test_class_blocks_refuse_at_the_call(self, monkeypatch):
        def no_sieve(bound):
            raise AssertionError(f"sieve of bound {bound} built")

        monkeypatch.setattr(census, "build_sieve", no_sieve)
        with pytest.raises(ValueError, match="T must be >= 1"):
            census._class_blocks(ClassSetId.ALL, 0)
        with pytest.raises(ValueError, match="unknown class set"):
            census._class_blocks("all", 5)

    def test_first_classes_stay_small(self):
        # the head of a large stream must not hold a whole block as Python
        # ints; the list-per-block stream peaked at 52 MiB traced here
        tracemalloc.start()
        try:
            stream = census.enumerate_classes(ClassSetId.ALL, 1000)
            assert len(list(islice(stream, 1000))) == 1000
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2 ** 20, peak


class TestCounters:
    def test_bruteforce_examples(self):
        assert census.count_bruteforce(ClassSetId.ALL, 2) == 4
        assert census.count_bruteforce(ClassSetId.SEMISTABLE, 1) == 1
        assert census.count_bruteforce(ClassSetId.WELL_ROUNDED, 10) == 17

    def test_bruteforce_guard(self):
        with pytest.raises(ValueError):
            census.count_bruteforce(ClassSetId.ALL, 61)

    def test_fast_equals_bruteforce(self):
        for T in [*range(1, 26), 50, census.BRUTEFORCE_LIMIT]:
            for set_id in ClassSetId:
                assert census.count_fast(set_id, T) == \
                    census.count_bruteforce(set_id, T)

    def test_fast_equals_report_rows(self):
        # verify_counts reads its fast side at every T <= 40 off these rows
        for r in census.census_report(range(1, 41)):
            assert [census.count_fast(set_id, r.T) for set_id in ClassSetId] \
                == [r.n1, r.n2, r.n3], r.T

    def test_fast_equals_moebius_oracle(self):
        for T in list(range(1, 101)) + [200, 400]:
            for semistable, set_id in ((False, ClassSetId.ALL),
                                       (True, ClassSetId.SEMISTABLE)):
                assert census.count_fast(set_id, T) == \
                    moebius_oracle(semistable, T, TABLES), (T, set_id)

    def test_fast_equals_sweep_oracle(self):
        tables = arith.build_sieve(800)
        for T in list(range(1, 101)) + [200, 400, 800]:
            for semistable, set_id in ((False, ClassSetId.ALL),
                                       (True, ClassSetId.SEMISTABLE)):
                assert census.count_fast(set_id, T) == \
                    sweep_oracle(semistable, T, tables), (T, set_id)

    def test_farey_count_equals_searchsorted_oracle(self):
        # the tie count Phi(isqrt(T)) // 2 steps at the squares
        tables = arith.build_sieve(3200)
        edges = [k * k + e for k in range(2, 41) for e in (-1, 0, 1)]
        for T in sorted({*range(1, 401), *edges, 800, 1600, 3200}):
            assert census._farey_count(T, tables) == \
                searchsorted_farey_count(T, tables), T

    def test_shrunk_keys_order_at_range_edge(self):
        # a^2 d - c b^2 in {-1, 0, 1} with d <= 10^5 as large as its residue
        # mod b^2 allows, so c is too; b^2 <= 10^5 leaves every residue a d
        T = census.MAX_FAST_HEIGHT
        rows = []
        for b in range(2, math.isqrt(T) + 1):
            bsq = b * b
            for a in range(1, b // 2 + 1):
                if gcd(a, b) != 1:
                    continue
                rows.append((a, b, a * a, bsq, 0))
                inv = pow(a * a, -1, bsq)
                for k in (-1, 1):
                    r = k * inv % bsq
                    d = r + (T - r) // bsq * bsq
                    c, rem = divmod(a * a * d - k, bsq)
                    assert rem == 0 and d <= T
                    if 1 <= c and 4 * c <= d:
                        rows.append((a, b, c, d, k))
        a, b, c, d, k = np.array(rows, dtype=np.int64).T
        assert set(k.tolist()) == {-1, 0, 1} and c.max() > T // 5
        x = a / b
        key = x * x * census._SHRINK
        y = c / d
        assert np.array_equal(np.sign(key - y), np.where(k > 0, 1, -1))

    def test_range_argument_holds_at_max_height(self):
        # exact worst cases of the rounding: x = fl(a/b), fl(x*x), fl(*shrink)
        # against y = fl(c/d), with relative gap 4/T^3 between a^2/b^2 and c/d
        u = Fraction(1, 2 ** 53)
        shrink = Fraction(census._SHRINK)
        assert shrink == 1 - Fraction(1, 2 ** 49)
        gap = Fraction(4, census.MAX_FAST_HEIGHT ** 3)
        assert (1 + gap) * (1 - u) ** 4 * shrink > 1 + u   # key above y
        assert (1 + u) ** 4 * shrink < (1 + gap) * (1 - u)  # key below y
        assert (1 + u) ** 4 * shrink < 1 - u                # ties below y
        # and the argument fails soon above it (T ~ 1.2e5)
        gap = Fraction(4, 125_000 ** 3)
        assert (1 + gap) * (1 - u) ** 4 * shrink < 1 + u

    def test_pinned_counts(self):
        for (T, set_id), want in PINNED_COUNTS.items():
            assert census.count_fast(set_id, T) == want

    def test_boundary_tie_is_counted(self):
        # (1, 2, 3, 4) attains c*b^2 = d*(b^2 - a^2): the key a^2/b^2 = 1/4
        # equals the query c/d = 1/4, and a tie counts as c <= d*a^2/b^2.
        assert census.c_lower(1, 2, 4) == 3
        for set_id in (ClassSetId.ALL, ClassSetId.SEMISTABLE):
            assert TauQuadruple(1, 2, 3, 4) in \
                set(census.enumerate_classes(set_id, 4))
        # pairs (0,1), (1,2), (1,3), (1,4); the one query 1/4 ties x = 1/2
        assert census._farey_count(4, TABLES) == (4, 1)

    def test_coprime_mask_equals_gcd_table(self):
        tables = arith.build_sieve(200)
        for T in range(1, 201):
            for ncols in (T // 2 + 1, T + 1):
                want = np.gcd.outer(np.arange(T + 1), np.arange(ncols)) == 1
                got = census._coprime_mask(T, ncols, tables)
                assert got.dtype == bool
                assert np.array_equal(got, want), (T, ncols)

    def test_struck_pairs_equal_gcd_triangle(self):
        tables = arith.build_sieve(1000)
        for T in [*range(1, 201), 1000]:
            for g, w in zip(census._coprime_pairs(T, tables), gcd_pairs(T)):
                assert g.dtype == np.int32
                assert np.array_equal(g, w), T

    def test_exactness_range_enforced_before_sieve(self, monkeypatch):
        def no_sieve(bound):
            raise AssertionError(f"sieve of bound {bound} built")

        monkeypatch.setattr(census, "build_sieve", no_sieve)
        for set_id in (ClassSetId.ALL, ClassSetId.SEMISTABLE):
            with pytest.raises(ValueError, match="exact only"):
                census.count_fast(set_id, census.MAX_FAST_HEIGHT + 1)
        with pytest.raises(ValueError, match="exact only"):
            census.census_report([census.MAX_FAST_HEIGHT + 1])

    def test_refusals_name_the_refusing_function(self):
        big, tables = census.MAX_FAST_HEIGHT + 1, arith.build_sieve(10)
        cases = [
            (lambda: census.count_fast(ClassSetId.ALL, big), "count_fast"),
            (lambda: census.census_report([big]), "census_report"),
        ]
        for call, name in cases:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == (f"{name} is exact only for T <= "
                                      f"{census.MAX_FAST_HEIGHT}")
        for T in (0, big):
            with pytest.raises(ValueError) as err:
                census._farey_count(T, tables)
            assert str(err.value) == ("_farey_count is exact only for "
                                      f"1 <= T <= {census.MAX_FAST_HEIGHT}")

    def test_sieve_bound_enforced(self):
        for set_id in ClassSetId:
            with pytest.raises(ValueError, match="T must be >= 1"):
                census.count_fast(set_id, 0)
        with pytest.raises(ValueError, match="T must be >= 1"):
            census.census_report([0, 5])

    def test_one_sieve_per_call(self, monkeypatch):
        # the kernel reads the sieve its caller built from T
        bounds = []

        def counted(bound):
            bounds.append(bound)
            return arith.build_sieve(bound)

        monkeypatch.setattr(census, "build_sieve", counted)
        census.count_fast(ClassSetId.ALL, 30)
        assert bounds == [30]
        census.census_report([37, 200])
        assert bounds == [30, 200]

    def test_one_sieve_per_wr_enumeration(self, monkeypatch):
        # the pair stream reads one sieve to T, as the counters do
        bounds = []

        def counted(bound):
            bounds.append(bound)
            return arith.build_sieve(bound)

        monkeypatch.setattr(census, "build_sieve", counted)
        pairs = list(census.enumerate_classes(ClassSetId.WELL_ROUNDED, 30))
        assert bounds == [30]
        assert len(pairs) == census.count_fast(ClassSetId.WELL_ROUNDED, 30)

    def test_unknown_set_refused_before_sieve(self, monkeypatch):
        # a set named by its string value is not a ClassSetId, and must not
        # be counted as some other set
        def no_sieve(bound):
            raise AssertionError(f"sieve of bound {bound} built")

        monkeypatch.setattr(census, "build_sieve", no_sieve)
        for set_id in ("semistable", "wr", None):
            with pytest.raises(ValueError, match="unknown class set"):
                census.count_fast(set_id, 10)

    def test_wr_count_is_half_the_totient_sum(self):
        # N3(T) = floor(Phi(T)/2) + 1 against the per-b sum it replaced and
        # against the number P(T) of pairs with b <= T, at every T <= 3000
        tables = arith.build_sieve(3000)
        _, b = census._coprime_pairs(3000, tables)
        pairs = np.cumsum(np.bincount(b, minlength=3001))
        per_b = 1 + np.cumsum((tables.phi + 1) // 2 * (np.arange(3001) >= 2))
        for T in range(1, 3001):
            n3 = census.count_fast(ClassSetId.WELL_ROUNDED, T)
            assert n3 == per_b[T] == pairs[T], T

    def test_counts_nondecreasing_and_ordered(self):
        prev = (0, 0, 0)
        for T in range(1, 31):
            n1 = census.count_fast(ClassSetId.ALL, T)
            n2 = census.count_fast(ClassSetId.SEMISTABLE, T)
            n3 = census.count_fast(ClassSetId.WELL_ROUNDED, T)
            assert n1 >= prev[0] and n2 >= prev[1] and n3 >= prev[2]
            assert n1 >= n2 >= n3
            if T >= 2:
                assert n1 > n2
            if T >= 4:  # semistable and WR counts tie at T = 3 (both 3)
                assert n2 > n3
            prev = (n1, n2, n3)

    def test_b_to_c_split(self):
        # N1(T) = N2(T) + sum over pairs and d of coprime c in (d, T]
        for T in (10, 25, 40):
            a_arr, _ = census._coprime_pairs(T, TABLES)
            extra = a_arr.size * sum(
                arith.coprime_count_range(d + 1, T, d)
                for d in range(1, T + 1))
            assert census.count_fast(ClassSetId.ALL, T) == \
                census.count_fast(ClassSetId.SEMISTABLE, T) + extra

    def test_wr_containment(self):
        semistable_25 = set(census.enumerate_classes(ClassSetId.SEMISTABLE, 25))
        all_25 = set(census.enumerate_classes(ClassSetId.ALL, 25))
        for p in census.enumerate_classes(ClassSetId.WELL_ROUNDED, 5):
            q = classes.wr_pair_to_quadruple(p)
            assert q in semistable_25
            assert q in all_25


class TestMainTermsAndReport:
    def test_constants(self):
        m1, m2, m3 = census.main_terms(1)
        assert m1 == pytest.approx(39 / (8 * math.pi ** 4))
        assert m2 == pytest.approx(3 / (8 * math.pi ** 4))
        assert m3 == pytest.approx(3 / (2 * math.pi ** 2))
        assert m2 / m1 == pytest.approx(1 / 13)

    def test_report_small(self):
        r1, r2 = census.census_report([1, 2])
        assert (r1.n1, r1.n2, r1.n3) == (1, 1, 1)
        assert (r2.n1, r2.n2, r2.n3) == (4, 2, 2)

    def test_report_sweeps_once_per_T(self, monkeypatch):
        sweeps = []
        sweep = census._farey_count

        def counted(T, tables):
            sweeps.append(T)
            return sweep(T, tables)

        monkeypatch.setattr(census, "_farey_count", counted)
        reports = census.census_report([37, 200])
        assert sweeps == [37, 200]
        for r in reports:
            assert r.phi == int(arith.build_sieve(r.T).phi_prefix[r.T])
            assert (r.n1, r.n2) == (r.n3 * r.phi + r.v, r.n3 + r.v)
            assert r.n1 == census.count_fast(ClassSetId.ALL, r.T)
            assert r.n2 == census.count_fast(ClassSetId.SEMISTABLE, r.T)
            assert r.n3 == census.count_fast(ClassSetId.WELL_ROUNDED, r.T)

    def test_deviation_shrinks_over_wide_span(self):
        # magnitudes oscillate locally; compare well-separated heights
        r50, r400 = census.census_report([50, 400])
        assert r400.rel_dev1 < r50.rel_dev1
        assert r400.rel_dev3 < r50.rel_dev3

    def test_report_rejects_no_heights(self):
        with pytest.raises(ValueError, match="at least one height"):
            census.census_report([])


class TestHaar:
    def test_volumes(self):
        vol_f, vol_ss, fraction = census.haar_volumes()
        assert vol_f == pytest.approx(math.pi / 6, abs=1e-13)
        assert vol_ss == pytest.approx(math.pi / 6 - 0.5, abs=1e-13)
        assert fraction == pytest.approx(1 - 3 / math.pi, abs=1e-13)
        assert fraction == pytest.approx(0.04507034144, abs=1e-9)

    def test_disagreeing_rules_raise(self, monkeypatch):
        leggauss = census.leggauss

        def skewed(n):
            t, w = leggauss(n)
            return t, w * (1.0 + 1e-9 * (n == 40))

        monkeypatch.setattr(census, "leggauss", skewed)
        with pytest.raises(ArithmeticError):
            census.haar_volumes()

    def test_import_leaves_scipy_unloaded(self):
        src = os.path.dirname(os.path.dirname(census.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = ("import sys, latsim, latsim.cli, latsim.verify; "
                "print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"
