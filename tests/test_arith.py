import random
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest

from latsim import arith

TABLES = arith.build_sieve(10_000)
DIVISORS = arith.squarefree_divisor_table(TABLES)


def phi_restricted_scan(alpha: Fraction, beta: Fraction, n: int) -> int:
    """Direct-scan reference for phi_restricted (independent oracle)."""
    lo, hi = Fraction(alpha) * n, Fraction(beta) * n
    return sum(1 for k in range(0, n + 1) if lo < k < hi and gcd(k, n) == 1)


def coprime_count_scan(lo: int, hi: int, n: int) -> int:
    """Direct-scan reference for coprime_count_range."""
    return sum(1 for k in range(lo, hi + 1) if gcd(k, n) == 1)


def restricted_power_sum(b: int, j: int) -> int:
    """Sum of a**j over 1 <= a <= b//2 with gcd(a, b) = 1, exact."""
    return sum(a ** j for a in range(1, b // 2 + 1) if gcd(a, b) == 1)


def power_sum_slice_loop(bmax: int) -> np.ndarray:
    """The replaced power_sum_tables kernel, kept as its oracle: each
    squarefree e <= bmax/2 adds mu(e) e^2 F(floor(k / 2)) to every multiple
    b = k e in one slice, with mu from its own sieve."""
    mu = arith.build_sieve(bmax).mu.tolist()
    m = np.arange(bmax + 1, dtype=np.int64) // 2
    f = m * (m + 1) * (2 * m + 1) // 6
    s2 = np.zeros(bmax + 1, dtype=np.int64)
    for e in range(1, bmax // 2 + 1):
        if mu[e]:
            s2[e::e] += mu[e] * e * e * f[1:bmax // e + 1]
    return s2


def linear_sieve(n: int) -> dict[str, np.ndarray]:
    """Reference tables from the linear (spf-driven) sieve, one i at a time."""
    spf = np.zeros(n + 1, dtype=np.int64)
    mu = np.zeros(n + 1, dtype=np.int8)
    phi = np.zeros(n + 1, dtype=np.int64)
    omega = np.zeros(n + 1, dtype=np.int8)
    divcount = np.zeros(n + 1, dtype=np.int32)
    e = np.zeros(n + 1, dtype=np.int8)
    spf[1] = mu[1] = phi[1] = divcount[1] = 1
    primes: list[int] = []
    for i in range(2, n + 1):
        if spf[i] == 0:
            spf[i] = i
            primes.append(i)
            mu[i] = -1
            phi[i] = i - 1
            omega[i] = 1
            divcount[i] = 2
            e[i] = 1
        for p in primes:
            ip = i * p
            if p > spf[i] or ip > n:
                break
            spf[ip] = p
            if i % p == 0:
                mu[ip] = 0
                phi[ip] = phi[i] * p
                omega[ip] = omega[i]
                e[ip] = e[i] + 1
                divcount[ip] = divcount[i] // (e[i] + 1) * (e[i] + 2)
            else:
                mu[ip] = -mu[i]
                phi[ip] = phi[i] * (p - 1)
                omega[ip] = omega[i] + 1
                e[ip] = 1
                divcount[ip] = divcount[i] * 2
    return dict(spf=spf, mu=mu, phi=phi, omega=omega, divcount=divcount,
                phi_prefix=np.cumsum(phi))


class TestVectorisedSieve:
    def test_equals_linear_sieve(self):
        bounds = sorted({*range(1, 301), 10 ** 5,
                         *(2 ** k + d for k in range(18) for d in (-1, 0, 1))}
                        - {0})
        # the linear sieve writes entry i from entries below i whatever the
        # bound n >= i, so one run to the largest bound holds every smaller
        # bound's tables as a prefix
        oracle = linear_sieve(max(bounds))
        for bound in bounds:
            t = arith.build_sieve(bound)
            assert t.bound == bound
            for name, table in oracle.items():
                got, want = getattr(t, name), table[:bound + 1]
                assert got.dtype == want.dtype, (bound, name)
                assert np.array_equal(got, want), (bound, name)
                assert not got.flags.writeable

    def test_hash_and_equality_by_identity(self):
        t = arith.build_sieve(10)
        assert hash(t) == hash(t) and t == t
        assert t != arith.build_sieve(10)


class TestBuildSieve:
    def test_phi_first_ten(self):
        t = arith.build_sieve(10)
        assert list(t.phi[1:]) == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
        assert int(t.phi_prefix[10]) == 32

    def test_bound_one(self):
        t = arith.build_sieve(1)
        assert list(t.phi[1:]) == [1]
        assert t.mu[1] == 1 and t.omega[1] == 0 and t.divcount[1] == 1

    def test_mu_vanishes_on_squares(self):
        assert arith.build_sieve(12).mu[12] == 0

    def test_rejects_zero_bound(self):
        with pytest.raises(ValueError):
            arith.build_sieve(0)

    def test_prime_values(self):
        t = TABLES
        for p in (2, 3, 5, 7, 101, 9973):
            assert t.spf[p] == p
            assert t.phi[p] == p - 1
            assert t.omega[p] == 1
            assert t.divcount[p] == 2
            assert t.mu[p] == -1

    def test_multiplicativity_spot_checks(self):
        rng = random.Random(7)
        t = TABLES
        for _ in range(200):
            m = rng.randint(2, 99)
            n = rng.randint(2, 99)
            if gcd(m, n) == 1:
                assert t.phi[m * n] == t.phi[m] * t.phi[n]
                assert t.divcount[m * n] == t.divcount[m] * t.divcount[n]

    def test_tables_against_naive_factorization(self):
        for n in range(1, 500):
            divisors = [d for d in range(1, n + 1) if n % d == 0]
            assert TABLES.divcount[n] == len(divisors)
            assert TABLES.phi[n] == sum(1 for k in range(1, n + 1)
                                        if gcd(k, n) == 1)


class TestPhiRestricted:
    def test_full_interval_is_phi(self):
        for n in range(2, 200):
            assert arith.phi_restricted(0, 1, n) == int(TABLES.phi[n])
        assert arith.phi_restricted(0, 1, 10) == 4

    def test_empty_open_interval(self):
        assert arith.phi_restricted(0, Fraction(1, 2), 2) == 0

    def test_quarter_window(self):
        assert arith.phi_restricted(Fraction(1, 4), Fraction(3, 4), 12) == 2

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            arith.phi_restricted(Fraction(1, 2), Fraction(1, 2), 5)
        with pytest.raises(ValueError):
            arith.phi_restricted(Fraction(-1, 4), 1, 5)
        with pytest.raises(ValueError):
            arith.phi_restricted(0, Fraction(5, 4), 5)

    def test_validation_matches_fraction_order(self):
        # the integer cross-multiplication accepts exactly 0 <= a < b <= 1
        grid = [Fraction(k, 6) for k in range(-2, 9)] + [0, 1, Fraction(2, 4)]
        for a in grid:
            for b in grid:
                if 0 <= a < b <= 1:
                    assert arith.phi_restricted(a, b, 12) == \
                        phi_restricted_scan(a, b, 12)
                else:
                    with pytest.raises(ValueError):
                        arith.phi_restricted(a, b, 12)

    def test_accepts_what_fraction_accepts(self):
        want = arith.phi_restricted(Fraction(1, 4), Fraction(3, 4), 60)
        assert arith.phi_restricted("1/4", 0.75, 60) == want
        assert arith.phi_restricted(0, 1, 60) == 16

    def test_moebius_equals_scan(self):
        rng = random.Random(11)
        for _ in range(500):
            n = rng.randint(1, 300)
            den = rng.randint(2, 40)
            lo, hi = sorted(rng.sample(range(den + 1), 2))
            a, b = Fraction(lo, den), Fraction(hi, den)
            assert arith.phi_restricted(a, b, n) == \
                phi_restricted_scan(a, b, n)

    def test_tables_equal_scan_up_to_ten_thousand(self):
        # integer endpoints alpha*n, beta*n must be excluded exactly
        rng = random.Random(19)
        ns = [1, 2, 9240, 9973, 10_000] + rng.sample(range(3, 10_001), 40)
        for n in ns:
            lo, hi = sorted(rng.sample(range(n + 1), 2))
            den = rng.randint(2, 64)
            dlo, dhi = sorted(rng.sample(range(den + 1), 2))
            for a, b in ((Fraction(lo, n), Fraction(hi, n)),
                         (Fraction(dlo, den), Fraction(dhi, den))):
                assert arith.phi_restricted(a, b, n) == \
                    phi_restricted_scan(a, b, n)

    def test_two_sided_totient_bound(self):
        # sampled version of the full-range acceptance check
        rng = random.Random(13)
        for n in range(2, 1000):
            phi_n = int(TABLES.phi[n])
            two_om = 1 << int(TABLES.omega[n])
            for _ in range(5):
                den = rng.randint(2, 32)
                lo, hi = sorted(rng.sample(range(den + 1), 2))
                a, b = Fraction(lo, den), Fraction(hi, den)
                got = arith.phi_restricted(a, b, n)
                assert abs(got - (b - a) * phi_n) <= two_om


class TestDistinctPrimes:
    def test_table_walk_equals_trial_division(self):
        for n in range(1, 10_001):
            want, m = [], n
            while m > 1:  # walk the smallest-prime-factor table
                p = int(TABLES.spf[m])
                want.append(p)
                while m % p == 0:
                    m //= p
            assert arith.distinct_primes(n) == want, n


class TestSquarefreeDivisors:
    def test_signed_divisors_equal_mobius(self):
        assert arith._squarefree_divisors(arith.distinct_primes(1)) \
            == [(1, 1)]
        mu = TABLES.mu
        want = [set() for _ in range(10_001)]
        for e in range(1, 10_001):
            if mu[e]:
                for n in range(e, 10_001, e):
                    want[n].add((e, int(mu[e])))
        for n in range(1, 10_001):
            divs = arith._squarefree_divisors(arith.distinct_primes(n))
            assert len(divs) == len(want[n]) and set(divs) == want[n], n


class TestSquarefreeDivisorTable:
    def test_rows_equal_the_trial_division_divisors(self):
        assert DIVISORS.bound == TABLES.bound
        assert DIVISORS.start[0] == DIVISORS.start[1] == 0
        assert DIVISORS.start[-1] == len(DIVISORS.e) == len(DIVISORS.mu)
        for n in range(1, 10_001):
            row = slice(DIVISORS.start[n], DIVISORS.start[n + 1])
            e, mu = DIVISORS.e[row].tolist(), DIVISORS.mu[row].tolist()
            divs = arith._squarefree_divisors(arith.distinct_primes(n))
            assert len(e) == len(divs) and set(zip(e, mu)) == set(divs), n
            assert e == sorted(e), n

    def test_refuses_a_bound_beyond_the_cap(self, monkeypatch):
        monkeypatch.setattr(arith, "MAX_DIVISOR_BOUND", TABLES.bound - 1)
        with pytest.raises(ValueError):
            arith.squarefree_divisor_table(TABLES)

    def test_is_read_only(self):
        with pytest.raises(ValueError):
            DIVISORS.e[0] = 2


class TestCoprimeCountRange:
    def test_examples(self):
        assert arith.coprime_count_range(1, 10, 1) == 10
        assert arith.coprime_count_range(3, 8, 6) == 2
        assert arith.coprime_count_range(5, 4, 7) == 0

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            arith.coprime_count_range(5, 3, 7)

    def test_moebius_equals_scan_random(self):
        rng = random.Random(17)
        for _ in range(10_000):
            n = rng.randint(1, 500)
            lo = rng.randint(0, 300)
            hi = lo + rng.randint(-1, 100)
            assert arith.coprime_count_range(lo, hi, n) == \
                coprime_count_scan(lo, hi, n)


class TestCoprimeCounts:
    def check(self, lo, hi, start):
        # row r of lo, hi is the row n = start + r of the run
        got = arith.coprime_counts(lo, hi, start, DIVISORS)
        assert got.dtype == np.int64 and got.shape == np.shape(lo)
        want = [[coprime_count_scan(a, b, n) for a, b in zip(row_lo, row_hi)]
                for n, row_lo, row_hi in zip(range(start, start + len(lo)),
                                             lo, hi)]
        assert got.tolist() == want

    def test_equals_scan_random(self):
        rng = random.Random(19)
        for _ in range(20):
            rows = rng.randint(1, 40)
            start = rng.randint(1, 10_001 - rows)
            lo = [[rng.randint(-50, n) for _ in range(5)]
                  for n in range(start, start + rows)]
            hi = [[a + rng.randint(-1, 200) for a in row] for row in lo]
            self.check(lo, hi, start)

    def test_empty_ranges_and_n_1(self):
        lo = [[0, 5, -3], [7, 0, 1], [4, 0, 100], [1, 9973, 50]]
        empty = [[a - 1 for a in row] for row in lo]
        # runs from n = 1, through 2310 and up to the prime 9973
        for start in (1, 2308, 9970):
            self.check(lo, empty, start)
        self.check([[-5, 0, 1]], [[5, 10, 100]], 1)
        self.check([[], []], [[], []], 1)         # no columns
        self.check([[]] * 3, [[]] * 3, 2309)

    def test_primes_near_the_bound(self):
        primes = [p for p in range(9900, 10_001) if TABLES.spf[p] == p]
        for p in primes:
            self.check([[0, 1, p - 3, p // 2]], [[p, p - 1, p + 3, p + 20]], p)
        # the whole run 9900..10000, primes and composites
        lo = [[n - 3, n // 2] for n in range(9900, 10_001)]
        self.check(lo, [[a + 6, a + 20] for a, _ in lo], 9900)

    def test_every_n_with_five_primes(self):
        n = [m for m in range(1, 10_001) if TABLES.omega[m] == 5]
        assert n[:2] == [2310, 2730] and len(n) == 33
        rng = random.Random(23)
        for m in n:
            lo = [rng.randint(0, m) for _ in range(3)] + [0]
            hi = [a + rng.randint(-1, 300) for a in lo[:3]] + [m]
            self.check([lo], [hi], m)
        # omega 0..4 rows, which sum fewer terms, alone and in a run
        # with 2310 (omega 5)
        for m in (1, 2, 6, 30, 210):
            self.check([[1]], [[m]], m)
        self.check([[1]] * 21, [[m] for m in range(2300, 2321)], 2300)

    def test_ends_of_the_asserted_range(self):
        # every n with five primes, the most terms a row of DIVISORS sums
        n = [m for m in range(1, 10_001) if TABLES.omega[m] == 5]
        top = arith.COUNT_RANGE - 1
        ends = [(-top, top), (1 - top, -top), (top, top), (top, top - 1),
                (-top, -top), (1 - top, top - 7), (0, top), (-top, 0)]
        lo, hi = [[x for x, _ in ends]], [[y for _, y in ends]]
        for m in n:
            assert arith.coprime_counts(lo, hi, m, DIVISORS).tolist() == [
                [arith.coprime_count_range(x, y, m) for x, y in ends]]
        got = arith.coprime_counts(lo * 11, hi * 11, 2305, DIVISORS)
        assert got.tolist() == [
            [arith.coprime_count_range(x, y, m) for x, y in ends]
            for m in range(2305, 2316)]

    @pytest.mark.parametrize("lo, hi", [
        (-arith.COUNT_RANGE, 0), (0, arith.COUNT_RANGE),
        (-arith.COUNT_RANGE, -arith.COUNT_RANGE),
        (arith.COUNT_RANGE, arith.COUNT_RANGE),
    ])
    def test_refuses_just_outside_the_range(self, lo, hi):
        with pytest.raises(ValueError):
            arith.coprime_counts([[lo]], [[hi]], 2310, DIVISORS)

    # n lists the rows of the run, which the call names by its first
    @pytest.mark.parametrize("lo, hi, n", [
        ([[1]] * 3, [[5]] * 3, [TABLES.bound - 1, TABLES.bound,
                                TABLES.bound + 1]),   # past the table
        ([[1]], [[5]], [0]),
        ([[1, 5]], [[3, 3]], [7]),                    # lo > hi + 1
        ([[-2 ** 62]], [[5]], [7]),                   # far outside the range
        ([1, 2], [3, 4], [7, 8]),                     # 1-d ranges
        ([[1, 2]], [[3]], [7]),                       # shapes differ
    ])
    def test_refusals(self, lo, hi, n):
        with pytest.raises(ValueError):
            arith.coprime_counts(lo, hi, n[0], DIVISORS)


class TestRestrictedPowerSum:
    def test_examples(self):
        assert restricted_power_sum(2, 2) == 1
        assert restricted_power_sum(10, 2) == 10
        assert restricted_power_sum(7, 0) == 3

    def test_matches_vectorized_tables(self):
        s2 = arith.power_sum_tables(DIVISORS, 300)
        assert s2.dtype == np.int64 and len(s2) == 301
        for b in range(2, 301):
            assert restricted_power_sum(b, 2) == int(s2[b])

    def test_sieve_tables_equal_direct_scan(self):
        s2 = arith.power_sum_tables(DIVISORS, 5000)
        rng = random.Random(23)
        for b in list(range(2, 301)) + rng.sample(range(301, 5001), 200):
            assert restricted_power_sum(b, 2) == int(s2[b])

    @pytest.mark.parametrize("bmax", [2, 3, 30, 10_000])
    def test_table_read_equals_the_slice_loop(self, bmax):
        assert np.array_equal(arith.power_sum_tables(DIVISORS, bmax),
                              power_sum_slice_loop(bmax))

    def test_rejects_bmax_outside_the_table(self):
        for bmax in (DIVISORS.bound + 1, 1, 0):
            with pytest.raises(ValueError):
                arith.power_sum_tables(DIVISORS, bmax)

    def test_main_term_deviation_is_bounded(self):
        # |S_j(b) - phi(b) b^j / ((j+1) 2^(j+1))| / (2^omega(b) b^j / 2^j)
        worst = Fraction(0)
        for b in range(2, 1000):
            phi_b = int(TABLES.phi[b])
            two_om = 1 << int(TABLES.omega[b])
            for j in (0, 1, 2):
                s = restricted_power_sum(b, j)
                main = Fraction(phi_b * b ** j, (j + 1) * 2 ** (j + 1))
                scale = Fraction(two_om * b ** j, 2 ** j)
                worst = max(worst, abs(s - main) / scale)
        assert worst <= 4


class TestSums:
    def test_phi_sum(self):
        assert TABLES.phi_prefix[10] == 32
        assert TABLES.phi_prefix[1] == 1

    def test_two_omega_le_divcount_le_sqrt3n(self):
        for n in range(1, 10_001):
            d = int(TABLES.divcount[n])
            assert (1 << int(TABLES.omega[n])) <= d
            assert d * d <= 3 * n

    def test_phi_sum_ratio_converges(self):
        import math
        devs = [abs(int(TABLES.phi_prefix[T]) * math.pi ** 2 / (3 * T * T) - 1)
                for T in (100, 1000, 10_000)]
        assert devs[0] > devs[1] > devs[2]
