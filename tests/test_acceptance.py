"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Criterion 4 is known-red: the exact counts' relative deviations
oscillate around the main terms instead of decreasing strictly at the
prescribed heights (see notes on the asymptotics suite).
"""

import dataclasses
import importlib.util
import inspect
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from latsim import arith, census, classes, lattice, modular, verify


def report(criterion: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {criterion}" + (f": {detail}" if detail else ""))
    return ok


def assert_checks(criterion: str, checks) -> None:
    ok = True
    details = []
    for name, passed, detail in checks:
        ok = ok and passed
        if not passed:
            details.append(f"{name} ({detail})")
    assert report(criterion, ok, "; ".join(details) or "all checks"), details


def test_criterion_1_oracle_equivalence():
    checks = [c for c in verify.verify_counts(oracle_max_T=40)
              if c[0].startswith("count_fast")]
    assert_checks("1. count_fast == count_bruteforce for T in [1,40]", checks)


def test_binned_oracle_equals_bruteforce_at_every_height(monkeypatch):
    # one enumeration per set: one run of the class-block builder for each
    # set, the well-rounded set included, and no object stream
    streams, blocks = [], []
    enumerate_classes, class_blocks = census.enumerate_classes, \
        census._class_blocks

    def counted(set_id, T):
        streams.append((set_id, T))
        return enumerate_classes(set_id, T)

    def counted_blocks(set_id, T):
        blocks.append((set_id, T))
        return class_blocks(set_id, T)

    monkeypatch.setattr(census, "enumerate_classes", counted)
    monkeypatch.setattr(census, "_class_blocks", counted_blocks)
    prefixes = {set_id: verify._bruteforce_prefix_counts(set_id, 40)
                for set_id in census.ClassSetId}
    assert streams == []
    assert blocks == [(set_id, 40) for set_id in census.ClassSetId]
    for set_id, prefix in prefixes.items():
        assert len(prefix) == 41 and prefix[0] == 0
        for T in [*range(1, 26), 40]:
            assert prefix[T] == census.count_bruteforce(set_id, T), (set_id, T)


def test_criterion_1_reports_a_single_mismatch(monkeypatch):
    # the fast side below T = 40 is the count row of each T
    count_row = census._count_row

    def off_by_one(T, tables):
        row = count_row(T, tables)
        return dataclasses.replace(row, n2=row.n2 + 1) if T == 37 else row

    monkeypatch.setattr(census, "_count_row", off_by_one)
    checks = [c for c in verify.verify_counts(oracle_max_T=40)
              if c[0] == "count_fast == count_bruteforce"]
    assert len(checks) == 1 and not checks[0][1], checks
    assert "set=semistable T=37" in checks[0][2], checks


def test_criterion_1_reports_a_count_fast_fault_at_the_top_height(
        monkeypatch):
    count_fast = census.count_fast

    def off_by_one(set_id, T):
        n = count_fast(set_id, T)
        return n + 1 if (set_id, T) == (census.ClassSetId.ALL, 40) else n

    monkeypatch.setattr(census, "count_fast", off_by_one)
    checks = [c for c in verify.verify_counts(oracle_max_T=40)
              if c[0] == "count_fast == count_bruteforce"]
    assert len(checks) == 1 and not checks[0][1], checks
    assert "set=all T=40" in checks[0][2], checks


def test_criterion_1_refuses_an_empty_oracle_range():
    with pytest.raises(ValueError, match="oracle_max_T must be >= 1"):
        verify.verify_counts(oracle_max_T=0)


def test_criterion_1_keeps_the_bruteforce_cap():
    with pytest.raises(ValueError):
        verify.verify_counts(oracle_max_T=census.BRUTEFORCE_LIMIT + 1)


def test_criterion_2_golden_small_counts():
    checks = [c for c in verify.verify_counts(oracle_max_T=10)
              if c[0].startswith("golden")]
    assert_checks("2. golden counts N1(1), N1(2), N2(2), N3(10) - 1, N3(10)",
                  checks)


def test_counts_split_matches_totients(monkeypatch):
    name = "N1 - N2 = N3 (Phi(T) - 1) at T = 100, 200, 400"
    checks = [c for c in verify.verify_counts(oracle_max_T=5) if c[0] == name]
    assert len(checks) == 1 and checks[0][1], checks
    # one pair too many in the kernel's count P breaks the identity
    farey_count = census._farey_count

    def one_pair_too_many(T, tables):
        pairs, v = farey_count(T, tables)
        return pairs + 1, v

    monkeypatch.setattr(census, "_farey_count", one_pair_too_many)
    checks = [c for c in verify.verify_counts(oracle_max_T=5) if c[0] == name]
    assert len(checks) == 1 and not checks[0][1], checks


def test_criterion_3_asymptotic_constants():
    checks = [c for c in verify.verify_asymptotics()
              if "constant" in c[0] or "fraction" in c[0]]
    assert len(checks) == 3
    assert_checks("3. main-term constants and 1/13 semi-stable ratio", checks)


def test_criterion_3_reads_the_library_main_terms(monkeypatch):
    # doubling both leading terms keeps their 1/13 ratio, so only the
    # constant checks can see it
    main_terms = census.main_terms

    def doubled(T):
        n1, n2, n3 = main_terms(T)
        return 2 * n1, 2 * n2, n3

    monkeypatch.setattr(census, "main_terms", doubled)
    checks = {name: passed for name, passed, _ in verify.verify_asymptotics()
              if "constant" in name or "fraction" in name}
    assert checks == {"constant 39/(8 pi^4) = 0.05004666349...": False,
                      "constant 3/(8 pi^4) = 0.00384974334...": False,
                      "semi-stable fraction = 1/13 (~7.7%)": True}


def test_criterion_4_asymptotic_convergence():
    checks = [c for c in verify.verify_asymptotics()
              if "decreases" in c[0] or "envelope" in c[0]]
    assert len(checks) == 4
    assert_checks("4. deviations strictly decrease along T=50,100,200,400 "
                  "with log(T)/T envelope", checks)


def test_criterion_5_euler_function_lemmas():
    checks = verify.verify_euler()
    assert_checks("5. restricted-totient bounds, divisor bounds, "
                  "power-sum constant <= 4", checks)
    # the sampled (n, alpha, beta) triples are pinned by the seed
    assert checks[0][2] == "worst excess -0.125"


@pytest.mark.parametrize("seed, detail", [
    (1, "worst excess -0.153846"),
    (5, "worst excess -0.0833333"),
])
def test_euler_lemma_detail_is_pinned_at_more_seeds(seed, detail):
    assert verify.verify_euler(seed)[0][1:] == (True, detail)


def euler_draws(seed):
    """(n, den, lo, hi) per block of a verify_euler run, as it draws them."""
    rng = random.Random(seed)
    for start in range(2, 10_001, verify.EULER_BLOCK):
        n = np.arange(start, min(start + verify.EULER_BLOCK, 10_001))
        yield (n, *verify._euler_intervals(rng, len(n)))


def test_euler_draws_are_intervals_of_their_ranges():
    for _, den, lo, hi in euler_draws(verify.DEFAULT_SEED):
        assert den.shape == lo.shape == hi.shape == (len(den), 20)
        assert ((2 <= den) & (den <= 64)).all()
        assert ((0 <= lo) & (lo < hi) & (hi <= den)).all()


def test_euler_draws_reach_every_small_interval():
    seen = set()
    for _, den, lo, hi in euler_draws(verify.DEFAULT_SEED):
        small = den <= 8
        seen.update(zip(den[small].tolist(), lo[small].tolist(),
                        hi[small].tolist()))
    assert seen == {(den, lo, hi) for den in range(2, 9)
                    for hi in range(1, den + 1) for lo in range(hi)}


def test_euler_draws_are_pinned_by_the_seed():
    first, second = (verify._euler_intervals(random.Random(7), 300)
                     for _ in range(2))
    for x, y in zip(first, second):
        assert x.dtype == y.dtype == np.int64
        assert np.array_equal(x, y)
    den, lo, hi = (x[0].tolist() for x in first)
    assert den == [61, 26, 5, 53, 7, 38, 59, 15, 7, 28,
                   17, 36, 5, 37, 61, 41, 38, 5, 38, 5]
    assert lo == [27, 6, 0, 24, 5, 2, 23, 8, 1, 4,
                  3, 11, 0, 3, 28, 33, 12, 3, 28, 0]
    assert hi == [52, 25, 1, 46, 7, 33, 33, 11, 5, 17,
                  7, 31, 5, 30, 51, 35, 33, 5, 36, 2]


@pytest.mark.parametrize("rows", [0, 1, 256, 300])
def test_euler_draws_read_one_word_per_interval(rows):
    rng, twin = random.Random(7), random.Random(7)
    verify._euler_intervals(rng, rows)
    twin.randbytes(160 * rows)
    assert rng.getstate() == twin.getstate()


def test_euler_draws_spread_den_evenly():
    counts = np.zeros(65, dtype=np.int64)
    for _, den, _, _ in euler_draws(verify.DEFAULT_SEED):
        counts += np.bincount(den.ravel(), minlength=65)
    assert counts[:2].sum() == 0
    share = counts[2:] / counts.sum()
    assert (np.abs(share * 63 - 1) <= 0.1).all()


def integer_ranges_oracle(n, den, i, j):
    """The int64 floor-divides that the float floor pass replaced."""
    return i * n // den + 1, -(-j * n // den) - 1


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 1, 5])
def test_euler_ranges_equal_the_int64_floor_divides(seed):
    for n, den, i, j in euler_draws(seed):
        got = verify._integer_ranges(n[:, None], den, i, j)
        want = integer_ranges_oracle(n[:, None], den, i, j)
        for x, y in zip(got, want):
            assert np.array_equal(x, y)


def test_euler_ranges_at_the_range_end():
    ends = np.array([0, 1, 63, 64], dtype=np.int64)
    i, j = (x.ravel() for x in np.meshgrid(ends, ends))
    n, den = np.full_like(i, 10_000), np.full_like(i, 64)
    lo, hi = verify._integer_ranges(n, den, i, j)
    want_lo, want_hi = integer_ranges_oracle(n, den, i, j)
    assert np.array_equal(lo, want_lo) and np.array_equal(hi, want_hi)


def euler_lemma_scalar(seed):
    """The restricted-totient check with one phi_restricted per interval."""
    tables = arith.build_sieve(10_000)
    worst, ok = -math.inf, True
    for ns, dens, los, his in euler_draws(seed):
        for n, den_row, lo_row, hi_row in zip(ns.tolist(), dens.tolist(),
                                              los.tolist(), his.tolist()):
            phi_n = int(tables.phi[n])
            two_om = 1 << int(tables.omega[n])
            for den, lo, hi in zip(den_row, lo_row, hi_row):
                got = arith.phi_restricted(Fraction(lo, den),
                                           Fraction(hi, den), n)
                excess = abs(got * den - (hi - lo) * phi_n) - two_om * den
                worst = max(worst, excess / den)
                ok = ok and excess <= 0
    return ok, f"worst excess {worst:g}"


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 1])
def test_euler_lemma_equals_the_scalar_loop(seed):
    _, ok, detail = verify.verify_euler(seed)[0]
    assert (ok, detail) == euler_lemma_scalar(seed)


def test_verify_suites_leave_numpy_random_unloaded():
    # importing numpy.random alone adds about 6.5 MB to a run's peak RSS
    code = ("import contextlib, io, sys\n"
            "from latsim import verify\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for name in verify.SUITES:\n"
            "        verify.run_suite(name)\n"
            "print(sorted(m for m in sys.modules if m == 'numpy.random' "
            "or m.startswith('numpy.random.')))")
    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_euler_lemma_fails_on_zero_counts(monkeypatch):
    monkeypatch.setattr(arith, "coprime_counts",
                        lambda lo, hi, n, divisors: np.zeros_like(lo))
    name, ok, _ = verify.verify_euler()[0]
    assert name.startswith("|phi_ab(n)") and not ok


def test_power_sum_deviation_equals_the_fraction_loop():
    tables = arith.build_sieve(10_000)
    divisors = arith.squarefree_divisor_table(tables)
    s2 = arith.power_sum_tables(divisors, 5000)
    oracle = 0.0
    for b in range(2, 5001):
        phi_b = int(tables.phi[b])
        two_om = 1 << int(tables.omega[b])
        main = Fraction(phi_b * b * b, 24)
        dev = abs(Fraction(int(s2[b])) - main) / Fraction(two_om * b * b, 4)
        oracle = max(oracle, float(dev))
    assert verify._worst_power_sum_deviation(tables, divisors, 5000) == oracle


def test_power_sum_deviation_beyond_2_53_raises(monkeypatch):
    tables = arith.build_sieve(100)
    divisors = arith.squarefree_divisor_table(tables)

    def oversized(divisors, bmax):
        s2 = np.zeros(bmax + 1, dtype=np.int64)
        s2[bmax] = 2 ** 53
        return s2

    monkeypatch.setattr(arith, "power_sum_tables", oversized)
    with pytest.raises(ArithmeticError):
        verify._worst_power_sum_deviation(tables, divisors, 100)


def test_euler_builds_one_sieve(monkeypatch):
    bounds = []
    build_sieve = arith.build_sieve

    def counted(bound):
        bounds.append(bound)
        return build_sieve(bound)

    monkeypatch.setattr(arith, "build_sieve", counted)
    verify.verify_euler()
    assert bounds == [10_000]


def test_criterion_6_haar_quadrature():
    assert_checks("6. Haar volumes match pi/6 and 0.04507034144",
                  verify.verify_haar())


def test_criterion_7_geometry_consistency():
    assert_checks("7. classify and canonical_tau agree with exact geometry, "
                  "height <= 20", verify.verify_geometry(quadruple_height=20))


def geometry_details_per_object(quadruple_height):
    """The two geometry checks as a loop over TauQuadruple objects and their
    exact lattices, each naming the last class that fails it: the oracle of
    verify_geometry's column checks."""
    kinds = classes.ClassKind
    bad_kind = bad_tau = None
    for q in census.enumerate_classes(census.ClassSetId.ALL, quadruple_height):
        tau = q.tau
        form = lattice.tau_gram(tau)
        geo_kind = (kinds.WELL_ROUNDED if lattice.is_well_rounded(form)
                    else kinds.SEMISTABLE_NOT_WR if lattice.is_semistable(form)
                    else kinds.NOT_SEMISTABLE)
        if classes.classify(q) is not geo_kind:
            bad_kind = q
        if lattice.canonical_tau(form) != tau:
            bad_tau = q
    return ["exhaustive" if bad is None else f"mismatch at {bad}"
            for bad in (bad_kind, bad_tau)]


def test_geometry_columns_equal_the_per_object_loop():
    checks = verify.verify_geometry(quadruple_height=20)
    assert [detail for _, _, detail in checks] == \
        geometry_details_per_object(20) == ["exhaustive", "exhaustive"]
    assert all(passed for _, passed, _ in checks)


def test_geometry_kind_violation_names_its_own_class(monkeypatch):
    # the stable rule in place of the semi-stable one turns every class with
    # c = d = 1 but (0, 1, 1, 1) into a mismatch of the kind check only; both
    # paths must report the last of them in stream order
    monkeypatch.setattr(lattice, "is_semistable_reduced",
                        lambda a, b, c: a * a > a * c - b * b)
    (_, kind_ok, kind_detail), (_, tau_ok, tau_detail) = \
        verify.verify_geometry(quadruple_height=12)
    assert not kind_ok and tau_ok
    assert [kind_detail, tau_detail] == geometry_details_per_object(12)
    assert kind_detail.startswith("mismatch at TauQuadruple(a=")
    assert kind_detail.endswith("c=1, d=1)")
    assert tau_detail == "exhaustive"
    assert "np." not in kind_detail


def test_geometry_tau_check_fails_on_a_non_reduced_row():
    # (0, 1, 1, 2) lies below the unit circle: its form (2, 0, 1) has
    # A > C, though B/A = a/b and (AC - B^2)/A^2 = c/d still hold
    a, b, c, d = (np.array(x, dtype=np.int64)
                  for x in ([1, 0, 0], [2, 1, 1], [3, 1, 2], [4, 2, 1]))
    kind_ok, tau_ok = verify._geometry_rows(a, b, c, d)
    assert kind_ok.tolist() == [True, True, True]
    assert tau_ok.tolist() == [True, False, True]


def test_geometry_height_beyond_int64_range_builds_no_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(verify, "_class_columns", no_table)
    monkeypatch.setattr(census, "_class_blocks", no_table)
    with pytest.raises(ValueError, match="int64"):
        verify.verify_geometry(quadruple_height=lattice.MAX_COLUMN_HEIGHT + 1)


def test_criterion_8_reduction_invariance():
    assert_checks("8. canonical_tau(Lambda_g(tau)) = tau, 1000 random words",
                  verify.verify_reduction_invariance(n_points=1000))


def fraction_tau_words(seed, n_points):
    """verify_reduction_invariance's draws as Fractions and matrix
    products, from the rng calls in the same order."""
    rng = random.Random(seed)
    letters = (lattice.UnimodularMatrix.inversion(),
               lattice.UnimodularMatrix.translation(),
               lattice.UnimodularMatrix.translation(-1))
    for _ in range(n_points):
        den = rng.randint(1, 12)
        re = Fraction(rng.randint(0, den), 2 * den)
        im_sq = 1 - re * re + Fraction(rng.randint(0, 50),
                                       rng.randint(1, 10))
        g = lattice.UnimodularMatrix.identity()
        for _ in range(rng.randint(0, 10)):
            g = rng.choice(letters) @ g
        yield lattice.CanonicalTau(re, im_sq), g
    yield rng.getstate()


@pytest.mark.parametrize("seed", [verify.DEFAULT_SEED, 1, 5])
def test_integer_tau_words_equal_the_fraction_draw(seed):
    rng = random.Random(seed)
    got = list(verify._random_tau_words(rng, 1000)) + [rng.getstate()]
    want = list(fraction_tau_words(seed, 1000))
    assert got == want
    assert [tau._ints for tau, _ in got[:-1]] == \
        [tau._ints for tau, _ in want[:-1]]


def test_criterion_9_j_function():
    assert_checks("9. j special values, symmetries, boundary realness, arc "
                  "range/monotonicity, j-based classification",
                  verify.verify_modular())


def test_modular_suite_evaluates_j_once_per_random_point(monkeypatch):
    calls = 0
    j_invariant = modular.j_invariant

    def counted(tau):
        nonlocal calls
        calls += 1
        return j_invariant(tau)

    monkeypatch.setattr(modular, "j_invariant", counted)
    verify.verify_modular()
    # j(i), j(rho); per random point j(tau), j(tau + 1), j(-1/tau) and
    # j(-conj tau); the 300 boundary samples and 5 interior controls; the
    # 100 arc points
    assert calls == 2 + 4 * 100 + 305 + 100


def test_criterion_10_height_bounds():
    assert_checks("10. Weil-height bounds at quadruple height <= 50 and "
                  "WR pairs b <= 200",
                  verify.verify_heights(quadruple_height=50, wr_bmax=200))


def heights_detail_per_object(quadruple_height):
    """The bound-against-ceiling check as a loop over TauQuadruple objects,
    kept as the oracle of verify_heights' column check."""
    ok, bad = True, None
    for q in census.enumerate_classes(census.ClassSetId.ALL, quadruple_height):
        if classes.weil_height_bound(q) > classes.weil_height_ceiling(q) + 1e-9:
            ok, bad = False, q
    return "exhaustive" if ok else f"violated at {bad}"


def test_height_columns_equal_per_object_bounds_bit_for_bit():
    # the integer C' that verify_heights reads, one block at a time, is the
    # square of each per-object bound
    for a, b, c, d, _ in census._class_blocks(census.ClassSetId.ALL, 50):
        want_bound = np.array([classes.weil_height_bound(
            classes.TauQuadruple(*row))
            for row in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist())])
        got_bound = np.sqrt(lattice.tau_gram_entries(a, b, c, d)[2])
        assert np.array_equal(got_bound.view(np.int64),
                              want_bound.view(np.int64)), (a[0], b[0])


def inflated_at_height(height):
    """lattice.tau_gram_entries with 5 m^3 added to C' for the quadruples
    (p, q, r, s) of height m = max(q, r, s) = height, which pushes each of
    them over its ceiling on the integer and the float path alike."""
    entries = lattice.tau_gram_entries

    def inflated(p, q, r, s):
        big_a, big_b, big_c = entries(p, q, r, s)
        m = np.maximum(np.maximum(r, s), q)
        return big_a, big_b, big_c + (m == height) * 5 * m ** 3

    return inflated


def test_height_violation_names_the_same_class(monkeypatch):
    # every class of height 37 is pushed over its ceiling; both paths must
    # report the last of them in stream order
    name = "weil_height_bound <= (sqrt5/2) m^(3/2), height <= 40"
    monkeypatch.setattr(lattice, "tau_gram_entries", inflated_at_height(37))
    checks = [c for c in verify.verify_heights(quadruple_height=40, wr_bmax=5)
              if c[0] == name]
    assert len(checks) == 1 and not checks[0][1], checks
    detail = checks[0][2]
    assert detail == heights_detail_per_object(40)
    assert detail.startswith("violated at TauQuadruple(a=")
    assert "np." not in detail


def test_wr_height_check_fails_on_a_wrong_bound(monkeypatch):
    # C' - 1 keeps every class under its ceiling but no WR pair at b^4
    entries = lattice.tau_gram_entries

    def lowered(p, q, r, s):
        big_a, big_b, big_c = entries(p, q, r, s)
        return big_a, big_b, big_c - 1

    monkeypatch.setattr(lattice, "tau_gram_entries", lowered)
    checks = verify.verify_heights(quadruple_height=5, wr_bmax=20)
    assert [passed for _, passed, _ in checks] == [True, False]
    assert checks[1][2] == "mismatch at WrPair(a=0, b=1)"


def test_heights_beyond_int64_range_build_no_table(monkeypatch):
    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(census, "_class_blocks", no_table)
    monkeypatch.setattr(census, "_coprime_pairs", no_table)
    monkeypatch.setattr(census, "build_sieve", no_table)
    for heights in ((lattice.MAX_COLUMN_HEIGHT + 1, 200), (50, 1 << 15)):
        with pytest.raises(ValueError, match="int64"):
            verify.verify_heights(*heights)


def load_bench_workloads(monkeypatch):
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


PINNED_CHECKS = {
    "counts": [
        "count_fast == count_bruteforce",
        "golden N1(1) = 1", "golden N1(2) = 4", "golden N2(2) = 2",
        "golden N3(10) - 1 = 16", "golden N3(10) = 17",
        "N1 - N2 = N3 (Phi(T) - 1) at T = 100, 200, 400"],
    "asymptotics": [
        "constant 39/(8 pi^4) = 0.05004666349...",
        "constant 3/(8 pi^4) = 0.00384974334...",
        "semi-stable fraction = 1/13 (~7.7%)",
        "N1 relative deviation strictly decreases",
        "N2 relative deviation strictly decreases",
        "N1 deviation within log(T)/T envelope",
        "N2 deviation within log(T)/T envelope"],
    "euler": [
        "|phi_ab(n) - (b-a)phi(n)| <= 2^omega(n), n <= 10000",
        "2^omega(n) <= d(n) <= sqrt(3n), n <= 10000",
        "power-sum S2(b) error constant <= 4, b <= 5000",
        "phi_sum(T) pi^2/(3T^2) -> 1 along T = 1e2, 1e3, 1e4"],
    "haar": [
        "vol(F) = pi/6 within 1e-8",
        "semi-stable volume = pi/6 - 1/2 within 1e-8",
        "semi-stable fraction = 0.04507034144 within 1e-6"],
    "modular": [
        "j(i) = 1728 within 1e-9", "j(rho) = 0 within 1e-9",
        "j_columns within est_error of the exact j at the 13 "
        "class-number-one classes",
        "periodicity j(tau+1) = j(tau) within 1e-8 on 100 points",
        "inversion j(-1/tau) = j(tau) within 1e-8 on 100 points",
        "conjugation j(-conj(tau)) = conj(j(tau)) within 1e-8",
        "boundary realness: max |Im j| < 1e-8 over 300 samples",
        "interior control |Im j| > 1e-3",
        "normalized j on the WR arc lies in [0,1]",
        "normalized j strictly monotone along the arc",
        "classify_by_j agrees with classify, height <= 20"],
    "geometry": [
        "classify matches geometric predicates, height <= 20",
        "canonical_tau(Lambda_tau(q)) = (a/b, c/d), height <= 20"],
    "reduction_invariance": [
        "canonical_tau(Lambda_g(tau)) = tau on 1000 random words"],
    "heights": [
        "weil_height_bound <= (sqrt5/2) m^(3/2), height <= 50",
        "weil_height_bound of the WR quadruple = (WR height bound)^2 for "
        "all pairs with b <= 200"],
}


# Each suite runs one configuration: only the seed, and the sizes that the
# benchmark's verify workload passes, are parameters.
PINNED_PARAMETERS = {
    "counts": ["oracle_max_T"],
    "asymptotics": [],
    "euler": ["seed"],
    "haar": [],
    "modular": ["seed"],
    "geometry": ["quadruple_height"],
    "reduction_invariance": ["n_points", "seed"],
    "heights": ["quadruple_height", "wr_bmax"],
}


def test_suite_parameters_are_pinned():
    assert {name: list(inspect.signature(suite).parameters)
            for name, suite in verify.SUITES.items()} == PINNED_PARAMETERS
    assert list(inspect.signature(
        modular.boundary_realness_report).parameters) == []


def test_suite_check_names_are_pinned(monkeypatch):
    # The benchmark's verify workload counts one operation per check, so a
    # dropped, merged or newly failing check changes its failed share.
    workloads = load_bench_workloads(monkeypatch)
    failing = []
    for suite, call in workloads.verify_calls(verify.DEFAULT_SEED):
        checks = call()
        assert [name for name, _, _ in checks] == PINNED_CHECKS[suite], suite
        failing += [name for name, passed, _ in checks if not passed]
    assert sum(map(len, PINNED_CHECKS.values())) == 37
    assert failing == ["N1 relative deviation strictly decreases",
                       "N2 relative deviation strictly decreases",
                       "N1 deviation within log(T)/T envelope"]
