"""Self-verification suites: each check returns (name, passed, detail).

Each suite runs one fixed configuration; a seed is all it takes from the CLI.
- counts:       fast counter vs enumeration oracle at every T <= 40 (one
                enumeration per set, binned by height; the fast side read
                off the n1, n2, n3 of one census_report over T = 1..40, one
                sieve and one count row per T, and off count_fast at
                T = 40), golden small counts, N1 - N2 = N3 (Phi(T) - 1)
                against the totients, T <= 400
- asymptotics:  main-term constants and convergence of relative deviations
                along T = 50, 100, 200, 400
- euler:        totient/divisor lemmas (n <= 10^4; 20 intervals per n: a
                uniform den in [2, 64], then a uniform pair 0 <= lo < hi <=
                den; the intervals of 256 n at a time drawn from one block
                of the seeded stream's bytes, one 64-bit word per interval
                read without division, their integer ranges taken in one
                float64 floor pass and counted in one arith.coprime_counts
                call per run of n, reading each n's signed squarefree
                divisors off one arith.squarefree_divisor_table built per
                run) and the restricted power-sum constant
                (b <= 5000, arith.power_sum_tables reading the same table:
                one sieve and one divisor table per run)
- haar:         hyperbolic-volume quadrature against closed forms
- modular:      j special values, j_columns against the exact integer j of
                the 13 classes of class number one, symmetries on 100
                random points (j at each point evaluated once and shared by
                the three symmetry checks), boundary realness (100 samples per
                component), and the j verdicts of every class of height
                <= 20 against classify's, taken as columns:
                modular.classify_by_j_columns against classes.is_wr_entries
- geometry:     parametrized classification vs exact geometric predicates,
                height <= 20, over int64 columns (a, b, c, d): the kind from
                the WR and semi-stable rules on lattice.class_form_columns'
                primitive form against classes.kind_entries, and its
                canonical tau against (a/b, c/d) by cross-multiplication
- reduction_invariance: canonical tau recovered after 1000 random modular
                words of length <= 10, tau and the word drawn in integers
- heights:      Weil-height bounds against their ceilings, height <= 50, and
                on the WR pairs with b <= 200, in exact integers, one
                census._class_blocks block of int64 columns (a group of
                pairs for the quadruples) at a time: with C' the last entry
                of lattice.tau_gram_entries and m the height column,
                4 C' <= 5 m^3 on the quadruples, and C' = b^4 on the WR
                blocks' quadruples (a, b, b^2 - a^2, b^2)
"""

from __future__ import annotations

import cmath
import inspect
import math
import random
from itertools import accumulate
from typing import Callable, Iterator

import numpy as np

from . import arith, census, classes, lattice, modular
from .census import ClassSetId

Check = tuple[str, bool, str]

DEFAULT_SEED = 20260823

# verify_euler's bound on |S2(b) - phi(b) b^2/24| / (2^omega(b) b^2/4)
POWER_SUM_CONSTANT = 4.0
# verify_euler draws and counts the intervals of this many n at a time; its
# process then peaks at about 33.6 MB (ru_maxrss), against 34.2 MB with 512 n
# per block, 36.4 MB with 1,000 and 66.5 MB with one block over all n
EULER_BLOCK = 256
# upper end of Im tau for verify_modular's random points
RANDOM_IM_HI = 2.0
# The 13 classes of class number one and their exact j (Cox, Primes of the
# Form x^2 + ny^2, section 12): tau = i*sqrt(n) or (1 + i*sqrt(D))/2. Every
# j here is a double exactly.
CLASS_NUMBER_ONE_J = {
    classes.TauQuadruple(1, 2, 3, 4): 0,
    classes.TauQuadruple(0, 1, 1, 1): 1728,
    classes.TauQuadruple(1, 2, 7, 4): -15 ** 3,
    classes.TauQuadruple(0, 1, 2, 1): 20 ** 3,
    classes.TauQuadruple(1, 2, 11, 4): -32 ** 3,
    classes.TauQuadruple(0, 1, 3, 1): 2 * 30 ** 3,
    classes.TauQuadruple(0, 1, 4, 1): 66 ** 3,
    classes.TauQuadruple(1, 2, 19, 4): -96 ** 3,
    classes.TauQuadruple(1, 2, 27, 4): -3 * 160 ** 3,
    classes.TauQuadruple(0, 1, 7, 1): 255 ** 3,
    classes.TauQuadruple(1, 2, 43, 4): -960 ** 3,
    classes.TauQuadruple(1, 2, 67, 4): -5280 ** 3,
    classes.TauQuadruple(1, 2, 163, 4): -640320 ** 3,
}


def _bruteforce_prefix_counts(set_id: ClassSetId, max_T: int) -> list[int]:
    """count_bruteforce(set_id, T) for every T <= max_T from one enumeration.

    Each class of height <= max_T lands in the bin of its own height, so the
    running sums of the bins are the counts at every T. The classes are
    binned by the height column of census._class_blocks, one block at a
    time.
    """
    if max_T > census.BRUTEFORCE_LIMIT:
        raise ValueError(
            f"brute-force counting capped at T={census.BRUTEFORCE_LIMIT}")
    bins = np.zeros(max_T + 1, dtype=np.int64)
    for *_, height in census._class_blocks(set_id, max_T):
        bins += np.bincount(height, minlength=max_T + 1)
    return list(accumulate(bins.tolist()))


def verify_counts(oracle_max_T: int = 40) -> list[Check]:
    if oracle_max_T < 1:
        raise ValueError(f"oracle_max_T must be >= 1, got {oracle_max_T}")
    checks: list[Check] = []
    brute_at = {set_id: _bruteforce_prefix_counts(set_id, oracle_max_T)
                for set_id in ClassSetId}
    # the fast side at every T from one sieve and one count row per T, and
    # count_fast itself at the top height
    fast_at = [(r.T, set_id, n)
               for r in census.census_report(range(1, oracle_max_T + 1))
               for set_id, n in zip(ClassSetId, (r.n1, r.n2, r.n3))]
    fast_at += [(oracle_max_T, s, census.count_fast(s, oracle_max_T))
                for s in ClassSetId]

    worst = None
    for T, set_id, fast in fast_at:
        brute = brute_at[set_id][T]
        if fast != brute:
            worst = (set_id.value, T, fast, brute)
    ok = worst is None
    detail = ("all T in [1,%d], all sets" % oracle_max_T if ok
              else "mismatch set=%s T=%d fast=%d brute=%d" % worst)
    checks.append(("count_fast == count_bruteforce", ok, detail))

    golden = [
        ("N1(1)", census.count_fast(ClassSetId.ALL, 1), 1),
        ("N1(2)", census.count_fast(ClassSetId.ALL, 2), 4),
        ("N2(2)", census.count_fast(ClassSetId.SEMISTABLE, 2), 2),
        ("N3(10) - 1",
         census.count_fast(ClassSetId.WELL_ROUNDED, 10) - 1, 16),
        ("N3(10)", census.count_fast(ClassSetId.WELL_ROUNDED, 10), 17),
    ]
    for name, got, want in golden:
        checks.append((f"golden {name} = {want}", got == want, f"got {got}"))

    # the kernel's pair count P against N3 from the totients; at T <= 400 the
    # kernel's arrays stay below the peak memory of the other suites
    split = [(r.n1 - r.n2, r.n3 * (r.phi - 1))
             for r in census.census_report((100, 200, 400))]
    checks.append(("N1 - N2 = N3 (Phi(T) - 1) at T = 100, 200, 400",
                   all(x == y for x, y in split),
                   "; ".join(f"{x} vs {y}" for x, y in split)))
    return checks


def verify_asymptotics() -> list[Check]:
    checks: list[Check] = []
    c1, c2, _ = census.main_terms(1)

    def truncated(x: float) -> str:
        # the reference decimals are truncated ("0.05004666349..."), not rounded
        return f"0.{math.floor(x * 1e11):011d}"

    checks.append(("constant 39/(8 pi^4) = 0.05004666349...",
                   truncated(c1) == "0.05004666349", truncated(c1)))
    checks.append(("constant 3/(8 pi^4) = 0.00384974334...",
                   truncated(c2) == "0.00384974334", truncated(c2)))
    ratio = census.main_terms(10)[1] / census.main_terms(10)[0]
    checks.append(("semi-stable fraction = 1/13 (~7.7%)",
                   abs(ratio - 1 / 13) < 1e-15, f"{ratio:.10f}"))

    reports = census.census_report((50, 100, 200, 400))
    for devs, label in ((tuple(r.rel_dev1 for r in reports), "N1"),
                        (tuple(r.rel_dev2 for r in reports), "N2")):
        decreasing = all(x > y for x, y in zip(devs, devs[1:]))
        checks.append((f"{label} relative deviation strictly decreases",
                       decreasing,
                       " -> ".join(f"{d:.5f}" for d in devs)))
    # O(log T / T) envelope between T=100 and T=400
    _, r100, _, r400 = reports
    envelope = (math.log(400) / 400) / (math.log(100) / 100) * 1.5
    for label, dev100, dev400 in (("N1", r100.rel_dev1, r400.rel_dev1),
                                  ("N2", r100.rel_dev2, r400.rel_dev2)):
        ok = dev400 / dev100 <= envelope
        checks.append((f"{label} deviation within log(T)/T envelope", ok,
                       f"ratio {dev400 / dev100:.4f} <= {envelope:.4f}"))
    return checks


def _euler_intervals(rng: random.Random,
                     rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """20 intervals (lo/den, hi/den) per row, as int64 arrays den, lo, hi of
    shape (rows, 20): den uniform in [2, 64], then lo < hi a uniform pair of
    [0, den].

    Each interval reads one little-endian 64-bit word of
    rng.randbytes(160 * rows). Its top 53 bits v give the fraction v / 2^53
    in [0, 1), read digit by digit without division: 63 v =
    (den - 2) 2^53 + r gives den, and the top 42 bits s of r give the pair's
    index p = floor(s N / 2^42) among the N = den (den + 1) / 2 pairs,
    listed by hi, then lo: p = hi (hi - 1) / 2 + lo. Every product stays
    below 2^59.

    Bias: one (den, p) is drawn when s lies in [a, b), with
    a = ceil(p 2^42 / N), b = ceil((p + 1) 2^42 / N), so b - a is within 1 of
    2^42 / N. That is when 63 v lies in [(den - 2) 2^53 + a 2^11,
    (den - 2) 2^53 + b 2^11), a range of (b - a) 2^11 / 63 values of v, to
    within one. Over the 2^53 equally likely v the interval's probability
    is within 2^-42 / 63 + 2^-53 < 2^-47 of the exact 1 / (63 N), and each
    den's within 2^-53 of 1/63: the bias is below 2^-40.
    """
    v = np.frombuffer(rng.randbytes(160 * rows), dtype="<u8").reshape(rows, 20)
    x = (v >> 11).view(np.int64) * 63
    den = (x >> 53) + 2
    p = (x & ((1 << 53) - 1)) >> 11
    p *= den * (den + 1) >> 1
    p >>= 42
    # hi = floor((1 + sqrt(8 p + 1)) / 2): sqrt is correctly rounded, so the
    # floor of sqrt(m) is exact for every integer m < 2^52
    hi = (np.sqrt(8 * p + 1).astype(np.int64) + 1) >> 1
    return den, p - (hi * (hi - 1) >> 1), hi


def _integer_ranges(n: np.ndarray, den: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ends floor(i n / den) + 1 and ceil(j n / den) - 1 of the integers
    in the open interval (i n / den, j n / den), as float64 arrays from one
    floor pass.

    Exact as in arith.coprime_counts while |i n|, |j n| < 2^53: each product
    is an exact double, and floor and ceil of its rounded quotient by den
    equal those of the rational. verify_euler's products are at most
    64 * 10^4.
    """
    lo = np.floor(i * n / den)
    lo += 1
    hi = np.ceil(j * n / den)
    hi -= 1
    return lo, hi


def _worst_power_sum_deviation(tables: arith.SieveTables,
                               divisors: arith.SquarefreeDivisors,
                               bmax: int) -> float:
    """max over b = 2..bmax of |S2(b) - phi(b) b^2/24| / (2^omega(b) b^2/4),
    as |24 S2 - phi b^2| / (6 2^omega b^2): with both int64 sides below
    2^53, each float quotient is the correctly rounded rational. Raises
    ArithmeticError if either side is not."""
    s2 = arith.power_sum_tables(divisors, bmax)
    b_sq = np.arange(2, bmax + 1, dtype=np.int64) ** 2
    num = np.abs(24 * s2[2:] - tables.phi[2:bmax + 1] * b_sq)
    den = 6 * (1 << tables.omega[2:bmax + 1].astype(np.int64)) * b_sq
    if num.max() >= 2 ** 53 or den.max() >= 2 ** 53:
        raise ArithmeticError("power-sum deviation sides reach 2^53")
    return float((num / den).max())


def verify_euler(seed: int = DEFAULT_SEED) -> list[Check]:
    checks: list[Check] = []
    nmax, bmax = 10_000, 5_000
    tables = arith.build_sieve(nmax)
    divisors = arith.squarefree_divisor_table(tables)
    rng = random.Random(seed)

    worst_excess = -math.inf
    for start in range(2, nmax + 1, EULER_BLOCK):
        n = np.arange(start, min(start + EULER_BLOCK, nmax + 1))
        den, i, j = _euler_intervals(rng, len(n))
        col = n[:, None]
        # phi_restricted(i/den, j/den, n) counts the interval's integers
        got = arith.coprime_counts(*_integer_ranges(col, den, i, j), start,
                                   divisors)
        # |got - (j - i)/den * phi(n)| - 2^omega(n), scaled by den
        excess = (np.abs(got * den - (j - i) * tables.phi[col])
                  - (1 << tables.omega[col].astype(np.int64)) * den)
        worst_excess = max(worst_excess, float((excess / den).max()))
    checks.append(("|phi_ab(n) - (b-a)phi(n)| <= 2^omega(n), n <= %d" % nmax,
                   worst_excess <= 0, f"worst excess {worst_excess:g}"))

    om = tables.omega[1:nmax + 1].astype(np.int64)
    dv = tables.divcount[1:nmax + 1].astype(np.int64)
    n_arr = np.arange(1, nmax + 1, dtype=np.float64)
    lower_ok = bool(((np.int64(1) << om) <= dv).all())
    upper_ok = bool((dv <= np.sqrt(3.0 * n_arr)).all())
    checks.append((f"2^omega(n) <= d(n) <= sqrt(3n), n <= {nmax}",
                   lower_ok and upper_ok,
                   f"lower {lower_ok}, upper {upper_ok}"))

    worst = _worst_power_sum_deviation(tables, divisors, bmax)
    checks.append((f"power-sum S2(b) error constant <= "
                   f"{POWER_SUM_CONSTANT:g}, b <= {bmax}",
                   worst <= POWER_SUM_CONSTANT,
                   f"measured max {worst:.6f}"))

    devs = []
    for T in (100, 1000, 10_000):
        devs.append(abs(int(tables.phi_prefix[T]) * math.pi ** 2
                        / (3 * T * T) - 1))
    checks.append(("phi_sum(T) pi^2/(3T^2) -> 1 along T = 1e2, 1e3, 1e4",
                   devs[0] > devs[1] > devs[2],
                   " -> ".join(f"{d:.5f}" for d in devs)))
    return checks


def verify_haar() -> list[Check]:
    vol_f, vol_ss, fraction = census.haar_volumes()
    return [
        ("vol(F) = pi/6 within 1e-8",
         abs(vol_f - math.pi / 6) < 1e-8, f"{vol_f:.12f}"),
        ("semi-stable volume = pi/6 - 1/2 within 1e-8",
         abs(vol_ss - (math.pi / 6 - 0.5)) < 1e-8, f"{vol_ss:.12f}"),
        ("semi-stable fraction = 0.04507034144 within 1e-6",
         abs(fraction - 0.04507034144) < 1e-6, f"{fraction:.12f}"),
    ]


def _random_upper_points(rng: random.Random) -> list[complex]:
    """100 random points on a dyadic grid (re exactly representable after +1).

    Im lies in [0.9, RANDOM_IM_HI], where |j| < 3e5. There the inversion
    check's absolute tolerance of 1e-8 sits ten times above the largest
    |j(-1/tau) - j(tau)| over the seeds 0..299 (1.1e-9).
    """
    grid = 1 << 20
    return [complex(rng.randint(-grid // 2 + 1, grid // 2 - 1) / grid,
                    rng.randint(int(0.9 * grid), int(RANDOM_IM_HI * grid))
                    / grid)
            for _ in range(100)]


def _class_columns(T: int) -> tuple[np.ndarray, ...]:
    """int64 columns a, b, c, d of every class of height <= T, in the order
    of enumerate_classes: the blocks of census._class_blocks end to end."""
    blocks = list(census._class_blocks(ClassSetId.ALL, T))
    return tuple(np.concatenate([blk[i] for blk in blocks]) for i in range(4))


def _mismatch_detail(cols: tuple[np.ndarray, ...], ok: np.ndarray) -> str:
    """"exhaustive" when every row of the bool column ok holds, else the
    class (a, b, c, d) of the last row that fails."""
    wrong = np.flatnonzero(~ok)
    if not wrong.size:
        return "exhaustive"
    bad = classes.TauQuadruple(*(int(x[wrong[-1]]) for x in cols))
    return f"mismatch at {bad}"


def verify_modular(seed: int = DEFAULT_SEED) -> list[Check]:
    checks: list[Check] = []
    rng = random.Random(seed)

    j_i = modular.j_invariant(1j).value
    checks.append(("j(i) = 1728 within 1e-9",
                   abs(j_i - 1728) < 1e-9, f"{j_i:.12g}"))
    rho = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    j_rho = modular.j_invariant(rho).value
    checks.append(("j(rho) = 0 within 1e-9",
                   abs(j_rho) < 1e-9, f"{abs(j_rho):.3g}"))
    cm = tuple(np.array([getattr(q, k) for q in CLASS_NUMBER_ONE_J],
                        dtype=np.int64) for k in "abcd")
    value, error = modular.j_columns(modular.tau_of_columns(*cm))
    exact = np.array(list(CLASS_NUMBER_ONE_J.values()), dtype=float)
    near = np.abs(value - exact) <= error
    checks.append(("j_columns within est_error of the exact j at the 13 "
                   "class-number-one classes", bool(near.all()),
                   _mismatch_detail(cm, near)))

    pts = _random_upper_points(rng)
    j_pts = [modular.j_invariant(p).value for p in pts]
    per = max(abs(modular.j_invariant(p + 1).value - j)
              for p, j in zip(pts, j_pts))
    inv = max(abs(modular.j_invariant(-1 / p).value - j)
              for p, j in zip(pts, j_pts))
    conj = max(abs(modular.j_invariant(complex(-p.real, p.imag)).value
                   - j.conjugate()) for p, j in zip(pts, j_pts))
    checks.append(("periodicity j(tau+1) = j(tau) within 1e-8 on 100 points",
                   per < 1e-8, f"max {per:.3g}"))
    checks.append(("inversion j(-1/tau) = j(tau) within 1e-8 on 100 points",
                   inv < 1e-8, f"max {inv:.3g}"))
    checks.append(("conjugation j(-conj(tau)) = conj(j(tau)) within 1e-8",
                   conj < 1e-8, f"max {conj:.3g}"))

    report = modular.boundary_realness_report()
    checks.append(("boundary realness: max |Im j| < 1e-8 over 300 samples",
                   report.max_boundary_im < 1e-8,
                   f"max {report.max_boundary_im:.3g}, interior control "
                   f"min {report.min_interior_im:.3g}"))
    checks.append(("interior control |Im j| > 1e-3",
                   report.min_interior_im > 1e-3,
                   f"{report.min_interior_im:.3g}"))

    thetas = [math.pi / 3 + k * (math.pi / 6) / 99 for k in range(100)]
    arc = [modular.j_normalized(cmath.exp(1j * t)).value for t in thetas]
    in_range = all(-1e-6 <= v.real <= 1 + 1e-6 and abs(v.imag) < 1e-8
                   for v in arc)
    # j rises from j(rho) = 0 at theta = pi/3 to its arc maximum j(i) = 1728
    monotone = all(x.real < y.real for x, y in zip(arc, arc[1:]))
    checks.append(("normalized j on the WR arc lies in [0,1]", in_range,
                   f"range [{min(v.real for v in arc):.3g}, "
                   f"{max(v.real for v in arc):.6f}]"))
    checks.append(("normalized j strictly monotone along the arc",
                   monotone, "100 samples"))

    cols = _class_columns(20)
    agree = (modular.classify_by_j_columns(*cols)
             == classes.is_wr_entries(*cols))
    checks.append(("classify_by_j agrees with classify, height <= 20",
                   bool(agree.all()), _mismatch_detail(cols, agree)))
    return checks


def _geometry_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                   d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two bool columns over the classes (a, b, c, d): whether the kind from
    the lattice predicates on the primitive form of Lambda_tau equals
    classes.kind_entries, and whether that form is reduced with canonical
    tau (a/b, c/d)."""
    big_a, big_b, big_c, reduced = lattice.class_form_columns(a, b, c, d)
    # indices into classes.KINDS
    geo_kind = np.where(lattice.is_wr_reduced(big_a, big_b, big_c), 0,
                        np.where(lattice.is_semistable_reduced(
                            big_a, big_b, big_c), 1, 2))
    p, q, r, s = lattice.canonical_tau_entries(big_a, big_b, big_c)
    return (classes.kind_entries(a, b, c, d) == geo_kind,
            reduced & (p * b == a * q) & (r * d == c * s))


def verify_geometry(quadruple_height: int = 20) -> list[Check]:
    """Parametrized classification vs exact geometric predicates, on the
    int64 columns of every class of height <= quadruple_height."""
    if quadruple_height > lattice.MAX_COLUMN_HEIGHT:
        raise ValueError(f"geometry columns capped at height "
                         f"{lattice.MAX_COLUMN_HEIGHT} (int64 range)")
    cols = _class_columns(quadruple_height)
    kind_ok, tau_ok = _geometry_rows(*cols)
    return [(f"classify matches geometric predicates, height <= "
             f"{quadruple_height}", bool(kind_ok.all()),
             _mismatch_detail(cols, kind_ok)),
            (f"canonical_tau(Lambda_tau(q)) = (a/b, c/d), height <= "
             f"{quadruple_height}", bool(tau_ok.all()),
             _mismatch_detail(cols, tau_ok))]


# the words' letters S, T and T^-1 as entries (a, b, c, d)
_LETTERS = ((0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1))


def _random_tau_words(rng: random.Random, n_points: int
                      ) -> Iterator[tuple[lattice.CanonicalTau,
                                          lattice.UnimodularMatrix]]:
    """n_points pairs (tau, g): tau in F with re = k / (2 den) and
    im_sq = 1 - re^2 + u / v, and g a word of length <= 10 in S, T and
    T^-1, both built in integers.

    With Q = 4 den^2, tau is CanonicalTau.from_integers(k, 2 den,
    (Q - k^2) v + Q u, Q v); g is composed as four ints, with one
    UnimodularMatrix at the end.
    """
    for _ in range(n_points):
        den = rng.randint(1, 12)
        k = rng.randint(0, den)
        u, v = rng.randint(0, 50), rng.randint(1, 10)
        big_q = 4 * den * den
        tau = lattice.CanonicalTau.from_integers(
            k, 2 * den, (big_q - k * k) * v + big_q * u, big_q * v)
        a, b, c, d = 1, 0, 0, 1
        for _ in range(rng.randint(0, 10)):
            w, x, y, z = rng.choice(_LETTERS)
            a, b, c, d = (w * a + x * c, w * b + x * d,
                          y * a + z * c, y * b + z * d)
        yield tau, lattice.UnimodularMatrix(a, b, c, d)


def verify_reduction_invariance(n_points: int = 1000,
                                seed: int = DEFAULT_SEED) -> list[Check]:
    """Random exact tau in F, random word of length <= 10 in S and T:
    reduction recovers tau."""
    ok = True
    bad = None
    for tau, g in _random_tau_words(random.Random(seed), n_points):
        moved = lattice.modular_act(g, tau)
        back = lattice.canonical_tau(lattice.tau_gram(moved))
        if back != tau:
            ok = False
            bad = (tau, g)
    return [(f"canonical_tau(Lambda_g(tau)) = tau on {n_points} random "
             f"words", ok, "exact" if ok else f"failed at {bad}")]


def verify_heights(quadruple_height: int = 50, wr_bmax: int = 200) -> list[Check]:
    # C' of a WR pair is b^4, below 2^60 for b < 2^15
    if quadruple_height > lattice.MAX_COLUMN_HEIGHT or wr_bmax >= 1 << 15:
        raise ValueError(f"heights capped at quadruple height "
                         f"{lattice.MAX_COLUMN_HEIGHT} and WR b < 2^15 "
                         f"(int64 range)")
    checks: list[Check] = []
    bad = None
    for a, b, c, d, m in census._class_blocks(ClassSetId.ALL,
                                              quadruple_height):
        over = np.flatnonzero(4 * lattice.tau_gram_entries(a, b, c, d)[2]
                              > 5 * m ** 3)
        if over.size:
            i = over[-1]
            bad = classes.TauQuadruple(*(int(x[i]) for x in (a, b, c, d)))
    checks.append((f"weil_height_bound <= (sqrt5/2) m^(3/2), height <= "
                   f"{quadruple_height}", bad is None,
                   "exhaustive" if bad is None else f"violated at {bad}"))
    bad = None
    for a, b, c, d, _ in census._class_blocks(ClassSetId.WELL_ROUNDED,
                                              wr_bmax):
        # C' = b^4 = d^2 on the WR quadruple (a, b, b^2 - a^2, b^2)
        wrong = np.flatnonzero(lattice.tau_gram_entries(a, b, c, d)[2]
                               != d * d)
        if wrong.size:
            bad = classes.WrPair(int(a[wrong[0]]), int(b[wrong[0]]))
            break
    checks.append((f"weil_height_bound of the WR quadruple = (WR height "
                   f"bound)^2 for all pairs with b <= {wr_bmax}", bad is None,
                   "exhaustive" if bad is None else f"mismatch at {bad}"))
    return checks


SUITES: dict[str, Callable[..., list[Check]]] = {
    "counts": verify_counts,
    "asymptotics": verify_asymptotics,
    "euler": verify_euler,
    "haar": verify_haar,
    "modular": verify_modular,
    "geometry": verify_geometry,
    "reduction_invariance": verify_reduction_invariance,
    "heights": verify_heights,
}


def run_suite(name: str, seed: int = DEFAULT_SEED) -> bool:
    """Run one named suite, print a pass/fail line per check.

    The seed goes to every suite that takes one.
    """
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    suite = SUITES[name]
    seeded = "seed" in inspect.signature(suite).parameters
    all_ok = True
    for check_name, ok, detail in suite(seed=seed) if seeded else suite():
        print(f"[{'PASS' if ok else 'FAIL'}] {check_name}: {detail}")
        all_ok = all_ok and ok
    return all_ok
