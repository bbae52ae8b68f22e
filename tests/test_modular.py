import cmath
import math
import random

import numpy as np
import pytest

from latsim import census, classes, modular, verify
from latsim.census import ClassSetId
from latsim.classes import TauQuadruple

RHO = cmath.exp(1j * math.pi / 3)
# Classes within 4e-7 of the unit arc (classify_by_j's known defect)
NEAR_ARC = (TauQuadruple(19, 149, 121, 123), TauQuadruple(27, 166, 184, 189))
ORACLE_TERMS = 40
# The 13 classes of class number one and their exact j, the table that the
# modular verify suite checks j_columns against.
CM_VALUES = verify.CLASS_NUMBER_ONE_J


# the q^n coefficients 240 * sigma_3(n) of E4 for n = 1..ORACLE_TERMS
E4_COEFFS = tuple(240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
                  for n in range(1, ORACLE_TERMS + 1))
# Euler's pentagonal theorem: prod (1 - q^n) = sum (-1)^k q^(k(3k-1)/2)
# over all integers k, whose exponents up to 40 are these, in signs
# + - - + + - - + + - -
PENTAGONAL = (0, 1, 2, 5, 7, 12, 15, 22, 26, 35, 40)


def j_oracle(tau: complex, terms: int = ORACLE_TERMS,
             pentagonal: tuple[int, ...] = PENTAGONAL) -> complex:
    """j(tau) on the same reduced tau and nome as modular.j_invariant: E4 by
    Horner's rule over `terms` coefficients, and prod (1 - q^n) from the
    pentagonal series over the exponents `pentagonal` (to q^40), nested as
    modular._j_series nests it to q^7 and from the same powers of q."""
    tau, _ = modular.reduce_to_fundamental_domain(complex(tau))
    q = modular._nome(tau)
    e4 = 0.0
    for c in reversed(E4_COEFFS[:terms]):
        e4 = (e4 + c) * q
    e4 += 1.0
    q2 = q * q
    q3 = q2 * q
    q5 = q3 * q2
    powers = {1: q, 2: q2, 3: q3, 4: q2 * q2, 5: q5, 7: q5 * q2,
              9: q5 * q2 * q2}
    # 1 - q(1 + q(1 - q^3(1 + q^2(1 - q^5(1 + q^3(1 - q^7(...)))))))
    p = 1.0
    for k in range(len(pentagonal) - 1, 0, -1):
        x = powers[pentagonal[k] - pentagonal[k - 1]] * p
        p = 1.0 - x if k % 2 else 1.0 + x
    return e4 ** 3 / (q * p ** 24)


def j_product_loop(tau: complex) -> complex:
    """j(tau) from 15 terms of E4 and of prod (1 - q^n), summed and
    multiplied term by term: an evaluation independent of Horner's rule and
    of the pentagonal series, on the same reduced tau and nome."""
    tau, _ = modular.reduce_to_fundamental_domain(complex(tau))
    q = modular._nome(tau)
    qn = e4 = prod = 1.0 + 0.0j
    for c in E4_COEFFS[:15]:
        qn *= q
        e4 += c * qn
        prod *= 1.0 - qn
    return e4 ** 3 / (q * prod ** 24)


def verify_modular_points() -> list[complex]:
    """The 300 boundary and 5 interior points of boundary_realness_report
    and the 100 arc points of verify_modular."""
    points = []
    im0 = math.sqrt(3) / 2
    for k in range(100):
        t = k / 99
        points.append(cmath.exp(1j * (math.pi / 3 + t * math.pi / 6)))
        points.append(complex(0.0, 1.0 + t * 2.0))
        points.append(complex(0.5, im0 + t * (3.0 - im0)))
    points += [complex(0.25, 1.1), complex(0.1, 1.3), complex(0.4, 1.05),
               complex(0.3, 2.0), complex(0.15, 1.02)]
    points += [cmath.exp(1j * (math.pi / 3 + k * (math.pi / 6) / 99))
               for k in range(100)]
    return points


class TestJInvariant:
    def test_j_at_i(self):
        jv = modular.j_invariant(1j)
        # the bound covers rounding, about 2e-13 relative at i
        assert abs(jv.value - 1728) <= jv.est_error < 1e-9

    def test_j_at_rho(self):
        assert abs(modular.j_invariant(RHO).value) < 1e-9

    def test_known_singular_moduli(self):
        # classical values j(2i) = 66^3, j(i sqrt(2)) = 20^3
        assert modular.j_invariant(2j).value.real == pytest.approx(287496)
        assert modular.j_invariant(1j * math.sqrt(2)).value.real == \
            pytest.approx(8000)

    def test_q_expansion_head(self):
        # j = 1/q + 744 + 196884 q + ... at a point with tiny q
        tau = 0.1 + 2.5j
        q = cmath.exp(2j * math.pi * tau)
        approx = 1 / q + 744 + 196884 * q
        assert abs(modular.j_invariant(tau).value - approx) < 1e-3

    def test_periodicity(self):
        tau = 0.3 + 1.7j
        assert abs(modular.j_invariant(tau + 1).value
                   - modular.j_invariant(tau).value) < 1e-9

    def test_rejects_lower_half_plane(self):
        with pytest.raises(ValueError):
            modular.j_invariant(0.5 - 1j)
        with pytest.raises(ValueError):
            modular.j_invariant(0.5 + 0j)

    def test_rejects_overflow_region(self):
        # the strip test refuses what Im tau > MAX_IM refused: every
        # reduced point has |Re tau| <= 1/2 and Im tau >= sqrt(3)/2
        assert modular.j_invariant(1j * modular.MAX_IM).value.real > 0
        for tau in (complex(0.1, 100.00000000000001), 0.1 + 150j):
            with pytest.raises(ValueError, match="too large after reduction"):
                modular.j_invariant(tau)

    def test_reduction_stops_on_the_unit_arc(self):
        # each point's orbit reaches the arc, where -1/tau rounds back to
        # |tau| < 1; the first came out of a search like TestBoundSearch's,
        # the second lies on the arc itself
        for tau in (complex(1.5, 0.5567224093989912),
                    complex(0.4896715103244776, 0.8719069973205542)):
            reduced, _ = modular.reduce_to_fundamental_domain(tau)
            assert abs(reduced.real) <= 0.5 and \
                abs(abs(reduced) - 1) < 1e-15, tau
            jn = modular.j_normalized(tau)
            assert abs(jn.value.imag) <= jn.est_error, tau
            assert 0 < jn.value.real < 1, tau

    def test_fixed_expansion_equals_40_terms_bit_for_bit(self):
        # the evidence for J_TERMS: more terms of E4, and the pentagonal
        # series to q^40, change no double
        taus = [modular.tau_of_quadruple(q) for q in
                census.enumerate_classes(ClassSetId.ALL, 20)]
        taus += [modular.tau_of_quadruple(q) for q in NEAR_ARC]
        points = verify_modular_points()
        assert len(points) == 405
        for tau in taus + points:
            got, want = modular.j_invariant(tau).value, j_oracle(tau)
            assert (got.real.hex(), got.imag.hex()) == \
                (want.real.hex(), want.imag.hex()), tau

    def test_one_term_fewer_differs_at_a_class_point(self):
        # the evidence that J_TERMS is the fewest: one term less changes j
        # at the class 1/2 + i sqrt(7/9), of height <= 20, near rho
        tau = modular.tau_of_quadruple(TauQuadruple(1, 2, 7, 9))
        want = j_oracle(tau)
        assert modular.j_invariant(tau).value.real.hex() == want.real.hex()
        got = j_oracle(tau, modular.J_TERMS - 1)
        assert (got.real.hex(), got.imag.hex()) != \
            (want.real.hex(), want.imag.hex())

    def test_pentagonal_cut_after_q5_differs_at_a_class_point(self):
        # the evidence that the pentagonal series needs its q^7 term: cut
        # after q^5 it changes j at the class 1/2 + i sqrt(10/13), of height
        # 13 (and at 142 of the 8,894 classes of height <= 20)
        tau = modular.tau_of_quadruple(TauQuadruple(1, 2, 10, 13))
        want = j_oracle(tau)
        got = modular.j_invariant(tau).value
        assert (got.real.hex(), got.imag.hex()) == \
            (want.real.hex(), want.imag.hex())
        assert PENTAGONAL[:4] == (0, 1, 2, 5)
        cut = j_oracle(tau, pentagonal=PENTAGONAL[:4])
        assert (cut.real.hex(), cut.imag.hex()) != \
            (want.real.hex(), want.imag.hex())

    def test_within_est_error_of_the_product_loop_at_height_30(self):
        # a second oracle in another order of operations: j moves by less
        # than est_error, and no classify_by_j verdict changes
        for q in list(census.enumerate_classes(ClassSetId.ALL, 30)) + \
                list(NEAR_ARC):
            tau = modular.tau_of_quadruple(q)
            jv = modular.j_invariant(tau)
            want = j_product_loop(tau)
            assert abs(jv.value - want) <= jv.est_error, q
            assert modular.classify_by_j(q) == \
                modular._wr_verdict(want / 1728.0), q


def class_taus(height: int) -> list[complex]:
    return [modular.tau_of_quadruple(q)
            for q in census.enumerate_classes(ClassSetId.ALL, height)]


def inversion_points(seed: int) -> list[complex]:
    points = verify._random_upper_points(random.Random(seed))
    return points + [-1 / p for p in points]


# where est_error must cover |j - mpmath| and stay below 1e-11 max(1, |j|)
BOUND_POINTS = {
    "verify_modular": verify_modular_points,
    "height<=20": lambda: class_taus(20),
    "i_sqrt_m": lambda: [complex(0.0, math.sqrt(m))
                         for m in range(1, 10 ** 4 + 1)],
    "inversion": lambda: (inversion_points(verify.DEFAULT_SEED)
                          + inversion_points(22)),
}


class TestErrorBound:
    def test_class_number_one_values(self):
        for q, want in CM_VALUES.items():
            jv = modular.j_invariant(modular.tau_of_quadruple(q))
            assert abs(jv.value - want) <= jv.est_error, q
            assert jv.est_error <= 1e-11 * max(1, abs(want)), q

    def test_domain_constants(self):
        # Q_MAX bounds |q| and E6_BOUND bounds |E6| on the reduced domain
        assert math.exp(-math.pi * math.sqrt(3)) < modular.Q_MAX
        sigma5 = [sum(d ** 5 for d in range(1, n + 1) if n % d == 0)
                  for n in range(1, 40)]
        assert 1 + 504 * sum(s * modular.Q_MAX ** n
                             for n, s in enumerate(sigma5, 1)) \
            < modular.E6_BOUND

    @pytest.mark.parametrize("name", list(BOUND_POINTS))
    def test_covers_mpmath_and_is_tight(self, name):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            for tau in BOUND_POINTS[name]():
                jv = modular.j_invariant(tau)
                want = 1728 * mpmath.kleinj(mpmath.mpc(tau.real, tau.imag))
                err = abs(mpmath.mpc(jv.value) - want)
                assert err <= jv.est_error, (name, tau)
                assert jv.est_error <= 1e-11 * max(1.0, abs(jv.value)), \
                    (name, tau)


def scalar_path(taus):
    return [(jv.value, jv.est_error) for jv in map(modular.j_invariant, taus)]


def column_path(taus):
    value, error = modular.j_columns(np.array(taus))
    return zip(value.tolist(), error.tolist())


STRIP = ((-0.5, 0.5), (modular.MIN_IM, modular.MAX_IM))
# per search: the ranges of Re tau and Im tau, the most points per example
# and the path that gives their (j, est_error). Below Im tau = sqrt(3)/2 the
# reduction inverts at least once, and Im(g tau) <= max(Im tau, 1/Im tau)
# for g in SL2(Z) leaves the reduced point at Im <= MAX_IM.
SEARCHES = {
    "scalar in the strip": (*STRIP, 1, scalar_path),
    "scalar through the reduction": ((-50.0, 50.0), (1 / modular.MAX_IM, 0.86),
                                     1, scalar_path),
    "columns in the strip": (*STRIP, 8, column_path),
}


class TestBoundSearch:
    """hypothesis steers a search toward the worst
    |j - 1728 * mpmath.kleinj| / est_error; the bound holds where the
    ratio stays at most 1. Derandomized, with no example database, so every
    run draws the same examples."""

    @pytest.mark.parametrize("name", list(SEARCHES))
    def test_worst_ratio_to_mpmath_is_at_most_one(self, name):
        hypothesis = pytest.importorskip("hypothesis")
        mpmath = pytest.importorskip("mpmath")
        st = hypothesis.strategies
        re_span, im_span, size, evaluate = SEARCHES[name]
        points = st.lists(st.builds(complex, st.floats(*re_span),
                                    st.floats(*im_span)),
                          min_size=1, max_size=size)

        @hypothesis.settings(derandomize=True, database=None,
                             max_examples=600, deadline=None)
        @hypothesis.given(points)
        def search(taus):
            ratio = 0.0
            with mpmath.workdps(40):
                for tau, (value, error) in zip(taus, evaluate(taus)):
                    want = 1728 * mpmath.kleinj(mpmath.mpc(tau.real,
                                                           tau.imag))
                    ratio = max(ratio,
                                float(abs(mpmath.mpc(value) - want)) / error)
            hypothesis.target(ratio)
            assert ratio <= 1.0, taus

        search()


class TestSymmetries:
    def test_inversion_invariance(self):
        rng = random.Random(47)
        for _ in range(100):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 3.0))
            a = modular.j_invariant(-1 / tau).value
            b = modular.j_invariant(tau).value
            # scale-aware: |j| reaches ~1e8 at Im tau = 3, where input
            # rounding alone moves j by ~1e-7 in absolute terms
            assert abs(a - b) < 1e-8 * max(1.0, abs(b))

    def test_inversion_within_verify_tolerance_for_seeds_0_to_299(self):
        # verify_modular's inversion check, at every seed 0..299
        for seed in range(300):
            worst = max(abs(modular.j_invariant(-1 / p).value
                            - modular.j_invariant(p).value)
                        for p in verify._random_upper_points(
                            random.Random(seed)))
            assert worst < 1e-8, seed

    def test_conjugation_symmetry(self):
        rng = random.Random(53)
        for _ in range(100):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 3.0))
            a = modular.j_invariant(complex(-tau.real, tau.imag)).value
            b = modular.j_invariant(tau).value.conjugate()
            assert abs(a - b) < 1e-8 * max(1.0, abs(b))


class TestNormalizedArc:
    def test_endpoints(self):
        assert abs(modular.j_normalized(1j).value - 1) < 1e-12
        assert abs(modular.j_normalized(RHO).value) < 1e-12

    def test_real_and_in_unit_interval(self):
        for k in range(100):
            theta = math.pi / 3 + k * (math.pi / 6) / 99
            v = modular.j_normalized(cmath.exp(1j * theta)).value
            assert abs(v.imag) < 1e-10
            assert -1e-6 <= v.real <= 1 + 1e-6

    def test_strictly_monotone_in_theta(self):
        values = []
        for k in range(100):
            theta = math.pi / 3 + k * (math.pi / 6) / 99
            values.append(modular.j_normalized(cmath.exp(1j * theta)).value.real)
        assert all(x < y for x, y in zip(values, values[1:]))


class TestBoundaryRealness:
    def test_boundary_is_real(self):
        report = modular.boundary_realness_report()
        assert report.max_boundary_im < 1e-8

    def test_interior_is_not(self):
        report = modular.boundary_realness_report()
        assert report.min_interior_im > 1e-3

    def test_imaginary_ray_values_exceed_j_of_i(self):
        v = modular.j_invariant(2j).value
        assert abs(v.imag) < 1e-10
        assert v.real > 1728


class TestClassifyByJ:
    def test_examples(self):
        assert modular.classify_by_j(TauQuadruple(1, 2, 3, 4))
        assert modular.classify_by_j(TauQuadruple(0, 1, 1, 1))
        assert not modular.classify_by_j(TauQuadruple(0, 1, 2, 1))

    def test_large_im_gives_a_verdict(self):
        # Im tau = sqrt(47) > 7, where E4^3 - E6^2 used to round to zero
        q = TauQuadruple(1, 2, 47, 1)
        assert modular.classify_by_j(q) == \
            (classes.classify(q) is classes.ClassKind.WELL_ROUNDED)

    def test_agrees_with_parametrized_classifier(self):
        for q in census.enumerate_classes(ClassSetId.ALL, 10):
            assert modular.classify_by_j(q) == \
                (classes.classify(q) is classes.ClassKind.WELL_ROUNDED)

    def test_class_points_as_given_equal_the_reducing_path(self):
        # the reduction leaves every class point as it is, so the verdict
        # on the point as given equals the old one on j_invariant's value
        qs = list(census.enumerate_classes(ClassSetId.ALL, 30)) + \
            list(NEAR_ARC)
        assert len(qs) == 41_827
        for q in qs:
            tau = modular.tau_of_quadruple(q)
            reduced, drift = modular.reduce_to_fundamental_domain(tau)
            assert (reduced.real.hex(), reduced.imag.hex(), drift) == \
                (tau.real.hex(), tau.imag.hex(), 0.0), q
            oracle = modular._wr_verdict(
                modular.j_invariant(tau).value / 1728.0)
            assert modular.classify_by_j(q) == oracle, q

    def test_refuses_points_outside_the_strip(self):
        # Im tau = sqrt(20000) ~ 141 > MAX_IM, refused as before
        q = TauQuadruple(0, 1, 20000, 1)
        with pytest.raises(ValueError):
            modular.classify_by_j(q)


def class_columns(height: int):
    """The classes of height <= height and NEAR_ARC, as a list and as int64
    columns a, b, c, d."""
    qs = list(census.enumerate_classes(ClassSetId.ALL, height)) + \
        list(NEAR_ARC)
    return qs, tuple(np.array([getattr(q, k) for q in qs], dtype=np.int64)
                     for k in "abcd")


class TestColumns:
    """The column path against the scalar j, mpmath and classify."""

    def test_class_columns_follow_enumerate_classes(self):
        qs, _ = class_columns(20)
        cols = verify._class_columns(20)
        assert all(x.dtype == np.int64 for x in cols)
        assert list(zip(*(x.tolist() for x in cols))) == \
            [(q.a, q.b, q.c, q.d) for q in qs[:-len(NEAR_ARC)]]

    def test_tau_of_columns_equals_scalar_bit_for_bit(self):
        qs, cols = class_columns(30)
        taus = modular.tau_of_columns(*cols)
        assert taus.tolist() == [modular.tau_of_quadruple(q) for q in qs]
        with pytest.raises(ValueError):
            modular.tau_of_columns(1, 2 ** 53, 1, 1)

    def test_columns_refuse_points_outside_the_strip(self):
        # what the scalar refuses, then points it reduces or passes on; RHO
        # (cos(pi/3) rounds up to 0.5000000000000001) lies one ULP outside
        for bad in ([0.5 - 1j], [1j, 0.5 + 0j], [0.1 + 150j, 1j],
                    [0.3 + 0.5j], [1j, 0.75 + 1j], [complex(0.25, math.nan)],
                    [RHO]):
            with pytest.raises(ValueError):
                modular.j_columns(np.array(bad))
        with pytest.raises(ValueError):
            modular.j_columns(np.array([[1j, 2j]]))
        value, error = modular.j_columns(np.array([], dtype=complex))
        assert value.size == error.size == 0
        # the hexagonal class, the least Im tau of any class, is the double
        # nearest rho; it and rho - 1 are taken as given
        hexagonal = modular.tau_of_quadruple(TauQuadruple(1, 2, 3, 4))
        assert hexagonal == complex(0.5, math.sqrt(3) / 2)
        corners = [hexagonal, complex(-0.5, math.sqrt(3) / 2)]
        value, error = modular.j_columns(np.array(corners))
        for tau, v, e in zip(corners, value.tolist(), error.tolist()):
            jv = modular.j_invariant(tau)
            assert abs(v - jv.value) <= e + jv.est_error, tau
            assert abs(v) <= e, tau

    def test_bound_covers_mpmath_and_is_tight_at_height_20(self):
        mpmath = pytest.importorskip("mpmath")
        qs, cols = class_columns(20)
        taus = modular.tau_of_columns(*cols)
        value, error = modular.j_columns(taus)
        with mpmath.workdps(40):
            for tau, v, e in zip(taus.tolist(), value.tolist(),
                                 error.tolist()):
                want = 1728 * mpmath.kleinj(mpmath.mpc(tau.real, tau.imag))
                assert abs(mpmath.mpc(v) - want) <= e, tau
                assert e <= 1e-11 * max(1.0, abs(v)), tau

    def test_verdicts_and_values_equal_scalar_at_height_30(self):
        qs, cols = class_columns(30)
        value, error = modular.j_columns(modular.tau_of_columns(*cols))
        verdicts = modular.classify_by_j_columns(*cols)
        assert verdicts.dtype == bool
        for q, v, e, by_j in zip(qs, value.tolist(), error.tolist(),
                                 verdicts.tolist()):
            jv = modular.j_invariant(modular.tau_of_quadruple(q))
            assert by_j == modular.classify_by_j(q), q
            assert abs(v - jv.value) <= e + jv.est_error, q
        # the known defect shows on both paths: both call NEAR_ARC WR
        assert verdicts[-len(NEAR_ARC):].all()

    def test_numpy_elementary_functions_within_one_ulp(self):
        # the figure the column bound assumes of np.exp, np.cos, np.sin, at
        # the arguments _nome_columns gives them
        mpmath = pytest.importorskip("mpmath")
        _, cols = class_columns(20)
        taus = modular.tau_of_columns(*cols)
        x = -2.0 * math.pi * taus.imag
        t = 2.0 * taus.real
        y = math.pi * (t - np.round(t))
        with mpmath.workdps(40):
            for fn, mp_fn, args in ((np.exp, mpmath.exp, x),
                                    (np.cos, mpmath.cos, y),
                                    (np.sin, mpmath.sin, y)):
                got = fn(args)
                want = np.array([float(mp_fn(mpmath.mpf(a)) - g)
                                 for a, g in zip(args.tolist(),
                                                 got.tolist())])
                assert (np.abs(want) <= np.spacing(np.abs(got))).all(), fn


class TestVerifySweep:
    def test_check_passes_and_names_a_mismatch(self, monkeypatch):
        name = "classify_by_j agrees with classify, height <= 20"
        checks = dict((n, (ok, detail)) for n, ok, detail in
                      verify.verify_modular())
        assert checks[name] == (True, "exhaustive")

        real = modular.classify_by_j_columns

        def flip_last_wr(a, b, c, d):
            verdicts = real(a, b, c, d)
            verdicts[np.flatnonzero(verdicts)[-1]] = False
            return verdicts

        monkeypatch.setattr(modular, "classify_by_j_columns", flip_last_wr)
        qs, _ = class_columns(20)
        wr = classes.ClassKind.WELL_ROUNDED
        last_wr = [q for q in qs[:-len(NEAR_ARC)]
                   if classes.classify(q) is wr][-1]
        checks = dict((n, (ok, detail)) for n, ok, detail in
                      verify.verify_modular())
        assert checks[name] == (False, f"mismatch at {last_wr}")


class TestClassNumberOne:
    """The exact j of the 13 class-number-one classes (CM_VALUES) as an
    oracle for both paths, with no mpmath."""

    def test_scalar_and_columns_within_their_bounds(self):
        qs = list(CM_VALUES)
        cols = tuple(np.array([getattr(q, k) for q in qs], dtype=np.int64)
                     for k in "abcd")
        value, error = modular.j_columns(modular.tau_of_columns(*cols))
        for q, v, e in zip(qs, value.tolist(), error.tolist()):
            want = CM_VALUES[q]
            jv = modular.j_invariant(modular.tau_of_quadruple(q))
            assert abs(jv.value - want) <= jv.est_error, q
            assert abs(v - want) <= e, q

    def test_classify_by_j_computes_only_the_value(self, monkeypatch):
        wants = {q: modular._wr_verdict(modular.j_normalized(
            modular.tau_of_quadruple(q)).value) for q in CM_VALUES}
        calls = dict.fromkeys(
            ("JValue", "_error_bound", "reduce_to_fundamental_domain"), 0)

        def counted(name):
            original = getattr(modular, name)

            def call(*args, **kw):
                calls[name] += 1
                return original(*args, **kw)
            return call

        for name in calls:
            monkeypatch.setattr(modular, name, counted(name))
        for q, want in wants.items():
            assert modular.classify_by_j(q) == want, q
        assert set(calls.values()) == {0}
        # the counters count: j_invariant takes all three once
        modular.j_invariant(1j)
        assert set(calls.values()) == {1}

    def test_verify_check_names_a_mismatch(self, monkeypatch):
        name = ("j_columns within est_error of the exact j at the 13 "
                "class-number-one classes")
        assert all(float(j) == j for j in CM_VALUES.values())
        checks = dict((n, (ok, detail)) for n, ok, detail in
                      verify.verify_modular())
        assert checks[name] == (True, "exhaustive")

        real = modular.j_columns

        def off_at_163(tau):
            value, error = real(tau)
            value[-1] += 2 * error[-1]
            return value, error

        monkeypatch.setattr(modular, "j_columns", off_at_163)
        checks = dict((n, (ok, detail)) for n, ok, detail in
                      verify.verify_modular())
        assert checks[name] == (False,
                                f"mismatch at {TauQuadruple(1, 2, 163, 4)}")
