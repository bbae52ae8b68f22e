import cmath
import math
import random

import pytest

from latsim import census, classes, modular
from latsim.census import ClassSetId
from latsim.classes import TauQuadruple

RHO = cmath.exp(1j * math.pi / 3)
# Classes within 4e-7 of the unit arc (classify_by_j's known defect)
NEAR_ARC = (TauQuadruple(19, 149, 121, 123), TauQuadruple(27, 166, 184, 189))
ORACLE_TERMS = 30


def j_oracle(tau: complex) -> complex:
    """j(tau) from a 30-term q-expansion, on the same reduced tau and nome
    and in the same order of operations as modular.j_invariant."""
    tau = modular.reduce_to_fundamental_domain(complex(tau))
    q = modular._nome(tau)
    qn = e4 = e6 = 1.0 + 0.0j
    for n in range(1, ORACLE_TERMS + 1):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        qn *= q
        e4 += 240 * sum(d ** 3 for d in divisors) * qn
        e6 -= 504 * sum(d ** 5 for d in divisors) * qn
    e4cubed = e4 ** 3
    return 1728.0 * e4cubed / (e4cubed - e6 ** 2)


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
        assert abs(jv.value - 1728) < 1e-9
        assert jv.est_error < 1e-20

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
        with pytest.raises(ValueError):
            modular.j_invariant(0.1 + 150j)

    def test_fixed_expansion_equals_30_terms_bit_for_bit(self):
        # the evidence for J_TERMS: more terms change no double
        taus = [modular.tau_of_quadruple(q) for q in
                census.enumerate_classes(ClassSetId.ALL, 20)]
        taus += [modular.tau_of_quadruple(q) for q in NEAR_ARC]
        points = verify_modular_points()
        assert len(points) == 405
        for tau in taus + points:
            got, want = modular.j_invariant(tau).value, j_oracle(tau)
            assert (got.real.hex(), got.imag.hex()) == \
                (want.real.hex(), want.imag.hex()), tau


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
        report = modular.boundary_realness_report(samples=100)
        assert report.max_boundary_im < 1e-8

    def test_interior_is_not(self):
        report = modular.boundary_realness_report(samples=10)
        assert report.min_interior_im > 1e-3

    def test_imaginary_ray_values_exceed_j_of_i(self):
        v = modular.j_invariant(2j).value
        assert abs(v.imag) < 1e-10
        assert v.real > 1728

    def test_sample_guard(self):
        with pytest.raises(ValueError):
            modular.boundary_realness_report(samples=5)


class TestClassifyByJ:
    def test_examples(self):
        assert modular.classify_by_j(TauQuadruple(1, 2, 3, 4))
        assert modular.classify_by_j(TauQuadruple(0, 1, 1, 1))
        assert not modular.classify_by_j(TauQuadruple(0, 1, 2, 1))

    def test_agrees_with_parametrized_classifier(self):
        for q in census.enumerate_classes(ClassSetId.ALL, 10):
            assert modular.classify_by_j(q) == \
                (classes.classify(q) is classes.ClassKind.WELL_ROUNDED)
