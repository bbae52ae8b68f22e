"""Numerical evaluation of the modular j-function on the upper half-plane.

Inputs are first reduced into the standard fundamental domain, which pins
|q| = exp(-2*pi*Im tau) <= exp(-pi*sqrt(3)) ~ 0.00433 and makes a short
Eisenstein q-expansion accurate to far below double precision (J_TERMS terms):

    j = 1728 * E4^3 / (E4^3 - E6^2),
    E4 = 1 + 240 * sum sigma_3(n) q^n,   E6 = 1 - 504 * sum sigma_5(n) q^n.

Normalization j(i) = 1728; j_normalized = j / 1728 maps the well-rounded arc
|tau| = 1 onto [0, 1].
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .classes import TauQuadruple

MAX_IM = 100.0          # e^(2*pi*Im) overflows doubles near Im ~ 115
MAX_REDUCE_STEPS = 10_000
ZETA3 = 1.2020569031595943
ZETA5 = 1.0369277551433699
# Terms of the q-expansion. On the reduced domain 20 and 30 terms give
# bit-identical doubles (tests/test_modular.py holds the 30-term oracle).
J_TERMS = 20


@dataclass(frozen=True)
class JValue:
    value: complex
    est_error: float


@dataclass(frozen=True)
class BoundaryRealnessReport:
    max_boundary_im: float   # max |Im j| over boundary samples (should be ~0)
    min_interior_im: float   # min |Im j| over interior controls (should be >> 0)


def reduce_to_fundamental_domain(tau: complex) -> complex:
    """Translate/invert tau into {|Re| <= 1/2, |tau| >= 1}."""
    if tau.imag <= 0:
        raise ValueError("tau must lie in the open upper half-plane")
    for _ in range(MAX_REDUCE_STEPS):
        n = round(tau.real)
        tau = complex(tau.real - n, tau.imag)
        if abs(tau) < 1.0:
            tau = -1.0 / tau
        else:
            return tau
    raise ArithmeticError("fundamental-domain reduction did not converge")


def _nome(tau: complex) -> complex:
    """q = exp(2*pi*i*tau) with argument reduction on the phase.

    sin/cos of pi*t are taken at t reduced modulo 2 to the nearest integer,
    so the nome is exactly real on the rays Re tau = 0 and Re tau = 1/2
    (where 2*Re tau is an integer) instead of carrying an O(1e-16) phase
    residue that q^-1 would amplify.
    """
    radius = math.exp(-2.0 * math.pi * tau.imag)
    t = 2.0 * tau.real
    n = round(t)
    f = t - n  # exact when t is near an integer
    sign = 1.0 if n % 2 == 0 else -1.0
    return complex(radius * sign * math.cos(math.pi * f),
                   radius * sign * math.sin(math.pi * f))


def _divisor_power_sums(k: int) -> tuple[int, ...]:
    """sigma_k(n) for n = 1..J_TERMS."""
    return tuple(sum(d ** k for d in range(1, n + 1) if n % d == 0)
                 for n in range(1, J_TERMS + 1))


# the q^n coefficients of E4 and -E6 for n = 1..J_TERMS
_E4_COEFFS = tuple(240 * s for s in _divisor_power_sums(3))
_E6_COEFFS = tuple(504 * s for s in _divisor_power_sums(5))


def _geometric_tail(r: float, N: int, power: int) -> float:
    """Upper bound on sum_{n > N} n^power * r^n for small r."""
    ratio = r * 2.0 ** power
    if ratio >= 1.0:
        return math.inf
    return (N + 1) ** power * r ** (N + 1) / (1.0 - ratio)


def j_invariant(tau: complex) -> JValue:
    """Evaluate j(tau) with a truncation-error estimate.

    Rejects Im tau <= 0 and points whose reduced representative has
    Im tau > 100 (q^-1 would overflow).
    """
    tau = reduce_to_fundamental_domain(complex(tau))
    if tau.imag > MAX_IM:
        raise ValueError(f"Im tau = {tau.imag:g} too large after reduction "
                         f"(limit {MAX_IM:g})")

    q = _nome(tau)
    qn = 1.0 + 0.0j
    e4 = 1.0 + 0.0j
    e6 = 1.0 + 0.0j
    for c4, c6 in zip(_E4_COEFFS, _E6_COEFFS):
        qn *= q
        e4 += c4 * qn
        e6 -= c6 * qn

    e4cubed = e4 ** 3
    disc = e4cubed - e6 ** 2  # 1728 * normalized discriminant, nonzero on H
    value = 1728.0 * e4cubed / disc

    # sigma_3(n) <= zeta(3) n^3, sigma_5(n) <= zeta(5) n^5: geometric tails
    r = abs(q)
    d_e4 = 240 * ZETA3 * _geometric_tail(r, J_TERMS, 3)
    d_e6 = 504 * ZETA5 * _geometric_tail(r, J_TERMS, 5)
    d_num = 3 * abs(e4) ** 2 * d_e4
    d_den = d_num + 2 * abs(e6) * d_e6
    est_error = 1728.0 * (d_num / abs(disc)
                          + abs(e4cubed) * d_den / abs(disc) ** 2)
    return JValue(value=value, est_error=est_error)


def j_normalized(tau: complex) -> JValue:
    """j(tau) / 1728: maps the well-rounded arc onto the real interval [0, 1]."""
    jv = j_invariant(tau)
    return JValue(value=jv.value / 1728.0, est_error=jv.est_error / 1728.0)


def tau_of_quadruple(q: TauQuadruple) -> complex:
    """Floating-point tau = a/b + i*sqrt(c/d) for a class quadruple."""
    return complex(q.a / q.b, math.sqrt(q.c / q.d))


def boundary_realness_report(samples: int = 100) -> BoundaryRealnessReport:
    """Sample j along the three boundary components of the class space.

    Components: the unit arc theta in [pi/3, pi/2], the imaginary ray
    re = 0 with 1 <= im <= 3, and the ray re = 1/2 with sqrt(3)/2 <= im <= 3.
    Interior control points confirm that Im j is NOT small off the boundary.
    """
    if samples < 10:
        raise ValueError("samples must be >= 10")
    points: list[complex] = []
    for k in range(samples):
        t = k / (samples - 1)
        theta = math.pi / 3 + t * math.pi / 6
        points.append(cmath.exp(1j * theta))
        points.append(complex(0.0, 1.0 + t * 2.0))
        im0 = math.sqrt(3) / 2
        points.append(complex(0.5, im0 + t * (3.0 - im0)))
    max_boundary = max(abs(j_invariant(p).value.imag) for p in points)

    interior = [complex(0.25, 1.1), complex(0.1, 1.3), complex(0.4, 1.05),
                complex(0.3, 2.0), complex(0.15, 1.02)]
    min_interior = min(abs(j_invariant(p).value.imag) for p in interior)
    return BoundaryRealnessReport(max_boundary_im=max_boundary,
                                  min_interior_im=min_interior)


def classify_by_j(q: TauQuadruple) -> bool:
    """Well-roundedness verdict read off the j-invariant alone.

    True iff j(tau)/1728 is numerically real with real part in [0, 1].
    """
    jn = j_normalized(tau_of_quadruple(q)).value
    return abs(jn.imag) < 1e-6 and -1e-6 <= jn.real <= 1.0 + 1e-6
