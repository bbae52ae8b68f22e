"""Numerical evaluation of the modular j-function on the upper half-plane.

Inputs are first reduced into the standard fundamental domain, which pins
|q| = exp(-2*pi*Im tau) <= exp(-pi*sqrt(3)) ~ 0.00433. There one loop over
q^n, n <= J_TERMS, builds the Eisenstein series E4 and the discriminant
from its product, and j is their quotient:

    j = E4^3 / Delta,   E4 = 1 + 240 * sum sigma_3(n) q^n,
    Delta = q * prod (1 - q^n)^24.

No step subtracts nearly equal numbers, so j keeps its relative accuracy up
to Im tau = MAX_IM. est_error bounds |j - j(tau)| at the double tau given:
the truncation tails of both series, the rounding of the nome, of the E4
sum, of the product, of the cube and of the quotient, and the rounding of
each -1/tau step of the reduction, carried to j through
|dj/dtau| = 2*pi*|E4|^2*|E6|/|Delta| with |E6| <= E6_BOUND. The bound is
first order in the unit roundoff.

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
# Terms of both series. |q|^21 < 3e-50, so 20 and 30 terms give
# bit-identical doubles on the reduced domain (tests/test_modular.py).
J_TERMS = 20
U = 2.0 ** -53          # unit roundoff of a double
Q_MAX = 0.00434         # |q| on the reduced domain, exp(-pi*sqrt(3)) rounded up
E6_BOUND = 3.6          # |E6| <= 1 + 504 * sum sigma_5(n) Q_MAX^n = 3.51 there
# Relative rounding of -1/tau. CPython divides by Smith's method: 5U.
INVERSION_ROUNDING = 6 * U
# Relative rounding of a complex product (Brent, Percival, Zimmermann).
MUL_ROUNDING = math.sqrt(5) * U


@dataclass(frozen=True)
class JValue:
    value: complex
    est_error: float


@dataclass(frozen=True)
class BoundaryRealnessReport:
    max_boundary_im: float   # max |Im j| over boundary samples (should be ~0)
    min_interior_im: float   # min |Im j| over interior controls (should be >> 0)


def reduce_to_fundamental_domain(tau: complex) -> tuple[complex, float]:
    """Translate/invert tau into {|Re| <= 1/2, |tau| >= 1}.

    Returns the reduced point and the sum of |tau|/Im tau over the points
    that were inverted. Translations are exact. A rounded -1/tau is off by
    at most INVERSION_ROUNDING*|tau|, which the exact map onward scales by
    Im(reduced)/Im(tau); so the reduced point is off by at most
    INVERSION_ROUNDING * Im(reduced) * sum.
    """
    if tau.imag <= 0:
        raise ValueError("tau must lie in the open upper half-plane")
    drift = 0.0
    for _ in range(MAX_REDUCE_STEPS):
        n = round(tau.real)
        tau = complex(tau.real - n, tau.imag)
        if abs(tau) < 1.0:
            drift += abs(tau) / tau.imag
            tau = -1.0 / tau
        else:
            return tau, drift
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


# the q^n coefficients 240 * sigma_3(n) of E4 for n = 1..J_TERMS
_E4_COEFFS = tuple(240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
                   for n in range(1, J_TERMS + 1))


def _geometric_tail(r: float, N: int, power: int) -> float:
    """Upper bound on sum_{n > N} n^power * r^n for small r."""
    return (N + 1) ** power * r ** (N + 1) / (1.0 - r * 2.0 ** power)


# Error bounds at |q| <= Q_MAX, first order in U. E4: the tail past
# J_TERMS (sigma_3(n) <= zeta(3) n^3); each term c*q^n off by n products and
# one rounding, each addition by U times a partial sum, and every partial
# sum below 1 + sum c*Q_MAX^n.
_E4_ERROR = (240 * ZETA3 * _geometric_tail(Q_MAX, J_TERMS, 3)
             + J_TERMS * (MUL_ROUNDING + 2 * U)
             * (1.0 + sum(c * Q_MAX ** n for n, c in enumerate(_E4_COEFFS, 1))))
# Delta = q * P^24, relative: the tail 24 * sum_{n > J} |log(1 - q^n)|; in P
# each 1 - q^n off by U (its q^n adds below one product) and J_TERMS
# products, all taken 24 times by the power, whose 23 products and the one
# by q add one more product each time
_DELTA_ERROR = 24 * (_geometric_tail(Q_MAX, J_TERMS, 0) / (1.0 - Q_MAX)
                     + J_TERMS * U + (J_TERMS + 2) * MUL_ROUNDING)
# relative rounding of j: Delta, e4**3 (two products) and the quotient
# (Smith's method, at most (4 + 2*sqrt(2))U)
_J_RELATIVE_ERROR = _DELTA_ERROR + 2 * MUL_ROUNDING + 7 * U


def j_invariant(tau: complex) -> JValue:
    """Evaluate j(tau) with a bound on its error (module docstring).

    Rejects Im tau <= 0 and points whose reduced representative has
    Im tau > 100 (q^-1 would overflow).
    """
    tau, drift = reduce_to_fundamental_domain(complex(tau))
    if tau.imag > MAX_IM:
        raise ValueError(f"Im tau = {tau.imag:g} too large after reduction "
                         f"(limit {MAX_IM:g})")

    q = _nome(tau)
    qn = e4 = prod = 1.0 + 0.0j
    for c in _E4_COEFFS:
        qn *= q
        e4 += c * qn
        prod *= 1.0 - qn
    delta = q * prod ** 24
    value = e4 ** 3 / delta

    # q is off by (1.35 * 2*pi*Im + 6.6)U relatively (exp, sin, cos and
    # math.pi), which moves tau by that over 2*pi; the reduction moves it
    # by the drift term
    shift = ((1.5 * tau.imag + 1.2) * U
             + INVERSION_ROUNDING * tau.imag * drift)
    # |E4 - e4| <= d moves the cube by at most (|e4| + d)^3 - |e4|^3; a
    # move of tau costs |dj/dtau| <= 2*pi*|E4|^2*E6_BOUND/|Delta| per unit
    e4_max = abs(e4) + _E4_ERROR
    abs_delta = abs(delta)
    est_error = ((e4_max ** 3 - abs(e4) ** 3) / abs_delta
                 + abs(value) * _J_RELATIVE_ERROR
                 + 2 * math.pi * e4_max ** 2 * E6_BOUND / abs_delta * shift)
    return JValue(value=value, est_error=est_error)


def j_normalized(tau: complex) -> JValue:
    """j(tau) / 1728: maps the well-rounded arc onto the real interval [0, 1]."""
    jv = j_invariant(tau)
    return JValue(value=jv.value / 1728.0, est_error=jv.est_error / 1728.0)


def tau_of_quadruple(q: TauQuadruple) -> complex:
    """Floating-point tau = a/b + i*sqrt(c/d) for a class quadruple."""
    return complex(q.a / q.b, math.sqrt(q.c / q.d))


def boundary_realness_report() -> BoundaryRealnessReport:
    """Sample j at 100 evenly spaced points on each of the three boundary
    components of the class space.

    Components: the unit arc theta in [pi/3, pi/2], the imaginary ray
    re = 0 with 1 <= im <= 3, and the ray re = 1/2 with sqrt(3)/2 <= im <= 3.
    Interior control points confirm that Im j is NOT small off the boundary.
    """
    points: list[complex] = []
    for k in range(100):
        t = k / 99
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
