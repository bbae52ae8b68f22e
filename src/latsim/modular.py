"""Numerical evaluation of the modular j-function on the upper half-plane.

j_invariant first reduces its input into the standard fundamental domain,
which pins |q| = exp(-2*pi*Im tau) <= exp(-pi*sqrt(3)) ~ 0.00433. There
Horner's rule sums the Eisenstein series E4 over its first J_TERMS terms,
the discriminant is q times the 24th power of Euler's pentagonal series
for prod (1 - q^n) (eta^24 = q * P^24), cut after q^7, and j is their
quotient:

    j = E4^3 / Delta,   E4 = 1 + 240 * sum sigma_3(n) q^n,
    Delta = q * P^24,   P = prod (1 - q^n)
                          = 1 - q - q^2 + q^5 + q^7 + O(q^12).

No step subtracts nearly equal numbers, so j keeps its relative accuracy up
to Im tau = MAX_IM. est_error bounds |j - j(tau)| at the double tau given:
the truncation tails of both series, the rounding of the nome, of the
Horner steps, of the pentagonal series and its power, of the cube and of
the quotient, and the rounding of each -1/tau step of the reduction,
carried to j through
|dj/dtau| = 2*pi*|E4|^2*|E6|/|Delta| with |E6| <= E6_BOUND. The bound is
first order in the unit roundoff.

Normalization j(i) = 1728; j_normalized = j / 1728 maps the well-rounded arc
|tau| = 1 onto [0, 1].

One strip test, _in_strip (|Re tau| <= 1/2, MIN_IM <= Im tau <= MAX_IM,
where |q| <= Q_MAX), refuses j_invariant's reduced points above MAX_IM,
and classify_by_j's and j_columns' points, taken as given, outside it; every
class point lies there (Im tau >= sqrt(3)/2). classify_by_j computes only
the value of j. j_columns applies the scalar series, bound (with no drift
term) and verdict to whole arrays; numpy's complex products and quotients
may round otherwise than CPython's, and the bound's rounding terms cover
both. The bound assumes numpy's float64 exp, sin and cos within 1 ULP, the
figure numpy's own accuracy tests hold them to, as of the math module's.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .classes import TauQuadruple

MAX_IM = 100.0          # e^(2*pi*Im) overflows doubles near Im ~ 115
MAX_REDUCE_STEPS = 10_000
ZETA3 = 1.2020569031595943
# Terms of E4's Horner sum: the fewest that give the doubles of 40 terms.
# With 10 the E4 tail is below 4.1e-21 (|q|^11 < 1.03e-26), and every class
# of height <= 30, 50,000 random points of the strip and the 405 points of
# the modular verify suite match 40 terms bit for bit; 9 terms differ at
# the class 1/2 + i*sqrt(7/9) (tests/test_modular.py checks both). The
# pentagonal series stops at q^7: its tail from q^12 on is below 4.6e-29
# relative to P, and cut after q^5 it changes j at the class (1, 2, 10, 13).
J_TERMS = 10
U = 2.0 ** -53          # unit roundoff of a double
Q_MAX = 0.00434         # |q| on the reduced domain, exp(-pi*sqrt(3)) rounded up
MIN_IM = -math.log(Q_MAX) / (2 * math.pi)   # Im tau where |q| = Q_MAX: 0.86578
E6_BOUND = 3.6          # |E6| <= 1 + 504 * sum sigma_5(n) Q_MAX^n = 3.51 there
# Relative rounding of -1/tau. CPython divides by Smith's method: 5U.
INVERSION_ROUNDING = 6 * U
# Relative rounding of a complex product (Brent, Percival, Zimmermann);
# numpy's products, which fuse one multiply and add per part, stay within
# 2U (Jeannerod, Kornerup, Louvet, Muller).
MUL_ROUNDING = math.sqrt(5) * U
# classify_by_j's tolerances on j/1728: |Im| below it, Re within it of [0, 1]
WR_TOLERANCE = 1e-6


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

    An inversion leaves |tau| > 1 exactly, so a point that needs no
    translation right after one and still reads |tau| < 1 lies on the unit
    arc within rounding; it is returned, as inverting it again would only
    map it back across the arc, round after round.
    """
    if tau.imag <= 0:
        raise ValueError("tau must lie in the open upper half-plane")
    drift = 0.0
    for step in range(MAX_REDUCE_STEPS):
        n = round(tau.real)
        tau = complex(tau.real - n, tau.imag)
        if abs(tau) >= 1.0 or (step and n == 0):
            return tau, drift
        drift += abs(tau) / tau.imag
        tau = -1.0 / tau
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
# J_TERMS (sigma_3(n) <= zeta(3) n^3); the Horner step k, (e4 + c_k) * q,
# rounds once in its real sum and once in its product, by U + MUL_ROUNDING
# relative to sum_{n >= k} c_n q^(n-k+1), which the steps after it scale by
# q^(k-1) to below sum c_n Q_MAX^n; the last sum 1 + e4 rounds by U.
_E4_ERROR = (240 * ZETA3 * _geometric_tail(Q_MAX, J_TERMS, 3)
             + (J_TERMS * (MUL_ROUNDING + U) + U)
             * (1.0 + sum(c * Q_MAX ** n for n, c in enumerate(_E4_COEFFS, 1))))
# Delta = q * P^24, relative. With P = 1 - x, |P| >= 1 - sum Q_MAX^n =
# (1 - 2*Q_MAX) / (1 - Q_MAX). Over |P|: the pentagonal tail, below
# |q|^12 / (1 - |q|), and the rounding of x, whose terms sum below
# Q_MAX / (1 - Q_MAX) and each pass at most 9 roundings of the nested
# products and sums (the q^7 term's; a sum rounds by U < MUL_ROUNDING);
# the last sum 1 - x rounds by U. All of it is taken 24 times by the power,
# whose 23 products and the one by q add one product each time.
_DELTA_ERROR = 24 * ((Q_MAX ** 12 + 9 * MUL_ROUNDING * Q_MAX)
                     / (1.0 - 2 * Q_MAX) + U + MUL_ROUNDING)
# relative rounding of j: Delta, e4**3 (two products) and the quotient
# (Smith's method, at most (4 + 2*sqrt(2))U as CPython divides, and one
# rounding more as numpy does, which multiplies by a rounded reciprocal)
_J_RELATIVE_ERROR = _DELTA_ERROR + 2 * MUL_ROUNDING + 8 * U


def _j_series(q):
    """(E4, Delta, E4^3 / Delta) at the nome q: E4 by Horner's rule over
    _E4_COEFFS, Delta = q * P^24 with P = prod (1 - q^n) from Euler's
    pentagonal series 1 - q - q^2 + q^5 + q^7; q is a complex or a complex
    column."""
    e4 = 0.0
    for c in reversed(_E4_COEFFS):
        e4 = (e4 + c) * q
    e4 += 1.0
    q2 = q * q
    q3 = q2 * q
    p = 1.0 - q * (1.0 + q * (1.0 - q3 * (1.0 + q2)))
    delta = q * p ** 24
    return e4, delta, e4 ** 3 / delta


def _error_bound(e4, delta, value, im, drift):
    """est_error of j = value (module docstring), from _j_series at a
    point of imaginary part im where |q| <= Q_MAX, which the reduction
    reached with this drift (0.0 for a point taken as given); for floats or
    for float columns."""
    # q is off by (1.35 * 2*pi*Im + 6.6)U relatively (exp, sin, cos and
    # math.pi), which moves tau by that over 2*pi; the reduction moves it
    # by the drift term
    shift = (1.5 * im + 1.2) * U + INVERSION_ROUNDING * im * drift
    # |E4 - e4| <= d moves the cube by at most (|e4| + d)^3 - |e4|^3; a
    # move of tau costs |dj/dtau| <= 2*pi*|E4|^2*E6_BOUND/|Delta| per unit
    e4_max = abs(e4) + _E4_ERROR
    abs_delta = abs(delta)
    return ((e4_max ** 3 - abs(e4) ** 3) / abs_delta
            + abs(value) * _J_RELATIVE_ERROR
            + 2 * math.pi * e4_max ** 2 * E6_BOUND / abs_delta * shift)


_STRIP = f"|Re tau| <= 1/2 and {MIN_IM:.5f} <= Im tau <= {MAX_IM:g}"


def _in_strip(tau):
    """True where tau lies in the strip _STRIP (not at NaN); for a complex
    or for a complex column."""
    return (abs(tau.real) <= 0.5) & (tau.imag >= MIN_IM) & (tau.imag <= MAX_IM)


def j_invariant(tau: complex) -> JValue:
    """Evaluate j(tau) with a bound on its error (module docstring).

    Rejects Im tau <= 0 and a reduced point outside the strip
    (_in_strip): one with Im tau > MAX_IM, where q^-1 would overflow.
    """
    tau, drift = reduce_to_fundamental_domain(complex(tau))
    if not _in_strip(tau):
        raise ValueError(f"Im tau = {tau.imag:g} too large after reduction "
                         f"(limit {MAX_IM:g})")
    e4, delta, value = _j_series(_nome(tau))
    return JValue(value=value,
                  est_error=_error_bound(e4, delta, value, tau.imag, drift))


def _nome_columns(tau: np.ndarray) -> np.ndarray:
    """_nome of each entry, in the same steps."""
    radius = np.exp(-2.0 * math.pi * tau.imag)
    t = 2.0 * tau.real
    n = np.round(t)
    f = t - n
    radius[n % 2 != 0] *= -1.0
    q = np.empty(tau.shape, dtype=complex)
    q.real = radius * np.cos(math.pi * f)
    q.imag = radius * np.sin(math.pi * f)
    return q


def j_columns(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """j_invariant of each entry of a 1-d complex column in the strip
    (_in_strip, module docstring): the columns of values and of est_error.
    Rejects any other entry."""
    tau = np.asarray(tau, dtype=complex)
    if tau.ndim != 1:
        raise ValueError("need a 1-d column of points")
    if not _in_strip(tau).all():
        raise ValueError(f"j_columns does not reduce: need {_STRIP}")
    e4, delta, value = _j_series(_nome_columns(tau))
    return value, _error_bound(e4, delta, value, tau.imag, 0.0)


def j_normalized(tau: complex) -> JValue:
    """j(tau) / 1728: maps the well-rounded arc onto the real interval [0, 1]."""
    jv = j_invariant(tau)
    return JValue(value=jv.value / 1728.0, est_error=jv.est_error / 1728.0)


def tau_of_quadruple(q: TauQuadruple) -> complex:
    """Floating-point tau = a/b + i*sqrt(c/d) for a class quadruple."""
    return complex(q.a / q.b, math.sqrt(q.c / q.d))


def tau_of_columns(a, b, c, d) -> np.ndarray:
    """tau_of_quadruple of each row of int64 columns (or ints) a, b, c, d.

    With every entry below 2^53 the int64 quotients convert exactly and
    round once, so each tau equals the scalar's bit for bit.
    """
    a, b, c, d = np.broadcast_arrays(*(np.asarray(x, dtype=np.int64)
                                       for x in (a, b, c, d)))
    if a.size and max(np.abs(x).max() for x in (a, b, c, d)) >= 2 ** 53:
        raise ValueError("need entries below 2^53")
    tau = np.empty(a.shape, dtype=complex)
    tau.real = a / b
    tau.imag = np.sqrt(c / d)
    return tau


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


def _wr_verdict(jn):
    """True where j/1728 = jn is numerically real with real part in
    [0, 1]; for a complex or for a complex column."""
    return ((abs(jn.imag) < WR_TOLERANCE) & (jn.real >= -WR_TOLERANCE)
            & (jn.real <= 1.0 + WR_TOLERANCE))


def classify_by_j(q: TauQuadruple) -> bool:
    """Well-roundedness verdict read off the j-invariant alone.

    True iff j(tau)/1728 is numerically real with real part in [0, 1]. The
    class point is taken as given, as j_columns takes it, and refused
    outside the strip (_in_strip); only the value of j is computed.
    """
    tau = tau_of_quadruple(q)
    if not _in_strip(tau):
        raise ValueError(f"classify_by_j does not reduce: need {_STRIP}")
    return _wr_verdict(_j_series(_nome(tau))[2] / 1728.0)


def classify_by_j_columns(a, b, c, d) -> np.ndarray:
    """classify_by_j of each row of int64 columns a, b, c, d, as a bool
    column: the same verdict rule on j_columns."""
    value, _ = j_columns(tau_of_columns(a, b, c, d))
    return _wr_verdict(value / 1728.0)
