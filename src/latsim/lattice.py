"""Exact planar lattice geometry over the rationals.

Bases and Gram forms carry Fraction entries; reduction, successive minima,
the canonical fundamental-domain representative, and the geometric predicates
(well-rounded, semi-stable, stable, arithmetic) never take a square root:
everything is decided on squared quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Vec = tuple[Fraction, Fraction]


def _frac_pair(v) -> Vec:
    return (Fraction(v[0]), Fraction(v[1]))


@dataclass(frozen=True)
class PlanarLattice:
    """Full-rank planar lattice given by two basis column vectors."""

    v1: Vec
    v2: Vec

    def __init__(self, v1, v2):
        object.__setattr__(self, "v1", _frac_pair(v1))
        object.__setattr__(self, "v2", _frac_pair(v2))
        if self.det == 0:
            raise ValueError("basis is singular")

    @property
    def det(self) -> Fraction:
        return self.v1[0] * self.v2[1] - self.v1[1] * self.v2[0]


@dataclass(frozen=True)
class GramForm:
    """Positive definite binary quadratic form (Gram matrix of a basis)."""

    g11: Fraction
    g12: Fraction
    g22: Fraction

    def __init__(self, g11, g12, g22):
        object.__setattr__(self, "g11", Fraction(g11))
        object.__setattr__(self, "g12", Fraction(g12))
        object.__setattr__(self, "g22", Fraction(g22))
        if not (self.g11 > 0 and self.g22 > 0 and self.det > 0):
            raise ValueError("Gram form is not positive definite")

    @property
    def det(self) -> Fraction:
        return self.g11 * self.g22 - self.g12 * self.g12

    def value(self, x: int, y: int) -> Fraction:
        """Squared norm of x*v1 + y*v2."""
        return self.g11 * x * x + 2 * self.g12 * x * y + self.g22 * y * y


@dataclass(frozen=True)
class HalfPlanePoint:
    """Upper half-plane point with rational real part and squared imaginary
    part; the imaginary part itself is generally irrational."""

    re: Fraction
    im_sq: Fraction

    def __init__(self, re, im_sq):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im_sq", Fraction(im_sq))
        if self.im_sq <= 0:
            raise ValueError("point must lie in the open upper half-plane")

    @property
    def im(self) -> float:
        return math.sqrt(self.im_sq)


class CanonicalTau(HalfPlanePoint):
    """The unique representative of a similarity class: 0 <= re <= 1/2 and
    re^2 + im_sq >= 1."""

    def __init__(self, re, im_sq):
        super().__init__(re, im_sq)
        if not (0 <= self.re <= Fraction(1, 2)):
            raise ValueError("re outside [0, 1/2]")
        if self.re * self.re + self.im_sq < 1:
            raise ValueError("|tau| < 1: outside the fundamental domain")


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 integer matrix with determinant +1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must be +1")

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        return UnimodularMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @classmethod
    def identity(cls) -> "UnimodularMatrix":
        return cls(1, 0, 0, 1)

    @classmethod
    def inversion(cls) -> "UnimodularMatrix":
        """S = (0, -1; 1, 0), tau -> -1/tau."""
        return cls(0, -1, 1, 0)

    @classmethod
    def translation(cls, n: int = 1) -> "UnimodularMatrix":
        """T^n = (1, n; 0, 1), tau -> tau + n."""
        return cls(1, n, 0, 1)


def gram(lattice: PlanarLattice) -> GramForm:
    """Exact Gram form A^t A of the basis matrix."""
    v1, v2 = lattice.v1, lattice.v2
    return GramForm(
        v1[0] * v1[0] + v1[1] * v1[1],
        v1[0] * v2[0] + v1[1] * v2[1],
        v2[0] * v2[0] + v2[1] * v2[1],
    )


def _round_ties_to_zero(q: Fraction) -> int:
    """Nearest integer to q, ties broken toward zero."""
    n, d = q.numerator, q.denominator
    if n >= 0:
        # floor((2n + d - 1) / 2d) rounds .5 down
        return (2 * n + d - 1) // (2 * d)
    return -((-2 * n + d - 1) // (2 * d))


def reduce_gram(form: GramForm) -> tuple[GramForm, tuple[int, int, int, int]]:
    """Lagrange-reduce a positive definite form.

    Returns the reduced form with 0 <= 2*g12 <= g11 <= g22 together with the
    integer change-of-basis matrix U (column-major entries u11, u21, u12, u22,
    det +-1) such that the new basis vectors are integer combinations
    w1 = u11*v1 + u21*v2, w2 = u12*v1 + u22*v2 of the old ones.
    """
    g11, g12, g22 = form.g11, form.g12, form.g22
    u11, u21, u12, u22 = 1, 0, 0, 1
    while True:
        if g11 > g22:
            g11, g22 = g22, g11
            u11, u21, u12, u22 = u12, u22, u11, u21
        m = _round_ties_to_zero(g12 / g11)
        if m != 0:
            # v2 -= m*v1
            g22 = g22 - 2 * m * g12 + m * m * g11
            g12 = g12 - m * g11
            u12 -= m * u11
            u22 -= m * u21
        if g11 <= g22 and 2 * abs(g12) <= g11:
            break
    if g12 < 0:
        g12 = -g12
        u12, u22 = -u12, -u22
    return GramForm(g11, g12, g22), (u11, u21, u12, u22)


def gauss_reduce(lattice: PlanarLattice) -> tuple[PlanarLattice, Fraction, Fraction]:
    """Minimal basis of a lattice with its exact squared successive minima.

    The returned basis (x, y) satisfies |x|^2 = lambda1^2, |y|^2 = lambda2^2,
    and 0 <= <x, y> <= |x|^2 / 2 (angle in [pi/3, pi/2]).
    """
    reduced, (u11, u21, u12, u22) = reduce_gram(gram(lattice))
    v1, v2 = lattice.v1, lattice.v2
    w1 = (u11 * v1[0] + u21 * v2[0], u11 * v1[1] + u21 * v2[1])
    w2 = (u12 * v1[0] + u22 * v2[0], u12 * v1[1] + u22 * v2[1])
    return PlanarLattice(w1, w2), reduced.g11, reduced.g22


GramLike = Union[PlanarLattice, GramForm]


def _as_gram(obj: GramLike) -> GramForm:
    if isinstance(obj, PlanarLattice):
        return gram(obj)
    return obj


def canonical_tau(obj: GramLike) -> CanonicalTau:
    """Fundamental-domain representative of the similarity class.

    With a minimal basis (x, y): re = |<x,y>| / |x|^2 and
    im_sq = (|x|^2 |y|^2 - <x,y>^2) / |x|^4, both exact rationals.
    """
    reduced, _ = reduce_gram(_as_gram(obj))
    re = reduced.g12 / reduced.g11
    im_sq = reduced.det / (reduced.g11 * reduced.g11)
    return CanonicalTau(re, im_sq)


def tau_gram(point: HalfPlanePoint) -> GramForm:
    """Gram form of the lattice spanned by (1, 0) and (re, im)."""
    return GramForm(1, point.re, point.re * point.re + point.im_sq)


def successive_minima_sq(obj: GramLike) -> tuple[Fraction, Fraction]:
    """Exact (lambda1^2, lambda2^2)."""
    reduced, _ = reduce_gram(_as_gram(obj))
    return reduced.g11, reduced.g22


def is_well_rounded(obj: GramLike) -> bool:
    """lambda1 = lambda2, decided on exact squared minima."""
    l1, l2 = successive_minima_sq(obj)
    return l1 == l2


def is_semistable(obj: GramLike) -> bool:
    """lambda1 >= det^(1/2), i.e. lambda1^4 >= det(Gram)."""
    form = _as_gram(obj)
    l1, _ = successive_minima_sq(form)
    return l1 * l1 >= form.det


def is_stable(obj: GramLike) -> bool:
    """Strict variant of is_semistable."""
    form = _as_gram(obj)
    l1, _ = successive_minima_sq(form)
    return l1 * l1 > form.det


def is_arithmetic(obj: Union[GramLike, HalfPlanePoint]) -> bool:
    """Gram entries span a one-dimensional Q-vector space.

    Identically true for rational Gram data, which is all this library
    represents; the predicate exists so callers can assert it on arbitrary
    inputs (a HalfPlanePoint is arithmetic iff re and im_sq are rational,
    which its type already guarantees).
    """
    if isinstance(obj, HalfPlanePoint):
        return True
    _as_gram(obj)
    return True


def modular_act(g: UnimodularMatrix, tau: HalfPlanePoint) -> HalfPlanePoint:
    """Fractional linear action tau -> (a*tau + b) / (c*tau + d), exact.

    Im g(tau) = Im tau / |c*tau + d|^2, and |c*tau + d|^2 is rational when
    re and im_sq are, so the result is exact.
    """
    x, ysq = tau.re, tau.im_sq
    den = (g.c * x + g.d) ** 2 + g.c * g.c * ysq
    re = ((g.a * x + g.b) * (g.c * x + g.d) + g.a * g.c * ysq) / den
    return HalfPlanePoint(re, ysq / (den * den))
