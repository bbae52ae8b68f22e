"""Exact planar lattice geometry over the rationals.

Half-plane points and Gram forms hold integers. A point with re = p/q and
im_sq = r/s holds (p, q, r, s) in lowest terms; a form holds its primitive
integer form (A, B, C) and the scale num/den, in lowest terms, that takes it
to the rational form. Their Fraction entries are read-only properties: a
point's re and im_sq are built on their first read and cached, a form's
g11, g12 and g22 are built on each read; equality and hash run on the
integers. Bases (PlanarLattice) keep Fraction entries; the rest of the layer
takes GramForms, and a basis enters it through gram.

Every decision runs on integers. The GramForm constructor scales the form to
its primitive integer form and Lagrange-reduces it, once per form, keeping
_lagrange's (a, b, c, u) as the form's _reduction.
Successive minima, the canonical fundamental-domain representative and the
predicates (well-rounded, semi-stable, stable) are read off the reduced
integer form, and constructors validate by integer cross-multiplication.
Code that already holds the integers passes them on, and the checks run on
them: tau_gram hands a point's integer form to the form's check and
reduction, and canonical_tau and modular_act build points with
HalfPlanePoint.from_integers; TauQuadruple.tau, whose own check is
CanonicalTau's, hands over its entries as they are. Nothing takes a square
root: everything is decided on squared quantities. tau_gram's integer form
is written out once, in tau_gram_entries; class_form_columns, the
CanonicalTau check and classes' height bound call it too.

class_form_columns is the column entry: for int64 class columns (a, b, c, d)
it returns tau_gram's primitive integer form at tau = a/b + i sqrt(c/d) and
whether each row is reduced, with no reduction loop. A reduced row is the
form's Lagrange reduction, so the scalar and column paths read the
predicates (is_wr_reduced, is_semistable_reduced) and the canonical tau
(canonical_tau_entries) off it with the same helpers.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction

import numpy as np

Vec = tuple[Fraction, Fraction]

# the frozen dataclasses below set their fields through this in their
# constructors
_setattr = object.__setattr__

# Largest entry of the columns that class_form_columns takes. With every
# entry in [0, T], each form entry is at most 2T^3, A^2 and AC - B^2 are at
# most 2T^6 in size, and each of those times one more entry (the canonical
# tau's cross-multiplication against a/b and c/d) at most 2T^7 < 2^63.
MAX_COLUMN_HEIGHT = 463


def _lagrange(a: int, b: int, c: int):
    """Lagrange-reduce the positive definite integer form (a, b, c).

    Returns (a, b, c, u) with 0 <= 2b <= a <= c and u as in reduce_gram.
    Each step subtracts m = round(b/a) times the first basis vector from the
    second, ties rounded toward zero.
    """
    u11, u21, u12, u22 = 1, 0, 0, 1
    while True:
        if a > c:
            a, c = c, a
            u11, u21, u12, u22 = u12, u22, u11, u21
        if b >= 0:
            # floor((2b + a - 1) / 2a) rounds .5 down
            m = (2 * b + a - 1) // (2 * a)
        else:
            m = -((a - 2 * b - 1) // (2 * a))
        if m:
            # v2 -= m*v1
            c += m * (m * a - 2 * b)
            b -= m * a
            u12 -= m * u11
            u22 -= m * u21
        if a <= c and 2 * abs(b) <= a:
            break
    if b < 0:
        b = -b
        u12, u22 = -u12, -u22
    return a, b, c, (u11, u21, u12, u22)


@dataclass(frozen=True)
class PlanarLattice:
    """Full-rank planar lattice given by two basis column vectors."""

    v1: Vec
    v2: Vec

    def __init__(self, v1, v2):
        _setattr(self, "v1", (Fraction(v1[0]), Fraction(v1[1])))
        _setattr(self, "v2", (Fraction(v2[0]), Fraction(v2[1])))
        if self.det == 0:
            raise ValueError("basis is singular")

    @property
    def det(self) -> Fraction:
        return self.v1[0] * self.v2[1] - self.v1[1] * self.v2[0]


class _Exact:
    """Base of the integer-backed types below. Instances are read-only, as
    a frozen dataclass's are: constructors write their slots through the
    slot setters _SET_*, and pickle and copy rebuild an instance through
    its constructor (__reduce__). Within one class, equality and hash run
    on the integer tuple _ints."""

    __slots__ = ("_ints",)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._ints == other._ints
        return NotImplemented

    def __hash__(self):
        return hash(self._ints)


class GramForm(_Exact):
    """Positive definite binary quadratic form (Gram matrix of a basis).

    The form is num/den times the primitive integer form A x^2 + 2B xy +
    C y^2, held as _ints = (A, B, C, num, den) with num/den in lowest
    terms. Each constructor checks it and Lagrange-reduces (A, B, C), once,
    into _reduction = _lagrange(A, B, C): the reduced form, which num/den
    scales as it scales (A, B, C), and the change of basis u that reaches it.
    The entries g11, g12, g22 are Fractions built anew on each read.
    """

    __slots__ = ("_reduction",)

    def __init__(self, g11, g12, g22):
        g11, g12, g22 = Fraction(g11), Fraction(g12), Fraction(g22)
        d11, d12, d22 = g11.denominator, g12.denominator, g22.denominator
        den = math.lcm(d11, d12, d22)
        self._reduce(g11.numerator * (den // d11),
                     g12.numerator * (den // d12),
                     g22.numerator * (den // d22), den)

    def _reduce(self, a: int, b: int, c: int, den: int) -> None:
        """Check the form (a, b, c)/den, integers with den >= 1, and set its
        primitive integer form (a, b, c)/gcd(a, b, c), its scale and its
        reduction. The constructor and tau_gram call it."""
        if not (a > 0 and c > 0 and a * c > b * b):
            raise ValueError("Gram form is not positive definite")
        num = math.gcd(a, b, c)
        a, b, c = a // num, b // num, c // num
        g = math.gcd(num, den)
        num, den = num // g, den // g
        self._set((a, b, c, num, den), _lagrange(a, b, c))

    def _set(self, ints: tuple[int, int, int, int, int],
             reduction: tuple) -> None:
        _SET_INTS(self, ints)
        _SET_REDUCTION(self, reduction)

    @property
    def g11(self) -> Fraction:
        a, _, _, num, den = self._ints
        return Fraction(a * num, den)

    @property
    def g12(self) -> Fraction:
        _, b, _, num, den = self._ints
        return Fraction(b * num, den)

    @property
    def g22(self) -> Fraction:
        _, _, c, num, den = self._ints
        return Fraction(c * num, den)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(g11={self.g11!r}, "
                f"g12={self.g12!r}, g22={self.g22!r})")

    def __reduce__(self):
        return type(self), (self.g11, self.g12, self.g22)

    @property
    def det(self) -> Fraction:
        a, b, c, num, den = self._ints
        return Fraction(num * num * (a * c - b * b), den * den)

    def value(self, x: int, y: int) -> Fraction:
        """Squared norm of x*v1 + y*v2."""
        a, b, c, num, den = self._ints
        return Fraction(num * (a * x * x + 2 * b * x * y + c * y * y), den)


class HalfPlanePoint(_Exact):
    """Upper half-plane point with rational real part re = p/q and squared
    imaginary part im_sq = r/s, held as _ints = (p, q, r, s) in lowest terms
    with q, s >= 1. re and im_sq are Fractions built on first read and kept
    in slots that start as None. The imaginary part itself is generally
    irrational."""

    __slots__ = ("_re", "_im_sq")

    def __init__(self, re, im_sq):
        re, im_sq = Fraction(re), Fraction(im_sq)
        p, q = re.numerator, re.denominator
        r, s = im_sq.numerator, im_sq.denominator
        self._check(p, q, r, s)
        self._set((p, q, r, s))

    @classmethod
    def from_integers(cls, p: int, q: int, r: int, s: int) -> "HalfPlanePoint":
        """The point with re = p/q and im_sq = r/s, integers with q, s >= 1,
        checked as the constructor checks."""
        if q < 1 or s < 1:
            raise ValueError("denominators must be >= 1")
        cls._check(p, q, r, s)
        g, h = math.gcd(p, q), math.gcd(r, s)
        return cls._of_lowest_terms((p // g, q // g, r // h, s // h))

    @classmethod
    def _of_lowest_terms(cls, ints: tuple[int, int, int, int]
                         ) -> "HalfPlanePoint":
        """The point with _ints = ints, unchecked: for callers whose own
        checks imply cls._check's and gcd(p, q) = gcd(r, s) = 1."""
        point = _new(cls)
        point._set(ints)
        return point

    @staticmethod
    def _check(p: int, q: int, r: int, s: int) -> None:
        """Raise unless re = p/q and im_sq = r/s (q, s >= 1) name a point of
        this class; every test is scale-free, so p/q, r/s need not be in
        lowest terms."""
        if r <= 0:
            raise ValueError("point must lie in the open upper half-plane")

    def _set(self, ints: tuple[int, int, int, int]) -> None:
        _SET_INTS(self, ints)
        _SET_RE(self, None)
        _SET_IM_SQ(self, None)

    @property
    def re(self) -> Fraction:
        if self._re is None:
            p, q, _, _ = self._ints
            _SET_RE(self, Fraction(p, q))
        return self._re

    @property
    def im_sq(self) -> Fraction:
        if self._im_sq is None:
            _, _, r, s = self._ints
            _SET_IM_SQ(self, Fraction(r, s))
        return self._im_sq

    @property
    def im(self) -> float:
        # r / s rounds once, as float(im_sq) does
        _, _, r, s = self._ints
        return math.sqrt(r / s)

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(re={self.re!r}, "
                f"im_sq={self.im_sq!r})")

    def __reduce__(self):
        return type(self), (self.re, self.im_sq)


class CanonicalTau(HalfPlanePoint):
    """The unique representative of a similarity class: 0 <= re <= 1/2 and
    re^2 + im_sq >= 1."""

    __slots__ = ()

    @staticmethod
    def _check(p: int, q: int, r: int, s: int) -> None:
        HalfPlanePoint._check(p, q, r, s)
        if not (0 <= p and 2 * p <= q):
            raise ValueError("re outside [0, 1/2]")
        # re^2 + im_sq >= 1 times q^2 s
        big_a, _, big_c = tau_gram_entries(p, q, r, s)
        if big_c < big_a:
            raise ValueError("|tau| < 1: outside the fundamental domain")


_new = object.__new__
# the slots' own setters, which the constructors above write through
_SET_INTS = _Exact._ints.__set__
_SET_REDUCTION = GramForm._reduction.__set__
_SET_RE = HalfPlanePoint._re.__set__
_SET_IM_SQ = HalfPlanePoint._im_sq.__set__


@dataclass(frozen=True)
class UnimodularMatrix:
    """2x2 integer matrix with determinant +1."""

    a: int
    b: int
    c: int
    d: int

    def __init__(self, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError("determinant must be +1")
        # one call sets all four fields: products build many matrices
        _setattr(self, "__dict__", {"a": a, "b": b, "c": c, "d": d})

    def __matmul__(self, other: "UnimodularMatrix") -> "UnimodularMatrix":
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return UnimodularMatrix(a * e + b * g, a * f + b * h,
                                c * e + d * g, c * f + d * h)

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


def reduce_gram(form: GramForm) -> tuple[GramForm, tuple[int, int, int, int]]:
    """Lagrange-reduce a positive definite form.

    Returns the reduced form with 0 <= 2*g12 <= g11 <= g22 together with the
    integer change-of-basis matrix U (column-major entries u11, u21, u12, u22,
    det +-1) such that the new basis vectors are integer combinations
    w1 = u11*v1 + u21*v2, w2 = u12*v1 + u22*v2 of the old ones.
    """
    a, b, c, u = form._reduction
    # a reduced primitive form is its own reduction, with u = 1
    reduced = _new(GramForm)
    reduced._set((a, b, c) + form._ints[3:], (a, b, c, (1, 0, 0, 1)))
    return reduced, u


def canonical_tau_entries(a, b, c):
    """(p, q, r, s) with re = p/q and im_sq = r/s, the canonical tau of the
    reduced form (a, b, c). Takes ints, or int64 columns."""
    return b, a, a * c - b * b, a * a


def canonical_tau(form: GramForm) -> CanonicalTau:
    """Fundamental-domain representative of the similarity class.

    With a minimal basis (x, y): re = |<x,y>| / |x|^2 and
    im_sq = (|x|^2 |y|^2 - <x,y>^2) / |x|^4, both exact rationals.
    """
    return CanonicalTau.from_integers(
        *canonical_tau_entries(*form._reduction[:3]))


def tau_gram_entries(p, q, r, s):
    """(q^2 s, pqs, p^2 s + r q^2): the Gram form of the lattice spanned by
    (1, 0) and (re, im), with re = p/q and im_sq = r/s, times q^2 s. Takes
    ints, or int64 columns."""
    qs = q * s
    return q * qs, p * qs, p * p * s + r * q * q


def tau_gram(point: HalfPlanePoint) -> GramForm:
    """Gram form of the lattice spanned by (1, 0) and (re, im): the integer
    form tau_gram_entries over its first entry."""
    den, b, c = tau_gram_entries(*point._ints)
    form = _new(GramForm)
    form._reduce(den, b, c, den)
    return form


def class_form_columns(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                       d: np.ndarray) -> tuple[np.ndarray, ...]:
    """The primitive integer form (A, B, C) of tau_gram at tau = a/b +
    i sqrt(c/d), for int64 columns, and a bool column: 0 <= 2B <= A <= C.

    The form is tau_gram_entries(a, b, c, d) divided by its gcd. On a
    reduced form _lagrange stops at its first step with u = 1, so a reduced
    row is the form's _reduction[:3]: no row is reduced here. Raises unless
    every entry lies in [0, MAX_COLUMN_HEIGHT].
    """
    for col in (a, b, c, d):
        if col.size and not 0 <= col.min() <= col.max() <= MAX_COLUMN_HEIGHT:
            raise ValueError(f"column entries must lie in "
                             f"[0, {MAX_COLUMN_HEIGHT}] (int64 range)")
    form = np.stack(tau_gram_entries(a, b, c, d))
    form //= np.gcd.reduce(form)
    big_a, big_b, big_c = form
    return (big_a, big_b, big_c,
            (0 <= big_b) & (2 * big_b <= big_a) & (big_a <= big_c))


def is_wr_reduced(a, b, c):
    """The well-rounded rule on a reduced form (a, b, c): a = c. Takes ints,
    or int64 columns for a bool column."""
    return a == c


def is_semistable_reduced(a, b, c):
    """The semi-stable rule on a reduced form (a, b, c): a^2 >= ac - b^2.
    Takes ints, or int64 columns for a bool column."""
    return a * a >= a * c - b * b


def is_well_rounded(form: GramForm) -> bool:
    """lambda1 = lambda2, decided on the reduced integer form."""
    return is_wr_reduced(*form._reduction[:3])


def is_semistable(form: GramForm) -> bool:
    """lambda1 >= det^(1/2), i.e. lambda1^4 >= det(Gram): A^2 >= AC - B^2
    on the reduced integer form, which has the same determinant up to the
    square of the scale."""
    return is_semistable_reduced(*form._reduction[:3])


def is_stable(form: GramForm) -> bool:
    """Strict variant of is_semistable."""
    a, b, c, _ = form._reduction
    return a * a > a * c - b * b


def modular_act(g: UnimodularMatrix, tau: HalfPlanePoint) -> HalfPlanePoint:
    """Fractional linear action tau -> (a*tau + b) / (c*tau + d), exact.

    Im g(tau) = Im tau / |c*tau + d|^2, and |c*tau + d|^2 is rational when
    re and im_sq are, so the result is exact. With re = p/q, im_sq = r/s and
    N = q^2 s |c*tau + d|^2 = (cp + dq)^2 s + c^2 r q^2, the result has
    re = ((ap + bq)(cp + dq) s + ac r q^2) / N and im_sq = r s q^4 / N^2.
    """
    p, q, r, s = tau._ints
    x = g.c * p + g.d * q
    q2 = q * q
    n = x * x * s + g.c * g.c * r * q2
    return HalfPlanePoint.from_integers(
        (g.a * p + g.b * q) * x * s + g.a * g.c * r * q2, n,
        r * s * q2 * q2, n * n)
