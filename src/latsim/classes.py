"""Integer parametrization of arithmetic similarity classes.

A class is named by a quadruple (a, b, c, d) with tau = a/b + i*sqrt(c/d),
gcd(a,b) = gcd(c,d) = 1, 0 <= 2a <= b, and c*b^2 >= d*(b^2 - a^2) so that tau
lies in the fundamental domain. Well-rounded classes are the sub-family
d = b^2, c = b^2 - a^2, named by the pair (a, b) alone.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from math import gcd

from . import lattice
from .lattice import CanonicalTau


class QuadrupleError(ValueError):
    """Base class for invalid class parameters."""


class CoprimalityError(QuadrupleError):
    """gcd(a, b) != 1 or gcd(c, d) != 1."""


class RangeError(QuadrupleError):
    """Parameter signs or the 0 <= 2a <= b constraint violated."""


class DomainError(QuadrupleError):
    """c*b^2 < d*(b^2 - a^2): tau would fall outside the fundamental domain."""


class ClassKind(enum.Enum):
    WELL_ROUNDED = "WellRounded"
    SEMISTABLE_NOT_WR = "SemiStableNotWR"
    NOT_SEMISTABLE = "NotSemiStable"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class TauQuadruple:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        if a < 0 or b < 1 or c < 1 or d < 1:
            raise RangeError(f"bad signs in ({a},{b},{c},{d})")
        if 2 * a > b:
            raise RangeError(f"2a > b in ({a},{b},{c},{d})")
        if gcd(a, b) != 1 or gcd(c, d) != 1:
            raise CoprimalityError(f"non-coprime entries in ({a},{b},{c},{d})")
        big_a, _, big_c = lattice.tau_gram_entries(a, b, c, d)
        if big_c < big_a:
            raise DomainError(f"c/d < 1 - a^2/b^2 for ({a},{b},{c},{d})")

    @property
    def tau(self) -> CanonicalTau:
        # __post_init__ checks what CanonicalTau._check checks (0 <= 2a <= b,
        # c >= 1, and C' >= A by the same tau_gram_entries test), and the
        # gcds: the entries are the point's lowest terms
        return CanonicalTau._of_lowest_terms((self.a, self.b, self.c, self.d))


@dataclass(frozen=True)
class WrPair:
    a: int
    b: int

    def __post_init__(self):
        a, b = self.a, self.b
        if (a, b) == (0, 1):
            return
        if a < 1 or b < 1 or 2 * a > b or gcd(a, b) != 1:
            raise RangeError(f"invalid well-rounded pair ({a},{b})")


def is_wr_entries(a, b, c, d):
    """Whether (a, b, c, d) is a well-rounded class: d = b^2 and
    c = b^2 - a^2. Takes ints, or int64 columns for a bool column."""
    bsq = b * b
    return (d == bsq) & (c == bsq - a * a)


# the kinds in the order of kind_entries' indices
KINDS = tuple(ClassKind)


def kind_entries(a, b, c, d):
    """The kind of (a, b, c, d) as an index into KINDS: well-rounded when
    is_wr_entries, else semi-stable when c <= d. Takes ints, or int64
    columns for an int64 column."""
    return (1 - is_wr_entries(a, b, c, d)) * (1 + (c > d))


def classify(q: TauQuadruple) -> ClassKind:
    """Partition a valid quadruple into WR / semi-stable-not-WR / not semi-stable."""
    return KINDS[kind_entries(q.a, q.b, q.c, q.d)]


def max_height(q: TauQuadruple) -> int:
    """Naive maximum height max{|a|, |b|, |c|, |d|}.

    Every TauQuadruple has 0 <= 2a <= b and c, d >= 1, so this is
    max{b, c, d}.
    """
    return max(q.b, q.c, q.d)


def wr_pair_to_quadruple(p: WrPair) -> TauQuadruple:
    """(a, b) -> (a, b, b^2 - a^2, b^2); always classifies WellRounded."""
    bsq = p.b * p.b
    return TauQuadruple(p.a, p.b, bsq - p.a * p.a, bsq)


def weil_height_bound(q: TauQuadruple) -> float:
    """Archimedean Weil-height bound max{b sqrt(d), sqrt(C')}, with
    C' = a^2 d + b^2 c the last entry of lattice.tau_gram_entries. It is
    sqrt(C'): in the fundamental domain c b^2 >= d (b^2 - a^2), so
    C' >= b^2 d."""
    return math.sqrt(lattice.tau_gram_entries(q.a, q.b, q.c, q.d)[2])


def weil_height_ceiling(q: TauQuadruple) -> float:
    """(sqrt(5)/2) * m^(3/2), the closed-form cap on weil_height_bound;
    exactly, 4 C' <= 5 m^3, as a <= b/2 <= m/2 and b, c, d <= m."""
    return math.sqrt(5) / 2 * max_height(q) ** 1.5

