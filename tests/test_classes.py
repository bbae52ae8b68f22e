import math
from collections import namedtuple
from fractions import Fraction

import numpy as np
import pytest

from latsim import census, classes, lattice, verify
from latsim.census import ClassSetId
from latsim.classes import (ClassKind, CoprimalityError, DomainError,
                            RangeError, TauQuadruple, WrPair)

# the fields that weil_height_bound and weil_height_ceiling read, without
# TauQuadruple's checks
Quadruple = namedtuple("Quadruple", "a b c d")


class TestValidation:
    def test_square_class(self):
        q = TauQuadruple(0, 1, 1, 1)
        assert q.tau.re == 0 and q.tau.im_sq == 1

    def test_domain_failure(self):
        with pytest.raises(DomainError):
            TauQuadruple(1, 2, 1, 2)  # 1/2 < 3/4

    def test_coprimality_failure(self):
        with pytest.raises(CoprimalityError):
            TauQuadruple(2, 4, 1, 1)
        with pytest.raises(CoprimalityError):
            TauQuadruple(0, 1, 2, 4)

    def test_range_failure(self):
        with pytest.raises(RangeError):
            TauQuadruple(3, 4, 1, 1)  # 2a > b
        with pytest.raises(RangeError):
            TauQuadruple(0, 1, 0, 1)

    def test_a_zero_forces_b_one(self):
        with pytest.raises(CoprimalityError):
            TauQuadruple(0, 2, 1, 1)

    def test_domain_test_equals_the_cross_multiplied_inequality(self):
        # the inequality TauQuadruple tested before it read
        # lattice.tau_gram_entries, kept as the oracle
        pairs = [(a, b) for b in range(1, 13) for a in range(b // 2 + 1)
                 if math.gcd(a, b) == 1]
        refused = accepted = 0
        for a, b in pairs:
            for d in range(1, 31):
                for c in range(1, 31):
                    if math.gcd(c, d) != 1:
                        continue
                    outside = c * b ** 2 < d * (b ** 2 - a ** 2)
                    try:
                        TauQuadruple(a, b, c, d)
                    except DomainError:
                        assert outside, (a, b, c, d)
                        refused += 1
                    else:
                        assert not outside, (a, b, c, d)
                        accepted += 1
        assert refused > 1000 and accepted > 1000

    @pytest.mark.parametrize("q", [(1, 2, 3, 4), (0, 1, 1, 1), (1, 3, 8, 9)])
    def test_unit_circle_is_accepted(self, q):
        # |tau| = 1 exactly: c b^2 = d (b^2 - a^2)
        point = TauQuadruple(*q).tau
        assert point.re ** 2 + point.im_sq == 1

    def test_just_inside_the_unit_circle_is_refused(self):
        # 1/9 + 7/9 < 1
        with pytest.raises(DomainError, match=r"c/d < 1 - a\^2/b\^2"):
            TauQuadruple(1, 3, 7, 9)

    def test_tau_lies_in_fundamental_domain(self):
        # boundary case: equality c*b^2 = d*(b^2 - a^2), |tau| = 1
        q = TauQuadruple(1, 2, 3, 4)
        assert q.tau.re ** 2 + q.tau.im_sq == 1


class TestClassify:
    def test_hexagonal_is_wr(self):
        assert classes.classify(TauQuadruple(1, 2, 3, 4)) is ClassKind.WELL_ROUNDED

    def test_semistable_not_wr(self):
        assert classes.classify(TauQuadruple(1, 2, 4, 5)) is \
            ClassKind.SEMISTABLE_NOT_WR

    def test_not_semistable(self):
        assert classes.classify(TauQuadruple(0, 1, 2, 1)) is \
            ClassKind.NOT_SEMISTABLE

    def test_agrees_with_geometry_small(self):
        from latsim import census
        from latsim.census import ClassSetId
        for q in census.enumerate_classes(ClassSetId.ALL, 8):
            form = lattice.tau_gram(q.tau)
            kind = classes.classify(q)
            assert lattice.is_well_rounded(form) == \
                (kind is ClassKind.WELL_ROUNDED)
            assert lattice.is_semistable(form) == \
                (kind is not ClassKind.NOT_SEMISTABLE)


class TestWrEntries:
    def test_columns_equal_classify(self):
        qs = list(census.enumerate_classes(ClassSetId.ALL, 20))
        a, b, c, d = (np.array([getattr(q, k) for q in qs], dtype=np.int64)
                      for k in "abcd")
        got = classes.is_wr_entries(a, b, c, d)
        assert got.dtype == bool
        assert got.tolist() == [classes.classify(q) is ClassKind.WELL_ROUNDED
                                for q in qs]
        assert got.any() and not got.all()
        kinds = classes.kind_entries(a, b, c, d)
        assert kinds.dtype == np.int64
        assert [classes.KINDS[k] for k in kinds.tolist()] == \
            [classes.classify(q) for q in qs]

    def test_ints_give_a_bool(self):
        assert classes.is_wr_entries(1, 2, 3, 4) is True
        assert classes.is_wr_entries(0, 1, 2, 1) is False


class TestHeights:
    def test_max_height(self):
        assert classes.max_height(TauQuadruple(1, 2, 3, 4)) == 4
        assert classes.max_height(TauQuadruple(0, 1, 1, 1)) == 1
        assert classes.max_height(TauQuadruple(1, 2, 4, 5)) == 5
        from latsim import census
        from latsim.census import ClassSetId
        for q in census.enumerate_classes(ClassSetId.ALL, 12):
            assert classes.max_height(q) == max(abs(q.a), abs(q.b),
                                                abs(q.c), abs(q.d))

    def test_weil_height_bound_examples(self):
        assert classes.weil_height_bound(TauQuadruple(0, 1, 1, 1)) == 1
        assert classes.weil_height_bound(TauQuadruple(0, 1, 2, 1)) == \
            pytest.approx(math.sqrt(2))
        assert classes.weil_height_bound(TauQuadruple(1, 2, 3, 4)) == 4

    def test_ceiling_dominates_bound(self):
        from latsim import census
        from latsim.census import ClassSetId
        for q in census.enumerate_classes(ClassSetId.ALL, 15):
            assert classes.weil_height_bound(q) <= \
                classes.weil_height_ceiling(q) + 1e-12

    def test_bound_equals_the_two_branch_formula(self):
        # the bound before it dropped the b sqrt(d) branch is the oracle, at
        # every class of height <= 60; 4 C' <= 5 m^3 is the float verdict
        a, b, c, d = verify._class_columns(60)
        oracle = np.maximum(b * np.sqrt(d), np.sqrt(a * a * d + b * b * c))
        rows = list(map(Quadruple, *(col.tolist() for col in (a, b, c, d))))
        got = np.array([classes.weil_height_bound(q) for q in rows])
        assert np.array_equal(got.view(np.int64), oracle.view(np.int64))
        c_prime = lattice.tau_gram_entries(a, b, c, d)[2]
        m = np.maximum(np.maximum(c, d), b)
        assert (4 * c_prime <= 5 * m ** 3).tolist() == [
            bound <= classes.weil_height_ceiling(q) + 1e-9
            for bound, q in zip(got.tolist(), rows)]

    @staticmethod
    def wr_rows(T):
        """(WrPair, height) of each row of the well-rounded blocks."""
        for a, b, _, _, height in census._class_blocks(
                ClassSetId.WELL_ROUNDED, T):
            yield from zip(map(WrPair, a.tolist(), b.tolist()),
                           height.tolist())

    def test_wr_bound_is_the_squared_pair_height(self):
        rows = dict(self.wr_rows(7))
        for p in (WrPair(0, 1), WrPair(1, 2), WrPair(3, 7)):
            assert classes.weil_height_bound(
                classes.wr_pair_to_quadruple(p)) == rows[p] ** 2

    def test_pair_vs_quadruple_convention(self):
        rows = dict(self.wr_rows(2))
        p = WrPair(1, 2)
        assert rows[p] == 2
        assert classes.max_height(classes.wr_pair_to_quadruple(p)) == 4


class TestWrPairs:
    def test_examples(self):
        assert classes.wr_pair_to_quadruple(WrPair(0, 1)) == \
            TauQuadruple(0, 1, 1, 1)
        assert classes.wr_pair_to_quadruple(WrPair(1, 2)) == \
            TauQuadruple(1, 2, 3, 4)
        assert classes.wr_pair_to_quadruple(WrPair(2, 5)) == \
            TauQuadruple(2, 5, 21, 25)

    def test_always_classifies_wr(self):
        for b in range(1, 60):
            for a in range(0, b // 2 + 1):
                try:
                    p = WrPair(a, b)
                except ValueError:
                    continue
                q = classes.wr_pair_to_quadruple(p)
                assert classes.classify(q) is ClassKind.WELL_ROUNDED
                assert classes.max_height(q) == b * b

    def test_invalid_pairs(self):
        with pytest.raises(ValueError):
            WrPair(0, 2)
        with pytest.raises(ValueError):
            WrPair(2, 3)
        with pytest.raises(ValueError):
            WrPair(2, 4)


class TestBijectivity:
    def test_quadruple_to_tau_injective(self):
        from latsim import census
        from latsim.census import ClassSetId
        seen: dict[tuple[Fraction, Fraction], TauQuadruple] = {}
        for q in census.enumerate_classes(ClassSetId.ALL, 12):
            key = (q.tau.re, q.tau.im_sq)
            assert key not in seen, (q, seen[key])
            seen[key] = q
