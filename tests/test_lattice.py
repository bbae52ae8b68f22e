import copy
import dataclasses
import math
import pickle
import random
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from latsim import census, lattice, verify
from latsim.classes import TauQuadruple
from latsim.lattice import (CanonicalTau, GramForm, HalfPlanePoint,
                            PlanarLattice, UnimodularMatrix)


def brute_force_minima_sq(form: GramForm, box: int = 20):
    """Independent oracle: scan integer coefficient vectors in [-box, box]^2."""
    best = []
    for x in range(-box, box + 1):
        for y in range(-box, box + 1):
            if (x, y) != (0, 0):
                best.append((form.value(x, y), x, y))
    best.sort()
    l1_sq, x1, y1 = best[0]
    l2_sq = min(v for v, x, y in best if x1 * y - y1 * x != 0)
    return l1_sq, l2_sq


def fraction_reduce_gram(form: GramForm):
    """Independent oracle: Lagrange reduction on the Fraction entries, with
    the same tie rule (ties toward zero) and the same return shape as
    lattice.reduce_gram."""
    def round_ties_to_zero(q: Fraction) -> int:
        n, d = q.numerator, q.denominator
        if n >= 0:
            return (2 * n + d - 1) // (2 * d)
        return -((-2 * n + d - 1) // (2 * d))

    g11, g12, g22 = form.g11, form.g12, form.g22
    u11, u21, u12, u22 = 1, 0, 0, 1
    while True:
        if g11 > g22:
            g11, g22 = g22, g11
            u11, u21, u12, u22 = u12, u22, u11, u21
        m = round_ties_to_zero(g12 / g11)
        if m != 0:
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


def fraction_modular_act(g: UnimodularMatrix, tau: HalfPlanePoint):
    """Independent oracle: the fractional linear action in Fractions."""
    x, ysq = tau.re, tau.im_sq
    den = (g.c * x + g.d) ** 2 + g.c * g.c * ysq
    re = ((g.a * x + g.b) * (g.c * x + g.d) + g.a * g.c * ysq) / den
    return re, ysq / (den * den)


def random_rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    """A rational with numerator in [lo, hi] and a denominator of up to six
    digits."""
    return Fraction(rng.randint(lo, hi), rng.randint(1, 10 ** rng.randint(0, 6)))


def random_form(rng: random.Random) -> GramForm:
    """Positive definite forms of every shape the reduction meets: generic,
    ties 2|g12| = k*g11 with k odd, g11 = g22, and the semi-stable boundary
    im_sq = 1 seen through a random basis."""
    g11 = random_rational(rng, 1, 10 ** rng.randint(1, 6))
    shape = rng.randrange(4)
    if shape == 1:
        g12 = g11 * Fraction(rng.randrange(-7, 8, 2), 2)
    else:
        g12 = random_rational(rng, -10 ** 6, 10 ** 6)
    if shape == 2 and g12 * g12 < g11 * g11:
        return GramForm(g11, g12, g11)
    if shape == 3:
        re = Fraction(rng.randint(0, 50), 100)
        boundary = GramForm(g11, g11 * re, g11 * (re * re + 1))
        u = UnimodularMatrix.identity()
        for _ in range(rng.randint(0, 8)):
            u = rng.choice((UnimodularMatrix.inversion(),
                            UnimodularMatrix.translation(1))) @ u
        # the same lattice in the basis with coordinate columns of u
        return GramForm(boundary.value(u.a, u.c),
                        boundary.g11 * u.a * u.b
                        + boundary.g12 * (u.a * u.d + u.c * u.b)
                        + boundary.g22 * u.c * u.d,
                        boundary.value(u.b, u.d))
    return GramForm(g11, g12,
                    (g12 * g12 + random_rational(rng, 1, 10 ** 6)) / g11)


def random_lattice(rng: random.Random) -> PlanarLattice:
    while True:
        entries = [Fraction(rng.randint(-10, 10), rng.randint(1, 10))
                   for _ in range(4)]
        try:
            return PlanarLattice(entries[:2], entries[2:])
        except ValueError:
            continue


class TestGram:
    def test_identity(self):
        g = lattice.gram(PlanarLattice((1, 0), (0, 1)))
        assert (g.g11, g.g12, g.g22) == (1, 0, 1)

    def test_skew_columns(self):
        g = lattice.gram(PlanarLattice((2, 0), (1, 1)))
        assert (g.g11, g.g12, g.g22) == (4, 2, 2)

    def test_permuted_basis(self):
        g = lattice.gram(PlanarLattice((0, 1), (1, 0)))
        assert (g.g11, g.g12, g.g22) == (1, 0, 1)

    def test_rejects_singular(self):
        with pytest.raises(ValueError):
            PlanarLattice((1, 2), (2, 4))
        with pytest.raises(ValueError):
            GramForm(1, 1, 1)


def gauss_reduce(lat: PlanarLattice):
    """A minimal basis of lat with its squared successive minima, from
    reduce_gram: lambda1^2 and lambda2^2 are the reduced form's g11 and g22,
    and its change of basis u maps the basis to a minimal one."""
    reduced, (u11, u21, u12, u22) = lattice.reduce_gram(lattice.gram(lat))
    v1, v2 = lat.v1, lat.v2
    w1 = (u11 * v1[0] + u21 * v2[0], u11 * v1[1] + u21 * v2[1])
    w2 = (u12 * v1[0] + u22 * v2[0], u12 * v1[1] + u22 * v2[1])
    return PlanarLattice(w1, w2), reduced.g11, reduced.g22


class TestGaussReduce:
    def test_sheared_integer_lattice(self):
        _, l1, l2 = gauss_reduce(PlanarLattice((1, 0), (5, 1)))
        assert (l1, l2) == (1, 1)

    def test_scaled_square(self):
        _, l1, l2 = gauss_reduce(PlanarLattice((2, 0), (0, 2)))
        assert (l1, l2) == (4, 4)

    def test_half_shift(self):
        lat = PlanarLattice((1, 0), (Fraction(1, 2), Fraction(3, 2)))
        _, l1, l2 = gauss_reduce(lat)
        assert (l1, l2) == brute_force_minima_sq(lattice.gram(lat), box=10)

    def test_reduced_basis_contract(self):
        rng = random.Random(23)
        for _ in range(500):
            lat = random_lattice(rng)
            reduced, l1, l2 = gauss_reduce(lat)
            g = lattice.gram(reduced)
            assert (g.g11, g.g22) == (l1, l2)
            assert 0 <= 2 * g.g12 <= g.g11 <= g.g22
            # same lattice: change of basis is unimodular up to sign
            assert abs(reduced.det) == abs(lat.det)

    def test_minima_match_brute_force(self):
        # Scan over the reduced basis: minima of a reduced basis are hit by
        # coefficient vectors well inside the box, so box=20 is exhaustive.
        # (Scanning the raw basis is not: a skewed random basis can need
        # coefficients far beyond any fixed box to reach the minima.)
        rng = random.Random(29)
        for _ in range(500):
            lat = random_lattice(rng)
            reduced, l1, l2 = gauss_reduce(lat)
            scale = lcm(*(x.denominator
                          for v in (reduced.v1, reduced.v2) for x in v))
            scaled = PlanarLattice(
                (reduced.v1[0] * scale, reduced.v1[1] * scale),
                (reduced.v2[0] * scale, reduced.v2[1] * scale))
            b1, b2 = brute_force_minima_sq(lattice.gram(scaled), box=5)
            assert (l1 * scale ** 2, l2 * scale ** 2) == (b1, b2)


class TestCanonicalTau:
    def test_square_lattice_is_i(self):
        for scale in (1, 3, Fraction(2, 7)):
            lat = PlanarLattice((scale, 0), (0, scale))
            tau = lattice.canonical_tau(lattice.gram(lat))
            assert (tau.re, tau.im_sq) == (0, 1)

    def test_hexagonal_is_rho(self):
        tau = lattice.canonical_tau(GramForm(1, Fraction(1, 2), 1))
        assert (tau.re, tau.im_sq) == (Fraction(1, 2), Fraction(3, 4))

    def test_identity_on_fundamental_domain(self):
        tau = CanonicalTau(Fraction(1, 3), 4)
        back = lattice.canonical_tau(lattice.tau_gram(tau))
        assert (back.re, back.im_sq) == (tau.re, tau.im_sq)

    def test_idempotent_on_rational_tau_grid(self):
        for p in range(0, 8):
            for q in range(max(1, 2 * p), 15):
                re = Fraction(p, q)
                if re > Fraction(1, 2):
                    continue
                for num in range(1, 20, 3):
                    im_sq = 1 - re * re + Fraction(num, 7)
                    tau = CanonicalTau(re, im_sq)
                    back = lattice.canonical_tau(lattice.tau_gram(tau))
                    assert (back.re, back.im_sq) == (re, im_sq)

    def test_scale_and_permutation_invariance(self):
        rng = random.Random(31)
        for _ in range(100):
            lat = random_lattice(rng)
            tau = lattice.canonical_tau(lattice.gram(lat))
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            variants = [
                PlanarLattice((lat.v1[0] * scale, lat.v1[1] * scale),
                              (lat.v2[0] * scale, lat.v2[1] * scale)),
                PlanarLattice(lat.v2, lat.v1),
                PlanarLattice((-lat.v1[0], -lat.v1[1]), lat.v2),
            ]
            for v in variants:
                t2 = lattice.canonical_tau(lattice.gram(v))
                assert (t2.re, t2.im_sq) == (tau.re, tau.im_sq)

    def test_membership_enforced(self):
        with pytest.raises(ValueError):
            CanonicalTau(Fraction(2, 3), 1)
        with pytest.raises(ValueError):
            CanonicalTau(Fraction(1, 4), Fraction(1, 2))


class TestPredicates:
    def test_square_lattice(self):
        form = lattice.gram(PlanarLattice((1, 0), (0, 1)))
        assert lattice.is_well_rounded(form)
        assert lattice.is_semistable(form)
        assert not lattice.is_stable(form)

    def test_tall_rectangular(self):
        form = lattice.tau_gram(HalfPlanePoint(0, 4))  # tau = 2i
        assert not lattice.is_well_rounded(form)
        assert not lattice.is_semistable(form)

    def test_hexagonal(self):
        form = GramForm(1, Fraction(1, 2), 1)
        assert lattice.is_well_rounded(form)
        assert lattice.is_stable(form)

    def test_wr_implies_semistable(self):
        rng = random.Random(37)
        seen_wr = 0
        for _ in range(300):
            form = lattice.gram(random_lattice(rng))
            if lattice.is_well_rounded(form):
                seen_wr += 1
                assert lattice.is_semistable(form)
        # also exercise guaranteed-WR inputs
        for form in (GramForm(1, 0, 1), GramForm(1, Fraction(1, 2), 1),
                     GramForm(5, 1, 5)):
            assert lattice.is_well_rounded(form)
            assert lattice.is_semistable(form)


class TestModularAction:
    def test_identity(self):
        tau = CanonicalTau(Fraction(1, 3), 4)
        out = lattice.modular_act(UnimodularMatrix.identity(), tau)
        assert (out.re, out.im_sq) == (tau.re, tau.im_sq)

    def test_inversion_fixes_i(self):
        out = lattice.modular_act(UnimodularMatrix.inversion(),
                                  CanonicalTau(0, 1))
        assert (out.re, out.im_sq) == (0, 1)

    def test_translation(self):
        out = lattice.modular_act(UnimodularMatrix.translation(),
                                  CanonicalTau(Fraction(1, 3), 4))
        assert (out.re, out.im_sq) == (Fraction(4, 3), 4)

    def test_determinant_enforced(self):
        with pytest.raises(ValueError):
            UnimodularMatrix(1, 0, 0, -1)

    def test_reduction_invariance_random_words(self):
        rng = random.Random(41)
        S = UnimodularMatrix.inversion()
        T = UnimodularMatrix.translation()
        for _ in range(300):
            re = Fraction(rng.randint(0, 6), 12)
            im_sq = 1 - re * re + Fraction(rng.randint(0, 30), 7)
            tau = CanonicalTau(re, im_sq)
            g = UnimodularMatrix.identity()
            for _ in range(rng.randint(0, 10)):
                g = rng.choice((S, T)) @ g
            moved = lattice.modular_act(g, tau)
            back = lattice.canonical_tau(lattice.tau_gram(moved))
            assert (back.re, back.im_sq) == (re, im_sq)


class TestUnimodularMatrixValues:
    """Value semantics of UnimodularMatrix, whatever its constructor does."""

    def test_equal_matrices_compare_and_hash_equal(self):
        rng = random.Random(5)
        letters = (UnimodularMatrix.inversion(),
                   UnimodularMatrix.translation(1),
                   UnimodularMatrix.translation(-1))
        for _ in range(200):
            g = UnimodularMatrix.identity()
            for _ in range(rng.randint(0, 10)):
                g = rng.choice(letters) @ g
            same = UnimodularMatrix(g.a, g.b, g.c, g.d)
            assert g == same and hash(g) == hash(same)
            assert len({g, same}) == 1
        assert UnimodularMatrix.inversion() != UnimodularMatrix.identity()
        # S^2 = -1 is a different matrix from 1, though it acts alike
        s2 = UnimodularMatrix.inversion() @ UnimodularMatrix.inversion()
        assert s2 == UnimodularMatrix(-1, 0, 0, -1)
        assert s2 != UnimodularMatrix.identity()

    def test_not_equal_to_a_plain_tuple(self):
        one = UnimodularMatrix.identity()
        assert one != (1, 0, 0, 1)
        assert not one == (1, 0, 0, 1)

    def test_fields_are_read_only(self):
        g = UnimodularMatrix.translation(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.b = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.extra = 1
        assert (g.a, g.b, g.c, g.d) == (1, 3, 0, 1)

    def test_repr(self):
        assert repr(UnimodularMatrix.inversion()) == \
            "UnimodularMatrix(a=0, b=-1, c=1, d=0)"
        assert repr(UnimodularMatrix.translation(-2)) == \
            "UnimodularMatrix(a=1, b=-2, c=0, d=1)"

    def test_determinant_checked_in_constructor_and_product(self):
        for entries in ((1, 0, 0, -1), (2, 0, 0, 1), (0, 0, 0, 0),
                        (1, 1, 1, 1), (-1, 0, 0, 1)):
            with pytest.raises(ValueError):
                UnimodularMatrix(*entries)
        # a matrix whose entries were overwritten behind the frozen
        # interface: the product's own check refuses the result
        bad = UnimodularMatrix.identity()
        object.__setattr__(bad, "d", 2)
        with pytest.raises(ValueError):
            bad @ UnimodularMatrix.translation(1)
        with pytest.raises(ValueError):
            UnimodularMatrix.translation(1) @ bad


class TestFromIntegers:
    """HalfPlanePoint.from_integers and CanonicalTau.from_integers check what
    the Fraction constructors check, on integers not in lowest terms."""

    def test_equals_the_fraction_constructor(self):
        for cls in (HalfPlanePoint, CanonicalTau):
            for p in range(-3, 9):
                for q in range(1, 9):
                    for r in range(-2, 12):
                        for s in (1, 2, 4, 6):
                            try:
                                want = cls(Fraction(p, q), Fraction(r, s))
                            except ValueError:
                                with pytest.raises(ValueError):
                                    cls.from_integers(p, q, r, s)
                                continue
                            got = cls.from_integers(p, q, r, s)
                            assert type(got) is cls and got == want

    def test_refuses_denominators_below_one(self):
        for cls in (HalfPlanePoint, CanonicalTau):
            for p, q, r, s in ((0, 0, 1, 1), (0, 1, 1, 0), (1, -2, 1, 1),
                               (0, 1, -1, -1)):
                with pytest.raises(ValueError):
                    cls.from_integers(p, q, r, s)

    def test_canonical_tau_is_a_canonical_point(self):
        tau = lattice.canonical_tau(GramForm(4, 2, 7))
        assert type(tau) is CanonicalTau
        assert (tau.re, tau.im_sq) == (Fraction(1, 2), Fraction(3, 2))


class TestIntegerCore:
    """The integer reducer, its cache and the integer predicates against the
    Fraction oracle."""

    FORMS = 3000

    def forms(self):
        rng = random.Random(43)
        return [random_form(rng) for _ in range(self.FORMS)]

    def test_forms_cover_every_shape(self):
        forms = self.forms()
        assert any(f.g12 < 0 for f in forms)
        assert any(f.g11 == f.g22 for f in forms)
        assert any(2 * abs(f.g12) == f.g11 for f in forms)
        assert any(f.g12.denominator > 10 ** 5 for f in forms)

    def test_reduce_gram_equals_fraction_oracle(self):
        for form in self.forms():
            got, want = lattice.reduce_gram(form), fraction_reduce_gram(form)
            assert got == want
            # equality skips the cached reduction: the reduced form's must
            # be the one its own constructor builds, with u = 1
            assert got[0]._reduction == want[0]._reduction

    def test_change_of_basis_reaches_reduced_form(self):
        for form in self.forms():
            reduced, (u11, u21, u12, u22) = lattice.reduce_gram(form)
            assert abs(u11 * u22 - u12 * u21) == 1
            assert reduced.g11 == form.value(u11, u21)
            assert reduced.g22 == form.value(u12, u22)
            # <w1, w2> from the bilinear form
            assert reduced.g12 == (form.g11 * u11 * u12
                                   + form.g12 * (u11 * u22 + u21 * u12)
                                   + form.g22 * u21 * u22)

    def test_predicates_equal_oracle(self):
        seen = set()
        for form in self.forms():
            reduced, _ = fraction_reduce_gram(form)
            l1, l2 = reduced.g11, reduced.g22
            wr = l1 == l2
            ss = l1 * l1 >= form.det
            stable = l1 * l1 > form.det
            assert lattice.is_well_rounded(form) is wr
            assert lattice.is_semistable(form) is ss
            assert lattice.is_stable(form) is stable
            minimal, _ = lattice.reduce_gram(form)
            assert (minimal.g11, minimal.g22) == (l1, l2)
            tau = lattice.canonical_tau(form)
            assert (tau.re, tau.im_sq) == (reduced.g12 / l1,
                                           reduced.det / (l1 * l1))
            seen.add((wr, ss, stable))
        # every kind occurs, with semi-stable but not stable among them
        assert seen == {(True, True, True), (True, True, False),
                        (False, True, True), (False, True, False),
                        (False, False, False)}

    def test_each_form_is_reduced_once(self, monkeypatch):
        calls = []
        original = lattice._lagrange

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(lattice, "_lagrange", counted)
        form = GramForm(Fraction(7, 3), Fraction(-11, 5), 9)
        lattice.canonical_tau(form)
        lattice.is_well_rounded(form)
        lattice.is_semistable(form)
        lattice.is_stable(form)
        lattice.reduce_gram(form)
        lattice.reduce_gram(form)
        assert len(calls) == 1

    def test_equality_and_hash_ignore_the_cache(self):
        fresh = GramForm(Fraction(7, 3), Fraction(-11, 5), 9)
        reduced = GramForm(Fraction(7, 3), Fraction(-11, 5), 9)
        text = repr(reduced)
        lattice.canonical_tau(reduced)
        assert reduced == fresh
        assert hash(reduced) == hash(fresh)
        assert len({reduced, fresh}) == 1
        assert repr(reduced) == text
        lattice.canonical_tau(fresh)
        assert reduced == fresh and hash(reduced) == hash(fresh)

    def test_gram_validation_equals_fraction_check(self):
        grid = [Fraction(k, 3) for k in range(-4, 5)]
        for g11 in grid:
            for g12 in grid:
                for g22 in grid:
                    ok = g11 > 0 and g22 > 0 and g11 * g22 - g12 * g12 > 0
                    if ok:
                        GramForm(g11, g12, g22)
                    else:
                        with pytest.raises(ValueError):
                            GramForm(g11, g12, g22)

    def test_tau_validation_equals_fraction_check(self):
        res = [Fraction(k, 12) for k in range(-2, 9)]
        ims = [Fraction(k, 16) for k in range(-2, 20)]
        for re in res:
            for im_sq in ims:
                if im_sq <= 0:
                    with pytest.raises(ValueError):
                        HalfPlanePoint(re, im_sq)
                    continue
                HalfPlanePoint(re, im_sq)
                if 0 <= re <= Fraction(1, 2) and re * re + im_sq >= 1:
                    CanonicalTau(re, im_sq)
                else:
                    with pytest.raises(ValueError):
                        CanonicalTau(re, im_sq)

    def test_modular_act_and_tau_gram_equal_fraction_oracle(self):
        rng = random.Random(47)
        letters = (UnimodularMatrix.inversion(),
                   UnimodularMatrix.translation(1),
                   UnimodularMatrix.translation(-1))
        for _ in range(500):
            tau = HalfPlanePoint(random_rational(rng, -10 ** 3, 10 ** 3),
                                 random_rational(rng, 1, 10 ** 3))
            g = UnimodularMatrix.identity()
            for _ in range(rng.randint(0, 12)):
                g = rng.choice(letters) @ g
            out = lattice.modular_act(g, tau)
            assert (out.re, out.im_sq) == fraction_modular_act(g, tau)
            form = lattice.tau_gram(out)
            assert (form.g11, form.g12, form.g22) == (
                1, out.re, out.re * out.re + out.im_sq)


class TestClassFormColumns:
    def test_columns_equal_the_scalar_reduction_at_height_20(self):
        cols = verify._class_columns(20)
        big_a, big_b, big_c, reduced = lattice.class_form_columns(*cols)
        assert big_a.dtype == big_b.dtype == big_c.dtype == np.int64
        assert reduced.dtype == bool and reduced.all()
        wr = lattice.is_wr_reduced(big_a, big_b, big_c)
        ss = lattice.is_semistable_reduced(big_a, big_b, big_c)
        p, q, r, s = lattice.canonical_tau_entries(big_a, big_b, big_c)
        qs = list(census.enumerate_classes(census.ClassSetId.ALL, 20))
        assert len(qs) == big_a.size == 8894
        for i, cls in enumerate(qs):
            form = lattice.tau_gram(cls.tau)
            assert (int(big_a[i]), int(big_b[i]), int(big_c[i])) == \
                form._reduction[:3], cls
            assert bool(wr[i]) is lattice.is_well_rounded(form), cls
            assert bool(ss[i]) is lattice.is_semistable(form), cls
            tau = lattice.canonical_tau(form)
            assert (Fraction(int(p[i]), int(q[i])),
                    Fraction(int(r[i]), int(s[i]))) == (tau.re, tau.im_sq)
        assert wr.any() and not wr.all() and (ss & ~wr).any() and not ss.all()

    def test_reduced_column_is_the_domain_condition(self):
        # (0, 1, 1, 2) lies below the unit circle and (2, 3, 1, 1) has
        # 2a > b: neither form is reduced
        a, b, c, d = (np.array(x, dtype=np.int64)
                      for x in ([1, 0, 2], [2, 1, 3], [3, 1, 1], [4, 2, 1]))
        big_a, big_b, big_c, reduced = lattice.class_form_columns(a, b, c, d)
        assert reduced.tolist() == [True, False, False]
        assert (big_a.tolist(), big_b.tolist(), big_c.tolist()) == \
            ([2, 2, 9], [1, 0, 6], [2, 1, 13])

    def test_entries_beyond_the_int64_bound_raise(self):
        m = lattice.MAX_COLUMN_HEIGHT
        # the widest product, (AC - B^2) d, is at most 2 m^7
        assert 2 * m ** 7 < 2 ** 63 <= 2 * (m + 1) ** 7
        one = np.ones(1, dtype=np.int64)
        lattice.class_form_columns(0 * one, m * one, m * one, m * one)
        for bad in (m + 1, -1):
            for k in range(4):
                cols = [one] * 4
                cols[k] = bad * one
                with pytest.raises(ValueError, match="int64"):
                    lattice.class_form_columns(*cols)


class TestIntegerRepresentation:
    """Points hold (p, q, r, s) and forms their primitive integer form and
    scale; the Fraction entries are built on first read and equal the
    Fraction oracle."""

    def test_any_terms_give_equal_points_and_hashes(self):
        rng = random.Random(47)
        seen = 0
        for _ in range(300):
            q, s = rng.randint(1, 30), rng.randint(1, 30)
            p, r = rng.randint(0, q // 2), rng.randint(1, 60)
            k, m = rng.randint(2, 9), rng.randint(2, 9)
            for cls in (HalfPlanePoint, CanonicalTau):
                try:
                    want = cls(Fraction(k * p, k * q), Fraction(m * r, m * s))
                except ValueError:
                    continue
                got = cls.from_integers(k * p, k * q, m * r, m * s)
                assert got == want and hash(got) == hash(want)
                assert len({got, want}) == 1
                assert got == cls.from_integers(p, q, r, s)
                seen += cls is CanonicalTau
        assert seen > 50
        assert HalfPlanePoint(0, 1) != CanonicalTau(0, 1)

    def test_forms_built_two_ways_are_equal(self):
        tau = CanonicalTau.from_integers(2, 4, 6, 4)
        form = lattice.tau_gram(tau)
        same = GramForm(Fraction(4, 4), Fraction(2, 4), Fraction(14, 8))
        assert form == same and hash(form) == hash(same)
        reduced, _ = lattice.reduce_gram(form)
        assert reduced == GramForm(reduced.g11, reduced.g12, reduced.g22)
        # a multiple of a form is another form
        assert GramForm(2, 1, 2) != GramForm(1, Fraction(1, 2), 1)

    def test_quadruple_tau_equals_the_checked_point(self):
        # TauQuadruple.tau skips CanonicalTau's check, which the quadruple's
        # own check implies
        for q in census.enumerate_classes(census.ClassSetId.ALL, 20):
            tau = q.tau
            assert type(tau) is CanonicalTau
            assert tau == CanonicalTau.from_integers(q.a, q.b, q.c, q.d)

    def test_entries_equal_the_fraction_oracle(self):
        rng = random.Random(53)
        for _ in range(500):
            p, q = rng.randint(-50, 50), rng.randint(1, 50)
            r, s = rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)
            point = HalfPlanePoint.from_integers(p, q, r, s)
            assert type(point.re) is Fraction and point.re == Fraction(p, q)
            assert type(point.im_sq) is Fraction
            assert point.im_sq == Fraction(r, s)
            assert point.im.hex() == math.sqrt(Fraction(r, s)).hex()
            g = [random_rational(rng, -10 ** 3, 10 ** 3) for _ in range(3)]
            # g11 >= 1 and g22 > g12^2: positive definite
            g[0], g[2] = abs(g[0]) + 1, g[1] * g[1] + abs(g[2]) + 1
            form = GramForm(*g)
            assert (form.g11, form.g12, form.g22) == tuple(g)
            assert all(type(x) is Fraction
                       for x in (form.g11, form.g12, form.g22))
            assert form.det == g[0] * g[2] - g[1] * g[1]
            assert form.value(3, -2) == 9 * g[0] - 12 * g[1] + 4 * g[2]

    def test_repr_is_pinned(self):
        assert repr(HalfPlanePoint(Fraction(-2, 6), Fraction(8, 2))) == \
            "HalfPlanePoint(re=Fraction(-1, 3), im_sq=Fraction(4, 1))"
        tau = CanonicalTau.from_integers(2, 4, 6, 4)
        assert repr(tau) == \
            "CanonicalTau(re=Fraction(1, 2), im_sq=Fraction(3, 2))"
        assert repr(GramForm(Fraction(7, 3), Fraction(-11, 5), 9)) == \
            "GramForm(g11=Fraction(7, 3), g12=Fraction(-11, 5), " \
            "g22=Fraction(9, 1))"
        assert repr(lattice.tau_gram(tau)) == \
            "GramForm(g11=Fraction(1, 1), g12=Fraction(1, 2), " \
            "g22=Fraction(7, 4))"

    def test_read_only_and_copied_by_value(self):
        tau = CanonicalTau(Fraction(1, 3), 4)
        form = lattice.tau_gram(tau)
        for obj, name in ((tau, "re"), (tau, "im_sq"), (tau, "extra"),
                          (form, "g11"), (form, "g12"), (form, "g22"),
                          (HalfPlanePoint(0, 1), "re")):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, 1)
            if name != "extra":
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(obj, name)
        assert (tau.re, tau.im_sq) == (Fraction(1, 3), 4)
        for obj in (tau, form):
            for other in (copy.copy(obj), pickle.loads(pickle.dumps(obj))):
                assert type(other) is type(obj) and other == obj

    def test_pipeline_builds_no_fraction_until_read(self, monkeypatch):
        built = []

        class Counted(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(lattice, "Fraction", Counted)
        g = UnimodularMatrix.inversion() @ UnimodularMatrix.translation(2)
        kinds = []
        # one class of each kind
        for q in (TauQuadruple(1, 3, 8, 9), TauQuadruple(2, 7, 46, 49),
                  TauQuadruple(1, 3, 10, 9)):
            tau = q.tau
            form = lattice.tau_gram(lattice.modular_act(g, tau))
            back = lattice.canonical_tau(form)
            kinds.append((lattice.is_well_rounded(form),
                          lattice.is_semistable(form)))
            assert back == tau
        assert built == []
        assert kinds == [(True, True), (False, True), (False, False)]
        assert back.re == Fraction(1, 3)
        assert built == [(1, 3)]
        assert back.im_sq == Fraction(10, 9) and len(built) == 2
        # a point's read is cached
        assert back.re == Fraction(1, 3) and len(built) == 2
        # a form's is not: each read of g11 builds a new, equal Fraction
        first, second = form.g11, form.g11
        assert len(built) == 4 and first == second and first is not second
        assert back.re == Fraction(1, 3) and len(built) == 4
