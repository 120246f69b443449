from fractions import Fraction

import numpy as np
import pytest

from quadperfect import (
    MixedRingError,
    QuadInt,
    canonicalize,
    in_sector,
    is_associated,
    ring,
    try_div,
    units,
)

from conftest import ALL_DS, make_rng, random_element

CASES_PER_RING = 10_000


class TestRingCtx:
    def test_the_nine_rings(self):
        for d in ALL_DS:
            ctx = ring(d)
            assert ctx.d == d

    @pytest.mark.parametrize("bad", [0, 1, -5, -4, -12, -165, 2, -6])
    def test_rejects_other_d(self, bad):
        with pytest.raises(ValueError):
            ring(bad)

    def test_unit_counts(self):
        assert ring(-1).unit_count == 4
        assert ring(-3).unit_count == 6
        for d in (-2, -7, -11, -19, -43, -67, -163):
            assert ring(d).unit_count == 2


class TestConstruction:
    def test_parity_rejected_for_even_d(self):
        with pytest.raises(ValueError):
            QuadInt(-1, 1, 1, half=True)
        with pytest.raises(ValueError):
            QuadInt(-2, 3, 2, half=True)

    def test_parity_rejected_for_odd_d(self):
        with pytest.raises(ValueError):
            QuadInt(-7, 1, 2, half=True)

    def test_coordinates_are_exact_integers(self):
        for d, a, b, half in [
            (-1, 2.7, 0, False), (-7, 1.9, 1.2, True),
            (-1, Fraction(7, 2), 0, False), (-1, "3", 0, False),
        ]:
            with pytest.raises(TypeError):
                QuadInt(d, a, b, half=half)
        with pytest.raises(TypeError):
            QuadInt.from_int(-1, 2.5)
        z = QuadInt(-7, np.int64(1), np.int32(1), half=True)
        assert z == QuadInt(-7, 1, 1, half=True) and type(z.x) is int and type(z.y) is int
        assert type(QuadInt.from_int(-1, np.int64(4)).x) is int

    def test_half_elements_exist_for_one_mod_four(self):
        z = QuadInt(-7, 1, 1, half=True)
        assert z.norm() == 2

    def test_mixed_ring_rejected(self):
        with pytest.raises(MixedRingError):
            QuadInt(-1, 1, 1) + QuadInt(-2, 1, 1)
        with pytest.raises(MixedRingError):
            QuadInt(-1, 1, 1) * QuadInt(-3, 2, 0)


class TestArithmetic:
    def test_gaussian_product(self):
        # (1+i)(2-i) = 3+i
        assert QuadInt(-1, 1, 1) * QuadInt(-1, 2, -1) == QuadInt(-1, 3, 1)

    def test_worked_product(self):
        # 3(1+i)(2-i) = 9+3i
        z = 3 * (QuadInt(-1, 1, 1) * QuadInt(-1, 2, -1))
        assert z == QuadInt(-1, 9, 3)

    def test_identities(self, d):
        rng = make_rng("identity", d)
        one = QuadInt.from_int(d, 1)
        zero = QuadInt.from_int(d, 0)
        for _ in range(50):
            z = random_element(rng, d)
            assert z + zero == z
            assert z * one == z

    def test_invariant_and_norm_multiplicativity(self, d):
        rng = make_rng("arith", d)
        D = -d
        for _ in range(CASES_PER_RING):
            z = random_element(rng, d, nonzero=False)
            w = random_element(rng, d, nonzero=False)
            for r in (z + w, z - w, z * w, -z):
                if d % 4 == 1:
                    assert (r.x ^ r.y) & 1 == 0
                else:
                    assert (r.x | r.y) & 1 == 0
                assert r.norm() == (r.x * r.x + D * r.y * r.y) // 4
            assert (z * w).norm() == z.norm() * w.norm()

    def test_mul_commutative_associative(self, d):
        rng = make_rng("assoc", d)
        for _ in range(500):
            z, w, v = (random_element(rng, d, nonzero=False) for _ in range(3))
            assert z * w == w * z
            assert (z * w) * v == z * (w * v)


class TestConj:
    def test_gaussian_pair(self):
        assert QuadInt(-1, 2, 1).conj() == QuadInt(-1, 2, -1)

    def test_half_conjugate_product(self):
        z = QuadInt(-7, 1, 1, half=True)
        assert z.conj() == QuadInt(-7, 1, -1, half=True)
        assert z * z.conj() == QuadInt.from_int(-7, 2)

    def test_involution_and_automorphism(self, d):
        rng = make_rng("conj", d)
        for _ in range(1000):
            z = random_element(rng, d, nonzero=False)
            w = random_element(rng, d, nonzero=False)
            assert z.conj().conj() == z
            assert (z + w).conj() == z.conj() + w.conj()
            assert (z * w).conj() == z.conj() * w.conj()
            assert z * z.conj() == QuadInt.from_int(d, z.norm())


class TestNorm:
    def test_paper_norms(self):
        assert (3 * (QuadInt(-1, 1, 1) * QuadInt(-1, 2, -1))).norm() == 90
        assert QuadInt.from_int(-7, 1).norm() == 1
        assert QuadInt(-11, 1, 1, half=True).norm() == 3

    def test_norm_zero_iff_zero(self, d):
        rng = make_rng("nz", d)
        assert QuadInt.from_int(d, 0).norm() == 0
        for _ in range(200):
            z = random_element(rng, d)
            assert z.norm() > 0

    def test_norm_one_iff_unit(self, d):
        ctx = ring(d)
        norm_one = [u for u in units(ctx) if u.norm() == 1]
        assert len(norm_one) == ctx.unit_count


class TestTryDiv:
    def test_gaussian_divisibility(self):
        assert try_div(QuadInt(-1, 1, 3), QuadInt(-1, 1, 1)) == QuadInt(-1, 2, 1)

    def test_by_one(self, d):
        rng = make_rng("div1", d)
        one = QuadInt.from_int(d, 1)
        for _ in range(100):
            z = random_element(rng, d)
            assert try_div(z, one) == z

    def test_not_divisible(self):
        assert try_div(QuadInt(-1, 3, 1), QuadInt.from_int(-1, 2)) is None

    def test_zero_divisor_rejected(self, d):
        with pytest.raises(ZeroDivisionError):
            try_div(QuadInt.from_int(d, 3), QuadInt.from_int(d, 0))

    def test_round_trip(self, d):
        rng = make_rng("roundtrip", d)
        for _ in range(2000):
            z = random_element(rng, d, nonzero=False)
            w = random_element(rng, d)
            assert try_div(z * w, w) == z


class TestUnits:
    def test_gaussian_units(self):
        us = set(units(ring(-1)))
        assert us == {
            QuadInt(-1, 1, 0),
            QuadInt(-1, -1, 0),
            QuadInt(-1, 0, 1),
            QuadInt(-1, 0, -1),
        }

    def test_eisenstein_units(self):
        us = units(ring(-3))
        assert len(us) == 6
        assert QuadInt(-3, 1, 1, half=True) in us

    def test_generic_units(self):
        assert set(units(ring(-43))) == {QuadInt(-43, 1, 0), QuadInt(-43, -1, 0)}

    def test_all_units_have_norm_one(self, ctx):
        assert all(u.norm() == 1 for u in units(ctx))


class TestCanonicalize:
    def test_gaussian_example(self):
        unit, rep = canonicalize(QuadInt(-1, -3, -3))
        assert rep == QuadInt(-1, 3, 3)
        assert unit == QuadInt(-1, -1, 0)
        assert unit * rep == QuadInt(-1, -3, -3)

    def test_eisenstein_sqrt(self):
        _, rep = canonicalize(QuadInt(-3, 0, 1))
        assert rep == QuadInt(-3, 3, 1, half=True)

    def test_idempotent_on_reps(self, d):
        rng = make_rng("canon", d)
        one = QuadInt.from_int(d, 1)
        for _ in range(500):
            _, rep = canonicalize(random_element(rng, d))
            unit, again = canonicalize(rep)
            assert unit == one and again == rep

    def test_zero_rejected(self, d):
        with pytest.raises(ValueError):
            canonicalize(QuadInt.from_int(d, 0))

    def test_unit_invariance(self, d):
        rng = make_rng("unitinv", d)
        ctx = ring(d)
        for _ in range(1000):
            z = random_element(rng, d)
            rep = canonicalize(z)[1]
            for u in units(ctx):
                unit2, rep2 = canonicalize(u * z)
                assert rep2 == rep
                assert unit2 * rep2 == u * z

    def test_orbit_meets_sector_once(self, d):
        rng = make_rng("orbit", d)
        ctx = ring(d)
        for _ in range(1000):
            z = random_element(rng, d)
            assert sum(in_sector(u * z) for u in units(ctx)) == 1


class TestIsAssociated:
    def test_conjugates_not_associated_over_split_prime(self):
        assert not is_associated(QuadInt(-1, 2, 1), QuadInt(-1, 2, -1))

    def test_negation_always_associated(self, d):
        rng = make_rng("neg", d)
        for _ in range(300):
            z = random_element(rng, d)
            assert is_associated(z, -z)

    def test_eisenstein_six_unit_orbit(self):
        # 2 * (1+sqrt(-3))/2 = 1+sqrt(-3), so these ARE associated: the
        # sixth roots of unity glue them together.  Exhaustive orbit check.
        two = QuadInt.from_int(-3, 2)
        assert is_associated(two, QuadInt(-3, 1, 1))
        orbit = {u * two for u in units(ring(-3))}
        assert QuadInt(-3, 1, 1) in orbit

    def test_eisenstein_split_pair_not_associated(self):
        # The two norm-7 canonical elements lie above a split prime and are
        # not associates of each other.
        assert not is_associated(
            QuadInt(-3, 5, 1, half=True), QuadInt(-3, 4, 2, half=True)
        )

    def test_agrees_with_canonicalize(self, d):
        rng = make_rng("isassoc", d)
        for _ in range(500):
            z = random_element(rng, d)
            w = random_element(rng, d)
            assert is_associated(z, w) == (canonicalize(z)[1] == canonicalize(w)[1])

    def test_zero_rejected(self, d):
        with pytest.raises(ValueError):
            is_associated(QuadInt.from_int(d, 0), QuadInt.from_int(d, 1))


class TestText:
    def test_str_forms(self):
        assert str(QuadInt(-1, 9, 3)) == "9+3s"
        assert str(QuadInt(-1, 0, -1)) == "-1s"
        assert str(QuadInt(-7, 1, 1, half=True)) == "(1+1s)/2"
        assert str(QuadInt.from_int(-11, 28)) == "28"
