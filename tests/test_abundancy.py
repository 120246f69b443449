import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadperfect import (
    QuadInt,
    SplitClass,
    SurdSum,
    classical_abundancy,
    classical_sigma,
    classify_prime,
    delta_n,
    divisors_up_to_associates,
    factor_element,
    index_n,
    is_associated,
    is_n_powerfully_t_perfect,
    prime_above,
    primes_up_to,
    ring,
    units,
)

from conftest import ALL_DS, make_rng, random_element, random_element_norm_le
from oracles import (
    brute_delta,
    delta_by_division,
    elements_with_norm,
    exponents_by_division,
    power_sum,
    sympy_class,
)

PROPERTY_CASES = 1000


class TestSurdSum:
    def test_hand_product(self):
        a = SurdSum({1: 3, 2: 1})
        b = SurdSum({1: 1, 2: 1})
        assert a * b == SurdSum({1: 5, 2: 4})
        assert SurdSum({1: 1, 2: 1}) * SurdSum({1: 1, 2: -1}) == -1

    def test_product_wants_a_surd(self):
        with pytest.raises(TypeError):
            SurdSum({2: 1}) * 2
        with pytest.raises(TypeError):
            2 * SurdSum({2: 1})

    def test_radical_reduction(self):
        assert SurdSum({2: 1}) * SurdSum({2: 2}) == 4
        assert SurdSum({6: 1}) * SurdSum({3: 1}) == SurdSum({2: 3})

    def test_rejects_non_squarefree_radical(self):
        with pytest.raises(ValueError):
            SurdSum({4: 1})
        with pytest.raises(ValueError):
            SurdSum({0: 1})
        with pytest.raises(ValueError, match="radical"):
            SurdSum({2.0: 1})
        with pytest.raises(ValueError, match="float"):
            SurdSum({1: 0.1})

    def test_zero_handling(self):
        assert not SurdSum()
        assert SurdSum({2: 0}) == SurdSum()
        assert SurdSum({2: 1}) * SurdSum() == 0

    def test_hash_agrees_with_equality(self):
        value = index_n(ring(-1), QuadInt(-1, 9, 3), 2).value
        assert {2: "hit"}.get(value) == "hit"
        assert hash(SurdSum()) == hash(0)
        assert len({SurdSum(), 0}) == 1
        assert hash(SurdSum({1: Fraction(1, 2)})) == hash(Fraction(1, 2))

    def test_equality_is_value_equality(self):
        assert SurdSum({1: Fraction(3, 2), 2: Fraction(1, 2)}) == SurdSum(
            {2: Fraction(1, 2), 1: Fraction(3, 2)}
        )
        assert SurdSum({1: 2}) == 2
        assert SurdSum({2: 1}) != 2

    def test_str_forms(self):
        assert str(SurdSum()) == "0"
        assert str(SurdSum({1: 2})) == "2"
        assert str(SurdSum({1: 3, 2: 1})) == "3 + sqrt(2)"
        assert str(SurdSum({1: Fraction(3, 2), 2: Fraction(1, 2)})) == "3/2 + 1/2*sqrt(2)"
        assert str(SurdSum({1: 1, 2: -1})) == "1 - sqrt(2)"

    def test_mul_random_matches_float(self):
        import math

        rng = make_rng("surdfloat")
        for _ in range(300):
            a = SurdSum({rng.choice((1, 2, 3, 5, 6)): rng.randint(-5, 5) for _ in range(2)})
            b = SurdSum({rng.choice((1, 2, 7, 10)): rng.randint(-5, 5) for _ in range(2)})
            assert math.isclose(
                float(a * b), float(a) * float(b), rel_tol=1e-9, abs_tol=1e-9
            )


class TestDelta:
    def test_worked_example(self):
        assert delta_n(ring(-1), QuadInt(-1, 9, 3), 2) == 180

    def test_units(self, ctx):
        for u in units(ctx):
            for n in (-2, 1, 3):
                assert delta_n(ctx, u, n) == 1

    def test_gaussian_two(self):
        assert delta_n(ring(-1), QuadInt.from_int(-1, 2), 1) == SurdSum({1: 3, 2: 1})

    def test_power_cap(self, ctx):
        with pytest.raises(ValueError):
            delta_n(ctx, QuadInt.from_int(ctx.d, 2), 65)

    def test_zero_rejected(self, ctx):
        with pytest.raises(ValueError):
            delta_n(ctx, QuadInt.from_int(ctx.d, 0), 1)

    def test_even_n_is_rational(self, d):
        rng = make_rng("evenrat", d)
        ctx = ring(d)
        for _ in range(100):
            z = random_element(rng, d, span=8)
            for n in (2, 4, -2):
                value = delta_n(ctx, z, n)
                assert value.is_rational()

    def test_matches_brute_force_sample(self, d):
        rng = make_rng("deltaoracle", d)
        ctx = ring(d)
        for _ in range(40):
            z = random_element_norm_le(rng, d, 2000)
            for n in (-3, -1, 1, 2, 3):
                assert delta_n(ctx, z, n) == brute_delta(z, n), f"z={z}, n={n}"

    def test_prime_power_chains(self, ctx):
        """delta_n(pi**e) = sum(|pi**j|**n, j = 0..e) for e and |n| beyond criterion 5."""
        first = {}
        for p in primes_up_to(200):
            first.setdefault(classify_prime(ctx, p), p)
        assert len(first) == 3
        for cls, p in first.items():
            pi = QuadInt.from_int(ctx.d, p) if cls is SplitClass.INERT else prime_above(ctx, p)
            npi = pi.norm()
            for e in range(13):
                z = pi**e
                for n in (0, 1, -1, 2, -2, 63, -63, 64, -64):
                    want = power_sum(((npi**j, 1) for j in range(e + 1)), n)
                    assert delta_n(ctx, z, n) == want, f"pi={pi}, e={e}, n={n}"

    def test_multiplicative_on_coprime_pairs(self, d):
        rng = make_rng("mult", d)
        ctx = ring(d)
        done = 0
        while done < PROPERTY_CASES:
            z = random_element(rng, d, span=12)
            w = random_element(rng, d, span=12)
            zs = {pi for pi, _ in factor_element(ctx, z).parts}
            ws = {pi for pi, _ in factor_element(ctx, w).parts}
            if zs & ws:
                continue
            n = rng.choice((-2, -1, 1, 2, 3))
            assert delta_n(ctx, z * w, n) == delta_n(ctx, z, n) * delta_n(ctx, w, n)
            m = rng.randint(1, 4)
            assert (
                index_n(ctx, z * w, m).value
                == index_n(ctx, z, m).value * index_n(ctx, w, m).value
            )
            done += 1


def _small_primes(d: int) -> dict[SplitClass, list[int]]:
    """The primes below 200 by class, from sympy (each ring has split and inert ones below 200)."""
    out = {cls: [] for cls in SplitClass}
    for p in primes_up_to(200):
        out[sympy_class(d, p)].append(p)
    return out


_SMALL_PRIMES = {d: _small_primes(d) for d in ALL_DS}
_PROFILE_NS = (-3, -2, -1, 1, 2, 3)


class TestDeltaAgainstDivision:
    """delta_n of u * pi**a * conj(pi)**b * q**c * varpi**r against oracles that skip the content.

    pi lies over one of the three smallest split primes (2 at d = -7), q is
    one of the two smallest inert primes and varpi lies over the ramified prime.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        d=st.sampled_from(ALL_DS),
        i=st.integers(0, 2),
        j=st.integers(0, 1),
        a=st.integers(0, 12),
        b=st.integers(0, 12),
        c=st.integers(0, 3),
        r=st.integers(0, 4),
        u=st.integers(0, 5),
    )
    @example(d=-7, i=0, j=0, a=1, b=1, c=1, r=0, u=0)  # 6: 2 * 3, whose half 3 breaks parity
    @example(d=-7, i=0, j=0, a=12, b=12, c=0, r=0, u=0)
    @example(d=-7, i=0, j=0, a=12, b=3, c=1, r=1, u=1)
    @example(d=-1, i=0, j=0, a=5, b=5, c=2, r=4, u=3)
    def test_matches_division_oracle(self, d, i, j, a, b, c, r, u):
        ctx = ring(d)
        primes = _SMALL_PRIMES[d]
        pi = elements_with_norm(d, primes[SplitClass.SPLIT][i])[0]
        q = QuadInt.from_int(d, primes[SplitClass.INERT][j])
        varpi = elements_with_norm(d, primes[SplitClass.RAMIFIED][0])[0]
        unit = units(ctx)[u % ctx.unit_count]
        z = unit * pi**a * pi.conj() ** b * q**c * varpi**r
        want = delta_by_division(z, _PROFILE_NS)
        for n, value in zip(_PROFILE_NS, want):
            assert delta_n(ctx, z, n) == value, f"z={z!r}, n={n}"
        assert dict(factor_element(ctx, z).parts) == exponents_by_division(z)
        if z.norm() <= 20_000:
            for n, value in zip(_PROFILE_NS, want):
                assert value == brute_delta(z, n), f"z={z!r}, n={n}"


class TestInputContract:
    """Each entry point rejects an element of another ring, and zero."""

    CALLS = {
        "delta_n": lambda ctx, z: delta_n(ctx, z, 1),
        "index_n": lambda ctx, z: index_n(ctx, z, 1),
        "is_n_powerfully_t_perfect": lambda ctx, z: is_n_powerfully_t_perfect(ctx, z, 1, 2),
        "factor_element": factor_element,
    }

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_element_of_another_ring(self, call):
        # The d = -3 unit (1 + sqrt(-3))/2 has doubled coordinates (1, 1), not an element of Z[i].
        for z in (QuadInt(-3, 1, 1, half=True), QuadInt(-3, 6, 0), QuadInt(-7, 3, 1, half=True)):
            with pytest.raises(ValueError, match=f"element of d={z.d} passed with ring d=-1"):
                call(ring(-1), z)

    @pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
    def test_zero(self, call, ctx):
        with pytest.raises(ValueError, match="zero"):
            call(ctx, QuadInt.from_int(ctx.d, 0))

    def test_index_makes_no_call_to_factor_element(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("factor_element called")

        for name, module in list(sys.modules.items()):
            if name.startswith("quadperfect"):
                if getattr(module, "factor_element", None) is factor_element:
                    monkeypatch.setattr(module, "factor_element", refuse)
        ctx = ring(-1)
        assert index_n(ctx, QuadInt(-1, 9, 3), 2).value == 2
        assert is_n_powerfully_t_perfect(ctx, QuadInt(-1, 9, 3), 2, 2)
        assert delta_n(ctx, QuadInt(-1, 9, 3), 2) == 180


class TestIndex:
    def test_worked_example(self):
        idx = index_n(ring(-1), QuadInt(-1, 9, 3), 2)
        assert idx.value == 2
        assert idx.z_norm == 90

    def test_units_have_index_one(self, ctx):
        for u in units(ctx):
            for n in (1, 2, 5):
                assert index_n(ctx, u, n).value == 1

    def test_perfect_28_in_minus_eleven(self):
        assert index_n(ring(-11), QuadInt.from_int(-11, 28), 1).value == 2

    def test_index_equals_negative_delta(self, d):
        rng = make_rng("negdelta", d)
        ctx = ring(d)
        for _ in range(PROPERTY_CASES):
            z = random_element(rng, d, span=10)
            n = rng.randint(1, 6)
            assert index_n(ctx, z, n).value == delta_n(ctx, z, -n)

    def test_range_at_least_one(self, d):
        rng = make_rng("range", d)
        ctx = ring(d)
        for _ in range(300):
            z = random_element(rng, d)
            v = float(index_n(ctx, z, rng.randint(1, 4)).value)
            if z.is_unit():
                assert v == 1.0
            else:
                assert v > 1.0

    def test_divisor_monotonicity(self, d):
        """I_n(w) <= I_n(z) for w | z, equality exactly on associates."""
        rng = make_rng("mono", d)
        ctx = ring(d)
        done = 0
        while done < PROPERTY_CASES:
            z = random_element(rng, d, span=8)
            divs = divisors_up_to_associates(factor_element(ctx, z))
            w = rng.choice(divs)
            n = rng.randint(1, 4)
            iz = index_n(ctx, z, n).value
            iw = index_n(ctx, w, n).value
            assert float(iw) <= float(iz) + 1e-12
            assert (iw == iz) == is_associated(w, z)
            done += 1

    def test_irrational_for_odd_n_with_non_inert_support(self, d):
        """Any ramified or split prime in the support forces a radical term."""
        rng = make_rng("lemma", d)
        ctx = ring(d)
        non_inert = [
            p for p in primes_up_to(60) if classify_prime(ctx, p) is not SplitClass.INERT
        ]
        for _ in range(300):
            p = rng.choice(non_inert)
            z = prime_above(ctx, p) ** rng.randint(1, 3) * random_element(
                rng, d, span=5
            )
            n = rng.choice((1, 3, 5))
            value = index_n(ctx, z, n).value
            assert any(r != 1 for r in value.terms)

    def test_rejects_bad_n(self, ctx):
        z = QuadInt.from_int(ctx.d, 2)
        for bad in (0, -1):
            with pytest.raises(ValueError):
                index_n(ctx, z, bad)


class TestPerfection:
    def test_worked_example(self):
        assert is_n_powerfully_t_perfect(ring(-1), QuadInt(-1, 9, 3), 2, 2)

    def test_one_is_never_perfect(self, ctx):
        one = QuadInt.from_int(ctx.d, 1)
        for n in (1, 2, 3):
            assert not is_n_powerfully_t_perfect(ctx, one, n, 2)

    def test_8128_in_minus_eleven(self):
        assert is_n_powerfully_t_perfect(ring(-11), QuadInt.from_int(-11, 8128), 1, 2)

    def test_t_below_two_rejected(self, ctx):
        with pytest.raises(ValueError):
            is_n_powerfully_t_perfect(ctx, QuadInt.from_int(ctx.d, 6), 1, 1)


class TestClassicalSigma:
    def test_28_is_perfect(self):
        assert classical_sigma(28, 1) == 56
        assert classical_abundancy(28) == 2

    def test_trivial(self):
        for k in (-2, 0, 1, 3):
            assert classical_sigma(1, k) == 1

    def test_euclid_euler_arithmetic(self):
        r = 2**12 * (2**13 - 1)
        assert classical_sigma(r, 1) == 2 * r
        # Direct divisor-sum verification of the same value.
        factors = [(2, 12), (2**13 - 1, 1)]
        sigma = 1
        for p, e in factors:
            sigma *= sum(p**j for j in range(e + 1))
        assert classical_sigma(r, 1) == sigma

    def test_divisor_count(self):
        assert classical_sigma(28, 0) == 6
        assert classical_sigma(36, 0) == 9

    def test_negative_k(self):
        # sigma_{-1}(n) = sigma_1(n)/n
        for n in (6, 28, 360):
            assert classical_sigma(n, -1) == Fraction(classical_sigma(n, 1), n)

    def test_geometric_formula_random(self):
        rng = make_rng("sigma")
        for _ in range(200):
            n = rng.randrange(1, 50_000)
            k = rng.choice((-2, -1, 0, 1, 2, 3))
            direct = sum(Fraction(c) ** k for c in range(1, n + 1) if n % c == 0)
            assert classical_sigma(n, k) == direct
