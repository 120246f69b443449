import math
import tracemalloc

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quadperfect import (
    QuadInt,
    SplitClass,
    classify_prime,
    factor_integer,
    is_associated,
    is_probable_prime,
    prime_above,
    primes_up_to,
    ring,
    sqrt_mod,
)
from quadperfect.splitting import _TRIAL_LIMIT, _perfect_root

from conftest import ALL_DS, make_rng
from oracles import sympy_class

PRIME_TABLE_LIMIT = 10_000


class TestClassify:
    def test_two_by_ring(self):
        assert classify_prime(ring(-1), 2) is SplitClass.RAMIFIED
        assert classify_prime(ring(-2), 2) is SplitClass.RAMIFIED
        assert classify_prime(ring(-7), 2) is SplitClass.SPLIT
        for d in (-3, -11, -19, -43, -67, -163):
            assert classify_prime(ring(d), 2) is SplitClass.INERT

    def test_gaussian_three_inert(self):
        assert classify_prime(ring(-1), 3) is SplitClass.INERT

    def test_composite_rejected(self, ctx):
        for bad in (1, 4, 91, 2047):
            with pytest.raises(ValueError):
                classify_prime(ctx, bad)

    def test_minus_eleven_residue_rule(self):
        ctx = ring(-11)
        inert_classes = {2, 6, 7, 8, 10}
        for p in primes_up_to(PRIME_TABLE_LIMIT):
            if p == 11:
                continue
            expected = p % 11 in inert_classes
            assert (classify_prime(ctx, p) is SplitClass.INERT) == expected

    def test_gaussian_residue_rule(self):
        ctx = ring(-1)
        for p in primes_up_to(PRIME_TABLE_LIMIT):
            if p == 2:
                continue
            assert (classify_prime(ctx, p) is SplitClass.INERT) == (p % 4 == 3)

    def test_eisenstein_residue_rule(self):
        ctx = ring(-3)
        for p in primes_up_to(PRIME_TABLE_LIMIT):
            if p == 3:
                continue
            assert (classify_prime(ctx, p) is SplitClass.INERT) == (p % 3 == 2)


class TestSqrtMod:
    def test_small_cases(self):
        assert sqrt_mod(-1, 5) == 2
        assert sqrt_mod(-1, 3) is None
        assert sqrt_mod(0, 7) == 0

    def test_root_is_canonical_and_squares_back(self):
        rng = make_rng("tonelli")
        primes = [p for p in primes_up_to(100_000) if p > 2]
        checked = 0
        while checked < 100:
            p = rng.choice(primes)
            d = rng.choice(ALL_DS)
            r = sqrt_mod(d, p)
            if r is None:
                continue
            assert 0 <= r <= (p - 1) // 2
            assert r * r % p == d % p
            checked += 1

    def test_nonresidue_detected(self):
        rng = make_rng("tonelli-nr")
        primes = [p for p in primes_up_to(10_000) if p > 2]
        for _ in range(200):
            p = rng.choice(primes)
            a = rng.randrange(1, p)
            r = sqrt_mod(a, p)
            if r is None:
                assert pow(a, (p - 1) // 2, p) == p - 1
            else:
                assert r * r % p == a % p


class TestPrimeAbove:
    def test_gaussian_five(self):
        assert prime_above(ring(-1), 5) == QuadInt(-1, 2, 1)

    def test_split_two_in_minus_seven(self):
        assert prime_above(ring(-7), 2) == QuadInt(-7, 1, 1, half=True)

    def test_three_in_minus_eleven(self):
        assert prime_above(ring(-11), 3) == QuadInt(-11, 1, 1, half=True)

    def test_inert_rejected(self):
        with pytest.raises(ValueError):
            prime_above(ring(-1), 3)

    def test_exhaustive_tables(self, d):
        """For p < 10^4: exactly one class; non-inert p carries a norm-p prime;
        ramified iff that prime is associated to its conjugate."""
        ctx = ring(d)
        for p in primes_up_to(PRIME_TABLE_LIMIT):
            cls = classify_prime(ctx, p)
            if cls is SplitClass.INERT:
                continue
            pi = prime_above(ctx, p)
            assert pi.norm() == p
            conj_assoc = is_associated(pi, pi.conj())
            assert conj_assoc == (cls is SplitClass.RAMIFIED)


class TestFactorInteger:
    def test_paper_adjacent_values(self):
        assert factor_integer(90).factors == ((2, 1), (3, 2), (5, 1))
        assert factor_integer(1).factors == ()
        assert factor_integer(131071).factors == ((131071, 1),)

    def test_rejects_nonpositive(self):
        for bad in (0, -4):
            with pytest.raises(ValueError):
                factor_integer(bad)

    def test_round_trip_random(self):
        rng = make_rng("factor")
        for _ in range(1000):
            n = rng.randrange(1, 10**12)
            fac = factor_integer(n)
            assert fac.n == n
            product = 1
            last = 1
            for p, e in fac.factors:
                assert p > last, "primes must strictly increase"
                assert is_probable_prime(p)
                product *= p**e
                last = p
            assert product == n

    def test_large_semiprime(self):
        # Forces the rho stage: two primes beyond the trial division limit.
        p, q = 1_000_003, 1_000_033
        assert factor_integer(p * q).factors == ((p, 1), (q, 1))

    def test_powers_of_large_primes(self):
        # Rho cannot split a power of a prime this large; roots are taken first.
        m61, m89, m31 = 2**61 - 1, 2**89 - 1, 2**31 - 1
        assert factor_integer(m61**2).factors == ((m61, 2),)
        assert factor_integer(m89**3 * m31).factors == ((m31, 1), (m89, 3))
        assert factor_integer(m31**6).factors == ((m31, 6),)
        assert factor_integer(1_000_003**2 * 1_000_033).factors == (
            (1_000_003, 2),
            (1_000_033, 1),
        )


class TestMillerRabin:
    def test_known_values(self):
        assert is_probable_prime(2)
        assert is_probable_prime(2**17 - 1)
        assert is_probable_prime(2**127 - 1)
        assert not is_probable_prime(2**11 - 1)
        assert not is_probable_prime(561)  # Carmichael
        assert not is_probable_prime(1)


# sympy is a second implementation; each property draws a few dozen cases.
_oracle = settings(max_examples=40, deadline=None)
# Around 2**64: the deterministic witness set below, 40 seeded rounds above.
_around_2_64 = st.integers(2**63, 2**66)
_big_prime = st.integers(2**32, 2**66).map(sympy.nextprime)


class TestSympyOracle:
    @pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 2039, _TRIAL_LIMIT, 10**5 + 3])
    def test_primes_up_to(self, limit):
        assert primes_up_to(limit) == tuple(sympy.primerange(limit + 1))

    def test_primes_up_to_refuses_a_limit_outside_its_range_before_building(self):
        tracemalloc.start()
        try:
            for limit in (-1, 2**26 + 1, 10**10):
                with pytest.raises(ValueError, match=r"0\.\.2\*\*26"):
                    primes_up_to(limit)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # a 2**26 sieve alone is 64 MB

    @_oracle
    @given(st.one_of(st.integers(-5, 10**6), _around_2_64, _around_2_64.map(sympy.nextprime)))
    def test_is_probable_prime(self, n):
        assert is_probable_prime(n) == sympy.isprime(n)

    @_oracle
    @given(st.tuples(_big_prime, _big_prime))
    def test_is_probable_prime_rejects_large_semiprimes(self, pq):
        assert not is_probable_prime(pq[0] * pq[1])

    @_oracle
    @given(
        st.one_of(
            st.integers(1, 10**15),
            st.tuples(st.integers(10**6, 10**8), st.integers(10**6, 10**8), st.integers(1, 3)).map(
                lambda t: sympy.nextprime(t[0]) ** t[2] * sympy.nextprime(t[1])
            ),
        )
    )
    def test_factor_integer(self, n):
        assert dict(factor_integer(n).factors) == sympy.factorint(n)

    @_oracle
    @given(
        st.sampled_from(ALL_DS),
        st.one_of(st.integers(3, 10**9).map(sympy.prevprime), _around_2_64.map(sympy.nextprime)),
    )
    def test_classify_prime(self, d, p):
        assert classify_prime(ring(d), p) is sympy_class(d, p)

    @_oracle
    @given(
        st.one_of(st.sampled_from(ALL_DS), st.integers(-(10**6), 10**6)),
        st.integers(3, 10**12).map(sympy.nextprime),
    )
    def test_sqrt_mod(self, a, p):
        # Both return the least root, or None for a nonresidue.
        assert sqrt_mod(a, p) == sympy.sqrt_mod(a, p)

    @pytest.mark.parametrize("d", ALL_DS, ids=lambda d: f"d={d}")
    @settings(max_examples=15, deadline=None)
    @given(st.one_of(st.integers(2, 200), st.integers(2, 10**12)).map(lambda m: sympy.nextprime(m - 1)))
    def test_prime_above_has_norm_p(self, d, p):
        ctx = ring(d)
        if sympy_class(d, p) is SplitClass.INERT:
            with pytest.raises(ValueError):
                prime_above(ctx, p)
        else:
            assert prime_above(ctx, p).norm() == p


# Past the trial table, factors come from Miller-Rabin, _perfect_root and rho.
_ABOVE = [2053, 2063, 2069, 2081, 2083]
_ROOT_BITS = _TRIAL_LIMIT.bit_length() - 1


class TestPastTheTrialTable:
    def test_first_primes_above_the_table(self):
        assert _ABOVE == [sympy.nextprime(_TRIAL_LIMIT, i) for i in range(1, 6)]
        assert sympy.prevprime(_ABOVE[0]) <= _TRIAL_LIMIT

    def test_products_of_two(self):
        for i, p in enumerate(_ABOVE):
            for q in _ABOVE[i + 1 :]:
                for n in (p * q, p * p * q, p * q * q, 2 * 3 * p * q):
                    assert dict(factor_integer(n).factors) == sympy.factorint(n), n

    def test_prime_powers_up_to_the_root_bound(self):
        # The bound m.bit_length() // _ROOT_BITS equals k at p**k for each prime
        # k tried here, so _perfect_root must reach exactly k.
        for p in _ABOVE:
            for k in range(1, 24):
                n = p**k
                assert factor_integer(n).factors == ((p, k),), n
                if sympy.isprime(k):
                    assert n.bit_length() // _ROOT_BITS == k
                    assert _perfect_root(n) == (p, k)
            assert factor_integer(p**5 * 3**7).factors == ((3, 7), (p, 5))

    def test_neighbours_of_the_limit_squared(self):
        edges = (_TRIAL_LIMIT**2, sympy.prevprime(_TRIAL_LIMIT) ** 2, _ABOVE[0] ** 2)
        for edge in edges:
            for n in range(edge - 64, edge + 65):
                assert dict(factor_integer(n).factors) == sympy.factorint(n), n

    @_oracle
    @given(
        st.one_of(
            st.integers(1, 4 * _TRIAL_LIMIT**2),
            st.lists(
                st.integers(_TRIAL_LIMIT, 999_982).map(sympy.nextprime), min_size=1, max_size=4
            ).map(math.prod),
        )
    )
    def test_against_sympy(self, n):
        assert dict(factor_integer(n).factors) == sympy.factorint(n)
