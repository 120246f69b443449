"""Tests of the benchmark's oracle against published values and brute force.

Run from the checkout root: python3 -m pytest perfbench/test_oracle.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import pytest  # noqa: E402

import oracle  # noqa: E402

NINE_PLUS_THREE_I = (18, 6)


def test_delta_2_of_9_plus_3i():
    assert oracle.integer_value(oracle.delta_brute(-1, NINE_PLUS_THREE_I, 2)) == 180


def test_index_2_of_9_plus_3i_is_2():
    assert oracle.integer_value(oracle.index_brute(-1, NINE_PLUS_THREE_I, 2)) == 2


@pytest.mark.parametrize("r", [28, 8128])
def test_even_perfect_numbers_stay_perfect_in_d_minus_11(r):
    assert oracle.integer_value(oracle.index_brute(-11, (2 * r, 0), 1)) == 2


def test_expected_t_perfect_d_minus_11():
    assert oracle.expected_t_perfect(-11, 2, 8128**2) == [28, 8128]


@pytest.mark.parametrize("d", oracle.UFD_DS)
@pytest.mark.parametrize("bound", [1, 2, 50, 997, 2000])
def test_ideal_count_matches_enumeration(d, bound):
    table = oracle.elements_up_to(d, bound)
    assert oracle.ideal_count(d, bound) == sum(len(v) for v in table.values())


@pytest.mark.parametrize("d", oracle.UFD_DS)
def test_divisor_sum_multiplicative_formula_matches_brute(d):
    # 60 = 2^2 * 3 * 5 as an element, factored through the brute divisors.
    z = (120, 0)
    divisors = oracle.brute_divisors(d, z)
    primes = [w for w in divisors if oracle.is_prime_element(d, w)]
    parts = []
    for pi in primes:
        e, w = 0, z
        while (q := oracle.exact_div(d, w, pi)) is not None:
            w, e = q, e + 1
        parts.append((pi, e))
    for n in (1, 2, 3):
        assert oracle.delta_from_parts(d, parts, n) == oracle.delta_brute(d, z, n)


def test_mersenne_prediction_matches_t_perfect_search():
    for d in oracle.UFD_DS:
        small = [r for r in oracle.expected_mersenne(d) if r <= 10**4]
        assert small == [r for r in oracle.expected_t_perfect(d, 2, 10**8) if r % 2 == 0]


def test_factorization_problem_rejects_wrong_parts():
    d = -1
    z = (6, 0)  # 3 is inert for d = -1
    assert oracle.factorization_problem(d, z, (2, 0), [((6, 0), 1)]) is None
    assert oracle.factorization_problem(d, z, (2, 0), [((2, 2), 1)]) is not None
