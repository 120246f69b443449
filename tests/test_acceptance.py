"""The acceptance gate.

One test per numbered criterion, each printing a single pass/fail line
(run with -s to see them live).  Every tolerance is pinned here; nothing is
deferred to later calibration.  Scans shard across processes, capped by
QP_WORKERS.
"""

import math
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from quadperfect import (
    QuadInt,
    SplitClass,
    canonicalize,
    classify_prime,
    congruence_identities,
    delta_n,
    divisors_up_to_associates,
    eulerian_parity,
    EulerianShape,
    factor_element,
    index_n,
    is_associated,
    is_n_powerfully_t_perfect,
    LParity,
    mersenne_perfects,
    prime_above,
    primes_up_to,
    ring,
    rho,
    search_powerfully,
    search_t_perfect,
    try_div,
    units,
    verify_bounds,
    zeta_series,
)
from quadperfect.scan import _coords

from conftest import ALL_DS, make_rng, random_element, random_element_norm_le
from oracles import brute_deltas


@contextmanager
def criterion(num: int, label: str):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL {label} ({time.time() - start:.1f}s)")
        raise
    print(f"[criterion {num}] PASS {label} ({time.time() - start:.1f}s)")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "quadperfect.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


def test_criterion_1_worked_example():
    with criterion(1, "CLI reproduces I_2(9+3i) = 2 and delta_2 = 180 in < 1s each"):
        t0 = time.time()
        proc = run_cli("index", "--d", "-1", "9+3i", "--n", "2")
        elapsed_index = time.time() - t0
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "2"
        t0 = time.time()
        proc = run_cli("index", "--d", "-1", "9+3i", "--n", "2", "--delta")
        elapsed_delta = time.time() - t0
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "180"
        assert elapsed_index < 1.0 and elapsed_delta < 1.0


def test_criterion_2_perfect_numbers_in_minus_eleven():
    with criterion(2, "mersenne filter at p_max=17 yields exactly the four known perfects, < 10s"):
        t0 = time.time()
        report = mersenne_perfects(ring(-11), 17)
        elapsed = time.time() - t0
        expected = [28, 8128, 2**12 * (2**13 - 1), 2**16 * (2**17 - 1)]
        assert [z.as_int() for z in report.hits] == expected
        for z in report.hits:
            assert index_n(ring(-11), z, 1).value == 2
        assert elapsed < 10.0


def test_criterion_3_absence_in_gaussian_and_eisenstein_at_1e8():
    with criterion(3, "no 2-perfect elements below norm 1e8 in d=-1 and d=-3 (cross-checked)"):
        for d in (-1, -3):
            report = search_t_perfect(ring(d), 2, 10**8)
            assert report.hits == (), f"d={d} produced hits"
            assert report.cross_checked is True, f"d={d} routes disagree"


def test_criterion_4_no_higher_powerfully_perfect_numbers():
    with criterion(4, "scan empty for n in {3,4,5}, t in {2,3}, all nine rings, bound 1e6; zeta constants"):
        for d in ALL_DS:
            ctx = ring(d)
            for n in (3, 4, 5):
                for t in (2, 3):
                    report = search_powerfully(ctx, n, t, 10**6)
                    assert report.hits == (), f"d={d} n={n} t={t}"
        z52 = zeta_series(2.5) ** 2
        assert 1.79 < z52 < 1.81
        pi4 = math.pi**4
        assert pi4 / 60 < 2 and pi4 / 52 < 2 and 4 * pi4 / 195 < 2
        report = verify_bounds(5, [(ring(-2), QuadInt.from_int(-2, 360))])
        assert report.ok


def test_criterion_5_oracle_equivalence():
    with criterion(5, "multiplicative delta equals brute-force divisor sums: norm <= 1e4, all rings, n in -3..4"):
        for d in ALL_DS:
            ctx = ring(d)
            xs, ys, _ = _coords(d, 1, 10**4 + 1)
            brute = brute_deltas(d, 10**4, range(-3, 5))
            mismatches = 0
            for x, y in zip(xs.tolist(), ys.tolist()):
                z = QuadInt(d, x, y, half=True)
                for n, want in zip(range(-3, 5), brute[(x, y)]):
                    if delta_n(ctx, z, n) != want:
                        mismatches += 1
            assert mismatches == 0, f"d={d}: {mismatches} discrepancies"


def test_criterion_6_property_suites():
    cases = 1000
    with criterion(6, "six property suites, 1000 random cases per ring, zero failures"):
        for d in ALL_DS:
            ctx = ring(d)
            one = QuadInt.from_int(d, 1)

            rng = make_rng("acc-mult", d)
            done = 0
            while done < cases:
                z = random_element(rng, d, span=10)
                w = random_element(rng, d, span=10)
                if {pi for pi, _ in factor_element(ctx, z).parts} & {
                    pi for pi, _ in factor_element(ctx, w).parts
                }:
                    continue
                n = rng.randint(1, 4)
                assert delta_n(ctx, z * w, n) == delta_n(ctx, z, n) * delta_n(ctx, w, n)
                assert (
                    index_n(ctx, z * w, n).value
                    == index_n(ctx, z, n).value * index_n(ctx, w, n).value
                )
                done += 1

            rng = make_rng("acc-negdelta", d)
            for _ in range(cases):
                z = random_element(rng, d, span=10)
                n = rng.randint(1, 6)
                assert index_n(ctx, z, n).value == delta_n(ctx, z, -n)

            rng = make_rng("acc-mono", d)
            for _ in range(cases):
                z = random_element(rng, d, span=6)
                divs = divisors_up_to_associates(factor_element(ctx, z))
                w = rng.choice(divs)
                n = rng.randint(1, 3)
                iz, iw = index_n(ctx, z, n).value, index_n(ctx, w, n).value
                assert float(iw) <= float(iz) + 1e-12
                assert (iw == iz) == is_associated(w, z)

            rng = make_rng("acc-canon", d)
            for _ in range(cases):
                z = random_element(rng, d)
                rep = canonicalize(z)[1]
                for u in units(ctx):
                    assert canonicalize(u * z)[1] == rep

            rng = make_rng("acc-fact", d)
            for _ in range(cases):
                z = random_element_norm_le(rng, d, 10**8)
                f = factor_element(ctx, z)
                assert f.unit.is_unit() and f.value() == z

            rng = make_rng("acc-inert", d)
            inert = [
                p for p in primes_up_to(50)
                if classify_prime(ctx, p) is SplitClass.INERT
            ]
            for _ in range(cases):
                z = random_element(rng, d)
                q = rng.choice(inert)
                v, n = 0, z.norm()
                while n % q == 0:
                    n //= q
                    v += 1
                assert v % 2 == 0
                assert rho(QuadInt.from_int(d, q), z) == v // 2


def test_criterion_7_splitting_tables():
    with criterion(7, "classification tables for p < 1e4 in all rings; norm-p primes; conjugate rule"):
        for d in ALL_DS:
            ctx = ring(d)
            for p in primes_up_to(10**4):
                cls = classify_prime(ctx, p)
                if d == -1 and p != 2:
                    assert (cls is SplitClass.INERT) == (p % 4 == 3)
                if d == -3 and p != 3:
                    assert (cls is SplitClass.INERT) == (p % 3 == 2)
                if d == -11 and p != 11:
                    assert (cls is SplitClass.INERT) == (p % 11 in {2, 6, 7, 8, 10})
                if cls is SplitClass.INERT:
                    continue
                pi = prime_above(ctx, p)
                assert pi.norm() == p
                assert is_associated(pi, pi.conj()) == (cls is SplitClass.RAMIFIED)


def test_criterion_8_congruence_identities_and_parity():
    with criterion(8, "mod-8 identities (i)-(iv) pass; parity predictor matches k mod 8"):
        report = congruence_identities()
        assert report.ok, report.failures()
        for k in (1, 9, 17, 25):
            assert eulerian_parity(EulerianShape(5, k, (1,), 7)) is LParity.ODD_L
        for k in (5, 13, 21, 29):
            assert eulerian_parity(EulerianShape(5, k, (1,), 7)) is LParity.EVEN_L


def test_criterion_9_cross_check_invariant():
    with criterion(9, "IntegerReduction and DirectScan agree for every ring at t=2, bound 1e6"):
        for d in ALL_DS:
            report = search_t_perfect(ring(d), 2, 10**6)
            assert report.cross_checked is True, f"d={d}"
