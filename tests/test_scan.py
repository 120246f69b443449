import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy

from quadperfect import InternalInconsistency, QuadInt, direct_scan, in_sector, index_n, ring
from quadperfect import scan
from quadperfect.abundancy import Index, SurdSum
from quadperfect.scan import _coords, _factor_segment, scan_shard
from quadperfect.splitting import _CLASSES, SplitClass, is_probable_prime, primes_up_to

from conftest import make_rng
from oracles import (
    canonical_elements_up_to,
    coords_by_rows,
    elements_with_norm,
    flagged_norms,
    profiles_divide,
    sympy_class,
)

SMALL_BOUND = 400


class TestCoords:
    def test_matches_literal_enumeration(self, d):
        expected = sorted((z.x, z.y) for z in canonical_elements_up_to(d, SMALL_BOUND))
        xs, ys, ns = _coords(d, 1, SMALL_BOUND + 1)
        got = sorted(zip(xs.tolist(), ys.tolist()))
        assert got == expected

    def test_norms_and_sector(self, d):
        xs, ys, ns = _coords(d, 50, 120)
        D = -d
        for x, y, n in zip(xs.tolist(), ys.tolist(), ns.tolist()):
            assert (x * x + D * y * y) // 4 == n
            assert 50 <= n < 120
            assert in_sector(QuadInt(d, x, y, half=True))

    def test_interval_partition(self, d):
        """Splitting the range at any point never changes the union."""
        whole = _coords(d, 1, 201)
        a = _coords(d, 1, 77)
        b = _coords(d, 77, 201)
        union = sorted(zip(a[0].tolist(), a[1].tolist())) + sorted(
            zip(b[0].tolist(), b[1].tolist())
        )
        assert sorted(union) == sorted(zip(whole[0].tolist(), whole[1].tolist()))

    def test_empty_range(self, d):
        xs, ys, ns = _coords(d, 10**6, 10**6 + 1)
        # A one-norm window is allowed to be empty or not; shape consistency only.
        assert xs.shape == ys.shape == ns.shape


# A window straddling 2**31 and one above 1e9.
DEEP_WINDOWS = ((2**31 - 1000, 2**31 + 1000), (10**9, 10**9 + 2000))


def _one_norm_windows(d: int) -> list[tuple[int, int]]:
    """[N, N + 1) where 4N - |d|*y*y is a square: on the real axis at N = k*k,
    and above it at the norm of an element with y > 0, so both ends of a
    row's x range are exact squares."""
    xys = [(8, 4), (10_000, 2_468)] + ([(7, 5), (9_999, 2_469)] if d % 4 == 1 else [])
    above = [(x * x - d * y * y) // 4 for x, y in xys]
    return [(N, N + 1) for N in [1, 4, 10**6, 46_341**2, (10**5 + 3) ** 2] + above]


def _sorted_rows(rows) -> np.ndarray:
    """(x, y, N) rows in sorted order, so two enumerations compare as multisets."""
    out = np.asarray(rows, dtype=np.int64).reshape(-1, 3)
    return out[np.lexsort(out.T[::-1])]


class TestCoordsOracle:
    """_coords against the per-row math.isqrt enumeration of oracles.coords_by_rows,
    as multisets of (x, y, N), and its norm counts against np.unique."""

    def windows(self, d):
        return [
            (1, SMALL_BOUND + 1), (50, 120), (1, 77), (77, 201), (1, 201), (10**6, 10**6 + 1),
            (0, 50),  # the zero element is not canonical
            (99 * 10**6, 10**8), *DEEP_WINDOWS, *_one_norm_windows(d),
        ]  # fmt: skip

    def test_matches_row_oracle(self, d):
        for lo, hi in self.windows(d):
            got = _sorted_rows(np.stack(_coords(d, lo, hi), axis=1))
            want = _sorted_rows(coords_by_rows(d, lo, hi))
            assert np.array_equal(got, want), f"d={d} [{lo}, {hi})"

    def test_one_norm_windows_are_not_empty(self, d):
        for lo, hi in _one_norm_windows(d):
            assert lo in _coords(d, lo, hi)[2], f"d={d} N={lo}"

    def test_norm_counts_match_unique(self, d):
        for lo, hi in self.windows(d):
            ns = _coords(d, lo, hi)[2]
            uniq, counts = scan._norm_counts(ns, lo, hi)
            want_uniq, want_counts = np.unique(ns, return_counts=True)
            assert np.array_equal(uniq, want_uniq) and np.array_equal(counts, want_counts)


class TestIsqrt:
    """The int64 square root of _coords against math.isqrt at k*k - 1, k*k and
    k*k + 1, up to k = isqrt(2**63 - 1), where a naive (r + 1)**2 wraps."""

    TOP = math.isqrt(2**63 - 1)  # 3037000499

    def test_around_squares(self):
        rng = make_rng("isqrt")
        ks = {*range(2_000), *range(self.TOP - 2_000, self.TOP + 1)}
        ks |= {k for j in range(27, 32) for k in range(2**j - 50, 2**j + 50)}
        ks |= {rng.randrange(self.TOP + 1) for _ in range(20_000)}
        assert self.TOP in ks and self.TOP * self.TOP + 1 < 2**63
        vs = sorted({k * k + e for k in ks for e in (-1, 0, 1) if k * k + e >= 0} | {2**63 - 1})
        got = scan._isqrt(np.array(vs, dtype=np.int64))
        assert got.tolist() == [math.isqrt(v) for v in vs]


def _bound(d: int, n: int, fac: dict[int, int]) -> Fraction:
    """The even-n bound R over the primes of fac, exactly (split a = e//2)."""
    out = Fraction(1)
    for p, e in fac.items():
        c = sympy_class(d, p)
        x = Fraction(1, p ** (n if c is SplitClass.INERT else n // 2))
        a = e if c is SplitClass.RAMIFIED else e // 2
        b = e - a if c is SplitClass.SPLIT else 0
        out *= sum(x**j for j in range(a + 1)) * sum(x**j for j in range(b + 1))
    return out


class TestFactorSegment:
    """The sieve's accumulators, integer by integer, against sympy.factorint:
    sieve part times cofactor, element count, odd-inert count and R.  The
    windows around 2**40 and 3**25 reach levels k = 40 and 25; R holds the
    scan docstring's bound of 19*u per level, u = 2**-53."""

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (1, 1000),
            (999_000, 1_000_000),
            (10**8 - 500, 10**8),
            (2**40 - 300, 2**40 + 300),
            (3**25 - 300, 3**25 + 300),
        ],
    )
    def test_complete_factorizations(self, lo, hi):
        root = math.isqrt(hi - 1)
        fac = {m: sympy.factorint(m) for m in range(lo, hi)}
        for d in (-1, -3, -7, -163):
            odd_n, even_n = _factor_segment(d, 1, lo, hi), _factor_segment(d, 2, lo, hi)
            assert odd_n.primes == even_n.primes == list(sympy.primerange(root + 1))
            for i, m in enumerate(range(lo, hi)):
                sieved = {p: e for p, e in fac[m].items() if p <= root}
                cofactor = math.prod(p**e for p, e in fac[m].items() if p > root)
                cls = {p: sympy_class(d, p) for p in sieved}
                for sv in (odd_n, even_n):
                    assert int(sv.acc[i]) * cofactor == m, (d, m)
                    assert sv.count[i] == math.prod(
                        e + 1 for p, e in sieved.items() if cls[p] is SplitClass.SPLIT
                    ), (d, m)
                    assert sv.odd[i] == sum(
                        1 for p, e in sieved.items() if cls[p] is SplitClass.INERT and e & 1
                    ), (d, m)
                levels = sum(sieved.values())
                assert even_n.R[i] == pytest.approx(
                    float(_bound(d, 2, sieved)), rel=19 * 2**-53 * levels
                ), (d, m)


class TestTrialDivide:
    @pytest.mark.parametrize("lo,hi", [(1, 20_000), (10**9, 10**9 + 2_000)])
    def test_sieve_parts_match_factorint(self, lo, hi):
        """The rows of every sieve part acc, sorted stably by entry, spell out its
        factorization in increasing primes: one prime per block at first, many
        once few entries are left."""
        sv = _factor_segment(-1, 1, lo, hi)
        i, p, e = scan._trial_divide(sv.acc, sv.primes)
        order = np.argsort(i, kind="stable")
        got: list[list[tuple[int, int]]] = [[] for _ in range(sv.acc.size)]
        for j, pj, ej in zip(i[order].tolist(), p[order].tolist(), e[order].tolist()):
            got[j].append((pj, ej))
        assert got == [sorted(sympy.factorint(a).items()) for a in sv.acc.tolist()]


class TestPrimeTableCache:
    def test_one_table_per_power_of_two(self):
        lows = [9_000_000 + k * 7_500_000 for k in range(12)]
        powers = {1 << math.isqrt(lo + 999).bit_length() for lo in lows}
        assert len(powers) <= 3
        before = primes_up_to.cache_info().misses
        for lo in lows:
            _factor_segment(-1, 1, lo, lo + 1000)
        assert primes_up_to.cache_info().misses - before <= len(powers)

    def test_many_limits_stay_within_the_bound(self):
        for limit in range(1000, 1100):
            primes_up_to(limit)
        info = primes_up_to.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize < 100


class TestClassifyPrimes:
    # The primes below 2e5 fall in every residue class of every ring's table;
    # the window just above isqrt(2**63 - 1) is where an int64 power mod p
    # would wrap, so a lookup must not depend on the size of p.
    PRIMES = list(primes_up_to(199_999)) + [
        p for p in range(3_037_000_500, 3_037_003_000) if is_probable_prime(p)
    ]

    def test_matches_scalar_classify(self, d):
        codes = scan._classify_primes(d, np.array(self.PRIMES, dtype=np.int64))
        got = [_CLASSES[c] for c in codes.tolist()]
        assert got == [sympy_class(d, p) for p in self.PRIMES]

    @pytest.mark.parametrize("d", [-1, -163])
    @pytest.mark.parametrize("n", [1, 2])
    def test_shard_across_the_int64_bound(self, d, n):
        assert scan_shard(d, n, 3_037_000_000, 3_037_004_000) == []


FILTER_WINDOWS = ((1, 20_001), (99_990_000, 100_000_000))


@pytest.fixture(scope="module")
def factored_windows():
    return {w: [(m, sympy.factorint(m)) for m in range(*w)] for w in FILTER_WINDOWS}


@pytest.fixture(scope="module")
def deep_windows():
    return {w: {m: sympy.factorint(m) for m in range(*w)} for w in DEEP_WINDOWS}


class TestFilter:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_keeps_every_norm_the_scalar_test_flags(self, d, n, factored_windows):
        for (lo, hi), factored in factored_windows.items():
            uniq, counts = np.unique(_coords(d, lo, hi)[2], return_counts=True)
            kept = set(scan._filter(d, n, lo, hi, uniq, counts).tolist())
            flagged = flagged_norms(d, n, factored)
            assert flagged <= kept, f"[{lo}, {hi}) n={n}: dropped {sorted(flagged - kept)[:5]}"

    def test_past_two_to_the_31(self, d, deep_windows):
        """Windows straddling 2**31 and above 1e9 keep every flagged norm."""
        for (lo, hi), factored in deep_windows.items():
            uniq, counts = np.unique(_coords(d, lo, hi)[2], return_counts=True)
            for n in (1, 2, 3, 4, 5):
                kept = set(scan._filter(d, n, lo, hi, uniq, counts).tolist())
                flagged = flagged_norms(d, n, factored.items())
                assert flagged <= kept, f"[{lo}, {hi}) n={n}"

    def test_odd_n_keeps_exactly_the_all_inert_norms(self, d, factored_windows, deep_windows):
        """For odd n the kept norms are the norms all of whose primes sympy calls
        inert, below 2**31, straddling it and above 1e9."""
        windows = [*factored_windows.items(), *((w, f.items()) for w, f in deep_windows.items())]
        for (lo, hi), factored in windows:
            factored = dict(factored)
            uniq, counts = np.unique(_coords(d, lo, hi)[2], return_counts=True)
            inert = {
                m
                for m in uniq.tolist()
                if all(sympy_class(d, p) is SplitClass.INERT for p in factored[m])
            }
            for n in (1, 3, 5):
                kept = scan._filter(d, n, lo, hi, uniq, counts).tolist()
                assert kept == sorted(inert), f"[{lo}, {hi}) n={n}"

    def test_n2_keeps_only_norms_whose_profiles_divide(self, d, factored_windows, deep_windows):
        """At n = 2 the kept norms lie between the flagged ones and those m with
        m | prod(M_q), on windows below 2**31, straddling it and above 1e9."""
        windows = [*factored_windows.items(), *((w, f.items()) for w, f in deep_windows.items())]
        for (lo, hi), factored in windows:
            factored = list(factored)
            uniq, counts = np.unique(_coords(d, lo, hi)[2], return_counts=True)
            kept = set(scan._filter(d, 2, lo, hi, uniq, counts).tolist())
            divisible = {m for m, fac in factored if m > 1 and profiles_divide(d, 2, fac)}
            assert flagged_norms(d, 2, factored) <= kept <= divisible, f"[{lo}, {hi})"

    @pytest.mark.parametrize("n,wide", [(2, False), (2, True), (4, False)])
    def test_profile_test_matches_oracle(self, d, n, wide):
        """_profiles_divide equals the oracle on the norms in [2, 3000), whatever
        their float bound: in int64 at n = 2, and in Python integers once the
        norms of [2**31, 2**31 + 100) join them (wide) or n > 2."""
        windows = [(2, 3000)] + [(2**31, 2**31 + 100)] * wide
        norms = sorted({m for w in windows for m in _coords(d, *w)[2].tolist()})
        fac = [sympy.factorint(m) for m in norms]
        rows = [(j, p, e) for j, f in enumerate(fac) for p, e in sorted(f.items())]
        i, p, e = (np.array(col, dtype=np.int64) for col in zip(*rows))
        code = scan._classify_primes(d, p)
        got = scan._profiles_divide(n, np.array(norms, dtype=np.int64), i, p, e, code)
        assert got.tolist() == [profiles_divide(d, n, f) for f in fac]

    def test_few_n2_norms_survive(self):
        lo, hi = 1, 10**5
        uniq, counts = np.unique(_coords(-7, lo, hi)[2], return_counts=True)
        assert len(scan._filter(-7, 2, lo, hi, uniq, counts)) <= 30

    def test_reference_flags_a_known_hit(self, factored_windows):
        # The inclusion above is not vacuous: 9+3i of norm 90 has I_2 = 2.
        assert 90 in flagged_norms(-1, 2, factored_windows[FILTER_WINDOWS[0]])


class TestScanShard:
    def test_matches_definition(self, d):
        """Engine hits equal a per-element exact index computation.

        The second window holds many norms with a squared split prime, where
        even n weighs every exponent profile; d=-7, n=2 below 400 resolves
        profiles element by element.
        """
        ctx = ring(d)
        for lo, hi in ((1, SMALL_BOUND + 1), (4000, 6000)):
            elements = [z for m in range(lo, hi) for z in elements_with_norm(d, m)]
            for n in (1, 2, 3, 4, 5):
                expected = []
                for z in elements:
                    v = index_n(ctx, z, n).value
                    if v.is_rational():
                        fr = v.as_fraction()
                        if fr.denominator == 1 and fr >= 2:
                            expected.append((z.x, z.y, int(fr)))
                got = scan_shard(d, n, lo, hi)
                assert sorted(got) == sorted(expected), f"[{lo}, {hi}) n={n}"

    def test_shard_splitting_invariance(self, d):
        rng = make_rng("shardsplit", d)
        whole = sorted(scan_shard(d, 2, 1, SMALL_BOUND + 1))
        cut = rng.randint(2, SMALL_BOUND)
        parts = sorted(
            scan_shard(d, 2, 1, cut) + scan_shard(d, 2, cut, SMALL_BOUND + 1)
        )
        assert parts == whole

    def test_known_hit(self):
        hits = scan_shard(-1, 2, 1, 91)
        assert (18, 6, 2) in hits  # 9+3i

    def test_rejects_bad_n(self):
        for n in (65, 0):
            with pytest.raises(ValueError, match=r"1\.\.64"):
                scan_shard(-1, n, 1, 100)

    def test_rejects_norms_past_int64(self):
        # Above 2**52 the sieve's prime table passes 2**26, and above 2**61
        # 4*N leaves int64; the window is refused before any array is built
        # (a billion-wide one would need gigabytes).
        for lo, hi in ((2**52, 2**52 + 1), (2**61, 2**61 + 1), (2**62, 2**62 + 10**9)):
            with pytest.raises(ValueError, match=r"2\*\*52"):
                scan_shard(-1, 1, lo, hi)

    def test_refuses_a_prime_table_past_2_26_before_building_it(self, monkeypatch):
        # hi = 2**52 + 10 would ask primes_up_to for 2**27.
        def no_table(limit):
            raise AssertionError(f"primes_up_to({limit}) was called")

        monkeypatch.setattr(scan, "primes_up_to", no_table)
        with pytest.raises(ValueError, match=r"2\*\*52"):
            scan_shard(-1, 1, 2**52, 2**52 + 10)

    @pytest.mark.parametrize("d", [-2, -7])
    def test_widest_shard_of_a_1e8_scan_holds_under_32_mb(self, laid_out, monkeypatch, d):
        # n = 2 at d = -2 and -7 holds the most bytes per norm of any ring and n
        # (about 78); the widest shard a two-worker scan to 1e8 lays out, run
        # just below 1e8, stays well under what a 10**6-wide one holds (75 MB).
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        _, tasks = laid_out
        direct_scan(d, 2, 10**8, workers=2)
        width = max(hi - lo for _, _, lo, hi in tasks)
        scan_shard(d, 2, 10**8 - width, 10**8)  # warms the prime table and the chains
        tracemalloc.start()
        try:
            scan_shard(d, 2, 10**8 - width, 10**8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    def test_split_square_resolution(self):
        """Norms with a squared split prime need per-element resolution; the
        n=2 index must separate (2,0) from (1,1) exponent profiles."""
        ctx = ring(-1)
        # norm 25: (2+i)^2 [norm 25, I_2 = 31/25], (2+i)(2-i)=5 [I_2 = 36/25],
        # neither an integer, but both profiles must be distinguished at n=2
        # for elements like (1+i)(2+i)^2 where integers can arise.
        hits = scan_shard(-1, 2, 1, 2001)
        for x, y, t in hits:
            z = QuadInt(-1, x, y, half=True)
            v = index_n(ctx, z, 2).value
            assert v == t

    def test_exact_index_decides_every_element_of_a_flagged_norm(self, monkeypatch):
        # Norm 56 = 2**3 * 7 at d=-7 has four elements; the profiles of 2 give
        # I_2 = 3 (two elements) and 15/7.  Whatever index_n says is reported.
        def three_at_56(ctx, z, n):
            if z.norm() == 56:
                return Index(value=SurdSum.from_rational(3), n=n, z_norm=56)
            return index_n(ctx, z, n)

        monkeypatch.setattr(scan, "index_n", three_at_56)
        hits = scan_shard(-7, 2, 50, 60)
        assert len(hits) == 4
        assert all(QuadInt(-7, x, y, half=True).norm() == 56 and t == 3 for x, y, t in hits)


class TestScanChecks:
    """Each exact check inside a shard aborts the scan when it fails."""

    def test_hit_failing_certification_raises(self, monkeypatch):
        def wrong(ctx, z, n):
            return Index(value=index_n(ctx, z, n).value * SurdSum({1: 2}), n=n, z_norm=z.norm())

        monkeypatch.setattr(scan, "index_n", wrong)
        with pytest.raises(InternalInconsistency, match="exact index"):
            scan_shard(-1, 2, 1, 91)

    def test_inert_prime_with_odd_exponent_raises(self, monkeypatch):
        # 5 splits in the Gaussian ring; calling it inert makes norm 5 impossible.
        real = scan._classify_primes
        monkeypatch.setattr(
            scan, "_classify_primes", lambda d, ps: np.where(ps == 5, scan._INERT, real(d, ps))
        )
        with pytest.raises(InternalInconsistency, match="odd exponent"):
            scan_shard(-1, 1, 1, 10)

    def test_element_count_mismatch_raises(self, monkeypatch):
        # 3 is inert in the Gaussian ring: norm 9 has one element, not three.
        real = scan._classify_primes
        monkeypatch.setattr(
            scan, "_classify_primes", lambda d, ps: np.where(ps == 3, scan._SPLIT, real(d, ps))
        )
        with pytest.raises(InternalInconsistency, match="predicted"):
            scan_shard(-1, 2, 1, 10)
