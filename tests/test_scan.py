import numpy as np
import pytest
import sympy

from quadperfect import InternalInconsistency, QuadInt, in_sector, index_n, ring
from quadperfect import scan
from quadperfect.abundancy import Index, SurdSum
from quadperfect.scan import _coords, _factor_segment, scan_shard
from quadperfect.splitting import _classify, is_probable_prime, primes_up_to

from conftest import make_rng
from oracles import canonical_elements_up_to, elements_with_norm, flagged_norms

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


class TestFactorSegment:
    @pytest.mark.parametrize("lo,hi", [(1, 1000), (999_000, 1_000_000), (10**8 - 500, 10**8)])
    def test_complete_factorizations(self, lo, hi):
        fp, fe, fc = _factor_segment(lo, hi)
        for i, n in enumerate(range(lo, hi)):
            product = 1
            for p, e in zip(fp[i][: fc[i]].tolist(), fe[i][: fc[i]].tolist()):
                product *= int(p) ** int(e)
            assert product == n, f"bad factorization of {n}"


class TestClassifyPrimes:
    # The int64 Euler criterion is only sound up to scan._EULER_MAX; the
    # window above it holds primes it would misclassify without a warning.
    PRIMES = list(primes_up_to(199_999)) + [
        p for p in range(3_037_000_500, 3_037_003_000) if is_probable_prime(p)
    ]

    def test_matches_scalar_classify(self, d):
        codes = scan._classify_primes(d, np.array(self.PRIMES, dtype=np.int64))
        got = [scan._CLASSES[c] for c in codes.tolist()]
        assert got == [_classify(d, p) for p in self.PRIMES]

    @pytest.mark.parametrize("d", [-1, -163])
    @pytest.mark.parametrize("n", [1, 2])
    def test_shard_across_the_int64_bound(self, d, n):
        assert scan_shard(d, n, 3_037_000_000, 3_037_004_000) == []


FILTER_WINDOWS = ((1, 20_001), (99_990_000, 100_000_000))


@pytest.fixture(scope="module")
def factored_windows():
    return {w: [(m, sympy.factorint(m)) for m in range(*w)] for w in FILTER_WINDOWS}


class TestFilter:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_keeps_every_norm_the_scalar_test_flags(self, d, n, factored_windows):
        for (lo, hi), factored in factored_windows.items():
            uniq, counts = np.unique(_coords(d, lo, hi)[2], return_counts=True)
            kept = {N for N, _ in scan._filter(d, n, lo, hi, uniq, counts)}
            flagged = flagged_norms(d, n, factored)
            assert flagged <= kept, f"[{lo}, {hi}) n={n}: dropped {sorted(flagged - kept)[:5]}"

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
        with pytest.raises(ValueError):
            scan_shard(-1, 0, 1, 100)

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
            return Index(value=index_n(ctx, z, n).value + 1, n=n, z_norm=z.norm())

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
