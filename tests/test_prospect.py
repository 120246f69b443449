import concurrent.futures
import math
import multiprocessing
import os
import re
import tracemalloc

import pytest
import sympy

from quadperfect import (
    EulerianShape,
    InternalInconsistency,
    LParity,
    QuadInt,
    congruence_identities,
    direct_scan,
    eulerian_parity,
    inert_residues,
    is_n_powerfully_t_perfect,
    mersenne_perfects,
    prime_above,
    ring,
    search_powerfully,
    search_t_perfect,
    verify_bounds,
    worker_count,
    zeta_series,
)
from quadperfect import SplitClass, prospect
from quadperfect.prospect import (
    _gaps,
    format_checkpoint_line,
    parse_checkpoint_line,
)

from conftest import ALL_DS
from oracles import sympy_class


@pytest.fixture
def shard_tasks(monkeypatch):
    """Run scans in process on an empty cache; yields the list of shard tasks run."""
    tasks = []
    real = prospect.scan_shard_task

    def counted(task):
        tasks.append(task)
        return real(task)

    monkeypatch.setattr(prospect, "scan_shard_task", counted)
    monkeypatch.setenv("QP_WORKERS", "1")
    prospect._scan.cache_clear()
    yield tasks
    prospect._scan.cache_clear()


class TestSearchTPerfect:
    def test_28_in_minus_eleven(self):
        report = search_t_perfect(ring(-11), 2, 28**2)
        assert QuadInt.from_int(-11, 28) in report.hits
        assert report.cross_checked is True
        assert report.method == "IntegerReduction"

    def test_trivial_bound(self, ctx):
        report = search_t_perfect(ctx, 2, 1)
        assert report.hits == ()
        assert report.cross_checked is True

    def test_gaussian_absence_small(self):
        report = search_t_perfect(ring(-1), 2, 10**5)
        assert report.hits == ()
        assert report.cross_checked is True

    def test_bad_params(self, ctx):
        with pytest.raises(ValueError):
            search_t_perfect(ctx, 1, 100)
        with pytest.raises(ValueError):
            search_t_perfect(ctx, 2, 0)

    def test_hits_certified(self):
        report = search_t_perfect(ring(-11), 2, 8128**2)
        assert [z.as_int() for z in report.hits] == [28, 8128]
        for z in report.hits:
            assert is_n_powerfully_t_perfect(ring(-11), z, 1, 2)

    def test_scan_cross_checks_past_1e8(self, monkeypatch):
        calls = []

        def scanned(d, n, bound, **kwargs):
            calls.append((d, n, bound))
            return []

        monkeypatch.setattr(prospect, "direct_scan", scanned)
        report = search_t_perfect(ring(-1), 2, 10**8 + 1)
        assert calls == [(-1, 1, 10**8 + 1)]
        assert report.hits == ()
        assert report.cross_checked is True

    def test_bound_past_int64_raises_before_the_reduction(self, monkeypatch):
        def no_reduction(*args):
            raise AssertionError("the reduction ran")

        monkeypatch.setattr(prospect, "classical_sigma", no_reduction)
        for bound in (2**52, 2**61):
            with pytest.raises(ValueError, match=r"2\*\*52"):
                search_t_perfect(ring(-1), 2, bound)


class TestSearchPowerfully:
    def test_finds_the_two_powerfully_perfect_pair(self):
        report = search_powerfully(ring(-1), 2, 2, 90)
        assert QuadInt(-1, 9, 3) in report.hits
        norms = {z.norm() for z in report.hits}
        assert norms == {90}

    def test_n_three_empty(self, d):
        report = search_powerfully(ring(d), 3, 2, 20_000)
        assert report.hits == ()

    def test_agrees_with_t_perfect_at_n_one(self):
        for d in (-11, -19):
            a = search_powerfully(ring(d), 1, 2, 10**3)
            b = search_t_perfect(ring(d), 2, 10**3)
            assert a.hits == b.hits

    def test_direct_scan_respects_workers_env(self, monkeypatch):
        monkeypatch.setenv("QP_WORKERS", "1")
        assert worker_count() == 1
        hits = direct_scan(-1, 2, 90)
        assert (QuadInt(-1, 9, 3), 2) in hits
        for bad in ("0", "two", "1.5"):
            monkeypatch.setenv("QP_WORKERS", bad)
            with pytest.raises(ValueError, match="QP_WORKERS must be a positive integer"):
                worker_count()

    def test_rejects_t_below_two(self):
        with pytest.raises(ValueError, match="t must be"):
            search_powerfully(ring(-1), 2, 1, 100)

    def test_power_past_max_raises_before_any_shard(self, shard_tasks):
        # Above MAX_POWER (64) the odd-n decision's run time grows steeply
        # with n; index_n refuses such n, and so does the scan, up front.
        for n in (65, 0):
            with pytest.raises(ValueError, match=r"1\.\.64"):
                search_powerfully(ring(-1), n, 2, 100)
        assert shard_tasks == []

    def test_n_three_hit_of_any_t_raises(self, monkeypatch):
        # A t=5 hit at n=3 is impossible, whichever t the search asked for.
        monkeypatch.setattr(prospect, "direct_scan", lambda d, *a, **k: [(QuadInt(d, 5, 0), 5)])
        with pytest.raises(InternalInconsistency, match=r"n=3.*t in \[5\]"):
            search_powerfully(ring(-1), 3, 2, 100)


class TestScanCache:
    def test_direct_scan_returns_every_t(self):
        hits = direct_scan(-7, 2, 2000)
        assert [(str(z), t) for z, t in hits] == [
            ("(-7+3s)/2", 2), ("(7+3s)/2", 2), ("-7+1s", 3), ("7+1s", 3),
        ]

    def test_repeated_call_runs_no_shard(self, shard_tasks, tmp_path):
        first = direct_scan(-1, 2, 200)
        assert shard_tasks
        shard_tasks.clear()
        assert direct_scan(-1, 2, 200) == first
        assert shard_tasks == []
        # A checkpointed call never comes from the cache: it reads its file.
        path = tmp_path / "scan.ckpt"
        one_hit = [(QuadInt(-1, 9, 3), 2)]  # a scan would find 3+9s too
        path.write_text(format_checkpoint_line(-1, 2, 1, 201, one_hit) + "\n")
        assert direct_scan(-1, 2, 200, checkpoint=str(path)) == one_hit
        assert shard_tasks == []
        path.write_text("")
        assert direct_scan(-1, 2, 200, checkpoint=str(path)) == first
        assert shard_tasks

    def test_odd_powers_share_one_scan(self, shard_tasks):
        bound = 10**4
        one = direct_scan(-11, 1, bound)
        assert shard_tasks and one == [(QuadInt.from_int(-11, 28), 2)]
        shard_tasks.clear()
        # n = 3 and n = 5 decide the candidates of the n = 1 scan for their own n.
        assert direct_scan(-11, 3, bound) == direct_scan(-11, 5, bound) == []
        assert shard_tasks == []
        # Each even n scans under its own key.
        two = direct_scan(-11, 2, bound)
        assert [task[1] for task in shard_tasks] == [2] and {t for _, t in two} == {2}
        four = direct_scan(-11, 4, bound)
        assert [task[1] for task in shard_tasks] == [2, 4]
        for n, got in ((1, one), (2, two), (3, []), (4, four), (5, [])):
            prospect._scan.cache_clear()
            assert direct_scan(-11, n, bound) == got, n

    def test_worker_count_is_not_part_of_the_key(self, shard_tasks):
        first = direct_scan(-1, 2, 200_000, workers=1)
        assert len(shard_tasks) == 4
        shard_tasks.clear()
        assert direct_scan(-1, 2, 200_000, workers=2) == first
        assert direct_scan(-1, 2, 200_000, workers=64) == first
        assert shard_tasks == []

    def test_pool_size_is_the_key_from_the_pool_bound(self, laid_out, monkeypatch):
        sizes, tasks = laid_out
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        bound = prospect._POOL_MIN_BOUND
        assert direct_scan(-1, 2, bound, workers=2) == []
        assert len(tasks) == 8 and sizes == [2]
        tasks.clear()
        # Eight workers get the two CPUs' pool: the same key, so no shard runs.
        assert direct_scan(-1, 2, bound, workers=8) == []
        assert tasks == [] and sizes == [2]
        # One worker scans in process, at its own width and under its own key.
        assert direct_scan(-1, 2, bound, workers=1) == []
        assert len(tasks) == 4 and sizes == [2]

    def test_bound_past_int64_raises_before_any_shard(self, shard_tasks, monkeypatch):
        def no_shards(*args):
            raise AssertionError("the shards were laid out")

        monkeypatch.setattr(prospect, "_shards", no_shards)
        for bound in (2**52, 2**61, 2**61 + 1, 2**64):
            with pytest.raises(ValueError, match=r"2\*\*52"):
                direct_scan(-1, 2, bound)
        # The largest bound taken gets as far as laying out its shards.
        with pytest.raises(AssertionError, match="laid out"):
            direct_scan(-1, 2, 2**52 - 1)
        assert shard_tasks == []

    def test_shards_are_laid_out_as_they_run(self, monkeypatch):
        # A list of the 10**5 shards of bound 1e11 would take about 20 MB.
        from quadperfect import scan

        class FirstShard(Exception):
            pass

        def first_shard(task):
            raise FirstShard(task)

        assert 10**11 < scan._HI_MAX
        monkeypatch.setattr(prospect, "scan_shard_task", first_shard)
        tracemalloc.start()
        try:
            with pytest.raises(FirstShard):
                direct_scan(-1, 1, 10**11, workers=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_t3_resumes_from_t2_checkpoint(self, shard_tasks, tmp_path):
        path = str(tmp_path / "scan.ckpt")
        two = search_powerfully(ring(-7), 2, 2, 2000, checkpoint=path)
        assert two.hits
        shard_tasks.clear()
        three = search_powerfully(ring(-7), 2, 3, 2000, checkpoint=path)
        assert shard_tasks == []
        plain = search_powerfully(ring(-7), 2, 3, 2000)
        assert shard_tasks
        assert three.hits == plain.hits
        assert [str(z) for z in three.hits] == ["-7+1s", "7+1s"]


class TestPoolDecision:
    """Below prospect._POOL_MIN_BOUND a scan runs its shards in the calling
    process at the one-worker width; from it up, workers > 1 start a pool
    that is gone when the scan returns.  Tests that need a 2-process pool
    report two CPUs, so they hold on one CPU too."""

    def test_small_scan_starts_no_pool(self, shard_tasks, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a scan below the bound started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        bound = 200_000
        assert bound < prospect._POOL_MIN_BOUND
        hits = direct_scan(-1, 2, bound, workers=2)
        assert (QuadInt(-1, 9, 3), 2) in hits
        # The counted task saw every shard, each as wide as with one worker.
        assert [(lo, hi) for _, _, lo, hi in shard_tasks] == [
            (1, 50_002), (50_002, 100_003), (100_003, 150_004), (150_004, 200_001),
        ]  # fmt: skip

    def test_large_scan_joins_its_pool(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        pools = []

        class Counted(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                pools.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        prospect._scan.cache_clear()
        try:
            pooled = direct_scan(-11, 1, prospect._POOL_MIN_BOUND, workers=2)
            assert len(pools) == 1
            assert multiprocessing.active_children() == []
            # One worker runs the same scan in process, with the same hits.  Its
            # pool size is a key of its own; the cache is cleared all the same,
            # and the counted task shows that every shard ran here.
            prospect._scan.cache_clear()
            ran = []
            real = prospect.scan_shard_task

            def counted(task):
                ran.append(task)
                return real(task)

            monkeypatch.setattr(prospect, "scan_shard_task", counted)
            assert direct_scan(-11, 1, prospect._POOL_MIN_BOUND, workers=1) == pooled
            assert len(pools) == 1
            assert ran[0][2] == 1 and ran[-1][3] == prospect._POOL_MIN_BOUND + 1
            assert all(a[3] == b[2] for a, b in zip(ran, ran[1:]))
        finally:
            prospect._scan.cache_clear()
        assert (QuadInt.from_int(-11, 28), 2) in pooled

    def test_pool_takes_its_shards_in_batches(self, laid_out, monkeypatch, tmp_path):
        batches = []

        class Counted(concurrent.futures.ProcessPoolExecutor):  # laid_out's stand-in
            def map(self, fn, tasks):
                batches.append(len(tasks))
                return super().map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        path = tmp_path / "scan.ckpt"
        # 2,000 shards of 10**6: 1,024 for two workers, then 976.
        bound = 2 * 10**9
        assert direct_scan(-1, 1, bound, workers=2, checkpoint=str(path)) == []
        assert batches == [1024, 976]
        lines = path.read_text().splitlines()
        spans = [(r["norm_lo"], r["norm_hi"]) for r in map(parse_checkpoint_line, lines)]
        assert spans[0][0] == 1 and spans[-1][1] == bound + 1
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))

    @pytest.mark.parametrize(
        "bound,width",
        [
            (5 * 10**5, 125_001),  # in process: a quarter of the bound
            (10**6, 125_001),  # two workers: an eighth of the bound
            (10**7, 1 << 18),  # the floor of the width rule
            (10**8, 320_000),  # 32 * isqrt(bound)
            (10**9, 10**6),  # the ceiling, as before the rule
        ],
    )
    def test_shard_width_grows_with_the_root_of_the_bound(
        self, laid_out, monkeypatch, bound, width
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        _, tasks = laid_out
        assert direct_scan(-1, 1, bound, workers=2) == []
        spans = [(lo, hi) for _, _, lo, hi in tasks]
        # The spans tile [1, bound + 1): no gap, no overlap, all but the last this wide.
        assert spans[0][0] == 1 and spans[-1][1] == bound + 1
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert {hi - lo for lo, hi in spans[:-1]} == {width}
        assert len(spans) == -(-bound // width)

    @pytest.mark.parametrize(
        "cpus,workers,size,shards",
        [
            (4, 10**4, 4, 16),  # the CPU count caps the pool and sets the width
            (64, 10**4, 31, 31),  # 31 shards of the minimum width cap it
            (64, 3, 3, 12),
            (1, 10**4, None, 4),  # one CPU runs the shards in process
        ],
    )
    def test_pool_is_capped_by_cpus_and_shards(
        self, laid_out, monkeypatch, cpus, workers, size, shards
    ):
        sizes, ran = laid_out
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert direct_scan(-1, 1, prospect._POOL_MIN_BOUND, workers=workers) == []
        assert sizes == ([] if size is None else [size])
        assert multiprocessing.active_children() == []
        assert len(ran) == shards and ran[-1][3] == prospect._POOL_MIN_BOUND + 1


class TestCheckpoint:
    def test_line_round_trip(self):
        hits = [(QuadInt(-1, 9, 3), 2), (QuadInt(-1, 3, 9), 2), (QuadInt(-1, 30, 30), 3)]
        line = format_checkpoint_line(-1, 2, 1, 91, hits)
        rec = parse_checkpoint_line(line)
        assert rec == {
            "d": -1,
            "n": 2,
            "norm_lo": 1,
            "norm_hi": 91,
            "hits": hits,
        }

    def test_empty_hits_round_trip(self):
        rec = parse_checkpoint_line(format_checkpoint_line(-7, 1, 5, 10, []))
        assert rec["hits"] == []

    def test_gap_computation(self):
        assert _gaps(100, []) == [(1, 101)]
        assert _gaps(100, [(1, 101)]) == []
        assert _gaps(100, [(40, 60)]) == [(1, 40), (60, 101)]
        assert _gaps(100, [(1, 30), (50, 80)]) == [(30, 50), (80, 101)]
        assert _gaps(100, [(1, 60), (40, 80)]) == [(80, 101)]

    def test_scan_resumes_from_checkpoint(self, tmp_path):
        path = str(tmp_path / "scan.ckpt")
        full = direct_scan(-1, 2, 4000)
        # Simulate an interrupted run: only the lower half was completed.
        partial = [(z, t) for z, t in full if z.norm() < 2000]
        with open(path, "w") as fh:
            fh.write(format_checkpoint_line(-1, 2, 1, 2000, partial) + "\n")
        resumed = direct_scan(-1, 2, 4000, checkpoint=path)
        assert resumed == full
        # The file gained records covering the remaining range.
        with open(path) as fh:
            lines = [parse_checkpoint_line(l) for l in fh if l.strip()]
        covered = _gaps(4000, [(r["norm_lo"], r["norm_hi"]) for r in lines])
        assert covered == []

    def test_torn_last_line_is_rescanned(self, tmp_path):
        path = tmp_path / "torn.ckpt"
        full = direct_scan(-1, 2, 200)
        path.write_text(
            format_checkpoint_line(-1, 2, 1, 50, [])
            + "\nd=-1 n=2 norm_lo=50 norm_h"
        )
        assert direct_scan(-1, 2, 200, checkpoint=str(path)) == full
        lines = path.read_text().splitlines(keepends=True)
        assert all(l.endswith("\n") for l in lines)
        recs = [parse_checkpoint_line(l) for l in lines]
        assert _gaps(200, [(r["norm_lo"], r["norm_hi"]) for r in recs]) == []
        assert direct_scan(-1, 2, 200, checkpoint=str(path)) == full

    def test_malformed_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(
            format_checkpoint_line(-1, 2, 1, 50, [])
            + "\nd=-1 n=2 norm_lo=50 norm_h\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ") + ".*norm_hi"):
            direct_scan(-1, 2, 200, checkpoint=str(path))

    def test_one_t_line_must_be_deleted(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text(
            format_checkpoint_line(-1, 2, 1, 50, [])
            + "\nd=-1 n=2 t=2 norm_lo=50 norm_hi=91 hits=9+3s;3+9s\n"
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: ") + ".*t=.*delete"):
            direct_scan(-1, 2, 200, checkpoint=str(path))

    def test_larger_bound_checkpoint_serves_a_smaller_bound(self, shard_tasks, tmp_path):
        path = str(tmp_path / "scan.ckpt")
        direct_scan(-1, 2, 2000, checkpoint=path)
        shard_tasks.clear()
        clipped = direct_scan(-1, 2, 1000, checkpoint=path)
        assert shard_tasks == []
        assert len(open(path).readlines()) == 1
        assert clipped == direct_scan(-1, 2, 1000)

    def test_checkpoint_written_during_scan(self, tmp_path):
        path = str(tmp_path / "fresh.ckpt")
        hits = direct_scan(-1, 2, 90, checkpoint=path)
        assert (QuadInt(-1, 9, 3), 2) in hits
        again = direct_scan(-1, 2, 90, checkpoint=path)
        assert again == hits


class TestMersenne:
    def test_minus_eleven_up_to_17(self):
        report = mersenne_perfects(ring(-11), 17)
        assert [z.as_int() for z in report.hits] == [
            28,
            8128,
            2**12 * (2**13 - 1),
            2**16 * (2**17 - 1),
        ]

    def test_gaussian_empty(self):
        assert mersenne_perfects(ring(-1), 31).hits == ()

    def test_small_p_max(self):
        assert [z.as_int() for z in mersenne_perfects(ring(-11), 3).hits] == [28]

    def test_desk_scale_cap(self, ctx):
        with pytest.raises(ValueError):
            mersenne_perfects(ctx, 128)

    def test_hits_within_t_perfect_search(self):
        report = mersenne_perfects(ring(-11), 5)
        top = max((z.norm() for z in report.hits), default=1)
        wide = search_t_perfect(ring(-11), 2, top)
        assert set(report.hits) <= set(wide.hits)


class TestZeta:
    def test_reference_values(self):
        # High-precision references: zeta(1.5), zeta(2), zeta(2.5), zeta(3).
        assert math.isclose(zeta_series(2.0), math.pi**2 / 6, abs_tol=1e-10)
        assert math.isclose(zeta_series(1.5), 2.6123753486854883, abs_tol=1e-10)
        assert math.isclose(zeta_series(2.5), 1.3414872572509171, abs_tol=1e-10)
        assert math.isclose(zeta_series(3.0), 1.2020569031595943, abs_tol=1e-10)

    def test_rejects_pole(self):
        with pytest.raises(ValueError):
            zeta_series(1.0)


class TestVerifyBounds:
    def test_constants(self):
        report = verify_bounds(3, [])
        assert report.ok
        names = [c.name for c in report.checks]
        assert "zeta(5/2)^2 in (1.79, 1.81)" in names

    def test_sample_indices_below_bound(self, d):
        ctx = ring(d)
        samples = [
            (ctx, QuadInt.from_int(d, 360)),
            (ctx, QuadInt.from_int(d, 2**6 * 3**4 * 5 * 7 * 11)),
        ]
        for n in (3, 4, 5):
            assert verify_bounds(n, samples).ok

    def test_inert_product_below_zeta3(self):
        # A product of inert primes in the Gaussian ring: I_3 < zeta(3) < 2.
        ctx = ring(-1)
        z = QuadInt.from_int(-1, 3**3 * 7**2 * 11 * 19)
        report = verify_bounds(3, [(ctx, z)])
        assert report.ok
        from quadperfect import index_n

        assert float(index_n(ctx, z, 3).value) < zeta_series(3.0) < 2

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            verify_bounds(2, [])


class TestInertResidues:
    def test_documented_rings(self):
        assert inert_residues(ring(-11), 11) == frozenset({2, 6, 7, 8, 10})
        assert inert_residues(ring(-1), 4) == frozenset({3})
        assert inert_residues(ring(-3), 3) == frozenset({2})

    def test_matches_a_sympy_sample_of_the_primes(self):
        # Below 1e5 the primes meet every class prime to these moduli, so the
        # sample mixes a class exactly when the modulus does not separate.
        primes = list(sympy.primerange(10**5))
        for d in ALL_DS:
            D = -d if d % 4 == 1 else -4 * d
            inert = [p for p in primes if sympy_class(d, p) is SplitClass.INERT]
            other = [p for p in primes if sympy_class(d, p) is not SplitClass.INERT]
            for modulus in sorted(set(range(2, 61)) | {D, 2 * D, 3 * D}):
                seen = {p % modulus for p in inert}
                if seen & {p % modulus for p in other}:
                    with pytest.raises(ValueError, match="does not separate"):
                        inert_residues(ring(d), modulus)
                else:
                    assert inert_residues(ring(d), modulus) == seen, (d, modulus)

    def test_classes_a_small_sample_misses(self):
        # 99991 is prime to 4: every class of it holds split and inert
        # Gaussian primes, though below 1e5 most hold one prime or none.
        with pytest.raises(ValueError, match="does not separate"):
            inert_residues(ring(-1), 99_991)
        # 63244 = 4*97*163: half of its 31104 classes prime to it, and 2,
        # which is inert; below 1e5 most classes hold no prime.
        assert len(inert_residues(ring(-163), 63_244)) == 31_104 // 2 + 1
        # 10**6 = 2**6 * 5**6: the classes 3 mod 4 prime to 5; 2 ramifies and 5 splits.
        assert len(inert_residues(ring(-1), 10**6)) == 200_000

    def test_modulus_past_a_million_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the classes were worked out")

        monkeypatch.setattr(prospect, "factor_integer", no_work)
        monkeypatch.setattr(prospect, "_RESIDUE_CLASSES", {})
        for modulus in (1, 10**6 + 1, 10**18):
            with pytest.raises(ValueError, match=r"2\.\.10\*\*6"):
                inert_residues(ring(-1), modulus)

    def test_too_small_modulus_reported(self):
        with pytest.raises(ValueError, match="does not separate"):
            inert_residues(ring(-11), 5)


class TestEulerian:
    def test_parity_predictor(self):
        assert eulerian_parity(EulerianShape(5, 1, (1,), 7)) is LParity.ODD_L
        assert eulerian_parity(EulerianShape(5, 5, (2,), 7)) is LParity.EVEN_L
        assert eulerian_parity(EulerianShape(13, 13, (1, 2), 23)) is LParity.EVEN_L
        assert eulerian_parity(EulerianShape(5, 9, (3,), 1)) is LParity.ODD_L

    def test_l_counts_odd_exponents(self):
        shape = EulerianShape(5, 1, (1, 2, 3, 4, 7), 7)
        assert shape.L == 3

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            EulerianShape(7, 1, (1,), 7)  # p = 3 mod 4
        with pytest.raises(ValueError):
            EulerianShape(5, 3, (1,), 7)  # k = 3 mod 4
        with pytest.raises(ValueError):
            EulerianShape(5, 1, (0,), 7)  # zero exponent
        with pytest.raises(ValueError):
            EulerianShape(5, 1, (1,), 5)  # m2 prime not 7 mod 8


class TestCongruences:
    def test_all_identities_hold(self):
        report = congruence_identities()
        assert report.ok, report.failures()

    def test_agrees_with_brute_force(self):
        # An independent oracle over samples: primes below 1000, a <= 20, k < 100.
        def sigma_mod8(q, e):
            return sum(pow(q, l, 8) for l in range(e + 1)) % 8

        primes = list(sympy.primerange(1000))
        bad = (
            [
                (q, a)
                for q in primes
                if q % 8 == 5
                for a in range(1, 21)
                if sigma_mod8(q, 2 * a) != (6 * a + 1) % 8
            ],
            [
                (p, k)
                for p in primes
                if p % 8 == 5
                for k in range(1, 100)
                if k % 8 in (1, 5) and sigma_mod8(p, k) != (6 if k % 8 == 1 else 2)
            ],
            [
                (q, a)
                for q in primes
                if q % 8 == 7
                for a in range(1, 21)
                if sigma_mod8(q, 2 * a) != 1
            ],
            [p for p in primes if (2**p - 1) % 11 in (2, 8, 10)],
        )
        report = congruence_identities()
        assert [c.name for c in report.checks] == [
            "sigma(q^2a) = 6a+1 mod 8 for q = 5 mod 8",
            "sum p^l mod 8 is 6 for k=1 mod 8 and 2 for k=5 mod 8",
            "sigma(q^2a) = 1 mod 8 for q = 7 mod 8",
            "2^p - 1 mod 11 avoids {2, 8, 10} for prime p",
        ]
        assert [c.passed for c in report.checks] == [not b for b in bad]
        assert bad == ([], [], [], [])

    def test_spot_values(self):
        # sigma(25) = 31 = 7 mod 8 = 6*1+1; sum_{l<=5} 5^l = 3906 = 2 mod 8;
        # 2^13 - 1 = 8191 = 7 mod 11.
        assert sum(5**l for l in range(3)) % 8 == (6 * 1 + 1) % 8
        assert sum(5**l for l in range(6)) % 8 == 2
        assert (2**13 - 1) % 11 == 7
