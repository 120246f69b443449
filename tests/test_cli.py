"""Black-box tests: invoke the installed CLI as a subprocess and check the contract."""

import json
import multiprocessing
import subprocess
import sys

import pytest

from quadperfect import QuadInt, parse_element, prospect
from quadperfect.cli import append_ledger, main, read_ledger

from conftest import make_rng, random_element


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "quadperfect.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestExitCodes:
    def test_success_is_zero(self):
        assert run_cli("classify", "--d", "-1", "5").returncode == 0

    def test_bad_ring_is_two(self):
        proc = run_cli("classify", "--d", "-5", "3")
        assert proc.returncode == 2
        assert "not one of the nine" in proc.stderr

    def test_composite_prime_is_two(self):
        assert run_cli("classify", "--d", "-1", "12").returncode == 2

    def test_parse_failure_is_two(self):
        assert run_cli("factor", "--d", "-1", "bogus").returncode == 2

    def test_zero_element_is_two(self):
        assert run_cli("index", "--d", "-1", "0", "--n", "2").returncode == 2

    def test_zero_n_is_two(self):
        assert run_cli("index", "--d", "-1", "3", "--n", "0").returncode == 2

    def test_unknown_suite_is_two(self):
        assert run_cli("verify", "nonsense").returncode == 2

    def test_empty_search_is_zero(self):
        proc = run_cli("search", "--d", "-1", "--n", "3", "--t", "2", "--bound", "500")
        assert proc.returncode == 0
        assert "hits=0" in proc.stdout

    def test_leading_minus_element(self):
        for text in ("-90881+6362s", "-3s", "-s"):
            proc = run_cli("factor", "--d", "-43", text)
            assert proc.returncode == 0, text
            proc = run_cli("divisors", "--d", "-43", text)
            assert proc.returncode == 0, text
            proc = run_cli("index", "--d", "-43", text, "--n", "2")
            assert proc.returncode == 0, text
        assert run_cli("factor", "--d", "-43", "-3x").returncode == 2
        assert run_cli("factor", "--d", "-43", "-i").returncode == 2

    def test_malformed_checkpoint_is_two(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        # A cut line, an empty range, then hits that no scan writes: 5 is not
        # a hit, -9-3s is not canonical, 9+3s (norm 90) lies outside [1, 50),
        # and at n = 3 nothing is a hit.
        for n, line in [
            ("2", "d=-1 n=2 norm_lo=50 norm_h"),
            ("2", "d=-1 n=2 norm_lo=60 norm_hi=60 hits="),
            ("2", "d=-1 n=2 norm_lo=1 norm_hi=101 hits=5:2"),
            ("2", "d=-1 n=2 norm_lo=1 norm_hi=101 hits=-9-3s:2"),
            ("2", "d=-1 n=2 norm_lo=1 norm_hi=50 hits=9+3s:2"),
            ("3", "d=-1 n=3 norm_lo=1 norm_hi=101 hits=9+3s:2"),
        ]:
            path.write_text(line + "\n")
            proc = run_cli(
                "search", "--d", "-1", "--n", n, "--t", "2", "--bound", "90",
                "--checkpoint", str(path),
            )
            assert proc.returncode == 2, line
            assert f"{path}:1: malformed checkpoint line" in proc.stderr, line

    def test_one_t_checkpoint_is_two(self, tmp_path):
        path = tmp_path / "old.ckpt"
        path.write_text("d=-1 n=2 t=2 norm_lo=1 norm_hi=91 hits=9+3s;3+9s\n")
        proc = run_cli(
            "search", "--d", "-1", "--n", "2", "--t", "3", "--bound", "90",
            "--checkpoint", str(path),
        )
        assert proc.returncode == 2
        assert f"{path}:1" in proc.stderr and "delete the file" in proc.stderr

    def test_bound_past_int64_is_two(self):
        for bound in (2**52, 2**61):
            proc = run_cli("search", "--d", "-1", "--n", "2", "--t", "2", "--bound", str(bound))
            assert proc.returncode == 2
            assert "2**52" in proc.stderr

    def test_t_below_two_is_two(self):
        for n in ("1", "2"):
            proc = run_cli("search", "--d", "-1", "--n", n, "--t", "1", "--bound", "100")
            assert proc.returncode == 2, n

    def test_ledger_io_failure_is_three(self, tmp_path):
        missing_dir = tmp_path / "nope" / "ledger.txt"
        proc = run_cli(
            "search", "--d", "-1", "--n", "2", "--t", "2", "--bound", "90",
            "--ledger", str(missing_dir),
        )
        assert proc.returncode == 3


class TestClassifyCommand:
    def test_split_prints_prime(self):
        proc = run_cli("classify", "--d", "-7", "2")
        assert proc.stdout.strip() == "split (1+1s)/2"

    def test_inert(self):
        assert run_cli("classify", "--d", "-1", "3").stdout.strip() == "inert"

    def test_ramified(self):
        assert run_cli("classify", "--d", "-1", "2").stdout.strip() == "ramified 1+1s"


class TestIndexCommand:
    def test_worked_example(self):
        proc = run_cli("index", "--d", "-1", "9+3i", "--n", "2")
        assert proc.stdout.splitlines()[0] == "2"

    def test_delta(self):
        proc = run_cli("index", "--d", "-1", "9+3i", "--n", "2", "--delta")
        assert proc.stdout.splitlines()[0] == "180"

    def test_surd_delta(self):
        proc = run_cli("index", "--d", "-1", "2", "--n", "1", "--delta")
        assert proc.stdout.splitlines()[0] == "3 + sqrt(2)"

    def test_perfect_28(self):
        proc = run_cli("index", "--d", "-11", "28", "--n", "1")
        assert proc.stdout.splitlines()[0] == "2"

    def test_json_round_trip(self):
        proc = run_cli("index", "--d", "-1", "2", "--n", "1", "--delta", "--json")
        blob = json.loads(proc.stdout)
        from fractions import Fraction

        from quadperfect import SurdSum

        rebuilt = SurdSum({r: Fraction(c) for r, c in blob["terms"]})
        assert rebuilt == SurdSum({1: 3, 2: 1})
        assert blob["exact"] == "3 + sqrt(2)"


class TestFactorCommand:
    def test_worked_example(self):
        proc = run_cli("factor", "--d", "-1", "9+3i")
        assert proc.stdout.strip() == "unit=-1s; (1+1s) * (1+2s) * 3"

    def test_unit_only(self):
        assert run_cli("factor", "--d", "-1", "1").stdout.strip() == "unit=1"

    def test_gaussian_two(self):
        assert run_cli("factor", "--d", "-1", "2").stdout.strip() == "unit=-1s; (1+1s)^2"

    def test_json_reassembles(self):
        proc = run_cli("factor", "--d", "-7", "(3+1s)/2", "--json")
        blob = json.loads(proc.stdout)
        z = parse_element(-7, blob["unit"])
        for part in blob["parts"]:
            z = z * parse_element(-7, part["prime"]) ** part["exp"]
        assert z == parse_element(-7, blob["elem"])


class TestDivisorsCommand:
    def test_divisors_of_five(self):
        proc = run_cli("divisors", "--d", "-1", "5")
        elems = [parse_element(-1, line) for line in proc.stdout.split()]
        assert len(elems) == 4
        assert {w.norm() for w in elems} == {1, 5, 25}

    def test_json(self):
        blob = json.loads(run_cli("divisors", "--d", "-1", "9+3i", "--json").stdout)
        assert sorted(e["norm"] for e in blob["divisors"]) == [1, 2, 5, 9, 10, 18, 45, 90]


class TestSearchCommand:
    def test_powerfully_perfect_example(self):
        proc = run_cli("search", "--d", "-1", "--n", "2", "--t", "2", "--bound", "90")
        assert "9+3s (norm 90)" in proc.stdout

    def test_theorem_corroboration_empty(self):
        proc = run_cli("search", "--d", "-1", "--n", "3", "--t", "2", "--bound", "100000")
        assert proc.returncode == 0
        assert "hits=0" in proc.stdout

    def test_search_json(self):
        blob = json.loads(
            run_cli(
                "search", "--d", "-11", "--n", "1", "--t", "2", "--bound", "1000",
                "--json",
            ).stdout
        )
        assert blob["cross_checked"] is True
        assert [h["elem"] for h in blob["hits"]] == ["28"]

    def test_ledger_append(self, tmp_path):
        path = tmp_path / "ledger.txt"
        run_cli(
            "search", "--d", "-1", "--n", "2", "--t", "2", "--bound", "90",
            "--ledger", str(path),
        )
        records = read_ledger(str(path))
        assert len(records) == 2
        assert {r["elem"] for r in records} == {"9+3s", "3+9s"}
        assert all(r["kind"] == "n-powerful" and r["norm"] == 90 for r in records)


class TestMersenneCommand:
    def test_lists_known_perfects(self):
        proc = run_cli("mersenne", "--d", "-11", "--p-max", "13")
        assert "28 (norm 784)" in proc.stdout
        assert "8128" in proc.stdout

    def test_cap_finishes_with_inert_mersenne_squares(self):
        # Norms carry the squares of inert Mersenne primes up to 2**127 - 1.
        proc = run_cli("mersenne", "--d", "-19", "--p-max", "127")
        assert proc.returncode == 0
        assert "hits=6" in proc.stdout

    def test_ledger_kind(self, tmp_path):
        path = tmp_path / "ledger.txt"
        run_cli("mersenne", "--d", "-11", "--p-max", "3", "--ledger", str(path))
        records = read_ledger(str(path))
        assert [r["kind"] for r in records] == ["mersenne"]


class TestVerifyCommand:
    def test_congruences_pass(self):
        proc = run_cli("verify", "congruences")
        assert proc.returncode == 0
        assert "FAIL" not in proc.stdout

    def test_residues_pass(self):
        proc = run_cli("verify", "residues")
        assert proc.returncode == 0
        assert "d=-11: {2,6,7,8,10} mod 11" in proc.stdout

    def test_bounds_pass(self):
        proc = run_cli("verify", "bounds")
        assert proc.returncode == 0
        assert "zeta(5/2)^2" in proc.stdout

    def test_bounds_prints_each_check_once(self, capsys):
        # verify_bounds appends the same constant checks for every n.
        assert main(["verify", "bounds"]) == 0
        names = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()]
        assert "PASS zeta(5/2)^2 in (1.79, 1.81)" in names
        assert len(names) == len(set(names))

    def test_absence_small_bound(self):
        proc = run_cli("verify", "absence", "--bound", "10000")
        assert proc.returncode == 0
        assert proc.stdout.count("PASS") == 2


def _append_worker(args) -> None:
    path, worker_id, count = args
    for k in range(count):
        append_ledger(
            path,
            d=-1,
            kind="n-powerful",
            n=2,
            t=2,
            z=QuadInt(-1, 9, 3),
        )


class TestLedgerFile:
    GOOD = "ts=1;d=-11;kind=t-perfect;n=1;t=2;elem=28;norm=784\n"

    def test_torn_last_line_with_a_short_norm_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.txt"
        path.write_text(self.GOOD + "ts=2;d=-11;kind=mersenne;n=1;t=2;elem=8128;norm=660")
        assert [r["elem"] for r in read_ledger(str(path))] == ["28"]

    def test_torn_last_line_without_fields_is_skipped(self, tmp_path):
        path = tmp_path / "ledger.txt"
        path.write_text(self.GOOD + "ts=2;d=-11;ki")
        assert [r["norm"] for r in read_ledger(str(path))] == [784]

    def test_malformed_complete_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "ledger.txt"
        path.write_text(self.GOOD + "ts=2;d=-11;ki\n" + self.GOOD)
        with pytest.raises(ValueError, match=f"{path}:2: malformed ledger line"):
            read_ledger(str(path))
        path.write_text(self.GOOD + "ts=2;d=-11;kind=mersenne\n")
        with pytest.raises(ValueError, match=f"{path}:2: .*each of ts, d, kind"):
            read_ledger(str(path))

    def test_record_glued_onto_a_torn_line_is_malformed(self, tmp_path):
        path = tmp_path / "ledger.txt"
        path.write_text(self.GOOD + "ts=2;d=-11;ki" + self.GOOD)
        with pytest.raises(ValueError, match=f"{path}:2: malformed ledger line"):
            read_ledger(str(path))

    def test_append_after_a_torn_line_starts_a_line_of_its_own(self, tmp_path):
        path = tmp_path / "ledger.txt"
        path.write_text(self.GOOD + "ts=2;d=-11;ki")
        append_ledger(str(path), d=-1, kind="n-powerful", n=2, t=2, z=QuadInt(-1, 9, 3))
        assert [r["elem"] for r in read_ledger(str(path))] == ["28", "9+3s"]
        assert path.read_text().endswith("norm=90\n")


class TestLedgerConcurrency:
    def test_concurrent_appends_stay_line_atomic(self, tmp_path):
        path = str(tmp_path / "ledger.txt")
        workers = 4
        per_worker = 200
        with multiprocessing.Pool(workers) as pool:
            pool.map(_append_worker, [(path, i, per_worker) for i in range(workers)])
        records = read_ledger(path)
        assert len(records) == workers * per_worker
        assert all(r["elem"] == "9+3s" for r in records)


class TestNumpyFree:
    def test_index_and_factor_load_no_numpy(self):
        # Only a scan needs numpy; the exact commands, and the residue and
        # congruence checks, run without it.
        script = (
            "import sys, quadperfect, quadperfect.cli\n"
            "assert quadperfect.cli.main(['index', '--d', '-1', '9+3i', '--n', '2']) == 0\n"
            "assert quadperfect.cli.main(['factor', '--d', '-7', '(7+3s)/2']) == 0\n"
            "assert quadperfect.cli.main(['index', '--d', '-1', '9+3i', '--n', '2', '--json']) == 0\n"
            "assert quadperfect.cli.main(['factor', '--d', '-7', '(7+3s)/2', '--json']) == 0\n"
            "assert quadperfect.cli.main(['divisors', '--d', '-3', '6', '--json']) == 0\n"
            "assert quadperfect.cli.main(['verify', 'residues']) == 0\n"
            "assert quadperfect.cli.main(['verify', 'congruences']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was loaded'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=600
        )
        assert proc.returncode == 0, proc.stderr


# (argv, exit code, stdout, stderr) of each command in its text and --json
# forms, of a delta past the float range, and of two input errors, byte for byte.
GOLDEN = [
    (['classify', '--d', '-1', '5'], 0, 'split 2+1s\n', ''),
    (['classify', '--d', '-1', '3'], 0, 'inert\n', ''),
    (['classify', '--d', '-7', '7'], 0, 'ramified 1s\n', ''),
    (['factor', '--d', '-1', '9+3i'], 0, 'unit=-1s; (1+1s) * (1+2s) * 3\n', ''),
    (['factor', '--d', '-1', '-1'], 0, 'unit=-1\n', ''),
    (['factor', '--d', '-7', '(7+3s)/2', '--json'], 0, '{"d": -7, "elem": "(7+3s)/2", "unit": "-1", "parts": [{"prime": "(1+1s)/2", "exp": 2}, {"prime": "1s", "exp": 1}]}\n', ''),
    (['divisors', '--d', '-1', '5'], 0, '1\n1+2s\n2+1s\n5\n', ''),
    (['divisors', '--d', '-3', '6', '--json'], 0, '{"d": -3, "elem": "6", "divisors": [{"elem": "1", "norm": 1}, {"elem": "(3+1s)/2", "norm": 3}, {"elem": "2", "norm": 4}, {"elem": "3", "norm": 9}, {"elem": "3+1s", "norm": 12}, {"elem": "6", "norm": 36}]}\n', ''),
    (['index', '--d', '-1', '9+3i', '--n', '2'], 0, '2\n~ 2\n', ''),
    (['index', '--d', '-1', '9+3i', '--n', '2', '--json'], 0, '{"d": -1, "elem": "9+3s", "n": 2, "kind": "index", "exact": "2", "terms": [[1, "2"]], "float": 2.0}\n', ''),
    (['index', '--d', '-2', '1+s', '--n', '1', '--delta'], 0, '1 + sqrt(3)\n~ 2.73205080757\n', ''),
    (['index', '--d', '-2', '3+s', '--n', '3', '--delta', '--json'], 0, '{"d": -2, "elem": "3+1s", "n": 3, "kind": "delta", "exact": "1 + 11*sqrt(11)", "terms": [[1, "1"], [11, "11"]], "float": 37.4828726939094}\n', ''),
    (['index', '--d', '-1', '--n', '64', '--delta', '100000'], 0, '100000000023283064370816563688908699618685222695472207414778493163462988145237640368431573156014193570034377689490006410760114428991759708342132281069286989349235714243026580066539410411363691356850369370546049083318621953279050898566285417381908080746381566182205926691374118152935148672598562099590038918259247937267236\n~ inf\n', ''),
    (['index', '--d', '-1', '--n', '64', '--delta', '100000', '--json'], 0, '{"d": -1, "elem": "100000", "n": 64, "kind": "delta", "exact": "100000000023283064370816563688908699618685222695472207414778493163462988145237640368431573156014193570034377689490006410760114428991759708342132281069286989349235714243026580066539410411363691356850369370546049083318621953279050898566285417381908080746381566182205926691374118152935148672598562099590038918259247937267236", "terms": [[1, "100000000023283064370816563688908699618685222695472207414778493163462988145237640368431573156014193570034377689490006410760114428991759708342132281069286989349235714243026580066539410411363691356850369370546049083318621953279050898566285417381908080746381566182205926691374118152935148672598562099590038918259247937267236"]], "float": null}\n', ''),
    (['search', '--d', '-1', '--n', '2', '--t', '2', '--bound', '90'], 0, 'd=-1 n=2 t=2 bound=90 method=DirectScan cross_checked=n/a hits=2\n3+9s (norm 90)\n9+3s (norm 90)\n', ''),
    (['search', '--d', '-11', '--n', '1', '--t', '2', '--bound', '1000', '--json'], 0, '{"d": -11, "n": 1, "t": 2, "bound": 1000, "method": "IntegerReduction", "cross_checked": true, "hits": [{"elem": "28", "norm": 784}]}\n', ''),
    (['mersenne', '--d', '-11', '--p-max', '13'], 0, 'd=-11 n=1 t=2 bound=1125625045712896 method=MersenneFilter cross_checked=n/a hits=3\n28 (norm 784)\n8128 (norm 66064384)\n33550336 (norm 1125625045712896)\n', ''),
    (['mersenne', '--d', '-19', '--p-max', '31', '--json'], 0, '{"d": -19, "n": 1, "t": 2, "bound": 5316911978187903335626628646131728384, "method": "MersenneFilter", "cross_checked": null, "hits": [{"elem": "6", "norm": 36}, {"elem": "496", "norm": 246016}, {"elem": "8128", "norm": 66064384}, {"elem": "33550336", "norm": 1125625045712896}, {"elem": "2305843008139952128", "norm": 5316911978187903335626628646131728384}]}\n', ''),
    (['verify', 'congruences'], 0, 'PASS sigma(q^2a) = 6a+1 mod 8 for q = 5 mod 8: 0 counterexamples over a in 0..3; the period holds\nPASS sum p^l mod 8 is 6 for k=1 mod 8 and 2 for k=5 mod 8: 0 counterexamples over k in {1, 5}; the period holds\nPASS sigma(q^2a) = 1 mod 8 for q = 7 mod 8: 0 counterexamples over a = 0; the period holds\nPASS 2^p - 1 mod 11 avoids {2, 8, 10} for prime p: 0 counterexamples over p = 1, 2, 3, 5, 7, 9 mod 10; the period holds\n', ''),
    (['verify', 'residues'], 0, 'd=-1: {3} mod 4\nd=-3: {2} mod 3\nd=-11: {2,6,7,8,10} mod 11\nPASS inert residues d=-1 mod 4: {3}\nPASS inert residues d=-3 mod 3: {2}\nPASS inert residues d=-11 mod 11: {2,6,7,8,10}\n', ''),
    (['verify', 'absence', '--bound', '10000'], 0, 'PASS no 2-perfect elements in d=-1 up to 10000: hits=0 cross_checked=True\nPASS no 2-perfect elements in d=-3 up to 10000: hits=0 cross_checked=True\n', ''),
    (['index', '--d', '-1', '9+3i', '--n', '0'], 2, '', 'error: n must be nonzero\n'),
    (['factor', '--d', '-5', '3'], 2, '', 'error: d=-5 is not one of the nine imaginary quadratic UFDs (-163, -67, -43, -19, -11, -7, -3, -2, -1)\n'),
]


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "argv, code, out, err", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN]
    )
    def test_output_is_unchanged(self, capsys, argv, code, out, err):
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)


class TestInProcessMain:
    def test_main_returns_exit_code(self):
        assert main(["classify", "--d", "-1", "5"]) == 0
        assert main(["classify", "--d", "-5", "5"]) == 2

    @pytest.mark.parametrize("value", ["two", "0"])
    def test_bad_qp_workers_is_two(self, monkeypatch, capsys, value):
        monkeypatch.setenv("QP_WORKERS", value)
        assert main(["search", "--d", "-1", "--n", "1", "--t", "2", "--bound", "100"]) == 2
        assert "error: QP_WORKERS must be a positive integer" in capsys.readouterr().err

    def test_power_past_max_is_two_before_any_shard(self, monkeypatch, capsys):
        def no_shards(task):
            raise AssertionError("a shard ran")

        monkeypatch.setattr(prospect, "scan_shard_task", no_shards)
        assert main(["search", "--d", "-1", "--n", "65", "--t", "2", "--bound", "100"]) == 2
        assert "1..64" in capsys.readouterr().err

    def test_search_mismatch_is_one(self, monkeypatch, capsys, tmp_path):
        # The direct scan claims an element the integer reduction never finds.
        monkeypatch.setattr(
            prospect, "direct_scan", lambda d, *a, **k: [(QuadInt(d, 6, 0), 2)]
        )
        ledger = tmp_path / "ledger.txt"
        argv = ["search", "--d", "-11", "--n", "1", "--t", "2", "--bound", "1000"]
        assert main(argv + ["--ledger", str(ledger)]) == 1
        out = capsys.readouterr()
        assert "cross_checked=MISMATCH" in out.out
        assert "disagree" in out.err
        assert not ledger.exists()

    def test_parse_format_identity_at_scale(self, d):
        rng = make_rng("cliid", d)
        for _ in range(10_000):
            z = random_element(rng, d, span=10**9, nonzero=False)
            assert parse_element(d, str(z)) == z
