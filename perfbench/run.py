"""quadperfect benchmark: one workload run, checked, as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload absence-deep --seed 1 --seconds 10 --trace 0

The workload runs in a fresh interpreter (perfbench/workload.py) against the
checkout's src/.  This process times several fresh set-ups, checks every
output against perfbench/oracle.py, and prints, as its last stdout line,
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Details of any failed check
go to stderr.  Exit status 0 means a result was printed; anything else means
the benchmark could not run (no src/, a crash, or a run over its time limit).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracle  # noqa: E402

WORKLOADS = ("absence-deep", "ring-sweep", "exact-cli")
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 30.0
# Norm limit of the exhaustive small-range oracle for n >= 2 hits, and of the
# brute divisor sums for library elements.
COMPLETE_NORM_LIMIT = 3000
BRUTE_NORM_LIMIT = 2 * 10**4

END_TO_END_UNITS = {
    "setup_s": "s",
    "elements_per_s": "elements/s",
    "round_s": "s",
    "peak_rss_mb": "MB",
    "worker_peak_rss_mb": "MB",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# Processes.
# ---------------------------------------------------------------------------


def run_child(args: list, env: dict, timeout: float) -> tuple[float, str]:
    """Run a workload interpreter to completion; returns (spawn time, last stdout line).

    The child gets its own process group so that a timeout also stops the
    worker processes it started.
    """
    spawned = time.time()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "workload.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload process exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{err[-2000:]}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed nothing")
    return spawned, lines[-1]


# ---------------------------------------------------------------------------
# Parsing library output.
# ---------------------------------------------------------------------------

_HALF = re.compile(r"^\((-?\d+)([+-]\d+)s\)/2$")
_FULL = re.compile(r"^(-?\d+)([+-]\d+)s$")
_PURE = re.compile(r"^(-?\d+)s$")


def parse_element(text: str) -> tuple[int, int]:
    """Doubled coordinates of element text as the library prints it."""
    text = text.strip()
    if m := _HALF.match(text):
        return int(m.group(1)), int(m.group(2))
    if m := _FULL.match(text):
        return 2 * int(m.group(1)), 2 * int(m.group(2))
    if m := _PURE.match(text):
        return 0, 2 * int(m.group(1))
    return 2 * int(text), 0


def terms_from_json(terms: list) -> dict:
    return {int(r): Fraction(c) for r, c in terms}


# ---------------------------------------------------------------------------
# Checks.  Problems collect on the Checker; none means correct.
# ---------------------------------------------------------------------------


class Checker:
    def __init__(self) -> None:
        self._complete: dict[int, dict] = {}
        self.problems: list[str] = []

    def fail(self, msg: str) -> None:
        self.problems.append(msg)

    def complete_set(self, d: int) -> dict:
        if d not in self._complete:
            self._complete[d] = oracle.integer_index_elements(
                d, COMPLETE_NORM_LIMIT, (2, 3, 4, 5), (2, 3)
            )
        return self._complete[d]

    def search(self, rec: dict) -> None:
        d, n, t, bound = rec["d"], rec["n"], rec["t"], rec["bound"]
        hits = [tuple(h) for h in rec["hits"]]
        where = f"search d={d} n={n} t={t} bound={bound}"
        if len(set(hits)) != len(hits) or not all(oracle.in_sector(d, h) for h in hits):
            self.fail(f"{where}: hits repeated or not canonical")
        if n == 1:
            want = [(2 * r, 0) for r in oracle.expected_t_perfect(d, t, bound)]
            if sorted(hits) != sorted(want):
                self.fail(f"{where}: hits {hits}, oracle {want}")
            if rec["cross_checked"] is not True:
                self.fail(f"{where}: cross_checked={rec['cross_checked']}")
            return
        for h in hits:
            got = oracle.integer_value(oracle.index_brute(d, h, n))
            if got != t:
                self.fail(f"{where}: hit {h} has oracle index {got}")
        limit = min(bound, COMPLETE_NORM_LIMIT)
        want = {z for z in self.complete_set(d)[(n, t)] if oracle.norm(d, z) <= limit}
        got = {h for h in hits if oracle.norm(d, h) <= limit}
        if want != got:
            self.fail(f"{where}: hits of norm <= {limit} {sorted(got)}, oracle {sorted(want)}")

    def element(self, rec: dict) -> dict | None:
        """Check one library element; returns its verified exact indices by n."""
        d, z = rec["d"], (rec["x"], rec["y"])
        parts = [((x, y), e) for x, y, e in rec["parts"]]
        problem = oracle.factorization_problem(d, z, tuple(rec["unit"]), parts)
        if problem:
            self.fail(f"factor d={d} {z}: {problem}")
            return None
        # I_n * |z|**n must equal the divisor sum, which has integer coefficients.
        nz = oracle.norm(d, z)
        split = oracle.norm_sqrt_split(d, parts)
        indices = {}
        for n in (1, 2, 3):
            delta = oracle.delta_from_parts(d, parts, n)
            if nz <= BRUTE_NORM_LIMIT and delta != oracle.delta_brute(d, z, n):
                self.fail(f"oracle disagrees with itself at d={d} {z} n={n}")
            got = terms_from_json(rec["index"][str(n)])
            if oracle.surd_mul(got, oracle.abs_power(nz, n, split)) != delta:
                self.fail(f"index d={d} {z} n={n}: library {rec['index'][str(n)]}, oracle delta {delta}")
            indices[n] = got
        if rec["perfect"] != (oracle.integer_value(indices[1]) == 2):
            self.fail(f"perfection test d={d} {z}: library {rec['perfect']}")
        return indices

    def cli(self, rec: dict, verified: dict) -> None:
        args = rec["args"]
        kind, d = args[0], int(args[2])
        z = parse_element(args[-1] if "--json" in args else "9+3s")
        where = f"cli {' '.join(args)}"
        if "--json" not in args:
            # The documented example: index --d -1 9+3i --n 2 prints 2.
            if rec["stdout"].splitlines()[:1] != ["2"]:
                self.fail(f"{where}: printed {rec['stdout'][:80]!r}")
            return
        out = json.loads(rec["stdout"])
        if kind == "index":
            n = int(args[args.index("--n") + 1])
            want = verified.get((d, z))
            if want is None:
                self.fail(f"{where}: element has no verified factorization to compare with")
            elif terms_from_json(out["terms"]) != want[n]:
                self.fail(f"{where}: {out['exact']}")
        else:
            parts = [(parse_element(p["prime"]), p["exp"]) for p in out["parts"]]
            problem = oracle.factorization_problem(d, z, parse_element(out["unit"]), parts)
            if problem:
                self.fail(f"{where}: {problem}")

    def mersenne(self, rec: dict) -> None:
        d = int(rec["args"][2])
        out = json.loads(rec["stdout"])
        got = [parse_element(h["elem"]) for h in out["hits"]]
        want = [(2 * r, 0) for r in oracle.expected_mersenne(d, int(rec["args"][4]))]
        if got != want:
            self.fail(f"mersenne d={d}: {len(got)} hits, oracle predicts {len(want)}")


def check_round(chk: Checker, rnd: dict) -> tuple[int, int]:
    """Check every successful operation of a round; returns (attempted, failed)."""
    attempted = failed = 0
    if "searches" in rnd:
        for rec in rnd["searches"]:
            attempted += 1
            if "error" in rec:
                failed += 1
                log(f"failed: search {rec['d']} {rec['n']} {rec['t']}: {rec['error']}")
            else:
                chk.search(rec)
        return attempted, failed
    verified = {}
    for rec in rnd["elements"]:
        attempted += 1
        if "error" in rec:
            failed += 1
            log(f"failed: element {rec}")
            continue
        indices = chk.element(rec)
        if indices is not None:
            verified[(rec["d"], (rec["x"], rec["y"]))] = indices
    for rec in rnd.get("cli", []) + rnd.get("mersenne", []):
        attempted += 1
        if "error" in rec:
            failed += 1
            log(f"failed: {' '.join(rec['args'])}: {rec['error']}")
        elif rec["args"][0] == "mersenne":
            chk.mersenne(rec)
        else:
            chk.cli(rec, verified)
    return attempted, failed


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def scanned_calls(calls: list) -> list[bool]:
    """True for calls that scan; False for ones the (d, n, bound) scan memo serves."""
    seen = set()
    flags = []
    for c in calls:
        key = (c["d"], c["n"], c["bound"])
        flags.append(key not in seen)
        seen.add(key)
    return flags


def end_to_end(res: dict, setup: list[float]) -> dict:
    rounds = res["rounds"]
    if "searches" in rounds[0]:
        calls = [c for r in rounds for c in r["searches"] if "error" not in c]
        elements = sum(oracle.ideal_count(c["d"], c["bound"]) for c in calls)
        rate = elements / sum(c["wall_s"] for c in calls)
    else:
        done = sum(1 for r in rounds for e in r["elements"] if "error" not in e)
        rate = done / sum(r["library_wall_s"] for r in rounds)
    values = {
        "setup_s": statistics.median(setup),
        "elements_per_s": rate,
        "round_s": statistics.median(r["wall_s"] for r in rounds),
        "peak_rss_mb": res["peak_rss_mb"],
        "worker_peak_rss_mb": res["worker_peak_rss_mb"],
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(res: dict) -> dict:
    tr = res["traced"]
    S = tr["summary"]

    def row(name: str, key: str) -> float:
        return S.get(name, {}).get(key, 0)

    rounds = res["rounds"]
    is_scan = "searches" in rounds[0]
    m: dict[str, tuple[float, str]] = {}
    m["scan.shard_s"] = (row("scan.shard", "seconds"), "s")
    m["scan.coords_s"] = (row("scan.coords", "seconds"), "s")
    m["scan.sieve_s"] = (row("scan.sieve", "seconds"), "s")
    m["scan.decide_s"] = (row("scan.shard", "self_seconds"), "s")
    m["scan.shards"] = (row("scan.shard", "calls"), "count")
    m["scan.elements"] = (tr["elements"], "count")
    m["scan.distinct_norms"] = (tr["distinct_norms"], "count")
    m["scan.hits"] = (tr["shard_hits"], "count")
    m["splitting.classify_calls"] = (row("splitting.classify", "calls"), "count")
    m["splitting.classify_s"] = (row("splitting.classify", "seconds"), "s")
    m["splitting.factor_integer_calls"] = (row("splitting.factor_integer", "calls"), "count")
    m["splitting.factor_integer_s"] = (row("splitting.factor_integer", "seconds"), "s")
    cache = tr["factor_integer_cache"]
    m["splitting.factor_integer_hit_ratio"] = (
        cache[0] / (cache[0] + cache[1]) if cache and sum(cache) else 0.0, "ratio")
    m["splitting.prime_above_calls"] = (row("splitting.prime_above", "calls"), "count")
    m["splitting.prime_above_s"] = (row("splitting.prime_above", "seconds"), "s")
    cli = res["cli_layers"]
    m["splitting.prime_table_s"] = (cli["prime_table_s"] or 0.0, "s")
    m["factorize.factor_element_calls"] = (row("factorize.factor_element", "calls"), "count")
    m["factorize.factor_element_self_s"] = (row("factorize.factor_element", "self_seconds"), "s")
    m["ring.try_div_calls"] = (row("ring.try_div", "calls"), "count")
    m["ring.canonicalize_calls"] = (row("ring.canonicalize", "calls"), "count")
    m["abundancy.index_n_calls"] = (row("abundancy.index_n", "calls"), "count")
    m["abundancy.index_n_self_s"] = (row("abundancy.index_n", "self_seconds"), "s")
    m["abundancy.surd_mul_calls"] = (row("abundancy.surd_mul", "calls"), "count")
    m["prospect.search_calls"] = (tr["search_calls"], "count")
    m["prospect.direct_scan_s"] = (row("prospect.direct_scan", "seconds"), "s")
    m["prospect.reduction_s"] = (tr["reduction_s"], "s")
    m["prospect.memo_served"] = (tr["direct_scans_scanned"].count(False), "count")

    # Tracing overhead and parallel efficiency, per element so that the
    # traced round's slightly different inputs do not matter.
    overhead = efficiency = 0.0
    if is_scan:
        calls = [c for r in rounds for c in r["searches"]]
        flags = scanned_calls(calls)
        scanned = sum(oracle.ideal_count(c["d"], c["bound"]) for c, f in zip(calls, flags) if f)
        wall = sum(c["wall_s"] for c in calls)
        if tr["elements"]:
            overhead = (tr["wall_s"] / tr["elements"]) / (res["cpu_s"] / scanned) - 1
            efficiency = (row("scan.shard", "seconds") / tr["elements"]) / (res["workers"] * wall / scanned)
    else:
        n_untraced = sum(len(r["elements"]) for r in rounds)
        n_traced = len(tr["round"]["elements"])
        untraced = sum(r["library_wall_s"] for r in rounds) / n_untraced
        overhead = (tr["round"]["library_wall_s"] / n_traced) / untraced - 1
    m["prospect.parallel_efficiency"] = (efficiency, "ratio")

    m["cli.interpreter_ms"] = (cli["interpreter_ms"], "ms")
    m["cli.import_ms"] = (cli["import_ms"] or 0.0, "ms")
    m["cli.import_numpy_ms"] = (cli["import_numpy_ms"] or 0.0, "ms")
    m["cli.command_ms"] = (cli["command_ms"] or 0.0, "ms")
    cli_rounds = rounds + [tr["round"]]
    calls = [c for r in cli_rounds for c in r.get("cli", []) if "error" not in c]
    index = [1e3 * c["wall_s"] for c in calls if c["args"][0] == "index"]
    factor = [1e3 * c["wall_s"] for c in calls if c["args"][0] == "factor"]
    m["cli.index_p50_ms"] = (statistics.median(index) if index else 0.0, "ms")
    m["cli.factor_p50_ms"] = (statistics.median(factor) if factor else 0.0, "ms")
    m["cli.p90_ms"] = (percentile(index + factor, 90) if len(index + factor) >= 100 else 0.0, "ms")
    mersenne = [sum(c["wall_s"] for c in r["mersenne"]) for r in rounds if "mersenne" in r]
    m["cli.mersenne_s"] = (statistics.median(mersenne) if mersenne else 0.0, "s")
    m["trace.overhead_pct"] = (100 * overhead, "%")
    m["trace.missing_targets"] = (len(tr["missing"]), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def check_traced(chk: Checker, res: dict) -> None:
    tr = res["traced"]
    check_round(chk, tr["round"])
    for name in tr["missing"]:
        log(f"trace target missing: {name}")
    if "searches" not in tr["round"] or "quadperfect.scan._coords" in tr["missing"]:
        return
    calls = tr["round"]["searches"]
    if len(tr["direct_scans_scanned"]) != len(calls):
        log("traced direct scans do not pair with search calls; element count not checked")
        return
    want = sum(
        oracle.ideal_count(c["d"], c["bound"])
        for c, scanned in zip(calls, tr["direct_scans_scanned"])
        if scanned
    )
    if tr["elements"] != want:
        chk.fail(f"traced scan enumerated {tr['elements']} elements, ideal count {want}")


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "quadperfect", "__init__.py")):
        log(f"no quadperfect sources under {src}; run from the root of a checkout")
        return 2
    oracle.self_check()

    env = dict(os.environ, PYTHONPATH=src)
    env.pop("QP_WORKERS", None)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        spawned, line = run_child(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, CHILD_TIMEOUT_S,
        )
        res = json.loads(line)
        setup = [res["ready"] - spawned]
        for _ in range(0 if args.trace else SETUP_PROBES):
            t0, probe = run_child(common + ["--seconds", "0", "--setup-only"], env, PROBE_TIMEOUT_S)
            setup.append(json.loads(probe)["ready"] - t0)
    except RuntimeError as exc:
        log(str(exc))
        return 1

    chk = Checker()
    attempted = failed = 0
    for rnd in res["rounds"]:
        a, f = check_round(chk, rnd)
        attempted += a
        failed += f
    if args.trace:
        check_traced(chk, res)
        metrics = per_layer(res)
    else:
        metrics = end_to_end(res, setup)
    for p in chk.problems:
        log(f"WRONG: {p}")
    print(json.dumps({
        "correct": not chk.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
