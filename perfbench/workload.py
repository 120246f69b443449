"""One workload run in a fresh interpreter: set up, run whole rounds, print raw results.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It
imports quadperfect, builds the round's inputs from the seed, and then runs
rounds until --seconds have passed.  Each round makes the same operations.
With --trace 1 it then runs one more round serially under the span tracer and
measures the CLI start-up layers.  The last stdout line is one JSON object
holding every input and output, which run.py checks against the oracle.
With --setup-only it stops after set-up: run.py times several of those.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import quadperfect as qp

from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
UFD_DS = (-1, -2, -3, -7, -11, -19, -43, -67, -163)
WORKERS = 2
ABSENCE_BOUND = 10**7
SWEEP_BOUND = 5 * 10**5
EXACT_SCALES = tuple(10**e for e in range(4, 17, 2))
EXACT_PER_SCALE = 44
# Fixed elements with known perfection, run in every round.
EXACT_KNOWN = ((-1, 18, 6), (-11, 56, 0), (-11, 16256, 0), (-19, 12, 0))
CLI_CALLS = 20  # of each of index and factor, per round
CLI_TRACE_CALLS = 30  # per kind, in the traced run: with a round's 40, p90 has ten samples above it
CLI_TIMEOUT_S = 20.0
MERSENNE_P_MAX = 127
MERSENNE_DEADLINE_S = 2.0


def rng_for(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def element_text(x: int, y: int) -> str:
    """The CLI's element grammar for doubled coordinates (x + y*sqrt(d))/2."""
    if (x | y) & 1:
        return f"({x}{y:+d}s)/2"
    a, b = x // 2, y // 2
    if b == 0:
        return str(a)
    return f"{b}s" if a == 0 else f"{a}{b:+d}s"


def element_near(rng: random.Random, d: int, scale: int) -> tuple[int, int]:
    """Doubled coordinates of a nonzero element of norm close to scale, random direction."""
    D = -d
    while True:
        y = rng.randint(0, math.isqrt(4 * scale // D))
        x = math.isqrt(4 * scale - D * y * y) + rng.randint(-3, 3)
        if d % 4 == 1:
            x += (x ^ y) & 1
        else:
            x, y = x & ~1, y & ~1
        if x or y:
            return rng.choice((1, -1)) * x, rng.choice((1, -1)) * y


# ---------------------------------------------------------------------------
# Inputs per round.
# ---------------------------------------------------------------------------


def search_inputs(workload: str, rng: random.Random) -> dict:
    if workload == "absence-deep":
        ds, bound, jitter = [-1, -3], ABSENCE_BOUND, ABSENCE_BOUND // 100
        plan = [(1, 2)]
    else:
        ds, bound, jitter = list(UFD_DS), SWEEP_BOUND, SWEEP_BOUND // 100
        plan = [(1, 2)] + [(n, t) for n in (2, 3, 4, 5) for t in (2, 3)]
    rng.shuffle(ds)
    calls = []
    for d in ds:
        b = bound - rng.randrange(jitter)
        calls.extend({"d": d, "n": n, "t": t, "bound": b} for n, t in plan)
    return {"searches": calls}


def exact_inputs(rng: random.Random, cli_calls: int = CLI_CALLS) -> dict:
    elements = [list(e) for e in EXACT_KNOWN]
    for d in UFD_DS:
        for scale in EXACT_SCALES:
            for _ in range(EXACT_PER_SCALE):
                elements.append([d, *element_near(rng, d, scale)])
    rng.shuffle(elements)
    cli = [["index", "--d", "-1", "9+3i", "--n", "2"]]
    for kind in ["index"] * (cli_calls - 1) + ["factor"] * cli_calls:
        d, x, y = rng.choice(elements)
        args = [kind, "--d", str(d), "--json"]
        if kind == "index":
            args += ["--n", str(rng.randint(1, 3))]
        # "--" keeps a leading minus sign from reading as an option.
        cli.append(args + ["--", element_text(x, y)])
    calls = [["cli", a] for a in cli]
    calls += [["mersenne", ["mersenne", "--d", str(d), "--p-max", str(MERSENNE_P_MAX), "--json"]] for d in UFD_DS]
    rng.shuffle(calls)
    return {"elements": elements, "calls": calls}


def make_inputs(workload: str, seed: int, round_no: int, cli_calls: int = CLI_CALLS) -> dict:
    rng = rng_for(workload, seed, round_no)
    if workload == "exact-cli":
        return exact_inputs(rng, cli_calls)
    return search_inputs(workload, rng)


# ---------------------------------------------------------------------------
# Rounds.
# ---------------------------------------------------------------------------


def run_searches(inputs: dict, workers: int) -> dict:
    out = []
    for call in inputs["searches"]:
        ctx = qp.ring(call["d"])
        rec = dict(call)
        t0 = time.perf_counter()
        try:
            if call["n"] == 1:
                rep = qp.search_t_perfect(ctx, call["t"], call["bound"], workers=workers)
            else:
                rep = qp.search_powerfully(ctx, call["n"], call["t"], call["bound"], workers=workers)
        except Exception as exc:  # a failed operation is reported, not fatal
            rec.update(wall_s=time.perf_counter() - t0, error=repr(exc))
        else:
            rec.update(
                wall_s=time.perf_counter() - t0,
                hits=[[z.x, z.y] for z in rep.hits],
                cross_checked=rep.cross_checked,
            )
        out.append(rec)
    return {"searches": out}


def terms_json(value) -> list:
    return [[r, str(c)] for r, c in sorted(value.terms.items())]


def run_exact_library(elements: list) -> tuple[list, float]:
    """Factor, three indices and the perfection test per element; returns (records, wall)."""
    raw = []
    t0 = time.perf_counter()
    for d, x, y in elements:
        ctx = qp.ring(d)
        z = qp.QuadInt(d, x, y, half=True)
        try:
            f = qp.factor_element(ctx, z)
            idx = [qp.index_n(ctx, z, n).value for n in (1, 2, 3)]
            perfect = qp.is_n_powerfully_t_perfect(ctx, z, 1, 2)
        except Exception as exc:
            raw.append(exc)
        else:
            raw.append((f, idx, perfect))
    wall = time.perf_counter() - t0
    records = []
    for (d, x, y), r in zip(elements, raw):
        rec = {"d": d, "x": x, "y": y}
        if isinstance(r, Exception):
            rec["error"] = repr(r)
        else:
            f, idx, perfect = r
            rec.update(
                unit=[f.unit.x, f.unit.y],
                parts=[[pi.x, pi.y, e] for pi, e in f.parts],
                index={str(n): terms_json(v) for n, v in zip((1, 2, 3), idx)},
                perfect=perfect,
            )
        records.append(rec)
    return records, wall


class Spawner:
    """CLI calls made through perfbench/spawner.py, which says why."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.peak_rss_mb = 0.0

    def run(self, args: list, timeout: float) -> dict:
        argv = [sys.executable, "-m", "quadperfect.cli", *args]
        self.proc.stdin.write(json.dumps({"argv": argv, "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.peak_rss_mb = reply["peak_rss_mb"]
        rec = {"args": args, "wall_s": reply["wall_s"], "stdout": reply["stdout"]}
        if reply["returncode"] is None:
            # A call that misses its deadline counts at the deadline.
            rec.update(wall_s=timeout, error="deadline")
        elif reply["returncode"] != 0:
            rec["error"] = f"exit {reply['returncode']}: {reply['stderr'].strip()[-200:]}"
        return rec

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def run_exact(inputs: dict, spawner: Spawner | None) -> dict:
    """Library batches interleaved with the CLI and mersenne calls, so that both
    are timed across the whole round.  Without a spawner, only the library part."""
    elements = inputs["elements"]
    calls = inputs["calls"] if spawner is not None else []
    out: dict = {"elements": [], "library_wall_s": 0.0, "cli": [], "mersenne": []}
    k = max(1, len(calls))
    for i in range(k):
        batch = elements[i * len(elements) // k : (i + 1) * len(elements) // k]
        records, wall = run_exact_library(batch)
        out["elements"] += records
        out["library_wall_s"] += wall
        if i < len(calls):
            group, args = calls[i]
            timeout = CLI_TIMEOUT_S if group == "cli" else MERSENNE_DEADLINE_S
            out[group].append(spawner.run(args, timeout))
    return out


def run_round(workload: str, inputs: dict, workers: int, spawner: Spawner | None = None) -> dict:
    t0 = time.perf_counter()
    if workload == "exact-cli":
        out = run_exact(inputs, spawner)
    else:
        out = run_searches(inputs, workers)
    out["wall_s"] = time.perf_counter() - t0
    out["inputs"] = inputs
    return out


def cpu_seconds() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


# ---------------------------------------------------------------------------
# The traced round and the CLI start-up layers.
# ---------------------------------------------------------------------------


def traced_round(workload: str, inputs: dict, spawner: Spawner | None) -> dict:
    """One round with shards run serially in this process, every layer wrapped.

    For exact-cli the CLI calls run after the tracer is removed, since they
    are separate processes; the mersenne calls are left out.
    """
    fi = getattr(getattr(qp, "splitting", None), "factor_integer", None)
    info0 = fi.cache_info() if hasattr(fi, "cache_info") else None
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        rnd = run_round(workload, inputs, workers=1)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    info1 = fi.cache_info() if info0 is not None else None
    if spawner is not None:
        rnd["cli"] = [spawner.run(a, CLI_TIMEOUT_S) for g, a in inputs["calls"] if g == "cli"]
    summary = tracer.summarize()
    # Which direct scans ran shards, and which the memo served.
    scanned = []
    for i, span in enumerate(tracer.spans):
        if span[0] == "prospect.direct_scan":
            scanned.append(bool(tracer.children(i, "scan.shard")))
    searches = [
        i for i, s in enumerate(tracer.spans)
        if s[0] in ("prospect.search_t_perfect", "prospect.search_powerfully")
    ]
    reduction_s = 0.0
    for i in searches:
        if tracer.spans[i][0] == "prospect.search_t_perfect":
            span = tracer.spans[i]
            inner = sum(tracer.spans[j][2] - tracer.spans[j][1]
                        for j in tracer.children(i, "prospect.direct_scan"))
            reduction_s += span[2] - span[1] - inner
    shards = [s for s in tracer.spans if s[0] == "scan.shard"]
    coords = [s for s in tracer.spans if s[0] == "scan.coords"]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"spans-{workload}.jsonl"))
    return {
        "round": rnd,
        "wall_s": wall,
        "summary": summary,
        "missing": tracer.missing,
        "direct_scans_scanned": scanned,
        "reduction_s": reduction_s,
        "search_calls": len(searches),
        "elements": sum(s[4]["elements"] for s in coords if s[4]),
        "distinct_norms": sum(s[4]["distinct_norms"] for s in shards if s[4]),
        "shard_hits": sum(s[4]["hits"] for s in shards if s[4]),
        "factor_integer_cache": None if info1 is None else [
            info1.hits - info0.hits, info1.misses - info0.misses
        ],
    }


def _median_wall(cmd: list, repeat: int = 3) -> float:
    walls = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        subprocess.run(cmd, capture_output=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def _median_of(cmd: list, parse, repeat: int = 3) -> float | None:
    values = []
    for _ in range(repeat):
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
        value = parse(p.stderr) if p.returncode == 0 else None
        if value is None:
            return None
        values.append(value)
    return statistics.median(values)


def _importtime(stderr: str, module: str) -> float | None:
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e3
    return None


def cli_layers() -> dict:
    """Cold start of the CLI process, split into interpreter, imports and the command."""
    py = sys.executable
    out = {"interpreter_ms": 1e3 * _median_wall([py, "-c", "pass"])}
    imp = [py, "-X", "importtime", "-c", "import quadperfect"]
    out["import_ms"] = _median_of(imp, lambda e: _importtime(e, "quadperfect"))
    out["import_numpy_ms"] = _median_of(imp, lambda e: _importtime(e, "numpy"))
    code = (
        "import sys, time\n"
        "from quadperfect.cli import main\n"
        "t0 = time.perf_counter()\n"
        "main(['index', '--d', '-1', '9+3i', '--n', '2'])\n"
        "sys.stderr.write(repr(time.perf_counter() - t0))\n"
    )
    out["command_ms"] = _median_of([py, "-c", code], lambda e: 1e3 * float(e.strip().splitlines()[-1]))
    primes = getattr(getattr(qp, "splitting", None), "primes_up_to", None)
    cold = getattr(primes, "__wrapped__", None)
    if cold is not None:
        t0 = time.perf_counter()
        cold(10**6)
        out["prime_table_s"] = time.perf_counter() - t0
    else:
        out["prime_table_s"] = None
    return out


# ---------------------------------------------------------------------------


def warm_up(workload: str) -> None:
    """Lazy tables a long-lived library user has already paid for."""
    if workload == "exact-cli":
        qp.factor_integer(2 * 3 * 5 * 7 * 1000003)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("absence-deep", "ring-sweep", "exact-cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    inputs = make_inputs(args.workload, args.seed, 0)
    warm_up(args.workload)
    ready = time.time()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    # CLI processes go through a spawner (exact-cli only); scans start pools.
    spawner = Spawner() if args.workload == "exact-cli" else None
    try:
        rounds = []
        cpu0 = cpu_seconds()
        t_start = time.perf_counter()
        while True:
            rounds.append(run_round(args.workload, inputs, WORKERS, spawner))
            if time.perf_counter() - t_start >= args.seconds:
                break
            inputs = make_inputs(args.workload, args.seed, len(rounds))
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        result = {
            "ready": ready,
            "workers": WORKERS,
            "rounds": rounds,
            "cpu_s": cpu_seconds() - cpu0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "worker_peak_rss_mb": spawner.peak_rss_mb if spawner else children,
        }
        if args.trace:
            inputs = make_inputs(args.workload, args.seed, len(rounds), CLI_TRACE_CALLS)
            result["traced"] = traced_round(args.workload, inputs, spawner)
            result["cli_layers"] = cli_layers()
    finally:
        if spawner is not None:
            spawner.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
