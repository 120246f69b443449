"""Reference measurements that are not workloads; run by hand, from the checkout root.

    python3 perfbench/reference.py shards
        One 1e6-norm shard just below 1e8 for d in {-1, -3, -163} and n in
        {1, 2}, each in a fresh interpreter, split into layers (about 30 s).
    python3 perfbench/reference.py criterion3
        search_t_perfect(t=2) at the paper's bound 1e8 for d = -1 and d = -3
        with 2 workers: wall time and peak worker RSS (several minutes, and
        about 1.5 GB per worker).

Prints one JSON object and writes it to perfbench/out/reference-<what>.json.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
sys.path[:0] = [SRC, HERE]

SHARD_HI = 10**8
SHARD_WIDTH = 10**6
SHARD_CASES = [(d, n) for d in (-1, -3, -163) for n in (1, 2)]


def one_shard(d: int, n: int) -> dict:
    """Layer times of scan_shard(d, n, 1e8 - 1e6, 1e8) in this (fresh) interpreter."""
    import numpy as np

    from quadperfect import scan
    from spans import Tracer

    lo, hi = SHARD_HI - SHARD_WIDTH, SHARD_HI
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        hits = scan.scan_shard(d, n, lo, hi)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    s = tracer.summarize()
    ns = scan._coords(d, lo, hi)[2]
    t0 = time.perf_counter()
    np.unique(ns, return_counts=True)
    unique_s = time.perf_counter() - t0
    decide = s["scan.shard"]["self_seconds"]
    return {
        "d": d,
        "n": n,
        "wall_s": wall,
        "coords_s": s["scan.coords"]["seconds"],
        "unique_s": unique_s,
        "sieve_s": s["scan.sieve"]["seconds"],
        "classify_calls": s.get("splitting.classify", {}).get("calls", 0),
        "classify_s": s.get("splitting.classify", {}).get("seconds", 0.0),
        "per_norm_loop_s": decide - unique_s,
        "elements": int(ns.size),
        "hits": len(hits),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def shards() -> dict:
    rows = []
    for d, n in SHARD_CASES:
        p = subprocess.run(
            [sys.executable, __file__, "one-shard", str(d), str(n)],
            capture_output=True, text=True, check=True,
        )
        rows.append(json.loads(p.stdout.strip().splitlines()[-1]))
    return {"shard": [SHARD_HI - SHARD_WIDTH, SHARD_HI], "rows": rows}


def criterion3() -> dict:
    import oracle
    from quadperfect import ring, search_t_perfect

    rows = []
    for d in (-1, -3):
        t0 = time.perf_counter()
        rep = search_t_perfect(ring(d), 2, SHARD_HI, workers=2)
        rows.append({
            "d": d,
            "wall_s": time.perf_counter() - t0,
            "hits": [str(z) for z in rep.hits],
            "cross_checked": rep.cross_checked,
            "oracle_hits": oracle.expected_t_perfect(d, 2, SHARD_HI),
            "elements": oracle.ideal_count(d, SHARD_HI),
            # Largest RSS of any worker that has finished so far.
            "worker_peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        })
    return {"bound": SHARD_HI, "workers": 2, "rows": rows}


def machine() -> dict:
    import platform

    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main() -> int:
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    if what == "one-shard":
        print(json.dumps(one_shard(int(sys.argv[2]), int(sys.argv[3]))))
        return 0
    if what not in ("shards", "criterion3"):
        print(__doc__, file=sys.stderr)
        return 2
    result = {"machine": machine(), what: shards() if what == "shards" else criterion3()}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"reference-{what}.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
