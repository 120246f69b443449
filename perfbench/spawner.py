"""Runs CLI processes for the workload from a small interpreter.

On Linux a child's peak RSS includes the RSS of the process that started it,
so CLI processes started straight from the workload (which holds the
library's caches) would report the workload's memory.  Started from here,
they report their own.  Protocol: one JSON request per stdin line,
{"argv": [...], "timeout": seconds}; one JSON reply per stdout line with
wall_s, returncode (null on timeout), stdout, stderr and the largest child
RSS so far in MB.
"""

import json
import resource
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
        )
        try:
            out, err = proc.communicate(timeout=req["timeout"])
            code = proc.returncode
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            code = None
        wall = time.perf_counter() - t0
        peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        reply = {"wall_s": wall, "returncode": code, "stdout": out, "stderr": err, "peak_rss_mb": peak}
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
