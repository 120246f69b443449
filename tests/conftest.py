import concurrent.futures
import math
import os
import random
from pathlib import Path

import numpy as np
import pytest

from quadperfect import UFD_DS, QuadInt, prospect, ring

ALL_DS = UFD_DS

# CLI tests start child interpreters; they import the package from this tree too.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(params=ALL_DS, ids=lambda d: f"d={d}")
def d(request):
    return request.param


@pytest.fixture
def ctx(d):
    return ring(d)


@pytest.fixture
def laid_out(monkeypatch):
    """Scans that lay out their shards and run none of them.

    The pool is an in-process stand-in that records its size and maps in
    process, so no process starts, whatever the requested count; each shard
    task records its (d, n, lo, hi) and returns no candidate rows.  Yields
    (sizes, tasks), on an empty scan cache.
    """
    sizes, tasks = [], []

    class Serial:
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, batch):
            return map(fn, batch)

    def empty_shard(task):
        tasks.append(task)
        return task[2], task[3], np.empty((0, 3), dtype=np.int64)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Serial)
    monkeypatch.setattr(prospect, "scan_shard_task", empty_shard)
    prospect._scan.cache_clear()
    yield sizes, tasks
    prospect._scan.cache_clear()


def make_rng(*salt) -> random.Random:
    return random.Random("quadperfect:" + ":".join(str(s) for s in salt))


def random_element(rng: random.Random, d: int, span: int = 30, nonzero: bool = True) -> QuadInt:
    """Uniform-ish element from a coordinate box, parity handled by construction."""
    h = rng.randint(0, 1) if d % 4 == 1 else 0
    while True:
        x = 2 * rng.randint(-span, span) + h
        y = 2 * rng.randint(-span, span) + h
        if not nonzero or x or y:
            return QuadInt(d, x, y, half=True)


def random_element_norm_le(rng: random.Random, d: int, bound: int) -> QuadInt:
    """Nonzero element with norm at most bound, by box rejection."""
    D = -d
    xmax = math.isqrt(4 * bound)
    ymax = math.isqrt(4 * bound // D)
    h = rng.randint(0, 1) if d % 4 == 1 else 0
    while True:
        x = 2 * rng.randint(-xmax // 2, xmax // 2) + h
        y = 2 * rng.randint(-ymax // 2, ymax // 2) + h
        if (x or y) and (x * x + D * y * y) <= 4 * bound:
            return QuadInt(d, x, y, half=True)
