import math
import os
import random
from pathlib import Path

import pytest

from quadperfect import UFD_DS, QuadInt, ring

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
