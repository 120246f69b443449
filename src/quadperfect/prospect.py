"""Searches for perfect elements, bounded theorem corroboration, and residue facts.

Searching for elements whose first index equals t runs two independent
routes at every bound: an integer reduction (enumerate integers r with
r*r <= bound whose ordinary abundancy is t and whose prime factors are all
inert) and a direct scan of every canonical element.  The two hit sets must
agree; their agreement is recorded on the report.

A direct scan returns every element of integer n-index t >= 2 with its t,
and each search keeps its own t.  Scans shard the norm range, run shards
across processes (capped by the QP_WORKERS environment variable, the CPU
count and the shard count) from norm bound 10**6 up and in the calling
process below it, and can checkpoint completed shards, hits of every t
included, to a newline-delimited file so interrupted scans resume.  Each
shard returns the elements of its candidate norms (scan.scan_shard), and
direct_scan decides them for its own n (scan.decide).  The last 32
uncheckpointed scans keep every shard's candidates, keyed on (d, n for even
n or 1 for every odd n, bound) and the pool size the scan runs with (1
below 10**6, whatever the worker count): the candidates of odd n do not
depend on n, and searches for t = 2 and t = 3 at one (d, n, bound) often
follow each other, so neither rescans.

A shard's numpy arrays take 25 to 78 bytes per norm of its width (all nine
rings, n = 1..4), so its width sets a worker's memory.  What a shard
amortizes is the sieve's Python loop over its pi(sqrt(hi)) primes, so the
width grows with sqrt(bound): 32*isqrt(bound), clamped to [2**18, 10**6].
Shards near 1e8 are 320,000 wide and hold under 25 MB; from about 1e9 up
they are 10**6 wide, where narrower ones would cost time per norm
(BENCH_scan.json, shard_width).  Below that, a quarter of the bound per
worker caps the width, so small scans still get four shards per worker.
Each pool worker keeps the memory its shards free mapped for the next shard
(_keep_freed_arrays), so narrow shards cost no extra page faults.

The residue facts are exact: inert_residues reads the splitting table, and
congruence_identities checks each mod-8 identity over one period.
"""

from __future__ import annotations

import fcntl
import math
import os
from collections.abc import Iterator
from contextlib import closing, nullcontext
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from itertools import chain, islice

from .abundancy import (
    MAX_POWER,
    InternalInconsistency,
    classical_sigma,
    index_n,
    is_n_powerfully_t_perfect,
)
from .ring import QuadInt, RingCtx, in_sector, parse_element, ring
from .splitting import _INERT, _RESIDUE_CLASSES, SplitClass, _classify, factor_integer
from .splitting import is_probable_prime, primes_up_to

_MERSENNE_EXP_LIMIT = 127

# zeta_series sums this many terms before its tail estimate.
_ZETA_TERMS = 5000

# Below this norm bound a scan runs its shards in the calling process, where
# a 2-process pool costs about what it saves.  On 2 cores, one worker against
# two, the measured crossover lies near 1e6 for n = 1 and n = 4 and near 5e5
# for n = 2 (BENCH_scan.json, pool_crossover).
_POOL_MIN_BOUND = 10**6


def worker_count(requested: int | None = None) -> int:
    """Parallel shard cap: explicit argument, else QP_WORKERS, else the CPU count."""
    if requested is not None:
        if requested < 1:
            raise ValueError("worker count must be positive")
        return requested
    env = os.environ.get("QP_WORKERS")
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError("QP_WORKERS must be a positive integer")
        return int(env)
    return os.cpu_count() or 1


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search: parameters, canonical hits, method, cross-check state."""

    d: int
    n: int
    t: int
    bound: int
    hits: tuple[QuadInt, ...]
    method: str
    cross_checked: bool | None = None


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[Check, ...]

    @property
    def ok(self) -> bool:
        """Every check passed."""
        return all(c.passed for c in self.checks)

    def failures(self) -> tuple[Check, ...]:
        return tuple(c for c in self.checks if not c.passed)


def _sort_hits(hits) -> tuple[QuadInt, ...]:
    return tuple(sorted(hits, key=lambda z: (z.norm(), z.x, z.y)))


# ---------------------------------------------------------------------------
# Checkpointing: one line per completed shard, "key=value" fields separated by
# spaces; the hits field holds every hit of the shard, of every t, as
# semicolon-joined "element:t" pairs (element text holds no ':', ';' or space).
# ---------------------------------------------------------------------------


def format_checkpoint_line(d: int, n: int, lo: int, hi: int, hits) -> str:
    body = ";".join(f"{z}:{t}" for z, t in hits)
    return f"d={d} n={n} norm_lo={lo} norm_hi={hi} hits={body}"


def parse_checkpoint_line(line: str) -> dict:
    fields = {}
    for chunk in line.strip().split():
        key, _, value = chunk.partition("=")
        fields[key] = value
    if "t" in fields:
        raise ValueError("t= marks the older format holding one t only: delete the file")
    missing = [k for k in ("d", "n", "norm_lo", "norm_hi", "hits") if k not in fields]
    if missing:
        raise ValueError(f"checkpoint line lacks {', '.join(missing)}")
    out = {k: int(fields[k]) for k in ("d", "n", "norm_lo", "norm_hi")}
    pairs = (hit.split(":") for hit in fields["hits"].split(";") if hit)
    out["hits"] = [(parse_element(out["d"], z), int(t)) for z, t in pairs]
    return out


def read_records(path: str, parse, what: str) -> list:
    """parse(line) for every complete nonblank line of the file at path.

    An unterminated last line, cut by a crash or still being appended, is
    skipped.  A complete line that parse rejects raises ValueError
    "<path>:<line>: malformed <what> line: ...".
    """
    with open(path, "rb") as fh:
        data = fh.read()
    records = []
    for lineno, raw in enumerate(data[: data.rfind(b"\n") + 1].splitlines(), 1):
        try:
            line = raw.decode("utf-8")
            if line.strip():
                records.append(parse(line))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed {what} line: {exc}") from None
    return records


def append_record(path: str, line: str) -> None:
    """Append line and a newline in one write under an exclusive lock, first
    cutting a tail torn by a crash back to the last newline."""
    with open(path, "a+b", buffering=0) as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # released when the file closes
        end = fh.seek(0, os.SEEK_END)
        if end and os.pread(fh.fileno(), 1, end - 1) != b"\n":
            fh.seek(0)
            fh.truncate(fh.read().rfind(b"\n") + 1)
        fh.write(line.encode("utf-8") + b"\n")


def _load_checkpoint(path: str | None, d: int, n: int, bound: int):
    """Shards and hits recorded for (d, n), clipped to norms up to bound.

    A line of (d, n) is certified as it is read: its norm range must be
    nonempty, and each hit canonical, inside the range and exactly of index t.
    """
    done: list[tuple[int, int]] = []
    hits: dict[QuadInt, int] = {}
    if path is None or not os.path.exists(path):
        return done, hits

    def certified(line: str) -> dict:
        rec = parse_checkpoint_line(line)
        if (rec["d"], rec["n"]) == (d, n):
            lo, hi = rec["norm_lo"], rec["norm_hi"]
            if not 1 <= lo < hi:
                raise ValueError(f"norm range [{lo}, {hi}) is empty or starts below 1")
            for z, t in rec["hits"]:
                inside = in_sector(z) and lo <= z.norm() < hi
                if not inside or not is_n_powerfully_t_perfect(ring(d), z, n, t):
                    raise ValueError(f"{z}:{t} is not a hit in norms [{lo}, {hi})")
        return rec

    for rec in read_records(path, certified, "checkpoint"):
        if (rec["d"], rec["n"]) != (d, n) or rec["norm_lo"] > bound:
            continue
        done.append((rec["norm_lo"], min(rec["norm_hi"], bound + 1)))
        hits.update((z, t) for z, t in rec["hits"] if z.norm() <= bound)
    return done, hits


def _gaps(bound: int, done: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Subintervals of [1, bound+1) not covered by the completed shards."""
    out = []
    cursor = 1
    for lo, hi in sorted(done):
        if lo > cursor:
            out.append((cursor, min(lo, bound + 1)))
        cursor = max(cursor, hi)
        if cursor > bound:
            break
    if cursor <= bound:
        out.append((cursor, bound + 1))
    return [(lo, hi) for lo, hi in out if lo < hi]


def _shards(ranges: list[tuple[int, int]], width: int) -> Iterator[tuple[int, int]]:
    for lo, hi in ranges:
        for cur in range(lo, hi, width):
            yield cur, min(cur + width, hi)


def scan_shard_task(args) -> tuple:
    """One shard, args = (d, n, lo, hi): (lo, hi, the candidate rows of scan.scan_shard)."""
    from . import scan

    d, n, lo, hi = args
    return lo, hi, scan.scan_shard(d, n, lo, hi)


def _keep_freed_arrays() -> None:
    """Pool initializer: let a worker reuse the memory of one shard's arrays for the next.

    glibc serves a block above its mmap threshold (128 kB at start) by mmap
    and unmaps it when freed, so each shard's arrays would fault their pages
    in afresh.  Freeing one mapped block of up to 32 MB raises the threshold
    to its size and the heap's trim threshold to twice that, so arrays of up
    to 32 MB come from the heap, and up to 64 MB of it stays mapped between
    shards (BENCH_scan.json, shard_width, has the page faults it saves).  The
    block's pages are never touched, so they add no RSS.
    """
    import numpy as np

    np.empty((32 << 20) - (8 << 10), dtype=np.uint8)  # header and page rounding fit in 32 MB


def _run_shards(d: int, n: int, bound: int, nworkers: int, gaps) -> Iterator[tuple]:
    """(lo, hi, candidate rows) of each shard of the gaps of [1, bound], run
    on a pool of nworkers, in process for 1.

    Shards are laid out as they run, so memory does not grow with the bound.
    """
    from concurrent.futures import ProcessPoolExecutor  # only scans pay for multiprocessing

    # A shard's arrays take 25-78 bytes per norm, so the width is as narrow as
    # the sieve's per-shard loop over its pi(sqrt(hi)) primes allows: it grows
    # with sqrt(bound), from 2**18 at 1e7 to 10**6 from about 1e9 up.
    cap = min(10**6, max(1 << 18, 32 * math.isqrt(bound)))
    width = max(min(bound // (4 * nworkers) + 1, cap), 1 << 15)
    tasks = ((d, n, lo, hi) for lo, hi in _shards(gaps, width))
    # A fork pool starts every worker at its first submit: no more than there are shards.
    nworkers = min(nworkers, sum(len(range(lo, hi, width)) for lo, hi in gaps))
    with (
        ProcessPoolExecutor(nworkers, initializer=_keep_freed_arrays)
        if nworkers > 1
        else nullcontext()
    ) as pool:
        # Each map call holds one batch of 512 shards per worker, and the next
        # is submitted once this one is read: scans up to 1e9 on two workers
        # take one batch.
        batches = iter(lambda: list(islice(tasks, 512 * nworkers)), [])
        run = pool.map if pool else map
        yield from chain.from_iterable(run(scan_shard_task, b) for b in batches)


@lru_cache(maxsize=32)
def _scan(d: int, n: int, bound: int, nworkers: int) -> tuple:
    """Every shard's (lo, hi, candidate rows) of [1, bound] at power n; an odd n is passed as 1."""
    return tuple(_run_shards(d, n, bound, nworkers, _gaps(bound, [])))


def direct_scan(
    d: int,
    n: int,
    bound: int,
    *,
    workers: int | None = None,
    checkpoint: str | None = None,
) -> list[tuple[QuadInt, int]]:
    """Every canonical element with norm <= bound and integer n-index t >= 2, with t.

    The (element, t) pairs are ordered by (norm, x, y).  Each shard's
    candidates are decided here, for this n.  Without a checkpoint they may
    come from the cache of recent scans, which every odd n shares, keyed on
    the pool size the scan runs with: 1 below _POOL_MIN_BOUND, whatever the
    worker count, and min(count, CPU count) from it up.  A checkpointed scan
    always reads and extends its file.  The power n lies in 1..MAX_POWER, as
    for index_n, and the bound below 2**52, where a shard's prime table stays
    within 2**26.
    """
    ring(d)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if not 1 <= n <= MAX_POWER:
        raise ValueError(f"scan needs a power n in 1..{MAX_POWER}; got n = {n}")
    # The scan, and numpy with it, loads here rather than with the package,
    # and before a pool forks, so the workers inherit it.
    from . import scan

    if bound >= scan._HI_MAX:
        raise ValueError(f"scan needs a bound below 2**52 for its prime table; got {bound}")
    count = worker_count(workers)  # checked at every bound
    nworkers = 1 if bound < _POOL_MIN_BOUND else min(count, os.cpu_count() or 1)
    parity_n = 1 if n & 1 else n  # the candidates of odd n do not depend on n
    if checkpoint is None:
        found, source = {}, nullcontext(_scan(d, parity_n, bound, nworkers))
    else:
        done, found = _load_checkpoint(checkpoint, d, n, bound)
        source = closing(_run_shards(d, parity_n, bound, nworkers, _gaps(bound, done)))
    with source as shards:
        for lo, hi, rows in shards:
            pairs = [(QuadInt._raw(d, x, y), t) for x, y, t in scan.decide(d, n, rows)]
            found.update(pairs)
            if checkpoint is not None:
                append_record(checkpoint, format_checkpoint_line(d, n, lo, hi, pairs))
    return [(z, found[z]) for z in _sort_hits(found)]


def search_t_perfect(
    ctx: RingCtx,
    t: int,
    bound: int,
    *,
    workers: int | None = None,
    checkpoint: str | None = None,
) -> SearchReport:
    """Find elements of index t by integer reduction, cross-checked by direct scan.

    The reduction enumerates integers r with r*r <= bound, keeps those whose
    ordinary abundancy index is t and whose prime factors are all inert, and
    embeds them.  The direct scan runs first, at any bound, so a bound it
    refuses raises before the reduction starts; the report records whether
    the two hit sets agree.
    """
    if t < 2:
        raise ValueError("t must be an integer >= 2")
    scanned = direct_scan(ctx.d, 1, bound, workers=workers, checkpoint=checkpoint)
    hits = []
    for r in range(1, math.isqrt(bound) + 1):
        if classical_sigma(r, 1) != t * r:
            continue
        if all(_classify(ctx.d, p) is SplitClass.INERT for p, _ in factor_integer(r).factors):
            hits.append(QuadInt.from_int(ctx.d, r))
    return SearchReport(
        d=ctx.d,
        n=1,
        t=t,
        bound=bound,
        hits=_sort_hits(hits),
        method="IntegerReduction",
        cross_checked={z for z, tt in scanned if tt == t} == set(hits),
    )


def search_powerfully(
    ctx: RingCtx,
    n: int,
    t: int,
    bound: int,
    *,
    workers: int | None = None,
    checkpoint: str | None = None,
) -> SearchReport:
    """Direct scan for elements with n-index exactly t.

    For n >= 3 a hit of any t contradicts the bound I_n < 2 on rational
    indices, so it is raised as an InternalInconsistency rather than returned
    as data.
    """
    if t < 2:
        raise ValueError("t must be an integer >= 2")
    found = direct_scan(ctx.d, n, bound, workers=workers, checkpoint=checkpoint)
    if n >= 3 and found:
        raise InternalInconsistency(
            f"scan produced {len(found)} hits for n={n}, d={ctx.d} "
            f"(t in {sorted({tt for _, tt in found})}); indices that large cannot be integers"
        )
    return SearchReport(
        d=ctx.d,
        n=n,
        t=t,
        bound=bound,
        hits=tuple(z for z, tt in found if tt == t),
        method="DirectScan",
        cross_checked=None,
    )


def mersenne_perfects(ctx: RingCtx, p_max: int) -> SearchReport:
    """Even perfect integers 2**(p-1) * (2**p - 1), p <= p_max, that stay perfect here.

    A candidate survives exactly when both 2 and its Mersenne prime are inert;
    every survivor is certified by the exact index test before being reported.
    """
    if p_max > _MERSENNE_EXP_LIMIT:
        raise ValueError(f"p_max is capped at {_MERSENNE_EXP_LIMIT}")
    hits = []
    two_inert = _classify(ctx.d, 2) is SplitClass.INERT
    for p in primes_up_to(max(p_max, 0)):
        m = (1 << p) - 1
        if not is_probable_prime(m):
            continue
        if not two_inert or _classify(ctx.d, m) is not SplitClass.INERT:
            continue
        r = (1 << (p - 1)) * m
        z = QuadInt.from_int(ctx.d, r)
        if not is_n_powerfully_t_perfect(ctx, z, 1, 2):
            raise InternalInconsistency(f"{r} passed the Mersenne filter but I_1 != 2")
        hits.append(z)
    top = (1 << (p_max - 1)) * ((1 << p_max) - 1) if p_max >= 2 else 1
    return SearchReport(
        d=ctx.d,
        n=1,
        t=2,
        bound=top * top,
        hits=_sort_hits(hits),
        method="MersenneFilter",
        cross_checked=None,
    )


# ---------------------------------------------------------------------------
# Analytic bound checks.
# ---------------------------------------------------------------------------


def zeta_series(s: float) -> float:
    """Riemann zeta by direct summation to K = _ZETA_TERMS plus an integral tail estimate.

    The tail below the cut K is K**(1-s)/(s-1) - K**(-s)/2 + s*K**(-s-1)/12
    with error under s*(s+1)*(s+2)*K**(-s-3)/720, far below 1e-10 for every
    s >= 1.3.
    """
    if s <= 1:
        raise ValueError("the series needs s > 1")
    K = _ZETA_TERMS
    partial = math.fsum(k**-s for k in range(1, K + 1))
    tail = K ** (1.0 - s) / (s - 1.0) - 0.5 * K**-s + s * K ** (-s - 1.0) / 12.0
    return partial + tail


def verify_bounds(n: int, samples) -> VerificationReport:
    """Check float(I_n(z)) < zeta(n/2)**2 on the samples, plus the fixed constants.

    The constants: zeta(5/2)**2 lies in (1.79, 1.81), and pi**4/60, pi**4/52,
    4*pi**4/195 are each below 2.
    """
    if n < 3:
        raise ValueError("the zeta-square bound needs n >= 3")
    checks = []
    z2 = zeta_series(n / 2) ** 2
    for ctx, z in samples:
        val = float(index_n(ctx, z, n).value)
        checks.append(
            Check(
                name=f"I_{n}({z}) < zeta({n}/2)^2 in d={ctx.d}",
                passed=val < z2,
                detail=f"{val:.10f} < {z2:.10f}",
            )
        )
    z52 = zeta_series(2.5) ** 2
    pi4 = math.pi**4
    checks.append(
        Check("zeta(5/2)^2 in (1.79, 1.81)", 1.79 < z52 < 1.81, f"{z52:.10f}")
    )
    for label, value in (
        ("pi^4/60", pi4 / 60),
        ("pi^4/52", pi4 / 52),
        ("4*pi^4/195", 4 * pi4 / 195),
    ):
        checks.append(Check(f"{label} < 2", value < 2, f"{value:.10f}"))
    return VerificationReport(tuple(checks))


def inert_residues(ctx: RingCtx, modulus: int) -> frozenset[int]:
    """Residue classes mod modulus that hold a prime, every one of them inert.

    Read exactly from the splitting table mod |D|; let g = gcd(modulus, |D|).
    A class r prime to modulus holds infinitely many primes (Dirichlet), their
    residues mod |D| every t prime to |D| with t = r (mod g).  Every other
    prime divides modulus*|D| and is taken by itself.  A class of inert and
    other primes raises ValueError; so does a modulus above 10**6.
    """
    if not 2 <= modulus <= 10**6:
        raise ValueError("modulus must lie in 2..10**6")
    D, table = _RESIDUE_CLASSES[ctx.d]
    g = math.gcd(modulus, D)
    codes: list[set[int]] = [set() for _ in range(g)]
    for t in range(D):
        if math.gcd(t, D) == 1:
            codes[t % g].add(table[t])
    mixed = [s for s in range(g) if len(codes[s]) > 1]
    if mixed:
        raise ValueError(
            f"modulus {modulus} does not separate inert primes for d={ctx.d}: "
            f"the primes of the classes {mixed} mod {g} are of both kinds"
        )
    # Unmixed classes mod g carry the character (D/.), primitive mod |D|: so
    # g = |D|, and the primes dividing modulus*|D| divide modulus, one a class.
    inert = {r for r in range(modulus) if codes[r % g] == {_INERT} and math.gcd(r, modulus) == 1}
    inert.update(p % modulus for p, _ in factor_integer(modulus).factors if table[p % D] == _INERT)
    return frozenset(inert)


# ---------------------------------------------------------------------------
# The mod-8 congruence identities and the parity predictor for the
# square-part shape of a hypothetical odd perfect integer (d = -2 analysis).
# ---------------------------------------------------------------------------


class LParity(Enum):
    ODD_L = "odd"
    EVEN_L = "even"
    UNCONSTRAINED = "unconstrained"


@dataclass(frozen=True)
class EulerianShape:
    """The shape p**k * (m1*m2)**2 of a hypothetical odd perfect integer.

    p is the special prime, k its exponent (both 1 mod 4); m1 collects the
    square-part primes that are 5 mod 8 (only their exponents matter here)
    and m2_part the squarefree-free remainder built from primes 7 mod 8.
    """

    p: int
    k: int
    m1_exponents: tuple[int, ...]
    m2_part: int

    def __post_init__(self):
        if not is_probable_prime(self.p) or self.p % 4 != 1:
            raise ValueError("p must be a prime congruent to 1 mod 4")
        if self.k < 1 or self.k % 4 != 1:
            raise ValueError("k must be a positive integer congruent to 1 mod 4")
        if any(a < 1 for a in self.m1_exponents):
            raise ValueError("m1 exponents must be positive")
        if self.m2_part < 1:
            raise ValueError("m2_part must be positive")
        for q, _ in factor_integer(self.m2_part).factors:
            if q % 8 != 7:
                raise ValueError(f"m2 prime {q} is not 7 mod 8")

    @property
    def L(self) -> int:
        return sum(1 for a in self.m1_exponents if a & 1)


def eulerian_parity(shape: EulerianShape) -> LParity:
    """Parity forced on L (the count of odd square-part exponents) by k mod 8."""
    k8 = shape.k % 8
    if k8 == 1:
        return LParity.ODD_L
    if k8 == 5:
        return LParity.EVEN_L
    return LParity.UNCONSTRAINED


def congruence_identities() -> VerificationReport:
    """The mod-8 identities behind the parity predictor, each proved over one period.

    (i)   sigma(q**(2a)) = 6a+1 (mod 8) for primes q = 5 (mod 8);
    (ii)  sum(p**l, l=0..k) = 6 (mod 8) when k = 1 (mod 8) and 2 (mod 8) when
          k = 5 (mod 8), for primes p = 5 (mod 8);
    (iii) sigma(q**(2a)) = 1 (mod 8) for primes q = 7 (mod 8);
    (iv)  2**p - 1 is never 2, 8, or 10 mod 11 for primes p.

    A power mod 8 depends on q mod 8 only.  Eight consecutive powers of
    5 (mod 8), or two of 7, sum to 0 mod 8, so a in 0..3, k in {1, 5} and
    a = 0 cover every exponent.  2**10 = 1 (mod 11), and a prime p is 2, 5 or
    1, 3, 7, 9 mod 10.  Each period fact is checked with its cases.
    """

    def sigma_mod8(q: int, e: int) -> int:
        return sum(pow(q, l, 8) for l in range(e + 1)) % 8

    cases = (  # (name, its period fact, what one period covers, the cases it leaves)
        (
            "sigma(q^2a) = 6a+1 mod 8 for q = 5 mod 8", sigma_mod8(5, 7) == 0 and 6 * 4 % 8 == 0,
            "a in 0..3", [sigma_mod8(5, 2 * a) == (6 * a + 1) % 8 for a in range(4)],
        ),
        (
            "sum p^l mod 8 is 6 for k=1 mod 8 and 2 for k=5 mod 8", sigma_mod8(5, 7) == 0,
            "k in {1, 5}", [sigma_mod8(5, 1) == 6, sigma_mod8(5, 5) == 2],
        ),
        (
            "sigma(q^2a) = 1 mod 8 for q = 7 mod 8", sigma_mod8(7, 1) == 0,
            "a = 0", [sigma_mod8(7, 0) == 1],
        ),
        (
            "2^p - 1 mod 11 avoids {2, 8, 10} for prime p", pow(2, 10, 11) == 1,
            "p = 1, 2, 3, 5, 7, 9 mod 10",
            [(pow(2, r, 11) - 1) % 11 not in (2, 8, 10) for r in (1, 2, 3, 5, 7, 9)],
        ),
    )
    checks = []
    for name, period, span, holds in cases:
        detail = f"{holds.count(False)} counterexamples over {span}; the period "
        detail += "holds" if period else "FAILS"
        checks.append(Check(name, period and all(holds), detail))
    return VerificationReport(tuple(checks))
