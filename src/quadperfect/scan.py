"""Norm-bounded enumeration of canonical elements with exact integer-index detection.

A shard covers a norm interval [lo, hi).  Candidate coordinates come from the
box |x| <= 2*sqrt(hi), |y| <= 2*sqrt(hi/|d|) filtered by the sector rules, so
each canonical element in the interval is produced exactly once.  The interval
is factored wholesale with a segmented sieve, and every distinct norm N is
flagged or ruled out in plain integers.

The index is I_n(z) = prod over pi**a exactly dividing z of
sum(|pi|**(-j*n), j = 0..a); write geom(q, k) = 1 + q + ... + q**k.

Odd n: over a split or ramified p, |pi| = sqrt(p) and the chains of the
primes above p multiply to A + B*sqrt(p) with A, B > 0.  In the product, the
coefficient of the square root of all such primes together is a product of
positive B's that nothing cancels, as square roots of distinct squarefree
integers are linearly independent: the norm holds no integer index.
Otherwise every prime is inert, N is a perfect square and
I_n = prod geom(p**n, e/2) / sqrt(N)**n.

Even n: every |pi|**n is an integer, and so is each chain of delta_n.  With
q = p**(n/2), an inert p gives geom(p**n, e/2), a ramified p geom(q, e) and a
split p geom(q, a) * geom(q, e - a), where a is the smaller exponent on the
two primes above p; I_n is the product over N**(n/2).  A split p with e >= 2
thus offers one factor per a, and each choice of a gives one value.

This arithmetic only flags a norm where some value is an integer t >= 2;
abundancy.index_n decides every element of a flagged norm.  Three audits
abort the scan: an inert prime with an odd norm exponent, an element count
per norm other than the product of (split exponent + 1), and exact integer
indices at a flagged norm other than the flagged values (every choice of a
is held by some element).
"""

from __future__ import annotations

import math

import numpy as np

from .abundancy import index_n
from .ring import QuadInt, ring
from .splitting import SplitClass, _classify, primes_up_to


class InternalInconsistency(RuntimeError):
    """An exact invariant failed; the scan (or a theorem check) found a bug."""


def _geom(q: int, k: int) -> int:
    """1 + q + ... + q**k."""
    return (q ** (k + 1) - 1) // (q - 1)


def _prime_entry(d: int, p: int, e: int, n: int):
    """(element-count multiplier, chain factors) for prime p at norm exponent e.

    The factors are the possible values of p's divisor chain in delta_n, one
    per profile a = 0..e//2 for a split prime; None means the chain is
    irrational.  An inert p with odd e has no elements and returns None.
    """
    # p comes from the sieve, so skip the primality validation layer.
    cls = _classify(d, p)
    if cls is SplitClass.INERT:
        return None if e & 1 else (1, (_geom(p**n, e >> 1),))
    mult = 1 if cls is SplitClass.RAMIFIED else e + 1
    if n & 1:
        return mult, None
    q = p ** (n >> 1)
    if cls is SplitClass.RAMIFIED:
        return mult, (_geom(q, e),)
    return mult, tuple(_geom(q, a) * _geom(q, e - a) for a in range(e // 2 + 1))


def _coords(d: int, lo: int, hi: int):
    """Doubled coordinates and norms of every canonical element with norm in [lo, hi).

    4N = x*x + |d|*y*y with x = y (mod 2), and y is even unless d = 1 (mod 4).
    The sector keeps y >= 0 and x > 0 on the real axis and for d = -1, x > y
    for d = -3, and both signs of x above the axis otherwise.
    """
    D = -d
    LO, HI = 4 * lo, 4 * (hi - 1)
    xs_parts = [np.empty(0, dtype=np.int64)]
    ys_parts = [np.empty(0, dtype=np.int64)]
    for y in range(0, math.isqrt(HI // D) + 1, 1 if d % 4 == 1 else 2):
        rem_lo = LO - D * y * y
        x_lo = 0 if rem_lo <= 0 else math.isqrt(rem_lo - 1) + 1
        x_hi = math.isqrt(HI - D * y * y)
        if y == 0 or d == -1:
            x_lo = max(x_lo, 1)
        elif d == -3:
            x_lo = max(x_lo, y + 1)
        x_lo += (x_lo ^ y) & 1
        if x_lo > x_hi:
            continue
        arr = np.arange(x_lo, x_hi + 1, 2, dtype=np.int64)
        if y and d not in (-1, -3):
            arr = np.concatenate((arr, -arr[arr > 0]))
        xs_parts.append(arr)
        ys_parts.append(np.full(arr.size, y, dtype=np.int64))
    xs = np.concatenate(xs_parts)
    ys = np.concatenate(ys_parts)
    return xs, ys, (xs * xs + D * ys * ys) >> 2


def _max_distinct_primes(hi: int) -> int:
    prod, k = 1, 0
    for p in primes_up_to(64):
        prod *= p
        k += 1
        if prod > hi:
            return k
    raise ValueError(f"bound {hi} too large for the factor sieve")


def _factor_segment(lo: int, hi: int):
    """Factor every integer in [lo, hi): (primes, exponents, count) row per value."""
    width = hi - lo
    maxf = _max_distinct_primes(hi)
    ptype = np.int32 if hi <= 2**31 else np.int64
    res = np.arange(lo, hi, dtype=np.int64)
    cnt = np.zeros(width, dtype=np.int8)
    fp = np.zeros((width, maxf), dtype=ptype)
    fe = np.zeros((width, maxf), dtype=np.int8)
    for p in primes_up_to(math.isqrt(max(hi - 1, 1))):
        start = (-lo) % p
        if start >= width:
            continue
        idx = np.arange(start, width, p, dtype=np.int64)
        col = cnt[idx]
        fp[idx, col] = p
        fe[idx, col] = 1
        res[idx] //= p
        pk = p * p
        while pk < hi:
            s2 = (-lo) % pk
            if s2 >= width:
                break
            idx2 = np.arange(s2, width, pk, dtype=np.int64)
            fe[idx2, cnt[idx2]] += 1
            res[idx2] //= p
            pk *= p
        cnt[idx] += 1
    big = np.nonzero(res > 1)[0]
    fp[big, cnt[big]] = res[big]
    fe[big, cnt[big]] = 1
    cnt[big] += 1
    return fp, fe, cnt


def scan_shard(d: int, n: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """Elements with norm in [lo, hi) whose n-index is an integer t >= 2.

    Returns (x, y, t) triples in doubled coordinates, ordered by norm.
    """
    if n < 1:
        raise ValueError("scan expects a positive power n")
    ctx = ring(d)
    xs, ys, ns = _coords(d, lo, hi)
    if ns.size == 0:
        return []
    uniq, counts = np.unique(ns, return_counts=True)
    fp, fe, fc = _factor_segment(lo, hi)
    rows = (uniq - lo).astype(np.int64)
    FP = fp[rows].tolist()
    FE = fe[rows].tolist()
    FC = fc[rows].tolist()
    del fp, fe, fc, rows

    uniq_l = uniq.tolist()
    counts_l = counts.tolist()
    entries: dict[int, tuple] = {}
    hits: list[tuple[int, int, int]] = []

    for i, N in enumerate(uniq_l):
        ps = FP[i]
        es = FE[i]
        count_pred = 1
        rational = True
        value = 1
        choices: list[tuple[int, ...]] = []
        for j in range(FC[i]):
            p = ps[j]
            e = es[j]
            key = (p << 8) | e
            c = entries.get(key)
            if c is None:
                c = _prime_entry(d, p, e, n)
                if c is None:
                    raise InternalInconsistency(
                        f"inert prime {p} with odd exponent {e} in norm {N} (d={d})"
                    )
                entries[key] = c
            mult, factors = c
            count_pred *= mult
            if factors is None:
                rational = False
            elif len(factors) == 1:
                value *= factors[0]
            else:
                choices.append(factors)
        if count_pred != counts_l[i]:
            raise InternalInconsistency(
                f"norm {N} (d={d}): {counts_l[i]} elements enumerated, {count_pred} predicted"
            )
        if not rational:
            continue
        # Only inert primes remain for odd n, so N is a perfect square.
        denom = math.isqrt(N) ** n if n & 1 else N ** (n >> 1)
        if not choices and (value < 2 * denom or value % denom):
            continue  # the common case, ruled out without building a set
        values = [value]
        for factors in choices:
            values = [v * f for v in values for f in factors]
        want = {v // denom for v in values if v >= 2 * denom and v % denom == 0}
        if not want:
            continue

        # Rare path: the exact index decides every element of this norm.
        exact = set()
        for k in np.nonzero(ns == N)[0].tolist():
            z = QuadInt._raw(d, int(xs[k]), int(ys[k]))
            v = index_n(ctx, z, n).value
            if v.is_rational() and v.as_fraction().denominator == 1:
                t = int(v.as_fraction())
                exact.add(t)
                hits.append((z.x, z.y, t))
        if exact != want:
            raise InternalInconsistency(
                f"norm {N} (d={d}): scan flagged I_{n} in {sorted(want)}, "
                f"exact index gives {sorted(exact)}"
            )
    return hits


def scan_shard_task(args) -> tuple[int, int, list[tuple[int, int, int]]]:
    """Pool-friendly wrapper: args = (d, n, lo, hi)."""
    d, n, lo, hi = args
    return lo, hi, scan_shard(d, n, lo, hi)
