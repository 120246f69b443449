"""Norm-bounded enumeration of canonical elements with exact integer-index detection.

A shard covers a norm interval [lo, hi).  Candidate coordinates come from the
box |x| <= 2*sqrt(hi), |y| <= 2*sqrt(hi/|d|) filtered by the sector rules, so
each canonical element in the interval is produced exactly once.  The interval
is factored wholesale with a segmented sieve.  Then a numpy filter keeps the
few distinct norms that may hold an integer index, the exact arithmetic
decides those, and three audits abort the scan when an invariant fails.

The index is I_n(z) = prod over pi**a exactly dividing z of
sum(|pi|**(-j*n), j = 0..a); write geom(q, k) = 1 + q + ... + q**k and
S(x, k) = 1 + x + ... + x**k.

Filter.  The distinct primes of the shard are classified in one step by
Euler's criterion, an int64 square-and-multiply; p = 2, and every p above
isqrt(2**63 - 1) where a product of two residues would wrap, go to the scalar
splitting._classify.  The rest works one factor column at a time.

- Odd n: over a split or ramified p, |pi| = sqrt(p) and the chains of the
  primes above p multiply to A + B*sqrt(p) with A, B > 0.  In the product,
  the coefficient of the square root of all such primes together is a
  product of positive B's that nothing cancels, as square roots of distinct
  squarefree integers are linearly independent: the norm holds no integer
  index.  A norm is a candidate when all its primes are inert.
- Even n: with q = p**(n/2), an inert p contributes S(p**-n, e/2) to I_n, a
  ramified p S(1/q, e), and a split p S(1/q, a) * S(1/q, e - a), where a is
  the smaller exponent on the two primes above p.  Expanded, the split factor
  is sum(c_s * q**-s, s = 0..e) with c_s = 1 + min(s, a, e - s), which grows
  with a, so a = e//2 gives the largest index R of any element of the norm.
  The filter computes R in float64 and keeps a norm when R >= 2*(1 - tau) and
  either R lies within tau*R of an integer or the norm has a split prime
  with e >= 2 (several profiles, whose values R alone does not separate).

Why tau = 1e-9 is safe.  Let u = 2**-53 and grant numpy's power 4 ulp.
Each x = p**-m (m = n or n/2, so x <= 2**-m <= 1/2) then carries a relative
error of at most 5*u (one more for rounding p to a float), so an absolute
error below 2.5*u, and x**(k+1) an absolute error below 4.5*u.
S(x, k) = (1 - x**(k+1)) / (1 - x) divides two values >= 1/2 whose absolute
errors stay below 5*u and 3*u, so S is off by a relative 17*u at most, a
prime's factor (two S and a product) by 35*u, and R, one more product per
prime, by 36*u*omega(N): below 3.3e-14 for N < 1e8 (omega <= 8) and 6e-14 for
any N < 2**63 (omega <= 15).  So an element with integer index t >= 2 leaves
the float R at least 2*(1 - tau), and when its norm has a single profile,
within t*6e-14 < tau*R of t: the filter never drops it.

Decide.  At a candidate norm the exact chains are multiplied out in plain
integers: odd n has I_n = prod geom(p**n, e/2) / sqrt(N)**n, even n one value
prod(chains) / N**(n/2) per choice of a for each split p with e >= 2.  When
some value is an integer t >= 2, abundancy.index_n decides every element of
the norm.

Audits.  Three checks abort the scan: an inert prime with an odd norm
exponent, an element count per norm other than the product of (split
exponent + 1), and exact integer indices at a flagged norm other than the
flagged values (every choice of a is held by some element).  The first two
run vectorized over every distinct norm of the shard.
"""

from __future__ import annotations

import math

import numpy as np

from .abundancy import index_n
from .ring import QuadInt, ring
from .splitting import SplitClass, _classify, primes_up_to

# Class codes of _classify_primes; _CLASSES[code] is the SplitClass.
_INERT, _RAMIFIED, _SPLIT = 0, 1, 2
_CLASSES = (SplitClass.INERT, SplitClass.RAMIFIED, SplitClass.SPLIT)
# Above this p the product of two residues mod p can wrap in int64.
_EULER_MAX = math.isqrt(2**63 - 1)
# Relative tolerance of the even-n float filter (derivation above).
_TAU = 1e-9


class InternalInconsistency(RuntimeError):
    """An exact invariant failed; the scan (or a theorem check) found a bug."""


def _geom(q: int, k: int) -> int:
    """1 + q + ... + q**k."""
    return (q ** (k + 1) - 1) // (q - 1)


def _prime_entry(code: int, p: int, e: int, n: int) -> tuple[int, ...]:
    """The possible values of p's divisor chain in delta_n at norm exponent e.

    One value per profile a = 0..e//2 for a split prime, one otherwise.  Only
    candidate norms get here: every inert e is even, and for odd n every
    prime is inert.
    """
    if code == _INERT:
        return (_geom(p**n, e >> 1),)
    q = p ** (n >> 1)
    if code == _RAMIFIED:
        return (_geom(q, e),)
    return tuple(_geom(q, a) * _geom(q, e - a) for a in range(e // 2 + 1))


def _classify_primes(d: int, primes: np.ndarray) -> np.ndarray:
    """Class codes (_INERT, _RAMIFIED, _SPLIT) of an array of primes.

    Odd p up to _EULER_MAX take Euler's criterion, d**((p-1)/2) mod p by
    square-and-multiply in int64; p = 2 and larger p take splitting._classify.
    """
    p = primes.astype(np.int64)
    codes = np.empty(p.size, dtype=np.int8)
    fast = (p > 2) & (p <= _EULER_MAX)
    pf = p[fast]
    base = d % pf
    ramified = base == 0
    k = (pf - 1) >> 1
    r = np.ones_like(pf)
    while k.any():
        r = np.where(k & 1 == 1, r * base % pf, r)
        base = base * base % pf
        k >>= 1
    codes[fast] = np.where(ramified, _RAMIFIED, np.where(r == 1, _SPLIT, _INERT))
    for i in np.nonzero(~fast)[0].tolist():
        codes[i] = _CLASSES.index(_classify(d, int(p[i])))
    return codes


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


def _geom_ratio(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """S(x, k) = 1 + x + ... + x**k elementwise, for 0 <= x <= 1/2."""
    return (1.0 - x ** (k + 1)) / (1.0 - x)


def _filter(d: int, n: int, lo: int, hi: int, uniq: np.ndarray, counts: np.ndarray):
    """Audit the distinct norms uniq of [lo, hi) and flag those that may hold an integer index.

    counts[i] is the number of elements of norm uniq[i].  Returns the
    candidates as (norm, [(p, e, class code), ...]) in increasing norm.
    """
    fp, fe, fc = _factor_segment(lo, hi)
    rows = uniq - lo
    nf = fc[rows]
    cols = range(int(nf.max()))
    P = [fp[rows, j] for j in cols]
    E = [fe[rows, j] for j in cols]
    del fp, fe, fc, rows
    valid = [nf > j for j in cols]

    # Classify each distinct prime once; entries past a norm's last prime stay
    # inert with e = 0, which no audit or test below can see.
    primes, inverse = np.unique(
        np.concatenate([np.zeros(0, np.int64)] + [P[j][valid[j]] for j in cols]),
        return_inverse=True,
    )
    codes = _classify_primes(d, primes)[inverse]
    C = []
    start = 0
    for j in cols:
        c = np.full(uniq.size, _INERT, dtype=np.int8)
        stop = start + int(np.count_nonzero(valid[j]))
        c[valid[j]] = codes[start:stop]
        start = stop
        C.append(c)
    del primes, inverse, codes

    predicted = np.ones(uniq.size, dtype=np.int64)
    for j in cols:
        bad = (C[j] == _INERT) & (E[j] & 1 == 1)
        if bad.any():
            i = int(np.argmax(bad))
            raise InternalInconsistency(
                f"inert prime {P[j][i]} with odd exponent {E[j][i]} in norm {uniq[i]} (d={d})"
            )
        predicted *= np.where(C[j] == _SPLIT, E[j].astype(np.int64) + 1, 1)
    bad = predicted != counts
    if bad.any():
        i = int(np.argmax(bad))
        raise InternalInconsistency(
            f"norm {uniq[i]} (d={d}): {counts[i]} elements enumerated, {predicted[i]} predicted"
        )

    if n & 1:
        keep = np.ones(uniq.size, dtype=bool)
        for j in cols:
            keep &= C[j] == _INERT
    else:
        R = np.ones(uniq.size)
        multi = np.zeros(uniq.size, dtype=bool)
        with np.errstate(under="ignore"):
            for j in cols:
                idx = np.nonzero(valid[j])[0]
                c = C[j][idx]
                e = E[j][idx].astype(np.int64)
                inert = c == _INERT
                x = P[j][idx].astype(np.float64) ** np.where(inert, -n, -(n >> 1))
                a = np.where(c == _RAMIFIED, e, e >> 1)
                b = np.where(c == _SPLIT, e - (e >> 1), 0)
                R[idx] *= _geom_ratio(x, a) * _geom_ratio(x, b)
                multi[idx] |= (c == _SPLIT) & (e >= 2)
        keep = (R >= 2 * (1 - _TAU)) & (multi | (np.abs(R - np.rint(R)) <= _TAU * R))

    cand = np.nonzero(keep)[0]
    Pc = [P[j][cand].tolist() for j in cols]
    Ec = [E[j][cand].tolist() for j in cols]
    Cc = [C[j][cand].tolist() for j in cols]
    return [
        (N, [(Pc[j][i], Ec[j][i], Cc[j][i]) for j in range(k)])
        for i, (N, k) in enumerate(zip(uniq[cand].tolist(), nf[cand].tolist()))
    ]


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
    hits: list[tuple[int, int, int]] = []

    for N, factors in _filter(d, n, lo, hi, uniq, counts):
        value = 1
        choices: list[tuple[int, ...]] = []
        for p, e, code in factors:
            chains = _prime_entry(code, p, e, n)
            if len(chains) == 1:
                value *= chains[0]
            else:
                choices.append(chains)
        # Only inert primes remain for odd n, so N is a perfect square.
        denom = math.isqrt(N) ** n if n & 1 else N ** (n >> 1)
        if not choices and (value < 2 * denom or value % denom):
            continue  # the common case, ruled out without building a set
        values = [value]
        for chains in choices:
            values = [v * f for v in values for f in chains]
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
