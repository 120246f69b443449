"""Norm-bounded enumeration of canonical elements with exact integer-index detection.

A shard covers a norm interval [lo, hi) with hi <= 2**52, so that its
sieve's prime table, the primes up to the power of two above sqrt(hi - 1),
stays at most 2**26 wide (about 260 MB to build) and 4*N fits in int64.
Candidate coordinates are laid out a block of rows y at a time, with
no Python loop over rows: an exact int64 square root gives each row's range
of x (x*x + |d|*y*y in [4*lo, 4*(hi - 1)]), the sector rules trim it, and
np.repeat plus one arange spell out every row, so each canonical element in
the interval is produced exactly once.  np.bincount over the norms gives the
distinct norms and their element counts.  A segmented sieve accumulates what
the filter reads for every integer of the interval.  Then a numpy filter
keeps the few distinct norms that may hold an integer index, the exact
arithmetic decides those, and three audits abort the scan when an invariant
fails.

The index is I_n(z) = prod over pi**a exactly dividing z of
sum(|pi|**(-j*n), j = 0..a); write geom(q, k) = 1 + q + ... + q**k and
S(x, k) = 1 + x + ... + x**k.

Sieve.  Only the primes p with p*p < hi are sieved, so each integer m of the
shard has at most one prime factor P above them, of exponent 1.  Each prime
power p**k < hi is walked once: its multiples, whose exponent of p goes from
k - 1 to k, take one strided update in every 1-D array as wide as the shard:
the product acc of the sieve-prime powers dividing m (so P = m // acc when
m > acc), the predicted element count prod(e + 1) over split p, the number
of inert p with an odd exponent, and for even n the float bound R below.
Everything the filter reads is multiplicative in m, so nothing keeps a list
of primes per integer.  The filter reads the arrays at the distinct norms
and folds in each norm's P.

Filter.  Primes are classified by splitting's residue table, one gather at
p mod |D| for primes of any size: the sieve primes once per shard, the
primes P once per distinct norm, the primes of the even-n survivors of the
float test once more.  The filter returns the candidate norms.

- Odd n: over a split or ramified p, |pi| = sqrt(p) and the chains of the
  primes above p multiply to A + B*sqrt(p) with A, B > 0.  In the product,
  the coefficient of the square root of all such primes together is a
  product of positive B's that nothing cancels, as square roots of distinct
  squarefree integers are linearly independent: the norm holds no integer
  index.  A norm is a candidate when all its primes are inert: once the
  count audit has passed, when its element count is 1 (a split prime makes
  it at least 2) and the ring's one ramified prime (2 if d != 1 mod 4, else
  -d) does not divide it.  An inert P fails the odd-exponent audit.
- Even n: with q = p**(n/2), an inert p contributes S(p**-n, e/2) to I_n, a
  ramified p S(1/q, e), and a split p S(1/q, a) * S(1/q, e - a), where a is
  the smaller exponent on the two primes above p.  Expanded, the split factor
  is sum(c_s * q**-s, s = 0..e) with c_s = 1 + min(s, a, e - s), which grows
  with a, so a = e//2 gives the largest index R of any element of the norm.
  From exponent k - 1 to k, one S(x, j - 1) in p's factor becomes S(x, j),
  a ratio (1 - x**(j+1)) / (1 - x**j): j = k for a ramified p, ceil(k/2)
  for a split p, k/2 for an inert p at even k (odd k leaves it).  The filter
  computes R in float64 and keeps a norm N > 1 when R >= 2*(1 - tau) (an
  integer index above 1 is at least 2) and N passes the divisibility test.
- Divisibility test, even n.  Every element of norm N has index
  prod(c_q) / N**(n/2), with c_q = geom(p**n, e/2) for an inert p,
  geom(q, e) for a ramified p and geom(q, a) * geom(q, e - a) for a split p
  with profile a.  Each c_q divides M_q, the product of c_q over every
  profile a = 0..e//2 (M_q = c_q when the prime has one profile), so an
  integer index forces N**(n/2) to divide prod(M_q).  One check covers
  every profile.  One trial division of the float test's survivors, which
  tests the entries left against a block of sieve primes at a time, gives
  the exponents; the product is taken mod N**(n/2) in int64 when n = 2 and
  N < 2**31, so no product of two residues leaves int64, and in Python
  integers otherwise.

Why tau = 1e-9 is safe.  Let u = 2**-53 and grant pow (Python's and numpy's)
4 ulp.  Each x = p**-m (m = n or n/2, so x <= 2**-m <= 1/2) then carries a
relative error of at most 5*u (one more for rounding p to a float), so x**j
an absolute one below 2**-j * (5*j + 4)*u: 4.5*u at j = 1, 3.5*u after.  A
level's ratio divides 1 - x**(j+1) >= 3/4, off by 4.5*u, by 1 - x**j >= 1/2,
off by 5.5*u (one more for each subtraction): 6*u and 11*u relative, so with
the division and the multiply into R each level is off by 19*u at most.  An
m < 2**63 takes at most Omega(m) <= 62 levels.  The prime P above the sieve
has e = 1 and contributes 1 + P**-(n/2), one power and one sum: off by
3.5*u.  R is then off by 19*u*Omega(N) + 3.5*u, below 1.4e-13 for any
N < 2**63.  So an element with integer index t >= 2, whose norm has exact
R >= t, leaves the float R at least 2*(1 - tau): the float test never drops
it, and the divisibility test is exact.

Decide, in plain integers through the library.  An odd-n candidate is m*m
with every prime of m inert, and I_n = classical_sigma(m, n) / m**n.  For
even n, factor_integer and _classify give N's primes and classes; the exact
chains (abundancy._chain) give one value prod(chains) / N**(n/2) per choice
of a profile a for each split p.  When some value is an integer t >= 2,
abundancy.index_n decides every element of the norm.

Audits.  Three checks abort the scan: an inert prime with an odd norm
exponent, an element count per norm other than the product of (split
exponent + 1), and exact integer indices at a flagged norm other than the
flagged values (every choice of a is held by some element).  The first two
run vectorized over every distinct norm of the shard.  index_n reads each
element's profile a from its content, and the flagged values range over every
a, so the third checks the content valuation against the combinatorics of
the profiles; both sides build their chains with abundancy._chain.
"""

from __future__ import annotations

import bisect
import math
from typing import NamedTuple

import numpy as np

from .abundancy import MAX_POWER, InternalInconsistency, _chain, classical_sigma, index_n
from .ring import QuadInt, ring
from .splitting import _RESIDUE_CLASSES, SplitClass, _classify, factor_integer, primes_up_to

# Class codes of _classify_primes.
from .splitting import _INERT, _RAMIFIED, _SPLIT

# Relative tolerance of the even-n float filter (derivation above).
_TAU = 1e-9

# Rows y that _coords lays out at once, so its row arrays stay this long.
# Every shard below norm 2.6e8 fits in one block and is not concatenated.
_ROW_BLOCK = 1 << 14

# The largest hi a shard takes.  Its prime table, primes_up_to(2**26), peaks
# near 260 MB; near hi = 2**60 it would be 2**31 wide, 32 times as much.
_HI_MAX = 2**52

# Entries times primes that _trial_divide tests in one step.
_TRIAL_CELLS = 1 << 14


def _classify_primes(d: int, primes: np.ndarray) -> np.ndarray:
    """Class codes (_INERT, _RAMIFIED, _SPLIT) of an int64 array of primes."""
    D, table = _RESIDUE_CLASSES[d]
    return np.frombuffer(table, dtype=np.int8)[primes % D]


def _isqrt(v: np.ndarray) -> np.ndarray:
    """Exact floor square roots of an int64 array with 0 <= v < 2**63.

    The float root is off by at most one; both corrections stay in int64, as
    r <= isqrt(2**63 - 1) and (r + 1)**2 <= v is tested as v - r*r > 2*r.
    """
    r = np.sqrt(v.astype(np.float64)).astype(np.int64)
    r -= r * r > v
    r += v - r * r > 2 * r
    return r


def _coords(d: int, lo: int, hi: int):
    """Doubled coordinates and norms of every canonical element with norm in [lo, hi).

    4N = x*x + |d|*y*y with x = y (mod 2), and y is even unless d = 1 (mod 4).
    The sector keeps y >= 0 and x > 0 on the real axis and for d = -1, x > y
    for d = -3, and both signs of x above the axis otherwise.  Each row y
    lists its x >= 0 in increasing order, then for both signs their negatives.
    Needs 4*(hi - 1) < 2**63.
    """
    D = -d
    LO, HI = 4 * lo, 4 * (hi - 1)
    step = 1 if d % 4 == 1 else 2
    both_signs = d not in (-1, -3)
    y_end = math.isqrt(HI // D) + 1
    xs_parts, ys_parts, ns_parts = [], [], []
    for y0 in range(0, y_end, step * _ROW_BLOCK):
        y = np.arange(y0, min(y0 + step * _ROW_BLOCK, y_end), step, dtype=np.int64)
        dy = D * y * y
        x_hi = _isqrt(HI - dy)
        rem_lo = LO - dy
        x_lo = np.where(rem_lo > 0, _isqrt(np.maximum(rem_lo - 1, 0)) + 1, 0)
        if d == -3:
            np.maximum(x_lo, y + 1, out=x_lo)
        elif d == -1:
            np.maximum(x_lo, 1, out=x_lo)
        elif y0 == 0:
            x_lo[0] = max(x_lo[0], 1)  # the real axis
        x_lo += (x_lo ^ y) & 1
        # Row i holds cnt[i] values x_lo[i] + 2k; with both signs, then the
        # negatives of the positive ones, -(first + 2k) with first = x_lo,
        # or 2 when x_lo = 0 (x_hi >= 0, so cnt >= 1 there).
        cnt = np.maximum((x_hi - x_lo) // 2 + 1, 0)
        if both_signs:
            seg = np.stack((cnt, (cnt - (x_lo == 0)) * (y > 0)), axis=1).ravel()
            first = np.stack((x_lo, x_lo + 2 * (x_lo == 0)), axis=1).ravel()
            width = seg[0::2] + seg[1::2]
        else:
            seg, first, width = cnt, x_lo, cnt
        total = int(width.sum())
        if not total:
            continue
        # Element i of a segment starting at s is first + 2*(i - s).
        xs = np.arange(0, 2 * total, 2, dtype=np.int64)
        xs += np.repeat(first - 2 * (np.cumsum(seg) - seg), seg)
        if both_signs:
            np.negative(xs, out=xs, where=np.repeat(np.arange(seg.size) & 1 == 1, seg))
        ns = xs * xs
        ns += np.repeat(dy, width)
        ns >>= 2
        xs_parts.append(xs)
        ys_parts.append(np.repeat(y, width))
        ns_parts.append(ns)
    if len(xs_parts) == 1:
        return xs_parts[0], ys_parts[0], ns_parts[0]
    empty = [np.empty(0, dtype=np.int64)]
    return tuple(np.concatenate(p or empty) for p in (xs_parts, ys_parts, ns_parts))


def _norm_counts(ns: np.ndarray, lo: int, hi: int):
    """The distinct norms of ns, all in [lo, hi), increasing, and how often each occurs."""
    counts = np.bincount(ns - lo, minlength=hi - lo)
    rows = np.flatnonzero(counts)
    return rows + lo, counts[rows]


class _Sieve(NamedTuple):
    """Accumulators of one shard [lo, hi) over its sieve primes, those with p*p < hi.

    Entry i describes m = lo + i, which has at most one prime factor outside
    the sieve: m // acc[i], of exponent 1.
    """

    primes: list[int]  # the sieve primes, increasing
    acc: np.ndarray  # int64: the product of the sieve-prime powers dividing m
    count: np.ndarray  # int32: prod(e + 1) over the split sieve primes
    odd: np.ndarray  # int8: how many inert sieve primes have an odd exponent
    R: np.ndarray | None  # even n: the float bound R over the sieve primes


def _factor_segment(d: int, n: int, lo: int, hi: int) -> _Sieve:
    """Sieve [lo, hi) into the 1-D accumulators the filter reads at power n."""
    width = hi - lo
    root = math.isqrt(max(hi - 1, 1))
    # One prime table per power of two, so shards share the cached tables.
    table = primes_up_to(1 << root.bit_length())
    primes = list(table[: bisect.bisect_right(table, root)])
    codes = _classify_primes(d, np.array(primes, dtype=np.int64)).tolist()
    acc = np.ones(width, dtype=np.int64)
    count = np.ones(width, dtype=np.int32)
    odd = np.zeros(width, dtype=np.int8)
    R = None if n & 1 else np.ones(width)
    for p, code in zip(primes, codes):
        x = float(p) ** -(n if code == _INERT else n >> 1)
        # Level k: the multiples of p**k, whose exponent of p goes from k - 1 to k.
        k, pk = 1, p
        while pk < hi and (s := -lo % pk) < width:
            acc[s::pk] *= p
            if code == _SPLIT:  # the factor k of count becomes k + 1
                if k > 1:
                    count[s::pk] //= k
                count[s::pk] *= k + 1
            elif code == _INERT:  # adds 1 for an odd exponent, 0 for an even one
                odd[s::pk] += 1 if k & 1 else -1
            # One S(x, j - 1) of p's factor in R becomes S(x, j) (Filter, above).
            if R is not None and (code != _INERT or not k & 1):
                j = k if code == _RAMIFIED else (k + 1) >> 1
                R[s::pk] *= (1.0 - x ** (j + 1)) / (1.0 - x**j)
            k, pk = k + 1, pk * p
    return _Sieve(primes, acc, count, odd, R)


def _odd_inert_message(d: int, N: int) -> str:
    odd = [
        (p, e)
        for p, e in factor_integer(N).factors
        if e & 1 and _classify(d, p) is SplitClass.INERT
    ]
    return f"inert prime with odd exponent in norm {N} (d={d}): (p, e) = {odd}"


def _trial_divide(rem: np.ndarray, primes: list[int]):
    """Rows (i, p, e) with p**e exactly dividing rem[i], for an int64 array of
    products of the increasing primes.

    The entries left are tested against a block of primes at once, with
    blocks as long as _TRIAL_CELLS allows, so few entries take many primes
    per step.  Exponents come from repeated division of whole arrays.  After
    a block ending at P, an entry whose remainder is below P*P is 1 or a
    prime and leaves; the loop ends when no entry is left.  Sorted stably by
    i, each i's rows come in increasing p.
    """
    primes = np.asarray(primes, dtype=np.int64)
    idx, rem = np.arange(rem.size), rem.copy()
    # Empty first entries keep every concatenation below typed.
    hit_i, hit_p, hit_e = [idx[:0]], [rem[:0]], [rem[:0]]
    last_i, last_p = [idx[:0]], [rem[:0]]  # the prime, or 1, an entry leaves with
    at = 0
    while idx.size and at < primes.size:
        block = primes[at : at + max(1, _TRIAL_CELLS // idx.size)]
        at += block.size
        r, c = np.nonzero(rem[:, None] % block == 0)  # r increasing, then p
        if r.size:
            p = block[c]
            q = rem[r] // p
            e = np.ones(r.size, dtype=np.int64)
            while (more := q % p == 0).any():
                q[more] //= p[more]
                e += more
            # Divide each entry by the p**e of its rows, rem[r] // q.
            first = np.flatnonzero(np.r_[True, r[1:] != r[:-1]])
            rem[r[first]] //= np.multiply.reduceat(rem[r] // q, first)
            hit_i.append(idx[r])
            hit_p.append(p)
            hit_e.append(e)
        done = rem < block[-1] * block[-1]
        if done.any():
            last_i.append(idx[done])
            last_p.append(rem[done])
            idx, rem = idx[~done], rem[~done]
    last_i, last_p = np.concatenate(last_i), np.concatenate(last_p)
    prime = last_p > 1
    i = np.concatenate(hit_i + [last_i[prime]])
    p = np.concatenate(hit_p + [last_p[prime]])
    e = np.concatenate(hit_e + [np.ones(int(prime.sum()), dtype=np.int64)])
    return i, p, e


def _geom_array(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """geom(x, k) elementwise, for x >= 2."""
    return (x ** (k + 1) - 1) // (x - 1)


def _profiles_divide(n: int, norms: np.ndarray, i, p, e, code) -> np.ndarray:
    """For even n, whether norms[j]**(n/2) divides prod(M_q) over the primes q of norms[j].

    Rows (i, p, e, code), sorted by i, factor norms[j] as the p**e with i = j.
    M_q is q's chain product over every exponent profile (Filter, above).
    Exact: int64 when n = 2 and every norm is below 2**31, Python integers
    otherwise.
    """
    half = n >> 1
    small = n == 2 and (not norms.size or int(norms.max()) < 2**31)
    dtype = np.int64 if small else object
    # One factor per profile: a = 0..e//2 for a split p, a = 0 otherwise.
    k = np.where(code == _SPLIT, (e >> 1) + 1, 1)
    row = np.repeat(np.arange(i.size), k)
    a = np.arange(row.size) - np.repeat(np.cumsum(k) - k, k)
    inert = code[row] == _INERT
    x = p[row].astype(dtype) ** np.where(inert, n, half)
    f = _geom_array(x, a) * _geom_array(x, np.where(inert, e[row] >> 1, e[row] - a))
    c = i[row]
    mod = norms.astype(dtype) ** half
    f %= mod[c]
    # Candidate c's factors, its j-th ones for all c at once.
    rank = np.arange(c.size) - np.searchsorted(c, c)
    prod = np.ones(norms.size, dtype=dtype)
    for j in range(int(rank.max()) + 1 if rank.size else 0):
        at = rank == j
        cj = c[at]
        prod[cj] = prod[cj] * f[at] % mod[cj]
    return prod % mod == 0


def _filter(d: int, n: int, lo: int, hi: int, uniq: np.ndarray, counts: np.ndarray):
    """Audit the distinct norms uniq of [lo, hi); return those that may hold
    an integer index, as an increasing int64 array (Filter, above).

    counts[i] is the number of elements of norm uniq[i].  Odd n keeps a norm
    of count 1 that the ring's ramified prime does not divide.
    """
    sv = _factor_segment(d, n, lo, hi)
    rows = uniq - lo
    acc = sv.acc[rows]
    big = uniq // acc  # 1, or the one prime factor above the sieve
    left = np.flatnonzero(big > 1)
    big_codes = np.zeros(uniq.size, dtype=np.int8)
    big_codes[left] = _classify_primes(d, big[left])

    odd = sv.odd[rows]
    odd[left] += big_codes[left] == _INERT
    bad = odd != 0
    if bad.any():
        raise InternalInconsistency(_odd_inert_message(d, int(uniq[np.argmax(bad)])))
    predicted = sv.count[rows]
    predicted[left] *= 1 + (big_codes[left] == _SPLIT)
    bad = predicted != counts
    if bad.any():
        i = int(np.argmax(bad))
        raise InternalInconsistency(
            f"norm {uniq[i]} (d={d}): {counts[i]} elements enumerated, {predicted[i]} predicted"
        )

    if n & 1:
        ramified = 2 if d % 4 != 1 else -d
        return uniq[(counts == 1) & (uniq % ramified != 0)]

    R = sv.R[rows]
    with np.errstate(under="ignore"):
        R[left] *= 1.0 + big[left].astype(np.float64) ** -(n >> 1)
    cand = np.flatnonzero(R >= 2 * (1 - _TAU))
    # The survivors' factors: trial division of their sieve parts, then the
    # prime above the sieve.
    i, p, e = _trial_divide(acc[cand], sv.primes)
    above = np.flatnonzero(big[cand] > 1)
    i = np.concatenate((i, above))
    p = np.concatenate((p, big[cand[above]]))
    e = np.concatenate((e, np.ones(above.size, dtype=np.int64)))
    order = np.argsort(i, kind="stable")
    i, p, e = i[order], p[order], e[order]
    norms = uniq[cand]
    return norms[_profiles_divide(n, norms, i, p, e, _classify_primes(d, p))]


def scan_shard(d: int, n: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """Elements with norm in [lo, hi) whose n-index is an integer t >= 2.

    Returns (x, y, t) triples in doubled coordinates, ordered by norm.
    """
    if not 1 <= n <= MAX_POWER:
        raise ValueError(f"scan expects a power n in 1..{MAX_POWER}; got n = {n}")
    if hi > _HI_MAX:
        raise ValueError(f"scan needs hi <= 2**52 for its prime table; got hi = {hi}")
    ctx = ring(d)
    xs, ys, ns = _coords(d, lo, hi)
    if ns.size == 0:
        return []
    uniq, counts = _norm_counts(ns, lo, hi)
    hits: list[tuple[int, int, int]] = []

    for N in _filter(d, n, lo, hi, uniq, counts).tolist():
        if n & 1:  # every prime of N is inert, of even exponent: N = m*m
            m = math.isqrt(N)
            values, denom = [classical_sigma(m, n)], m**n
        else:  # one value per choice of a profile a = 0..e//2 for each split p
            values, denom = [1], N ** (n >> 1)
            for p, e in factor_integer(N).factors:
                cls = _classify(d, p)
                if cls is SplitClass.INERT:  # e is even, so the chain is rational
                    chains = [_chain(p * p, e >> 1, n)[0]]
                elif cls is SplitClass.RAMIFIED:
                    chains = [_chain(p, e, n)[0]]
                else:
                    ends = [_chain(p, a, n)[0] for a in range(e + 1)]
                    chains = [ends[a] * ends[e - a] for a in range(e // 2 + 1)]
                values = [v * f for v in values for f in chains]
        want = {v // denom for v in values if v >= 2 * denom and v % denom == 0}
        if not want:
            continue

        # Rare path: each element's exact index, read from its content, decides it.
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

