"""How integer primes behave in each ring, plus the rational-integer factorizer.

One table per ring decides how every prime behaves, whatever its size.  Let
D be the discriminant: |D| = |d| for d = 1 (mod 4), 4|d| otherwise.  A prime
p ramifies exactly when it divides D.  Since each ring has class number one,
any other p splits exactly when it is the norm of an element.  The norm
residues prime to D, those of x*x - d*y*y for 0 <= x < |D| and y in {0, 1},
form the kernel of the character (D/.) mod |D|, and that character gives the
class of every p not dividing D, p = 2 included.  So the class of p is the
table's entry at p mod |D|.  Non-inert primes carry a degree-one prime
element above them, constructed by Cornacchia's algorithm seeded with a
Tonelli-Shanks square root.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

from .ring import UFD_DS, QuadInt, RingCtx, canonicalize, ring

_TRIAL_LIMIT = 1 << 11

# The widest prime table primes_up_to builds: a scan below 2**52 asks for at
# most 2**26, about 260 MB at its peak.
_TABLE_MAX = 1 << 26


class SplitClass(Enum):
    INERT = "inert"
    RAMIFIED = "ramified"
    SPLIT = "split"


# Class codes of the residue tables; _CLASSES[code] is the SplitClass.
_INERT, _RAMIFIED, _SPLIT = 0, 1, 2
_CLASSES = (SplitClass.INERT, SplitClass.RAMIFIED, SplitClass.SPLIT)


def _residue_classes(d: int) -> tuple[int, bytes]:
    """(|D|, the class code of every residue mod |D|), as the module docstring derives."""
    D = -d if d % 4 == 1 else -4 * d
    norms = {(x * x - d * y * y) % D for x in range(D) for y in (0, 1)}
    return D, bytes(
        _RAMIFIED if math.gcd(r, D) > 1 else _SPLIT if r in norms else _INERT for r in range(D)
    )


_RESIDUE_CLASSES = {d: _residue_classes(d) for d in UFD_DS}


class IntegerFactorization(NamedTuple):
    """A complete prime factorization of n, primes strictly increasing."""

    n: int
    factors: tuple[tuple[int, int], ...]


@lru_cache(maxsize=8)  # a scan's shards reuse one table per power of two
def primes_up_to(limit: int) -> tuple[int, ...]:
    """Every prime up to limit, for a limit in 0..2**26."""
    if not 0 <= limit <= _TABLE_MAX:
        raise ValueError(f"primes_up_to takes a limit in 0..2**26; got {limit}")
    sieve = bytearray([1]) * (limit + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(range(i * i, limit + 1, i)))
    return tuple(compress(range(limit + 1), sieve))


_TRIAL_PRIMES = primes_up_to(_TRIAL_LIMIT)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin: deterministic witness set below 2**64, 40 rounds seeded by n above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = ((d & -d).bit_length()) - 1
    d >>= s
    if n < 1 << 64:
        witnesses = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    else:
        rng = random.Random(n)
        witnesses = tuple(rng.randrange(2, n - 1) for _ in range(40))
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (Brent's cycle variant)."""
    rng = random.Random(n)
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _iroot(m: int, k: int) -> int:
    """The largest r with r**k <= m, by integer Newton steps from above."""
    r = 1 << -(-m.bit_length() // k)
    while True:
        s = ((k - 1) * r + m // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _perfect_root(m: int) -> tuple[int, int] | None:
    """(r, k) with r**k == m for a prime k, when m has every prime factor above _TRIAL_LIMIT.

    With 2**b <= _TRIAL_LIMIT, such an m exceeds 2**(b*k) when it is a k-th
    power, so k <= m.bit_length() // b.
    """
    for k in primes_up_to(m.bit_length() // (_TRIAL_LIMIT.bit_length() - 1)):
        r = _iroot(m, k)
        if r**k == m:
            return r, k
    return None


@lru_cache(maxsize=1 << 10)  # a decision chain factors the same norms back to back
def factor_integer(n: int) -> IntegerFactorization:
    """Factor n >= 1: trial division by the primes up to _TRIAL_LIMIT, then Brent rho.

    A cofactor below p*p is 1 or prime.  One that outlasts the table is
    certified by Miller-Rabin, replaced by its root if a perfect power (rho
    would need about sqrt(p) steps for p**k), or split by rho.
    """
    if n < 1:
        raise ValueError("factor_integer wants a positive integer")
    found: dict[int, int] = {}
    rem = n
    for p in _TRIAL_PRIMES:
        if p * p > rem:
            if rem > 1:  # no prime up to its square root divides it
                found[rem] = 1
            break
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            found[p] = e
    else:
        stack = [(rem, 1)] if rem > 1 else []  # (cofactor, multiplicity)
        while stack:
            m, mult = stack.pop()
            if is_probable_prime(m):
                found[m] = found.get(m, 0) + mult
                continue
            root = _perfect_root(m)
            if root is not None:
                stack.append((root[0], mult * root[1]))
                continue
            f = _brent_rho(m)
            stack += [(f, mult), (m // f, mult)]
    return IntegerFactorization(n, tuple(sorted(found.items())))


def _classify(d: int, p: int) -> SplitClass:
    """The class of p, which the caller knows to be prime."""
    D, table = _RESIDUE_CLASSES[d]
    return _CLASSES[table[p % D]]


def classify_prime(ctx: RingCtx, p: int) -> SplitClass:
    """Inert, ramified, or split behavior of the integer prime p in the ring."""
    if p < 2 or not is_probable_prime(p):
        raise ValueError(f"{p} is not an integer prime")
    return _classify(ctx.d, p)


def sqrt_mod(a: int, p: int) -> int | None:
    """Tonelli-Shanks: the root r of r*r = a (mod p) with 0 <= r <= (p-1)//2.

    Returns None when a is a quadratic nonresidue; p must be an odd prime.
    """
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i = 1
        t2i = t * t % p
        while t2i != 1:
            t2i = t2i * t2i % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def _cornacchia(D: int, m: int, a: int, b: int) -> tuple[int, int] | None:
    """Descend the Euclid chain from (a, b) toward a solution of x*x + D*y*y = m."""
    limit = math.isqrt(m)
    while b > limit:
        a, b = b, a % b
    c, rem = divmod(m - b * b, D)
    if rem:
        return None
    t = math.isqrt(c)
    if t * t != c:
        return None
    return b, t


def prime_above(ctx: RingCtx, p: int) -> QuadInt:
    """The canonical prime element of norm p over a ramified or split prime p.

    Split odd primes go through Cornacchia: a*a + |d|*b*b = p in integer
    coordinates when d = 2, 3 (mod 4), or x*x + |d|*y*y = 4p in half
    coordinates when d = 1 (mod 4) (seed parity forces the odd square root).
    Inert primes are rejected: no element has norm p there.
    """
    cls = classify_prime(ctx, p)
    if cls is SplitClass.INERT:
        raise ValueError(f"{p} is inert for d={ctx.d}: no element of norm {p} exists")
    return _prime_above(ctx.d, p)


@lru_cache(maxsize=1 << 8)
def _prime_above(d: int, p: int) -> QuadInt:
    if p == 2:
        cand = {
            -1: QuadInt(-1, 1, 1),
            -2: QuadInt(-2, 0, 1),
            -7: QuadInt(-7, 1, 1, half=True),
        }[d]
        return canonicalize(cand)[1]
    if d % p == 0:
        # Odd ramified p equals |d| (each |d| here is 1, 2, or prime).
        return canonicalize(QuadInt(d, 0, 1))[1]
    root = sqrt_mod(d, p)
    assert root is not None, f"split prime {p} has no root of {d}"
    if d % 4 == 1:
        # Solve x^2 + |d|y^2 = 4p over the parity-locked half coordinates:
        # lift the seed to the odd root, run the chain from (2p, seed).
        x0 = root if root & 1 else p - root
        sol = _cornacchia(-d, 4 * p, 2 * p, x0)
    else:
        sol = _cornacchia(-d, p, p, root) or _cornacchia(-d, p, p, p - root)
    assert sol is not None, f"no norm-{p} element for d={d}"
    return canonicalize(QuadInt(d, sol[0], sol[1], half=d % 4 == 1))[1]
