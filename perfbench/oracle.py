"""Reference computations the benchmark checks the library against.

Nothing here imports quadperfect.  Elements are plain tuples (x, y) in doubled
coordinates, meaning (x + y*sqrt(d))/2, with the ring's d passed alongside.
Prime behaviour comes from Kronecker symbols of the field discriminant,
primality and divisor lists from sympy, and divisors of an element from a
coordinate scan per divisor norm plus exact division written out here.
Exact values are surd sums: dicts {squarefree radical: Fraction}.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import sympy

UFD_DS = (-1, -2, -3, -7, -11, -19, -43, -67, -163)
MERSENNE_CAP = 127


# ---------------------------------------------------------------------------
# Characters and prime behaviour.
# ---------------------------------------------------------------------------


def discriminant(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def chi(d: int, m: int) -> int:
    """Kronecker symbol (D/m) of the field discriminant D."""
    return int(sympy.kronecker_symbol(discriminant(d), m))


def is_inert(d: int, p: int) -> bool:
    return chi(d, p) == -1


@lru_cache(maxsize=None)
def _chi_prefix(d: int) -> tuple[int, ...]:
    """pre[r] = chi(1) + ... + chi(r) over one period |D| (a full period sums to 0)."""
    period = abs(discriminant(d))
    pre = [0]
    for m in range(1, period + 1):
        pre.append(pre[-1] + chi(d, m))
    if pre[-1] != 0:
        raise AssertionError(f"character of d={d} does not sum to 0 over a period")
    return tuple(pre)


def _chi_sum(d: int, x: int) -> int:
    pre = _chi_prefix(d)
    return pre[x % (len(pre) - 1)]


def ideal_count(d: int, bound: int) -> int:
    """Canonical elements with 1 <= norm <= bound: sum over k <= bound of chi(k)*floor(bound/k).

    Class number one makes every ideal principal, so this counts one element
    per associate class.  Evaluated by the Dirichlet hyperbola method in
    O(sqrt(bound)) steps.
    """
    if bound < 1:
        return 0
    u = math.isqrt(bound)
    total = sum(chi(d, m) * (bound // m) for m in range(1, u + 1))
    total += sum(_chi_sum(d, bound // k) for k in range(1, u + 1))
    return total - _chi_sum(d, u) * u


# ---------------------------------------------------------------------------
# Element arithmetic in doubled coordinates.
# ---------------------------------------------------------------------------


def norm(d: int, z) -> int:
    x, y = z
    return (x * x - d * y * y) // 4


def mul(d: int, a, b):
    return ((a[0] * b[0] + d * a[1] * b[1]) // 2, (a[0] * b[1] + a[1] * b[0]) // 2)


def power(d: int, a, e: int):
    out = (2, 0)
    for _ in range(e):
        out = mul(d, out, a)
    return out


def integral(d: int, z) -> bool:
    x, y = z
    if d % 4 == 1:
        return (x - y) % 2 == 0
    return x % 2 == 0 and y % 2 == 0


def exact_div(d: int, z, w):
    """The quotient z/w when it lies in the ring, else None."""
    nw = norm(d, w)
    u = z[0] * w[0] - d * z[1] * w[1]
    v = z[1] * w[0] - z[0] * w[1]
    # z*conj(w) in doubled coordinates is (u/2, v/2); divide by nw.
    if u % (2 * nw) or v % (2 * nw):
        return None
    q = (u // (2 * nw), v // (2 * nw))
    return q if integral(d, q) else None


def in_sector(d: int, z) -> bool:
    """The library's canonical sector: one associate of each nonzero element."""
    x, y = z
    if d == -1:
        return x > 0 and y >= 0
    if d == -3:
        return x > 0 and 0 <= y < x
    return y > 0 or (y == 0 and x > 0)


def elements_of_norm(d: int, m: int) -> list:
    """Canonical elements of norm exactly m, by a scan over the second coordinate."""
    D = -d
    target = 4 * m
    out = []
    for y in range(-math.isqrt(target // D), math.isqrt(target // D) + 1):
        rest = target - D * y * y
        x = math.isqrt(rest)
        if x * x != rest:
            continue
        for xx in {x, -x}:
            z = (xx, y)
            if (xx or y) and integral(d, z) and in_sector(d, z):
                out.append(z)
    return out


def elements_up_to(d: int, bound: int) -> dict[int, list]:
    """norm -> canonical elements, for every norm 1..bound, from one coordinate sweep."""
    D = -d
    by_norm: dict[int, list] = {}
    ymax = math.isqrt(4 * bound // D)
    for y in range(-ymax, ymax + 1):
        xmax = math.isqrt(4 * bound - D * y * y)
        for x in range(-xmax, xmax + 1):
            z = (x, y)
            if (x or y) and integral(d, z) and in_sector(d, z):
                by_norm.setdefault(norm(d, z), []).append(z)
    return by_norm


def brute_divisors(d: int, z, table: dict[int, list] | None = None) -> list:
    """Canonical divisors of z: every element whose norm divides norm(z), kept if it divides."""
    out = []
    for m in sympy.divisors(norm(d, z)):
        cands = table.get(m, ()) if table is not None else elements_of_norm(d, m)
        out.extend(w for w in cands if exact_div(d, z, w) is not None)
    return out


# ---------------------------------------------------------------------------
# Exact surd sums.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1 << 14)
def sqrt_split(m: int) -> tuple[int, int]:
    """sqrt(m) = c*sqrt(r) with r squarefree."""
    c = r = 1
    for p, e in sympy.factorint(m).items():
        c *= p ** (e // 2)
        if e & 1:
            r *= p
    return c, r


def surd_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for r, c in b.items():
        s = out.get(r, 0) + c
        if s:
            out[r] = s
        else:
            out.pop(r, None)
    return out


def surd_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for r1, c1 in a.items():
        for r2, c2 in b.items():
            g = math.gcd(r1, r2)
            r = (r1 // g) * (r2 // g)
            out[r] = out.get(r, 0) + c1 * c2 * g
    return {r: c for r, c in out.items() if c}


def abs_power(m: int, n: int, split: tuple[int, int] | None = None) -> dict:
    """sqrt(m)**n as a surd sum, for m >= 1 and any integer n.

    split, when known, is sqrt_split(m)."""
    k, odd = divmod(n, 2)
    coeff = m**k if k >= 0 else Fraction(1, m**-k)
    if not odd:
        return {1: coeff}
    c, r = split or sqrt_split(m)
    return {r: coeff * c}


def delta_brute(d: int, z, n: int, table: dict[int, list] | None = None) -> dict:
    """sum of |w|**n over the canonical divisors w of z, from the definition."""
    total: dict = {}
    for w in brute_divisors(d, z, table):
        total = surd_add(total, abs_power(norm(d, w), n))
    return total


def delta_from_parts(d: int, parts, n: int) -> dict:
    """The same sum from a verified factorization: prod over (pi, e) of sum_j |pi|**(j*n).

    Each part's norm is a prime p or the square q*q of an inert prime, so
    sqrt(norm) is sqrt(p) or q.
    """
    total = {1: 1}
    for pi, e in parts:
        npi = norm(d, pi)
        q = math.isqrt(npi)
        split = (q, 1) if q * q == npi else (1, npi)
        chain: dict = {}
        for j in range(e + 1):
            chain = surd_add(chain, abs_power(npi, j * n, split))
        total = surd_mul(total, chain)
    return total


def norm_sqrt_split(d: int, parts) -> tuple[int, int]:
    """sqrt_split of the norm of the element with these verified parts."""
    exps: dict[int, int] = {}
    for pi, e in parts:
        npi = norm(d, pi)
        exps[npi] = exps.get(npi, 0) + e
    c = r = 1
    for m, e in exps.items():
        q = math.isqrt(m)
        if q * q == m:
            c *= q**e
        else:
            c *= m ** (e // 2)
            r *= m if e & 1 else 1
    return c, r


def index_from_delta(d: int, z, n: int, delta: dict) -> dict:
    """I_n(z) = delta_n(z) / |z|**n."""
    return surd_mul(delta, abs_power(norm(d, z), -n))


def index_brute(d: int, z, n: int, table: dict[int, list] | None = None) -> dict:
    return index_from_delta(d, z, n, delta_brute(d, z, n, table))


def integer_value(s: dict) -> int | None:
    """The integer a surd sum equals, or None."""
    if not s:
        return 0
    if set(s) != {1} or s[1].denominator != 1:
        return None
    return int(s[1])


# ---------------------------------------------------------------------------
# Factorization checks.
# ---------------------------------------------------------------------------


def is_prime_element(d: int, pi) -> bool:
    """Prime norm p (p not inert), or norm q*q with q an inert prime and pi = q."""
    m = norm(d, pi)
    if sympy.isprime(m):
        return not is_inert(d, m)
    q = math.isqrt(m)
    return q * q == m and sympy.isprime(q) and is_inert(d, q) and pi == (2 * q, 0)


def factorization_problem(d: int, z, unit, parts) -> str | None:
    """Why unit * prod(pi**e) is not a factorization of z into canonical primes, or None."""
    if norm(d, unit) != 1:
        return f"unit {unit} has norm {norm(d, unit)}"
    seen = set()
    acc = unit
    for pi, e in parts:
        if e < 1:
            return f"exponent {e} on {pi}"
        if pi in seen or not in_sector(d, pi):
            return f"part {pi} repeated or not canonical"
        seen.add(pi)
        if not is_prime_element(d, pi):
            return f"part {pi} (norm {norm(d, pi)}) is not prime"
        acc = mul(d, acc, power(d, pi, e))
    if acc != tuple(z):
        return f"parts multiply to {acc}, not {tuple(z)}"
    return None


# ---------------------------------------------------------------------------
# Expected search results.
# ---------------------------------------------------------------------------


def expected_t_perfect(d: int, t: int, bound: int) -> list[int]:
    """Integers r with r*r <= bound, sigma(r) = t*r and every prime factor inert."""
    out = []
    for r in range(1, math.isqrt(bound) + 1):
        if sympy.divisor_sigma(r) != t * r:
            continue
        if all(is_inert(d, p) for p in sympy.primefactors(r)):
            out.append(r)
    return out


def expected_mersenne(d: int, p_max: int = MERSENNE_CAP) -> list[int]:
    """Even perfect 2**(p-1)*(2**p-1), p <= p_max, whose primes 2 and 2**p-1 are both inert."""
    out = []
    if not is_inert(d, 2):
        return out
    for p in sympy.primerange(2, p_max + 1):
        m = (1 << p) - 1
        if sympy.isprime(m) and is_inert(d, m):
            out.append((1 << (p - 1)) * m)
    return out


def integer_index_elements(d: int, bound: int, ns, ts) -> dict:
    """(n, t) -> canonical elements of norm <= bound whose n-index is exactly t.

    Integer arithmetic only: |w|**n = m**k * c*sqrt(r) for n = 2k+1 and
    norm(w) = m = c*c*r, so the divisor sum is an integer per radical.
    """
    table = elements_up_to(d, bound)
    out = {(n, t): [] for n in ns for t in ts}
    for m in sorted(table):
        cz, rz = sqrt_split(m)
        for z in table[m]:
            norms = [norm(d, w) for w in brute_divisors(d, z, table)]
            for n in ns:
                k = n // 2
                if n % 2 == 0:
                    total, rem = divmod(sum(mw**k for mw in norms), m**k)
                    t = total if not rem else None
                else:
                    by_rad: dict[int, int] = {}
                    for mw in norms:
                        c, r = sqrt_split(mw)
                        by_rad[r] = by_rad.get(r, 0) + mw**k * c
                    t = None
                    if set(by_rad) == {rz}:
                        total, rem = divmod(by_rad[rz], m**k * cz)
                        t = total if not rem else None
                if t in ts:
                    out[(n, t)].append(z)
    return out


# ---------------------------------------------------------------------------
# Known values the oracle must reproduce before it is trusted.
# ---------------------------------------------------------------------------


def self_check() -> None:
    """Raise AssertionError unless the oracle reproduces published values."""
    z = (18, 6)  # 9 + 3i
    assert integer_value(delta_brute(-1, z, 2)) == 180, "delta_2(9+3i) != 180"
    assert integer_value(index_brute(-1, z, 2)) == 2, "I_2(9+3i) != 2"
    for r in (28, 8128):
        assert integer_value(index_brute(-11, (2 * r, 0), 1)) == 2, f"{r} not perfect in d=-11"
    assert expected_t_perfect(-11, 2, 8128**2) == [28, 8128]
    # Norm-1 elements: one associate class.
    for d in UFD_DS:
        assert ideal_count(d, 1) == 1
