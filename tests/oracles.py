"""Independent reference implementations the tests check the library against.

Nothing here goes through factor_element or the multiplicative divisor-sum
path: divisors come from coordinate scans plus exact division, and square
roots are reduced by direct trial division.  Sums add coefficients in a
plain dict and become one SurdSum at the end; no SurdSum operator is used.
Prime classes come from sympy's quadratic-residue test, not from the
library's Euler criterion.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, defaultdict
from fractions import Fraction

import sympy

from quadperfect import QuadInt, SplitClass, SurdSum, in_sector, try_div


def elements_with_norm(d: int, m: int) -> list[QuadInt]:
    """All canonical elements of norm exactly m, by direct coordinate scan."""
    D = -d
    out = []
    target = 4 * m
    ymax = math.isqrt(target // D)
    for y in range(-ymax, ymax + 1):
        rest = target - D * y * y
        x = math.isqrt(rest)
        if x * x != rest:
            continue
        for xx in {x, -x}:
            if d % 4 == 1:
                if (xx ^ y) & 1:
                    continue
            elif (xx | y) & 1:
                continue
            if xx == 0 and y == 0:
                continue
            z = QuadInt(d, xx, y, half=True)
            if in_sector(z):
                out.append(z)
    return out


def coords_by_rows(d: int, lo: int, hi: int) -> list[tuple[int, int, int]]:
    """(x, y, N) in doubled coordinates for every canonical element with norm in [lo, hi).

    One row y at a time, with math.isqrt bounding x, and the sector of
    in_sector written out: y >= 0; x > 0 on the real axis and for d = -1;
    x > y for d = -3; both signs of x above the axis otherwise.
    """
    D = -d
    LO, HI = 4 * lo, 4 * (hi - 1)
    out = []
    for y in range(0, math.isqrt(HI // D) + 1, 1 if d % 4 == 1 else 2):
        rem_lo = LO - D * y * y
        x_lo = 0 if rem_lo <= 0 else math.isqrt(rem_lo - 1) + 1
        x_hi = math.isqrt(HI - D * y * y)
        if y == 0 or d == -1:
            x_lo = max(x_lo, 1)
        elif d == -3:
            x_lo = max(x_lo, y + 1)
        x_lo += (x_lo ^ y) & 1
        row = list(range(x_lo, x_hi + 1, 2))
        if y and d not in (-1, -3):
            row += [-x for x in row if x > 0]
        out.extend((x, y, (x * x + D * y * y) // 4) for x in row)
    return out


def canonical_elements_up_to(d: int, bound: int) -> list[QuadInt]:
    out: list[QuadInt] = []
    for m in range(1, bound + 1):
        out.extend(elements_with_norm(d, m))
    return out


def divisors_by_candidate_norms(z: QuadInt) -> list[QuadInt]:
    """Canonical divisors of z: try every canonical element whose norm divides norm(z).

    Uses only norm multiplicativity (w | z forces norm(w) | norm(z)), the
    coordinate scan above, and exact division.
    """
    n = z.norm()
    out = []
    for m in range(1, n + 1):
        if n % m:
            continue
        for w in elements_with_norm(z.d, m):
            if try_div(z, w) is not None:
                out.append(w)
    out.sort(key=lambda w: (w.norm(), w.x, w.y))
    return out


def divisors_by_full_scan(z: QuadInt) -> list[QuadInt]:
    """The literal oracle: every canonical w with norm(w) <= norm(z), tested by division."""
    out = [w for w in canonical_elements_up_to(z.d, z.norm()) if try_div(z, w) is not None]
    out.sort(key=lambda w: (w.norm(), w.x, w.y))
    return out


def brute_deltas(d: int, bound: int, ns) -> dict[tuple[int, int], list[SurdSum]]:
    """sum(|w|**n) over the canonical divisors w of z, for every canonical z of
    norm <= bound and every n in ns, keyed by z's doubled coordinates (x, y).

    The elements are listed once, by coords_by_rows, and bucketed by norm; z
    is tried for exact division only by the buckets whose norm divides
    norm(z).  Each sum adds coefficients in a dict and becomes one SurdSum.
    """
    ns = list(ns)
    bucket: dict[int, list[QuadInt]] = defaultdict(list)
    for x, y, m in coords_by_rows(d, 1, bound + 1):
        bucket[m].append(QuadInt(d, x, y, half=True))
    divisor_norms: dict[int, list[int]] = defaultdict(list)
    for k in sorted(bucket):
        for m in range(k, bound + 1, k):
            divisor_norms[m].append(k)
    out = {}
    for m, zs in bucket.items():
        for z in zs:
            counts = Counter(
                k for k in divisor_norms[m] for w in bucket[k] if try_div(z, w) is not None
            )
            out[(z.x, z.y)] = _power_sums(tuple(sorted(counts.items())), tuple(ns))
    return out


def power_sum(counts, n: int) -> SurdSum:
    """sum(c * sqrt(k)**n) over the (k, c) pairs in counts, added up in a dict."""
    terms: dict[int, Fraction] = defaultdict(Fraction)
    for k, c in counts:
        r, coeff = abs_power_term(k, n)
        terms[r] += c * coeff
    return SurdSum(terms)


@functools.cache
def _power_sums(counts: tuple[tuple[int, int], ...], ns: tuple[int, ...]) -> list[SurdSum]:
    """power_sum(counts, n) for each n in ns."""
    return [power_sum(counts, n) for n in ns]


def sqrt_reduced(m: int) -> tuple[int, int]:
    """sqrt(m) = c * sqrt(r) with r squarefree, by trial division."""
    c = r = 1
    rem = m
    f = 2
    while f * f <= rem:
        e = 0
        while rem % f == 0:
            rem //= f
            e += 1
        c *= f ** (e // 2)
        if e & 1:
            r *= f
        f += 1
    if rem > 1:
        r *= rem
    return c, r


@functools.cache
def abs_power_term(norm_w: int, n: int) -> tuple[int, Fraction]:
    """|w|**n = sqrt(norm_w)**n = coeff * sqrt(r), r squarefree, as the pair (r, coeff)."""
    k, odd = divmod(n, 2)
    coeff = Fraction(norm_w) ** k
    if not odd:
        return 1, coeff
    c, r = sqrt_reduced(norm_w)
    return r, coeff * c


def brute_delta(z: QuadInt, n: int) -> SurdSum:
    """Divisor-power sum straight from the definition: sum |w|**n over divisors."""
    return power_sum(((w.norm(), 1) for w in divisors_by_candidate_norms(z)), n)


def exponents_by_division(z: QuadInt) -> dict[QuadInt, int]:
    """The exponent of every canonical prime element dividing z != 0, by repeated exact division.

    The primes of norm(z) come from sympy; the prime elements above p are the
    canonical elements of norm p (coordinate scan, so p should be small), or
    p itself when there are none (p inert).  Each exponent is counted by
    dividing z again and again; the content of z is never read.
    """
    out = {}
    for p in sympy.primefactors(z.norm()):
        for pi in elements_with_norm(z.d, p) or [QuadInt.from_int(z.d, p)]:
            a, w = 0, z
            while (q := try_div(w, pi)) is not None:
                w, a = q, a + 1
            if a:
                out[pi] = a
    return out


def delta_by_division(z: QuadInt, ns) -> list[SurdSum]:
    """sum(|w|**n) over the canonical divisors w of z, for each n in ns.

    Each divisor is one product of powers pi**j, j <= exponent, of the prime
    elements of exponents_by_division (unique factorization), so the divisor
    norms are listed from those exponents and summed as in brute_deltas.
    """
    norms = [1]
    for pi, a in exponents_by_division(z).items():
        norms = [m * pi.norm() ** j for m in norms for j in range(a + 1)]
    return _power_sums(tuple(sorted(Counter(norms).items())), tuple(ns))


def sympy_class(d: int, p: int) -> SplitClass:
    """How the prime p behaves in the ring of discriminant-class d, by sympy."""
    if p == 2:
        # 2 ramifies when it divides the discriminant (d = 2, 3 mod 4), else
        # splits exactly when d = 1 (mod 8).
        if d % 4 != 1:
            return SplitClass.RAMIFIED
        return SplitClass.SPLIT if d % 8 == 1 else SplitClass.INERT
    if d % p == 0:
        return SplitClass.RAMIFIED
    return SplitClass.SPLIT if sympy.is_quad_residue(d % p, p) else SplitClass.INERT


def _geom(q: int, k: int) -> int:
    return sum(q**j for j in range(k + 1))


def flagged_norms(d: int, n: int, factored) -> set[int]:
    """Norms that may hold an integer n-index t >= 2, decided one norm at a time.

    factored yields (m, {p: e}) pairs.  A norm with an inert prime of odd
    exponent holds no element.  For odd n a split or ramified prime leaves an
    irrational index; otherwise every prime is inert and the index is
    prod(geom(p**n, e/2)) / m**(n/2).  For even n, with q = p**(n/2), an inert
    p gives geom(p**n, e/2), a ramified p geom(q, e) and a split p
    geom(q, a) * geom(q, e - a) for any a in 0..e//2; a norm is flagged when
    some choice of the a makes prod / m**(n/2) an integer >= 2.
    """
    out = set()
    for m, fac in factored:
        classes = {p: sympy_class(d, p) for p in fac}
        if any(c is SplitClass.INERT and fac[p] & 1 for p, c in classes.items()):
            continue
        if n & 1 and any(c is not SplitClass.INERT for c in classes.values()):
            continue
        values = [1]
        for p, e in fac.items():
            c = classes[p]
            if c is SplitClass.INERT:
                chains = [_geom(p**n, e // 2)]
            elif c is SplitClass.RAMIFIED:
                chains = [_geom(p ** (n // 2), e)]
            else:
                q = p ** (n // 2)
                chains = [_geom(q, a) * _geom(q, e - a) for a in range(e // 2 + 1)]
            values = [v * f for v in values for f in chains]
        denom = math.isqrt(m) ** n if n & 1 else m ** (n // 2)
        if any(v >= 2 * denom and v % denom == 0 for v in values):
            out.add(m)
    return out


def profiles_divide(d: int, n: int, fac: dict[int, int]) -> bool:
    """For even n, whether m**(n/2) divides prod(M_q) over the primes of m = prod(p**e).

    M_q is the product of p's divisor chain over every exponent profile, with
    q = p**(n/2): geom(p**n, e/2) for an inert p, geom(q, e) for a ramified
    p, and prod(geom(q, a) * geom(q, e - a), a = 0..e//2) for a split p.  An
    element of norm m with an integer n-index has its chain product divide
    that of the norm, so m**(n/2) must divide it.
    """
    m = math.prod(p**e for p, e in fac.items())
    product = 1
    for p, e in fac.items():
        c = sympy_class(d, p)
        q = p ** (n // 2)
        if c is SplitClass.INERT:
            product *= _geom(p**n, e // 2)
        elif c is SplitClass.RAMIFIED:
            product *= _geom(q, e)
        else:
            product *= math.prod(_geom(q, a) * _geom(q, e - a) for a in range(e // 2 + 1))
    return product % m ** (n // 2) == 0
