"""Independent reference implementations the tests check the library against.

Nothing here goes through factor_element or the multiplicative divisor-sum
path: divisors come from coordinate scans plus exact division, and square
roots are reduced by direct trial division.  SurdSum is used only as an
accumulator (dict merges), never as a computation shortcut.  Prime classes
come from sympy's quadratic-residue test, not from the library's Euler criterion.
"""

from __future__ import annotations

import math
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


def abs_power_surd(norm_w: int, n: int) -> SurdSum:
    """|w|**n = sqrt(norm_w)**n as an exact surd."""
    k, odd = divmod(n, 2)
    coeff = Fraction(norm_w) ** k
    if not odd:
        return SurdSum({1: coeff})
    c, r = sqrt_reduced(norm_w)
    return SurdSum({r: coeff * c})


def brute_delta(z: QuadInt, n: int) -> SurdSum:
    """Divisor-power sum straight from the definition: sum |w|**n over divisors."""
    total = SurdSum()
    for w in divisors_by_candidate_norms(z):
        total = total + abs_power_surd(w.norm(), n)
    return total


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
