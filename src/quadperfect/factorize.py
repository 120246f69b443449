"""Factor ring elements into canonical primes and enumerate divisors up to associates.

The factorization of z is driven by the integer factorization of norm(z):
an inert prime q contributes q to the power of half its norm exponent, a
ramified p its prime element to the full norm exponent.  A split p of norm
exponent e has z = p**k * w, k the content valuation (the largest k with
p**k | z, so 2k <= e), and w is divisible by at most one of pi and its
conjugate: they carry k and e - k, and one exact division of w by pi says
which.  norm_profile stops before that division and builds no element.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import reduce

from .ring import QuadInt, RingCtx, _is_element, canonicalize, is_associated, try_div
from .splitting import SplitClass, _classify, _prime_above, factor_integer, is_probable_prime


@dataclass(frozen=True)
class ElementFactorization:
    """unit * product(pi**e) == the factored element, parts canonical and sorted."""

    d: int
    unit: QuadInt
    parts: tuple[tuple[QuadInt, int], ...]

    def value(self) -> QuadInt:
        return reduce(lambda acc, pe: acc * pe[0] ** pe[1], self.parts, self.unit)


def _part_key(part: tuple[QuadInt, int]) -> tuple[int, int, int]:
    pi = part[0]
    return (pi.norm(), pi.x, pi.y)


def _norm_primes(ctx: RingCtx, z: QuadInt) -> Iterator[tuple[int, SplitClass, int, int]]:
    """(p, class, e, k) for each p**e of N(z); k is the content valuation of a split p, else 0."""
    if z.d != ctx.d:
        raise ValueError(f"element of d={z.d} passed with ring d={ctx.d}")
    if not z:
        raise ValueError("zero has no factorization")
    for p, e in factor_integer(z.norm()).factors:
        cls = _classify(ctx.d, p)  # p is a prime: no second primality test
        if cls is SplitClass.INERT and e & 1:
            raise AssertionError(f"inert {p} with odd norm exponent {e} in {z!r}")
        k, x, y = 0, z.x, z.y
        # p**(k+1) | z when p divides both doubled coordinates and the quotient
        # keeps the ring's parity rule, which only p = 2 (split at d = -7) can break.
        while cls is SplitClass.SPLIT and x % p == 0 and y % p == 0:
            x, y = x // p, y // p
            if not _is_element(ctx.d, x, y):
                break
            k += 1
        yield p, cls, e, k


def norm_profile(ctx: RingCtx, z: QuadInt) -> list[tuple[int, int]]:
    """(N(pi), e) for each part pi**e of factor_element(ctx, z), without element arithmetic."""
    out = []
    for p, cls, e, k in _norm_primes(ctx, z):
        if cls is SplitClass.SPLIT:
            out += [(p, a) for a in (k, e - k) if a]
        else:  # an inert prime is p itself, of norm p*p
            out.append((p * p, e // 2) if cls is SplitClass.INERT else (p, e))
    return out


def factor_element(ctx: RingCtx, z: QuadInt) -> ElementFactorization:
    """Unique factorization of z != 0 as a unit times canonical prime powers."""
    parts: list[tuple[QuadInt, int]] = []
    for p, cls, e, k in _norm_primes(ctx, z):
        if cls is SplitClass.INERT:
            parts.append((QuadInt.from_int(ctx.d, p), e // 2))
        elif cls is SplitClass.RAMIFIED:
            parts.append((_prime_above(ctx.d, p), e))
        else:
            pi = _prime_above(ctx.d, p)
            w = QuadInt._raw(ctx.d, z.x // p**k, z.y // p**k)  # z / p**k
            a = e - k if try_div(w, pi) is not None else k
            if a:
                parts.append((pi, a))
            if a < e:
                parts.append((canonicalize(pi.conj())[1], e - a))
    parts.sort(key=_part_key)
    product = reduce(lambda acc, pe: acc * pe[0] ** pe[1], parts, QuadInt.from_int(ctx.d, 1))
    unit = try_div(z, product)
    if unit is None or not unit.is_unit():
        raise AssertionError(f"factorization of {z!r} does not reassemble")
    return ElementFactorization(ctx.d, unit, tuple(parts))


def is_prime_element(pi: QuadInt) -> bool:
    """Norm test for primality: prime norm, or the square of an inert prime it is
    associated to."""
    if not pi:
        return False
    n = pi.norm()
    if n == 1:
        return False
    if is_probable_prime(n):
        return True
    q = math.isqrt(n)
    return (
        q * q == n
        and is_probable_prime(q)
        and _classify(pi.d, q) is SplitClass.INERT
        and is_associated(pi, QuadInt.from_int(pi.d, q))
    )


def rho(pi: QuadInt, z: QuadInt) -> int:
    """The largest k with pi**k dividing z (pi must be a prime element, z != 0)."""
    if not z:
        raise ValueError("rho is undefined at zero")
    if not is_prime_element(pi):
        raise ValueError(f"{pi} is not a prime element")
    k, w = 0, z
    while (q := try_div(w, pi)) is not None:
        w, k = q, k + 1
    return k


def divisors_up_to_associates(f: ElementFactorization) -> list[QuadInt]:
    """All canonical divisors, one per associate class, ordered by (norm, x, y)."""
    divs = [QuadInt.from_int(f.d, 1)]
    for pi, e in f.parts:
        powers = [pi**j for j in range(e + 1)]
        divs = [w * pw for w in divs for pw in powers]
    reps = [canonicalize(w)[1] for w in divs]
    reps.sort(key=lambda w: (w.norm(), w.x, w.y))
    return reps
