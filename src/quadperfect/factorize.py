"""Factor ring elements into canonical primes and enumerate divisors up to associates.

The factorization of z is driven by the integer factorization of norm(z):
an inert prime q contributes q to the power of half its norm exponent, a
ramified p contributes its prime element to the full norm exponent, and for a
split p the exponent of the chosen prime element is pinned down by repeated
exact division (its conjugate takes the rest).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

from .ring import QuadInt, RingCtx, canonicalize, is_associated, try_div
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


def factor_element(ctx: RingCtx, z: QuadInt) -> ElementFactorization:
    """Unique factorization of z != 0 as a unit times canonical prime powers."""
    if z.d != ctx.d:
        raise ValueError(f"element of d={z.d} passed with ring d={ctx.d}")
    if not z:
        raise ValueError("zero has no factorization")
    parts: list[tuple[QuadInt, int]] = []
    for p, e in factor_integer(z.norm()).factors:
        cls = _classify(ctx.d, p)  # p is a prime: no second primality test
        if cls is SplitClass.INERT:
            if e & 1:
                raise AssertionError(f"inert {p} with odd norm exponent {e} in {z!r}")
            parts.append((QuadInt.from_int(ctx.d, p), e // 2))
        elif cls is SplitClass.RAMIFIED:
            parts.append((_prime_above(ctx.d, p), e))
        else:
            pi = _prime_above(ctx.d, p)
            a, w = 0, z
            while a < e and (q := try_div(w, pi)) is not None:
                w, a = q, a + 1
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
