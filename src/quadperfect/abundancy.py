"""Divisor power sums, abundancy indices, and the exact surd values they take.

A divisor sum over a quadratic ring adds terms sqrt(norm)**n, so its value is
a finite rational combination of square roots of squarefree integers.
SurdSum is an exact, immutable value type for them whose one operation is
the product, for the multiplicativity checks.  By linear independence of
distinct square roots over the rationals, structural equality after
normalization is value equality, which makes "the index equals t" exact.

delta_n is multiplicative; its factor over pi**e reads only N = N(pi) and e,
which factorize.norm_profile takes from the norm's factors and z's content.
With geom(q, k) = 1 + q + ... + q**k, the chain sum(|pi|**(j*n), j = 0..e)
is, for n >= 0, geom(s**n, e) for an inert pi (N = s**2), geom(N**(n/2), e)
for even n, and geom(N**n, e//2) + N**((n-1)/2) * geom(N**n, (e-1)//2) *
sqrt(N) for odd n (_chain, in integers).  Pairing each divisor w of z with
z/w gives delta_-n(z) = delta_n(z) / |z|**n, which for n >= 1 is index_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .factorize import norm_profile
from .ring import QuadInt, RingCtx
from .splitting import factor_integer

#: Exponent cap for the public divisor-sum API; keeps term growth tame.
MAX_POWER = 64

_RationalLike = int | Fraction


class InternalInconsistency(RuntimeError):
    """An exact invariant failed; the scan (or a theorem check) found a bug."""


class SurdSum:
    """An exact finite sum of c_r * sqrt(r) over distinct squarefree r >= 1.

    A value type: radicals are squarefree positive ints, coefficients nonzero
    rationals, never floats; the radical-1 term is the rational part and the
    empty sum is zero.  Instances are immutable, and compare and hash by value
    (a rational one as its Fraction).  The one operation is SurdSum * SurdSum,
    for the multiplicativity suites; delta_n builds its values from int dicts.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, _RationalLike] | None = None) -> None:
        clean: dict[int, Fraction] = {}
        for r, c in (terms or {}).items():
            if not isinstance(r, int) or r < 1 or _squarefree_split(r) != (1, r):
                raise ValueError(f"radical {r!r} is not a squarefree positive integer")
            if isinstance(c, float):
                raise ValueError(f"coefficient {c!r} is a float, not an exact rational")
            c = Fraction(c)
            if c:
                clean[r] = c
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SurdSum is immutable")

    @classmethod
    def _raw(cls, terms: dict[int, Fraction]) -> SurdSum:
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        return self

    @classmethod
    def from_rational(cls, q: _RationalLike) -> SurdSum:
        q = Fraction(q)
        return cls._raw({1: q} if q else {})

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = SurdSum.from_rational(other)
        if isinstance(other, SurdSum):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.as_fraction() if self.is_rational() else frozenset(self._terms.items()))

    def __mul__(self, other: SurdSum) -> SurdSum:
        if not isinstance(other, SurdSum):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for r, c in other._terms.items():
            for t, v in _times_surd(self._terms, 0, c, r).items():
                out[t] = out.get(t, 0) + v
        return SurdSum._raw({t: v for t, v in out.items() if v})

    def is_rational(self) -> bool:
        return set(self._terms) <= {1}

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self._terms.get(1, Fraction(0))

    def __float__(self) -> float:
        return math.fsum(float(c) * math.sqrt(r) for r, c in self._terms.items())

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        bits: list[str] = []
        for r in sorted(self._terms):
            c = self._terms[r]
            if r == 1:
                body = str(c)
            elif c == 1:
                body = f"sqrt({r})"
            elif c == -1:
                body = f"-sqrt({r})"
            else:
                body = f"{c}*sqrt({r})"
            if not bits:
                bits.append(body)
            elif body.startswith("-"):
                bits.append(f"- {body[1:]}")
            else:
                bits.append(f"+ {body}")
        return " ".join(bits)

    def __repr__(self) -> str:
        return f"SurdSum({self._terms!r})"


def _squarefree_split(m: int) -> tuple[int, int]:
    """m = square**2 * radical with radical squarefree."""
    square = radical = 1
    for p, e in factor_integer(m).factors:
        square *= p ** (e // 2)
        if e & 1:
            radical *= p
    return square, radical


@dataclass(frozen=True)
class Index:
    """The exact abundancy index delta_n(z) / |z|**n of one element."""

    value: SurdSum
    n: int
    z_norm: int


def _geom(q: int, k: int) -> int:
    """1 + q + ... + q**k for k >= -1: k + 1 when q = 1, and 0 when k = -1."""
    if q == 1:
        return k + 1
    return (q ** (k + 1) - 1) // (q - 1)


def _chain(norm_pi: int, e: int, n: int) -> tuple[int, int]:
    """(A, B) with A + B*sqrt(norm_pi) = sum(|pi|**(j*n), j = 0..e), for n >= 0.

    norm_pi is a prime, or the square of an inert prime.
    """
    s = math.isqrt(norm_pi)
    if s * s == norm_pi:
        return _geom(s**n, e), 0
    if n & 1 == 0:
        return _geom(norm_pi ** (n >> 1), e), 0
    q = norm_pi**n
    return _geom(q, e >> 1), norm_pi ** (n >> 1) * _geom(q, (e - 1) >> 1)


def _times_surd(terms: dict, a: _RationalLike, b: _RationalLike, r: int) -> dict:
    """terms * (a + b*sqrt(r)) for rationals a, b of any sign and squarefree r.

    A coefficient that cancels to zero stays in the result.
    """
    out = {t: c * a for t, c in terms.items()} if a else {}
    if b:
        for t, c in terms.items():
            g = math.gcd(t, r)
            rad = (t // g) * (r // g)
            out[rad] = out.get(rad, 0) + c * b * g
    return out


def delta_n(ctx: RingCtx, z: QuadInt, n: int) -> SurdSum:
    """Sum of |x|**n over the divisors x of z, one divisor per associate class.

    A product of chains over the (N(pi), e) pairs of norm_profile; n may be
    any integer with |n| <= 64 (negative powers give rational-coefficient surds).
    """
    if abs(n) > MAX_POWER:
        raise ValueError(f"|n| must be at most {MAX_POWER}")
    m = abs(n)
    terms = {1: 1}
    for npi, e in norm_profile(ctx, z):
        terms = _times_surd(terms, *_chain(npi, e, m), npi)
    if n >= 0:
        return SurdSum._raw({r: Fraction(c) for r, c in terms.items()})
    nz = z.norm()
    if m & 1:  # 1/|z|**m = sqrt(nz) / nz**((m+1)/2)
        square, rad = _squarefree_split(nz)
        terms = _times_surd(terms, 0, square, rad)
    denom = nz ** ((m + 1) >> 1)
    return SurdSum._raw({r: Fraction(c, denom) for r, c in terms.items()})


def index_n(ctx: RingCtx, z: QuadInt, n: int) -> Index:
    """The exact index delta_n(z)/|z|**n, which is delta_-n(z)."""
    if n < 1:
        raise ValueError("the index is defined for positive n")
    return Index(value=delta_n(ctx, z, -n), n=n, z_norm=z.norm())


def is_n_powerfully_t_perfect(ctx: RingCtx, z: QuadInt, n: int, t: int) -> bool:
    """Exact test: does the n-th index of z equal the integer t (t >= 2)?"""
    if t < 2:
        raise ValueError("t must be an integer >= 2")
    return index_n(ctx, z, n).value == SurdSum.from_rational(t)


def classical_sigma(n: int, k: int) -> int | Fraction:
    """Sum of c**k over the positive divisors c of n (k = 0 counts divisors).

    Integer for k >= 0, Fraction for negative k, from sigma_-k(n) = sigma_k(n) / n**k.
    """
    if n < 1:
        raise ValueError("classical_sigma wants a positive integer")
    out = 1
    for p, e in factor_integer(n).factors:
        out *= _geom(p ** abs(k), e)
    return out if k >= 0 else Fraction(out, n**-k)


def classical_abundancy(n: int) -> Fraction:
    """sigma_1(n) / n, the ordinary abundancy index over the positive integers."""
    return Fraction(classical_sigma(n, 1), n)
