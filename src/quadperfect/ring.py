"""Exact arithmetic in the nine imaginary quadratic rings with unique factorization.

Elements of O_Q(sqrt(d)) are stored in doubled coordinates: ``QuadInt(d, x, y,
half=True)`` is the number (x + y*sqrt(d))/2.  For d = 2, 3 (mod 4) both
coordinates are even (the element is an ordinary a + b*sqrt(d)); for
d = 1 (mod 4) the coordinates share a parity, which admits the half-integer
elements of Z[(1+sqrt(d))/2].  One representation, one code path.

Element text (whitespace ignored): ``INT``, ``[INT]s``, ``INT+[INT]s``,
``INT-[INT]s``, and the half form ``(INT+[INT]s)/2`` for the rings where half
coordinates exist.  ``s`` stands for sqrt(d) of the ring in context; ``i`` is
accepted as an alias when d = -1.  An omitted coefficient means 1.  str(z)
always prints the coefficient (``2-1s``) and uses the half form exactly when
the coordinates are odd, so parse_element(d, str(z)) == z.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from operator import index

#: Negative squarefree d for which O_Q(sqrt(d)) has unique factorization.
UFD_DS = (-163, -67, -43, -19, -11, -7, -3, -2, -1)


class MixedRingError(ValueError):
    """Raised when two operands live in different rings."""


class ElementParseError(ValueError):
    """The text is not a valid element of the ring in context."""


@dataclass(frozen=True)
class RingCtx:
    """Descriptor of one ring: d and the size of its unit group."""

    d: int
    unit_count: int


@cache
def ring(d: int) -> RingCtx:
    """Return the ring descriptor for d, rejecting d outside the nine UFDs."""
    if d not in UFD_DS:
        raise ValueError(f"d={d} is not one of the nine imaginary quadratic UFDs {UFD_DS}")
    unit_count = 4 if d == -1 else 6 if d == -3 else 2
    return RingCtx(d=d, unit_count=unit_count)


def _is_element(d: int, x: int, y: int) -> bool:
    """Integrality: doubled coordinates share a parity for d = 1 (mod 4), else both are even."""
    return not ((x ^ y) if d % 4 == 1 else (x | y)) & 1


class QuadInt:
    """An element (x + y*sqrt(d))/2 of O_Q(sqrt(d)), coordinates arbitrary ints.

    Construct with integer coordinates ``QuadInt(d, a, b)`` for a + b*sqrt(d),
    or doubled coordinates ``QuadInt(d, x, y, half=True)`` for (x+y*sqrt(d))/2.
    Coordinates go through operator.index, so a float, Fraction or str raises
    TypeError.  Instances are immutable and hashable; arithmetic rejects mixed rings.
    """

    __slots__ = ("d", "x", "y")

    d: int
    x: int
    y: int

    def __init__(self, d: int, a: int, b: int = 0, *, half: bool = False) -> None:
        ring(d)
        x, y = (index(a), index(b)) if half else (2 * index(a), 2 * index(b))
        if not _is_element(d, x, y):
            raise ValueError(f"({x}{y:+d}*sqrt({d}))/2 is not an element of the ring of d={d}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __setattr__(self, name, value):
        raise AttributeError("QuadInt is immutable")

    @classmethod
    def _raw(cls, d: int, x: int, y: int) -> QuadInt:
        """Internal constructor for coordinates already known to be valid."""
        self = object.__new__(cls)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        return self

    @classmethod
    def from_int(cls, d: int, n: int) -> QuadInt:
        ring(d)
        return cls._raw(d, 2 * index(n), 0)

    def _check_ring(self, other: QuadInt) -> None:
        if self.d != other.d:
            raise MixedRingError(f"operands from d={self.d} and d={other.d}")

    def __bool__(self) -> bool:
        return (self.x | self.y) != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.x == 2 * other and self.y == 0
        if isinstance(other, QuadInt):
            return self.d == other.d and self.x == other.x and self.y == other.y
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.d, self.x, self.y))

    def __add__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            other = QuadInt.from_int(self.d, other)
        self._check_ring(other)
        return QuadInt._raw(self.d, self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __sub__(self, other: QuadInt | int) -> QuadInt:
        return self + (-other)

    def __rsub__(self, other: int) -> QuadInt:
        return (-self) + other

    def __neg__(self) -> QuadInt:
        return QuadInt._raw(self.d, -self.x, -self.y)

    def __mul__(self, other: QuadInt | int) -> QuadInt:
        if isinstance(other, int):
            return QuadInt._raw(self.d, self.x * other, self.y * other)
        self._check_ring(other)
        # (x1+y1*s)(x2+y2*s)/4 with s^2 = d; the halves are exact by parity.
        return QuadInt._raw(
            self.d,
            (self.x * other.x + self.d * self.y * other.y) // 2,
            (self.x * other.y + self.y * other.x) // 2,
        )

    __rmul__ = __mul__

    def __pow__(self, e: int) -> QuadInt:
        if e < 0:
            raise ValueError("negative powers leave the ring")
        result = QuadInt.from_int(self.d, 1)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def conj(self) -> QuadInt:
        return QuadInt._raw(self.d, self.x, -self.y)

    def norm(self) -> int:
        return (self.x * self.x - self.d * self.y * self.y) // 4

    def is_unit(self) -> bool:
        return self.norm() == 1

    def as_int(self) -> int:
        if self.y != 0:
            raise ValueError(f"{self} is not a rational integer")
        return self.x // 2

    def __str__(self) -> str:
        x, y = self.x, self.y
        if x & 1 == 0 and y & 1 == 0:
            a, b = x // 2, y // 2
            if b == 0:
                return str(a)
            if a == 0:
                return f"{b}s"
            return f"{a}{b:+d}s"
        return f"({x}{y:+d}s)/2"

    def __repr__(self) -> str:
        return f"QuadInt({self.d}, {self.x}, {self.y}, half=True)"


_INT = r"[+-]?\d+"
_COEF = r"[+-]\d*|\d*"
_FULL = re.compile(rf"^(?:({_INT})(?=[+-]|$))?(?:({_COEF})[si])?$")
_HALF = re.compile(rf"^\(({_INT})([+-]\d*)[si]\)/2$")


def _coef(text: str) -> int:
    if text in ("", "+"):
        return 1
    if text == "-":
        return -1
    return int(text)


def parse_element(d: int, text: str) -> QuadInt:
    """Parse element text for the ring of d; raises ElementParseError on bad input."""
    compact = re.sub(r"\s+", "", text)
    if not compact:
        raise ElementParseError("empty element text")
    if "i" in compact and d != -1:
        raise ElementParseError(f"'i' is only meaningful for d=-1, not d={d}")
    m = _HALF.match(compact)
    if m:
        try:
            return QuadInt(d, int(m.group(1)), _coef(m.group(2)), half=True)
        except ValueError as exc:
            raise ElementParseError(str(exc)) from None
    m = _FULL.match(compact)
    if not m or (m.group(1) is None and m.group(2) is None):
        raise ElementParseError(f"cannot parse element text {text!r}")
    a = int(m.group(1)) if m.group(1) is not None else 0
    b = _coef(m.group(2)) if m.group(2) is not None else 0
    try:
        return QuadInt(d, a, b)
    except ValueError as exc:
        raise ElementParseError(str(exc)) from None


def try_div(z: QuadInt, w: QuadInt) -> QuadInt | None:
    """Exact division in the ring: the q with q*w == z, or None if w does not divide z.

    Computed as z*conj(w)/norm(w); the quotient is in the ring exactly when
    both coordinates divide out and the parity invariant survives.
    """
    z._check_ring(w)
    nw = w.norm()
    if nw == 0:
        raise ZeroDivisionError("division by zero element")
    u = (z.x * w.x - z.d * z.y * w.y) // 2
    v = (z.y * w.x - z.x * w.y) // 2
    qx, rx = divmod(u, nw)
    if rx:
        return None
    qy, ry = divmod(v, nw)
    if ry:
        return None
    return QuadInt._raw(z.d, qx, qy) if _is_element(z.d, qx, qy) else None


@cache
def units(ctx: RingCtx) -> tuple[QuadInt, ...]:
    """The unit group: {1,-1}, plus i for d=-1 or the sixth roots of unity for d=-3."""
    d = ctx.d
    us = [QuadInt._raw(d, 2, 0), QuadInt._raw(d, -2, 0)]
    if d == -1:
        us += [QuadInt._raw(d, 0, 2), QuadInt._raw(d, 0, -2)]
    elif d == -3:
        us += [
            QuadInt._raw(d, 1, 1),
            QuadInt._raw(d, -1, -1),
            QuadInt._raw(d, -1, 1),
            QuadInt._raw(d, 1, -1),
        ]
    return tuple(us)


def in_sector(z: QuadInt) -> bool:
    """Exact membership test for the canonical half-open angular sector.

    The sector spans 2*pi/|units|: a quarter turn for d=-1, a sixth for d=-3,
    a half turn otherwise.  Decided purely by coordinate signs and one
    inequality, never by floating-point angles.
    """
    if not z:
        return False
    if z.d == -1:
        return z.x > 0 and z.y >= 0
    if z.d == -3:
        return z.x > 0 and 0 <= z.y < z.x
    return z.y > 0 or (z.y == 0 and z.x > 0)


def canonicalize(z: QuadInt) -> tuple[QuadInt, QuadInt]:
    """Split z as unit * rep with rep the unique associate inside the sector.

    Returns (unit, rep).  Zero is rejected: it has no associates.
    """
    if not z:
        raise ValueError("zero has no canonical associate")
    for u in units(ring(z.d)):
        rep = u * z
        if in_sector(rep):
            return u.conj(), rep
    raise AssertionError(f"no associate of {z!r} lies in the sector")


def is_associated(z: QuadInt, w: QuadInt) -> bool:
    """True iff z = u*w for a unit u."""
    z._check_ring(w)
    if not z or not w:
        raise ValueError("associativity is defined for nonzero elements")
    return any(u * w == z for u in units(ring(z.d)))
