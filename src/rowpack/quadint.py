"""Exact arithmetic on numbers of the form p + q*sqrt(3) with integer p, q.

Every rectangle width, height and area produced by the row-packing class
lives in this ring, so area minima and ties are decided bit-exactly, never
through floating point.  Because sqrt(3) is irrational the representation
is unique: two values are equal iff both components match.

Python integers are arbitrary precision, so the products used by the sign
test cannot overflow, whatever the size of the components.  The search's
float filter (see rowpack.search) assumes only that the values it converts
have p, q >= 0 and lie below the float range (about 1.8e308); their floats
are then within a few ulp of the exact values, relative to those values,
at any component size.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True, slots=True, init=False)
class QuadInt:
    """p + q*sqrt(3).  Immutable; safe for unrestricted concurrent use.

    A component that is not an int (a float or bool is not read as one) is a
    one-line ValueError: the ring, and so `sign`, is exact on ints only.
    """

    p: int
    q: int

    def __init__(self, p: int, q: int) -> None:
        if not (type(p) is type(q) is int):
            raise ValueError(f"p and q must be ints, got {p!r} and {q!r}")
        _set_p(self, p)
        _set_q(self, q)

    # ring arithmetic ------------------------------------------------------

    def __add__(self, other: "QuadInt") -> "QuadInt":
        return QuadInt(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "QuadInt") -> "QuadInt":
        return QuadInt(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "QuadInt":
        return QuadInt(-self.p, -self.q)

    def __mul__(self, other: "QuadInt | int") -> "QuadInt":
        if isinstance(other, QuadInt):
            # (p1 + q1*r)(p2 + q2*r) with r^2 = 3
            return QuadInt(
                self.p * other.p + 3 * self.q * other.q,
                self.p * other.q + self.q * other.p,
            )
        return QuadInt(self.p * other, self.q * other)

    __rmul__ = __mul__

    # ordering -------------------------------------------------------------

    def sign(self) -> int:
        """Sign of the real value p + q*sqrt(3), computed exactly."""
        return sign(self.p, self.q)

    def __lt__(self, other: "QuadInt") -> bool:
        return (self - other).sign() < 0

    def __le__(self, other: "QuadInt") -> bool:
        return (self - other).sign() <= 0

    def __gt__(self, other: "QuadInt") -> bool:
        return (self - other).sign() > 0

    def __ge__(self, other: "QuadInt") -> bool:
        return (self - other).sign() >= 0

    # conversions ----------------------------------------------------------

    def to_float(self) -> float:
        """Double-precision value; error is at most a few ulp."""
        return self.p + self.q * _SQRT3

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        return f"QuadInt({self.p}, {self.q})"

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        return f"{self.p}{self.q:+d}*sqrt(3)"


# Each slot's member-descriptor setter, bound once: it stores the slot of a
# frozen instance at about half the cost of object.__setattr__, which the
# generated __init__ of a frozen dataclass calls once per field.
_set_p, _set_q = (QuadInt.__dict__[name].__set__ for name in QuadInt.__slots__)


def sign(p: int, q: int) -> int:
    """-1, 0 or +1: the exact sign of p + q*sqrt(3) for integers p, q.

    For mixed component signs, p + q*sqrt(3) and p^2 - 3q^2 have the
    same sign when p > 0, opposite when p < 0; p^2 = 3q^2 is impossible
    for nonzero integers.  The search compares areas held as plain
    integer pairs through this function, without building QuadInts.
    """
    if p >= 0 and q >= 0:
        return 1 if p or q else 0
    if p <= 0 and q <= 0:
        return -1
    if p > 0:  # q < 0
        return 1 if p * p > 3 * q * q else -1
    # p < 0, q > 0
    return 1 if 3 * q * q > p * p else -1


ZERO = QuadInt(0, 0)
ONE = QuadInt(1, 0)
SQRT3 = QuadInt(0, 1)
