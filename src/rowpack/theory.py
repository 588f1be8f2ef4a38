"""Closed-form results: two-row thresholds, waste constants, convergents.

The two-row inequalities compare the area of a two-row hexagonal packing
against the square grid holding the same circles; both sides live in the
exact ring, so the threshold m = 7 (n >= 14) is proved, not estimated.

The waste model charges (2 - sqrt(3))/2 of uncovered area per unit of
top/bottom wall and 1/2 per unit of side wall; balancing the two gives the
limiting height-to-width ratio a/b = 2 - sqrt(3) for large hexagonal optima.

The recurrence v_{k+2} = 4 v_{k+1} - v_k with a_k = 2 v_{k+1} - v_k and
b_k = 2 v_k produces the alternate convergents a_k / b_k -> sqrt(3) + 3/2;
at N(k) = a_k * b_k the class optimum is the plain a_k x b_k hex block.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Literal

from . import search
from .packings import ClassConfig, RowPattern
from .quadint import QuadInt

Parity = Literal["odd", "even"]


def two_row_beats_square(m: int, parity: Parity) -> bool:
    """Exact test that the two-row hex packing beats the square grid.

    odd  (n = 2m+1):  2(m+1)(2 + sqrt(3)) < 4(2m + 1)
    even (n = 2m):    (2m+1)(2 + sqrt(3)) < 8m
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if parity == "odd":
        lhs = QuadInt(4 * (m + 1), 2 * (m + 1))
        rhs = QuadInt(4 * (2 * m + 1), 0)
    elif parity == "even":
        lhs = QuadInt(2 * (2 * m + 1), 2 * m + 1)
        rhs = QuadInt(8 * m, 0)
    else:
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    return (lhs - rhs).sign() < 0


def smallest_two_row_m() -> int:
    """Smallest m for which both two-row inequalities hold (= 7)."""
    m = 1
    while not (two_row_beats_square(m, "odd") and two_row_beats_square(m, "even")):
        m += 1
    return m


@dataclass(frozen=True, slots=True)
class WasteConstants:
    s_triangle: float   # uncovered area per curved triangle: sqrt(3) - pi/2
    a: float            # waste per unit of top/bottom wall: (2 - sqrt(3))/2
    b: float            # waste per unit of side wall: 1/2
    limit_ratio: float  # a/b = 2 - sqrt(3)

    def to_json(self) -> dict:
        return {
            "s_triangle": self.s_triangle,
            "a": self.a,
            "b": self.b,
            "limit_ratio": self.limit_ratio,
        }


def waste_constants() -> WasteConstants:
    r3 = math.sqrt(3.0)
    return WasteConstants(
        s_triangle=r3 - math.pi / 2.0,
        a=(2.0 - r3) / 2.0,
        b=0.5,
        limit_ratio=2.0 - r3,
    )


def reference_densities() -> dict[str, float]:
    return {"square": math.pi / 4.0, "hex": math.pi / (2.0 * math.sqrt(3.0))}


@dataclass(frozen=True, slots=True)
class ConvergentEntry:
    k: int
    v_k: int
    a_k: int
    b_k: int
    N_k: int

    def to_json(self) -> dict:
        return {"k": self.k, "v": self.v_k, "a": self.a_k, "b": self.b_k, "N": self.N_k}


def convergents(k_max: int) -> list[ConvergentEntry]:
    """Entries (k, v_k, a_k, b_k, N_k) for k = 1..k_max.

    N_k has about 1.14 k digits.  The first N_k that this interpreter cannot
    print (more than sys.get_int_max_str_digits() digits, 4300 by default,
    from k = 3760) is a ValueError naming the largest k that prints, so a
    k_max past it fails as fast as that one; a limit of 0 lifts the check.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    digits = getattr(sys, "get_int_max_str_digits", int)()  # int() = 0: no limit
    too_long = 10 ** digits if digits else math.inf
    out = []
    v_k, v_next = 1, 4  # v_1 and v_2
    for k in range(1, k_max + 1):
        a_k, b_k = 2 * v_next - v_k, 2 * v_k
        n_k = a_k * b_k
        if n_k >= too_long:
            raise ValueError(f"N_{k} has more than {digits} digits, which this interpreter "
                             f"does not print (sys.set_int_max_str_digits); "
                             f"the largest k that prints is {k - 1}")
        out.append(ConvergentEntry(k=k, v_k=v_k, a_k=a_k, b_k=b_k, N_k=n_k))
        v_k, v_next = v_next, 4 * v_next - v_k
    return out


@dataclass(frozen=True, slots=True)
class ConvergentCheck:
    k: int
    n: int
    regular: bool
    contains_block: bool

    @property
    def ok(self) -> bool:
        return self.regular and self.contains_block


def verify_convergent_regularity(k: int) -> ConvergentCheck:
    """Check whether best(N_k) is Regular with the full a_k x b_k hex block.

    Returns the verdict (`ConvergentCheck.ok`) rather than raising on a
    failure.  The claim starts at k = 2: N(1) = 14 is a genuine
    counterexample, where the five-by-three short-offset packing beats the
    7 x 2 block.
    """
    if k < 2:
        raise ValueError("convergent regularity holds for k >= 2 only")
    entry = convergents(k)[-1]
    result = search.best(entry.N_k)
    block = ClassConfig(w=entry.a_k, h=entry.b_k, pattern=RowPattern.FULL)
    return ConvergentCheck(
        k=k,
        n=entry.N_k,
        regular=result.classification is search.Classification.REGULAR,
        contains_block=block in result.argmin,
    )
