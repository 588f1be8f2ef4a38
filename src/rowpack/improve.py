"""Monovacancy improvement moves.

Two moves beat a class optimum that contains a hole, in closed form, each
by relocating a side circle into the vacancy and rearranging its
neighbours along the side, which shrinks the rectangle width by a small
positive delta.  They cover these families only:

* side relocation, for odd h with all rows full, or h = 3 with short
  offset rows: DELTA_SIDE = 2 - sqrt(2*sqrt(3)) ~= 0.13879;
* the five-row variant, for h = 5 with short rows, acting on the
  short-outer form:
  DELTA_H5 = 2 - sqrt(3)/2 - 3^(1/4)*(2*sqrt(3)-1)/(2*sqrt(4-sqrt(3)))
  ~= 0.05728.

`improvement(cfg)` applies the move that fits a holed member.  Every other
holed shape (even h, h = 3 with short outer rows, or odd h >= 7 with short
rows) gets None, and nothing here shows that it can be beaten: 506 of the
511 `may_hole` n <= 5000 have no argmin member in either family.  A report
is the move and the member it was applied to: its delta, width, area,
density and remaining holes are derived from the two, so it cannot disagree
with its member.  The improved metrics are real-valued (the shrunken widths
involve nested radicals, outside the exact ring).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .packings import ClassConfig, RowPattern


# width reductions of the two moves, in radii
DELTA_SIDE = 2.0 - math.sqrt(2.0 * math.sqrt(3.0))
DELTA_H5 = (2.0 - 0.5 * math.sqrt(3.0) - 3.0 ** 0.25 * (2.0 * math.sqrt(3.0) - 1.0)
            / (2.0 * math.sqrt(4.0 - math.sqrt(3.0))))


class MoveKind(Enum):
    ODD_H_SIDE_RELOCATION = "odd_h_side_relocation"
    H5_SHORT_OUTER_RELOCATION = "h5_short_outer_relocation"


# module aliases: a lookup such as RowPattern.FULL goes through the enum metaclass
_FULL = RowPattern.FULL
_SHORT_OFFSET = RowPattern.SHORT_OFFSET
_SIDE = MoveKind.ODD_H_SIDE_RELOCATION
_H5 = MoveKind.H5_SHORT_OUTER_RELOCATION
_DELTA = {_SIDE: DELTA_SIDE, _H5: DELTA_H5}
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True, slots=True)
class ImprovementReport:
    """`move` applied once to `member`, using one of its holes."""

    move: MoveKind
    member: ClassConfig

    # Every relocation may leave rattlers, circles free to move inside the
    # jammed arrangement, so the note is a constant of the type.
    rattler_note = True

    @property
    def delta(self) -> float:
        return _DELTA[self.move]

    @property
    def new_width(self) -> float:
        return self.member.width_units - _DELTA[self.move]

    @property
    def new_area(self) -> float:
        p, q = self.member.height_pair
        return self.new_width * (p + q * _SQRT3)  # QuadInt.to_float's steps, with no QuadInt

    @property
    def new_density(self) -> float:
        return self.member.n * math.pi / self.new_area

    @property
    def remaining_holes(self) -> int:
        return self.member.d - 1


def improvement(cfg: ClassConfig) -> ImprovementReport | None:
    """`ImprovementReport(move, cfg)` for the published move that fits `cfg`,
    applied once (one hole used), or None where no published move applies.

    Requires d >= 1.  Even h has no published construction; the five-row
    case goes through the short-outer variant (the short-offset form with a
    hole is the same packing by the star-pair equivalence).
    """
    if cfg.d < 1:
        raise ValueError("improvement moves consume a monovacancy (d >= 1)")
    h, pattern = cfg.h, cfg.pattern
    if h % 2 and (pattern is _FULL or (h == 3 and pattern is _SHORT_OFFSET)):
        return ImprovementReport(_SIDE, cfg)
    if h == 5:
        return ImprovementReport(_H5, cfg)
    return None
