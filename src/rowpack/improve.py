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
511 `may_hole` n <= 5000 have no argmin member in either family.
Improved metrics are real-valued (the shrunken widths involve nested
radicals, outside the exact ring); relocated packings may contain rattlers,
circles left free to move inside the jammed arrangement.
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


@dataclass(frozen=True, slots=True, init=False)
class ImprovementReport:
    """A move's result; built as ClassConfig is, each slot stored once through
    its member-descriptor setter."""

    move: MoveKind
    delta: float
    new_width: float
    new_area: float
    new_density: float
    rattler_note: bool
    remaining_holes: int = 0

    def __init__(self, move: MoveKind, delta: float, new_width: float, new_area: float,
                 new_density: float, rattler_note: bool, remaining_holes: int = 0) -> None:
        _set_move(self, move)
        _set_delta(self, delta)
        _set_new_width(self, new_width)
        _set_new_area(self, new_area)
        _set_new_density(self, new_density)
        _set_rattler_note(self, rattler_note)
        _set_remaining_holes(self, remaining_holes)


# Each slot's member-descriptor setter, bound once (see packings.ClassConfig)
(_set_move, _set_delta, _set_new_width, _set_new_area, _set_new_density,
 _set_rattler_note, _set_remaining_holes) = (
    ImprovementReport.__dict__[name].__set__ for name in ImprovementReport.__slots__)

# module aliases: a lookup such as RowPattern.FULL goes through the enum metaclass
_FULL = RowPattern.FULL
_SHORT_OFFSET = RowPattern.SHORT_OFFSET
_SIDE = MoveKind.ODD_H_SIDE_RELOCATION
_H5 = MoveKind.H5_SHORT_OUTER_RELOCATION
_SQRT3 = math.sqrt(3.0)


def improvement(cfg: ClassConfig) -> ImprovementReport | None:
    """Width, area and density after applying the move once (one hole used),
    or None where no published move applies.

    Requires d >= 1.  Even h has no published construction; the five-row
    case goes through the short-outer variant (the short-offset form with a
    hole is the same packing by the star-pair equivalence).
    """
    if cfg.d < 1:
        raise ValueError("improvement moves consume a monovacancy (d >= 1)")
    h, pattern = cfg.h, cfg.pattern
    if h % 2 == 0:
        return None
    if pattern is _FULL or (h == 3 and pattern is _SHORT_OFFSET):
        move, delta = _SIDE, DELTA_SIDE
    elif h == 5:
        move, delta = _H5, DELTA_H5
    else:
        return None
    new_width = cfg.width_units - delta
    p, q = cfg.height_pair
    new_area = new_width * (p + q * _SQRT3)  # QuadInt.to_float's steps, with no QuadInt
    return ImprovementReport(move, delta, new_width, new_area, cfg.n * math.pi / new_area,
                             rattler_note=True, remaining_holes=cfg.d - 1)
