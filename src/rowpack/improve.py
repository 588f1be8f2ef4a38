"""Monovacancy improvement moves.

Two moves beat a class optimum that contains a hole, in closed form, each
by relocating a side circle into the vacancy and rearranging its
neighbours along the side, which shrinks the rectangle width by a small
positive delta.  They cover these families only:

* side relocation, for odd h with all rows full, or h = 3 with short
  offset rows: delta_1 = 2 - sqrt(2*sqrt(3)) ~= 0.13879;
* the five-row variant, for h = 5 with short rows, acting on the
  short-outer form:
  delta_2 = 2 - sqrt(3)/2 - 3^(1/4)*(2*sqrt(3)-1)/(2*sqrt(4-sqrt(3)))
  ~= 0.05728.

Every other holed shape (even h, h = 3 with short outer rows, or odd
h >= 7 with short rows) reports no applicable move, and nothing here shows
that it can be beaten: 506 of the 511 `may_hole` n <= 5000 have no argmin
member in either family.
Improved metrics are real-valued (the shrunken widths involve nested
radicals, outside the exact ring); relocated packings may contain rattlers,
circles left free to move inside the jammed arrangement.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .packings import ClassConfig, RowPattern


class MoveKind(Enum):
    ODD_H_SIDE_RELOCATION = "odd_h_side_relocation"
    H5_SHORT_OUTER_RELOCATION = "h5_short_outer_relocation"
    NONE = "none"


def delta_side_relocation() -> float:
    """Width reduction of the odd-h side relocation: 2 - sqrt(2*sqrt(3))."""
    return 2.0 - math.sqrt(2.0 * math.sqrt(3.0))


def delta_h5_relocation() -> float:
    """Width reduction of the five-row short-outer relocation."""
    r3 = math.sqrt(3.0)
    return 2.0 - 0.5 * r3 - 3.0 ** 0.25 * (2.0 * r3 - 1.0) / (2.0 * math.sqrt(4.0 - r3))


@dataclass(frozen=True, slots=True)
class ImprovementReport:
    move: MoveKind
    delta: float
    new_width: float
    new_area: float
    new_density: float
    rattler_note: bool
    remaining_holes: int = 0

    def to_json(self) -> dict:
        return {
            "move": self.move.value,
            "delta": self.delta,
            "new_width": self.new_width,
            "new_area": self.new_area,
            "new_density": self.new_density,
            "rattler_note": self.rattler_note,
            "remaining_holes": self.remaining_holes,
        }


def applicable_move(cfg: ClassConfig) -> MoveKind:
    """Which relocation applies to a holed configuration.

    Requires d >= 1.  Even h has no published construction; the five-row
    case goes through the short-outer variant (the short-offset form with a
    hole is the same packing by the star-pair equivalence).
    """
    if cfg.d < 1:
        raise ValueError("improvement moves consume a monovacancy (d >= 1)")
    if cfg.h % 2 == 0:
        return MoveKind.NONE
    if cfg.pattern is RowPattern.FULL:
        return MoveKind.ODD_H_SIDE_RELOCATION
    if cfg.h == 3 and cfg.pattern is RowPattern.SHORT_OFFSET:
        return MoveKind.ODD_H_SIDE_RELOCATION
    if cfg.h == 5 and cfg.pattern in (RowPattern.SHORT_OFFSET, RowPattern.SHORT_OUTER):
        return MoveKind.H5_SHORT_OUTER_RELOCATION
    return MoveKind.NONE


def improved_metrics(cfg: ClassConfig) -> ImprovementReport:
    """Width, area and density after applying the move once (one hole used)."""
    move = applicable_move(cfg)
    if move is MoveKind.NONE:
        raise ValueError(
            f"no applicable relocation for {cfg} "
            "(even h, or odd h >= 7 with short rows)"
        )
    delta = (
        delta_side_relocation()
        if move is MoveKind.ODD_H_SIDE_RELOCATION
        else delta_h5_relocation()
    )
    new_width = cfg.width_units - delta
    new_area = new_width * cfg.height().to_float()
    new_density = cfg.n * math.pi / new_area
    return ImprovementReport(
        move=move,
        delta=delta,
        new_width=new_width,
        new_area=new_area,
        new_density=new_density,
        rattler_note=True,
        remaining_holes=cfg.d - 1,
    )
