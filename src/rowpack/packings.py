"""The candidate-packing class: row-structured packings of unit circles.

A configuration has h hexagonally alternating rows topped by s square-stacked
rows, with the longest row holding w circles.  Depending on the row pattern,
some hex rows are one circle short; s_minus of the square rows may be short
too, and d interior lattice sites may be left empty (monovacancies).  Circle
count follows

    n = w*(h + s) - h_minus - s_minus - d

where `row_kinds` states each pattern's h_minus.  All lengths are in circle radii:
hex rows are sqrt(3) apart, square rows 2 apart, so widths are integers and
heights are QuadInt values (2 + 2s) + (h-1)*sqrt(3).

Geometry conventions (canonical representatives, one per congruence class):

* a single row is h=0, s=1 — never h=1;
* square grids are generated wider than tall (w >= s); the rotated twin is
  not enumerated;
* square rows always sit on top of the hex block, aligned with a full
  outermost hex row (for even h with SHORT_OFFSET the block is mirrored so
  the full outer row is the top one);
* short square rows sit outermost (top of the stack) and drop their
  rightmost circle;
* holes are rendered at canonical interior positions: middle hex row first,
  innermost positions first, never at a row end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import chain

from .quadint import QuadInt

_SQRT3 = math.sqrt(3.0)
# the largest wall overshoot or overlap depth a valid packing may show
TOL = 1e-9


class RowPattern(Enum):
    """Which hex rows are one circle short of w (the rules: `row_kinds`)."""

    FULL = "full"                  # no short rows
    SHORT_OFFSET = "short_offset"  # offset rows short
    SHORT_OUTER = "short_outer"    # outer rows short


# Module aliases: on Python 3.11 a lookup such as RowPattern.FULL goes through
# the enum metaclass and costs about 0.2 us, against 0.02 us for a global.
_FULL = RowPattern.FULL
_SHORT_OFFSET = RowPattern.SHORT_OFFSET
_SHORT_OUTER = RowPattern.SHORT_OUTER
_PATTERN_ORDER = {_FULL: 0, _SHORT_OFFSET: 1, _SHORT_OUTER: 2}


@lru_cache(maxsize=4096)
def row_kinds(h: int, square_rows: bool) -> tuple[tuple[RowPattern, bool, int, int], ...]:
    """The class's row rules, stated once: (pattern, is FULL, h_minus, full
    interior rows 1..h-2) for each pattern a block of h >= 2 hex rows may take,
    with or without square rows on top.  SHORT_OUTER needs odd h, and square
    rows on its short top row degenerate.  A mirrored SHORT_OFFSET block (even
    h under square rows, see ClassConfig._hex_row) has as many full rows."""
    kinds = [(_FULL, True, 0, h - 2), (_SHORT_OFFSET, False, h // 2, (h - 2) // 2)]
    if h % 2 == 1 and h >= 3 and not square_rows:
        kinds.append((_SHORT_OUTER, False, h // 2 + 1, (h - 1) // 2))
    return tuple(kinds)


def _rule_error(pattern, h: int, s: int) -> ValueError:
    """The error of a member whose pattern, h and s fit no row rule."""
    if not isinstance(pattern, RowPattern):
        return ValueError(f"pattern must be a RowPattern, got {pattern!r}")
    if h == 0:
        return ValueError("h=0 requires FULL pattern, s >= 1, d = 0 and a full square row "
                          "(s_minus < s) to set the width")
    if h < 2:
        return ValueError("h must be 0 or >= 2 (a single row is h=0, s=1)")
    return ValueError(f"{pattern} is not a row pattern of h = {h}, s = {s} (see row_kinds)")


def max_violation(pts: np.ndarray, width: float, height: float) -> float:
    """Worst wall overshoot or pair overlap depth of unit circles at centers pts.

    numpy is imported here so that `import rowpack` does not load it.

    pts is an (n, 2) array.  Sorted by x, two circles can overlap only if
    fewer than `span` places apart, where span is the most centers in any
    x window [x, x + 2]; each center is compared with its next span - 1
    successors, in O(n * span) work and O(n) memory.  The depth is
    2 - sqrt(min d^2), the same float a full pairwise minimum gives.
    A non-finite center coordinate, width or height gives math.inf: NaN
    compares false and would otherwise drop out of every max.  The sort
    puts NaN last and min/max propagate it, so the four extremes below
    are finite only if every coordinate is.
    """
    import numpy as np

    if not (math.isfinite(width) and math.isfinite(height)):
        return math.inf
    n = len(pts)
    if n == 0:
        return 0.0
    pts = pts[np.argsort(pts[:, 0], kind="stable")]
    x, y = pts[:, 0], pts[:, 1]
    x_lo, x_hi, y_lo, y_hi = x[0], x[-1], y.min(), y.max()
    if not all(map(math.isfinite, (x_lo, x_hi, y_lo, y_hi))):
        return math.inf
    worst = max(0.0, 1.0 - x_lo, x_hi - (width - 1.0), 1.0 - y_lo, y_hi - (height - 1.0))
    span = (np.searchsorted(x, x + 2.0, "right") - np.arange(n)).max()
    d2 = math.inf
    for k in range(1, span):
        d = pts[k:] - pts[:-k]
        d *= d
        d2 = min(d2, (d[:, 0] + d[:, 1]).min())
    return float(max(worst, 2.0 - math.sqrt(d2)))


@dataclass(frozen=True, slots=True)
class PackingRealization:
    """Explicit unit-circle centers inside a width x height rectangle (lengths in radii).

    Every center and hole must be an (x, y) pair: one of another length is a
    ValueError on construction.
    """

    centers: tuple[tuple[float, float], ...]
    width: float
    height: float
    holes: tuple[tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("centers", "holes"):
            if not set(map(len, getattr(self, name))) <= {2}:
                raise ValueError(f"{name} must be (x, y) pairs")

    def max_violation(self) -> float:
        """Largest constraint violation: wall overshoot or pair overlap depth."""
        import numpy as np

        n = len(self.centers)
        pts = np.fromiter(chain.from_iterable(self.centers), float, 2 * n).reshape(n, 2)
        return max_violation(pts, self.width, self.height)

    def is_valid(self) -> bool:
        """No wall overshoot or pair overlap deeper than TOL."""
        return self.max_violation() <= TOL

    def to_json(self) -> dict:
        return {
            "width": self.width,
            "height": self.height,
            "radius": 1.0,
            "centers": [[x, y] for x, y in self.centers],
            "holes": [[x, y] for x, y in self.holes],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PackingRealization":
        if float(obj.get("radius", 1.0)) != 1.0:
            raise ValueError("circles must have radius 1: all lengths are in radii")
        return cls(
            centers=tuple((float(x), float(y)) for x, y in obj["centers"]),
            width=float(obj["width"]),
            height=float(obj["height"]),
            holes=tuple((float(x), float(y)) for x, y in obj.get("holes", ())),
        )


@lru_cache(maxsize=4096)
def _exact_height(h: int, s: int) -> tuple[int, int]:
    # one tuple per height: a tuple per member slowed the census benchmark 7%
    return (2 + 2 * s, h - 1) if h else (2 * s, 0)


@dataclass(frozen=True, slots=True, init=False)
class ClassConfig:
    """One member of the search class.  Validated on construction: a count
    that is not an int (a float or bool is not read as one), a pattern that
    is not a RowPattern, or parameters outside the class, raise a ValueError.

    Three fields are derived once: n, the circle count
    w*(h + s) - h_minus - s_minus - d; width_units, the rectangle width in
    radii (2w + 1 for a full hex block, else 2w); and height_pair, the exact
    height (2 + 2s) + (h - 1)*sqrt(3), or 2s for h = 0, as the pair (p, q),
    on which density and aspect_ratio repeat QuadInt.to_float's float steps.
    Equality, hashing and repr use the six parameters only.

    A census builds one per argmin member, twice (search, then read-back), so
    construction is kept lean.  Like QuadInt and SearchResult, which a census
    also builds 10,000+ times each, this frozen dataclass is built by a
    hand-written `__init__` (`init=False`) that stores each slot once through
    its member-descriptor setter, bound at module level, where the generated
    one calls object.__setattr__ per field; an ImprovementReport, built a few
    hundred times a census, keeps the generated one.  `__init__` then calls
    `__post_init__`, the one place a member is checked and its three fields
    derived.  On Python 3.11 (shared 2-vCPU VM) a holed hex member takes
    about 1.5 us to build, against 2.3 us with the generated `__init__`; a
    lookup such as RowPattern.FULL costs 0.10 us against 0.01 us for a module
    alias.  So `__post_init__` finds the pattern by identity in the cached
    `row_kinds` entries of its (h, s > 0), which give h_minus and the hole
    capacity, and tests the pattern's type only once that lookup has failed.
    """

    w: int
    h: int
    pattern: RowPattern = RowPattern.FULL
    s: int = 0
    s_minus: int = 0
    d: int = 0
    n: int = field(init=False, repr=False, compare=False)
    width_units: int = field(init=False, repr=False, compare=False)
    height_pair: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __init__(self, w: int, h: int, pattern: RowPattern = _FULL, s: int = 0,
                 s_minus: int = 0, d: int = 0) -> None:
        _set_w(self, w)
        _set_h(self, h)
        _set_pattern(self, pattern)
        _set_s(self, s)
        _set_s_minus(self, s_minus)
        _set_d(self, d)
        self.__post_init__()

    def __post_init__(self) -> None:
        w, h, s, s_minus, d = self.w, self.h, self.s, self.s_minus, self.d
        if not (type(w) is type(h) is type(s) is type(s_minus) is type(d) is int):
            raise ValueError(f"w, h, s, s_minus and d must be ints, got {w!r}, {h!r}, "
                             f"{s!r}, {s_minus!r} and {d!r}")
        pattern = self.pattern
        if h >= 2:
            for kind in row_kinds(h, s > 0):
                if kind[0] is pattern:
                    break
            else:
                raise _rule_error(pattern, h, s)
            _, full, h_minus, full_rows = kind
        elif h == 0 and pattern is _FULL and s >= 1 and s_minus < s and d == 0:  # a square grid
            full, h_minus = True, 0
        else:
            raise _rule_error(pattern, h, s)
        if w < 1 or s < 0 or d < 0 or not (0 <= s_minus <= s):
            raise ValueError(f"bad parameters {self}")
        if w < 2 and (not full or s_minus > 0):
            raise ValueError("short rows must be nonempty (w >= 2)")
        if d > 0:
            if h < 3 or w < 3:
                raise ValueError("a monovacancy is an interior hole (h >= 3, w >= 3)")
            if d > (h - 2) * (w - 3) + full_rows:  # hole_capacity, inlined
                raise ValueError(f"{d} holes exceed interior capacity")
        n = w * (h + s) - h_minus - s_minus - d
        if n < 1:
            raise ValueError("empty configuration")
        _set_n(self, n)
        _set_width_units(self, 2 * w + 1 if h >= 2 and full else 2 * w)
        _set_height_pair(self, _exact_height(h, s))

    # counting --------------------------------------------------------------

    @property
    def h_minus(self) -> int:
        return self.w * (self.h + self.s) - self.s_minus - self.d - self.n

    def _hex_row(self, k: int) -> tuple[float, int]:
        """(x of the first center, circle count) of hex row k, 0-based bottom up."""
        if self.pattern is _FULL:
            return (1.0 if k % 2 == 0 else 2.0), self.w
        if self.pattern is _SHORT_OUTER:
            full = k % 2 == 1
        else:
            # SHORT_OFFSET: even rows full, except mirrored (odd rows full)
            # when square rows must sit on a full outer row of an even-h block.
            full = k % 2 == (1 if self.s > 0 and self.h % 2 == 0 else 0)
        return (1.0, self.w) if full else (2.0, self.w - 1)

    def hole_capacity(self) -> int:
        """Interior lattice sites: hex rows 1..h-2, row ends excluded.

        A full interior row offers w - 2 sites and a short one w - 3, so the
        count is (h-2)*(w-3) plus the full interior rows its `row_kinds` gives.
        """
        if self.h < 3 or self.w < 3:
            return 0
        for pattern, _, _, full_rows in row_kinds(self.h, self.s > 0):
            if pattern is self.pattern:
                return (self.h - 2) * (self.w - 3) + full_rows

    # exact dimensions -------------------------------------------------------

    def height(self) -> QuadInt:
        return QuadInt(*self.height_pair)

    def area(self) -> QuadInt:
        return self.height() * self.width_units

    def density(self) -> float:
        (p, q), width = self.height_pair, self.width_units
        return self.n * math.pi / (width * p + width * q * _SQRT3)

    def aspect_ratio(self) -> float:
        """height/width in canonical orientation (always <= 1)."""
        p, q = self.height_pair
        ratio = (p + q * _SQRT3) / self.width_units
        return ratio if ratio <= 1.0 else 1.0 / ratio

    # realization -------------------------------------------------------------

    def coordinates(self) -> PackingRealization:
        """Explicit centers (and hole positions) for this configuration."""
        rows: list[tuple[float, list[float]]] = []  # (y, xs) bottom-up
        w, h, s = self.w, self.h, self.s
        for k in range(h):
            x0, count = self._hex_row(k)
            rows.append((1.0 + k * _SQRT3, [x0 + 2.0 * i for i in range(count)]))
        # square rows stack on the (full) top hex row, same x alignment; a
        # square grid (h = 0) stacks them from the floor, first row at y = 1
        y_top, top_x0 = (1.0 + (h - 1) * _SQRT3, rows[-1][1][0]) if h else (-1.0, 1.0)
        for j in range(1, s + 1):
            short = j > s - self.s_minus
            count = w - 1 if short else w
            rows.append((y_top + 2.0 * j, [top_x0 + 2.0 * i for i in range(count)]))

        holes: list[tuple[float, float]] = []
        if self.d > 0:
            holes = self._hole_positions()
            hole_set = set(holes)
            rows = [(y, [x for x in xs if (x, y) not in hole_set]) for y, xs in rows]

        centers = tuple((x, y) for y, xs in rows for x in xs)
        if len(centers) != self.n:
            raise AssertionError(f"center count {len(centers)} != n {self.n} for {self}")
        return PackingRealization(
            centers=centers,
            width=float(self.width_units),
            height=self.height().to_float(),
            holes=tuple(holes),
        )

    def _hole_positions(self) -> list[tuple[float, float]]:
        mid = (self.h - 1) / 2.0
        cx = self.width_units / 2.0
        candidates: list[tuple[float, float, float, float]] = []
        for k in range(1, self.h - 1):
            x0, count = self._hex_row(k)
            for i in range(1, count - 1):  # skip row ends
                x = x0 + 2.0 * i
                candidates.append((abs(k - mid), k, abs(x - cx), x))
        candidates.sort()
        chosen = candidates[: self.d]
        return [(x, 1.0 + k * _SQRT3) for _, k, _, x in chosen]

    # ordering ----------------------------------------------------------------

    def sort_key(self) -> tuple:
        return (
            self.width_units,
            _PATTERN_ORDER[self.pattern],
            self.s,
            self.d,
            self.w,
            self.h,
            self.s_minus,
        )


# Each slot's member-descriptor setter, bound once (see ClassConfig)
(_set_w, _set_h, _set_pattern, _set_s, _set_s_minus, _set_d,
 _set_n, _set_width_units, _set_height_pair) = (
    ClassConfig.__dict__[name].__set__ for name in ClassConfig.__slots__)


def hybrid_pair(k: int) -> tuple[ClassConfig, ClassConfig]:
    """The two equally dense families at n = 15 + 4k.

    Returns a two-row packing (w = 8+2k) and a four-row hybrid (w = 4+k,
    three hex rows plus one square row); both hold 15+4k circles in exactly
    equal areas (32+8k) + (16+4k)*sqrt(3).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    a = ClassConfig(w=8 + 2 * k, h=2, pattern=RowPattern.SHORT_OFFSET)
    b = ClassConfig(w=4 + k, h=3, pattern=RowPattern.SHORT_OFFSET, s=1)
    return a, b
