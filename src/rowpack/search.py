"""Exhaustive minimum-area search over the packing class.

For each n the search finds the exact minimum rectangle area over every
class member with that circle count, keeps the complete tie set (argmin),
and classifies n by whether the optimum may or must contain monovacancies.

One enumeration kernel, `_members`, walks the class: the square grids, then
cell by cell (h hex rows, s square rows), each row pattern and width w, and
each split of the surplus w*(h+s) - h_minus - n into short square rows and
holes.  It works on plain integers: a member is the tuple of its
ClassConfig fields, and an area p + q*sqrt(3) is the pair (p, q), compared
exactly by `quadint.sign`.  Without a cap the kernel yields the whole class
(`enumerate_candidates`).  With a cap (the incumbent minimum, which `best`
lowers as members arrive) it yields only members no larger than the cap,
and skips a cell only when an exact lower bound on the cell's area exceeds
the cap, so no tie of the final minimum can be lost.  `best` builds
ClassConfig objects for the final argmin only.  The cut-offs rely on two
provable monotonicity facts:

* for fixed h, the envelope (2n + h - 1) * H(h, s) - (h + s) * A is linear
  in s with positive slope once A <= 4n (guaranteed by the one-row strip
  (n, 0, FULL, 1), whose area 4n is the first cap), so the s loop stops at
  its first dead cell;
* for s = 0 the same envelope is convex in h, so the h loop stops once the
  bound is both positive and increasing.

Range scans may fan out over processes; results are assembled in n order,
so parallel and serial runs produce identical output.
"""
from __future__ import annotations

import json
import multiprocessing
import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .packings import ClassConfig, RowPattern
from .quadint import QuadInt, sign as _sign


class Classification(Enum):
    REGULAR = "regular"          # every argmin config has d = 0
    MAY_HAVE_HOLE = "may_hole"   # argmin mixes d = 0 and d >= 1
    MUST_HAVE_HOLE = "must_hole"  # every argmin config has d >= 1


@dataclass(frozen=True, slots=True)
class SearchResult:
    n: int
    min_area: QuadInt
    argmin: tuple[ClassConfig, ...]
    classification: Classification
    min_d: int
    shape_count: int

    @property
    def width(self) -> int:
        return self.argmin[0].width_units

    def height(self) -> QuadInt:
        return self.argmin[0].height()

    def density(self) -> float:
        return self.argmin[0].density()

    def aspect_ratio(self) -> float:
        return self.argmin[0].aspect_ratio()


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def _patterns_for(h: int, s: int) -> tuple[RowPattern, ...]:
    if h % 2 == 1 and h >= 3 and s == 0:
        return (RowPattern.FULL, RowPattern.SHORT_OFFSET, RowPattern.SHORT_OUTER)
    return (RowPattern.FULL, RowPattern.SHORT_OFFSET)


def _members(n: int, d_max: int, cap: list[int] | None = None) -> Iterator[tuple]:
    """Every class member with n circles and at most d_max holes, as (p, q, fields).

    p + q*sqrt(3) is the member's exact area and fields are the ClassConfig
    arguments (w, h, pattern, s, s_minus, d); all of them are valid.  Order:
    square grids by s, then cells by h, s, pattern, w, d.  Bounds: w <= n,
    h + s <= n.  With `cap`, a [p, q] list holding at most 4n that the caller
    may lower between yields, only members whose area is at most the cap are
    yielded.
    """
    # square grids, canonical (w >= s), short rows allowed.  A grid's area
    # is 4*(n + s_minus) >= 4n >= cap, so it is within the cap only if equal.
    s = 1
    while s * s <= n + s - 1:
        w = _ceil_div(n, s)
        s_minus = w * s - n
        if s_minus <= s - 1 and w >= s and (s_minus == 0 or w >= 2):
            if cap is None or cap == [4 * w * s, 0]:
                yield 4 * w * s, 0, (w, 0, RowPattern.FULL, s, s_minus, 0)
        s += 1

    # hex and hybrid cells; under a cap, the s loop stops at its first dead cell
    for h in range(2, n + 1):
        s = 0
        while s <= n - h:
            if cap is not None and _sign(*_envelope_gap(n, h, s, cap)) > 0:
                break
            yield from _cell(n, h, s, d_max, cap)
            s += 1
        if s == 0 and cap is not None:
            # Cell (h, 0) is dead.  The gap is convex in h (quadratic,
            # positive sqrt(3)*h^2 term), so once it is also non-decreasing
            # it stays positive.  Its step from h-1 to h, at the same cap, is
            # (2 - cap_p) + (2n + 2h - 3 - cap_q)*sqrt(3).  The final minimum
            # is <= cap, which only enlarges the gap, so no tie can hide
            # beyond the break.
            if _sign(2 - cap[0], 2 * n + 2 * h - 3 - cap[1]) >= 0:
                return


def _envelope_gap(n: int, h: int, s: int, cap: list[int]) -> tuple[int, int]:
    """(2n + h - 1) * H(h, s) - (h + s) * cap, as an integer pair.

    Positive means every config in cell (h, s) — any pattern, any w, s_minus,
    d — has area strictly above cap: short patterns have width
    2w >= (2n + h - 1)/(h+s) and FULL widths (2w + 1) are wider still, while
    H(h, s) = (2 + 2s) + (h-1)*sqrt(3) is the exact cell height.
    """
    k = 2 * n + h - 1
    return k * (2 + 2 * s) - (h + s) * cap[0], k * (h - 1) - (h + s) * cap[1]


def _cell(n: int, h: int, s: int, d_max: int, cap: list[int] | None) -> Iterator[tuple]:
    """The members of cell (h, s); under a cap, each w loop stops once the area exceeds it."""
    r = h + s
    hp, hq = 2 + 2 * s, h - 1  # cell height
    for pattern in _patterns_for(h, s):
        full = pattern is RowPattern.FULL
        base = n + pattern.h_minus(h)
        full_rows = pattern.full_interior_rows(h, s)
        w = max(_ceil_div(base, r), 1 if full else 2)
        while True:
            # rem = s_minus + d >= 0.  w = 1 only when r = n, where rem = 0,
            # so a short square row never meets w = 1.
            rem = w * r - base
            if rem > s + d_max:
                break
            width = 2 * w + 1 if full else 2 * w
            p, q = width * hp, width * hq
            if cap is not None and _sign(p - cap[0], q - cap[1]) > 0:
                break  # area grows with w
            # holes need h >= 3, w >= 3 and a free interior site (the
            # closed form of ClassConfig.hole_capacity, inlined)
            holes = (h - 2) * (w - 3) + full_rows if h >= 3 and w >= 3 else 0
            for d in range(max(0, rem - s), min(d_max, rem, holes) + 1):
                yield p, q, (w, h, pattern, s, rem - d, d)
            w += 1


def _check_args(n: int, d_max: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if d_max < 0:
        raise ValueError("d_max must be >= 0")


def enumerate_candidates(n: int, d_max: int = 5) -> Iterator[ClassConfig]:
    """Stream every valid class member with n circles and at most d_max holes.

    Complete (no area pruning): square grids, pure hex blocks, hybrids, holed
    variants.  Bounds: w <= n, h + s <= n.
    """
    _check_args(n, d_max)
    for _, _, fields in _members(n, d_max):
        yield ClassConfig(*fields)


def best(n: int, d_max: int = 5) -> SearchResult:
    """Exact minimum area and the full argmin set for n circles."""
    _check_args(n, d_max)
    cap = [4 * n, 0]  # the one-row strip (n, 0, FULL, s=1) is always a member
    ties: list[tuple] = []
    for p, q, fields in _members(n, d_max, cap):
        if p != cap[0] or q != cap[1]:  # strictly below the cap: new minimum
            cap[0], cap[1] = p, q
            ties = []
        ties.append(fields)

    ordered = tuple(sorted((ClassConfig(*f) for f in ties), key=ClassConfig.sort_key))
    ds = [c.d for c in ordered]
    if all(d == 0 for d in ds):
        cls = Classification.REGULAR
    elif all(d >= 1 for d in ds):
        cls = Classification.MUST_HAVE_HOLE
    else:
        cls = Classification.MAY_HAVE_HOLE
    shapes = {(c.width_units, c.height()) for c in ordered}
    return SearchResult(
        n=n,
        min_area=QuadInt(cap[0], cap[1]),
        argmin=ordered,
        classification=cls,
        min_d=min(ds),
        shape_count=len(shapes),
    )


def irregular_scan(
    n_lo: int, n_hi: int, d_max: int = 5, jobs: int = 1
) -> list[int]:
    """All n in [n_lo, n_hi] whose class optimum may or must have holes."""
    return [
        r.n
        for r in scan_range(n_lo, n_hi, d_max=d_max, jobs=jobs)
        if r.classification is not Classification.REGULAR
    ]


def _best_worker(args: tuple[int, int]) -> SearchResult:
    n, d_max = args
    return best(n, d_max)


def scan_range(
    n_lo: int, n_hi: int, d_max: int = 5, jobs: int = 1
) -> list[SearchResult]:
    """best(n) for every n in [n_lo, n_hi], in ascending n order."""
    if not (1 <= n_lo <= n_hi):
        raise ValueError("need 1 <= n_lo <= n_hi")
    ns = range(n_lo, n_hi + 1)
    jobs = min(jobs, os.cpu_count() or 1, len(ns))
    if jobs <= 1:
        return [best(n, d_max) for n in ns]
    with multiprocessing.Pool(jobs) as pool:
        return pool.map(_best_worker, [(n, d_max) for n in ns], chunksize=32)


@dataclass(frozen=True, slots=True)
class Milestones:
    """Smallest n hitting each monovacancy landmark, over a scanned range."""

    n_hi: int
    even_h_holed: int | None          # holed argmin config with even h and h_minus > 0
    first_min_d: dict[int, int | None]  # k -> smallest n with min_d == k (k = 2..5)
    max_min_d: int

    def to_json(self) -> dict:
        return {
            "n_hi": self.n_hi,
            "even_h_holed": self.even_h_holed,
            "first_min_d": {str(k): v for k, v in self.first_min_d.items()},
            "max_min_d": self.max_min_d,
        }


def milestones(n_hi: int, d_max: int = 5, jobs: int = 1,
               results: Iterable[SearchResult] | None = None) -> Milestones:
    """Monovacancy landmarks for 1..n_hi (reuses a prior scan if given)."""
    if results is None:
        results = scan_range(1, n_hi, d_max=d_max, jobs=jobs)
    even_h_holed = None
    first: dict[int, int | None] = {2: None, 3: None, 4: None, 5: None}
    max_min_d = 0
    for r in results:
        if r.n > n_hi:
            continue
        if even_h_holed is None and any(
            c.d >= 1 and c.h % 2 == 0 and c.h_minus > 0 for c in r.argmin
        ):
            even_h_holed = r.n
        if r.min_d in first and first[r.min_d] is None:
            first[r.min_d] = r.n
        max_min_d = max(max_min_d, r.min_d)
    return Milestones(n_hi=n_hi, even_h_holed=even_h_holed,
                      first_min_d=first, max_min_d=max_min_d)


# results file format -----------------------------------------------------------


def result_to_json(result: SearchResult) -> dict:
    rep = result.argmin[0]
    line = {
        "n": result.n,
        "area": result.min_area.to_json(),
        "width": rep.width_units,
        "height": {"p": rep.height().p, "q": rep.height().q},
        "density": rep.density(),
        "aspect": rep.aspect_ratio(),
        "class": result.classification.value,
        "min_d": result.min_d,
        "shapes": result.shape_count,
        "argmin": [c.to_json() for c in result.argmin],
    }
    if result.classification is not Classification.REGULAR:
        line["improvement"] = _improvement_json(result)
    return line


def _improvement_json(result: SearchResult) -> dict | None:
    from . import improve  # local import: improve depends on packings only

    for cfg in result.argmin:
        if cfg.d >= 1 and improve.applicable_move(cfg) is not improve.MoveKind.NONE:
            return improve.improved_metrics(cfg).to_json()
    return None


def result_from_json(obj: dict) -> SearchResult:
    argmin = tuple(ClassConfig.from_json(c) for c in obj["argmin"])
    return SearchResult(
        n=int(obj["n"]),
        min_area=QuadInt.from_json(obj["area"]),
        argmin=argmin,
        classification=Classification(obj["class"]),
        min_d=int(obj["min_d"]),
        shape_count=int(obj["shapes"]),
    )


def write_results(results: Iterable[SearchResult], path) -> None:
    """Line-delimited JSON, one SearchResult per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            fh.write(json.dumps(result_to_json(result), separators=(",", ":")))
            fh.write("\n")


def read_results(path) -> list[SearchResult]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(result_from_json(json.loads(line)))
            except (json.JSONDecodeError, KeyError, ValueError) as exc:
                raise ValueError(f"line {lineno}: corrupt results line ({exc})") from exc
    return out
