"""Exhaustive minimum-area search over the packing class, as a block sieve.

For each n the search finds the exact minimum rectangle area over every
class member with that circle count, keeps the complete tie set (argmin),
and classifies n by whether the optimum may or must contain monovacancies.

One kernel, `_sieve`, handles a block of consecutive n, n_lo..n_hi.  A
shape (w, h, s, pattern) has one exact area, width * H(h, s) with
H(h, s) = (2 + 2s) + (h - 1)*sqrt(3), and covers the contiguous run of n
from top - s - holes up to top = w*(h + s) - h_minus (the splits into
short square rows and holes, any number of each), limited to n >= h + s.
The kernel walks h outward from h0 (see below), then s, then pattern, then
w once per block, and scatters each shape to the n it covers in the block,
keeping for each n an exact cap (the least area seen) and the shapes that
reach it.  Areas p + q*sqrt(3) are integer pairs (p, q), compared exactly
by `quadint.sign`.
`best(n)` is the block [n, n]; `iter_range` walks blocks of BLOCK n.
ClassConfig objects are built for the argmin only.

Pruning is exact.  Every cap starts at 4n, the area of the one-row strip
(n, 0, FULL, s=1), so cap(n) <= 4n throughout.  A member of cell (h, s)
with n circles is at least (2n + h - 1)/r wide, r = h + s, so the cell is
dead for n when r*cap(n) < (2n + h - 1)*H(h, s).  With
m(n) = cap(n) - 2*sqrt(3)*n that reads
r*m(n) - 2n*(2 - sqrt(3))*(1 + s) < (h - 1)*H(h, s).  Let M be the block's
maximum of m(n), an integer pair.  As m(n) <= M and n >= n_lo, the block
test r*M - 2*n_lo*(2 - sqrt(3))*(1 + s) < (h - 1)*H(h, s) makes the cell
dead for every n in the block.  Beyond the spread of m(n), it is looser
than each n's own test only by 2*(2 - sqrt(3))*(1 + s)*(n - n_lo), at most
2*(2 - sqrt(3))*(1 + s)*(BLOCK - 1).  M stays the exact maximum: `_bounds`
recomputes it, with the index of an n holding it, only after a cell that
lowered the cap at that n.  Caps only fall, so any other lowering leaves M
where it was.  As cap(n) = m(n) + 2*sqrt(3)*n, the pair
C = M + 2*sqrt(3)*n_hi bounds every cap in the block (in a one-n block it
is the cap), and its p and q are >= 0: p is a cap's p, and q is at least
that cap's q.  Three cut-offs follow:

* cell: for fixed h and n, the gap (2n + h - 1)*H(h, s) - r*cap(n) is
  linear in s with slope 2*(2n + h - 1) - cap(n) > 0, so once the block
  test kills (h, s) every n is dead for all larger s and the s loop stops;
* w: the area grows with w, so the w loop stops at the first area above
  C, which is above every cap.  Width w - 1 holds every n <= top - r that
  w holds (r = h + s), at a smaller area, as holes(w) - holes(w - 1) <=
  h - 2 < r for w >= 3 (no holes below).  So w keeps only n > top - r:
  its run starts at max(top - s - holes, top - r + 1), which grows with w,
  and the loop stops once that start passes n_hi.  No hole cap is needed;
* h: as H(h, 0) - sqrt(3)*h = 2 - sqrt(3), each n's gap at s = 0 is
  (h - 1)*H(h, 0) - h*m(n) + 2n*(2 - sqrt(3)), which is at least
  F(h) = (h - 1)*H(h, 0) - h*M + 2*n_lo*(2 - sqrt(3)); the block test
  kills (h, 0) exactly when F(h) > 0.  F is convex in h (positive
  sqrt(3)*h^2 term), with step F(h) - F(h - 1) = 2 + (2h - 3)*sqrt(3) - M.
  The walk starts at h0 = round(sqrt((4/sqrt(3) - 2)*n_mid)), n_mid the
  block's middle n: to leading order h0 minimises the cell bound
  (2n + h - 1)*H(h, 0)/h, so the first cells bring the caps near their
  final values and most other cells die at once.  The walk goes up from
  h0 and stops once F(h) > 0 with a step >= 0: F then rises for every
  larger h.  It then goes down from h0 - 1 to 2 and stops once F(h) > 0
  with a step <= 0: by convexity F(h') >= F(h) > 0 for every h' < h.  M
  only falls as the walk goes on, which only raises F.
  In practice the first h below h0 with F(h) > 0 already has a step
  <= 0, since F's minimum also sits at h0 to leading order, so no test
  can tell the downward step guard from a stop at the first dead (h, 0);
  it stays because the proof needs it.

No tie of a final minimum is lost: each cut drops only members whose area
is strictly above cap(n), and cap(n) never falls below the final minimum;
caps lowered later only widen the gaps the cuts relied on.

The float filter.  Most exact comparisons would only confirm that an area
is above a cap: 320k of the scatter's 340k over 1..5000 at BLOCK = 64,
counted by a `sign` call beside each scatter comparison in a copy of the
sieve.  Beside each cap the sieve keeps capf = fl(p + q*sqrt(3)), set from
the same pair whenever the cap changes, and it computes each shape's area
af and C's float the same way, once.  As p, q >= 0, each float is within 4u
of its value, u = 2^-53: one rounding each for sqrt(3), the product and
the sum, and one for an integer beyond 2^53.  So capf < af*(1 - _MARGIN)
proves cap < area, and capf > af*(1 + _MARGIN) proves cap > area, once
_MARGIN exceeds about 10u; _MARGIN = 1e-12 is some 900 times that.  The
scatter decides both ways: it skips an n whose cap float is below
af*(1 - _MARGIN) and lowers, with no exact test, a cap whose float is
above af*(1 + _MARGIN); over 1..5000 that settles all but the 3.2k ties.
The w cut stops, or goes on, by C's float the same way.  `_bounds` skips
only by m(n): an n whose float m(n), capf - 2*sqrt(3)*n, is below the
running M's by more than _MARGIN*4*n_hi.  m(n) cancels, but each of its
terms is at most 4*n_hi (every cap is at most 4n), so each float m(n) is
within about 8u*4*n_hi of its value.  Every other comparison takes the
exact path: pair equality, then `quadint.sign`.  So a float acts only where
its error bound proves the verdict, and every tie is found by pair
equality.  Past about 1.8e308 an area has no float, and the conversion
raises OverflowError.

Square grids (w x s, w >= s) join the ties after the walk.  Their area
4ws is at least 4n, the first cap, with equality only at n = ws; every
hex member has q > 0, so grids tie exactly the caps with q = 0, which no
hex member lowered.

BLOCK = 64 was measured, not derived.  On one vCPU of a shared 2-vCPU VM
(Python 3.11.7), median of 9 interleaved runs, scan_range(1, 5000) takes
0.080, 0.071, 0.068 and 0.069 s at 16, 32, 64 and 128, and 5001..20000
takes 0.288, 0.243, 0.215 and 0.209 s.  In 21 alternating runs 64 beat 32
in 16 on 1..5000 and in 19 on 5001..20000; it beat 128 in 15 on 1..5000
but only in 8 on 5001..20000.  A small block walks the cells again for
every few n; a large one loosens the cell test and the w cut.

Range scans may fan out over processes, at most one per core and per
block.  Each pool task carries TASK_BLOCKS = 48 blocks whatever the range
(a 32nd of the blocks of 1..10^5), so a reply holds about 3,000 n and
memory stays flat: over 1..10^6 at --jobs 2 the largest process peaked at
38 MB.  Results are streamed in n order, so parallel and serial runs
produce identical output.
`multiprocessing` is imported only when a pool starts: importing it takes
about a quarter of what `import rowpack` took with it, and `best(n)` and
one-process scans never use it.
"""
from __future__ import annotations

import math
import os
import re
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import chain

from . import improve
from .packings import ClassConfig, RowPattern, row_kinds
from .quadint import QuadInt, sign as _sign


class Classification(Enum):
    REGULAR = "regular"          # every argmin config has d = 0
    MAY_HAVE_HOLE = "may_hole"   # argmin mixes d = 0 and d >= 1
    MUST_HAVE_HOLE = "must_hole"  # every argmin config has d >= 1


# module aliases: a class lookup such as Classification.REGULAR costs ten times a global
_REGULAR = Classification.REGULAR
_MAY_HAVE_HOLE = Classification.MAY_HAVE_HOLE
_MUST_HAVE_HOLE = Classification.MUST_HAVE_HOLE


@dataclass(frozen=True, slots=True, init=False)
class SearchResult:
    """The exact minimum area for n and its complete tie set, sorted, given as argmin
    alone: n and min_area are argmin[0]'s, and every other field is derived once.  A
    one-line ValueError unless argmin is a nonempty tuple of ClassConfig, each member
    holding n circles in that exact area, strictly after the one before in
    `ClassConfig.sort_key` order.  Built as ClassConfig is: `__init__` checks and
    derives, then stores each slot once through its member-descriptor setter."""
    argmin: tuple[ClassConfig, ...]
    n: int = field(init=False)
    min_area: QuadInt = field(init=False)
    classification: Classification = field(init=False)
    min_d: int = field(init=False)
    shape_count: int = field(init=False)

    def __init__(self, argmin: tuple[ClassConfig, ...]) -> None:
        if type(argmin) is not tuple:
            raise ValueError(f"argmin must be a tuple of ClassConfig, got a {type(argmin).__name__}")
        if not argmin:
            raise ValueError("argmin must not be empty")
        rep = argmin[0]
        if type(rep) is not ClassConfig:
            raise ValueError(f"argmin member {rep!r} is not a ClassConfig")
        n, width, (hp, hq) = rep.n, rep.width_units, rep.height_pair
        p, q = width * hp, width * hq
        min_d = max_d = rep.d
        if len(argmin) == 1:  # most n: one member, one shape, and no set to build
            shape_count = 1
        else:
            shapes, last = set(), ()
            for c in argmin:
                if type(c) is not ClassConfig:
                    raise ValueError(f"argmin member {c!r} is not a ClassConfig")
                width, (hp, hq) = c.width_units, c.height_pair
                if c.n != n or width * hp != p or width * hq != q:
                    raise ValueError(f"argmin member {c} does not have n = {n} "
                                     f"and area {p} + {q}*sqrt(3)")
                if (key := c.sort_key()) <= last:
                    raise ValueError(f"argmin member {c} is out of order or repeated")
                last = key
                d = c.d
                if d < min_d:
                    min_d = d
                elif d > max_d:
                    max_d = d
                shapes.add((width, hp, hq))
            shape_count = len(shapes)
        if min_d >= 1:
            cls = _MUST_HAVE_HOLE
        elif max_d == 0:
            cls = _REGULAR
        else:
            cls = _MAY_HAVE_HOLE
        _set_argmin(self, argmin)
        _set_n(self, n)
        _set_min_area(self, QuadInt(p, q))
        _set_classification(self, cls)
        _set_min_d(self, min_d)
        _set_shape_count(self, shape_count)

    @property
    def width(self) -> int:
        return self.argmin[0].width_units

    def height(self) -> QuadInt:
        return self.argmin[0].height()

    def density(self) -> float:
        return self.argmin[0].density()

    def aspect_ratio(self) -> float:
        return self.argmin[0].aspect_ratio()


# Each slot's member-descriptor setter, bound once (see packings.ClassConfig)
_set_argmin, _set_n, _set_min_area, _set_classification, _set_min_d, _set_shape_count = (
    SearchResult.__dict__[name].__set__ for name in SearchResult.__slots__)

# n per block and blocks per pool task; the module docstring gives the measurements
BLOCK = 64
TASK_BLOCKS = 48

# relative margin of the float filter; the module docstring bounds its error
_MARGIN = 1e-12
_SQRT3 = math.sqrt(3)
_TWO_SQRT3 = 2 * _SQRT3


def _sieve(n_lo: int, n_hi: int) -> list[list[tuple]]:
    """The tie shapes of every n in [n_lo, n_hi], as a list ties.

    Each shape (w, h, pattern, s, holes) is enumerated once and scattered
    to the n it covers.  ties[i] lists, as (w, h, pattern, s, holes, top),
    the shapes holding a member with n_lo + i circles of the class minimum
    area, the final cap (the caps stay here: a member carries its area);
    top is the shape's n with no short square row and no hole, which
    `_splits` reads in place of recomputing h_minus.  Order: cells by h (up
    from h0, then down from h0 - 1), s, pattern, w, then square grids by s.
    """
    size = n_hi - n_lo + 1
    capp = [4 * n for n in range(n_lo, n_hi + 1)]  # the one-row strip (n, 0, FULL, s=1)
    capq = [0] * size
    capf = [float(c) for c in capp]  # capp + capq*sqrt(3) in floats, for the filter
    low, high = 1 - _MARGIN, 1 + _MARGIN
    ties: list[list[tuple]] = [[] for _ in range(size)]

    mp, mq, im = _bounds(n_lo, capp, capq, capf)
    cq = mq + 2 * n_hi  # C = (mp, cq) = M + 2*sqrt(3)*n_hi bounds every cap
    cf = mp + cq * _SQRT3
    # h0 minimises (to leading order) the cell bound (2n + h - 1)*H(h, 0)/h at
    # the block's middle n; h walks up from h0, then down from h0 - 1
    h0 = max(2, round(math.sqrt((4 / math.sqrt(3) - 2) * ((n_lo + n_hi) // 2))))
    for hs, rising in ((range(h0, n_hi + 1), True), (range(h0 - 1, 1, -1), False)):
        for h in hs:
            s = 0
            while s <= n_hi - h:
                r = h + s
                # block cell cut: r*M - 2*n_lo*(2 - sqrt(3))*(1 + s) < (h - 1)*H(h, s)
                if _sign(r * mp - 2 * (1 + s) * (2 * n_lo + h - 1),
                         r * mq + 2 * n_lo * (1 + s) - (h - 1) * (h - 1)) < 0:
                    break
                hp, hq = 2 + 2 * s, h - 1  # cell height
                first = r if r > n_lo else n_lo  # the class bound h + s <= n
                for pattern, full, h_minus, full_rows in row_kinds(h, s > 0):
                    w = -(-(n_lo + h_minus) // r)
                    if w < 2 and not full:
                        w = 2
                    while True:
                        top = w * r - h_minus  # n with no short square row and no hole
                        # holes need h >= 3, w >= 3 and a free interior site
                        # (ClassConfig.hole_capacity over the row_kinds entry, inlined)
                        holes = (h - 2) * (w - 3) + full_rows if h >= 3 and w >= 3 else 0
                        # n = top - s_minus - d over 0 <= s_minus <= s, d <= holes; width
                        # w - 1 holds every n <= top - r at a smaller area (dominance);
                        # n >= h + s also keeps w = 1 (so r = n) free of short square rows
                        lo = top - s - holes
                        if lo <= top - r:
                            lo = top - r + 1
                        if lo > n_hi:
                            break  # lo grows with w
                        # ClassConfig.width_units, full read from row_kinds
                        width = 2 * w + 1 if full else 2 * w
                        p, q = width * hp, width * hq
                        af = p + q * _SQRT3
                        cut = af * low  # a cap float below this is certainly below the area
                        if cf < cut or (cf <= af * high and _sign(p - mp, q - cq) > 0):
                            break  # area grows with w
                        if lo < first:
                            lo = first
                        for i in range(lo - n_lo, (top if top < n_hi else n_hi) - n_lo + 1):
                            if capf[i] < cut:
                                continue
                            ci, di = capp[i], capq[i]
                            if p != ci or q != di:
                                # a cap float certainly above the area is lowered unchecked
                                if capf[i] <= af * high and _sign(p - ci, q - di) > 0:
                                    continue
                                capp[i], capq[i], capf[i], ties[i] = p, q, af, []
                            ties[i].append((w, h, pattern, s, holes, top))
                        w += 1
                # M, and so C, moves only if the cell lowered the cap at its argmax
                if capp[im] != mp or capq[im] != mq + 2 * (n_lo + im):
                    mp, mq, im = _bounds(n_lo, capp, capq, capf)
                    cq = mq + 2 * n_hi
                    cf = mp + cq * _SQRT3
                s += 1
            # Cell (h, 0) is dead for every n: stop once F cannot fall further
            # away from h0 (convexity, see the module docstring).
            if s == 0:
                step = _sign(2 - mp, 2 * h - 3 - mq)  # F(h) - F(h - 1)
                if (step >= 0) if rising else (step <= 0):
                    break

    # Square grids w x s (w >= s) have area 4ws >= 4n: they tie only the caps
    # 4n that no hex member (q > 0) lowered, at n = ws
    for i in range(size):
        if capq[i] == 0:
            n = n_lo + i
            ties[i] += [(n // s, 0, RowPattern.FULL, s, 0, n)
                        for s in range(1, math.isqrt(n) + 1) if n % s == 0]
    return ties


def _bounds(n_lo: int, capp: list[int], capq: list[int],
            capf: list[float]) -> tuple[int, int, int]:
    """(M_p, M_q, i_M): the block maximum M of m(n) = cap(n) - 2*sqrt(3)*n, and
    the index of an n holding it.

    An n whose float m(n) is certainly below the running maximum is skipped;
    every other n is compared exactly.
    """
    last = len(capp) - 1
    n = n_lo + last
    mp, mq, im = capp[last], capq[last] - 2 * n, last
    mf = capf[last] - _TWO_SQRT3 * n
    tol = _MARGIN * 4 * n  # every cap is at most 4n
    for i in range(last - 1, -1, -1):
        n = n_lo + i
        f = capf[i] - _TWO_SQRT3 * n
        if f >= mf - tol and _sign(capp[i] - mp, capq[i] - 2 * n - mq) > 0:
            mp, mq, im, mf = capp[i], capq[i] - 2 * n, i, f
    return mp, mq, im


def _splits(n: int, shapes: list[tuple]) -> Iterator[tuple]:
    """The ClassConfig fields (w, h, pattern, s, s_minus, d) of every member
    with n circles in each of the sieve's tie shapes, d ascending."""
    for w, h, pattern, s, holes, top in shapes:
        k = top - n  # s_minus + d
        for d in range(max(0, k - s), min(k, holes) + 1):
            yield w, h, pattern, s, k - d, d


def _block(bounds: tuple[int, int], view: Callable | None = None) -> list:
    """best(n), or view(best(n)), for every n in the block (n_lo, n_hi), from one sieve."""
    n_lo, n_hi = bounds
    results = []
    for i, shapes in enumerate(_sieve(n_lo, n_hi)):
        argmin = [ClassConfig(*f) for f in _splits(n_lo + i, shapes)]
        if len(argmin) > 1:
            argmin.sort(key=ClassConfig.sort_key)
        results.append(SearchResult(tuple(argmin)))
    return results if view is None else [view(r) for r in results]


def best(n: int) -> SearchResult:
    """Exact minimum area and the full argmin set for n circles."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _block((n, n))[0]


def iter_range(n_lo: int, n_hi: int, jobs: int = 1, view: Callable | None = None) -> Iterator:
    """best(n), or view(best(n)) if a view is given, for every n in [n_lo, n_hi],
    streamed in ascending n order.

    Blocks of BLOCK n are walked lazily; min(jobs, core count, block count)
    processes map them in order, TASK_BLOCKS per task, so a one-block range
    never starts a pool.  The view is module-level and runs where its block
    was searched, so a pool's workers send back only what it returns.
    Arguments are checked here, before the first item is asked for: jobs < 1
    is a ValueError, more than 2**63 blocks an OverflowError.
    """
    if not (1 <= n_lo <= n_hi):
        raise ValueError("need 1 <= n_lo <= n_hi")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    starts = range(n_lo, n_hi + 1, BLOCK)
    jobs = min(jobs, os.cpu_count() or 1, len(starts))
    blocks = ((a, min(a + BLOCK - 1, n_hi)) for a in starts)
    block_fn = partial(_block, view=view)
    if jobs == 1:
        return chain.from_iterable(map(block_fn, blocks))

    def pooled() -> Iterator:
        import multiprocessing  # loads only when a pool starts

        with multiprocessing.Pool(jobs) as pool:
            yield from chain.from_iterable(pool.imap(block_fn, blocks, TASK_BLOCKS))

    return pooled()


def scan_range(n_lo: int, n_hi: int, jobs: int = 1) -> list[SearchResult]:
    """best(n) for every n in [n_lo, n_hi], in ascending n order."""
    return list(iter_range(n_lo, n_hi, jobs=jobs))


@dataclass(frozen=True, slots=True)
class Milestones:
    """Smallest n hitting each monovacancy landmark, over a scanned range."""

    n_hi: int
    even_h_holed: int | None          # holed argmin config with even h and h_minus > 0
    first_min_d: dict[int, int | None]  # k -> smallest n with min_d == k (2..5, each k > 5 seen)
    max_min_d: int

    def to_json(self) -> dict:
        return {
            "n_hi": self.n_hi,
            "even_h_holed": self.even_h_holed,
            "first_min_d": {str(k): v for k, v in self.first_min_d.items()},
            "max_min_d": self.max_min_d,
        }


def milestone_mark(result: SearchResult) -> tuple[int, int, bool]:
    """(n, min_d, has an argmin member holed with even h and h_minus > 0): the
    view of a result that `fold_milestones` reads."""
    for c in result.argmin:
        if c.d >= 1 and c.h % 2 == 0 and c.h_minus > 0:
            return result.n, result.min_d, True
    return result.n, result.min_d, False


def milestones(n_hi: int, results: Iterable[SearchResult]) -> Milestones:
    """`fold_milestones` over the marks of a scan such as `iter_range(1, n_hi)`."""
    return fold_milestones(n_hi, map(milestone_mark, results))


def fold_milestones(n_hi: int, marks: Iterable[tuple[int, int, bool]]) -> Milestones:
    """Monovacancy landmarks for 1..n_hi from the `milestone_mark` of each n.

    The marks with n <= n_hi must be exactly n = 1..n_hi in order (a
    ValueError otherwise), and later ones are skipped.
    """
    even_h_holed = None
    first: dict[int, int | None] = {2: None, 3: None, 4: None, 5: None}
    max_min_d = 0
    seen = 0
    out_of_order = f"milestones: results up to n = {n_hi} must be exactly n = 1..{n_hi} in order"
    for n, min_d, holed_even_h in marks:
        if n > n_hi:
            continue
        seen += 1
        if n != seen:
            raise ValueError(out_of_order)
        if even_h_holed is None and holed_even_h:
            even_h_holed = n
        if min_d >= 2 and first.get(min_d) is None:
            first[min_d] = n
        max_min_d = max(max_min_d, min_d)
    if seen != n_hi:
        raise ValueError(out_of_order)
    return Milestones(n_hi=n_hi, even_h_holed=even_h_holed,
                      first_min_d=dict(sorted(first.items())), max_min_d=max_min_d)


# results file format -----------------------------------------------------------

# pattern value in a results line -> RowPattern
_PATTERN_BY_VALUE = {p.value: p for p in RowPattern}


def result_to_json(result: SearchResult) -> dict:
    """A results line as a dict, its floats from the ClassConfig methods: the
    reference `result_to_line` is tested against, byte for byte."""
    rep = result.argmin[0]
    hp, hq = rep.height_pair
    line = {
        "n": result.n,
        "area": {"p": result.min_area.p, "q": result.min_area.q,
                 "float": result.min_area.to_float()},
        "width": rep.width_units,
        "height": {"p": hp, "q": hq},
        "density": rep.density(),
        "aspect": rep.aspect_ratio(),
        "class": result.classification._value_,
        "min_d": result.min_d,
        "shapes": result.shape_count,
        "argmin": [{"w": c.w, "h": c.h, "pattern": c.pattern._value_, "s": c.s,
                    "s_minus": c.s_minus, "d": c.d} for c in result.argmin],
    }
    if result.classification is not _REGULAR:
        m = _improvement(result)
        line["improvement"] = None if m is None else {
            "move": m.move._value_, "delta": m.delta, "new_width": m.new_width,
            "new_area": m.new_area, "new_density": m.new_density,
            "rattler_note": m.rattler_note, "remaining_holes": m.remaining_holes}
    return line


def _improvement(result: SearchResult) -> improve.ImprovementReport | None:
    """The move on the first holed argmin member that has one, if any."""
    return next(filter(None, (improve.improvement(c) for c in result.argmin if c.d)), None)


# an argmin member as the writer spells it
_MEMBER = re.compile(r'\{"w":([0-9]+),"h":([0-9]+),"pattern":"([a-z_]+)","s":([0-9]+),'
                     r'"s_minus":([0-9]+),"d":([0-9]+)\}', re.ASCII)


def _result_from_line(line: str) -> SearchResult:
    """The result a results line holds; a ValueError (an OverflowError past
    float range) unless the line is `result_to_line`'s for it, byte for byte.

    Only the argmin members are parsed, each built as a ClassConfig;
    `SearchResult` checks them against each other (n, exact area, strict
    order), and the rewrite checks n, area and every other field.
    """
    argmin = []
    for m in _MEMBER.finditer(line):
        pattern = _PATTERN_BY_VALUE.get(m[3])
        if pattern is None:
            raise ValueError(f"pattern must be one of {', '.join(_PATTERN_BY_VALUE)}: {m[0]}")
        w, h, s, s_minus, d = map(int, m.group(1, 2, 4, 5, 6))
        argmin.append(ClassConfig(w, h, pattern, s, s_minus, d))
    if not argmin:
        raise ValueError('no argmin member is spelled {"w":<int>,"h":<int>,...}')
    result = SearchResult(tuple(argmin))
    if (written := result_to_line(result)) != line:
        # name the first of the writer's keys (no nested key shares a name
        # with one) whose value, whitespace removed, differs
        keys = "|".join(result_to_json(result))
        field_re = re.compile(f'"({keys})":(.*?)(?=,"(?:{keys})":|}}$)', re.ASCII)
        got, want = ({m[1]: m[2] for m in field_re.finditer("".join(t.split()))}
                     for t in (line, written))
        for key in [*want, *got]:
            if got.get(key) != want.get(key):
                raise ValueError(f"{key} is {got.get(key, 'absent')}, "
                                 f"but write_results writes {want.get(key, 'nothing')}")
        raise ValueError("the line is not spelled as write_results writes it")
    return result


def result_to_line(result: SearchResult) -> str:
    """One line of a results file: `result_to_json` as compact JSON,
    newline-terminated; an OverflowError if the area has no finite float.

    Formatted directly, with no dict and no `json.dumps`, as the line costs
    more than the search: ints print by str and floats by repr, as json
    prints finite floats, and the enum values are plain ASCII, so nothing
    needs escaping.  The floats are the member's own: the area's to_float
    and the first member's density and aspect_ratio.  Each enum is read by
    _value_, which on Python 3.11 costs 0.02 us against 0.26 us for .value.
    """
    rep = result.argmin[0]
    area = result.min_area
    area_f = area.to_float()
    if area_f == math.inf:
        raise OverflowError(f"area {area.p} + {area.q}*sqrt(3) has no float: JSON has no inf")
    hp, hq = rep.height_pair
    cls = result.classification
    members = ",".join([
        f'{{"w":{c.w},"h":{c.h},"pattern":"{c.pattern._value_}","s":{c.s},'
        f'"s_minus":{c.s_minus},"d":{c.d}}}' for c in result.argmin])
    if cls is _REGULAR:
        tail = ""
    elif (m := _improvement(result)) is None:
        tail = ',"improvement":null'
    else:
        tail = (f',"improvement":{{"move":"{m.move._value_}","delta":{m.delta!r},'
                f'"new_width":{m.new_width!r},"new_area":{m.new_area!r},'
                f'"new_density":{m.new_density!r},'
                f'"rattler_note":{"true" if m.rattler_note else "false"},'
                f'"remaining_holes":{m.remaining_holes}}}')
    return (f'{{"n":{result.n},"area":{{"p":{area.p},"q":{area.q},"float":{area_f!r}}},'
            f'"width":{rep.width_units},"height":{{"p":{hp},"q":{hq}}},'
            f'"density":{rep.density()!r},"aspect":{rep.aspect_ratio()!r},'
            f'"class":"{cls._value_}","min_d":{result.min_d},"shapes":{result.shape_count},'
            f'"argmin":[{members}]{tail}}}\n')


def write_results(results: Iterable[SearchResult], path) -> None:
    """Line-delimited JSON, one SearchResult per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for result in results:
            fh.write(result_to_line(result))


def read_results(path) -> list[SearchResult]:
    """The results of a file `write_results` wrote; a line it did not write
    (edited, re-spaced or re-keyed) is a ValueError naming its number.

    Lines are read one at a time: each is one record with its own check, so
    an error names its line and the file's text is never held whole.
    """
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            if line[-1] != "\n":
                line += "\n"  # a last line without its newline
            try:
                out.append(_result_from_line(line))
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"line {lineno}: corrupt results line ({exc})") from exc
    return out
