"""Desk-scale stochastic compactor: walls press on circles until they jam.

A run starts from a seeded random sparse arrangement, then alternately
proposes shrinking the width or the height wall pair by the current relative
step.  A proposal moves the walls only; an iterative relaxation (clamp into
the box, then over-relaxed Gauss-Seidel separation of overlapping pairs)
must drive the worst violation below 1e-9 within the iteration budget,
otherwise the proposal is reverted and that side's step is halved.  A run
terminates when both steps drop below step_floor, or when the move budget
runs out.  The hard-collision dynamics of a real compactor are replaced by
this feasibility projection: the contract (never any overlap, walls only
press, jamming terminates) is the same, and the projection is
deterministic.

Randomness comes from numpy's default_rng (PCG64) seeded per run, so
identical parameters reproduce byte-identical traces on any platform.

_OMEGA = 1.5 was measured, not derived.  A plain projection (each center of
an overlapping pair moves gap/2, _OMEGA = 1) converges only linearly on a
nearly jammed chain: at the acceptance-gate parameters n = 8 seed 6 and
n = 7 seed 8 crept through about 1960 tiny accepted moves to max_moves,
nearly every relaxation spending about 390 of its 400 sweeps.  Pushing
each center _OMEGA/2 * gap (successive over-relaxation) ends both on the
step floor within a dozen moves.  Wall time by _OMEGA (Python 3.11.7, one
process on a shared 2-vCPU VM, one run each):

    _OMEGA                          1.0    1.2    1.3    1.5    1.7    1.8
    80 runs, n 1..8 x seeds 0..9    4.86   0.72   0.72   0.69   4.58   2.21 s
    400 runs, n 1..8 x seeds 0..49  17.4   16.2   12.6   10.4   14.4   15.9 s
    80 runs at 1.5, median of 5, busier VM: 1.17 s; fixed-point exit 1.06 s

both at the gate parameters (slack 3, shrink_step 0.3, relax_iters 400,
step_floor 1e-7, max_moves 2000).  The 80 runs end on max_moves 2 times
at 1.0 and 1.7, once at 1.8 and never at 1.2-1.5.  Over the 400 runs the
mean gap to the class optimum is 0.0891 and 189 runs are within 2%, both
at 1.0 and at 1.5; every best-of-50 gap is below 2e-7 at every _OMEGA.
Past 1.5 the over-relaxed runs jam worse: the largest best-of-10 gap over
the 80 runs rises from 6.2% to 9.5% at 1.7 and 1.8.

_SKIN = 0.5 was measured too, at _OMEGA = 1 and again at 1.5.  On the same
VM at 1.5, the 400 gate runs take 10.3 s at a skin of 0.3, 10.6 s at 0.5
and at 0.8 (medians of five runs) and 11.3 s at 1.2 (two runs); ten FAST
seeds each of n = 11 and n = 25 (tests/test_compactor.py) take 6.6, 6.7,
6.9 and 7.4 s.  0.5 stays within 3% of the best skin.  A small skin
rebuilds the list more often; a large one lists pairs that never touch.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import search
from .packings import TOL, PackingRealization, max_violation

# over-relaxation factor and neighbour-list skin of _relax_core; the module
# docstring gives the measurements
_OMEGA = 1.5
_SKIN = 0.5
_REACH2 = (2.0 + _SKIN) ** 2
_MAX_RESTARTS = 20  # random_start's; n <= 25 at slack >= 2.5 never restarts


@dataclass(frozen=True, slots=True)
class CompactorParams:
    n: int
    seed: int
    slack: float = 3.0
    shrink_step: float = 0.02
    relax_iters: int = 2000
    step_floor: float = 1e-9
    max_moves: int = 100_000

    def __post_init__(self) -> None:
        n, seed, relax_iters, max_moves = self.n, self.seed, self.relax_iters, self.max_moves
        if not (type(n) is type(seed) is type(relax_iters) is type(max_moves) is int):
            raise ValueError(f"n, seed, relax_iters and max_moves must be ints, got {n!r}, "
                             f"{seed!r}, {relax_iters!r} and {max_moves!r}")
        if n < 1:
            raise ValueError("n must be >= 1")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        if not self.slack > 1.0:
            raise ValueError("slack must exceed 1 (start from a feasible, sparse box)")
        if not (0.0 < self.shrink_step < 1.0):
            raise ValueError("shrink_step must be in (0, 1)")
        if not (0.0 < self.step_floor < self.shrink_step):
            raise ValueError("step_floor must be in (0, shrink_step): the steps only halve")
        if relax_iters < 1 or max_moves < 1:
            raise ValueError("iteration budgets must be positive")


class Termination(Enum):
    STEP_FLOOR = "step_floor"
    MAX_MOVES = "max_moves"


@dataclass(frozen=True, slots=True)
class CompactorRun:
    """A run is its trace: (move, width, height, density) at move 0 and each accepted move."""

    realization: PackingRealization
    terminated: Termination
    trace: tuple[tuple[int, float, float, float], ...]

    @property
    def density(self) -> float:
        return self.trace[-1][3]

    @property
    def moves_accepted(self) -> int:
        return len(self.trace) - 1

    def trace_csv(self) -> str:
        lines = ["move,width,height,density"]
        for move, w, h, dens in self.trace:
            lines.append(f"{move},{w!r},{h!r},{dens!r}")
        return "\n".join(lines) + "\n"


def random_start(n: int, seed: int, slack: float = 3.0) -> PackingRealization:
    """Seeded rejection-sampled sparse start in a box of slack x optimal area.

    The area is slack * best(n).min_area, above 4 as best(1) has area 4.
    The aspect ratio is drawn uniformly from [0.2, 1.0], with the lower end
    clamped to 4/area so the box always has room for one circle.  A circle
    that fails 500 draws restarts the sample; too many restarts is an error.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not slack > 1.0:
        raise ValueError("slack must exceed 1")
    area = slack * search.best(n).min_area.to_float()
    rng = np.random.default_rng(seed)
    aspect = rng.uniform(max(0.2, 4.0 / area), 1.0)
    width = math.sqrt(area / aspect)
    height = math.sqrt(area * aspect)

    pts = np.empty((n, 2))
    placed = 0
    restarts = 0
    stuck = 0
    while placed < n:
        x = rng.uniform(1.0, width - 1.0)
        y = rng.uniform(1.0, height - 1.0)
        if placed:
            d2 = (pts[:placed, 0] - x) ** 2 + (pts[:placed, 1] - y) ** 2
            if d2.min() < 4.0:
                stuck += 1
                if stuck > 500:  # earlier circles boxed this one out: start over
                    if restarts == _MAX_RESTARTS:
                        raise ValueError(f"could not place {n} circles; increase slack")
                    restarts += 1
                    placed = stuck = 0
                continue
        pts[placed] = (x, y)
        placed += 1
        stuck = 0
    return PackingRealization(
        centers=tuple(map(tuple, pts.tolist())), width=width, height=height
    )


def _neighbours(xs: list[float], ys: list[float]) -> list[tuple[int, list[int]]]:
    """Rows (i, [j, ...]), j > i, of the pairs closer than 2 + _SKIN."""
    n = len(xs)
    rows = []
    for i in range(n):
        xi = xs[i]
        yi = ys[i]
        js = []
        for j in range(i + 1, n):
            dx = xi - xs[j]
            dy = yi - ys[j]
            if dx * dx + dy * dy < _REACH2:
                js.append(j)
        if js:
            rows.append((i, js))
    return rows


def _sweep(
    xs: list[float], ys: list[float], rows, worst: float, moved: float, limit: float,
    sqrt=math.sqrt, half_omega=0.5 * _OMEGA,
) -> tuple[float, float, tuple[int, int] | None]:
    """One over-relaxed Gauss-Seidel pass over rows (i, js) in order, in place.

    Each overlapping pair is pushed apart by _OMEGA * gap along its center
    line, _OMEGA/2 * gap per center.  Returns (worst, moved, stop).  stop is
    None after a whole pass, or the pair (i, j) whose push took moved to
    limit; the pass ends after it.  sqrt and half_omega are default
    arguments so the hot loop looks them up as locals.
    """
    for i, js in rows:
        xi = xs[i]
        yi = ys[i]
        for j in js:
            xj = xs[j]
            yj = ys[j]
            dx = xi - xj
            dy = yi - yj
            d2 = dx * dx + dy * dy
            if d2 >= 4.0:
                continue
            dist = sqrt(d2)
            gap = 2.0 - dist
            if gap > worst:
                worst = gap
            push = half_omega * gap
            if dist == 0.0:  # coincident: deterministic separation axis (1, 0)
                px, py = push, 0.0
            else:
                px, py = dx / dist * push, dy / dist * push
            xi = xi + px
            yi = yi + py
            xs[j] = xj - px
            ys[j] = yj - py
            moved += push + push
            if moved >= limit:
                xs[i] = xi
                ys[i] = yi
                return worst, moved, (i, j)
        xs[i] = xi
        ys[i] = yi
    return worst, moved, None


def _relax_core(xs: list[float], ys: list[float], width: float, height: float,
                iters: int) -> bool:
    """Project the centres (xs[i], ys[i]) in place into a feasible state for
    the box; True on success.

    Clamps into the wall-offset box, then separates overlapping pairs
    symmetrically along their center line, in fixed (i, j) index order
    (Gauss-Seidel, over-relaxed by _OMEGA), repeating until the worst
    violation is below 1e-9 (then clips into the box) or the budget is
    spent.  True is returned only when packings.max_violation <= TOL on
    the final centres, the one array built, so it certifies that the state
    left in xs and ys is valid for the box; callers need not check again.

    Once a sweep moves the centres by less than _SKIN/2 in total, the
    following sweeps visit only the pairs of a neighbour list: those closer
    than 2 + _SKIN at that point.  `moved` sums every centre's displacement
    since then (the clamp's |dx| + |dy|, and _OMEGA * gap per push, which
    moves two centres by _OMEGA/2 * gap each), so an unlisted pair is still
    more than 2 + _SKIN - moved apart.  While moved < _SKIN/2 its d2 is
    therefore >= 4 with a margin far above rounding, and the all-pairs loop
    would have skipped it without touching a float.  When the clamp takes
    moved to _SKIN/2, the sweep covers all pairs; when a push does so
    mid-sweep, the rest of that sweep covers every remaining pair in order.
    Either way the list is dropped until a sweep is calm again.  Visited
    pairs see the same float operations in the same order, so the centres,
    the flag and the sweep count equal the all-pairs loop's bit for bit.

    The half-skin margin is wide.  Counting only `gap` per push, an
    undercount by the factor _OMEGA = 1.5, would let the centres travel up
    to 1.5 * _SKIN/2 = 0.375 < _SKIN before the list is dropped, so
    unlisted pairs would still stay apart, and the property test against
    the all-pairs loop cannot tell that count from the true one.  The true
    count is kept so the bound holds as stated, not by the margin.

    An iteration (the clamp, the sweep and any clip) that ends in exactly
    the state it began with is a fixed point, and the loop stops there.  Its
    floats depend only on the state: the neighbour list changes which pairs
    are visited, never a value, as shown above.  So every later iteration
    would repeat it: none could improve best_worst or return True inside the
    loop (this one did neither), and the loop would end with the same state.
    Stopping leaves the centres and the returned certificate bit-identical.
    (Only a sign of zero can differ between == states, and the next clamp
    maps both zeros to the same wall.)  The state is saved only while
    since_improve is non-zero.  From the second iteration at a fixed point
    on, worst repeats and cannot improve best_worst, so skipping the save
    delays the exit by at most two sweeps.  Cycles of two or more states
    are not detected; they end on the stall rule as before.
    """
    if width < 2.0 - TOL or height < 2.0 - TOL:
        return False
    n = len(xs)
    xlo, xhi, ylo, yhi = 1.0, width - 1.0, 1.0, height - 1.0
    rng_n = range(n)
    all_rows = [(i, range(i + 1, n)) for i in rng_n]
    half = 0.5 * _SKIN
    listed = None  # neighbour rows; None sweeps all pairs
    moved = 0.0  # displacement since listed was built, or in this sweep
    best_worst = math.inf
    since_improve = 0
    for _ in range(iters):
        start = xs + ys if since_improve else None  # a fixed point ends the loop
        for i in rng_n:
            x = xs[i]
            if x < xlo:
                moved += xlo - x
                xs[i] = xlo
            elif x > xhi:
                moved += x - xhi
                xs[i] = xhi
            y = ys[i]
            if y < ylo:
                moved += ylo - y
                ys[i] = ylo
            elif y > yhi:
                moved += y - yhi
                ys[i] = yhi
        if listed is not None and moved < half:
            worst, moved, stop = _sweep(xs, ys, listed, 0.0, moved, half)
            if stop is not None:  # the list no longer proves the rest apart
                i, j = stop
                rest = [(i, range(j + 1, n)), *all_rows[i + 1:]]
                worst, moved, _ = _sweep(xs, ys, rest, worst, moved, math.inf)
        else:
            worst, moved, _ = _sweep(xs, ys, all_rows, 0.0, moved, math.inf)
        if not moved < half:  # centres still travel: sweep all pairs next
            listed, moved = None, 0.0
        elif listed is None:  # a calm sweep: list the pairs that can meet soon
            listed, moved = _neighbours(xs, ys), 0.0
        if worst <= TOL:  # clip as np.clip does: NaN stays, xhi wins if xlo > xhi
            xs[:] = [min(max(x, xlo), xhi) for x in xs]
            ys[:] = [min(max(y, ylo), yhi) for y in ys]
            if max_violation(np.array([xs, ys]).T, width, height) <= TOL:
                return True
            listed, moved = None, 0.0  # the clip moved centres
        # stalled separation means an infeasible proposal: fail early
        if worst < 0.97 * best_worst:
            best_worst = worst
            since_improve = 0
        else:
            since_improve += 1
            if since_improve > 60 or xs + ys == start:
                break
    return max_violation(np.array([xs, ys]).T, width, height) <= TOL


def compact(params: CompactorParams) -> CompactorRun:
    """One deterministic compactor run.  It holds the centres as two float
    lists; a proposal relaxes copies of both."""
    start = random_start(params.n, params.seed, params.slack)
    xs, ys = map(list, zip(*start.centers))
    width, height = start.width, start.height
    n = params.n

    def density() -> float:
        return n * math.pi / (width * height)

    step = [params.shrink_step, params.shrink_step]  # width side, height side
    trace = [(0, width, height, density())]
    move = 0
    side = 0
    while move < params.max_moves:
        if step[0] < params.step_floor and step[1] < params.step_floor:
            break
        if step[side] < params.step_floor:
            side = 1 - side
        move += 1
        factor = 1.0 - step[side]
        new_w = width * factor if side == 0 else width
        new_h = height * factor if side == 1 else height
        tx, ty = xs.copy(), ys.copy()
        if min(new_w, new_h) >= 2.0 and _relax_core(tx, ty, new_w, new_h, params.relax_iters):
            xs, ys = tx, ty
            width, height = new_w, new_h
            trace.append((move, width, height, density()))
        else:
            step[side] *= 0.5
        side = 1 - side
    terminated = (
        Termination.STEP_FLOOR
        if step[0] < params.step_floor and step[1] < params.step_floor
        else Termination.MAX_MOVES
    )
    final = PackingRealization(centers=tuple(zip(xs, ys)), width=width, height=height)
    return CompactorRun(realization=final, terminated=terminated, trace=tuple(trace))


@dataclass(frozen=True, slots=True)
class BestOfReport:
    run: CompactorRun
    seed: int
    class_density: float

    @property
    def gap(self) -> float:
        return (self.class_density - self.run.density) / self.class_density

    @property
    def anomaly(self) -> bool:
        return self.run.density > self.class_density + 1e-6

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "density": self.run.density,
            "class_density": self.class_density,
            "gap": self.gap,
            "anomaly": self.anomaly,
            "moves_accepted": self.run.moves_accepted,
            "terminated": self.run.terminated.value,
        }


def best_of(params: CompactorParams, seed_count: int) -> BestOfReport:
    """Best of seed_count runs of params with seeds 0..seed_count-1, its own
    seed unused (ties keep the lower seed)."""
    if seed_count < 1:
        raise ValueError("seed_count must be >= 1")
    best_run: CompactorRun | None = None
    best_seed = -1
    for seed in range(seed_count):
        run = compact(replace(params, seed=seed))
        if best_run is None or run.density > best_run.density:
            best_run, best_seed = run, seed
    return BestOfReport(run=best_run, seed=best_seed,
                        class_density=search.best(params.n).density())
