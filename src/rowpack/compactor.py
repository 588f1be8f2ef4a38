"""Desk-scale stochastic compactor: walls press on circles until they jam.

A run starts from a seeded random sparse arrangement, then alternately
proposes shrinking the width or the height wall pair by the current relative
step.  A proposal moves the walls only; an iterative relaxation (clamp into
the box, then Gauss-Seidel separation of overlapping pairs) must drive the
worst violation below 1e-9 within the iteration budget, otherwise the
proposal is reverted and that side's step is halved.  A run terminates when
both steps drop below step_floor, or when the move budget runs out.  The
hard-collision dynamics of a real compactor are replaced by this feasibility
projection: the contract (never any overlap, walls only press, jamming
terminates) is the same, and the projection is deterministic.

Randomness comes from numpy's default_rng (PCG64) seeded per run, so
identical parameters reproduce byte-identical traces on any platform.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import search
from .packings import PackingRealization, max_violation

_TOL = 1e-9


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
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if not self.slack > 1.0:
            raise ValueError("slack must exceed 1 (start from a feasible, sparse box)")
        if not (0.0 < self.shrink_step < 1.0):
            raise ValueError("shrink_step must be in (0, 1)")
        if not self.step_floor < self.shrink_step:
            raise ValueError("step_floor must be below shrink_step")
        if self.relax_iters < 1 or self.max_moves < 1:
            raise ValueError("iteration budgets must be positive")


class Termination(Enum):
    STEP_FLOOR = "step_floor"
    MAX_MOVES = "max_moves"


@dataclass(frozen=True, slots=True)
class CompactorRun:
    realization: PackingRealization
    density: float
    moves_accepted: int
    terminated: Termination
    trace: tuple[tuple[int, float, float, float], ...]  # (move, width, height, density)

    def trace_csv(self) -> str:
        lines = ["move,width,height,density"]
        for move, w, h, dens in self.trace:
            lines.append(f"{move},{w!r},{h!r},{dens!r}")
        return "\n".join(lines) + "\n"


def random_start(
    n: int, seed: int, slack: float = 3.0, opt_area: float | None = None
) -> PackingRealization:
    """Seeded rejection-sampled sparse start in a box of slack x optimal area.

    The aspect ratio is drawn uniformly from [0.2, 1.0], with the lower end
    clamped to 4/area so the box always has room for one circle.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not slack > 1.0:
        raise ValueError("slack must exceed 1")
    if opt_area is None:
        opt_area = search.best(n).min_area.to_float()
    rng = np.random.default_rng(seed)
    area = slack * opt_area
    aspect = rng.uniform(max(0.2, 4.0 / area), 1.0)
    width = math.sqrt(area / aspect)
    height = math.sqrt(area * aspect)

    pts = np.empty((n, 2))
    placed = 0
    attempts = 0
    stuck = 0
    while placed < n:
        attempts += 1
        if attempts > 1_000_000:
            raise ValueError(
                f"could not place {n} circles after 1e6 attempts; increase slack"
            )
        x = rng.uniform(1.0, width - 1.0)
        y = rng.uniform(1.0, height - 1.0)
        if placed:
            d2 = (pts[:placed, 0] - x) ** 2 + (pts[:placed, 1] - y) ** 2
            if d2.min() < 4.0:
                stuck += 1
                if stuck > 500:  # earlier circles boxed this one out: start over
                    placed = 0
                    stuck = 0
                continue
        pts[placed] = (x, y)
        placed += 1
        stuck = 0
    return PackingRealization(
        centers=tuple(map(tuple, pts.tolist())), width=width, height=height
    )


def _relax_core(pts: np.ndarray, width: float, height: float, iters: int) -> bool:
    """Project pts into a feasible state for the box; True on success.

    Clamps into the wall-offset box, then separates overlapping pairs
    symmetrically along their center line, in fixed index order, repeating
    until the worst violation is below 1e-9 or the budget is spent.  The
    separation is one plain-Python loop over all pairs.  True is returned
    only when packings.max_violation(pts, width, height) <= _TOL on the
    final pts, so it certifies that the state left in pts is valid for the
    box; callers need not check again.
    """
    if width < 2.0 - _TOL or height < 2.0 - _TOL:
        return False
    n = len(pts)
    xlo, xhi = 1.0, width - 1.0
    ylo, yhi = 1.0, height - 1.0
    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist()
    rng_n = range(n)
    best_worst = math.inf
    since_improve = 0
    for _ in range(iters):
        for i in rng_n:
            x = xs[i]
            xs[i] = xlo if x < xlo else (xhi if x > xhi else x)
            y = ys[i]
            ys[i] = ylo if y < ylo else (yhi if y > yhi else y)
        worst = 0.0
        for i in rng_n:
            xi = xs[i]
            yi = ys[i]
            for j in range(i + 1, n):
                dx = xi - xs[j]
                dy = yi - ys[j]
                d2 = dx * dx + dy * dy
                if d2 >= 4.0:
                    continue
                dist = math.sqrt(d2)
                gap = 2.0 - dist
                if gap > worst:
                    worst = gap
                if dist == 0.0:
                    ux, uy = 1.0, 0.0  # coincident: deterministic separation axis
                else:
                    ux, uy = dx / dist, dy / dist
                push = 0.5 * gap
                xi = xi + ux * push
                yi = yi + uy * push
                xs[j] -= ux * push
                ys[j] -= uy * push
            xs[i] = xi
            ys[i] = yi
        if worst <= _TOL:
            pts[:, 0] = xs
            pts[:, 1] = ys
            np.clip(pts[:, 0], xlo, xhi, out=pts[:, 0])
            np.clip(pts[:, 1], ylo, yhi, out=pts[:, 1])
            if max_violation(pts, width, height) <= _TOL:
                return True
            xs = pts[:, 0].tolist()
            ys = pts[:, 1].tolist()
        # stalled separation means an infeasible proposal: fail early
        if worst < 0.97 * best_worst:
            best_worst = worst
            since_improve = 0
        else:
            since_improve += 1
            if since_improve > 60:
                break
    pts[:, 0] = xs
    pts[:, 1] = ys
    return max_violation(pts, width, height) <= _TOL


def relax(realization: PackingRealization, iters: int = 2000) -> tuple[bool, PackingRealization]:
    """Separate overlaps and re-box the centers; flag reports success."""
    pts = np.array(realization.centers, dtype=float).reshape(-1, 2)
    ok = _relax_core(pts, realization.width, realization.height, iters)
    return ok, PackingRealization(
        centers=tuple(map(tuple, pts.tolist())),
        width=realization.width,
        height=realization.height,
    )


def compact(params: CompactorParams) -> CompactorRun:
    """One deterministic compactor run."""
    start = random_start(params.n, params.seed, params.slack)
    pts = np.array(start.centers, dtype=float).reshape(-1, 2)
    width, height = start.width, start.height
    n = params.n

    def density() -> float:
        return n * math.pi / (width * height)

    step = [params.shrink_step, params.shrink_step]  # width side, height side
    trace = [(0, width, height, density())]
    accepted = 0
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
        trial = pts.copy()
        if min(new_w, new_h) >= 2.0 and _relax_core(trial, new_w, new_h, params.relax_iters):
            pts = trial
            width, height = new_w, new_h
            accepted += 1
            trace.append((move, width, height, density()))
        else:
            step[side] *= 0.5
        side = 1 - side
    terminated = (
        Termination.STEP_FLOOR
        if step[0] < params.step_floor and step[1] < params.step_floor
        else Termination.MAX_MOVES
    )
    final = PackingRealization(
        centers=tuple(map(tuple, pts.tolist())), width=width, height=height
    )
    return CompactorRun(
        realization=final,
        density=density(),
        moves_accepted=accepted,
        terminated=terminated,
        trace=tuple(trace),
    )


@dataclass(frozen=True, slots=True)
class BestOfReport:
    run: CompactorRun
    seed: int
    class_density: float
    gap: float            # (class optimum - best run) / class optimum
    anomaly: bool         # run beat the class optimum by more than 1e-6

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


def best_of(
    n: int, seed_count: int, params_template: CompactorParams | None = None
) -> BestOfReport:
    """Best of seed_count runs (seeds 0..seed_count-1; ties keep the lower seed)."""
    if seed_count < 1:
        raise ValueError("seed_count must be >= 1")
    if params_template is None:
        params_template = CompactorParams(n=n, seed=0)
    best_run: CompactorRun | None = None
    best_seed = -1
    for seed in range(seed_count):
        run = compact(replace(params_template, n=n, seed=seed))
        if best_run is None or run.density > best_run.density:
            best_run, best_seed = run, seed
    opt = search.best(n).density()
    return BestOfReport(
        run=best_run,
        seed=best_seed,
        class_density=opt,
        gap=(opt - best_run.density) / opt,
        anomaly=best_run.density > opt + 1e-6,
    )
