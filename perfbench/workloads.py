"""One round of one benchmark workload, run in a fresh interpreter by run.py.

    python3 perfbench/workloads.py '{"workload": "point", "seed": 1, "trace": false,
                                     "only": null, "sizes": {...}}'

The inputs are a pure function of (workload, seed, sizes), so every round
of a run repeats the same operations, all of them or the subset `only`
names (indices into the inputs).  Every operation is timed on its own
and its output is checked against the reference answers in
reference/results.txt or against an independent geometry check; the checks
run outside the timed region.  The last stdout line is one JSON object:
per-op latencies in input order, scaled by the speed probe (null where the
op raised), the same without scaling, failures, peak RSS and, for a traced
round, spans, per-module profile totals, the counted kernels and the
per-layer metrics this workload drives.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference" / "results.txt"
N_REFERENCE = 5000
# The acceptance gate's compactor parameters (tests/test_acceptance.py).
COMPACT_PARAMS = dict(slack=3.0, shrink_step=0.3, relax_iters=400, step_floor=1e-7, max_moves=2000)
WALL_TOL = 1e-9
ANOMALY_TOL = 1e-6
RENDER_JITTER = 0.2  # share of a stratum the seed may move a render n within
_STREAM = {"census": 0, "point": 1, "render": 2, "compact": 3}


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def line_digest(line: dict) -> str:
    """Digest of one results line, serialized exactly as write_results does."""
    return text_digest(json.dumps(line, separators=(",", ":")))


def even_h_holed(result) -> bool:
    return any(c.d >= 1 and c.h % 2 == 0 and c.h_minus > 0 for c in result.argmin)


def load_reference() -> dict[int, tuple[str, int, bool]]:
    ref = {}
    for row in REFERENCE.read_text(encoding="utf-8").splitlines():
        if row.startswith("#"):
            continue
        n, digest, min_d, even = row.split()
        ref[int(n)] = (digest, int(min_d), even == "1")
    return ref


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload]])


# inputs ----------------------------------------------------------------------


def point_inputs(seed: int, sizes: dict) -> list[int]:
    """`queries` distinct n from 1..point_max, drawn without replacement."""
    pool = np.arange(1, sizes["point_max"] + 1)
    return _rng("point", seed).choice(pool, size=sizes["queries"], replace=False).tolist()


def render_inputs(seed: int, sizes: dict) -> list[int]:
    """`render_count` n on a log-spaced grid over [render_min, render_max], jittered by the seed.

    Each n sits in its own log-width stratum at the centre +- RENDER_JITTER/2
    of the stratum.  Latency grows as n^2, and the median and tail
    operations are single strata: drawn uniformly within a stratum they made
    op_p50_ms vary by 15% between seeds; the narrow jitter keeps the seed's
    choice of n while holding that variation to a few percent.  The order
    is shuffled.
    """
    rng = _rng("render", seed)
    k = sizes["render_count"]
    lo, hi = math.log(sizes["render_min"]), math.log(sizes["render_max"])
    u = (np.arange(k) + 0.5 + RENDER_JITTER * (rng.random(k) - 0.5)) / k
    ns = np.rint(np.exp(lo + u * (hi - lo))).astype(int)
    rng.shuffle(ns)
    return ns.tolist()


def compact_inputs(seed: int, sizes: dict) -> list[tuple[int, int]]:
    """(n, compactor seed) for n in 1..compact_max_n and seeds 0..compact_seeds-1.

    The compactor seeds are fixed, as in `best_of`: a run's cost is heavy
    tailed (a run that exits on max_moves costs ~100x one that reaches the
    step floor), so seeds drawn per workload seed would make the work vary
    severalfold between workload seeds.  The workload seed sets the order.
    """
    pairs = [(n, s) for n in range(1, sizes["compact_max_n"] + 1) for s in range(sizes["compact_seeds"])]
    order = _rng("compact", seed).permutation(len(pairs))
    return [pairs[i] for i in order]


# checks ----------------------------------------------------------------------


def max_violation(centers, width: float, height: float) -> float:
    """Independent check: worst wall overshoot or pair overlap depth (numpy).

    Sorted by x, a pair can overlap only if it lies fewer than
    `span` places apart, where `span` is the most points within a 2-wide x
    window; comparing each point with the next 1..span-1 points covers
    every such pair in O(n * span) vectorised work.
    """
    pts = np.asarray(centers, dtype=float).reshape(-1, 2)
    worst = max(
        0.0,
        float(1.0 - pts[:, 0].min()),
        float(1.0 - pts[:, 1].min()),
        float(pts[:, 0].max() - (width - 1.0)),
        float(pts[:, 1].max() - (height - 1.0)),
    )
    pts = pts[np.argsort(pts[:, 0], kind="stable")]
    x, y = pts[:, 0], pts[:, 1]
    span = int((np.searchsorted(x, x + 2.0) - np.arange(len(x))).max())
    for k in range(1, span):
        d2 = (x[k:] - x[:-k]) ** 2 + (y[k:] - y[:-k]) ** 2
        worst = max(worst, 2.0 - math.sqrt(float(d2.min())))
    return worst


class Round:
    """What one round reports: latencies, failures, and (traced) layer metrics."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float] | None] = []  # (start, end) per op
        self.ops_per_sample = 1
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.quality: dict = {}
        self.layer: dict = {}

    def timed(self, t0: float) -> None:
        self.spans.append((t0, time.perf_counter()))

    def crashed(self, message: str, count: int = 1) -> None:
        self.spans.append(None)
        self.fail(message, count)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 10:
            self.errors.append(message)


# workloads -------------------------------------------------------------------


def census(api, sizes: dict, ref: dict, out: Round) -> None:
    """The reproduction job: scan 1..census_max, JSONL round trip, milestones, both tables."""
    from rowpack import search, tables

    hi = sizes["census_max"]
    scan = api.wrap("search.scan_range", search.scan_range)
    write = api.wrap("search.write_results", search.write_results)
    read = api.wrap("search.read_results", search.read_results)
    milestones = api.wrap("search.milestones", search.milestones)
    reproduce = api.wrap("tables.reproduce", tables.reproduce)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"census-{os.getpid()}.jsonl"
    out.ops_per_sample = hi
    out.attempted += hi
    try:
        t0 = time.perf_counter()
        with api.op("census"):
            results = scan(1, hi, jobs=1)
            write(results, path)
            back = read(path)
            marks = milestones(hi, results=back)
            reports = [reproduce(1), reproduce(2)]
        out.timed(t0)
    except Exception:
        path.unlink(missing_ok=True)
        out.crashed(f"census: {traceback.format_exc(limit=1)}", hi)
        return
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        bad = sum(1 for n, line in enumerate(lines[:hi], 1) if text_digest(line) != ref[n][0])
        bad += abs(len(lines) - hi)
        if bad:
            out.fail(f"census: {bad} JSONL lines differ from the reference", bad)
        if back != results:
            out.fail("census: read_results does not return what was written")
        if marks.to_json() != expected_milestones(ref, hi):
            out.fail(f"census: milestones {marks.to_json()} differ from the reference")
        for rep in reports:
            if not rep.ok:
                out.fail(f"census: table {rep.which} report is not ok")
        irregular = sum(1 for r in results if r.classification.value != "regular")
        out.quality = {"irregular": irregular, "max_min_d": marks.max_min_d}

        if api.traced:
            jobs2 = api.wrap("search.scan_range_jobs2", search.scan_range, profile=False)
            if jobs2(1, hi, jobs=2) != results:
                out.fail("census: scan_range(jobs=2) differs from jobs=1")
            configs = api.calls("packings", "ClassConfig.__post_init__", ["search.scan_range"])
            out.layer = {
                "search.scan_range.busy_s": api.busy("search.scan_range"),
                "search.scan_range_jobs2.busy_s": api.busy("search.scan_range_jobs2"),
                "search.best.calls": api.calls("search", "best"),
                "search.self_s": api.self_s("search"),
                "packings.configs_built": configs,
                "search.argmin_yield": sum(len(r.argmin) for r in results) / configs,
                "quadint.calls": api.calls("quadint"),
                "quadint.self_s": api.self_s("quadint"),
                "search.write_results.busy_s": api.busy("search.write_results"),
                "search.write_results.bytes": path.stat().st_size,
                "search.read_results.busy_s": api.busy("search.read_results"),
                "search.milestones.busy_s": api.busy("search.milestones"),
                "tables.reproduce.busy_s": api.busy("tables.reproduce"),
            }
    finally:
        path.unlink(missing_ok=True)


def expected_milestones(ref: dict, hi: int) -> dict:
    ns = range(1, hi + 1)
    return {
        "n_hi": hi,
        "even_h_holed": next((n for n in ns if ref[n][2]), None),
        "first_min_d": {str(k): next((n for n in ns if ref[n][1] == k), None) for k in (2, 3, 4, 5)},
        "max_min_d": max(ref[n][1] for n in ns),
    }


def point(api, inputs: list[int], ref: dict, out: Round) -> None:
    """One query = best(n) then result_to_json; the answer must equal the reference line."""
    from rowpack import search

    best = api.wrap("search.best", search.best)
    to_json = api.wrap("search.result_to_json", search.result_to_json)
    for n in inputs:
        out.attempted += 1
        try:
            t0 = time.perf_counter()
            with api.op("point"):
                line = to_json(best(n))
            out.timed(t0)
        except Exception:
            out.crashed(f"point n={n}: {traceback.format_exc(limit=1)}")
            continue
        if line_digest(line) != ref[n][0]:
            out.fail(f"point n={n}: answer differs from the reference")
    if api.traced:
        out.layer = {
            "search.best.busy_s": api.busy("search.best"),
            "search.result_to_json.busy_s": api.busy("search.result_to_json"),
            "improve.self_s": api.self_s("improve"),
        }


def render(api, inputs: list[int], ref: dict, out: Round) -> None:
    """One op = best(n).argmin[0].coordinates() then to_svg; geometry checked independently."""
    from rowpack import packings, render as render_mod, search

    best = api.wrap("search.best", search.best)
    coordinates = api.wrap("packings.coordinates", packings.ClassConfig.coordinates)
    to_svg = api.wrap("render.to_svg", render_mod.to_svg)
    pair_checks = 0
    svg_bytes = 0
    for n in inputs:
        out.attempted += 1
        try:
            t0 = time.perf_counter()
            with api.op("render"):
                result = best(n)
                cfg = result.argmin[0]
                real = coordinates(cfg)
                svg = to_svg(real)
            out.timed(t0)
        except Exception:
            out.crashed(f"render n={n}: {traceback.format_exc(limit=1)}")
            continue
        problems = []
        if line_digest(search.result_to_json(result)) != ref[n][0]:
            problems.append("search answer differs from the reference")
        if len(real.centers) != n:
            problems.append(f"{len(real.centers)} circles")
        if max_violation(real.centers, real.width, real.height) > WALL_TOL:
            problems.append("invalid realization")
        if real.width != float(cfg.width_units) or real.height != cfg.height().to_float():
            problems.append("box differs from the exact config")
        if svg.count("<circle") != n + len(real.holes):
            problems.append("SVG circle count")
        if problems:
            out.fail(f"render n={n}: " + ", ".join(problems))
        if api.traced:
            checks = api.last.get(("packings", "PackingRealization.max_violation"), (0,))[0]
            pair_checks += checks * n * (n - 1) // 2
            svg_bytes += len(svg.encode())
    if api.traced:
        out.layer = {
            "packings.coordinates.busy_s": api.busy("packings.coordinates"),
            "packings.max_violation.self_s": api.self_s("packings", "PackingRealization.max_violation"),
            "packings.pair_checks": pair_checks,
            "render.to_svg.busy_s": api.busy("render.to_svg"),
            "render.svg_bytes": svg_bytes,
        }


def compact(api, inputs: list[tuple[int, int]], ref: dict, out: Round) -> None:
    """One op = one compactor run at the acceptance-gate parameters."""
    from rowpack import compactor, search

    class_density = {}
    for n in sorted({n for n, _ in inputs}):
        result = search.best(n)
        if line_digest(search.result_to_json(result)) != ref[n][0]:
            out.fail(f"compact n={n}: class optimum differs from the reference")
        class_density[n] = result.density()

    # Profiling would slow the round from ~16 s to ~37 s; count the kernel instead.
    run_compact = api.wrap("compactor.compact", compactor.compact, profile=False)
    if api.traced:
        api.count(compactor, "_relax_core")
        api.count(compactor, "random_start")
    best_density = dict.fromkeys(class_density, 0.0)
    accepted = max_moves_exits = 0
    for n, seed in inputs:
        out.attempted += 1
        params = compactor.CompactorParams(n=n, seed=seed, **COMPACT_PARAMS)
        try:
            t0 = time.perf_counter()
            with api.op("compact"):
                run = run_compact(params)
            out.timed(t0)
        except Exception:
            out.crashed(f"compact n={n} seed={seed}: {traceback.format_exc(limit=1)}")
            continue
        real = run.realization
        if len(real.centers) != n or max_violation(real.centers, real.width, real.height) > WALL_TOL:
            out.fail(f"compact n={n} seed={seed}: final state is invalid")
        if run.density > class_density[n] + ANOMALY_TOL:
            out.fail(f"compact n={n} seed={seed}: density {run.density} beats the class optimum")
        best_density[n] = max(best_density[n], run.density)
        accepted += run.moves_accepted
        max_moves_exits += run.terminated is compactor.Termination.MAX_MOVES
    gaps = {n: (d - best_density[n]) / d for n, d in class_density.items()}
    out.quality = {"gap_max": max(gaps.values()), "gap_max_n": max(gaps, key=gaps.get)}
    if api.traced:
        relax_calls, relax_s = api.counted["compactor._relax_core"]
        out.layer = {
            "compactor.relax_calls": relax_calls,
            "compactor.moves_accepted": accepted,
            "compactor.accept_ratio": accepted / relax_calls,
            "compactor.max_moves_exits": max_moves_exits,
            "compactor.relax.busy_s": relax_s,
            "compactor.random_start.busy_s": api.counted["compactor.random_start"][1],
            "compactor.gap_max": out.quality["gap_max"],
        }


INPUTS = {"point": point_inputs, "render": render_inputs, "compact": compact_inputs}
WORKLOADS = {"census": census, "point": point, "render": render, "compact": compact}


def main(spec: dict) -> dict:
    import rowpack
    from speed import SpeedProbe
    from tracing import NullTracer, Tracer

    src = (ROOT / "src").resolve()
    if src not in Path(rowpack.__file__).resolve().parents:
        raise SystemExit(f"imported rowpack from {rowpack.__file__}, not from {src}")
    name, sizes = spec["workload"], spec["sizes"]
    ref = load_reference()
    api = Tracer() if spec["trace"] else NullTracer()
    out = Round()
    if name == "census":
        args = (sizes,)
    else:
        inputs = INPUTS[name](spec["seed"], sizes)
        only = spec.get("only")
        args = (inputs if only is None else [inputs[i] for i in only],)
    if api.traced:
        WORKLOADS[name](api, *args, ref, out)
        lat = raw = [span and span[1] - span[0] for span in out.spans]
        speed = None
    else:
        with SpeedProbe() as probe:
            WORKLOADS[name](api, *args, ref, out)
        lat = [span and probe.scaled(*span) for span in out.spans]
        raw = [span and probe.own(*span) for span in out.spans]
        speed = probe.speed()
    report = {
        "ops_per_sample": out.ops_per_sample,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
        "lat_s": lat,
        "raw_s": raw,
        "speed": speed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "quality": out.quality,
    }
    if api.traced:
        report.update(layer=out.layer, spans=api.spans, modules=api.modules(), counted=api.counted)
    return report


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
