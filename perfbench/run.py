"""rowpack benchmark: one command, four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run it from the repository root; it imports rowpack from ./src and changes
nothing outside the checkout (scratch files go to .perfbench_out/).

--trace 0 measures the end-to-end metrics of one workload.  The seed fixes
the workload's operations.  Each round runs in a fresh interpreter (so
nothing cached in one round can serve the next) and times every operation
on its own.  The first round runs all operations; each further round runs
the cheapest ones, by their first-round time, that fit in half the time
left of --seconds, so short operations, whose single timings are the
noisiest, get the most repeats.  Latencies are scaled to a reference CPU
speed (speed.py), and an operation's latency is its median over its
rounds.  setup_s is the median,
over SETUP_REPEATS fresh interpreters (half before the rounds, half after),
of the scaled time `import rowpack` takes.

--trace 1 is the separate traced run.  It runs one round of every workload
with spans and per-call profiles (each per-layer metric comes from the
workload that drives that layer, see README.md), plus one untraced round
of `point` to give the tracing overhead, so its metrics do not depend on
the named workload.  The spans and
per-module totals go to .perfbench_out/trace-<workload>-<seed>.json.

The last stdout line is the result object: correct, attempted, failed and
metrics.  Exit status 1 (and no result line) means the benchmark itself
could not run, for example because ./src/rowpack is missing.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import N_REFERENCE  # reference answers cover 1..N_REFERENCE

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("census", "point", "render", "compact")
# The whole run, setup probes included, must end within this.  The longest
# run is the traced one, at 70-80 s on the baseline machine (per_layer.wall_s
# in baseline/BENCH_*.json), which leaves room for a 1.7x slower phase.
TIME_LIMIT_S = 170.0
SETUP_REPEATS = 24
# Calibrate before and after the import; the speed module is stdlib-only.
SETUP_PROBE = (
    f"import sys, time; sys.path.insert(0, {str(HERE)!r}); import speed; "
    "before = speed.calibrate(); t = time.perf_counter(); import rowpack; "
    "took = time.perf_counter() - t; unit = (before + speed.calibrate()) / 2; "
    "sys.stdout.write(f'{took * speed.CAL_REFERENCE_S / unit!r} {rowpack.__file__}')"
)
CLI_PROBE = (
    "import sys, time; t = time.perf_counter(); import rowpack.cli; "
    "sys.stdout.write(repr(time.perf_counter() - t))"
)


class BenchError(RuntimeError):
    pass


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--queries", type=int, default=2000, help="point: distinct n per round")
    p.add_argument("--point-max", type=int, default=5000, help="point: n drawn from 1..this")
    p.add_argument("--census-max", type=int, default=5000, help="census: scan 1..this")
    p.add_argument("--render-count", type=int, default=60, help="render: packings per round")
    p.add_argument("--render-min", type=int, default=10)
    p.add_argument("--render-max", type=int, default=3000)
    p.add_argument("--compact-max-n", type=int, default=8, help="compact: n = 1..this")
    p.add_argument("--compact-seeds", type=int, default=10, help="compact: seeds per n")
    args = p.parse_args(argv)
    checks = [
        (args.seed >= 0, "--seed must be >= 0"),
        (args.seconds > 0, "--seconds must be positive"),
        (1 <= args.queries <= args.point_max <= N_REFERENCE,
         f"need 1 <= --queries <= --point-max <= {N_REFERENCE}"),
        (1 <= args.census_max <= N_REFERENCE, f"need 1 <= --census-max <= {N_REFERENCE}"),
        (args.render_count >= 1, "--render-count must be >= 1"),
        (1 <= args.render_min <= args.render_max <= N_REFERENCE,
         f"need 1 <= --render-min <= --render-max <= {N_REFERENCE}"),
        (1 <= args.compact_max_n <= N_REFERENCE and args.compact_seeds >= 1,
         "--compact-max-n and --compact-seeds must be >= 1"),
    ]
    for ok, message in checks:
        if not ok:
            p.error(message)
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Starts the child interpreters, each within what is left of the time limit."""

    def __init__(self) -> None:
        self.env = child_env()
        self.deadline = time.monotonic() + TIME_LIMIT_S

    def python(self, *args: str) -> str:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
        try:
            proc = subprocess.run(
                [sys.executable, "-s", *args], cwd=ROOT, env=self.env,
                capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached") from exc
        if proc.returncode != 0:
            raise BenchError(f"child failed ({proc.returncode}):\n{proc.stderr.strip()}")
        return proc.stdout

    def round(self, workload: str, seed: int, trace: bool, sizes: dict, only=None) -> dict:
        spec = {"workload": workload, "seed": seed, "trace": trace, "only": only, "sizes": sizes}
        return json.loads(self.python(str(HERE / "workloads.py"), json.dumps(spec)).splitlines()[-1])



def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples beyond it.

    With ten or fewer samples no such percentile exists; the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_times(runner: Runner, count: int) -> list[float]:
    times = []
    for _ in range(count):
        seconds, path = runner.python("-c", SETUP_PROBE).split(" ", 1)
        if SRC.resolve() not in Path(path).resolve().parents:
            raise BenchError(f"imported rowpack from {path}, not from {SRC}")
        times.append(float(seconds))
    return times


def measured(args, sizes: dict, runner: Runner) -> tuple[dict, list[str]]:
    # Half the setup probes run before the rounds and half after, so that they
    # sample two phases of the machine's speed, which the calibration only
    # partly removes from an import.
    setup = setup_times(runner, SETUP_REPEATS // 2)

    start = time.perf_counter()
    rounds = [runner.round(args.workload, args.seed, False, sizes)]
    first = rounds[0]["raw_s"]
    overhead = time.perf_counter() - start - sum(filter(None, first))
    cheapest = sorted((t, i) for i, t in enumerate(first) if t is not None)
    samples = [[t] if t is not None else [] for t in rounds[0]["lat_s"]]
    while True:
        # Each further round gets half of the time left (all of it if the
        # cheapest operation needs more), so the cheaper an operation, the
        # more rounds time it.
        left = args.seconds - (time.perf_counter() - start) - overhead
        if not cheapest or cheapest[0][0] > left:
            break
        budget = left / 2 if cheapest[0][0] <= left / 2 else left
        chosen = []
        for t, i in cheapest:
            budget -= t
            if budget < 0:
                break
            chosen.append(i)
        chosen.sort()
        rounds.append(runner.round(args.workload, args.seed, False, sizes, only=chosen))
        for i, t in zip(chosen, rounds[-1]["lat_s"]):
            if t is not None:
                samples[i].append(t)

    setup += setup_times(runner, SETUP_REPEATS - len(setup))

    # an operation's latency is its median over its rounds; skip one that always raised
    lat = [statistics.median(times) for times in samples if times]
    if not lat:
        raise BenchError("no operation completed")
    ops = len(lat) * rounds[0]["ops_per_sample"]
    busy = sum(lat)
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": ops / busy,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": max(r["rss_mb"] for r in rounds),
    }
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    notes = [
        f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
        f"{sum(map(len, samples))} timings; {ops} ops take {busy:.3f} s scaled, "
        f"{sum(filter(None, first)):.3f} s of wall time in round 0; median speed "
        f"{statistics.median(r['speed'] for r in rounds):.3f} of the reference",
        f"op_tail_ms is p{tail_pct:.2f} of {len(lat)} per-op latencies",
        f"error_rate = {failed}/{attempted} = {failed / attempted:.6g}",
    ]
    quality = rounds[0]["quality"]
    if quality:
        notes.append("round 0: " + ", ".join(f"{k} = {v}" for k, v in quality.items()))
    notes += [e for r in rounds for e in r["errors"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v} for k, v in metrics.items()},
    }
    return result, notes


def traced(args, sizes: dict, runner: Runner) -> tuple[dict, list[str]]:
    plain = runner.round("point", args.seed, False, sizes)
    rounds = {w: runner.round(w, args.seed, True, sizes) for w in WORKLOADS}
    layer = {}
    for r in rounds.values():
        layer.update(r["layer"])
    for r in [plain, *rounds.values()]:
        r["raw_s"] = sum(filter(None, r["raw_s"]))
    layer["trace.overhead_ratio"] = rounds["point"]["raw_s"] / plain["raw_s"]
    layer["cli.import_s"] = statistics.median(float(runner.python("-c", CLI_PROBE)) for _ in range(3))

    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "sizes": sizes,
        "untraced_point_busy_s": plain["raw_s"],
        "layer_metrics": layer,
        "workloads": {
            w: {"busy_s": r["raw_s"], "modules": r["modules"], "counted": r["counted"], "spans": r["spans"]}
            for w, r in rounds.items()
        },
    }
    report_path.write_text(json.dumps(report), encoding="utf-8")

    notes = [f"trace report: {report_path.relative_to(ROOT)}"]
    for w, r in rounds.items():
        mods = sorted(r["modules"].items(), key=lambda kv: -kv[1]["self_s"])
        parts = [f"{m} {v['self_s']:.3f} s / {v['calls']}" for m, v in mods]
        parts += [f"{k} (counted) {s:.3f} s / {c}" for k, (c, s) in r["counted"].items()]
        notes.append(
            f"{w}: {len(r['spans'])} spans, {r['raw_s']:.3f} s busy traced; time / calls: "
            + ", ".join(parts)
        )
    notes.append(
        f"tracing overhead on point: {rounds['point']['raw_s']:.3f} s traced "
        f"vs {plain['raw_s']:.3f} s untraced"
    )
    everything = [plain, *rounds.values()]
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    notes += [e for r in everything for e in r["errors"]]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v} for k, v in sorted(layer.items())},
    }
    return result, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rowpack" / "__init__.py").is_file():
        print(f"run.py: no rowpack sources under {SRC}; run from a rowpack checkout", file=sys.stderr)
        return 1
    sizes = {
        "queries": args.queries, "point_max": args.point_max, "census_max": args.census_max,
        "render_count": args.render_count, "render_min": args.render_min,
        "render_max": args.render_max, "compact_max_n": args.compact_max_n,
        "compact_seeds": args.compact_seeds,
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    try:
        result, notes = (traced if args.trace else measured)(args, sizes, Runner())
        if set(result["metrics"]) != set(units):
            raise BenchError(f"metrics {sorted(result['metrics'])} differ from BENCHMARK.json {sorted(units)}")
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        metric["unit"] = units[name]
    for note in notes:
        print(note)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
