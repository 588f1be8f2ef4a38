"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --label seed --seeds 1-10

For every workload it runs run.py once per seed (end-to-end metrics), then
one traced run (which covers every workload's layers), and writes
perfbench/baseline/BENCH_<label>.json: each metric's values, median and
interquartile spread as a share of the median (statistics.quantiles, n=4),
and the wall time of every run, next to the git sha, Python and numpy
versions and the core count.  A later change quotes its delta against such
a file measured on the same machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("census", "point", "render", "compact")


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result object of one run.py run, with its wall time added as "wall_s"."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med, "values": values}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = seed_list(args.seeds)
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    record = {
        "git_sha": sha.stdout.strip() or "unknown",
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "nproc": os.cpu_count(),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "workloads": {},
    }
    for w in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(run(w, seed, bench["run_seconds"], 0))
            print(w, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        metrics = {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                   for m in bench["end_to_end"]}
        record["workloads"][w] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "wall_s": [r["wall_s"] for r in runs],
            "end_to_end": metrics,
        }
        for name, s in metrics.items():
            print(f"{w} {name}: median {s['median']:.6g}, spread {s['iqr_share']:.4f}", flush=True)
    workloads = list(record["workloads"])
    traced = run(workloads[0], seeds[0], bench["run_seconds"], 1)
    record["per_layer"] = {
        "workload": workloads[0], "seed": seeds[0], "correct": traced["correct"],
        "wall_s": traced["wall_s"],
        "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
    }
    out = HERE / "baseline" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
