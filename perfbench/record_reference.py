"""Record the reference answers the benchmark verifies outputs against.

Run from the repository root at a commit whose outputs are trusted:

    python3 perfbench/record_reference.py

It writes perfbench/reference/results.txt: one row per n in 1..5000 with
a digest of the n-th JSONL line that `rowpack range` writes, min_d,
and whether some argmin config is a holed even-h
block with short rows (the `even_h_holed` milestone).  The census, point
and render workloads compare their answers with these rows.
"""
from __future__ import annotations

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from rowpack import search  # noqa: E402

from workloads import N_REFERENCE, REFERENCE, even_h_holed, line_digest  # noqa: E402


def main() -> None:
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE.parent, capture_output=True, text=True
    ).stdout.strip() or "unknown"
    rows = [
        f"# rowpack reference answers for n = 1..{N_REFERENCE}",
        f"# commit {sha}, Python {platform.python_version()}, numpy {np.__version__}",
        "# n digest min_d even_h_holed",
    ]
    for r in search.scan_range(1, N_REFERENCE):
        rows.append(
            f"{r.n} {line_digest(search.result_to_json(r))} {r.min_d} {int(even_h_holed(r))}"
        )
    REFERENCE.write_text("\n".join(rows) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
