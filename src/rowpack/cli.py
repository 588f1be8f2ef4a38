"""Command-line surface: searches, range scans, reproduction reports, tools.

Range commands each reduce one `search.iter_range` stream that fans out
over processes (--jobs, default the core count; at most one process per
core and per block of `search.BLOCK` n); parallel and serial runs write
byte-identical files.  Each passes the stream a view, which the workers
apply, so they send back each n's finished line or milestone mark and the
parent only counts, folds and writes.  `_emit` writes every output as it is
produced: `range`, `irregular` and `aspect` write each line as its block of
n arrives, so memory stays flat at both job counts (31 MB peak RSS over
1..300000 at --jobs 1, as for `milestones`; over 1..10^6, 30 MB at
--jobs 1 and 38 MB in the largest process at --jobs 2).  `main` opens
--out once, before the command runs, for appending, which changes nothing;
`_emit` empties it only once the first chunk is made, and a failed command
removes a file `main` created.  `main` reports every failure (a failed
allocation too) as one `error:` line with exit status 2.  Compactor
commands require exactly one of --seed and --seeds.  Exit status is nonzero
whenever a reproduction report falls short.  `import rowpack.cli` loads
only the search; each command imports the other modules it runs (tables,
theory, render, the compactor) when it runs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterable
from contextlib import nullcontext, suppress
from typing import TextIO

from . import search


def _emit(chunks: Iterable[str], out: TextIO | None) -> None:
    """Write chunks to the opened --out file, or to stdout, as they are
    produced.  The first chunk is made before an existing file is emptied, so
    a command that fails before its first output leaves it as it was."""
    chunks = iter(chunks)
    first = next(chunks, "")
    if out and out.seekable() and out.tell():  # not a FIFO or /dev/null
        out.truncate(0)  # append mode: the writes then start at 0
    fh = out or sys.stdout
    fh.write(first)
    fh.writelines(chunks)


def cmd_search(args: argparse.Namespace) -> int:
    result = search.best(args.n)
    _emit([json.dumps(search.result_to_json(result), indent=2) + "\n"], args.out)
    return 0


def _class_and_line(result: search.SearchResult) -> tuple[str, str]:
    return result.classification.value, search.result_to_line(result)


def _irregular_n(result: search.SearchResult) -> str:
    return "" if result.classification is search.Classification.REGULAR else f"{result.n}\n"


def cmd_range(args: argparse.Namespace) -> int:
    pairs = search.iter_range(args.n_lo, args.n_hi, jobs=args.jobs, view=_class_and_line)
    counts = {"regular": 0, "may_hole": 0, "must_hole": 0}

    def lines():
        for cls, line in pairs:
            counts[cls] += 1
            yield line

    _emit(lines(), args.out)
    summary = {"from": args.n_lo, "to": args.n_hi, "counts": counts,
               "irregular": counts["may_hole"] + counts["must_hole"]}
    print(json.dumps(summary), file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    from . import tables

    report = tables.reproduce(args.which)
    _emit([json.dumps(report.to_json(), indent=2) + "\n"], args.out)
    return 0 if report.ok else 1


def cmd_irregular(args: argparse.Namespace) -> int:
    _emit(search.iter_range(args.n_lo, args.n_hi, jobs=args.jobs, view=_irregular_n), args.out)
    return 0


def cmd_milestones(args: argparse.Namespace) -> int:
    marks = search.iter_range(1, args.n_hi, jobs=args.jobs, view=search.milestone_mark)
    report = search.fold_milestones(args.n_hi, marks)
    _emit([json.dumps(report.to_json(), indent=2) + "\n"], args.out)
    return 0


def cmd_aspect(args: argparse.Namespace) -> int:
    from . import render

    lines = search.iter_range(1, args.n_hi, jobs=args.jobs, view=render.aspect_line)
    _emit(render.aspect_scatter_csv(lines), args.out)
    return 0


def cmd_theory(args: argparse.Namespace) -> int:
    from . import theory

    payload = {
        "waste": theory.waste_constants().to_json(),
        "densities": theory.reference_densities(),
        "smallest_two_row_m": theory.smallest_two_row_m(),
        "convergents": [c.to_json() for c in theory.convergents(args.kmax)],
    }
    _emit([json.dumps(payload, indent=2) + "\n"], args.out)
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    from . import compactor  # loads numpy, which no other command needs at import

    if (args.seed is None) == (args.seeds is None):
        raise ValueError("compact requires exactly one of --seed and --seeds")
    if args.seeds is not None:
        report = compactor.best_of(compactor.CompactorParams(n=args.n, seed=0), args.seeds)
        print(json.dumps(report.to_json(), indent=2))
        run = report.run
    else:
        run = compactor.compact(compactor.CompactorParams(n=args.n, seed=args.seed))
        print(json.dumps({
            "n": args.n, "seed": args.seed, "density": run.density,
            "moves_accepted": run.moves_accepted, "terminated": run.terminated.value,
        }, indent=2))
    if args.out:
        if args.format == "json":
            _emit([json.dumps(run.realization.to_json()) + "\n"], args.out)
        else:
            _emit([run.trace_csv()], args.out)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    from . import render

    result = search.best(args.n)
    if not (0 <= args.variant < len(result.argmin)):
        raise ValueError(f"variant must be in 0..{len(result.argmin) - 1}")
    _emit([render.to_svg(result.argmin[args.variant].coordinates())], args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rowpack",
        description="Minimum-area rectangles for n unit circles: exact class search and tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    jobs = os.cpu_count() or 1  # --jobs default

    def add(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.set_defaults(func=fn)
        p.add_argument("--out", type=str, default=None, help="output path (default stdout)")
        return p

    p = add("search", cmd_search, "best packing for one n (JSON)")
    p.add_argument("--n", type=int, required=True)

    p = add("range", cmd_range, "scan [from, to]: JSONL results plus summary")
    p.add_argument("--from", dest="n_lo", type=int, required=True)
    p.add_argument("--to", dest="n_hi", type=int, required=True)
    p.add_argument("--jobs", type=int, default=jobs)

    p = add("table", cmd_table, "reproduction report against a published table")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)

    p = add("irregular", cmd_irregular, "n values whose optimum may/must have holes")
    p.add_argument("--from", dest="n_lo", type=int, default=1)
    p.add_argument("--to", dest="n_hi", type=int, required=True)
    p.add_argument("--jobs", type=int, default=jobs)

    p = add("milestones", cmd_milestones, "smallest n per monovacancy landmark")
    p.add_argument("--to", dest="n_hi", type=int, required=True)
    p.add_argument("--jobs", type=int, default=jobs)

    p = add("aspect", cmd_aspect, "aspect-ratio scatter CSV for hex optima")
    p.add_argument("--to", dest="n_hi", type=int, required=True)
    p.add_argument("--jobs", type=int, default=jobs)

    p = add("theory", cmd_theory, "closed-form constants and convergents (JSON)")
    p.add_argument("--kmax", type=int, default=3)

    p = add("compact", cmd_compact, "stochastic compactor run(s)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=None, help="single-run seed")
    p.add_argument("--seeds", type=int, default=None, help="best-of seed count")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="--out content: trace CSV or final packing JSON")

    p = add("render", cmd_render, "SVG of a best packing")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", type=int, default=0, help="argmin index (default 0)")

    return parser


def _open_out(path: str) -> tuple[TextIO, str | None]:
    """Open --out for appending, which truncates nothing, so an unwritable
    path fails with open's own error before any work and a FIFO is opened
    once.  Also return the path of the file this call created, which a failed
    command removes: an exclusive create decides it, but for a dangling link,
    which that refuses, whether the target exists just before it is opened."""
    try:
        return open(path, "x", encoding="utf-8"), path
    except FileExistsError:
        created = None if os.path.exists(path) else os.path.realpath(path)
        return open(path, "a", encoding="utf-8"), created


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    created = None
    try:
        if args.out:
            args.out, created = _open_out(args.out)
        with args.out or nullcontext():
            return args.func(args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        if created is not None:
            with suppress(FileNotFoundError):
                os.remove(created)
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
