"""rowpack: minimum-area rectangles for n non-overlapping unit circles.

Exact search over row-structured packings (square grid, hexagonal, hybrids,
with monovacancies), improvement-move analysis, closed-form asymptotics, a
stochastic wall-press compactor, and SVG rendering.

`import rowpack` loads what every search runs, on the standard library
alone: quadint, packings, search and improve.  The compactor (which needs
numpy at import), theory and render, and their names, load on first access
(PEP 562), and each resolved name is then a plain module global.
`multiprocessing` loads only when a range scan starts a pool.
"""
import importlib

from .quadint import QuadInt
from .packings import ClassConfig, PackingRealization, RowPattern, hybrid_pair
from .search import (
    Classification,
    SearchResult,
    best,
    milestones,
    read_results,
    scan_range,
    write_results,
)
from .improve import DELTA_H5, DELTA_SIDE, ImprovementReport, MoveKind, improvement

__version__ = "0.1.0"

__all__ = [
    "QuadInt",
    "ClassConfig", "PackingRealization", "RowPattern", "hybrid_pair",
    "Classification", "SearchResult", "best", "milestones",
    "read_results", "scan_range", "write_results",
    "DELTA_H5", "DELTA_SIDE", "ImprovementReport", "MoveKind", "improvement",
    "ConvergentEntry", "WasteConstants", "convergents", "reference_densities",
    "smallest_two_row_m", "two_row_beats_square", "verify_convergent_regularity",
    "waste_constants",
    "CompactorParams", "CompactorRun", "best_of", "compact", "random_start",
    "aspect_line", "aspect_scatter_csv", "to_svg",
]

# lazy name -> the submodule that defines it; each submodule is its own name
_LAZY = {
    **dict.fromkeys(["compactor", "CompactorParams", "CompactorRun", "best_of", "compact",
                     "random_start"], "compactor"),
    **dict.fromkeys(["theory", "ConvergentEntry", "WasteConstants", "convergents",
                     "reference_densities", "smallest_two_row_m", "two_row_beats_square",
                     "verify_convergent_regularity", "waste_constants"], "theory"),
    **dict.fromkeys(["render", "aspect_line", "aspect_scatter_csv", "to_svg"], "render"),
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # not `from . import compactor`: its hasattr(rowpack, "compactor") would recurse here
    value = importlib.import_module("." + module, __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value  # the next access is a plain lookup
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
