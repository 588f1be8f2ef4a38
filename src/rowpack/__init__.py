"""rowpack: minimum-area rectangles for n non-overlapping unit circles.

Exact search over row-structured packings (square grid, hexagonal, hybrids,
with monovacancies), improvement-move analysis, closed-form asymptotics, a
stochastic wall-press compactor, and SVG rendering.

The compactor is the one module that needs numpy at import, so it and its
names load on first access (PEP 562): `import rowpack` and the exact search
use the standard library alone.
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
from .theory import (
    ConvergentEntry,
    WasteConstants,
    convergents,
    reference_densities,
    smallest_two_row_m,
    two_row_beats_square,
    verify_convergent_regularity,
    waste_constants,
)
from .render import aspect_line, aspect_scatter_csv, to_svg

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

_COMPACTOR_NAMES = {"CompactorParams", "CompactorRun", "best_of", "compact", "random_start"}


def __getattr__(name: str):
    if name == "compactor" or name in _COMPACTOR_NAMES:
        # not `from . import compactor`: its hasattr(rowpack, "compactor") would recurse here
        compactor = importlib.import_module(".compactor", __name__)
        return compactor if name == "compactor" else getattr(compactor, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
