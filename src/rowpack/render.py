"""Deterministic SVG rendering of packings, plus the aspect-ratio scatter CSV.

Output is byte-stable: all coordinates are printed with exactly six decimal
places and elements are emitted in a fixed order, so identical inputs yield
identical documents (goldens stay valid).  Every figure has one style: a
radius is _SCALE = 20 pixels, every outline is _STROKE = 1 pixel wide,
holes are dashed circles marked '?', and there is no caption.

`to_svg` formats each distinct center x once and each distinct center y
once.  A row-structured packing has about 2w distinct x values and h + s
distinct y values, so per-circle float formatting, the bulk of the render
time, becomes two dict lookups and one concatenation.  The memo cannot
change a byte: equal floats format equally, except 0.0 and -0.0, which are
equal dict keys, and NaN, which never matches a key.  Neither reaches the
memo, because `to_svg` first validates the realization: every center is
finite (the overlap kernel reports a non-finite coordinate or box as an
infinite violation) and at least 1 - 1e-9 radii from each wall, so x*k and
(height - y)*k are positive.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
from math import sqrt

from .packings import PackingRealization
from .search import SearchResult

_FMT = "{:.6f}"
_SCALE = 20.0  # pixels per circle radius
_STROKE = 1.0  # outline width in pixels


def _f(value: float) -> str:
    return _FMT.format(value)


def to_svg(realization: PackingRealization) -> str:
    """One rectangle plus one circle per center; holes dashed with a '?'."""
    if not realization.is_valid():
        raise ValueError("refusing to render an invalid realization")
    k = _SCALE
    w_px = realization.width * k
    h_px = realization.height * k
    sw = _f(_STROKE)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_f(w_px)}" height="{_f(h_px)}" '
        f'viewBox="0 0 {_f(w_px)} {_f(h_px)}">',
        f'<rect x="0" y="0" width="{_f(w_px)}" height="{_f(h_px)}" '
        f'fill="none" stroke="black" stroke-width="{sw}"/>',
    ]
    # '<circle cx="X" cy="' per distinct x, 'Y" r=... />' per distinct y
    tail = f'" r="{_f(k)}" fill="none" stroke="black" stroke-width="{sw}"/>'
    height = realization.height
    heads: dict[float, str] = {}
    tails: dict[float, str] = {}
    for x, y in realization.centers:
        head = heads.get(x)
        if head is None:
            head = heads[x] = f'<circle cx="{_f(x * k)}" cy="'
        cy = tails.get(y)
        if cy is None:
            cy = tails[y] = _f((height - y) * k) + tail  # SVG y axis points down
        lines.append(head + cy)
    for x, y in realization.holes:
        cy = (height - y) * k
        lines.append(
            f'<circle cx="{_f(x * k)}" cy="{_f(cy)}" r="{_f(k)}" '
            f'fill="none" stroke="black" stroke-width="{sw}" stroke-dasharray="4 3"/>'
        )
        lines.append(
            f'<text x="{_f(x * k)}" y="{_f(cy + 0.25 * k)}" text-anchor="middle" '
            f'font-size="{_f(0.8 * k)}">?</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def aspect_line(result: SearchResult) -> str:
    """The "n,aspect" line of a pure hex optimum, else "": every argmin member
    has h >= 2 and no square rows, so the best aspect ratio is not ambiguous."""
    hex_only = all(c.h >= 2 and c.s == 0 for c in result.argmin)
    return f"{result.n},{_f(result.aspect_ratio())}\n" if hex_only else ""


def aspect_scatter_csv(lines: Iterable[str]) -> Iterator[str]:
    """Yield the header, each `aspect_line` as it arrives, then the
    2 - sqrt(3) limit row."""
    yield "n,aspect\n"
    yield from lines
    yield f"limit,{_f(2.0 - sqrt(3.0))}\n"
