"""Independent brute-force references for the class search.

Deliberately naive: plain nested loops over row counts, patterns, short-row
and hole counts, its own copy of the circle-count identity, the legal
short-row table and the exact width/height formulas, and a from-scratch
(p, q) integer comparison for p + q*sqrt(3).  Shares nothing with
rowpack.search except the tuple vocabulary used to compare argmin sets.

`naive_best` loops over every w, d and s_minus (about cubic in n);
`enumerate_members` lists the whole class for one n, unpruned, solving the
circle count for w cell by cell, and `enumerated_best` takes its minimum.
These two take every hole count unless given d_max: `hole_bound` bounds
the holes of any member that can reach the hole-free minimum.
`members_within` lists only the members no larger than a given area, so it
reaches n in the thousands.
"""
from __future__ import annotations

import math

# pattern tags
FULL, SHORT_OFFSET, SHORT_OUTER = "full", "short_offset", "short_outer"


def _h_minus(pattern: str, h: int) -> int:
    if pattern == FULL:
        return 0
    if pattern == SHORT_OFFSET:
        return h // 2
    return h // 2 + 1


def _patterns(h: int, s: int) -> tuple[str, ...]:
    """The row patterns of an h-row hex block (h >= 2) under s square rows:
    outer rows are short only on odd h >= 3, and never under square rows."""
    if h % 2 == 0 or h < 3 or s > 0:
        return (FULL, SHORT_OFFSET)
    return (FULL, SHORT_OFFSET, SHORT_OUTER)


def _less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """a < b for a = (p, q) meaning p + q*sqrt(3), exact integer test."""
    p = a[0] - b[0]
    q = a[1] - b[1]
    if p == 0 and q == 0:
        return False
    if p >= 0 and q >= 0:
        return False
    if p <= 0 and q <= 0:
        return True
    if p > 0:  # q < 0: value negative iff p^2 < 3 q^2
        return p * p < 3 * q * q
    return 3 * q * q < p * p


def _interior_capacity(w: int, h: int, pattern: str) -> int:
    if h < 3:
        return 0
    total = 0
    for k in range(1, h - 1):
        if pattern == FULL:
            row = w
        elif pattern == SHORT_OFFSET:
            row = w if k % 2 == 0 else w - 1
        else:
            row = w if k % 2 == 1 else w - 1
        total += max(0, row - 2)
    return total


def _area(w: int, h: int, pattern: str, s: int) -> tuple[int, int]:
    if h == 0:
        return (2 * w * 2 * s, 0)
    width = 2 * w + 1 if pattern == FULL else 2 * w
    return (width * (2 + 2 * s), width * (h - 1))


def naive_best(n: int, d_max: int = 5):
    """(min_area (p, q), set of (w, h, pattern, s, s_minus, d)) by full loops."""
    best_area = None
    argmin: set[tuple] = set()

    def consider(w, h, pattern, s, s_minus, d):
        nonlocal best_area
        area = _area(w, h, pattern, s)
        if best_area is None or _less(area, best_area):
            best_area = area
            argmin.clear()
        if area == best_area:
            argmin.add((w, h, pattern, s, s_minus, d))

    # square grids: w x s, s_minus short rows, wider than tall
    for s in range(1, n + 1):
        for s_minus in range(0, s):
            if (n + s_minus) % s:
                continue
            w = (n + s_minus) // s
            if w < s or w < 1 or (s_minus > 0 and w < 2):
                continue
            consider(w, 0, FULL, s, s_minus, 0)

    # hex blocks and hybrids
    max_rows = n + d_max
    for h in range(2, max_rows + 1):
        for s in range(0, max_rows - h + 1):
            r = h + s
            for pattern in _patterns(h, s):
                hm = _h_minus(pattern, h)
                for w in range(1, n + hm + s + d_max + 1):
                    if pattern != FULL and w < 2:
                        continue
                    for d in range(0, d_max + 1):
                        s_minus = w * r - hm - d - n
                        if not (0 <= s_minus <= s):
                            continue
                        if s_minus > 0 and w < 2:
                            continue
                        if d > 0 and (h < 3 or w < 3 or d > _interior_capacity(w, h, pattern)):
                            continue
                        consider(w, h, pattern, s, s_minus, d)
    return best_area, argmin


def hole_bound(n: int) -> int:
    """Most holes in a member with n circles whose area is at most the
    hole-free minimum A0.

    Each of the n + d sites of a member costs at least 2 of width and each
    row at least sqrt(3) of height, so its area W*H >= 2*sqrt(3)*(n + d):
    a member with more than floor(A0/(2*sqrt(3))) - n holes is larger than A0.
    """
    p, q = enumerated_best(n, 0)[0]
    # the largest m with 2*sqrt(3)*m <= p + q*sqrt(3), i.e. 3*(2m - q)^2 <= p^2
    # once 2m > q (p > 0 for every member)
    m = q // 2
    while 3 * (2 * m + 2 - q) ** 2 <= p * p:
        m += 1
    return max(0, m - n)


def enumerate_members(n: int, d_max: int | None = None):
    """Every class member with n circles and at most d_max holes (no cap
    beyond hole_bound(n) when d_max is None), unpruned, as
    (w, h, pattern, s, s_minus, d) tuples.

    A cell (h, s, pattern) holds n = w*(h + s) - h_minus - k circles with
    k = s_minus + d, 0 <= k <= s + d_max, so only the w with
    n + h_minus <= w*(h + s) <= n + h_minus + s + d_max are tried.  Square
    grids are the cells h = 0: wider than tall, at least one full row, no
    holes.
    """
    if d_max is None:
        d_max = hole_bound(n)
    for s in range(1, n + 1):
        w = -(-n // s)  # the one w with n <= w*s <= n + s - 1
        s_minus = w * s - n
        if w >= s and (s_minus == 0 or w >= 2):
            yield (w, 0, FULL, s, s_minus, 0)

    max_rows = n + d_max
    for h in range(2, max_rows + 1):
        for s in range(0, max_rows - h + 1):
            r = h + s
            for pattern in _patterns(h, s):
                hm = _h_minus(pattern, h)
                for w in range(-(-(n + hm) // r), (n + hm + s + d_max) // r + 1):
                    if pattern != FULL and w < 2:
                        continue
                    k = w * r - hm - n
                    # holes need h >= 3, w >= 3 and a free interior site
                    holes = _interior_capacity(w, h, pattern) if h >= 3 and w >= 3 else 0
                    for d in range(max(0, k - s), min(k, d_max, holes) + 1):
                        if k - d > 0 and w < 2:
                            continue
                        yield (w, h, pattern, s, k - d, d)


def enumerated_best(n: int, d_max: int | None = None):
    """(min_area (p, q), set of argmin tuples) over enumerate_members(n, d_max)."""
    best_area = None
    argmin: set[tuple] = set()
    for member in enumerate_members(n, d_max):
        area = _area(*member[:4])
        if best_area is None or _less(area, best_area):
            best_area = area
            argmin = set()
        if area == best_area:
            argmin.add(member)
    return best_area, argmin


def members_within(n: int, area: tuple[int, int], d_max: int | None = None):
    """Every class member with n circles, at most d_max holes (any number
    when None) and area at most area = (p, q), as sorted
    (w, h, pattern, s, s_minus, d) tuples.

    A member with w columns and r = h + s rows has w*r >= n, W >= 2w and
    H >= sqrt(3)*r + 2 - sqrt(3), so W*H >= 2*sqrt(3)*w*r bounds r for
    each w, and W*H >= 2*sqrt(3)*n + 2*(2 - sqrt(3))*w bounds w.  A hex
    block's H = 2*r + 2 - sqrt(3) - (2 - sqrt(3))*h falls as h grows, so
    H <= area/(2w) bounds h from below.  The float bounds are widened by
    one; the area test itself is exact.
    """
    root3 = math.sqrt(3)
    cap = area[0] + area[1] * root3
    found = []

    def fits(w, h, pattern, s):
        return not _less(area, _area(w, h, pattern, s))

    w_max = math.floor((cap - 2 * root3 * n) / (2 * (2 - root3))) + 1
    for w in range(1, w_max + 1):
        for r in range(-(-n // w), math.floor(cap / (2 * root3 * w)) + 2):
            # square grid: r rows of w, wider than tall, one row full at least
            if w >= r and w * r - n <= r - 1 and (w * r == n or w >= 2) and fits(w, 0, FULL, r):
                found.append((w, 0, FULL, r, w * r - n, 0))
            h_lo = math.floor((2 * r + 2 - root3 - cap / (2 * w)) / (2 - root3)) - 1
            for h in range(max(2, h_lo), r + 1):
                s = r - h
                for pattern in _patterns(h, s):
                    if pattern != FULL and w < 2:
                        continue
                    k = w * r - _h_minus(pattern, h) - n
                    if k < 0 or not fits(w, h, pattern, s):
                        continue
                    holes = _interior_capacity(w, h, pattern) if h >= 3 and w >= 3 else 0
                    top = min(k, holes) if d_max is None else min(k, d_max, holes)
                    for d in range(max(0, k - s), top + 1):
                        if k - d > 0 and w < 2:
                            continue
                        found.append((w, h, pattern, s, k - d, d))
    return sorted(found)
