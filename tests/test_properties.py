"""Property tests guarding the exact block sieve in rowpack.search against
the unpruned enumerator of tests/naive_oracle.py, the class's row rules
(packings.row_kinds) against the oracle's own copy, the sieve's float filter
against quadint.sign, the overlap kernel in rowpack.packings, the
neighbour-list relaxation in rowpack.compactor against its all-pairs loop,
and the memoised SVG renderer against a per-circle one."""
import math
import signal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from naive_oracle import _area, _h_minus, _interior_capacity, _patterns, enumerated_best
from rowpack.cli import main
from rowpack.packings import (ClassConfig, PackingRealization, RowPattern, max_violation,
                              row_kinds)
from rowpack.quadint import QuadInt, sign
from rowpack import compactor, search
from rowpack.render import to_svg
from rowpack.search import BLOCK, SearchResult, best, result_to_json, scan_range

FULL = RowPattern.FULL
SOFF = RowPattern.SHORT_OFFSET
SOUT = RowPattern.SHORT_OUTER


def rowwise_capacity(w: int, h: int, s: int, pattern: RowPattern) -> int:
    """Interior sites counted row by row: hex rows 1..h-2, row ends excluded."""
    total = 0
    for k in range(1, h - 1):
        if pattern is FULL:
            full = True
        elif pattern is SOUT:
            full = k % 2 == 1
        else:
            # even rows are full, odd rows instead when square rows sit on an
            # even-h block (mirrored so the top outer row is full)
            full = k % 2 == (1 if s > 0 and h % 2 == 0 else 0)
        total += (w if full else w - 1) - 2
    return total


def test_hole_capacity_closed_form_matches_row_count():
    # s enters the capacity only through s > 0, so s = 0..3 covers every case
    checked = 0
    for w in range(3, 41):
        for h in range(3, 41):
            for s in range(4):
                for pattern in RowPattern:
                    if pattern is SOUT and (h % 2 == 0 or s > 0):
                        continue
                    cfg = ClassConfig(w, h, pattern, s=s)
                    assert cfg.hole_capacity() == rowwise_capacity(w, h, s, pattern), cfg
                    checked += 1
    assert checked == 38 * 38 * 4 * 2 + 38 * 19


def test_row_kinds_match_the_oracle():
    # the class's one statement of its row rules against the oracle's own
    # copy: the patterns of each block, their h_minus and interior sites
    for h in range(2, 61):
        for s in (0, 1):
            kinds = row_kinds(h, s > 0)
            assert tuple(k[0].value for k in kinds) == _patterns(h, s), (h, s)
            for pattern, full, h_minus, full_rows in kinds:
                assert full is (pattern is FULL)
                assert h_minus == _h_minus(pattern.value, h), (h, s, pattern)
                for w in range(3, 9):
                    assert (h - 2) * (w - 3) + full_rows == _interior_capacity(
                        w, h, pattern.value), (w, h, s, pattern)


def _accepts(h, s, pattern):
    """Whether ClassConfig accepts some member with this h, s and pattern."""
    for w in range(1, 6):
        try:
            ClassConfig(w, h, pattern, s=s)
            return True
        except ValueError:
            pass
    return False


def test_class_config_accepts_exactly_the_row_kinds():
    # plus the square grids (0, s >= 1, FULL), which have no hex block
    for h in range(13):
        for s in range(4):
            listed = {k[0] for k in row_kinds(h, s > 0)} if h >= 2 else set()
            if h == 0 and s >= 1:
                listed.add(FULL)
            for pattern in RowPattern:
                assert _accepts(h, s, pattern) == (pattern in listed), (h, s, pattern)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20000))
def test_argmin_configs_hold_n_circles_in_the_min_area(n):
    r = best(n)
    for cfg in r.argmin:
        assert cfg.n == n
        assert cfg.area() == r.min_area


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 20000), st.data())
def test_search_result_checks_its_members_against_each_other(n, data):
    # any part of a tie set, in order, is a result for the same n and area;
    # the one-row strip (area 4n) joins it only when it ties, and a
    # reordered part is refused
    r = best(n)
    keep = data.draw(st.sets(st.integers(0, len(r.argmin) - 1), min_size=1))
    part = tuple(r.argmin[i] for i in sorted(keep))
    got = SearchResult(part)
    assert (got.n, got.min_area) == (n, r.min_area)
    strip = ClassConfig(n, 0, FULL, s=1)
    if strip not in r.argmin:
        with pytest.raises(ValueError, match=f"does not have n = {n} and area"):
            SearchResult(tuple(sorted((*part, strip), key=ClassConfig.sort_key)))
    if len(part) > 1:
        with pytest.raises(ValueError, match="out of order or repeated"):
            SearchResult(part[::-1])


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.integers(0, 6))
def test_more_holes_never_raise_the_min_area(n, k):
    # best(n) takes every hole count, so no cap k can do better
    assert best(n).min_area <= QuadInt(*enumerated_best(n, k)[0])


@st.composite
def ranges(draw):
    """(n_lo, n_hi) up to 20000: one block or a few, never a whole number of blocks."""
    blocks = draw(st.integers(0, 2))
    length = blocks * BLOCK + draw(st.integers(1, BLOCK - 1))
    n_lo = draw(st.integers(1, 20001 - length))
    return n_lo, n_lo + length - 1


@settings(max_examples=30, deadline=None)
@given(ranges())
def test_range_scan_equals_one_n_blocks(bounds):
    n_lo, n_hi = bounds
    got = [result_to_json(r) for r in scan_range(n_lo, n_hi)]
    assert got == [result_to_json(best(n)) for n in range(n_lo, n_hi + 1)]


def assert_equals_enumeration(r, n):
    area, argmin = enumerated_best(n)
    assert r.n == n and (r.min_area.p, r.min_area.q) == area
    assert sorted(r.argmin, key=ClassConfig.sort_key) == list(r.argmin)
    assert {(c.w, c.h, c.pattern.value, c.s, c.s_minus, c.d) for c in r.argmin} == argmin
    assert len(r.argmin) == len(argmin)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 300))
def test_best_equals_unpruned_enumeration(n):
    # best(n) is the one-n block, n at offset 0
    assert_equals_enumeration(best(n), n)


def test_best_equals_unpruned_enumeration_to_100():
    # the sieve walks h outward from the area bound's minimiser h0; in 1..100
    # the optimum's least h lies below h0 for about 30 n and above it for 23
    for n in range(1, 101):
        assert_equals_enumeration(best(n), n)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 300), st.integers(0, BLOCK - 1), st.integers(0, BLOCK - 1))
def test_block_min_and_ties_equal_unpruned_enumeration(n, below, above):
    # a block holding n at any offset: its pruning is looser than n's own
    n_lo, n_hi = max(1, n - below), n + min(above, BLOCK - 1 - below)
    assert_equals_enumeration(scan_range(n_lo, n_hi)[n - n_lo], n)


def test_adjacent_blocks_equal_one_n_blocks_dmax_9():
    # blocks of twice BLOCK n, so each block's cell test is looser than a scan's
    blocks = search._block((1, 2 * BLOCK)) + search._block((2 * BLOCK + 1, 4 * BLOCK))
    assert [result_to_json(r) for r in blocks] == [
        result_to_json(best(n)) for n in range(1, 4 * BLOCK + 1)
    ]


def assert_area_filter_sound(cap, area):
    """The sieve's float filter on a cap and an area, p, q >= 0 each: a float
    verdict it acts on without `sign` must agree with `sign`."""
    (cp, cq), (ap, aq) = cap, area
    capf, af = cp + cq * search._SQRT3, ap + aq * search._SQRT3  # as the sieve computes them
    exact = sign(cp - ap, cq - aq)
    if capf < af * (1 - search._MARGIN):  # scatter skip, w cut stop
        assert exact < 0, (cap, area)
    if capf > af * (1 + search._MARGIN):  # w cut goes on, scatter lowers the cap
        assert exact > 0, (cap, area)


def assert_bounds_exact(n_lo, capp, capq):
    """`_bounds` on caps with p, q >= 0 and p + 2q <= 4n gives the exact
    maximum M of cap(n) - 2*sqrt(3)*n and an index holding it, and the w
    cut's bound C = M + 2*sqrt(3)*n_hi is a pair p, q >= 0 above no cap."""
    assert all(p >= 0 and q >= 0 and p + 2 * q <= 4 * (n_lo + i)
               for i, (p, q) in enumerate(zip(capp, capq)))
    capf = [p + q * search._SQRT3 for p, q in zip(capp, capq)]
    mp, mq, im = search._bounds(n_lo, capp, capq, capf)
    assert (capp[im], capq[im] - 2 * (n_lo + im)) == (mp, mq)
    cp, cq = mp, mq + 2 * (n_lo + len(capp) - 1)
    assert cp >= 0 and cq >= 0
    for i, (p, q) in enumerate(zip(capp, capq)):
        assert sign(p - mp, q - 2 * (n_lo + i) - mq) <= 0
        assert sign(p - cp, q - cq) <= 0


def pell(limit):
    """(x, y) with x^2 - 3y^2 = 1: x - y*sqrt(3) = 1/(x + y*sqrt(3)) > 0 is tiny."""
    x, y = 2, 1
    while x <= limit:
        yield x, y
        x, y = 2 * x + 3 * y, x + 2 * y


OFFSETS = (0, 1, 10**6, 3 * 10**9 + 7, 2**53 + 1, 10**15, 10**17)


def test_float_filter_sound_on_pell_near_ties():
    # (P + x, Q) is above (P, Q + y) by 1/(x + y*sqrt(3)), as little as ~3e-17,
    # on offsets up to 10^17, where float(P) itself rounds; with no margin
    # 136 of these 2744 area pairs are ordered wrongly by their floats
    solutions = list(pell(10**16))
    assert len(solutions) == 28
    for x, y in solutions:
        for big in OFFSETS:
            for small in OFFSETS:
                for P, Q in ((big, small), (small, big)):
                    assert_area_filter_sound((P + x, Q), (P, Q + y))
                    assert_area_filter_sound((P, Q + y), (P + x, Q))
                    # two-n blocks whose caps, or whose m(n), differ by x - y*sqrt(3)
                    n = (P + x + 2 * (Q + y + 2)) // 4 + 1
                    assert_bounds_exact(n, [P + x, P], [Q, Q + y])
                    assert_bounds_exact(n, [P, P + x], [Q + y, Q])
                    assert_bounds_exact(n, [P, P + x], [Q + y, Q + 2])
                    assert_bounds_exact(n, [P + x, P], [Q, Q + y + 2])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 2**64), st.integers(-2**20, 2**20),
       st.integers(-2**20, 2**20))
def test_float_filter_sound_on_random_pairs(p, q, dp, dq):
    assume(p + dp >= 0 and q + dq >= 0)
    assert_area_filter_sound((p + dp, q + dq), (p, q))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**17),
       st.lists(st.tuples(st.integers(0, 2**62), st.integers(0, 2**62)), min_size=1,
                max_size=2 * BLOCK),
       st.sampled_from([1, 2, 8, 2**20, 2**62]))
def test_bounds_are_the_exact_maxima(n_lo, raw, spread):
    # caps with q near 2n: a small spread makes exact ties, and float
    # near-ties once n is large
    capp, capq = [], []
    for i, (a, b) in enumerate(raw):
        n = n_lo + i
        q = 2 * n - b % min(spread, 2 * n + 1)
        capp.append(a % (4 * n - 2 * q + 1))
        capq.append(q)
    assert_bounds_exact(n_lo, capp, capq)


@pytest.mark.parametrize("margin", [1e-4, math.inf], ids=["1e-4", "inf"])
def test_forced_exact_sieve_gives_the_same_lines(monkeypatch, margin):
    # an infinite margin sends every comparison to quadint.sign; one of 1e-4
    # sends 1,184 of the scatter's over 1..3000, 915 of them areas above their
    # cap, and acting on those floats alone would change 351 lines
    def timeout(signum, frame):
        raise AssertionError("the scans ran past 60 s: a scatter that lowers caps on "
                             "ambiguous floats raises them, and the cuts stop pruning")

    handler = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 60)  # both scans take about 0.2 s
    try:
        default = [search.result_to_line(r) for r in scan_range(1, 3000)]
        monkeypatch.setattr(search, "_MARGIN", margin)
        forced = [search.result_to_line(r) for r in scan_range(1, 3000)]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    assert forced == default


def pairwise_violation(pts, width, height):
    """O(n^2) reference: every wall term and every pair, one at a time."""
    worst = 0.0
    for x, y in pts:
        worst = max(worst, 1.0 - x, 1.0 - y, x - (width - 1.0), y - (height - 1.0))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx = pts[i][0] - pts[j][0]
            dy = pts[i][1] - pts[j][1]
            worst = max(worst, 2.0 - math.sqrt(dx * dx + dy * dy))
    return worst


@st.composite
def boxed_centers(draw):
    """A box and up to 60 centers, some past the walls, some on a half-integer
    lattice (exact contact distances), some duplicated."""
    width = draw(st.floats(0.5, 30.0))
    height = draw(st.floats(0.5, 30.0))

    def coord(side):
        return st.one_of(
            st.floats(-2.0, side + 2.0),
            st.integers(-4, int(2 * side) + 4).map(lambda k: k / 2.0),
        )

    pts = draw(st.lists(st.tuples(coord(width), coord(height)), max_size=55))
    if pts:
        pts += [pts[i] for i in draw(st.lists(st.integers(0, len(pts) - 1), max_size=5))]
    return pts, width, height


@settings(max_examples=300, deadline=None)
@given(boxed_centers())
def test_overlap_kernel_equals_pairwise_reference(case):
    pts, width, height = case
    arr = np.array(pts, dtype=float).reshape(-1, 2)
    assert max_violation(arr, width, height) == pairwise_violation(pts, width, height)


def test_render_20000_circles(capsys):
    assert main(["render", "--n", "20000"]) == 0
    assert capsys.readouterr().out.count("<circle") == 20000


def all_pairs_relax(pts, width, height, iters):
    """Reference relaxation: clamp, then one over-relaxed Gauss-Seidel loop
    over all pairs in (i, j) order each sweep (each center of a pair moves
    _OMEGA/2 * gap), with the stall rule and the final certificate of
    compactor._relax_core."""
    tol = compactor.TOL
    if width < 2.0 - tol or height < 2.0 - tol:
        return False
    n = len(pts)
    xlo, xhi = 1.0, width - 1.0
    ylo, yhi = 1.0, height - 1.0
    xs = pts[:, 0].tolist()
    ys = pts[:, 1].tolist()
    best_worst = math.inf
    since_improve = 0
    for _ in range(iters):
        for i in range(n):
            x = xs[i]
            xs[i] = xlo if x < xlo else (xhi if x > xhi else x)
            y = ys[i]
            ys[i] = ylo if y < ylo else (yhi if y > yhi else y)
        worst = 0.0
        for i in range(n):
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
                    ux, uy = 1.0, 0.0
                else:
                    ux, uy = dx / dist, dy / dist
                push = 0.5 * compactor._OMEGA * gap
                xi = xi + ux * push
                yi = yi + uy * push
                xs[j] -= ux * push
                ys[j] -= uy * push
            xs[i] = xi
            ys[i] = yi
        if worst <= tol:
            pts[:, 0] = xs
            pts[:, 1] = ys
            np.clip(pts[:, 0], xlo, xhi, out=pts[:, 0])
            np.clip(pts[:, 1], ylo, yhi, out=pts[:, 1])
            if max_violation(pts, width, height) <= tol:
                return True
            xs = pts[:, 0].tolist()
            ys = pts[:, 1].tolist()
        if worst < 0.97 * best_worst:
            best_worst = worst
            since_improve = 0
        else:
            since_improve += 1
            if since_improve > 60:
                break
    pts[:, 0] = xs
    pts[:, 1] = ys
    return max_violation(pts, width, height) <= tol


@st.composite
def relax_cases(draw):
    """Up to 40 centers scattered around one point, from coincident to spread
    wider than the box and past its walls, in boxes from loose to infeasible."""
    width = draw(st.floats(1.9, 40.0))
    height = draw(st.floats(1.9, 40.0))
    spread = draw(st.sampled_from([0.0, 1e-6, 0.3, 1.5, 4.0, 12.0, 40.0]))
    cx = draw(st.floats(-5.0, width + 5.0))
    cy = draw(st.floats(-5.0, height + 5.0))
    unit = st.floats(-1.0, 1.0)
    offsets = draw(
        st.lists(st.one_of(st.tuples(unit, unit), st.just((0.0, 0.0))), max_size=40)
    )
    pts = np.array([(cx + spread * u, cy + spread * v) for u, v in offsets]).reshape(-1, 2)
    return pts, width, height, draw(st.integers(1, 80))


# two stalls of _relax_core: one iteration maps the first state to itself,
# the second (3 circles) cycles through two states until the stall rule
FIXED_POINT = ([[1.0, 1.0], [2.0, 1.0]], 3.0, 2.0, 300)
PERIOD_2 = (
    [[2.2902012766395643, 1.0], [1.0115948095844272, 2.5379094577844077],
     [3.568807743068307, 2.5379094577844077]],
    4.568807743068307, 3.5213255072010434, 400,
)


def relax_case(centers, width, height, iters):
    return np.array(centers), width, height, iters


@settings(max_examples=250, deadline=None)
@given(relax_cases())
@example(relax_case(*FIXED_POINT))
@example(relax_case(*PERIOD_2))
def test_relax_neighbour_list_equals_all_pairs(case):
    pts, width, height, iters = case
    ref = pts.copy()
    assert compactor._relax_core(pts, width, height, iters) == all_pairs_relax(
        ref, width, height, iters
    )
    assert pts.tobytes() == ref.tobytes()


@pytest.mark.parametrize(("case", "iterations", "sweeps"),
                         [(FIXED_POINT, 3, 3), (PERIOD_2, 67, 77)],
                         ids=["fixed_point", "period_2"])
def test_relax_stops_at_fixed_point(monkeypatch, case, iterations, sweeps):
    """The fixed point ends the loop 2 iterations after it is reached, where
    the all-pairs loop runs 62 iterations to the stall rule.  The period-2
    cycle never repeats one iteration's state, so the exit must not fire
    there: 67 iterations, as the all-pairs loop runs.  They make 77 _sweep
    calls: each iteration's first pass, plus 10 passes resumed after a push
    dropped the neighbour list mid-sweep.  A resumed pass carries the
    positive worst of the pass it resumes, so a first pass is a call whose
    worst argument is 0.0.  Either way pts and the flag equal the all-pairs
    loop's bit for bit."""
    counted = []
    sweep = compactor._sweep

    def counting_sweep(xs, ys, rows, worst, *args):
        counted.append(worst)
        return sweep(xs, ys, rows, worst, *args)

    monkeypatch.setattr(compactor, "_sweep", counting_sweep)
    pts, width, height, iters = relax_case(*case)
    ref = pts.copy()
    assert not compactor._relax_core(pts, width, height, iters)
    assert (counted.count(0.0), len(counted)) == (iterations, sweeps)
    assert not all_pairs_relax(ref, width, height, iters)
    assert pts.tobytes() == ref.tobytes()
    if case is FIXED_POINT:
        assert pts.tolist() == [[0.25, 1.0], [2.75, 1.0]]


def per_circle_svg(realization):
    """Reference renderer: every coordinate of every circle formatted anew,
    20 pixels per radius, 1-pixel strokes."""
    def f(value):
        return "{:.6f}".format(value)

    k = 20.0
    w_px = realization.width * k
    h_px = realization.height * k
    sw = f(1.0)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{f(w_px)}" height="{f(h_px)}" '
        f'viewBox="0 0 {f(w_px)} {f(h_px)}">',
        f'<rect x="0" y="0" width="{f(w_px)}" height="{f(h_px)}" '
        f'fill="none" stroke="black" stroke-width="{sw}"/>',
    ]
    for x, y in realization.centers:
        cy = (realization.height - y) * k
        lines.append(
            f'<circle cx="{f(x * k)}" cy="{f(cy)}" r="{f(k)}" '
            f'fill="none" stroke="black" stroke-width="{sw}"/>'
        )
    for x, y in realization.holes:
        cy = (realization.height - y) * k
        lines.append(
            f'<circle cx="{f(x * k)}" cy="{f(cy)}" r="{f(k)}" '
            f'fill="none" stroke="black" stroke-width="{sw}" stroke-dasharray="4 3"/>'
        )
        lines.append(
            f'<text x="{f(x * k)}" y="{f(cy + 0.25 * k)}" text-anchor="middle" '
            f'font-size="{f(0.8 * k)}">?</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


@st.composite
def class_configs(draw):
    """Members of the class: single rows and square grids, hex blocks of every
    pattern, square rows on top (hybrids), short square rows and holes."""
    pattern = draw(st.sampled_from(list(RowPattern)))
    if pattern is SOUT:
        h, s = draw(st.sampled_from([3, 5, 7, 9])), 0
    else:
        if pattern is FULL:
            h = draw(st.sampled_from([0, 0, 2, 3, 4, 5, 8, 11]))
        else:
            h = draw(st.integers(2, 11))
        s = draw(st.integers(1 if h == 0 else 0, 4))
    w = draw(st.integers(1 if pattern is FULL else 2, 30))
    s_minus = draw(st.integers(0, s - 1 if h == 0 else s)) if w >= 2 else 0
    cfg = ClassConfig(w, h, pattern, s=s, s_minus=s_minus)
    d = draw(st.integers(0, min(cfg.hole_capacity(), 6)))
    return ClassConfig(w, h, pattern, s=s, s_minus=s_minus, d=d)


@given(class_configs())
def test_height_pair_gives_the_oracle_area_and_the_floats(cfg):
    (p, q), width = cfg.height_pair, cfg.width_units
    assert (width * p, width * q) == _area(cfg.w, cfg.h, cfg.pattern.value, cfg.s)
    # the float methods build no QuadInt, yet give QuadInt's floats bit for bit
    assert cfg.density() == cfg.n * math.pi / cfg.area().to_float()
    ratio = cfg.height().to_float() / width
    assert cfg.aspect_ratio() == min(ratio, 1.0 / ratio)


@st.composite
def scattered_realizations(draw):
    """Rows at least 2 apart, each with centers at least 2 apart taken from
    one pool of x values, so x values repeat across rows, exactly or within
    3e-7 as in compactor output; transposed half the time so y values repeat
    too.  Plus a few holes."""
    def axis():
        values = [draw(st.floats(1.0, 3.0))]
        for gap in draw(st.lists(st.floats(2.0, 4.0), max_size=12)):
            values.append(values[-1] + gap)
        return values

    pool, ys = axis(), axis()
    jitter = st.sampled_from([0.0, 0.0, 0.0, 3e-7, -3e-7, 1e-12])
    centers = []
    for y in ys:
        row = sorted(x + draw(jitter) for x in draw(st.sets(st.sampled_from(pool), max_size=8)))
        last = -math.inf
        for x in row:
            if x >= 1.0 and x - last >= 2.0:
                centers.append((x, y))
                last = x
    assume(centers)
    centers = draw(st.permutations(centers))
    width = max(x for x, _ in centers) + 1.0 + draw(st.floats(0.0, 2.0))
    height = ys[-1] + 1.0 + draw(st.floats(0.0, 2.0))
    holes = draw(st.lists(st.sampled_from(centers), max_size=3))
    if draw(st.booleans()):
        centers = [(y, x) for x, y in centers]
        holes = [(y, x) for x, y in holes]
        width, height = height, width
    return PackingRealization(tuple(centers), width, height, tuple(holes))


@settings(max_examples=150, deadline=None)
@given(st.one_of(class_configs().map(ClassConfig.coordinates), scattered_realizations()))
def test_svg_equals_per_circle_renderer(realization):
    assert to_svg(realization) == per_circle_svg(realization)
