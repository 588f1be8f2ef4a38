"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The full-range scan (1..5000, serial) is computed once per session and
shared; its wall time is charged to criterion 4's runtime budget.
"""
import math
import statistics
import time
from dataclasses import replace

import pytest

from rowpack.compactor import CompactorParams, best_of, compact
from rowpack.improve import DELTA_H5, DELTA_SIDE, improvement
from rowpack.packings import ClassConfig, RowPattern, hybrid_pair
from rowpack.quadint import QuadInt
from rowpack.search import (
    Classification,
    best,
    milestones,
    scan_range,
)
from rowpack import tables, theory

SOFF = RowPattern.SHORT_OFFSET
FULL = RowPattern.FULL

# printed irregular-n window lists (401+1000k .. 500+1000k)
WINDOWS = {
    401: [409, 411, 412, 421, 422, 433, 439, 453, 454, 461, 463, 467, 471,
          478, 487, 489, 499],
    1401: [1401, 1402, 1405, 1409, 1412, 1414, 1423, 1427, 1429, 1434, 1446,
           1447, 1451, 1453, 1457, 1459, 1466, 1468, 1477, 1483, 1486, 1487,
           1489, 1497],
    2401: [2401, 2402, 2406, 2411, 2419, 2421, 2423, 2428, 2429, 2435, 2437,
           2439, 2441, 2443, 2446, 2452, 2454, 2455, 2456, 2458, 2462, 2467,
           2469, 2474, 2476, 2477, 2479, 2481, 2487, 2491, 2493, 2495, 2497],
    3401: [3407, 3409, 3411, 3412, 3414, 3415, 3418, 3421, 3425, 3428, 3431,
           3433, 3436, 3442, 3446, 3447, 3453, 3455, 3459, 3461, 3464, 3467,
           3469, 3473, 3476, 3479, 3481, 3487, 3489, 3490, 3493, 3494, 3499],
    4401: [4401, 4404, 4405, 4409, 4411, 4414, 4417, 4419, 4421, 4426, 4430,
           4434, 4436, 4438, 4441, 4443, 4447, 4450, 4453, 4456, 4457, 4458,
           4461, 4462, 4467, 4468, 4474, 4476, 4479, 4483, 4486, 4487, 4491,
           4492, 4493, 4495, 4497, 4499],
}

_SCAN_WALL: dict[str, float] = {}


@pytest.fixture(scope="session")
def full_scan():
    t0 = time.time()
    results = scan_range(1, 5000, jobs=1)
    _SCAN_WALL["seconds"] = time.time() - t0
    return results


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_exact_small_densities():
    t0 = time.time()
    d25 = best(25).density()
    d11 = best(11).density()
    want25 = 25 * math.pi / (26 * (2 + math.sqrt(3)))
    elapsed = time.time() - t0
    ok = (
        abs(d25 - want25) <= 1e-9
        and abs(d11 - 0.790558) <= 1e-6
        and elapsed < 1.0
    )
    report(1, ok, f"density(25)={d25:.9f}, density(11)={d11:.6f}, {elapsed:.2f}s")
    assert abs(d25 - want25) <= 1e-9
    assert abs(d11 - 0.790558) <= 1e-6
    assert elapsed < 1.0


def test_criterion_02_thresholds(full_scan):
    t0 = time.time()
    equal = [r.n for r in full_scan if (QuadInt(4 * r.n, 0) - r.min_area).sign() == 0]
    exceed = [r.n for r in full_scan if (QuadInt(4 * r.n, 0) - r.min_area).sign() > 0]
    m = theory.smallest_two_row_m()
    elapsed = time.time() - t0
    ok = (
        equal == list(range(1, 11)) + [12, 13]
        and exceed == [11] + list(range(14, 5001))
        and m == 7
        and elapsed < 60.0
    )
    report(2, ok, f"pi/4 equality set={{1..10,12,13}}, exceed=11+[14..5000], m={m}, {elapsed:.2f}s")
    assert equal == list(range(1, 11)) + [12, 13]
    assert exceed == [11] + list(range(14, 5001))
    assert m == 7
    assert elapsed < 60.0


def test_criterion_03_table_reproduction():
    t0 = time.time()
    rep1 = tables.reproduce(1)
    rep2 = tables.reproduce(2)
    by_n = {c.n: c for c in rep2.checks}
    one_star = [61, 97, 107, 121, 139, 142, 157, 166, 199, 206, 211]
    two_star = [79, 181, 191, 197]
    stars_ok = all(by_n[n].classification == "may_hole" for n in one_star) and all(
        by_n[n].classification == "must_hole" for n in two_star
    )
    errata1 = {c.n for c in rep1.errata}
    elapsed = time.time() - t0
    ok = rep1.ok and rep2.ok and stars_ok and errata1 == {11, 12, 14} and elapsed < 10.0
    report(
        3, ok,
        f"table1 {rep1.matched}/53 rows + errata {sorted(errata1)}, "
        f"table2 {rep2.matched}/160 rows + errata {sorted(c.n for c in rep2.errata)}, "
        f"stars exact, {elapsed:.2f}s",
    )
    assert rep1.ok and rep2.ok
    assert stars_ok
    assert errata1 == {11, 12, 14}
    assert elapsed < 10.0


def test_criterion_04_irregular_census(full_scan):
    irregular = [
        r.n for r in full_scan if r.classification is not Classification.REGULAR
    ]
    scan_seconds = _SCAN_WALL["seconds"]
    windows_ok = all(
        [v for v in irregular if lo <= v <= lo + 99] == want
        for lo, want in WINDOWS.items()
    )
    ok = (
        len(irregular) == 1495
        and irregular[:5] == [49, 61, 79, 97, 107]
        and irregular[-1] == 4999
        and windows_ok
        and scan_seconds < 300.0
    )
    report(
        4, ok,
        f"{len(irregular)} irregular n, first five {irregular[:5]}, last {irregular[-1]}, "
        f"5 window lists exact, serial scan {scan_seconds:.1f}s",
    )
    assert len(irregular) == 1495
    assert irregular[:5] == [49, 61, 79, 97, 107]
    assert irregular[-1] == 4999
    for lo, want in WINDOWS.items():
        assert [v for v in irregular if lo <= v <= lo + 99] == want, f"window {lo}"
    assert scan_seconds < 300.0


def test_criterion_05_milestones(full_scan):
    m = milestones(5000, results=full_scan)
    by_n = {r.n: r for r in full_scan}
    expected_configs = {
        317: ClassConfig(27, 12, SOFF, d=1),
        393: ClassConfig(40, 10, SOFF, d=2),
        717: ClassConfig(48, 15, FULL, d=3),
        2732: ClassConfig(86, 32, SOFF, d=4),
        2776: ClassConfig(103, 27, FULL, d=5),
    }
    configs_ok = all(cfg in by_n[n].argmin for n, cfg in expected_configs.items())
    ok = (
        m.even_h_holed == 317
        and m.first_min_d == {2: 393, 3: 717, 4: 2732, 5: 2776}
        and m.max_min_d == 5
        and configs_ok
    )
    report(
        5, ok,
        f"even-h hole at {m.even_h_holed}, min_d firsts {m.first_min_d}, "
        f"max min_d {m.max_min_d}, configs exact",
    )
    assert m.even_h_holed == 317
    assert m.first_min_d == {2: 393, 3: 717, 4: 2732, 5: 2776}
    assert m.max_min_d == 5
    assert configs_ok


def test_criterion_06_improvements(improvement_sweep):
    d1, d2 = DELTA_SIDE, DELTA_H5
    dens49 = improvement(ClassConfig(17, 3, SOFF, d=1)).new_density
    strict_ok = all(improved > top for _, improved, top in improvement_sweep)
    applicable_ns = [n for n, _, _ in improvement_sweep]
    # the complete applicable odd-h set at or below 213
    expected_ns = [49, 61, 79, 97, 107, 142, 181, 197]
    ok = (
        abs(d1 - 0.13879) <= 1e-5
        and abs(d2 - 0.05728) <= 1e-5
        and abs(dens49 - 0.83200266) <= 1e-7
        and strict_ok
        and applicable_ns == expected_ns
    )
    report(
        6, ok,
        f"d1={d1:.6f}, d2={d2:.6f}, improved density(49)={dens49:.8f}, "
        f"odd-h moves at {applicable_ns} all beat every hole-free packing",
    )
    assert abs(d1 - 0.13879) <= 1e-5
    assert abs(d2 - 0.05728) <= 1e-5
    assert abs(dens49 - 0.83200266) <= 1e-7
    assert strict_ok
    assert applicable_ns == expected_ns


def test_criterion_07_ties_and_shapes(full_scan):
    by_n = {r.n: r for r in full_scan}
    twelve = by_n[12]
    two_shape = {n: by_n[n].shape_count for n in (4, 6, 8, 9, 10, 15, 19, 31)}
    max_shapes = max(r.shape_count for r in full_scan)
    hybrids_ok = all(
        hybrid_pair(k)[0].area() == hybrid_pair(k)[1].area() for k in range(101)
    )
    ok = (
        twelve.shape_count == 3
        and twelve.min_area == QuadInt(48, 0)
        and all(v == 2 for v in two_shape.values())
        and max_shapes <= 3
        and hybrids_ok
    )
    report(
        7, ok,
        f"n=12: 3 shapes at area 48; two-shape set exact; max shapes {max_shapes}; "
        f"hybrid ties exact for k<=100",
    )
    assert twelve.shape_count == 3 and twelve.min_area == QuadInt(48, 0)
    assert all(v == 2 for v in two_shape.values())
    assert max_shapes <= 3
    assert hybrids_ok


def test_criterion_08_convergents(full_scan):
    entries = theory.convergents(3)
    values_ok = [(e.a_k, e.b_k, e.N_k) for e in entries] == [
        (7, 2, 14), (26, 8, 208), (97, 30, 2910),
    ]
    by_n = {r.n: r for r in full_scan}
    checks = []
    for k, (a, b, n) in [(2, (26, 8, 208)), (3, (97, 30, 2910))]:
        r = by_n[n]
        checks.append(
            r.classification is Classification.REGULAR
            and ClassConfig(a, b, FULL) in r.argmin
        )
    ok = values_ok and all(checks)
    report(8, ok, "convergents (7,2,14),(26,8,208),(97,30,2910); 208 and 2910 regular hex blocks")
    assert values_ok
    assert all(checks)


def test_criterion_09_aspect_asymptotics(full_scan):
    hex_aspects = [
        r.aspect_ratio()
        for r in full_scan
        if 4000 <= r.n <= 5000 and all(c.h >= 2 and c.s == 0 for c in r.argmin)
    ]
    med = statistics.median(hex_aspects)
    limit = 2 - math.sqrt(3)
    wc = theory.waste_constants()
    ok = abs(med - limit) <= 0.05 and wc.a / wc.b == wc.limit_ratio
    report(
        9, ok,
        f"median aspect over {len(hex_aspects)} hex optima in [4000,5000] = {med:.5f} "
        f"(limit {limit:.5f}), closed form a/b exact",
    )
    assert abs(med - limit) <= 0.05
    assert wc.a / wc.b == wc.limit_ratio


def test_criterion_10_compactor():
    """Stochastic gate.

    The large relative step matters: skinny optima (n = 5 at 10 x 2, n = 7 at
    14 x 2) are flatter than any admissible starting box, and with small steps
    both walls would ride the feasibility frontier down to a mutual jam.  A
    30% step lets the height wall leap past the frontier bulge in one accepted
    move while the width wall is still wide enough, after which the halved
    steps converge onto the flat optimum.
    """
    t0 = time.time()
    template = CompactorParams(
        n=1, seed=0, slack=3.0, shrink_step=0.3,
        relax_iters=400, step_floor=1e-7, max_moves=2000,
    )
    params = replace(template, n=5, seed=13)
    twice = (compact(params), compact(params))
    deterministic = (
        twice[0].trace == twice[1].trace
        and twice[0].trace_csv() == twice[1].trace_csv()
    )
    gaps = {}
    anomaly = False
    valid = True
    for n in range(1, 9):
        rep = best_of(replace(template, n=n), 50)
        gaps[n] = rep.gap
        anomaly = anomaly or rep.anomaly
        valid = valid and rep.run.realization.is_valid()
    elapsed = time.time() - t0
    within = {n: g <= 0.02 for n, g in gaps.items()}
    ok = deterministic and valid and not anomaly and all(within.values()) and elapsed < 120
    gap_text = ", ".join(f"n={n}:{g * 100:.2f}%" for n, g in gaps.items())
    report(
        10, ok,
        f"deterministic={deterministic}, valid={valid}, anomaly={anomaly}, "
        f"gaps [{gap_text}], {elapsed:.0f}s",
    )
    assert deterministic
    assert valid
    assert not anomaly
    assert elapsed < 120
    for n, g in gaps.items():
        assert g <= 0.02, f"n={n}: best-of-50 gap {g * 100:.2f}% exceeds 2%"


def test_criterion_11_oracle_equivalence(oracle_sweep):
    rows, elapsed = oracle_sweep
    mismatches = [
        n for n, area, configs, engine_area, engine in rows
        if engine_area != area or engine != configs
    ]
    ok = not mismatches and elapsed < 10.0
    report(11, ok, f"pruned search == naive enumerator for n=1..60, {elapsed:.2f}s")
    assert not mismatches
    assert elapsed < 10.0
