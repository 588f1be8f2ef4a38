import hashlib
import math

import pytest

from rowpack.packings import ClassConfig, RowPattern, hybrid_pair
from rowpack.render import aspect_line, aspect_scatter_csv, to_svg
from rowpack.search import best, scan_range

SOFF = RowPattern.SHORT_OFFSET
FULL = RowPattern.FULL


def test_single_circle_svg():
    svg = to_svg(ClassConfig(1, 0, FULL, s=1).coordinates())
    assert svg.count("<circle") == 1
    assert 'viewBox="0 0 40.000000 40.000000"' in svg
    assert svg.count("<rect") == 1


def test_49_with_hole_svg():
    svg = to_svg(ClassConfig(17, 3, SOFF, d=1).coordinates())
    solid = svg.count('stroke="black"') - svg.count("dasharray") - 1  # minus rect
    assert solid == 49
    assert svg.count("dasharray") == 1
    assert ">?</text>" in svg


def test_byte_stable():
    cfg = ClassConfig(16, 5, FULL, d=1)
    assert to_svg(cfg.coordinates()) == to_svg(cfg.coordinates())


def test_rejects_invalid_realization():
    from rowpack.packings import PackingRealization

    bad = PackingRealization(centers=((1.0, 1.0), (2.0, 1.0)), width=4.0, height=2.0)
    with pytest.raises(ValueError):
        to_svg(bad)


def test_aspect_scatter_rules():
    results = scan_range(1, 30)
    csv = "".join(aspect_scatter_csv(map(aspect_line, results)))
    lines = csv.splitlines()
    assert lines[0] == "n,aspect"
    assert lines[-1] == f"limit,{2 - math.sqrt(3):.6f}"
    by_n = dict(line.split(",") for line in lines[1:])
    expected_25 = (2 + math.sqrt(3)) / 26
    assert expected_25 == pytest.approx(0.14354, abs=1e-5)
    assert by_n["25"] == f"{expected_25:.6f}"
    assert "12" not in by_n  # square-grid optimum excluded
    assert "15" not in by_n  # hybrid tie excluded
    assert "11" in by_n


def test_aspect_scatter_row_count_matches_hex_only_optima():
    results = scan_range(1, 60)
    csv = "".join(aspect_scatter_csv(map(aspect_line, results)))
    csv_rows = len(csv.splitlines()) - 2  # header + limit
    hex_only = sum(
        1 for r in results if all(c.h >= 2 and c.s == 0 for c in r.argmin)
    )
    assert csv_rows == hex_only


def test_scatter_includes_best_49_once():
    results = [best(49)]
    csv = "".join(aspect_scatter_csv(map(aspect_line, results)))
    assert csv.count("49,") == 1  # ties share a single shape, one row


def test_aspect_scatter_is_lazy():
    # the header is out before the first result is taken, one line per result after
    taken = []

    def results():
        for n in (25, 49):
            taken.append(n)
            yield best(n)

    lines = aspect_scatter_csv(map(aspect_line, results()))
    assert next(lines) == "n,aspect\n" and taken == []
    assert next(lines).startswith("25,") and taken == [25]
    assert next(lines).startswith("49,") and taken == [25, 49]
    assert next(lines).startswith("limit,")


@pytest.mark.parametrize("cfg, digest", [
    (ClassConfig(17, 3, SOFF, d=1),
     "f1075c8e627501d9bcc4f64dfb36ebbb011f69755ed162cf00fd4a072dd6fd20"),
    (ClassConfig(16, 5, FULL, d=1),
     "3ea2641bde0cb4c8de0afaf3a8c4f07dbae3c4f8551cf1924b4c8c402136a71d"),
    (hybrid_pair(4)[1],
     "babe59a729a4862584aa1121af35423684064c6078a530b38788655abe910630"),
])
def test_svg_golden_bytes(cfg, digest):
    """The SVG of a holed, a full-row and a hybrid packing stays byte for byte the same."""
    assert hashlib.sha256(to_svg(cfg.coordinates()).encode()).hexdigest() == digest


def test_svg_golden_bytes_large():
    """A render-workload tail size: 2857 circles in 29 rows of 99 and 98."""
    (cfg,) = best(2857).argmin
    assert cfg == ClassConfig(99, 29, SOFF)
    digest = hashlib.sha256(to_svg(cfg.coordinates()).encode()).hexdigest()
    assert digest == "b73e1e0da483e22715a627355e106d7f8a8953321c1b4037860601c512dd0804"

