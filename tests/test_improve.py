import math

import pytest

from rowpack import search
from rowpack.improve import DELTA_H5, DELTA_SIDE, MoveKind, improvement
from rowpack.packings import ClassConfig, RowPattern

SOFF = RowPattern.SHORT_OFFSET
SOUT = RowPattern.SHORT_OUTER
FULL = RowPattern.FULL


def test_delta_side_relocation():
    d1 = DELTA_SIDE
    assert d1 == pytest.approx(0.13879, abs=1e-5)
    assert d1 > 0
    # sqrt(2*sqrt(3)) is the fourth root of 12
    assert d1 == pytest.approx(2 - 12 ** 0.25, abs=1e-12)


def test_delta_h5_relocation():
    d2 = DELTA_H5
    assert d2 == pytest.approx(0.05728, abs=1e-5)
    assert d2 > 0
    assert d2 < DELTA_SIDE


def test_deltas_match_high_precision_recomputation():
    import mpmath

    mpmath.mp.dps = 40
    r3 = mpmath.sqrt(3)
    d1 = 2 - mpmath.sqrt(2 * r3)
    d2 = 2 - r3 / 2 - mpmath.root(3, 4) * (2 * r3 - 1) / (2 * mpmath.sqrt(4 - r3))
    assert DELTA_SIDE == pytest.approx(float(d1), abs=1e-12)
    assert DELTA_H5 == pytest.approx(float(d2), abs=1e-12)


def test_applicable_move():
    assert improvement(ClassConfig(17, 3, SOFF, d=1)).move is MoveKind.ODD_H_SIDE_RELOCATION
    assert improvement(ClassConfig(16, 5, FULL, d=1)).move is MoveKind.ODD_H_SIDE_RELOCATION
    assert improvement(ClassConfig(20, 5, SOUT, d=1)).move is MoveKind.H5_SHORT_OUTER_RELOCATION
    assert improvement(ClassConfig(20, 5, SOFF, d=1)).move is MoveKind.H5_SHORT_OUTER_RELOCATION
    # even h, odd h >= 7 short patterns and h = 3 short outer rows have no
    # published construction
    assert improvement(ClassConfig(27, 12, SOFF, d=1)) is None
    assert improvement(ClassConfig(14, 9, SOFF, d=1)) is None
    assert improvement(ClassConfig(10, 3, SOUT, d=1)) is None
    with pytest.raises(ValueError):
        improvement(ClassConfig(17, 3, SOFF, d=0))


def test_new_area_is_new_width_times_the_exact_height_float():
    for cfg in (ClassConfig(17, 3, SOFF, d=1), ClassConfig(16, 5, FULL, d=1),
                ClassConfig(20, 5, SOUT, d=1), ClassConfig(40, 3, SOFF, s=0, d=2)):
        report = improvement(cfg)
        assert report.new_area == report.new_width * cfg.height().to_float()  # bit for bit


def test_improved_density_49():
    report = improvement(ClassConfig(17, 3, SOFF, d=1))
    assert report.new_density == pytest.approx(0.83200266, abs=1e-7)
    d1 = DELTA_SIDE
    expected = 49 * math.pi / (2 * (1 + math.sqrt(3)) * (34 - d1))
    assert report.new_density == pytest.approx(expected, abs=1e-12)
    assert report.rattler_note is True
    assert report.remaining_holes == 0


def test_improved_width_79():
    report = improvement(ClassConfig(16, 5, FULL, d=1))
    assert report.new_width == pytest.approx(33 - DELTA_SIDE, abs=1e-12)
    assert report.move is MoveKind.ODD_H_SIDE_RELOCATION


def test_improvement_shrinks_area():
    for cfg in [
        ClassConfig(17, 3, SOFF, d=1),
        ClassConfig(16, 5, FULL, d=1),
        ClassConfig(20, 5, SOFF, d=1),
        ClassConfig(22, 9, FULL, d=1),
    ]:
        report = improvement(cfg)
        assert report.delta > 0
        assert report.new_area < cfg.area().to_float()
        assert report.new_density > cfg.density()


def test_inapplicable_rejected_with_reason():
    assert improvement(ClassConfig(27, 12, SOFF, d=1)) is None


def test_improvement_beats_every_hole_free_config_to_213(improvement_sweep):
    """The irregularity proof: improved holed optima beat all d=0 class members."""
    assert improvement_sweep
    for n, improved, best_hole_free in improvement_sweep:
        assert improved > best_hole_free, f"n={n}"


def test_reports_to_5000_are_views_of_their_members():
    """Each results line's report is the move on the first holed argmin member
    in a published family, and every number it writes is that member's."""
    def has_move(c):  # the families of the module docstring, stated apart
        return c.h % 2 == 1 and (c.pattern is FULL or c.h == 5 or (c.h == 3 and c.pattern is SOFF))

    moves, holes, h5 = {}, set(), []
    for result in search.scan_range(1, 5000):
        if result.classification is search.Classification.REGULAR:
            continue
        report = search._improvement(result)
        if report is None:
            assert not any(has_move(c) for c in result.argmin if c.d)
            continue
        assert report.member == next(c for c in result.argmin if c.d and has_move(c))
        assert report == improvement(report.member)
        assert report.remaining_holes == report.member.d - 1
        assert report.new_width == report.member.width_units - report.delta
        moves[report.move] = moves.get(report.move, 0) + 1
        holes.add(report.remaining_holes)
        if report.move is MoveKind.H5_SHORT_OUTER_RELOCATION:
            h5.append(result.n)
    assert moves == {MoveKind.ODD_H_SIDE_RELOCATION: 283, MoveKind.H5_SHORT_OUTER_RELOCATION: 3}
    assert h5 == [97, 107, 142]
    assert holes == {0, 1, 2, 3, 4}
