import math

import pytest

from rowpack.improve import (
    MoveKind,
    applicable_move,
    delta_h5_relocation,
    delta_side_relocation,
    improved_metrics,
)
from rowpack.packings import ClassConfig, RowPattern

SOFF = RowPattern.SHORT_OFFSET
SOUT = RowPattern.SHORT_OUTER
FULL = RowPattern.FULL


def test_delta_side_relocation():
    d1 = delta_side_relocation()
    assert d1 == pytest.approx(0.13879, abs=1e-5)
    assert d1 > 0
    # sqrt(2*sqrt(3)) is the fourth root of 12
    assert d1 == pytest.approx(2 - 12 ** 0.25, abs=1e-12)


def test_delta_h5_relocation():
    d2 = delta_h5_relocation()
    assert d2 == pytest.approx(0.05728, abs=1e-5)
    assert d2 > 0
    assert d2 < delta_side_relocation()


def test_deltas_match_high_precision_recomputation():
    import mpmath

    mpmath.mp.dps = 40
    r3 = mpmath.sqrt(3)
    d1 = 2 - mpmath.sqrt(2 * r3)
    d2 = 2 - r3 / 2 - mpmath.root(3, 4) * (2 * r3 - 1) / (2 * mpmath.sqrt(4 - r3))
    assert delta_side_relocation() == pytest.approx(float(d1), abs=1e-12)
    assert delta_h5_relocation() == pytest.approx(float(d2), abs=1e-12)


def test_applicable_move():
    assert applicable_move(ClassConfig(17, 3, SOFF, d=1)) is MoveKind.ODD_H_SIDE_RELOCATION
    assert applicable_move(ClassConfig(16, 5, FULL, d=1)) is MoveKind.ODD_H_SIDE_RELOCATION
    assert applicable_move(ClassConfig(20, 5, SOUT, d=1)) is MoveKind.H5_SHORT_OUTER_RELOCATION
    assert applicable_move(ClassConfig(20, 5, SOFF, d=1)) is MoveKind.H5_SHORT_OUTER_RELOCATION
    # even h and odd h >= 7 short patterns have no published construction
    assert applicable_move(ClassConfig(27, 12, SOFF, d=1)) is MoveKind.NONE
    assert applicable_move(ClassConfig(14, 9, SOFF, d=1)) is MoveKind.NONE
    with pytest.raises(ValueError):
        applicable_move(ClassConfig(17, 3, SOFF, d=0))


def test_improved_density_49():
    report = improved_metrics(ClassConfig(17, 3, SOFF, d=1))
    assert report.new_density == pytest.approx(0.83200266, abs=1e-7)
    d1 = delta_side_relocation()
    expected = 49 * math.pi / (2 * (1 + math.sqrt(3)) * (34 - d1))
    assert report.new_density == pytest.approx(expected, abs=1e-12)
    assert report.rattler_note is True
    assert report.remaining_holes == 0


def test_improved_width_79():
    report = improved_metrics(ClassConfig(16, 5, FULL, d=1))
    assert report.new_width == pytest.approx(33 - delta_side_relocation(), abs=1e-12)
    assert report.move is MoveKind.ODD_H_SIDE_RELOCATION


def test_improvement_shrinks_area():
    for cfg in [
        ClassConfig(17, 3, SOFF, d=1),
        ClassConfig(16, 5, FULL, d=1),
        ClassConfig(20, 5, SOFF, d=1),
        ClassConfig(22, 9, FULL, d=1),
    ]:
        report = improved_metrics(cfg)
        assert report.delta > 0
        assert report.new_area < cfg.area().to_float()
        assert report.new_density > cfg.density()


def test_inapplicable_rejected_with_reason():
    with pytest.raises(ValueError, match="no applicable relocation"):
        improved_metrics(ClassConfig(27, 12, SOFF, d=1))


def test_improvement_beats_every_hole_free_config_to_213(improvement_sweep):
    """The irregularity proof: improved holed optima beat all d=0 class members."""
    assert improvement_sweep
    for n, improved, best_hole_free in improvement_sweep:
        assert improved > best_hole_free, f"n={n}"
