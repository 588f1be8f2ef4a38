import math

import pytest

from rowpack.packings import ClassConfig, RowPattern
from rowpack.search import best
from rowpack.theory import (
    convergents,
    reference_densities,
    smallest_two_row_m,
    two_row_beats_square,
    verify_convergent_regularity,
    waste_constants,
)


def test_two_row_inequalities():
    assert two_row_beats_square(7, "odd") is True      # n = 15
    assert two_row_beats_square(6, "odd") is False
    assert two_row_beats_square(7, "even") is True     # n = 14
    assert two_row_beats_square(6, "even") is False
    with pytest.raises(ValueError):
        two_row_beats_square(3, "diagonal")
    with pytest.raises(ValueError):
        two_row_beats_square(0, "odd")


def test_smallest_two_row_m():
    assert smallest_two_row_m() == 7


def test_inequalities_monotone_once_true():
    for parity in ("odd", "even"):
        seen_true = False
        for m in range(1, 10_001):
            value = two_row_beats_square(m, parity)
            if seen_true:
                assert value, f"{parity} m={m}"
            seen_true = seen_true or value
        assert seen_true


def test_waste_constants():
    wc = waste_constants()
    assert wc.s_triangle == pytest.approx(math.sqrt(3) - math.pi / 2, abs=1e-15)
    assert wc.s_triangle == pytest.approx(0.16125, abs=1e-5)
    assert wc.b == 0.5
    assert wc.a == pytest.approx((2 - math.sqrt(3)) / 2, abs=1e-15)
    assert wc.limit_ratio == pytest.approx(0.267949, abs=1e-6)
    # a/b equals the limit exactly in closed form
    assert wc.a / wc.b == wc.limit_ratio


def test_reference_densities():
    d = reference_densities()
    assert d["hex"] == pytest.approx(0.90689968, abs=1e-8)
    assert d["square"] == pytest.approx(0.78539816, abs=1e-8)
    assert d["hex"] > d["square"]


def test_convergents_values():
    entries = convergents(3)
    assert [(e.a_k, e.b_k, e.N_k) for e in entries] == [
        (7, 2, 14), (26, 8, 208), (97, 30, 2910),
    ]
    assert entries[1].N_k == 208
    assert entries[2].N_k == 2910


def test_convergent_recurrence_and_limit():
    entries = convergents(10)
    vs = [e.v_k for e in entries]
    for i in range(2, len(vs)):
        assert vs[i] == 4 * vs[i - 1] - vs[i - 2]
    target = math.sqrt(3) + 1.5
    gaps = [abs(e.a_k / e.b_k - target) for e in entries]
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))


def test_verify_convergent_regularity_k2():
    check = verify_convergent_regularity(2)
    assert check.ok and check.n == 208


@pytest.mark.parametrize("k, n", [(4, 40544), (5, 564718), (6, 7865520)])
def test_verify_convergent_regularity_k4_beyond_5000(k, n):
    check = verify_convergent_regularity(k)
    assert check.ok and check.n == n


def test_verify_convergent_regularity_k1_excluded():
    with pytest.raises(ValueError):
        verify_convergent_regularity(1)
    # and indeed N(1) = 14 is not the convergent shape
    r14 = best(14)
    assert ClassConfig(7, 2, RowPattern.FULL) not in r14.argmin
    assert ClassConfig(5, 3, RowPattern.SHORT_OFFSET) in r14.argmin
