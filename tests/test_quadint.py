import math

import numpy as np
import pytest

from rowpack.quadint import ONE, SQRT3, ZERO, QuadInt


def test_ring_basics():
    assert QuadInt(2, 0) * QuadInt(1, 1) == QuadInt(2, 2)
    assert SQRT3 * SQRT3 == QuadInt(3, 0)  # (sqrt 3)^2 = 3
    assert QuadInt(2, 2) * QuadInt(13, 0) == QuadInt(26, 26)
    assert QuadInt(5, -2) + QuadInt(-1, 7) == QuadInt(4, 5)
    assert QuadInt(5, -2) - QuadInt(-1, 7) == QuadInt(6, -9)
    assert -QuadInt(3, -4) == QuadInt(-3, 4)
    assert QuadInt(3, -4) * 5 == QuadInt(15, -20)
    assert 5 * QuadInt(3, -4) == QuadInt(15, -20)


def test_sign_rules():
    assert ZERO.sign() == 0
    assert QuadInt(2, -1).sign() == 1   # 2 - sqrt(3) > 0 since 4 > 3
    assert QuadInt(1, -1).sign() == -1  # 1 - sqrt(3) < 0
    assert QuadInt(-2, 1).sign() == -1
    assert QuadInt(-1, 1).sign() == 1
    assert QuadInt(0, -3).sign() == -1
    assert QuadInt(7, 0).sign() == 1


def test_sign_n60_contest():
    # area(9 x 7 short-offset) - area(25-wide full block) in the n=60 contest
    diff = QuadInt(-14, 8)
    assert diff.sign() == -1
    assert diff.to_float() == pytest.approx(-0.1436, abs=1e-4)


def test_compare_and_order():
    assert (QuadInt(32, 16) - QuadInt(32, 16)).sign() == 0  # the n=15 tie
    assert (QuadInt(48, 0) - QuadInt(32, 16)).sign() == -1  # 48 < 32 + 16*sqrt(3)
    assert (ZERO - ONE).sign() == -1
    assert QuadInt(48, 0) < QuadInt(32, 16)
    assert QuadInt(32, 16) <= QuadInt(32, 16)
    assert QuadInt(32, 16) >= QuadInt(48, 0)
    assert not QuadInt(32, 16) < QuadInt(32, 16)


def test_to_float():
    assert QuadInt(2, 2).to_float() == pytest.approx(5.4641016, abs=1e-6)
    assert ZERO.to_float() == 0.0
    # 26*(2 + sqrt(3)), the 25-circle area factor
    assert QuadInt(52, 26).to_float() == pytest.approx(97.03332, abs=1e-4)
    assert QuadInt(26, 26).to_float() == pytest.approx(26 + 26 * math.sqrt(3))
    assert float(QuadInt(1, 1)) == pytest.approx(1 + math.sqrt(3))


def test_sign_agrees_with_float_on_a_million_pairs():
    rng = np.random.default_rng(20260809)
    p = rng.integers(-10**6, 10**6 + 1, size=1_000_000)
    q = rng.integers(-10**6, 10**6 + 1, size=1_000_000)
    value = p.astype(np.float64) + q.astype(np.float64) * math.sqrt(3.0)

    # vectorized copy of the exact sign rule
    sign = np.zeros_like(p)
    both_zero = (p == 0) & (q == 0)
    nonneg = (p >= 0) & (q >= 0) & ~both_zero
    nonpos = (p <= 0) & (q <= 0) & ~both_zero
    sign[nonneg] = 1
    sign[nonpos] = -1
    mixed_pos = (p > 0) & (q < 0)
    sign[mixed_pos] = np.where(p[mixed_pos] ** 2 > 3 * q[mixed_pos] ** 2, 1, -1)
    mixed_neg = (p < 0) & (q > 0)
    sign[mixed_neg] = np.where(3 * q[mixed_neg] ** 2 > p[mixed_neg] ** 2, 1, -1)

    clear = np.abs(value) > 1e-6
    assert np.array_equal(sign[clear], np.sign(value[clear]).astype(sign.dtype))

    # spot-check the vectorization against the scalar implementation
    for i in rng.integers(0, len(p), size=500):
        assert QuadInt(int(p[i]), int(q[i])).sign() == int(sign[i])


def test_order_properties_random():
    rng = np.random.default_rng(7)
    vals = [QuadInt(int(a), int(b)) for a, b in rng.integers(-50, 51, size=(60, 2))]
    for a in vals[:20]:
        for b in vals[:20]:
            assert (a - b).sign() == -(b - a).sign()  # antisymmetry
            assert ((a - b).sign() == 0) == (a == b)  # equality iff fields match
    for a in vals[:12]:
        for b in vals[:12]:
            for c in vals[:12]:
                if a <= b and b <= c:
                    assert a <= c  # transitivity


def test_mul_properties_random():
    rng = np.random.default_rng(11)
    vals = [QuadInt(int(a), int(b)) for a, b in rng.integers(-999, 1000, size=(30, 2))]
    for a in vals[:10]:
        for b in vals[:10]:
            assert a * b == b * a
            for c in vals[:5]:
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p, q", [(1.5, 2), (1, 2.0), (True, 0), (1, False), (np.int64(1), 2)],
                         ids=repr)
def test_component_that_is_not_an_int_is_rejected(p, q):
    # QuadInt(1.5, 2).sign() would decide in floats, outside the exact ring
    with pytest.raises(ValueError, match=r"^p and q must be ints, got [^\n]*$"):
        QuadInt(p, q)


def test_float_factor_is_rejected():
    with pytest.raises(ValueError, match="p and q must be ints, got 0.5 and 0.5"):
        QuadInt(1, 1) * 0.5
