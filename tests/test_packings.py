import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from rowpack import compactor
from rowpack.packings import (ClassConfig, PackingRealization, RowPattern, hybrid_pair,
                              row_kinds)
from rowpack.quadint import QuadInt
from rowpack.render import to_svg

SOFF = RowPattern.SHORT_OFFSET
SOUT = RowPattern.SHORT_OUTER
FULL = RowPattern.FULL


def test_h_minus_per_pattern():
    # through a member's circle-count identity, with and without holes and
    # short square rows, and through the row_kinds entry it was built from
    for pattern, h, h_minus in ((FULL, 6, 0), (SOFF, 5, 2), (SOFF, 6, 3), (SOUT, 5, 3)):
        members = [ClassConfig(4, h, pattern), ClassConfig(6, h, pattern, d=2)]
        if pattern is not SOUT:
            members.append(ClassConfig(5, h, pattern, s=2, s_minus=1, d=1))
        for c in members:
            assert c.h_minus == h_minus, c
            assert [k[2] for k in row_kinds(h, c.s > 0) if k[0] is pattern] == [h_minus], c


def test_n_of():
    assert ClassConfig(17, 3, SOUT).n == 49
    assert ClassConfig(16, 5, FULL, d=1).n == 79
    assert ClassConfig(1, 0, FULL, s=1).n == 1
    assert ClassConfig(40, 10, SOFF, d=2).n == 393


def test_width_units():
    assert ClassConfig(13, 2, SOFF).width_units == 26
    assert ClassConfig(16, 5, FULL, d=1).width_units == 33
    assert ClassConfig(4, 0, FULL, s=3).width_units == 8


def test_height():
    assert ClassConfig(13, 2, SOFF).height() == QuadInt(2, 1)
    assert ClassConfig(4, 3, SOFF, s=1).height() == QuadInt(4, 2)
    assert ClassConfig(4, 0, FULL, s=3).height() == QuadInt(6, 0)


def test_area():
    assert ClassConfig(13, 2, SOFF).area() == QuadInt(52, 26)
    assert ClassConfig(4, 3, SOFF).area() == QuadInt(16, 16)
    assert ClassConfig(12, 0, FULL, s=1).area() == QuadInt(48, 0)


def test_density():
    assert ClassConfig(13, 2, SOFF).density() == pytest.approx(0.809, abs=5e-4)
    assert ClassConfig(7, 0, FULL, s=3).density() == pytest.approx(math.pi / 4)
    assert ClassConfig(5, 0, FULL, s=2).density() == pytest.approx(math.pi / 4)
    assert ClassConfig(4, 3, SOFF).density() == pytest.approx(0.790558, abs=1e-6)


def test_aspect_ratio():
    assert ClassConfig(2, 0, FULL, s=2).aspect_ratio() == pytest.approx(1.0)
    expected = (2 + 4 * math.sqrt(3)) / 33
    assert ClassConfig(16, 5, FULL).aspect_ratio() == pytest.approx(expected)
    assert expected == pytest.approx(0.27055, abs=1e-5)
    # spec reference: the conjectured limit
    assert 2 - math.sqrt(3) == pytest.approx(0.267949, abs=1e-6)
    # taller-than-wide reports the reciprocal
    assert ClassConfig(1, 5, FULL).aspect_ratio() <= 1.0


def test_validation_rejects():
    with pytest.raises(ValueError):
        ClassConfig(0, 0, FULL, s=1)
    with pytest.raises(ValueError):
        ClassConfig(4, 1, FULL)  # h=1 is canonically h=0, s=1
    with pytest.raises(ValueError):
        ClassConfig(4, 0, FULL, s=0)
    with pytest.raises(ValueError):
        ClassConfig(4, 0, SOFF, s=2)
    with pytest.raises(ValueError):
        ClassConfig(4, 0, FULL, s=2, d=1)  # holes are hexagonal defects
    with pytest.raises(ValueError):
        ClassConfig(1, 2, SOFF)  # short rows must be nonempty
    with pytest.raises(ValueError):
        ClassConfig(4, 4, SOUT)  # outer-short needs odd h
    with pytest.raises(ValueError):
        ClassConfig(4, 3, SOUT, s=1)  # squares on a short outer row
    with pytest.raises(ValueError):
        ClassConfig(4, 2, SOFF, d=1)  # monovacancy needs h >= 3
    with pytest.raises(ValueError):
        ClassConfig(2, 5, FULL, d=1)  # ... and w >= 3
    with pytest.raises(ValueError):
        ClassConfig(3, 0, FULL, s=3, s_minus=3)  # no full row left
    with pytest.raises(ValueError):
        ClassConfig(3, 3, SOFF, d=1)  # no interior site in a 2-circle row


def test_coordinates_single_circle():
    r = ClassConfig(1, 0, FULL, s=1).coordinates()
    assert r.centers == ((1.0, 1.0),)
    assert (r.width, r.height) == (2.0, 2.0)
    assert r.max_violation() <= 1e-12


def test_coordinates_25():
    r = ClassConfig(13, 2, SOFF).coordinates()
    assert len(r.centers) == 25
    assert r.width == 26.0
    assert r.height == pytest.approx(2 + math.sqrt(3))
    assert r.max_violation() <= 1e-12


def test_coordinates_49_with_hole():
    cfg = ClassConfig(17, 3, SOFF, d=1)
    r = cfg.coordinates()
    assert len(r.centers) == 49
    assert len(r.holes) == 1
    # rows 17/16/17 minus the hole in the middle row
    ys = sorted({round(y, 9) for _, y in r.centers})
    assert len(ys) == 3
    counts = [sum(1 for _, y in r.centers if round(y, 9) == v) for v in ys]
    assert counts == [17, 15, 17]
    assert r.holes[0][1] == pytest.approx(1 + math.sqrt(3))
    assert r.max_violation() <= 1e-12


def _random_valid_configs(rng, count):
    out = []
    while len(out) < count:
        w = int(rng.integers(1, 26))
        h = int(rng.choice([0, 2, 3, 4, 5, 6, 7, 9, 12]))
        pattern = rng.choice(list(RowPattern))
        s = int(rng.integers(0, 4))
        s_minus = int(rng.integers(0, s + 1)) if s else 0
        d = int(rng.integers(0, 3))
        try:
            out.append(ClassConfig(w, h, pattern, s=s, s_minus=s_minus, d=d))
        except ValueError:
            continue
    return out


def test_realization_consistency_random():
    rng = np.random.default_rng(123)
    for cfg in _random_valid_configs(rng, 120):
        if cfg.n > 2000:
            continue
        r = cfg.coordinates()
        assert len(r.centers) == cfg.n
        assert r.max_violation() <= 1e-12
        xs = [p[0] for p in r.centers] + [p[0] for p in r.holes]
        ys = [p[1] for p in r.centers] + [p[1] for p in r.holes]
        # bounding box inflated by the radius equals the rectangle
        assert min(xs) - 1 == pytest.approx(0.0, abs=1e-12)
        assert max(xs) + 1 == pytest.approx(r.width, abs=1e-12)
        assert min(ys) - 1 == pytest.approx(0.0, abs=1e-12)
        assert max(ys) + 1 == pytest.approx(r.height, abs=1e-12)
        assert r.width == float(cfg.width_units)
        assert r.height == pytest.approx(cfg.height().to_float(), abs=1e-12)


def test_star_pair_equivalence():
    rng = np.random.default_rng(5)
    for _ in range(200):
        w = int(rng.integers(3, 40))
        h = int(rng.choice([3, 5, 7, 9, 11]))
        d = int(rng.integers(1, 3))
        try:
            a = ClassConfig(w, h, SOFF, d=d)
            b = ClassConfig(w, h, SOUT, d=d - 1)
        except ValueError:
            continue
        assert a.n == b.n
        assert a.area() == b.area()


def test_hybrid_pair_ties():
    for k in range(0, 101):
        a, b = hybrid_pair(k)
        assert a.n == b.n == 15 + 4 * k
        assert a.area() == b.area() == QuadInt(32 + 8 * k, 16 + 4 * k)
    a, b = hybrid_pair(1)
    assert (a.w, a.h) == (10, 2) and (b.w, b.h, b.s) == (5, 3, 1)
    a, b = hybrid_pair(4)
    assert (a.w, a.h) == (16, 2) and (b.w, b.h, b.s) == (8, 3, 1)
    with pytest.raises(ValueError):
        hybrid_pair(-1)


def test_square_grid_density_is_pi_over_4():
    for w, s in [(1, 1), (5, 2), (12, 1), (9, 3), (7, 7)]:
        assert ClassConfig(w, 0, FULL, s=s).density() == pytest.approx(math.pi / 4, abs=1e-12)


def test_hybrid_coordinates_validity():
    for k in (0, 1, 4):
        _, b = hybrid_pair(k)
        r = b.coordinates()
        assert len(r.centers) == b.n
        assert r.max_violation() <= 1e-12


def test_derived_fields_left_out_of_equality_hash_and_repr():
    cfg = ClassConfig(16, 5, FULL, d=1)
    assert (cfg.n, cfg.width_units, cfg.height_pair) == (79, 33, (2, 4))
    twin = ClassConfig(16, 5, FULL, d=1)
    object.__setattr__(twin, "n", 0)  # only the six parameters are compared
    object.__setattr__(twin, "width_units", 0)
    object.__setattr__(twin, "height_pair", (0, 0))
    assert twin == cfg and hash(twin) == hash(cfg)
    assert repr(cfg) == "ClassConfig(w=16, h=5, pattern=<RowPattern.FULL: 'full'>, s=0, s_minus=0, d=1)"
    derived = [f.name for f in dataclasses.fields(ClassConfig) if not f.init]
    assert derived == ["n", "width_units", "height_pair"]
    with pytest.raises(TypeError):
        ClassConfig(16, 5, FULL, 0, 0, 1, 79)


def test_derived_fields_survive_pickle():
    for cfg in (ClassConfig(16, 5, FULL, d=1), ClassConfig(4, 0, FULL, s=3, s_minus=1),
                ClassConfig(17, 3, SOUT)):
        back = pickle.loads(pickle.dumps(cfg))
        assert back == cfg
        assert ((back.n, back.width_units, back.height_pair)
                == (cfg.n, cfg.width_units, cfg.height_pair))


def test_invalid_member_raises_before_deriving():
    with pytest.raises(ValueError, match="exceed interior capacity"):
        ClassConfig(4, 3, FULL, d=3)
    with pytest.raises(ValueError, match="bad parameters ClassConfig\\(w=0, h=2"):
        ClassConfig(0, 2)


@pytest.mark.parametrize("args", [(3, 2, "full"), (3, 2, None), (3, 2, 0), (3, 0, "full", 1)],
                         ids=repr)
def test_pattern_that_is_not_a_row_pattern_is_rejected(args):
    # checked first, so the message names the pattern whatever the other
    # parameters (h = 0 has a pattern rule of its own), on one line
    with pytest.raises(ValueError, match=r"^pattern must be a RowPattern, got [^\n]*$"):
        ClassConfig(*args)


@pytest.mark.parametrize("kwargs", [
    {"w": 3.5, "h": 2}, {"w": True, "h": 0, "s": 2}, {"w": 4, "h": 3.0},
    {"w": 4, "h": 0, "s": 2, "s_minus": False}, {"w": 16, "h": 5, "d": 1.0},
], ids=repr)
def test_count_that_is_not_an_int_is_rejected(kwargs):
    # each passes the value checks, and ClassConfig(3.5, 2) would have
    # n = 7.0, ClassConfig(True, 0, s=2) n = 2: the types are checked, on one line
    with pytest.raises(ValueError, match=r"^w, h, s, s_minus and d must be ints, got [^\n]*$"):
        ClassConfig(**kwargs)


def test_realization_json_is_in_unit_radii():
    real = ClassConfig(17, 3, SOFF, d=1).coordinates()
    blob = real.to_json()
    assert blob["radius"] == 1.0
    assert PackingRealization.from_json(blob) == real
    # circles of radius 2 at distance 2 overlap; the unit-radius geometry
    # must not accept them as a valid packing
    with pytest.raises(ValueError, match="radius"):
        PackingRealization.from_json(
            {"width": 4.0, "height": 2.0, "radius": 2.0, "centers": [[1, 1], [3, 1]]}
        )


NAN, INF = math.nan, math.inf
NON_FINITE = [
    PackingRealization(centers=((NAN, NAN),), width=4.0, height=4.0),
    PackingRealization(centers=((1.0, 1.0), (3.0, NAN)), width=4.0, height=2.0),
    PackingRealization(centers=((1.0, 1.0), (INF, 1.0)), width=4.0, height=2.0),
    PackingRealization(centers=((-INF, 1.0), (3.0, 1.0)), width=4.0, height=2.0),
    PackingRealization(centers=((1.0, 1.0), (3.0, INF)), width=4.0, height=2.0),
    PackingRealization(centers=((1.0, 1.0), (3.0, 1.0)), width=INF, height=2.0),
    PackingRealization(centers=((1.0, 1.0), (3.0, 1.0)), width=4.0, height=NAN),
    PackingRealization(centers=(), width=NAN, height=2.0),
    PackingRealization.from_json(
        json.loads('{"width": 4.0, "height": 2.0, "centers": [[1.0, 1.0], [NaN, 1.0]]}')
    ),
]


@pytest.mark.parametrize("real", NON_FINITE)
def test_non_finite_packing_is_invalid(real):
    assert real.max_violation() == math.inf
    assert not real.is_valid()


@pytest.mark.parametrize("field, points", [
    ("centers", ((1.0, 1.0, 3.0), (1.0, 3.0, 1.0))),
    ("centers", ((1.0, 1.0), (3.0,))),
    ("holes", ((2.0,),)),
])
def test_points_that_are_not_pairs_are_rejected(field, points):
    kwargs = {"centers": ((1.0, 1.0),), "width": 4.0, "height": 4.0, field: points}
    with pytest.raises(ValueError, match=f"^{field} must be \\(x, y\\) pairs$"):
        PackingRealization(**kwargs).is_valid()


@pytest.mark.parametrize("real", NON_FINITE)
def test_non_finite_packing_is_not_rendered(real):
    with pytest.raises(ValueError, match="invalid"):
        to_svg(real)


@pytest.mark.parametrize("real", NON_FINITE)
def test_non_finite_packing_fails_the_compactor_check(real):
    pts = np.array(real.centers, dtype=float).reshape(-1, 2)
    assert not compactor.max_violation(pts, real.width, real.height) <= compactor.TOL
    # the clamp pulls an infinite centre into a finite box; NaN stays NaN
    xs, ys = pts[:, 0].tolist(), pts[:, 1].tolist()
    ok = compactor._relax_core(xs, ys, real.width, real.height, 100)
    assert ok == (math.isfinite(real.width * real.height) and all(map(math.isfinite, xs + ys)))
