import hashlib
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from naive_oracle import _area, enumerate_members, enumerated_best, members_within
from rowpack import search
from rowpack.packings import ClassConfig, RowPattern
from rowpack.quadint import QuadInt
from rowpack.search import (
    BLOCK,
    Classification,
    SearchResult,
    best,
    iter_range,
    milestones,
    read_results,
    result_to_json,
    result_to_line,
    scan_range,
    write_results,
)

SOFF = RowPattern.SHORT_OFFSET
SOUT = RowPattern.SHORT_OUTER
FULL = RowPattern.FULL


def as_tuple(cfg: ClassConfig) -> tuple:
    return (cfg.w, cfg.h, cfg.pattern.value, cfg.s, cfg.s_minus, cfg.d)


def test_enumerate_n1():
    assert list(enumerate_members(1, 5)) == [(1, 0, "full", 1, 0, 0)]


def test_enumerate_n12_members():
    got = list(enumerate_members(12, 0))
    for member in [
        (12, 0, "full", 1, 0, 0),
        (6, 0, "full", 2, 0, 0),
        (4, 0, "full", 3, 0, 0),
        (6, 2, "full", 0, 0, 0),
        (4, 3, "full", 0, 0, 0),
    ]:
        assert member in got
    # everything enumerated must be a valid member holding 12 circles, once
    assert len(set(got)) == len(got)
    for w, h, pattern, s, s_minus, d in got:
        assert ClassConfig(w, h, RowPattern(pattern), s, s_minus, d).n == 12


def test_enumerate_n49_includes_star_pair():
    star_pair = {(17, 3, "short_outer", 0, 0, 0), (17, 3, "short_offset", 0, 0, 1)}
    assert star_pair <= set(enumerate_members(49, 5))
    assert star_pair <= {as_tuple(c) for c in best(49).argmin}


def test_members_within_equals_filtered_enumeration():
    # the area-bounded enumerator drops exactly the members larger than its cap
    for n in range(1, 41):
        hole_free = enumerated_best(n, 0)[0]
        for area, d_max in ((hole_free, None), (hole_free, 2), ((hole_free[0] + 6, hole_free[1] + 2), 5)):
            want = sorted(m for m in enumerate_members(n, d_max)
                          if QuadInt(*_area(*m[:4])) <= QuadInt(*area))
            assert members_within(n, area, d_max) == want, (n, area, d_max)


def test_best_small_anchor_cases():
    r11 = best(11)
    assert r11.min_area == QuadInt(16, 16)
    assert [as_tuple(c) for c in r11.argmin] == [(4, 3, "short_offset", 0, 0, 0)]

    r49 = best(49)
    assert r49.classification is Classification.MAY_HAVE_HOLE
    assert r49.width == 34
    assert r49.height() == QuadInt(2, 2)

    r79 = best(79)
    assert r79.classification is Classification.MUST_HAVE_HOLE
    assert [as_tuple(c) for c in r79.argmin] == [(16, 5, "full", 0, 0, 1)]

    r12 = best(12)
    assert r12.shape_count == 3
    assert r12.min_area == QuadInt(48, 0)


def test_classify_examples():
    assert best(25).classification is Classification.REGULAR
    assert best(97).classification is Classification.MAY_HAVE_HOLE
    r49, r50 = best(49), best(50)
    assert r50.classification is Classification.REGULAR
    assert (r50.width, r50.height()) == (r49.width, r49.height())


def test_search_result_is_built_from_its_argmin():
    # n = 49 has two argmin members of area 68 + 68*sqrt(3)
    r49 = best(49)
    assert SearchResult(r49.argmin) == r49
    assert (r49.n, r49.min_area) == (49, QuadInt(68, 68))
    with pytest.raises(TypeError):
        SearchResult(49, QuadInt(68, 68), r49.argmin)


@pytest.mark.parametrize("case", ["empty", "other-n", "other-area", "reversed", "repeated"])
def test_search_result_rejects_an_argmin_contradicting_itself(case):
    a, b = best(49).argmin
    argmin, match = {
        "empty": ((), "argmin must not be empty"),
        "other-n": ((a, best(50).argmin[0]), r"does not have n = 49 and area 68 \+ 68\*sqrt\(3\)"),
        # the one-row strip holds 49 circles in area 196
        "other-area": ((a, ClassConfig(49, 0, FULL, s=1)), r"\(w=49, h=0, .* does not have n = 49 "
                                                            r"and area 68 \+ 68\*sqrt\(3\)"),
        "reversed": ((b, a), "is out of order or repeated"),
        "repeated": ((a, a, b), "is out of order or repeated"),
    }[case]
    with pytest.raises(ValueError, match=match) as exc:
        SearchResult(argmin)
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("case", ["list", "generator", "tuple-member", "none-member", "second"])
def test_search_result_rejects_an_argmin_that_is_not_a_tuple_of_members(case):
    # a list would be stored as given: unhashable, and unequal to best(49)
    a, b = best(49).argmin
    argmin, match = {
        "list": ([a, b], "argmin must be a tuple of ClassConfig, got a list"),
        "generator": ((c for c in (a, b)), "argmin must be a tuple of ClassConfig, got a generator"),
        "tuple-member": (((17, 3, RowPattern.SHORT_OFFSET, 0, 0, 1),),
                         r"argmin member \(17, 3, .* is not a ClassConfig"),
        "none-member": ((None,), "argmin member None is not a ClassConfig"),
        "second": ((a, "b"), "argmin member 'b' is not a ClassConfig"),
    }[case]
    with pytest.raises(ValueError, match=match) as exc:
        SearchResult(argmin)
    assert "\n" not in str(exc.value)


def test_post_init_runs_once_per_member_built(monkeypatch):
    # the traced benchmark counts ClassConfig.__post_init__ calls as the
    # members a scan builds (packings.configs_built)
    calls = 0
    post_init = ClassConfig.__post_init__

    def counted(self):
        nonlocal calls
        calls += 1
        post_init(self)

    monkeypatch.setattr(ClassConfig, "__post_init__", counted)
    results = scan_range(1, 300)
    assert calls == sum(len(r.argmin) for r in results) > 300


def test_search_result_n_and_area_equal_the_sieves_1_to_5000():
    # each tie shape (w, h, pattern, s, holes, top) the sieve keeps for n has
    # the exact minimum area, width * H(h, s), whatever members it holds
    results = iter(scan_range(1, 5000))
    for n_lo in range(1, 5001, BLOCK):
        for n, shapes in enumerate(search._sieve(n_lo, min(n_lo + BLOCK - 1, 5000)), n_lo):
            r = next(results)
            assert r.n == n
            for w, h, pattern, s, _, _ in shapes:
                width = 2 * w + 1 if h >= 2 and pattern is FULL else 2 * w
                height = QuadInt(2 * s, 0) if h == 0 else QuadInt(2 + 2 * s, h - 1)
                assert r.min_area == height * width, (n, w, h, pattern, s)
    assert next(results, None) is None


def test_oracle_equivalence_to_60(oracle_sweep):
    rows, _ = oracle_sweep
    assert [row[0] for row in rows] == list(range(1, 61))
    for n, area, configs, engine_area, engine_configs in rows:
        assert engine_area == area, f"n={n}"
        assert engine_configs == configs, f"n={n}"


def test_enumerator_min_and_ties_equal_oracle_to_60(oracle_sweep):
    rows, _ = oracle_sweep
    for n, area, configs, _, _ in rows:
        assert enumerated_best(n, 5) == (area, configs), f"n={n}"


def test_irregular_scan_first_values():
    # the non-regular n of a range, as `rowpack irregular` filters them
    results = iter_range(1, 120)
    assert [r.n for r in results if r.classification is not Classification.REGULAR] == [
        49, 61, 79, 97, 107,
    ]


@pytest.mark.parametrize("jobs", [0, -3])
def test_scans_reject_jobs_below_one(jobs):
    with pytest.raises(ValueError, match="^jobs must be >= 1"):
        scan_range(1, 5, jobs=jobs)
    with pytest.raises(ValueError, match="^jobs must be >= 1"):
        iter_range(1, 5, jobs=jobs)  # before the first result is asked for


def test_milestones_shape():
    report = milestones(420, results=scan_range(1, 420))
    assert report.even_h_holed == 317
    assert report.first_min_d[2] == 393
    assert report.first_min_d[3] is None
    assert list(report.first_min_d) == [2, 3, 4, 5]
    assert report.max_min_d == 2


def test_milestones_key_for_each_min_d_seen():
    # a full scan is accepted, and results past n_hi are skipped
    report = milestones(8600, results=scan_range(1, 8610))
    assert report.even_h_holed == 317
    assert report.first_min_d == {2: 393, 3: 717, 4: 2732, 5: 2776, 6: 8562}
    assert report.max_min_d == 6
    assert list(report.to_json()["first_min_d"]) == ["2", "3", "4", "5", "6"]


def test_milestones_reject_a_scan_not_starting_at_1():
    with pytest.raises(ValueError, match="must be exactly n = 1..8600 in order"):
        milestones(8600, results=scan_range(8500, 8600))
    with pytest.raises(ValueError, match="must be exactly n = 1..10 in order"):
        milestones(10, results=scan_range(1, 9))


@pytest.mark.parametrize("d_max", [9, 10**9])
def test_best_8562_beyond_the_hole_cap(d_max):
    # the class minimum needs six holes: the brute force capped at d_max >= 6
    # holes finds exactly best's argmin, and nothing that small with five
    r = best(8562)
    assert r.min_area == QuadInt(674, 16850)
    assert [as_tuple(c) for c in r.argmin] == [(168, 51, "full", 0, 0, 6)]
    area = (r.min_area.p, r.min_area.q)
    assert members_within(8562, area, d_max) == [as_tuple(c) for c in r.argmin]
    assert members_within(8562, area, 5) == []


@pytest.mark.parametrize("n", [21817, 100003, 564718])
def test_best_equals_members_within_past_8562(n):
    # the independent oracle lists every member no larger than best's area;
    # 21817 is the first n whose minimum needs seven holes
    r = best(n)
    assert members_within(n, (r.min_area.p, r.min_area.q)) == [as_tuple(c) for c in r.argmin]


def test_best_14261_and_18888_beyond_the_hole_cap():
    # a cap of five holes gave larger areas here too; these need no cap
    assert best(14261).min_area == QuadInt(880, 28160)
    assert best(18888).min_area == QuadInt(1130, 37290)


def test_scan_5001_to_20000_golden():
    # sha256 of the JSONL, recorded from a search with no effective hole cap;
    # a cap of five holes changes lines in this range (8562, 14261, 18888)
    jsonl = "".join(result_to_line(r) for r in scan_range(5001, 20000))
    assert hashlib.sha256(jsonl.encode()).hexdigest() == (
        "73e6e79d8bd0da6ec744dcad37401c37a6bd313c7567b240c4c8ce5cfb9fd1df"
    )


@pytest.mark.parametrize("n_lo, digest", [
    (10**7 + 1, "2b88482c4ee4268ba3e2c38f7197cd0f74b06e3a36b91a2e21a0f015d0b57347"),
    (10**9 + 1, "0974b10b3c4a23e3ad31b94f53f0d3d63da967b2a4b1d07f1ddcd17a2ae2a0a3"),
    (10**12 + 1, "6cbe3da86de60d3b7c460a4130d385c4cd73cbd10a18349804c4736535c4a7e6"),
], ids=["10^7+1", "10^9+1", "10^12+1"])
def test_one_block_golden_past_the_census(n_lo, digest):
    # sha256 of the JSONL of 64 n (one block) far past the goldens above: the
    # float filter's verdicts at large n must leave every byte as it was
    jsonl = "".join(result_to_line(r) for r in scan_range(n_lo, n_lo + 63))
    assert hashlib.sha256(jsonl.encode()).hexdigest() == digest


def dumps(blob) -> str:
    """A JSON value in the writer's compact spelling, newline-terminated."""
    return json.dumps(blob, separators=(",", ":")) + "\n"


def json_line(result) -> str:
    """The results line as json.dumps writes it: the oracle for result_to_line."""
    return dumps(result_to_json(result))


def edited(line: dict, edits: dict) -> dict:
    """The line with each dotted path ("argmin.0.w") set to its value."""
    for dotted, value in edits.items():
        *keys, last = (int(k) if k.isdigit() else k for k in dotted.split("."))
        target = line
        for key in keys:
            target = target[key]
        target[last] = value
    return line


def test_result_to_line_equals_json_dumps_1_to_5000():
    for r in scan_range(1, 5000):
        assert result_to_line(r) == json_line(r), r.n


@settings(max_examples=20, deadline=None)
@given(st.integers(5001, 100000 - BLOCK + 1))
def test_result_to_line_equals_json_dumps_on_a_block(n_lo):
    for r in scan_range(n_lo, n_lo + BLOCK - 1):
        assert result_to_line(r) == json_line(r), r.n


@pytest.mark.parametrize("n, cls, min_d, improvement", [
    (12, "regular", 0, "absent"),  # three square-grid ties, h = 0
    (49, "may_hole", 0, "odd_h_side_relocation"),
    (79, "must_hole", 1, "odd_h_side_relocation"),
    (121, "may_hole", 0, None),  # odd h = 9 short rows: no published move
    (191, "must_hole", 1, None),  # even h = 8
    (8562, "must_hole", 6, "odd_h_side_relocation"),  # six holes
])
def test_result_to_line_named_cases(n, cls, min_d, improvement):
    r = best(n)
    line = result_to_line(r)
    assert line == json_line(r)
    blob = json.loads(line)
    assert (blob["class"], blob["min_d"]) == (cls, min_d)
    if improvement == "absent":
        assert "improvement" not in blob
    elif improvement is None:
        assert line.endswith(',"improvement":null}\n')
    else:
        assert blob["improvement"]["move"] == improvement


def test_milestone_411_argmin():
    r = best(411)
    assert ClassConfig(38, 11, SOUT, d=1) in r.argmin
    assert ClassConfig(38, 11, SOFF, d=2) in r.argmin
    assert r.min_d == 1


def test_shape_census():
    census = {r.n: r.shape_count for r in scan_range(1, 31)}
    assert census[12] == 3
    for n in (4, 6, 8, 9, 10, 15, 19, 31):
        assert census[n] == 2, f"n={n}"
    assert census[25] == 1


def test_density_exactness_via_area():
    # density > pi/4 exactly when the exact area drops below 4n
    for n, expect in [(10, False), (11, True), (12, False), (13, False), (14, True)]:
        r = best(n)
        assert ((QuadInt(4 * n, 0) - r.min_area).sign() > 0) is expect


def test_scan_range_parallel_matches_serial():
    serial = scan_range(1, 80, jobs=1)
    parallel = scan_range(1, 80, jobs=2)
    assert [result_to_json(r) for r in serial] == [result_to_json(r) for r in parallel]


def test_derived_member_fields_cross_processes():
    # ClassConfig equality ignores its derived fields, so compare them directly
    def derived(results):
        return [[(c.n, c.width_units, c.height_pair) for c in r.argmin] for r in results]

    parallel, serial = scan_range(1, 300, jobs=2), scan_range(1, 300, jobs=1)
    assert parallel == serial
    assert derived(parallel) == derived(serial)
    for r in parallel:
        assert {c.n for c in r.argmin} == {r.n}
        assert all(c.width_units * c.height() == r.min_area for c in r.argmin)


def test_results_round_trip(tmp_path):
    path = tmp_path / "results.jsonl"
    results = [best(n) for n in (1, 12, 49, 79)]
    write_results(results, path)
    loaded = read_results(path)
    assert loaded == results


def test_census_file_is_pinned_and_reads_back(tmp_path):
    # the bytes `rowpack range --from 1 --to 5000` prints, as a file, and
    # the results read back from it
    results = scan_range(1, 5000)
    path = tmp_path / "census.jsonl"
    write_results(results, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "2aaa292908cd42ef79f8f36b45314e3195ac50b68117eeb34b7a7052b0049c54"
    )
    assert read_results(path) == results


def test_results_file_line_count(tmp_path):
    path = tmp_path / "r.jsonl"
    write_results(scan_range(1, 53), path)
    assert len(path.read_text().splitlines()) == 53


def test_results_last_line_without_newline_and_blank_lines_read_back(tmp_path):
    path = tmp_path / "r.jsonl"
    results = [best(n) for n in (1, 49)]
    lines = [result_to_line(r) for r in results]
    path.write_text("\n" + lines[0] + "  \n" + lines[1].rstrip("\n"))
    assert read_results(path) == results


def test_results_corrupt_line_names_line_number(tmp_path):
    path = tmp_path / "bad.jsonl"
    lines = [result_to_line(best(n)) for n in (1, 2)]
    lines.insert(1, '{"n":7,"oops"\n')
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match="line 2"):
        read_results(path)


@pytest.mark.parametrize("bad", [
    [], {"n": None}, {"argmin": 5}, {"area": "x"}, {"argmin": [[1, 2]]},
], ids=["list", "n-null", "argmin-int", "area-str", "argmin-pair"])
def test_results_line_of_wrong_shape_names_line_number(tmp_path, bad):
    # valid JSON of the wrong shape, after one good line
    path = tmp_path / "bad.jsonl"
    line = result_to_json(best(12))
    blob = bad if isinstance(bad, list) else {**line, **bad}
    path.write_text(result_to_line(best(2)) + dumps(blob))
    with pytest.raises(ValueError, match="line 2: corrupt results line"):
        read_results(path)


def test_results_line_contradicting_its_argmin_is_rejected(tmp_path):
    # n = 79 has one argmin member, with d = 1 and area 66 + 132*sqrt(3):
    # must_hole, min_d 1, 1 shape
    path = tmp_path / "r.jsonl"
    line = result_to_json(best(79))
    path.write_text(result_to_line(best(79)))
    assert read_results(path) == [best(79)]
    for key, wrong in (("class", "regular"), ("min_d", 0), ("shapes", 7),
                       ("n", 80), ("width", 999), ("height", {"p": 2, "q": 9})):
        path.write_text(dumps({**line, key: wrong}))
        with pytest.raises(ValueError, match=f"line 1: .*\\b{key}\\b"):
            read_results(path)
    # a line edited to an area its member does not have: its area,
    # area.float and density agree, so only the member's area contradicts it
    area = QuadInt(1, 1).to_float()
    path.write_text(dumps(edited(result_to_json(best(79)), {
        "area.p": 1, "area.q": 1, "area.float": area, "density": 79 * math.pi / area})))
    with pytest.raises(ValueError, match=r'line 1: corrupt results line \(area is '
                                         r'\{"p":1,"q":1,'):
        read_results(path)


@pytest.mark.parametrize("edits", [
    {"density": 2.5}, {"aspect": 0.5}, {"area.float": 1.0},
    {"improvement": None}, {"improvement.delta": 0.5},
], ids=lambda edits: ",".join(f"{k}={v!r}" for k, v in edits.items()))
def test_results_line_with_an_edited_derived_field_is_rejected(tmp_path, edits):
    # n = 49 is may_hole with the odd-h side relocation; the floats and the
    # move are derived from its argmin, so an edit to any of them is a line
    # the writer never wrote
    line = result_to_json(best(49))
    assert dumps(line) == result_to_line(best(49))
    path = tmp_path / "r.jsonl"
    path.write_text(dumps(edited(line, edits)))
    key = next(iter(edits)).split(".")[0]
    with pytest.raises(ValueError, match=f"line 1: corrupt results line \\({key} is "):
        read_results(path)


@pytest.mark.parametrize("spelling", ["default-separators", "n-last", "aspect-before-density"])
def test_results_line_spelled_otherwise_is_rejected(tmp_path, spelling):
    # every value is the writer's, but a line is read only as the writer spells it
    line = result_to_json(best(49))
    if spelling == "default-separators":
        text = json.dumps(line) + "\n"
    elif spelling == "n-last":
        text = dumps({**{k: v for k, v in line.items() if k != "n"}, "n": 49})
    else:
        keys = list(line)
        i, j = keys.index("density"), keys.index("aspect")
        keys[i], keys[j] = keys[j], keys[i]
        text = dumps({k: line[k] for k in keys})
    path = tmp_path / "r.jsonl"
    path.write_text(text)
    # json.dumps's default separators put a space after every colon, members' included
    match = ("no argmin member is spelled" if spelling == "default-separators"
             else "the line is not spelled")
    with pytest.raises(ValueError, match=f"line 1: corrupt results line \\({match}"):
        read_results(path)


def test_results_line_past_float_range_is_rejected(tmp_path):
    # a one-row grid of 10**310 circles has an exact area, but no float
    # area, density or aspect: write_results raises OverflowError on it, so
    # no results file holds this line, whatever its floats say
    n = 10**310
    line = {"n": n, "area": {"p": 4 * n, "q": 0, "float": 1.0}, "width": 2 * n,
            "height": {"p": 2, "q": 0}, "density": 0.5, "aspect": 0.5, "class": "regular",
            "min_d": 0, "shapes": 1,
            "argmin": [{"w": n, "h": 0, "pattern": "full", "s": 1, "s_minus": 0, "d": 0}]}
    path = tmp_path / "r.jsonl"
    path.write_text(dumps(line))
    with pytest.raises(ValueError, match="line 1: corrupt results line"):
        read_results(path)


def test_results_line_of_an_area_whose_float_overflows_is_neither_written_nor_read(tmp_path):
    # the area's integers each fit a float, their float sum does not: JSON
    # has no inf, so the writer refuses the line, and the reader the same
    # line spelled by json.dumps (Infinity, NaN)
    c = ClassConfig(25 * 10**306, 3, FULL)
    result = SearchResult((c,))
    with pytest.raises(OverflowError, match="has no float"):
        result_to_line(result)
    path = tmp_path / "r.jsonl"
    path.write_text(dumps(result_to_json(result)))
    assert '"float":Infinity' in path.read_text()
    with pytest.raises(ValueError, match="line 1: corrupt results line .*has no float"):
        read_results(path)


@pytest.mark.parametrize("edits", [
    {"n": 49.9, "area.p": 68.2, "argmin.0.w": 17.5},
    {"n": 49.0}, {"n": "49"},
    {"area.p": 68.2}, {"area.q": 68.0}, {"area.p": "68"},
    {"argmin.0.w": 17.5}, {"argmin.0.h": "3"}, {"argmin.0.d": True}, {"argmin.1.d": False},
    {"argmin.1.s": 0.0}, {"argmin.1.s_minus": None},
    {"min_d": False}, {"shapes": 1.0}, {"shapes": True},
    {"width": 34.0}, {"height.p": 2.0},
], ids=lambda edits: ",".join(f"{k}={v!r}" for k, v in edits.items()))
def test_results_line_with_a_non_int_number_is_rejected(tmp_path, edits):
    # n = 49: area 68 + 68*sqrt(3), min_d 0, one shape, width 34, height
    # 2 + 2*sqrt(3); its first argmin member is (17, 3, short_offset) with
    # d = 1, its second has d = 0.
    # int() would read each value as the integer it stands for.
    path = tmp_path / "r.jsonl"
    path.write_text(dumps(edited(result_to_json(best(49)), edits)))
    with pytest.raises(ValueError, match="line 1: corrupt results line"):
        read_results(path)


@pytest.mark.parametrize("pattern", ["bogus", 5, None, ["full"]], ids=repr)
def test_results_line_with_a_bad_pattern_is_rejected(tmp_path, pattern):
    # an unknown pattern value, a number, null or a list must each name the line
    line = result_to_json(best(49))
    line["argmin"][0]["pattern"] = pattern
    path = tmp_path / "r.jsonl"
    path.write_text(dumps(line))
    with pytest.raises(ValueError, match="line 1: corrupt results line"):
        read_results(path)


@pytest.mark.parametrize("order", ["reversed", "repeated"])
def test_results_line_with_argmin_out_of_order_is_rejected(tmp_path, order):
    # n = 49 has two argmin members, written in strictly increasing
    # ClassConfig.sort_key order
    line = result_to_json(best(49))
    argmin = line["argmin"]
    assert len(argmin) == 2
    members = argmin[::-1] if order == "reversed" else [argmin[0], *argmin]
    path = tmp_path / "r.jsonl"
    path.write_text(dumps({**line, "argmin": members}))
    with pytest.raises(ValueError, match="line 1: corrupt results line .* out of order"):
        read_results(path)


def test_result_json_schema():
    line = result_to_json(best(49))
    assert line["n"] == 49
    assert set(line["area"]) == {"p", "q", "float"}
    assert line["width"] == 34
    assert line["height"] == {"p": 2, "q": 2}
    assert line["class"] == "may_hole"
    assert line["min_d"] == 0
    assert line["shapes"] == 1
    assert line["density"] == pytest.approx(49 * math.pi / QuadInt(68, 68).to_float())
    assert "improvement" in line  # non-regular rows embed the improvement report
    assert line["improvement"]["move"] == "odd_h_side_relocation"
    regular = result_to_json(best(50))
    assert "improvement" not in regular


def test_monotone_min_area_prefix():
    results = scan_range(1, 160)
    for a, b in zip(results, results[1:]):
        assert (b.min_area - a.min_area).sign() >= 0
