"""The frozen-dataclass contract of the four value types a census builds by the
thousand: QuadInt, ClassConfig, SearchResult and ImprovementReport.

Each is a frozen slotted dataclass with `init=False` and a hand-written
`__init__` that stores every slot through its member-descriptor setter.  These
tests pin what the generated `__init__` gave: frozen fields, eq and hash over
the compared fields only, derived fields that survive pickling, a
`dataclasses.replace` that checks again, and a TypeError for a wrong argument
count.
"""
import dataclasses
import pickle

import pytest

from rowpack.improve import ImprovementReport, MoveKind, improvement
from rowpack.packings import ClassConfig, RowPattern
from rowpack.quadint import QuadInt
from rowpack.search import SearchResult, best

SOFF = RowPattern.SHORT_OFFSET

# type -> (a value built as the program builds it, its field names)
VALUES = {
    "QuadInt": (lambda: QuadInt(68, 68), ["p", "q"]),
    "ClassConfig": (lambda: ClassConfig(16, 5, RowPattern.FULL, d=1),
                    ["w", "h", "pattern", "s", "s_minus", "d", "n", "width_units", "height_pair"]),
    "SearchResult": (lambda: best(49),
                     ["argmin", "n", "min_area", "classification", "min_d", "shape_count"]),
    "ImprovementReport": (lambda: improvement(ClassConfig(17, 3, SOFF, d=1)),
                          ["move", "delta", "new_width", "new_area", "new_density",
                           "rattler_note", "remaining_holes"]),
}
TYPES = list(VALUES)


def _value(name):
    return VALUES[name][0]()


@pytest.mark.parametrize("name", TYPES)
def test_is_a_frozen_slotted_dataclass_with_its_fields(name):
    value = _value(name)
    names = [f.name for f in dataclasses.fields(value)]
    assert type(value).__name__ == name
    assert names == VALUES[name][1]
    assert type(value).__slots__ == tuple(names)
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("name", TYPES)
def test_assigning_or_deleting_a_field_raises(name):
    value = _value(name)
    for f in dataclasses.fields(value):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, f.name, getattr(value, f.name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, f.name)


@pytest.mark.parametrize("name", TYPES)
def test_eq_and_hash_read_the_compared_fields_only(name):
    value, twin = _value(name), _value(name)
    compared = [f.name for f in dataclasses.fields(value) if f.compare]
    assert value == twin and value is not twin
    assert hash(value) == hash(tuple(getattr(value, field) for field in compared))
    for f in dataclasses.fields(value):
        altered = _value(name)
        object.__setattr__(altered, f.name, object())
        # only ClassConfig has fields out of eq and hash: its derived n,
        # width_units and height_pair
        assert (altered == value) is (not f.compare)
        if not f.compare:
            assert hash(altered) == hash(value)


@pytest.mark.parametrize("name", TYPES)
def test_pickle_round_trip_keeps_every_field(name):
    value = _value(name)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value) and back == value
        for f in dataclasses.fields(value):
            assert getattr(back, f.name) == getattr(value, f.name), (protocol, f.name)


@pytest.mark.parametrize("name, changes, derived", [
    ("QuadInt", {"q": 0}, {"p": 68, "q": 0}),
    ("ClassConfig", {"w": 17}, {"n": 84, "width_units": 35}),
    ("SearchResult", {"argmin": best(50).argmin}, {"n": 50, "min_area": best(50).min_area}),
    ("ImprovementReport", {"remaining_holes": 2}, {"remaining_holes": 2}),
], ids=TYPES)
def test_replace_builds_again(name, changes, derived):
    value = dataclasses.replace(_value(name), **changes)
    assert {key: getattr(value, key) for key in derived} == derived


@pytest.mark.parametrize("name, changes, match", [
    ("QuadInt", {"p": 1.5}, "p and q must be ints"),
    ("ClassConfig", {"d": 99}, "99 holes exceed interior capacity"),
    ("SearchResult", {"argmin": best(49).argmin[::-1]}, "is out of order or repeated"),
], ids=TYPES[:3])
def test_replace_checks_again(name, changes, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(_value(name), **changes)


@pytest.mark.parametrize("name", ["ClassConfig", "SearchResult"])
def test_replace_refuses_a_derived_field(name):
    value = _value(name)
    derived = [f.name for f in dataclasses.fields(value) if not f.init]
    assert derived
    for field in derived:
        with pytest.raises(ValueError, match=f"field {field} is declared with init=False"):
            dataclasses.replace(value, **{field: getattr(value, field)})


@pytest.mark.parametrize("build", [
    lambda: QuadInt(1),
    lambda: QuadInt(1, 2, 3),
    lambda: QuadInt(1, r=2),
    lambda: ClassConfig(16),
    lambda: ClassConfig(16, 5, RowPattern.FULL, 0, 0, 1, 79),
    lambda: ClassConfig(16, 5, n=79),
    lambda: SearchResult(),
    lambda: SearchResult(best(49).argmin, 49),
    lambda: ImprovementReport(MoveKind.ODD_H_SIDE_RELOCATION, 0.1, 1.0, 1.0, 0.5),
    lambda: ImprovementReport(MoveKind.ODD_H_SIDE_RELOCATION, 0.1, 1.0, 1.0, 0.5, True, 0, 0),
], ids=["QuadInt-1", "QuadInt-3", "QuadInt-kw", "ClassConfig-1", "ClassConfig-7",
        "ClassConfig-kw", "SearchResult-0", "SearchResult-2", "ImprovementReport-5",
        "ImprovementReport-8"])
def test_wrong_argument_count_is_a_type_error(build):
    with pytest.raises(TypeError, match=r"__init__\(\) "):
        build()
