"""``repro.records``: one closed JSON image per record."""

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.errors import RecordError, ReproError
from repro.records import dump, load, omitted


@dataclass
class Inner:
    name: str
    weight: float


@dataclass
class Outer:
    count: int
    flag: bool
    ratio: Optional[float]
    pair: Tuple[int, str]
    items: List[Inner]
    by_rank: Dict[int, str]
    extra: Dict[str, Any]
    note: Optional[str] = omitted(default=None)
    tags: List[str] = omitted(default_factory=list)
    level: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ReproError("count must be >= 0")


def outer(**edits):
    value = Outer(
        count=2,
        flag=True,
        ratio=None,
        pair=(7, "x"),
        items=[Inner("a", 1.5), Inner("b", 2)],
        by_rank={0: "zero", 12: "twelve"},
        extra={"anything": [1, {"goes": None}]},
    )
    for key, item in edits.items():
        setattr(value, key, item)
    return value


def test_dump_writes_json_values_and_load_reads_them_back():
    data = dump(outer())
    assert data == {
        "count": 2,
        "flag": True,
        "ratio": None,
        "pair": [7, "x"],
        "items": [{"name": "a", "weight": 1.5}, {"name": "b", "weight": 2}],
        "by_rank": {"0": "zero", "12": "twelve"},
        "extra": {"anything": [1, {"goes": None}]},
        "level": 0,
    }
    wire = json.loads(json.dumps(data))
    assert load(Outer, wire, "outer") == outer()
    assert dump(load(Outer, wire, "outer")) == wire


def test_omitted_fields_are_written_only_when_set():
    data = dump(outer(note="hi", tags=["t"]))
    assert data["note"] == "hi" and data["tags"] == ["t"]
    assert load(Outer, data, "outer") == outer(note="hi", tags=["t"])
    # An unset omitted field reads as the dataclass default.
    assert load(Outer, dump(outer()), "outer").tags == []


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda d: d.pop("level"), r"outer: missing keys \['level'\]"),
        (lambda d: d.update(bogus=1), r"outer: unknown keys \['bogus'\]"),
        (lambda d: d.update(count=True), r"outer.count: expected int"),
        (lambda d: d.update(count=1.0), r"outer.count: expected int"),
        (lambda d: d.update(flag=1), r"outer.flag: expected bool"),
        (lambda d: d.update(ratio=float("nan")), r"outer.ratio: .*NaN"),
        (lambda d: d.update(ratio="1"), r"outer.ratio: expected a number"),
        (lambda d: d.update(pair=[7]), r"outer.pair: expected 2 items"),
        (lambda d: d.update(pair=[7, 8]), r"outer.pair\[1\]: expected str"),
        (lambda d: d.update(items=[3]), r"outer.items\[0\]: expected an obj"),
        (
            lambda d: d["items"][1].pop("weight"),
            r"outer.items\[1\]: missing keys \['weight'\]",
        ),
        (lambda d: d.update(by_rank={"x": "y"}), r"key 'x' is not int"),
        (lambda d: d.update(by_rank={"01": "y"}), r"key '01' is not int"),
        (lambda d: d.update(extra=[]), r"outer.extra: expected an object"),
        (lambda d: d.update(count=-1), r"outer: count must be >= 0"),
    ],
)
def test_load_is_closed(edit, reason):
    data = dump(outer())
    edit(data)
    with pytest.raises(RecordError, match=reason):
        load(Outer, data, "outer")


def test_load_reads_an_int_in_a_float_field_as_a_float():
    data = dump(outer(ratio=3))
    loaded = load(Outer, data, "outer")
    assert type(loaded.ratio) is float and loaded.ratio == 3.0
    assert type(loaded.items[1].weight) is float
    assert type(loaded.count) is int


def test_load_rejects_a_value_that_is_not_an_object():
    with pytest.raises(RecordError, match="outer: expected an object"):
        load(Outer, [1, 2], "outer")


@dataclass
class Hooked:
    """A record whose JSON image adds a derived key."""

    values: List[int] = field(default_factory=list)

    def _json_out(self, data):
        data["total"] = sum(self.values)
        return data

    @classmethod
    def _json_in(cls, data, where):
        data = dict(data)
        if data.pop("total", None) != sum(data.get("values", [])):
            raise RecordError(f"{where}: total disagrees")
        return data


def test_hooks_stay_inside_the_record():
    assert dump(Hooked([1, 2])) == {"values": [1, 2], "total": 3}
    assert load(Hooked, {"values": [1, 2], "total": 3}, "h") == Hooked([1, 2])
    with pytest.raises(RecordError, match="h: total disagrees"):
        load(Hooked, {"values": [1, 2], "total": 4}, "h")
