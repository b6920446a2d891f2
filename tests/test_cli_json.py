"""The pieces of `cli.json_chunks` join to the bytes `json.dumps(obj, indent=2,
sort_keys=True, default=to_jsonable)` writes, the writer calls `to_jsonable`
on the same values, and no piece of a report grows with the report."""

import dataclasses
import enum
import gc
import json
import math
from fractions import Fraction
from types import SimpleNamespace
from typing import Any
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationalqm import cli
from rationalqm.cli import json_chunks, to_jsonable

from cli_stdout import json_stdout


class Kind(str, enum.Enum):
    RATIONAL = "rational"
    QUOTED = 'a "quoted" \\ kind'


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


class Plain(enum.Enum):
    HALF = Fraction(1, 2)


@dataclasses.dataclass
class Pair:
    left: Any
    right: Any


def dumps(obj, default=to_jsonable):
    return json.dumps(obj, indent=2, sort_keys=True, default=default)


def to_json(obj):
    return "".join(json_chunks(obj))


PLAIN_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E))
ANY_TEXT = st.text(st.characters(blacklist_categories=()))  # lone surrogates too
SPECIAL_TEXT = st.sampled_from(['"', "\\", "\x00", "\x1f", "\t\n", "\x7f", "é",
                                "\ud800", "\udfff", "😀", "", "a\"b", "p/q"])
TEXT = PLAIN_TEXT | ANY_TEXT | SPECIAL_TEXT
FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0])
INTS = st.integers() | st.integers(min_value=-2**300, max_value=2**300)
LEAVES = (TEXT | st.none() | st.booleans() | INTS | FLOATS | st.fractions()
          | st.sampled_from(list(Kind) + list(Level) + list(Plain)))


def containers(children):
    return (st.lists(children) | st.lists(children).map(tuple)
            | st.dictionaries(TEXT, children) | st.builds(Pair, children, children)
            # the lists that take a single join, and their near misses
            | st.lists(INTS) | st.lists(INTS).map(tuple) | st.lists(PLAIN_TEXT)
            | st.lists(st.booleans()) | st.lists(st.sampled_from(list(Level)))
            | st.builds(lambda xs, x: xs + [x], st.lists(PLAIN_TEXT), SPECIAL_TEXT)
            | st.lists(st.sampled_from(["ab", Kind.RATIONAL, "cd"])))


REPORTS = st.recursive(LEAVES, containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(REPORTS)
def test_same_bytes_and_same_conversions_as_json_dumps(obj):
    converted, json_converted = [], []

    def counting(into):
        def hook(value):
            into.append(value)
            return to_jsonable(value)
        return hook

    with mock.patch.object(cli, "to_jsonable", counting(converted)):
        text = to_json(obj)
    assert text == dumps(obj, default=counting(json_converted))
    assert len(converted) == len(json_converted)
    assert all(a is b for a, b in zip(converted, json_converted))


@pytest.mark.parametrize("obj", [
    [], (), {}, "", [[]], {"": {}}, [{}, ()], 0, -0.0, True, None,
    ["a", "b"], ["a", 'b"'], ["a", "\ud800"], ["é"], ["\x7f"],
    [1, True], [1, 2.0], (1, -1, 1), [Level.LOW, 2],
    {"b": [1], "a": ["x"], "c": Pair(Fraction(-3, 6), Kind.RATIONAL)},
])
def test_edge_cases(obj):
    assert to_json(obj) == dumps(obj)


@pytest.mark.parametrize("obj,message", [
    ({"x": {1, 2}}, "set is not JSON serialisable"),
    ([1, "a", object()], "object is not JSON serialisable"),
    (Pair(b"bytes", 1), "bytes is not JSON serialisable"),
])
def test_unsupported_values_raise(obj, message):
    with pytest.raises(TypeError, match=message):
        to_json(obj)


@pytest.mark.parametrize("obj", [
    {1: "a"}, {"a": {None: 1}}, [Pair({(1, 2): 0}, None)], {"a": 1, 2: "b"},
])
def test_keys_other_than_strings_raise(obj):
    with pytest.raises(TypeError):
        to_json(obj)


def test_leaves_no_reference_cycles():
    """A report's chunks are freed once the list `json_chunks` returns is
    dropped, not at the next run of the cycle collector, which a megabyte
    report could long outlive."""
    report = {"trace": ["01.-10."] * 50, "string": (1, -1) * 25,
              "pair": Pair(Fraction(1, 3), [1.5, "é", None])}
    gc.collect()
    gc.disable()
    try:
        json_chunks(report)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_measure_report_is_json_dumps(capsys):
    """A whole report, with its long trace lists, as `emit` writes it."""
    assert cli.main(["measure", "--m", "300", "--n", "17", "--L", "1024",
                     "--seed", "5", "--json", "-"]) == 0
    out = capsys.readouterr().out
    payload, _ = json_stdout(out)
    assert out.startswith(dumps(payload) + "\n")
    assert len(payload["report"]["trace"]) == len(payload["report"]["string"]) == 1024


@pytest.mark.parametrize("count", [63, 64, 65, 128, 129])
def test_long_plain_lists_are_json_dumps(count):
    """Around the 64-item pieces of the int fast path; a list of strings is
    written item by item."""
    strings = [f"{i:b}.-{~i & 0xff:b}." for i in range(count)]
    assert to_json(strings) == dumps(strings)
    assert to_json({"t": strings}) == dumps({"t": strings})
    ints = [(-1) ** i * i for i in range(count)]
    assert to_json(ints) == dumps(ints)


def test_long_list_with_escaped_last_item():
    strings = ["01.-10."] * 64 + ['a "quoted" \\ item']
    assert to_json(strings) == dumps(strings)


def test_measure_report_pieces_are_bounded(tmp_path, capsys):
    """The L = 1024 report is about a megabyte, but `emit` writes it in
    pieces of at most 64 trace steps."""
    written = []

    def keep(obj):
        written.append(json_chunks(obj))
        return written[-1]

    path = tmp_path / "m.json"
    with mock.patch.object(cli, "json_chunks", keep):
        assert cli.main(["measure", "--m", "300", "--n", "17", "--L", "1024",
                         "--seed", "5", "--json", str(path)]) == 0
    capsys.readouterr()  # the summary's two O(L) lines
    [chunks] = written
    assert "".join(chunks) == path.read_text(encoding="utf-8")
    assert 1_050_000 < path.stat().st_size < 1_100_000
    assert max(map(len, chunks)) < 200_000


def test_unserialisable_report_leaves_no_file(tmp_path):
    path = tmp_path / "r.json"
    args = SimpleNamespace(command="measure", json=str(path))
    with pytest.raises(TypeError, match="set is not JSON serialisable"):
        cli.emit(args, {"trace": ["01.-10."] * 200, "bad": {1, 2}}, [])
    assert not path.exists()


@pytest.mark.parametrize("L", [1, 64, 65, 1024])
def test_measure_report_with_its_trace_is_json_dumps(L):
    """`to_jsonable` expands a `measure` trace to its steps, so json.dumps
    writes the report as `json_chunks` does."""
    report, _ = cli.cmd_measure(SimpleNamespace(m=L // 2, n=L // 3, L=L, seed=5))
    payload = {"schema_version": cli.SCHEMA_VERSION, "report": report}
    assert isinstance(report["trace"], cli._HalvingTrace)
    assert to_json(payload) == dumps(payload)
    assert len(json.loads(dumps(payload))["report"]["trace"]) == L
