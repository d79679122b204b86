import csv
import io
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fairprice import errors, util
from fairprice.errors import FairPriceError, ConfigError, InvalidRecordError
from oracles import stdlib_json_dumps_stable


def test_fmt_parse_round_trip():
    values = [0.0, 1.5, -2.25, 1e-17, 3.141592653589793, float("inf"),
              float("-inf")]
    for v in values:
        assert float(util.fmt_float(v)) == v
    assert util.fmt_float(None) == ""


def test_fmt_float_shortest_repr():
    assert util.fmt_float(0.1) == "0.1"
    assert util.fmt_float(1.0) == "1.0"


def test_json_dumps_stable_sorted_and_newline():
    text = util.json_dumps_stable({"b": 1, "a": [float("inf"), float("nan")]})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    parsed = json.loads(text)
    assert parsed["a"][0] == "inf"
    assert parsed["a"][1] == "nan"
    # numpy scalars serialize like their python counterparts
    assert json.loads(util.json_dumps_stable({"x": np.float64(0.5)}))["x"] == 0.5


_FLOATS = st.floats() | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e308, 1e16, 1e-7, float("nan"), float("inf"),
     float("-inf")])
_TEXT = st.text(st.sampled_from('a%"\\\n\t\x00\x7f\u00e9\u20ac\U0001f600 ')
                | st.characters(), max_size=5)
# what the JSON writer formats without coercion, in the row path too
_PLAIN = st.one_of(_FLOATS, st.integers(), _TEXT, st.booleans(), st.none())
_SCALARS = _PLAIN | st.one_of(
    _FLOATS.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.booleans().map(np.bool_))
# int keys that collide with str keys once str()-ed
_KEYS = _TEXT | st.integers(-2, 2) | st.sampled_from(["1", "-1", "%s", "%"])


@st.composite
def _rows(draw):
    """Dicts that share one key set, with the writer's fallbacks mixed in:
    another key set, a nested value, a numpy scalar, a non-str key."""
    keys = draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True))
    rows = draw(st.lists(st.fixed_dictionaries(dict.fromkeys(keys, _PLAIN)),
                         min_size=1, max_size=5))
    odd = draw(st.sampled_from(["none", "other keys", "nested", "numpy"]))
    if odd == "other keys":
        rows.append(draw(st.dictionaries(_KEYS, _PLAIN, max_size=len(keys))))
    elif odd == "nested":
        rows[-1][keys[0]] = draw(st.lists(_PLAIN, max_size=2))
    elif odd == "numpy":
        rows[0][keys[-1]] = np.float64(draw(_FLOATS))
    return rows


@st.composite
def _list_rows(draw):
    """Lists of one length whose columns each hold one scalar type, as a
    support matrix, with the writer's fallbacks mixed in: a ragged row, a
    nested value, a column of mixed types, a numpy scalar; empty rows when
    the length is 0, tuple rows as JSON writes them too."""
    width = draw(st.integers(0, 3))
    kinds = [st.sampled_from([_FLOATS, st.integers(), _TEXT, st.booleans(),
                              st.none()]) for _ in range(width)]
    rows = draw(st.lists(st.tuples(*map(draw, kinds)).map(list),
                         min_size=1, max_size=5))
    odd = draw(st.sampled_from(["none", "ragged", "nested", "mixed", "numpy",
                                "tuple"]))
    j = draw(st.integers(0, width - 1)) if width else None
    if odd == "ragged":
        rows.append(draw(st.lists(_PLAIN, max_size=width + 1)))
    elif odd == "tuple":
        rows[-1] = tuple(rows[-1])
    elif j is not None and odd == "nested":
        rows[-1][j] = draw(st.lists(_PLAIN, max_size=2))
    elif j is not None and odd == "mixed":
        rows[-1][j] = draw(_PLAIN)
    elif j is not None and odd == "numpy":
        rows[0][j] = np.float64(draw(_FLOATS))
    return rows


_JSON_VALUES = st.recursive(
    _SCALARS | _rows() | _list_rows(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(_KEYS, inner, max_size=4)),
    max_leaves=24)


@given(_rows() | _list_rows() | _JSON_VALUES)
@example({1: "int key", "1": "str key", 0: [], "0": {}, "t": ()})
@example([{"a": 1, "b": 2.0}, {"a": 3, "c": 4.0}])
@example([{"a": 1}, {"a": 2, "b": None}])
@example([{"%s": float("nan"), "%": "%d"}, {"%s": float("-inf"), "%": True}])
@example([{"x": None, "y": "a"}, {"x": 1, "y": "b"}, {"x": 2.5, "y": "c"}])
@example([[0.5, -0.0], [1e16, float("nan")], (float("-inf"), 2.0)])
@example([[1, "%s"], [2.0, "%"], [[3.0], None]])
@example([[], [], [1.0]])
def test_json_writer_matches_the_stdlib_writer(obj):
    assert util.json_dumps_stable(obj) == stdlib_json_dumps_stable(obj)


@pytest.mark.parametrize("obj", [{"a": {1, 2}}, [b"bytes"], object()])
def test_json_writer_refuses_what_json_refuses(obj):
    with pytest.raises(TypeError) as expected:
        stdlib_json_dumps_stable(obj)
    with pytest.raises(TypeError, match=re.escape(str(expected.value))):
        util.json_dumps_stable(obj)


@pytest.mark.parametrize("columns", [
    [["id", "r1", "r2"], ["group", "a", "b"]],
    [["id", "r,1", 'q"'], ["group", "cr\r", "lf\n"], ["x", "1.0", ""]],
    [["id", "\u00e9"], ["group", ""]],
    [["", "a", ""]],
    [[], []],
], ids=["plain", "quoted", "non_ascii", "one_column", "no_rows"])
def test_csv_text_is_the_csv_module_text(columns):
    buf = io.StringIO()
    csv.writer(buf).writerows(zip(*columns))
    assert util.csv_text(columns) == buf.getvalue()


def test_atomic_write_text(tmp_path):
    target = tmp_path / "out.json"
    util.atomic_write_text(str(target), "hello\n")
    assert target.read_text() == "hello\n"
    util.atomic_write_text(str(target), "again\n")
    assert target.read_text() == "again\n"
    assert list(tmp_path.iterdir()) == [target]  # no temp litter


def test_error_codes():
    assert FairPriceError("x").code == "error"
    err = ConfigError("bad things", line=7)
    assert err.code == "config_parse"
    assert "line 7" in str(err)


def test_each_error_class_carries_its_exit_status():
    reserved = {errors.UpwardSlopeError: 3,
                errors.UnenforceableConstraintError: 4,
                errors.NoComputableMetricError: 5}
    classes = [c for c in vars(errors).values() if isinstance(c, type)
               and issubclass(c, errors.FairPriceError)]
    assert len(classes) > len(reserved) + 1
    for cls in classes:
        assert cls.exit_status == reserved.get(cls, 2), cls.__name__


def test_json_numbers_and_rows_check_every_item():
    # plain floats pass one check for the whole list, anything else the item
    # checks; both give the same floats and name the first bad item
    assert util.json_numbers([1.5, 2.0], "v") == [1.5, 2.0]
    assert util.json_numbers([1.5, 2], "v") == [1.5, 2.0]
    assert util.json_rows([[1.5], [2]], "m").tolist() == [[1.5], [2.0]]
    bad = [([[0.0, "1.0"]], "m[0][1] "), ([[0.0], [np.nan]], "m[1][0] "),
           ([[0.0], [True]], "m[1][0] "), ([[0.0], 1.0], "m[1] "),
           ([1.5, [2.0]], "m[0] ")]
    for rows, path in bad:
        with pytest.raises(InvalidRecordError, match=re.escape(path)):
            util.json_rows(rows, "m")
    for rows in ([], [[0.0], [0.0, 1.0]]):
        with pytest.raises(InvalidRecordError, match="equal-length rows"):
            util.json_rows(rows, "m")
