import json
import re

import numpy as np
import pytest

from fairprice import errors, util
from fairprice.errors import FairPriceError, ConfigError, InvalidRecordError


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
