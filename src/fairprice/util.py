"""Small shared helpers: deterministic serialization, atomic writes and
checked reads of JSON input fields."""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys

import numpy as np

from .errors import InvalidRecordError, MissingFieldError


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal form, '' for None. Used by every CSV writer."""
    return "" if x is None else repr(float(x))


def seqsum(terms):
    """``terms`` added in index order from 0.0, as a ``total += t`` loop adds
    them (numpy's ``sum`` adds pairwise and rounds differently): a float for
    a 1-D array, column totals for a 2-D one."""
    terms = np.asarray(terms, dtype=float)
    if terms.ndim == 2 and terms.shape[1] > 1:
        # numpy adds a C-contiguous block row after row, as cumsum does
        # (tests/test_cells.py pins it), but one column pairwise
        return np.add.reduce(np.ascontiguousarray(terms), axis=0) + 0.0
    # the last running sum (zeros for no terms); + 0.0 turns -0.0 into 0.0
    total = np.cumsum(terms, axis=0)[-1:].sum(axis=0) + 0.0
    return float(total) if total.ndim == 0 else total


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        # numpy scalar
        obj = obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def json_dumps_stable(obj) -> str:
    """JSON text with sorted keys and no NaN/Infinity literals.

    Non-finite floats are encoded as the strings "inf", "-inf", "nan" so the
    output stays parseable by strict JSON readers. Output is byte-deterministic
    for equal inputs.
    """
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


@contextlib.contextmanager
def atomic_file(path: str):
    """A text handle on a new temp file beside ``path``, renamed onto
    ``path`` when the block ends and removed when it raises.

    The temp file is created exclusively (a planted file or symlink is
    refused) with mode 0o666, so the umask sets the mode, as for ``open``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp_{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through :func:`atomic_file`."""
    with atomic_file(path) as handle:
        handle.write(text)


# JSON value kinds: accepted Python types and the name used in errors
_JSON_KINDS = {
    "number": ((int, float), "a finite number"),
    "index": ((int,), "an integer"),
    "string": ((str,), "a string"),
    "label": ((str, type(None)), "a string or null"),
    "list": ((list,), "a list"),
    "object": ((dict,), "an object"),
    "boolean": ((bool,), "true or false"),
}


def json_value(value, kind: str, where: str):
    """``value`` if it is a JSON ``kind`` (a key of ``_JSON_KINDS``; a
    number comes back as a float), else InvalidRecordError naming ``where``,
    the value's JSON path."""
    types, expected = _JSON_KINDS[kind]
    # bool is an int to Python, but only a "boolean" to JSON
    if isinstance(value, types) and isinstance(value, bool) == (kind == "boolean"):
        if kind != "number":
            return value
        # also false for NaN, and for integers too large for a float
        if -sys.float_info.max <= value <= sys.float_info.max:
            return float(value)
    raise InvalidRecordError(f"{where} must be {expected}, got {value!r:.60}")


def json_field(data: dict, key: str, kind: str, where: str):
    """:func:`json_value` of ``data[key]``, named ``where.key``; the error of
    :func:`json_value` when ``data`` is not an object, MissingFieldError when
    the key is absent."""
    if key not in json_value(data, "object", where):
        raise MissingFieldError(f"{where}.{key} is missing")
    return json_value(data[key], kind, f"{where}.{key}")


def json_numbers(value, where: str) -> list:
    """A JSON list of finite numbers, as floats, else the error of
    :func:`json_value` for the list or its first bad item."""
    items = json_value(value, "list", where)
    if _finite_floats(items):
        return items
    return [json_value(v, "number", f"{where}[{j}]")
            for j, v in enumerate(items)]


def _finite_floats(items) -> bool:
    """Whether ``items`` are all finite floats, which need no item checks."""
    return {type(v) for v in items} <= {float} and all(map(math.isfinite, items))


def json_number_map(value, where: str) -> dict:
    """:func:`json_numbers` for the members of a JSON object, as a dict."""
    return {key: json_value(v, "number", f"{where}.{key}")
            for key, v in json_value(value, "object", where).items()}


def json_rows(value, where: str) -> np.ndarray:
    """A non-empty JSON list of equal-length :func:`json_numbers` rows, as a
    float matrix; InvalidRecordError otherwise."""
    rows = json_value(value, "list", where)
    if not ({type(row) for row in rows} <= {list}
            and _finite_floats([v for row in rows for v in row])):
        rows = [json_numbers(row, f"{where}[{i}]") for i, row in enumerate(rows)]
    if not rows or len({len(row) for row in rows}) > 1:
        raise InvalidRecordError(
            f"{where} must be a non-empty list of equal-length rows")
    return np.array(rows, dtype=float)
