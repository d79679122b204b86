"""Small shared helpers: deterministic serialization, atomic writes and
checked reads of JSON input fields."""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .errors import InvalidRecordError, MissingFieldError


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal form, '' for None (CLI tables and notes)."""
    return "" if x is None else repr(float(x))


def csv_text(columns, checked=None) -> str:
    """What ``csv.writer`` writes for the rows whose string cells are
    ``columns``, joined by commas when no ``checked`` cell needs quotes."""
    cells = "".join(map("".join, columns if checked is None else checked))
    if len(columns) > 1 and not any(c in cells for c in ',"\r\n'):
        text = "\r\n".join(map(",".join, zip(*columns)))
        return text and text + "\r\n"
    buf = io.StringIO()  # csv.writer quotes an empty cell alone on its row
    csv.writer(buf).writerows(zip(*columns))
    return buf.getvalue()


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


def _json_floats(items) -> list:
    texts = list(map(float.__repr__, items))
    # a finite sum has finite terms; an overflow only costs the slow path
    return texts if math.isfinite(sum(items)) else [
        t if math.isfinite(v) else f'"{t}"' for v, t in zip(items, texts)]


# exact scalar type -> the JSON texts of a list of such values; bool comes
# before int, so that isinstance matches a subclass to its own base first
_JSON_SCALARS = {
    bool: lambda items: [("false", "true")[v] for v in items],
    type(None): lambda items: ["null"] * len(items),
    float: _json_floats,
    int: lambda items: list(map(int.__repr__, items)),
    str: lambda items: list(map(encode_basestring_ascii, items)),
}


def json_dumps_stable(obj) -> str:
    """The bytes of ``json.dumps(obj, sort_keys=True, indent=2)`` with dict
    keys ``str()``-ed, numpy scalars as Python scalars and non-finite floats
    as the strings "inf", "-inf", "nan", which strict JSON readers parse."""
    return _json_text(obj, "\n") + "\n"


def _json_text(obj, indent: str) -> str:
    """JSON text of ``obj``, whose closing line starts with ``indent``."""
    inner = indent + "  "
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}  # the last equal key wins
        texts = [f"{encode_basestring_ascii(k)}: {_json_text(items[k], inner)}"
                 for k in sorted(items)]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        texts = obj and (_json_scalars(obj) or _json_rows(obj, inner)
                         or [_json_text(v, inner) for v in obj])
        brackets = "[]"
    else:
        if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
            obj = obj.item()  # a numpy scalar
        for kind, write in _JSON_SCALARS.items():
            if isinstance(obj, kind):
                return write([obj])[0]
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return (brackets[0] + inner + ("," + inner).join(texts) + indent + brackets[1]
            if texts else brackets)


def _json_scalars(items):
    """JSON texts of exact scalars of one type; None for other items."""
    kinds = set(map(type, items))
    if len(kinds) == 1 and kinds <= _JSON_SCALARS.keys():
        return _JSON_SCALARS[kinds.pop()](items)


def _json_rows(rows, indent: str):
    """JSON texts of lists (or tuples) of one length, or of dicts that share
    one set of str keys, of such scalars, formatted one column at a time;
    else None."""
    kinds = set(map(type, rows))
    if kinds <= {list, tuple}:
        keys, brackets, heads = range(len(rows[0])), "[]", [""] * len(rows[0])
    elif kinds == {dict} and set(map(type, rows[0])) == {str}:
        keys, brackets = sorted(rows[0]), "{}"
        # a % in a key escaped for the %-template
        heads = [encode_basestring_ascii(k).replace("%", "%%") + ": " for k in keys]
    else:
        return None
    if not rows[0] or len(set(map(len, rows))) > 1:
        return None
    try:  # equal sizes, so a row with every key of the first has no other
        columns = [_json_scalars(list(map(itemgetter(key), rows))) for key in keys]
    except KeyError:
        return None
    if None in columns:
        return None
    row = ",".join(f"{indent}  {head}%s" for head in heads)
    return list(map(f"{brackets[0]}{row}{indent}{brackets[1]}".__mod__, zip(*columns)))


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
