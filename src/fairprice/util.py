"""Small shared helpers: deterministic serialization and atomic writes."""

from __future__ import annotations

import json
import math
import os
import tempfile


def fmt_float(x: float) -> str:
    """Shortest round-trip decimal form, '' for None. Used by every CSV writer."""
    return "" if x is None else repr(float(x))


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


def atomic_write_text(path: str, text: str) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
