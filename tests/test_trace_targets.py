"""The benchmark tracer's targets must name functions that exist.

``perfbench/tracer.py`` skips a target it cannot find without a word, so a
renamed or deleted function would read 0 in every per-layer metric that
depends on it. This resolves each target the way ``Tracer.install`` does.
"""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

from tracer import TARGETS  # noqa: E402


@pytest.mark.parametrize("module_name, qualname",
                         [(m, q) for m, q, _ in TARGETS])
def test_trace_target_resolves(module_name, qualname):
    owner = importlib.import_module(f"fairprice.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        # install wraps the method only where the class itself defines it
        assert callable(vars(getattr(owner, cls_name)).get(attr))
    else:
        assert callable(getattr(owner, qualname, None))
