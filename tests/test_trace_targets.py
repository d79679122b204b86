"""The benchmark tracer's targets must name functions that exist.

``perfbench/tracer.py`` skips a target it cannot find without a word, so a
renamed or deleted function would read 0 in every per-layer metric that
depends on it. This resolves each target the way ``Tracer.install`` does.
The retired targets name the one-customer functions that the row kernels
replaced and ``ope_value``, which ``ope_estimate`` holds; each must stay
absent, so that the set hides neither a typo nor a function that comes back.
"""

import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

from tracer import TARGETS  # noqa: E402

RETIRED = {
    ("demand", "eval_demand"),
    ("policies", "TabularPolicy.price"),
    ("policies", "LinearPolicy.price"),
    ("share", "solve_share_price"),
    ("optimize", "maximize_revenue_1d"),
    ("optimize", "golden_section_max"),
    ("sim", "ope_value"),
}


def test_every_retired_target_is_a_target():
    assert RETIRED <= {(m, q) for m, q, _ in TARGETS}


@pytest.mark.parametrize("module_name, qualname",
                         [(m, q) for m, q, _ in TARGETS])
def test_trace_target_resolves(module_name, qualname):
    owner = importlib.import_module(f"fairprice.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        owner = getattr(owner, cls_name)
        # install wraps the method only where the class itself defines it
        target = vars(owner).get(attr)
    else:
        attr = qualname
        target = getattr(owner, attr, None)
    if (module_name, qualname) in RETIRED:
        assert not hasattr(owner, attr)
    else:
        assert callable(target)
