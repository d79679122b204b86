"""The workloads and metrics that ``BENCHMARK.json`` names, read in one place.

``BENCHMARK.json`` sits at the repository root, one directory above this file.
"""

from __future__ import annotations

import json
import os

PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "BENCHMARK.json")

with open(PATH, encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)

WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
# metric name -> unit, in the order BENCHMARK.json lists them
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
