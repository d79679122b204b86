"""Per-layer spans and counters, recorded from outside the program.

``Tracer.install`` replaces public ``fairprice`` functions with timing
wrappers in every ``fairprice`` module namespace that holds them, because
callers look a function up in their own module's globals; policy ``price``
methods are wrapped on the class. Calls into the hot per-call functions
(``eval_demand``, the ``price`` methods, ``ope_value``) only accumulate
counts and time; every other call also keeps a span in memory, written out
by ``write_spans`` when the run ends. Self time is a call's duration minus
the part of it that its traced children cover.

Every count here is a function of the inputs alone, so it repeats exactly
from run to run.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time

from spec import PER_LAYER

# (module, qualified name, hot) of every traced function
TARGETS = (
    ("util", "json_dumps_stable", False),
    ("util", "atomic_write_text", False),
    ("sim", "read_records_csv", False),
    ("sim", "write_records_csv", False),
    ("sim", "simulate", False),
    ("sim", "run_pricing_experiment", False),
    ("sim", "ope_value", True),
    ("sim", "ope_bootstrap_se", False),
    ("sim", "optimize_linear_policy", False),
    ("audit", "run_audit", False),
    ("audit", "marginal_price_disparity", False),
    ("audit", "distributional_parity_stat", False),
    ("audit", "conditional_parity_gap", False),
    ("audit", "takeup_conditional_parity", False),
    ("audit", "access_metrics", False),
    ("audit", "concordance_lower_bound", False),
    ("audit", "concordance_oracle", False),
    ("demand", "fit_partially_linear", False),
    ("demand", "eval_demand", True),
    ("parity", "solve_attribute_based_parity", False),
    ("parity", "solve_attribute_blind_parity", False),
    ("parity", "expected_revenue", False),
    ("policies", "TabularPolicy.price", True),
    ("policies", "LinearPolicy.price", True),
    ("share", "share_frontier", False),
    ("share", "solve_share_price", False),
    ("optimize", "maximize_revenue_1d", False),
    ("optimize", "golden_section_max", False),
)


def _count_rows(tracer, parent, args, kwargs, result, exc):
    if exc is None:
        tracer.add("sim.read_records_csv.rows", len(result))


def _count_written(tracer, parent, args, kwargs, result, exc):
    records = args[1] if len(args) > 1 else kwargs["records"]
    tracer.add("sim.write_records_csv.rows", len(records))


def _count_bytes(tracer, parent, args, kwargs, result, exc):
    path = args[0] if args else kwargs["path"]
    # the manifest's duration_s changes length from run to run
    if os.path.basename(str(path)) != "run_manifest.json":
        text = args[1] if len(args) > 1 else kwargs["text"]
        tracer.add("util.atomic_write_text.bytes", len(text.encode("utf-8")))


def _count_pairs(tracer, parent, args, kwargs, result, exc):
    if exc is None:
        tracer.add("audit.concordance_lower_bound.pairs", int(result["total_pairs"]))


def _count_ope(tracer, parent, args, kwargs, result, exc):
    if parent == "sim.ope_bootstrap_se":
        tracer.add("boot.attempts", 1)
        tracer.add("boot.kept", exc is None)
    elif parent == "sim.optimize_linear_policy":
        tracer.add("sim.optimize_linear_policy.evals", 1)
        tracer.add("search.empty", type(exc).__name__ == "EmptyWeightError")


ON_EXIT = {
    "sim.read_records_csv": _count_rows,
    "sim.write_records_csv": _count_written,
    "util.atomic_write_text": _count_bytes,
    "audit.concordance_lower_bound": _count_pairs,
    "sim.ope_value": _count_ope,
}


class Tracer:
    """Call statistics, counters and spans for one traced repetition."""

    def __init__(self):
        self.stack = []      # open calls: [name, child seconds, span id]
        self.spans = []      # (id, parent id, name, start, end)
        self.stats = {}      # name -> [calls, inclusive seconds, self seconds]
        self.counts = {}
        self._next_id = 0
        self._undo = []

    def add(self, key, amount):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, hot=False):
        stack, stats, spans = self.stack, self.stats, self.spans
        on_exit = ON_EXIT.get(name)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hot:
                span_id = parent[2] if parent else None
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [name, 0.0, span_id]
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                took = end - start
                if stack:
                    stack[-1][1] += took
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += took
                st[2] += took - frame[1]
                if not hot:
                    spans.append((span_id, parent[2] if parent else None,
                                  name, start, end))
                if on_exit is not None:
                    on_exit(tracer, parent[0] if parent else None,
                            args, kwargs, result, exc)

        traced.__wrapped__ = fn
        return traced

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a traced span of its own."""
        return self.wrap(name, fn)(*args)

    def install(self):
        """Wrap every target wherever ``fairprice`` modules look it up."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "fairprice" or k.startswith("fairprice."))]
        for module_name, qualname, hot in TARGETS:
            name = f"{module_name}.{qualname}"
            owner = importlib.import_module(f"fairprice.{module_name}")
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name, None)
                original = cls.__dict__.get(attr) if cls is not None else None
                if original is not None:
                    setattr(cls, attr, self.wrap(name, original, hot))
                    self._undo.append((cls, attr, original))
                continue
            original = getattr(owner, qualname, None)
            if original is None:
                continue
            wrapper = self.wrap(name, original, hot)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def metrics(self, overhead_s: float) -> dict:
        """Every per-layer metric ``BENCHMARK.json`` names; layers the
        workload never entered read 0."""
        counts = dict(self.counts)
        attempts = counts.get("boot.attempts", 0)
        evals = counts.get("sim.optimize_linear_policy.evals", 0)
        counts["sim.ope_bootstrap_se.kept_frac"] = (
            counts.get("boot.kept", 0) / attempts if attempts else 0.0)
        counts["sim.optimize_linear_policy.empty_frac"] = (
            counts.get("search.empty", 0) / evals if evals else 0.0)
        counts["cli.self_s"] = sum(st[2] for k, st in self.stats.items()
                                   if k.startswith("cli."))
        counts["trace.overhead_s"] = overhead_s
        out = {}
        for metric in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            st = self.stats.get(base, (0, 0.0, 0.0))
            if kind == "s":
                value = st[2]
            elif kind == "wall_s":
                value = st[1]
            elif kind == "calls":
                value = st[0]
            else:
                value = counts.get(metric, 0)
            out[metric] = value
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": sorted(self.spans)}, fh)
