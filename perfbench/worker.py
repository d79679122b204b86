"""One workload process: the CLI command sequence, repeated in-process.

A closed loop with one caller: each repetition runs the workload's commands
back to back through ``fairprice.cli.main(argv)``, and the next repetition
starts only after the previous one ends. Repetitions continue until the next
one would overrun ``--seconds``. Output checks are not done here; this
process only keeps the first repetition's outputs and a digest of every
repetition's outputs, so the check cost and memory stay out of its peak RSS.
With ``--trace 1`` one more repetition runs under the tracer.

The first repetition is a warm-up and is not timed, so two kinds of one-time
cost could hide in it; both are kept in view. Every repetition reads its own
fresh copy of the inputs, at a path no earlier repetition used, so a cache
kept across ``main`` calls and keyed by input path or file cannot serve a
timed repetition. The modules first imported up to the end of the warm-up
are reported, and ``run.py`` imports all of them in its ``setup_s`` probes,
so an import moved from module level into a function still counts in
``setup_s``.

Started by ``run.py``, which sets the environment; the result is a JSON file.
"""

from __future__ import annotations

import sys

# modules loaded before this file's own imports; everything else imported by
# the end of the warm-up repetition is reported to run.py
BASELINE_MODULES = frozenset(sys.modules)

import argparse  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from spec import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

# ``ope --search`` settings, shared with the output checks
SEARCH_STARTS = 4
SEARCH_BOOT = 50
POLICY_BOOT = 200       # the CLI default
PARITY_GAMMA = 0.05
PARITY_GRID = (0.0, 0.4, 9)     # lo, hi, points
SHARE_GRID = (0.0, 0.5, 9)


def grid_spec(grid) -> str:
    return "{}:{}:{}".format(*grid)


def commands(workload: str, inputs: str, seed: int) -> list:
    """(label, argv without --out-dir) for each command of the workload."""
    def i(name):
        return os.path.join(inputs, name)

    s = str(seed)
    if workload == "log_audit":
        return [("fit", ["fit", "--records", i("records.csv"), "--model", "linear"]),
                ("audit", ["audit", "--records", i("records.csv")])]
    if workload == "ope_search":
        return [("ope_policy", ["ope", "--records", i("records.csv"),
                                "--policy", i("policy.json"), "--seed", s]),
                ("ope_search", ["ope", "--records", i("records.csv"), "--search",
                                "--n-starts", str(SEARCH_STARTS),
                                "--n-boot", str(SEARCH_BOOT), "--seed", s])]
    grid = ["--model", i("grid_model.json"), "--population", i("grid_population.json")]
    return [("simulate", ["simulate", "--scenario", i("scenario.txt"), "--seed", s]),
            ("price_based", ["price", *grid, "--mode", "attribute_based",
                             "--gamma", str(PARITY_GAMMA)]),
            ("price_blind", ["price", *grid, "--mode", "attribute_blind",
                             "--gamma", str(PARITY_GAMMA)]),
            ("sweep_parity", ["sweep", "--kind", "parity", *grid,
                              "--grid", grid_spec(PARITY_GRID)]),
            ("sweep_share", ["sweep", "--kind", "share",
                             "--model", i("market_model.json"),
                             "--population", i("market_population.json"),
                             "--grid", grid_spec(SHARE_GRID)])]


# the calibration task's typical seconds on a 2-vCPU x86-64 VM; a pass's wall
# time times CAL_REF_S / (calibration seconds around it) is its wall time at
# that reference speed
CAL_REF_S = 0.05


class Calibration:
    """A fixed task mixing the program's kinds of work, timed on demand.

    CSV parsing, a per-record loop of scalar numpy calls, and array
    comparisons. Its buffers are allocated once, about 1 MB, so timing it
    adds nothing to the workload process's peak RSS after the first call.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.lines = [f"r{i:06d},a,{i % 2}.0,{i % 3}.0,1.2,1.0,,{i * 0.37 % 3:.12f},1.0"
                      for i in range(8000)]
        self.theta = np.array([0.4, 0.1])
        self.array = np.arange(128 * 1024, dtype=float).reshape(128, 1024) % 7.0
        self.mask = np.empty(self.array.shape, dtype=bool)

    def __call__(self) -> float:
        np = self.np
        start = time.perf_counter()
        total = 0.0
        for row in csv.reader(self.lines):
            x = np.asarray([float(row[2]), float(row[3])], dtype=float).reshape(-1)
            total += min(2.0, max(0.8, float(1.2 + self.theta @ x))) * float(row[7])
        for k in range(160):
            np.less(self.array[:, k:k + 1], self.array, out=self.mask)
            total += float(np.count_nonzero(self.mask))
        return time.perf_counter() - start


def digest(out_dir: str) -> str:
    """Hash of a command's output files, the run manifest excepted."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        if name == "run_manifest.json":
            continue
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def is_harness(module) -> bool:
    """True for this benchmark's own modules, which the program never loads."""
    path = getattr(module, "__file__", None)
    return bool(path) and os.path.dirname(os.path.abspath(path)) == HERE


def run_repetition(cli_main, cmds, out_root, tracer=None):
    """Run every command once; returns (seconds, [error or None per command])."""
    errors = []
    cpu = time.process_time()
    start = time.perf_counter()
    for label, argv in cmds:
        full = argv + ["--out-dir", os.path.join(out_root, label), "--quiet"]
        try:
            if tracer is None:
                code = cli_main(full)
            else:
                code = tracer.call(f"cli.{label}", cli_main, full)
            errors.append(None if code == 0 else f"exit code {code}")
        except Exception:  # a crash is a failed operation, not a dead run
            errors.append(traceback.format_exc(limit=3))
    return time.perf_counter() - start, time.process_time() - cpu, errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="one benchmark workload process")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    from fairprice.cli import main as cli_main

    labels = [label for label, _ in commands(args.workload, args.inputs, args.seed)]
    first = os.path.join(args.work, "rep0")
    scratch = os.path.join(args.work, "rep")
    reps = []
    calibrate = Calibration()

    def repetition(out_root, tracer=None):
        shutil.rmtree(out_root, ignore_errors=True)
        inputs = os.path.join(args.work, f"inputs{len(reps)}")
        shutil.copytree(args.inputs, inputs, ignore=shutil.ignore_patterns("*.npz"))
        cmds = commands(args.workload, inputs, args.seed)
        gc.collect()
        before = calibrate()
        start = time.time()
        seconds, cpu_s, errors = run_repetition(cli_main, cmds, out_root, tracer)
        after = calibrate()
        shutil.rmtree(inputs)
        reps.append({
            "start": start, "seconds": seconds, "cpu_s": cpu_s, "errors": errors,
            "calibration_s": [before, after],
            "warmup": not reps, "traced": tracer is not None,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digests": [digest(os.path.join(out_root, label)) for label in labels]})
        return seconds

    repetition(first)
    loaded = [name for name, module in sys.modules.items()
              if name not in BASELINE_MODULES and not is_harness(module)]
    # the measuring window opens after the warm-up repetition
    deadline = time.perf_counter() + args.seconds
    while True:
        repetition(scratch)
        typical = statistics.median(r["seconds"] for r in reps[1:])
        if time.perf_counter() + typical > deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_layer = None
    if args.trace:
        from tracer import Tracer
        untraced = statistics.median(r["seconds"] for r in reps[1:])
        tracer = Tracer()
        tracer.install()
        traced = repetition(scratch, tracer)
        tracer.uninstall()
        per_layer = tracer.metrics(traced - untraced)
        tracer.write_spans(os.path.join(args.work, "spans.json"))

    import numpy
    import scipy

    result = {"labels": labels, "reps": reps, "loaded_modules": loaded,
              "first_outputs": first, "peak_rss_mb": peak_rss_mb, "per_layer": per_layer,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
