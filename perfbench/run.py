"""Benchmark entry point: one run of one workload of the ``fairprice`` CLI.

    python3 perfbench/run.py --workload log_audit --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; ``fairprice`` is imported from its
``src/``. One run:

1. builds (or reuses) the workload's seeded inputs (``inputs.py``);
2. starts one workload process (``worker.py``) that repeats the workload's
   command sequence for ``--seconds``, then with ``--trace 1`` once more
   under the tracer;
3. with ``--trace 0``, measures ``setup_s``: the median, over 8 fresh child
   processes, of the wall time from launching the interpreter until
   ``fairprice.cli`` and every other module the workload process loaded by
   the end of its warm-up repetition are imported, after one discarded
   warm-up import;
4. checks the outputs (``reference.py``) outside every timed region;
5. prints, as the last stdout line, one JSON object with ``correct``,
   ``attempted``, ``failed`` and ``metrics``: ``setup_s``, ``total_s`` (median
   wall seconds of one pass of the command sequence, scaled to a reference
   machine speed; see ``adjusted_passes``) and ``peak_rss_mb`` untraced, or
   every per-layer metric traced.

An operation is one CLI command in one repetition. It fails on a nonzero
exit, an exception, a failed output check, or output bytes that differ from
the first repetition's.

Every child runs with ``PYTHONHASHSEED=0``, one BLAS/OpenMP thread and no
``FAIRPRICE_THREADS``. Inputs, outputs and records of each run stay under
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os

# one BLAS thread, here and in every child, before anything imports numpy
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import worker  # noqa: E402
from spec import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

STATE_DIR = ".perfbench"
SETUP_PROBES = 8
WORKER_DEADLINE_S = 150.0  # after the run starts; a run must end within 180 s
# imports fairprice.cli, then the modules named on stdin that are not loaded
# yet; a name that only exists at run time (made by code, not found on the
# path) cannot be imported and is skipped
PROBE = """import importlib, sys, time
import fairprice.cli
for name in sys.stdin.read().split():
    if name not in sys.modules:
        try:
            importlib.import_module(name)
        except ImportError:
            pass
print(time.perf_counter())
"""


def bench_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FAIRPRICE_THREADS"}
    env.update(THREAD_VARS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def setup_samples(env: dict, n: int, modules: list) -> tuple:
    """Launch-to-imported seconds of ``n`` fresh interpreters, after a warm-up.

    Each imports ``fairprice.cli`` and then ``modules``. Also returns each
    interpreter's CPU seconds, for the run record.
    """
    samples, cpu = [], []
    names = "\n".join(modules)
    for k in range(n + 1):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        launched = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", PROBE], env=env, input=names,
                             capture_output=True, text=True, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if out.returncode != 0:
            raise RuntimeError(f"the setup probe failed:\n{out.stderr}")
        if k:   # the first import compiles bytecode and warms the page cache
            samples.append(float(out.stdout.split()[-1]) - launched)
            cpu.append(after.ru_utime + after.ru_stime
                       - before.ru_utime - before.ru_stime)
    return samples, cpu


def git_sha(root: str) -> str:
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def check_outputs(workload, inputs_dir, out_root, seed, size) -> dict:
    """label -> mismatch messages for the first repetition's outputs."""
    import reference as ref

    def out(label):
        return os.path.join(out_root, label)

    if workload == "log_audit":
        cols = ref.load_records(inputs_dir)
        return {"fit": ref.check_fit(out("fit"), cols),
                "audit": ref.check_audit(out("audit"), cols)}
    if workload == "ope_search":
        cols = ref.load_records(inputs_dir)
        ope = ref.OPEReference(cols)
        search_value, _ = ope.search(worker.SEARCH_STARTS, seed)
        return {"ope_policy": ref.check_ope_policy(
                    out("ope_policy"), ope, cols, inputs.OPE_POLICY,
                    worker.POLICY_BOOT, seed),
                "ope_search": ref.check_ope_search(
                    out("ope_search"), ope, cols, worker.SEARCH_STARTS,
                    worker.SEARCH_BOOT, seed, search_value)}
    parity = ref.ParityReference(
        ref.load_json(os.path.join(inputs_dir, "grid_model.json")),
        ref.load_json(os.path.join(inputs_dir, "grid_population.json")))
    return {
        "simulate": ref.check_simulate(out("simulate"),
                                       inputs.SIZES[size]["simulate_records"]),
        "price_based": ref.check_price(out("price_based"), parity,
                                       "attribute_based", worker.PARITY_GAMMA),
        "price_blind": ref.check_price(out("price_blind"), parity,
                                       "attribute_blind", worker.PARITY_GAMMA),
        "sweep_parity": ref.check_sweep_parity(
            out("sweep_parity"), parity, ref.grid_points(*worker.PARITY_GRID)),
        "sweep_share": ref.check_sweep_share(
            out("sweep_share"), ref.grid_points(*worker.SHARE_GRID)),
    }


def account(result: dict, mismatches: dict) -> tuple:
    """(attempted, failed, failure reasons) over every command of every repetition."""
    labels, reps = result["labels"], result["reps"]
    attempted, reasons = 0, []
    for r, rep in enumerate(reps):
        for k, label in enumerate(labels):
            attempted += 1
            if rep["errors"][k]:
                why = rep["errors"][k]
            elif mismatches.get(label):
                why = "; ".join(mismatches[label][:5])
            elif rep["digests"][k] != reps[0]["digests"][k]:
                why = "output bytes differ from the first repetition"
            else:
                continue
            reasons.append(f"rep {r} {label}: {why}")
    return attempted, len(reasons), reasons


def measure(workload, seed, seconds, trace, size="full", root=None) -> dict:
    """Run the worker for one workload; returns its raw result plus run facts."""
    root = root or os.getcwd()
    started = time.time()
    env = bench_env(root)
    inputs_dir = inputs.ensure_inputs(workload, seed,
                                      os.path.join(root, STATE_DIR, "inputs"), size)
    work = os.path.join(root, STATE_DIR, "work", f"{workload}-{size}-trace{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result_path = os.path.join(work, "result.json")
    budget = WORKER_DEADLINE_S - (time.time() - started)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
         "--inputs", inputs_dir, "--work", work, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), "--result", result_path],
        env=env, cwd=root, timeout=budget)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    setup, setup_cpu = (([], []) if trace else
                        setup_samples(env, SETUP_PROBES, result["loaded_modules"]))
    result.update(workload=workload, seed=seed, size=size, trace=trace,
                  started=started, setup_samples=setup, setup_cpu=setup_cpu,
                  inputs=inputs_dir,
                  git_sha=git_sha(root), cpu_count=os.cpu_count())
    return result


def adjusted_passes(result: dict) -> list:
    """Untraced pass seconds, each scaled to the reference machine speed.

    This machine's speed drifts by 20-40% over minutes, with other tenants'
    load, and CPU time drifts with wall time. The calibration task run just
    before and after a pass slows down with it, so dividing by it removes
    most of the drift from ``total_s`` while a slower program still shows.
    """
    return [r["seconds"] * worker.CAL_REF_S / statistics.mean(r["calibration_s"])
            for r in result["reps"] if not (r["warmup"] or r["traced"])]


def summarize(result: dict, mismatches: dict) -> dict:
    attempted, failed, reasons = account(result, mismatches)
    if result["trace"]:
        metrics = {k: {"value": v, "unit": PER_LAYER[k]}
                   for k, v in result["per_layer"].items()}
    else:
        values = {"setup_s": statistics.median(result["setup_samples"]),
                  "total_s": statistics.median(adjusted_passes(result)),
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "reasons": reasons}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                    help="input sizes; 'tiny' is for the self-test")
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "fairprice", "cli.py")):
        print("error: run from the root of a fairprice checkout "
              "(src/fairprice/cli.py not found)", file=sys.stderr)
        return 2

    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         args.size, root)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    mismatches = check_outputs(args.workload, result["inputs"],
                               result["first_outputs"], args.seed, args.size)
    summary = summarize(result, mismatches)
    for reason in summary.pop("reasons"):
        print(f"failed: {reason}", file=sys.stderr)

    record = dict(result, summary=summary)
    runs = os.path.join(root, STATE_DIR, "runs")
    os.makedirs(runs, exist_ok=True)
    name = (f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}-"
            f"{int(result['started'])}.json")
    with open(os.path.join(runs, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    reps = [round(r["seconds"], 3) for r in result["reps"]]
    print(f"# {args.workload} seed={args.seed} sha={result['git_sha'][:12]} "
          f"cpus={result['cpu_count']} versions={result['versions']} "
          f"pass_wall_s={reps} setup_samples="
          f"{[round(s, 4) for s in result['setup_samples']]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
