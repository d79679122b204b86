"""Every workload, round-robin, with medians, quartiles and sample counts.

    python3 perfbench/suite.py                    # 10 rounds, untraced
    python3 perfbench/suite.py --rounds 0 --trace-runs 2
    python3 perfbench/suite.py --compare .perfbench/suite-<stamp>.json

Each run is one ``run.py`` process. One discarded warm-up run per workload
comes first (bytecode compilation, page cache); then each round runs every
workload once, seed ``--seed0 + round``, so a slow stretch of the machine
shows as a slow round rather than a slow workload. Every run's start time
is kept, so drift stays visible.

Each run gives one sample per metric. The median is reported with its
sample count and quartiles; no tail percentile is, because none has ten
samples beyond it at these run counts. ``--trace-runs 2`` runs each workload
traced twice with one seed, prints the per-layer metrics and checks that
every count is identical across the two runs. ``--compare`` reads an earlier suite
record and reports each median's change against the metric's bound.
Records are written to ``.perfbench/suite-<stamp>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spec import BENCHMARK, WORKLOADS  # noqa: E402


def one_run(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True, timeout=200)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {out.returncode}:\n"
                           f"{out.stderr}")
    return json.loads(lines[-1])


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_info(root: str) -> dict:
    probe = ("import sys, numpy, scipy; print(sys.version.split()[0], "
             "numpy.__version__, scipy.__version__)")
    out = subprocess.run([sys.executable, "-c", probe], env=run.bench_env(root),
                         capture_output=True, text=True, timeout=60)
    py, np_v, sp_v = (out.stdout.split() + ["?"] * 3)[:3]
    return {"git_sha": run.git_sha(root), "cpu_count": os.cpu_count(),
            "python": py, "numpy": np_v, "scipy": sp_v}


def report(runs) -> dict:
    table = {}
    print(f"{'workload':<14}{'metric':<13}{'unit':<6}{'n':>3}{'median':>12}"
          f"{'q1':>12}{'q3':>12}{'iqr/med':>9}{'bound':>7}")
    for workload in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == workload]
        for spec in BENCHMARK["end_to_end"]:
            name = spec["name"]
            values = [r["result"]["metrics"][name]["value"] for r in mine]
            q1, med, q3 = quartiles(values)
            table[f"{workload}/{name}"] = {
                "unit": spec["unit"], "n": len(values), "median": med,
                "q1": q1, "q3": q3, "values": values}
            print(f"{workload:<14}{name:<13}{spec['unit']:<6}{len(values):>3}"
                  f"{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{(q3 - q1) / med:>9.1%}{spec['bound']:>7.2f}")
    attempted = sum(r["result"]["attempted"] for r in runs)
    failed = sum(r["result"]["failed"] for r in runs)
    print(f"operations: {attempted} attempted, {failed} failed")
    return table


def compare(table, earlier) -> None:
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    print("median change against the earlier record (positive = worse):")
    for key, now in table.items():
        before = earlier["table"].get(key)
        if before is None:
            continue
        change = now["median"] / before["median"] - 1.0
        bound = bounds[key.split("/")[1]]
        verdict = "ok" if change <= bound else "WORSE THAN BOUND"
        print(f"  {key:<28}{change:>+8.1%}  bound {bound:.2f}  {verdict}")


def trace_check(seconds, seed) -> dict:
    out = {}
    for workload in WORKLOADS:
        first, second = (one_run(workload, seed, seconds, 1) for _ in range(2))
        differs = [k for k, v in first["metrics"].items()
                   if v["unit"] != "s" and v["value"] != second["metrics"][k]["value"]]
        out[workload] = {"runs": [first, second], "count_mismatches": differs}
        print(f"== {workload} (traced twice, seed {seed}): "
              f"{'counts identical' if not differs else 'COUNTS DIFFER: ' + str(differs)}")
        for k, v in first["metrics"].items():
            if v["value"] or second["metrics"][k]["value"]:
                print(f"  {k:<42}{v['value']:>14.6g}"
                      f"{second['metrics'][k]['value']:>14.6g} {v['unit']}")
    return out


def main(argv=None) -> int:
    root = os.getcwd()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace-runs", type=int, choices=(0, 2), default=0)
    ap.add_argument("--compare", help="an earlier suite record to compare against")
    args = ap.parse_args(argv)

    info = machine_info(root)
    print("machine:", json.dumps(info))
    record = {"info": info, "seconds": args.seconds, "runs": []}
    t0 = time.time()
    if args.rounds:
        for workload in WORKLOADS:
            one_run(workload, args.seed0 - 1, 1, 0)
    for rnd in range(args.rounds):
        for workload in WORKLOADS:
            start = time.time() - t0
            result = one_run(workload, args.seed0 + rnd, args.seconds, 0)
            record["runs"].append({"workload": workload, "round": rnd,
                                   "seed": args.seed0 + rnd, "start_s": start,
                                   "result": result})
            m = result["metrics"]
            print(f"  t={start:7.1f}s round {rnd} {workload:<13} "
                  + " ".join(f"{k}={v['value']:.4f}" for k, v in m.items())
                  + f" failed={result['failed']}/{result['attempted']}", flush=True)
    failed = 0
    if record["runs"]:
        record["table"] = report(record["runs"])
        failed = sum(r["result"]["failed"] for r in record["runs"])
        if args.compare:
            with open(args.compare, encoding="utf-8") as fh:
                compare(record["table"], json.load(fh))
    if args.trace_runs:
        record["trace"] = trace_check(args.seconds, args.seed0)
        failed += sum(r["failed"] for t in record["trace"].values() for r in t["runs"])
        failed += sum(len(t["count_mismatches"]) for t in record["trace"].values())
    path = os.path.join(root, run.STATE_DIR, f"suite-{int(t0)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(f"record: {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
