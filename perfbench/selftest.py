"""Self-test of the benchmark harness, at tiny input sizes (about a minute).

    python3 perfbench/selftest.py

Checks that:

- every workload, untraced and traced, prints a last line with exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``, reports no
  failed operation, and emits every metric ``BENCHMARK.json`` names, each
  with its unit;
- every count of two traced runs with one seed is identical;
- a deliberately corrupted output of each workload is counted as a failed
  operation;
- in a directory holding only ``BENCHMARK.json`` and the harness, a run exits
  nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from spec import BENCHMARK, WORKLOADS  # noqa: E402

SEED = 3
# (workload, output file, path of one number in it) to corrupt
CORRUPT = (
    ("log_audit", "audit/audit.json",
     ("metrics", "marginal_price_disparity", "max_gap")),
    ("ope_search", "ope_search/ope.json", ("value",)),
    ("market_price", "price_blind/prices.json", ("lambda_star",)),
)


def run_cli(argv, cwd):
    return subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *argv],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(out) -> dict:
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise AssertionError(f"run failed ({out.returncode}):\n{out.stderr}")
    return json.loads(lines[-1])


def check_result(result, specs, what, problems):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: keys {sorted(result)}")
        return
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"{what}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    want = {s["name"]: s["unit"] for s in specs}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        problems.append(f"{what}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, units "
                        f"{ {k: (got[k], want[k]) for k in got if k in want and got[k] != want[k]} }")
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v.get("value"), (int, float))]
    if bad:
        problems.append(f"{what}: non-numeric values {bad}")


def corrupt(path, keys):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    node = data
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = float(node[keys[-1]]) + 0.01
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)


def main() -> int:
    root = os.getcwd()
    problems = []
    tiny = ["--seed", str(SEED), "--seconds", "1", "--size", "tiny"]
    for workload in WORKLOADS:
        result = last_json(run_cli(["--workload", workload, "--trace", "0", *tiny], root))
        check_result(result, BENCHMARK["end_to_end"], f"{workload} untraced", problems)
        traced = [last_json(run_cli(["--workload", workload, "--trace", "1", *tiny], root))
                  for _ in range(2)]
        for k, t in enumerate(traced):
            check_result(t, BENCHMARK["per_layer"], f"{workload} traced #{k}", problems)
        counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] != "s"}
                  for t in traced]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: traced counts differ: "
                            f"{[k for k in counts[0] if counts[0][k] != counts[1].get(k)]}")
        print(f"{workload}: metrics and counts checked", flush=True)

    for workload, name, keys in CORRUPT:
        result = run.measure(workload, SEED, 0.0, 0, "tiny", root)
        corrupt(os.path.join(result["first_outputs"], name), keys)
        summary = run.summarize(result, run.check_outputs(
            workload, result["inputs"], result["first_outputs"], SEED, "tiny"))
        if summary["correct"] or summary["failed"] < 1:
            problems.append(f"{workload}: corrupted {name} was not counted as failed")
        print(f"{workload}: corrupted {name} -> failed {summary['failed']}"
              f"/{summary['attempted']}", flush=True)

    bare = os.path.join(root, run.STATE_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    out = run_cli(["--workload", "log_audit", *tiny, "--trace", "0"], bare)
    if out.returncode == 0 or out.stdout.strip():
        problems.append(f"bare directory: exit {out.returncode}, stdout {out.stdout!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print("PROBLEM:", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
