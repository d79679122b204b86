"""Seeded workload inputs, written with numpy and csv only.

Nothing here calls ``fairprice``: the records CSVs, the scenario file and the
model/population/policy JSON are produced by this file's own code, so two
commits of the program get byte-identical inputs even when one of them
changes its RNG use or its serializers.

"Market A" is the criterion-09 market of the acceptance tests plus a 3-level
covariate ``x2``: 6 support points, latent valuations with logistic noise
(scale 0.4) and 4 logged price levels.

Inputs are cached under ``<cache>/<workload>-<size>-<seed>-<digest>/``, where
the digest covers this file's source, so a change to the generator can never
reuse stale inputs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import shutil
import tempfile
import zlib

import numpy as np

# record counts and the large-support grid, per size; "tiny" is the self-test
SIZES = {
    "full": {"audit_records": 20000, "ope_records": 2000,
             "simulate_records": 20000, "grid": (50, 40)},
    "tiny": {"audit_records": 600, "ope_records": 400,
             "simulate_records": 600, "grid": (6, 5)},
}

GROUPS = ("a", "b")
X1 = ((0.0, 0.5), (1.0, 0.5))
X2 = ((0.0, 0.3), (1.0, 0.4), (2.0, 0.3))
MEMBERSHIP = (0.8, (-1.6, -0.3))          # logit of P(group a | x)
LOC = {"a": (2.0, (0.5, 0.15)), "b": (1.3, (0.5, 0.15))}
SCALE = 0.4
PRICE_LEVELS = (0.8, 1.2, 1.6, 2.0)

# The ope_search log is one fixed market-A sample; the workload seed permutes
# and renames its records and seeds the CLI. With a freshly drawn log per
# seed, the pattern search's length varies with the sample (interquartile
# range of ope_value calls 8% of the median over 40 seeds, one seed at 1.7x),
# and that alone would spend a third of the benchmark's bound.
OPE_BASE_SEED = 20201123

# clipped linear policy evaluated by ``ope --policy``
OPE_POLICY = {"kind": "linear", "intercept": 1.2, "theta": [0.4, 0.1],
              "clip_lo": 0.8, "clip_hi": 2.0}

HEADER = ["id", "group", "x1", "x2", "price", "demand", "outcome",
          "valuation", "weight"]

_SOURCE_DIGEST = None


def source_digest() -> str:
    global _SOURCE_DIGEST
    if _SOURCE_DIGEST is None:
        with open(__file__, "rb") as fh:
            _SOURCE_DIGEST = hashlib.sha256(fh.read()).hexdigest()[:16]
    return _SOURCE_DIGEST


def _expit(z):
    return 1.0 / (1.0 + np.exp(-z))


def market_a_support():
    """(support, masses, membership) of market A, x1-major like the simulator."""
    points, masses = [], []
    for (v1, p1), (v2, p2) in itertools.product(X1, X2):
        points.append([v1, v2])
        masses.append(p1 * p2)
    support = np.asarray(points)
    q = _expit(MEMBERSHIP[0] + support @ np.asarray(MEMBERSHIP[1]))
    return support, np.asarray(masses), np.column_stack([q, 1.0 - q])


def market_a_records(n: int, rng) -> dict:
    """Columns of ``n`` logged market-A interactions at uniform price levels."""
    x1 = rng.choice([v for v, _ in X1], size=n, p=[p for _, p in X1])
    x2 = rng.choice([v for v, _ in X2], size=n, p=[p for _, p in X2])
    X = np.column_stack([x1, x2])
    q = _expit(MEMBERSHIP[0] + X @ np.asarray(MEMBERSHIP[1]))
    is_a = rng.random(n) < q
    loc = np.where(is_a,
                   LOC["a"][0] + X @ np.asarray(LOC["a"][1]),
                   LOC["b"][0] + X @ np.asarray(LOC["b"][1]))
    valuation = loc + SCALE * rng.logistic(0.0, 1.0, size=n)
    price = np.asarray(PRICE_LEVELS)[rng.integers(len(PRICE_LEVELS), size=n)]
    demand = (valuation >= price).astype(float)
    return {"X": X, "group": np.where(is_a, "a", "b"), "price": price,
            "demand": demand, "valuation": valuation}


def write_records(path: str, cols: dict) -> None:
    width = max(6, len(str(len(cols["price"]))))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(HEADER)
        for i in range(len(cols["price"])):
            x = cols["X"][i]
            w.writerow([f"r{i:0{width}d}", cols["group"][i],
                        repr(float(x[0])), repr(float(x[1])),
                        repr(float(cols["price"][i])),
                        repr(float(cols["demand"][i])), "",
                        repr(float(cols["valuation"][i])), "1.0"])


def latent_model() -> dict:
    return {"kind": "latent", "noise": "logistic", "scale": SCALE,
            "loc": {g: {"intercept": icpt, "coefs": list(coefs)}
                    for g, (icpt, coefs) in LOC.items()}}


def population_json(support, masses, membership) -> dict:
    return {"groups": list(GROUPS), "unit_cost": 0.0,
            "support": support.tolist(), "masses": masses.tolist(),
            "membership": membership.tolist()}


def grid_market(shape, rng):
    """A partially linear model on an ``n1 x n2`` grid support in [0, 1]^2."""
    n1, n2 = shape
    support = np.array([[a, b] for a in np.linspace(0.0, 1.0, n1)
                        for b in np.linspace(0.0, 1.0, n2)])
    masses = rng.uniform(0.5, 1.5, size=support.shape[0])
    masses = masses / masses.sum()
    q = _expit(0.4 - 1.5 * support[:, 0] + 0.8 * support[:, 1]
               + 0.1 * rng.normal(size=support.shape[0]))
    model = {"kind": "partially_linear", "baseline_form": "linear",
             "allow_upward": False,
             "beta": {"a": -1.0, "b": -1.25},
             "baseline": {
                 "a": {"intercept": 2.0 + 0.05 * float(rng.normal()),
                       "coefs": [0.6, -0.3]},
                 "b": {"intercept": 1.6 + 0.05 * float(rng.normal()),
                       "coefs": [0.5, 0.2]}}}
    return model, population_json(support, masses,
                                  np.column_stack([q, 1.0 - q]))


def scenario_text(n: int) -> str:
    lines = [f"n = {n}", "groups = a, b",
             "covariate.x1 = choice(" + ", ".join(f"{v}:{p}" for v, p in X1) + ")",
             "covariate.x2 = choice(" + ", ".join(f"{v}:{p}" for v, p in X2) + ")",
             f"membership.intercept = {MEMBERSHIP[0]}",
             f"membership.x1 = {MEMBERSHIP[1][0]}",
             f"membership.x2 = {MEMBERSHIP[1][1]}",
             "demand = latent", "noise = logistic", f"scale = {SCALE}"]
    for g, (icpt, (c1, c2)) in LOC.items():
        lines += [f"loc.{g}.intercept = {icpt}", f"loc.{g}.x1 = {c1}",
                  f"loc.{g}.x2 = {c2}"]
    lines.append("price_levels = " + ", ".join(str(p) for p in PRICE_LEVELS))
    return "\n".join(lines) + "\n"


def _dump(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def _generate(workload: str, size: str, seed: int, out: str) -> None:
    sizes = SIZES[size]
    # one independent stream per workload, so workloads never share draws
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    if workload == "market_price":
        with open(os.path.join(out, "scenario.txt"), "w", encoding="utf-8") as fh:
            fh.write(scenario_text(sizes["simulate_records"]))
        model, population = grid_market(sizes["grid"], rng)
        _dump(os.path.join(out, "grid_model.json"), model)
        _dump(os.path.join(out, "grid_population.json"), population)
        _dump(os.path.join(out, "market_model.json"), latent_model())
        _dump(os.path.join(out, "market_population.json"),
              population_json(*market_a_support()))
        return
    if workload == "log_audit":
        cols = market_a_records(sizes["audit_records"], rng)
    else:
        base = market_a_records(sizes["ope_records"],
                                np.random.default_rng(OPE_BASE_SEED))
        order = rng.permutation(base["price"].size)
        cols = {k: v[order] for k, v in base.items()}
        _dump(os.path.join(out, "policy.json"), OPE_POLICY)
    write_records(os.path.join(out, "records.csv"), cols)
    np.savez(os.path.join(out, "records.npz"), **cols)


def ensure_inputs(workload: str, seed: int, cache: str, size: str = "full") -> str:
    """Directory holding the inputs for (workload, size, seed), built once."""
    final = os.path.join(cache, f"{workload}-{size}-{seed}-{source_digest()}")
    if os.path.isdir(final):
        return final
    os.makedirs(cache, exist_ok=True)
    tmp = tempfile.mkdtemp(dir=cache, prefix=".tmp-")
    try:
        _generate(workload, size, seed, tmp)
        os.replace(tmp, final)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    return final

