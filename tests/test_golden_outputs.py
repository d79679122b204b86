"""Byte-identical output contract: a small fixed pipeline of CLI commands,
run in-process, must write exactly the recorded bytes.

Each output file but ``run_manifest.json`` (which holds a duration) is
hashed with sha256 and compared with ``tests/golden/digests.json``. The
digests depend on the floating-point stack, so the test is skipped when the
Python, numpy or scipy version differs from the one they were recorded with.

To record the digests again (only when an output is meant to change):

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import hashlib
import json
import os
import platform
import sys
import tempfile

import numpy as np
import pytest
import scipy

from fairprice.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "digests.json")

SCENARIO = """
n = 2000
groups = a, b
covariate.x1 = choice(0:0.5, 1:0.5)
covariate.x2 = choice(0:0.3, 1:0.4, 2:0.3)
membership.intercept = 0.8
membership.x1 = -1.6
membership.x2 = -0.3
demand = latent
noise = logistic
scale = 0.4
loc.a.intercept = 2.0
loc.a.x1 = 0.5
loc.a.x2 = 0.15
loc.b.intercept = 1.3
loc.b.x1 = 0.5
loc.b.x2 = 0.15
price_levels = 0.8, 1.2, 1.6, 2.0
"""

# continuous covariates: the per-record draw loop, the interleaved logistic
# price and take-up draws, a pricing experiment on record cells and tabular
# prices matched on a log
CONTINUOUS_SCENARIO = """
n = 400
groups = a, b
covariate.x1 = uniform(0, 2)
covariate.x2 = normal(0, 1)
membership.intercept = 0.2
membership.x1 = -0.6
demand = logistic
beta = -1.8
intercept = 2.5
gamma.x1 = 0.4
gamma.x2 = 0.3
price_levels = 0.8, 1.2, 1.6, 2.0
"""

# the scenario's latent market, whose noise family each share run replaces
LATENT_MODEL = {"kind": "latent", "noise": "logistic", "scale": 0.4,
                "loc": {"a": {"intercept": 2.0, "coefs": [0.5, 0.15]},
                        "b": {"intercept": 1.3, "coefs": [0.5, 0.15]}}}

LINEAR_POLICY = {"kind": "linear", "intercept": 1.2, "theta": [0.4, 0.1],
                 "clip_lo": 0.8, "clip_hi": 2.0}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__}


def run_pipeline(root: str) -> dict:
    """Run every command under ``root``; ``{"<step>/<file>": sha256}``."""
    def path(*parts):
        return os.path.join(root, *parts)

    def write_json(name, obj):
        with open(path(name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
        return path(name)

    with open(path("scenario.txt"), "w", encoding="utf-8") as fh:
        fh.write(SCENARIO)
    records = path("sim", "records.csv")
    population = ["--population", path("sim", "population.json")]
    # parity prices need the fitted partially linear model
    fitted = ["--model", path("fit_linear", "model.json"), *population]
    market = ["--model", path("sim", "model_true.json"), *population]
    steps = [
        ("sim", ["simulate", "--scenario", path("scenario.txt"), "--seed", "7"]),
        ("fit_linear", ["fit", "--records", records, "--model", "linear"]),
        ("fit_logistic", ["fit", "--records", records, "--model", "logistic"]),
        ("audit_json", ["audit", "--records", records]),
        ("ope_policy", ["ope", "--records", records, "--n-boot", "20",
                        "--policy", write_json("linear.json", LINEAR_POLICY)]),
        ("ope_search", ["ope", "--records", records, "--search",
                        "--n-starts", "2", "--n-boot", "20", "--seed", "7"]),
        ("price_based", ["price", *fitted, "--mode", "attribute_based",
                         "--gamma", "0.2"]),
        ("price_blind", ["price", *fitted, "--mode", "attribute_blind",
                         "--gamma", "0.3"]),
        ("price_share", ["price", *market, "--share-lambda", "0.3"]),
        ("sweep_parity", ["sweep", "--kind", "parity", *fitted,
                          "--grid", "0.1,0.3,inf"]),
        ("sweep_share", ["sweep", "--kind", "share", *market,
                         "--grid", "0:1:3", "--scope", "group", "--group", "b"]),
    ]
    # share prices and sweeps for every demand family: the four other latent
    # noise families, the fitted logistic and the fitted partially linear
    # model; the sweep's negative weight is a tax
    share_models = [(noise, ["--model", write_json(f"latent_{noise}.json",
                                                   dict(LATENT_MODEL, noise=noise)),
                             *population])
                    for noise in ("normal", "exponential", "laplace", "gumbel")]
    share_models += [
        ("logistic", ["--model", path("fit_logistic", "model.json"), *population]),
        ("linear", fitted)]
    for name, model in share_models:
        steps += [(f"price_share_{name}", ["price", *model, "--share-lambda", "0.3"]),
                  (f"sweep_share_{name}", ["sweep", "--kind", "share", *model,
                                           "--grid=-0.4,0,0.3,0.8"])]
    for step, argv in steps:
        assert main(argv + ["--out-dir", path(step), "--quiet"]) == 0, step
    # model-mode audits of the simulated experiment's policies and of the
    # searched linear policy
    with open(path("sim", "experiment.json"), encoding="utf-8") as fh:
        experiment = json.load(fh)
    with open(path("ope_search", "ope.json"), encoding="utf-8") as fh:
        searched = json.load(fh)["policy"]
    policies = {scheme: experiment[scheme]["policy"]
                for scheme in ("uniform", "group", "personalized")}
    for name, policy in dict(policies, searched=searched).items():
        step = f"model_audit_{name}"
        argv = ["audit", *market, "--policy", write_json(f"{name}.json", policy),
                "--out-dir", path(step), "--quiet"]
        assert main(argv) == 0, step
        steps.append((step, argv))
    with open(path("continuous.txt"), "w", encoding="utf-8") as fh:
        fh.write(CONTINUOUS_SCENARIO)
    cont_records = path("cont_sim", "records.csv")
    for step, argv in [
            ("cont_sim", ["simulate", "--scenario", path("continuous.txt"),
                          "--seed", "11"]),
            ("cont_fit_logistic", ["fit", "--records", cont_records,
                                   "--model", "logistic"]),
            ("cont_audit", ["audit", "--records", cont_records]),
            ("cont_ope_search", ["ope", "--records", cont_records, "--search",
                                 "--n-starts", "2", "--n-boot", "20",
                                 "--seed", "11"])]:
        assert main(argv + ["--out-dir", path(step), "--quiet"]) == 0, step
        steps.append((step, argv))
    # the experiment's personalized policy: one table row per record
    with open(path("cont_sim", "experiment.json"), encoding="utf-8") as fh:
        policy = json.load(fh)["personalized"]["policy"]
    argv = ["ope", "--records", cont_records, "--n-boot", "20", "--policy",
            write_json("cont_personalized.json", policy),
            "--out-dir", path("cont_ope_policy"), "--quiet"]
    assert main(argv) == 0, "cont_ope_policy"
    steps.append(("cont_ope_policy", argv))
    digests = {}
    for step, _ in steps:
        for name in sorted(os.listdir(path(step))):
            if name != "run_manifest.json":
                with open(path(step, name), "rb") as fh:
                    digests[f"{step}/{name}"] = hashlib.sha256(fh.read()).hexdigest()
    return digests


@pytest.mark.filterwarnings("ignore:negative share weight")  # the tax sweeps
def test_cli_outputs_match_recorded_digests(tmp_path):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["versions"] != versions():
        pytest.skip(f"digests recorded under {golden['versions']}, "
                    f"running under {versions()}")
    assert run_pipeline(str(tmp_path)) == golden["digests"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = run_pipeline(tmp)
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"versions": versions(), "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}", file=sys.stderr)
