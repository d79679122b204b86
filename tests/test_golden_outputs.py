"""Byte-identical output contract: a small fixed pipeline of CLI commands,
run in-process, must write exactly the recorded bytes.

Each output file but ``run_manifest.json`` (which holds a duration) is
hashed with sha256 and compared with ``tests/golden/digests.json``. The
digests depend on the floating-point stack, so the tests skip when the
Python, numpy or scipy version differs from the one they were recorded with.
They depend on numpy's SIMD dispatch too: ``np.exp`` rounds differently in
its AVX-512 routines. So ``digests.json`` holds one digest set per enabled
dispatch, and a dispatch with no recorded set skips. The pipeline runs
twice: here, and in a subprocess with numpy's AVX-512 targets turned off for
it alone (``NPY_DISABLE_CPU_FEATURES``), which leaves AVX2 on an AVX-512
machine.

To record the digests again (only when an output is meant to change; the
sets of the dispatches this machine cannot run are dropped):

    PYTHONPATH=src python tests/test_golden_outputs.py

With ``--print`` the script records nothing and writes its own dispatch and
digests to stdout as JSON; the subprocess run uses that form.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
import scipy

from fairprice.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "digests.json")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")
# numpy's AVX-512 dispatch targets, turned off for the second run
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"

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


def dispatch() -> str:
    """numpy's enabled SIMD dispatch targets, space-separated."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__[t])


def recorded(targets: str) -> dict:
    """The digests recorded for the dispatch ``targets``; skips when the
    versions differ or no set was recorded for them."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    if golden["versions"] != versions():
        pytest.skip(f"digests recorded under {golden['versions']}, "
                    f"running under {versions()}")
    if targets not in golden["digests"]:
        pytest.skip(f"no digests recorded for numpy dispatch {targets!r}; "
                    f"recorded for {sorted(golden['digests'])}")
    return golden["digests"][targets]


def run_without_avx512() -> dict:
    """``{"dispatch", "digests"}`` of the pipeline run in a subprocess with
    the ``NO_AVX512`` targets turned off for that process only."""
    paths = [SRC, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=NO_AVX512,
               PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--print"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


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


def pipeline_digests() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return run_pipeline(tmp)


@pytest.mark.filterwarnings("ignore:negative share weight")  # the tax sweeps
def test_cli_outputs_match_recorded_digests(tmp_path):
    want = recorded(dispatch())
    assert run_pipeline(str(tmp_path)) == want


def test_cli_outputs_without_avx512_match_recorded_digests():
    from numpy._core._multiarray_umath import __cpu_dispatch__
    unknown = set(NO_AVX512.split()) - set(__cpu_dispatch__)
    if unknown:
        pytest.skip(f"numpy does not dispatch {sorted(unknown)} here")
    run = run_without_avx512()
    if run["dispatch"] == dispatch():
        pytest.skip(f"numpy dispatch {run['dispatch']!r} has no AVX-512 "
                    "target to turn off")
    assert run["digests"] == recorded(run["dispatch"])


if __name__ == "__main__":
    if sys.argv[1:] == ["--print"]:
        warnings.simplefilter("ignore")  # the tax sweeps' share weights
        json.dump({"dispatch": dispatch(), "digests": pipeline_digests()},
                  sys.stdout)
        sys.exit()
    sets = {dispatch(): pipeline_digests()}
    run = run_without_avx512()
    sets[run["dispatch"]] = run["digests"]
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"versions": versions(), "digests": sets}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"recorded digests for numpy dispatches {sorted(sets)} in {GOLDEN}",
          file=sys.stderr)
