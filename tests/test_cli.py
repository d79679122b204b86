"""End-to-end tests of the command-line interface (run in-process)."""

import json
import os

import pytest

import fairprice as fp
from fairprice.cli import main


SCENARIO = """
n = 800
groups = a, b
covariate.x1 = choice(0:0.5, 1:0.5)
membership.intercept = 0.8
membership.x1 = -1.6
demand = latent
noise = logistic
scale = 0.4
loc.a.intercept = 2.0
loc.a.x1 = 0.5
loc.b.intercept = 1.3
loc.b.x1 = 0.5
price_levels = 0.8, 1.2, 1.6, 2.0
"""


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO)
    return str(path)


@pytest.fixture()
def sim_dir(tmp_path, scenario_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--scenario", scenario_path, "--seed", "3",
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    return out


def test_simulate_outputs(sim_dir):
    names = {p.name for p in sim_dir.iterdir()}
    assert {"records.csv", "population.json", "model_true.json",
            "run_manifest.json"} <= names
    manifest = json.loads((sim_dir / "run_manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3
    assert "records.csv" in manifest["outputs"]


def test_simulate_reruns_byte_identical(tmp_path, scenario_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["simulate", "--scenario", scenario_path, "--seed", "9",
                     "--out-dir", str(out), "--quiet"]) == 0
    for name in ("records.csv", "population.json", "model_true.json",
                 "experiment.csv", "experiment.json", "revenue_curve.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    m1 = json.loads((out1 / "run_manifest.json").read_text())
    m2 = json.loads((out2 / "run_manifest.json").read_text())
    m1.pop("duration_s"), m2.pop("duration_s")
    # inputs differ only through the out-dir-independent basenames
    assert m1 == m2


def test_simulate_experiment_bundle(sim_dir):
    """The uniform/group/personalized comparison ships with every run."""
    lines = (sim_dir / "experiment.csv").read_text().strip().splitlines()
    assert lines[0] == "scheme,metric,group,value"
    schemes = {line.split(",")[0] for line in lines[1:]}
    assert schemes == {"uniform", "group", "personalized"}

    blob = json.loads((sim_dir / "experiment.json").read_text())
    revenues = {}
    for scheme in ("uniform", "group", "personalized"):
        entry = blob[scheme]
        assert set(entry) == {"policy", "revenue", "margin", "access",
                              "price_mean", "histogram"}
        assert len(entry["histogram"]["counts"]) == 25
        assert len(entry["histogram"]["edges"]) == 26
        assert set(entry["access"]) == {"a", "b"}
        revenues[scheme] = entry["revenue"]
    # richer policy classes can only help
    assert revenues["group"] >= revenues["uniform"] - 1e-9
    assert revenues["personalized"] >= revenues["group"] - 1e-9


def test_revenue_curve_matches_uniform_optimum(sim_dir):
    """Grid scan of the revenue curve agrees with the 1-d optimizer."""
    lines = (sim_dir / "revenue_curve.csv").read_text().strip().splitlines()
    assert lines[0] == "price,revenue,margin"
    assert len(lines) == 201
    rows = [tuple(float(c) for c in line.split(",")) for line in lines[1:]]
    best_price = max(rows, key=lambda r: r[1])[0]

    blob = json.loads((sim_dir / "experiment.json").read_text())
    uniform_price = blob["uniform"]["policy"]["value"]
    spacing = (rows[-1][0] - rows[0][0]) / (len(rows) - 1)
    assert abs(best_price - uniform_price) <= spacing + 1e-12


def test_fit_linear_then_price(tmp_path, sim_dir):
    fit_out = tmp_path / "fit"
    code = main(["fit", "--records", str(sim_dir / "records.csv"),
                 "--model", "linear", "--out-dir", str(fit_out), "--quiet"])
    assert code == 0
    blob = json.loads((fit_out / "model.json").read_text())
    assert blob["model"]["kind"] == "partially_linear"
    assert blob["diagnostics"]["n_records"] == 800

    price_out = tmp_path / "price"
    code = main(["price", "--model", str(fit_out / "model.json"),
                 "--population", str(sim_dir / "population.json"),
                 "--mode", "attribute_based", "--gamma", "0",
                 "--out-dir", str(price_out), "--quiet"])
    assert code == 0
    prices = json.loads((price_out / "prices.json").read_text())
    assert prices["mode"] == "attribute_based"
    assert prices["lambda_star"] != 0.0
    assert abs(prices["achieved_disparity"]) <= 1e-7


def test_price_infinite_gamma_writes_inf_string(tmp_path, sim_dir):
    fit_out = tmp_path / "fit"
    main(["fit", "--records", str(sim_dir / "records.csv"),
          "--model", "linear", "--out-dir", str(fit_out), "--quiet"])
    out = tmp_path / "price"
    assert main(["price", "--model", str(fit_out / "model.json"),
                 "--population", str(sim_dir / "population.json"),
                 "--mode", "attribute_blind", "--out-dir", str(out),
                 "--quiet"]) == 0
    text = (out / "prices.json").read_text()
    assert '"gamma": "inf"' in text
    prices = json.loads(text)
    assert prices["lambda_star"] == 0.0
    assert set(prices) == {"mode", "gamma", "lambda_star", "xi",
                           "oriented_groups", "unconstrained_disparity",
                           "achieved_disparity", "prices", "revenue", "access"}


def test_price_csv_format(tmp_path, sim_dir):
    fit_out = tmp_path / "fit"
    main(["fit", "--records", str(sim_dir / "records.csv"),
          "--model", "linear", "--out-dir", str(fit_out), "--quiet"])
    out = tmp_path / "pricecsv"
    code = main(["price", "--model", str(fit_out / "model.json"),
                 "--population", str(sim_dir / "population.json"),
                 "--mode", "attribute_blind", "--format", "csv",
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    lines = (out / "prices.csv").read_text().strip().splitlines()
    assert lines[0] == "x_index,group,price"
    assert len(lines) >= 3


def test_price_single_point_instance_csv(tmp_path):
    """Equal caps on the one-cell market: both groups pay 0.75."""
    import numpy as np

    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.0, np.array([])), "b": (1.0, np.array([]))})
    pop = fp.Population(groups=("a", "b"), support=[[]], masses=[1.0],
                        membership=[[0.5, 0.5]])
    (tmp_path / "model.json").write_text(json.dumps(fp.model_to_dict(model)))
    (tmp_path / "population.json").write_text(
        json.dumps(fp.population_to_dict(pop)))
    out = tmp_path / "o"
    code = main(["price", "--model", str(tmp_path / "model.json"),
                 "--population", str(tmp_path / "population.json"),
                 "--gamma", "0", "--out-dir", str(out), "--quiet"])
    assert code == 0
    lines = (out / "prices.csv").read_text().strip().splitlines()
    assert lines[0] == "x_index,group,price"
    prices = {line.split(",")[1]: float(line.split(",")[2])
              for line in lines[1:]}
    assert prices["a"] == pytest.approx(0.75, abs=1e-9)
    assert prices["b"] == pytest.approx(0.75, abs=1e-9)


def test_price_share_lambda(tmp_path, sim_dir):
    """A share subsidy on one group buys its access with revenue."""
    results = {}
    for lam in ("0", "0.6"):
        out = tmp_path / f"share{lam}"
        code = main(["price", "--model", str(sim_dir / "model_true.json"),
                     "--population", str(sim_dir / "population.json"),
                     "--share-lambda", lam, "--scope", "group",
                     "--group", "b", "--out-dir", str(out), "--quiet"])
        assert code == 0
        results[lam] = json.loads((out / "prices.json").read_text())
        assert (out / "prices.csv").exists()

    blob = results["0.6"]
    assert blob["mode"] == "share"
    assert blob["share_lambda"] == 0.6
    assert blob["scope"] == "group"
    assert blob["group"] == "b"
    assert set(blob["access"]) == {"a", "b"}
    assert blob["prices"] and {"x_index", "group", "price"} == set(
        blob["prices"][0])
    # subsidizing b lowers its prices, raises its take-up, costs revenue
    b_price = lambda r: [p["price"] for p in r["prices"] if p["group"] == "b"]
    assert all(p1 < p0 for p0, p1 in zip(b_price(results["0"]),
                                         b_price(results["0.6"])))
    assert blob["access"]["b"] > results["0"]["access"]["b"]
    assert blob["revenue"] < results["0"]["revenue"] + 1e-12


def test_price_gamma_and_share_lambda_conflict(tmp_path, sim_dir, capsys):
    code = main(["price", "--model", str(sim_dir / "model_true.json"),
                 "--population", str(sim_dir / "population.json"),
                 "--gamma", "0.1", "--share-lambda", "0.5",
                 "--out-dir", str(tmp_path / "x"), "--quiet"])
    assert code == 2
    assert "error_code=config_parse" in capsys.readouterr().err


def test_fit_logistic_model(tmp_path, sim_dir):
    fit_out = tmp_path / "fitlog"
    code = main(["fit", "--records", str(sim_dir / "records.csv"),
                 "--model", "logistic", "--out-dir", str(fit_out), "--quiet"])
    assert code == 0
    blob = json.loads((fit_out / "model.json").read_text())
    assert blob["model"]["kind"] == "logistic"
    assert blob["model"]["beta"] < 0


def test_price_rejects_latent_model(tmp_path, sim_dir, capsys):
    out = tmp_path / "bad"
    code = main(["price", "--model", str(sim_dir / "model_true.json"),
                 "--population", str(sim_dir / "population.json"),
                 "--mode", "attribute_based", "--gamma", "0",
                 "--out-dir", str(out), "--quiet"])
    assert code == 2
    assert "error_code=precondition" in capsys.readouterr().err


def test_price_rejects_bad_gamma(tmp_path, sim_dir, capsys):
    fit_out = tmp_path / "fit"
    main(["fit", "--records", str(sim_dir / "records.csv"),
          "--model", "linear", "--out-dir", str(fit_out), "--quiet"])
    code = main(["price", "--model", str(fit_out / "model.json"),
                 "--population", str(sim_dir / "population.json"),
                 "--mode", "attribute_based", "--gamma", "a lot",
                 "--out-dir", str(tmp_path / "x"), "--quiet"])
    assert code == 2
    assert "error_code=config_parse" in capsys.readouterr().err


def test_missing_records_file_exits_1(tmp_path, capsys):
    code = main(["fit", "--records", str(tmp_path / "nope.csv"),
                 "--model", "linear", "--out-dir", str(tmp_path), "--quiet"])
    assert code == 1
    assert "error_code=io" in capsys.readouterr().err


def test_fit_rejects_nonbinary_demand_for_logistic(tmp_path, capsys):
    path = tmp_path / "frac.csv"
    path.write_text("id,group,x1,price,demand,outcome,valuation,weight\n"
                    "r0,a,0.0,1.0,0.25,,,\n"
                    "r1,b,1.0,2.0,1.0,,,\n")
    code = main(["fit", "--records", str(path), "--model", "logistic",
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    assert "error_code=invalid_value" in capsys.readouterr().err


def test_fit_separable_data_exits_2_naming_the_problem(tmp_path, capsys):
    path = tmp_path / "sep.csv"
    rows = "".join(f"r{i},{'a' if i % 2 else 'b'},{i % 3},1.{i},1.0,,,\n"
                   for i in range(8))
    path.write_text("id,group,x1,price,demand,outcome,valuation,weight\n"
                    + rows)
    code = main(["fit", "--records", str(path), "--model", "logistic",
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "perfect separation" in err
    assert "error_code=perfect_separation" in err


def test_fit_upward_slope_exits_3(tmp_path, capsys):
    # demand rises with price; the linear fit refuses without --allow-upward
    path = tmp_path / "up.csv"
    rows = []
    for i in range(24):
        price = 1.0 + (i % 4) * 0.5
        rows.append(f"r{i},{'a' if i % 2 else 'b'},{(i // 4) % 3},"
                    f"{price},{0.1 + 0.3 * price:.3f},,,\n")
    path.write_text("id,group,x1,price,demand,outcome,valuation,weight\n"
                    + "".join(rows))
    code = main(["fit", "--records", str(path), "--model", "linear",
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    assert code == 3
    assert "error_code=upward_slope" in capsys.readouterr().err


def test_price_unenforceable_blind_constraint_exits_4(tmp_path, capsys):
    import numpy as np

    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.0, np.array([])), "b": (1.0, np.array([]))})
    pop = fp.Population(groups=("a", "b"), support=[[]], masses=[1.0],
                        membership=[[0.3, 0.7]])
    (tmp_path / "model.json").write_text(
        json.dumps(fp.model_to_dict(model)))
    (tmp_path / "population.json").write_text(
        json.dumps(fp.population_to_dict(pop)))
    # a single support cell leaves blind prices no lever on the disparity
    code = main(["price", "--model", str(tmp_path / "model.json"),
                 "--population", str(tmp_path / "population.json"),
                 "--mode", "attribute_blind", "--gamma", "0",
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    assert code == 4
    assert "error_code=unenforceable_constraint" in capsys.readouterr().err


def test_audit_nothing_computable_exits_5(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_text("id,group,x1,price,demand,outcome,valuation,weight\n")
    code = main(["audit", "--records", str(path),
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    assert code == 5
    assert "error_code=no_computable_metric" in capsys.readouterr().err


_GOOD_ROWS = "".join(
    f"r{i},{'ab'[i % 2]},{i % 3}.0,{1.0 + 0.25 * (i % 4)},{float(i % 3 == 0)},"
    f",{1.0 + 0.1 * i},1.0\n" for i in range(12))


@pytest.mark.parametrize("command", [
    ["fit", "--model", "linear"], ["audit"],
    ["ope", "--policy", "POLICY"],
])
@pytest.mark.parametrize("bad_row", [
    "r99,a,1.0,nan,1.0,,,1.0",
    "r99,a,1.0,1.5,nan,,,1.0",
    "r99,a,1.0,1.5,1.0,,,inf",
    "r99,a,1.0,abc,1.0,,,1.0",
])
def test_bad_record_cell_exits_2_naming_the_line(tmp_path, capsys, command,
                                                 bad_row):
    path = tmp_path / "bad.csv"
    path.write_text("id,group,x1,price,demand,outcome,valuation,weight\n"
                    + _GOOD_ROWS + bad_row + "\n")
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(fp.policy_to_dict(fp.ConstantPolicy(1.2))))
    argv = [command[0], "--records", str(path)]
    argv += [str(policy) if a == "POLICY" else a for a in command[1:]]
    code = main(argv + ["--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=invalid_value" in err
    assert "line 14" in err


def test_audit_empty_price_cell_exits_5(tmp_path, capsys):
    path = tmp_path / "noprice.csv"
    path.write_text("id,group,x1,price,demand,outcome,valuation,weight\n"
                    + _GOOD_ROWS + "r99,a,1.0,,1.0,,2.0,1.0\n")
    code = main(["audit", "--records", str(path),
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    assert code == 5
    assert "error_code=no_computable_metric" in capsys.readouterr().err


def test_audit_json_and_csv(tmp_path, sim_dir):
    out = tmp_path / "audit"
    code = main(["audit", "--records", str(sim_dir / "records.csv"),
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    blob = json.loads((out / "audit.json").read_text())
    assert blob["n_records"] == 800
    assert "marginal_price_disparity" in blob["metrics"]

    out_csv = tmp_path / "auditcsv"
    code = main(["audit", "--records", str(sim_dir / "records.csv"),
                 "--format", "csv", "--out-dir", str(out_csv), "--quiet"])
    assert code == 0
    first = (out_csv / "audit.csv").read_text().splitlines()[0]
    assert first == "metric,key,value"


def test_audit_metric_selection(tmp_path, sim_dir, capsys):
    out = tmp_path / "picked"
    code = main(["audit", "--records", str(sim_dir / "records.csv"),
                 "--metric", "marginal_price_disparity,access",
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    blob = json.loads((out / "audit.json").read_text())
    assert set(blob["metrics"]) == {"marginal_price_disparity", "access"}

    code = main(["audit", "--records", str(sim_dir / "records.csv"),
                 "--metric", "bogus", "--out-dir", str(tmp_path / "x"),
                 "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    assert "error_code=config_parse" in err


def test_audit_model_policy_mode(tmp_path, sim_dir):
    """Without logs, the audit scores a policy against the model directly."""
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps(fp.policy_to_dict(
        fp.GroupPolicy(prices={"a": 1.6, "b": 1.1}))))
    out = tmp_path / "modelaudit"
    code = main(["audit", "--model", str(sim_dir / "model_true.json"),
                 "--policy", str(policy_path),
                 "--population", str(sim_dir / "population.json"),
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    blob = json.loads((out / "audit.json").read_text())
    assert blob["n_records"] == 0
    assert set(blob["metrics"]) == {"access"}
    access = blob["metrics"]["access"]
    assert access["a"]["price_mean"] == pytest.approx(1.6)
    assert access["b"]["price_mean"] == pytest.approx(1.1)
    assert 0.0 < access["a"]["access"] < 1.0
    assert sum(g["weight"] for g in access.values()) == pytest.approx(1.0)


def test_audit_requires_one_input_mode(tmp_path, sim_dir, capsys):
    code = main(["audit", "--out-dir", str(tmp_path / "a"), "--quiet"])
    assert code == 2
    code = main(["audit", "--records", str(sim_dir / "records.csv"),
                 "--model", str(sim_dir / "model_true.json"),
                 "--out-dir", str(tmp_path / "b"), "--quiet"])
    assert code == 2
    assert "error_code=missing_field" in capsys.readouterr().err


def test_audit_without_valuations_skips_oracle(tmp_path, sim_dir):
    """Observational logs still get the concordance lower bound."""
    lines = (sim_dir / "records.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    vi = header.index("valuation")
    blanked = [header]
    for line in lines[1:]:
        cells = line.split(",")
        cells[vi] = ""
        blanked.append(cells)
    path = tmp_path / "noval.csv"
    path.write_text("\n".join(",".join(c) for c in blanked) + "\n")

    out = tmp_path / "audit"
    code = main(["audit", "--records", str(path),
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    metrics = json.loads((out / "audit.json").read_text())["metrics"]
    assert metrics["concordance_oracle"] == {"error": "missing_field"}
    assert 0.0 <= metrics["concordance_lower_bound"]["bound"] <= 1.0


def test_ope_eval_and_search(tmp_path, sim_dir):
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps(fp.policy_to_dict(fp.ConstantPolicy(1.2))))
    out = tmp_path / "ope"
    code = main(["ope", "--records", str(sim_dir / "records.csv"),
                 "--policy", str(policy_path), "--n-boot", "40",
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    blob = json.loads((out / "ope.json").read_text())
    assert blob["value"] > 0
    assert blob["std_error"] > 0
    assert 1.0 <= blob["ess"] <= blob["n_records"]
    assert 0.0 < blob["window_share"] <= 1.0
    assert 0.0 < blob["max_weight_share"] <= 1.0

    out2 = tmp_path / "search"
    code = main(["ope", "--records", str(sim_dir / "records.csv"),
                 "--search", "--n-starts", "4", "--n-boot", "40",
                 "--out-dir", str(out2), "--quiet"])
    assert code == 0
    blob2 = json.loads((out2 / "ope.json").read_text())
    assert blob2["policy"]["kind"] == "linear"
    assert blob2["value"] >= blob["value"] - 1e-9
    assert {"ess", "window_share", "max_weight_share"} <= set(blob2)


def test_ope_requires_exactly_one_of_policy_or_search(tmp_path, sim_dir,
                                                      capsys):
    code = main(["ope", "--records", str(sim_dir / "records.csv"),
                 "--out-dir", str(tmp_path / "x"), "--quiet"])
    assert code == 2
    assert "error_code=missing_field" in capsys.readouterr().err


def test_sweep_parity(tmp_path, sim_dir):
    fit_out = tmp_path / "fit"
    main(["fit", "--records", str(sim_dir / "records.csv"),
          "--model", "linear", "--out-dir", str(fit_out), "--quiet"])
    out = tmp_path / "sweep"
    code = main(["sweep", "--kind", "parity",
                 "--model", str(fit_out / "model.json"),
                 "--population", str(sim_dir / "population.json"),
                 "--grid", "0:0.4:5", "--mode", "attribute_based",
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "gamma,lambda_star,revenue,disparity"
    assert len(lines) == 6
    rows = [line.split(",") for line in lines[1:]]
    revenues = [float(r[2]) for r in rows]
    # a looser cap never costs revenue
    assert all(b >= a - 1e-9 for a, b in zip(revenues, revenues[1:]))


def test_sweep_share(tmp_path, sim_dir):
    out = tmp_path / "share"
    code = main(["sweep", "--kind", "share",
                 "--model", str(sim_dir / "model_true.json"),
                 "--population", str(sim_dir / "population.json"),
                 "--grid", "0,0.3,0.6", "--scope", "population",
                 "--out-dir", str(out), "--quiet"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "weight,group,price_mean,access,revenue"
    assert len(lines) == 1 + 3 * 2  # three weights x two groups


def test_single_point_sweep_matches_price(tmp_path, sim_dir):
    fit_out = tmp_path / "fit"
    main(["fit", "--records", str(sim_dir / "records.csv"),
          "--model", "linear", "--out-dir", str(fit_out), "--quiet"])
    sweep_out, price_out = tmp_path / "sweep", tmp_path / "price"
    args = ["--model", str(fit_out / "model.json"),
            "--population", str(sim_dir / "population.json"), "--quiet"]
    assert main(["sweep", "--kind", "parity", "--grid", "0.05",
                 "--mode", "attribute_based", "--out-dir", str(sweep_out)]
                + args) == 0
    assert main(["price", "--mode", "attribute_based", "--gamma", "0.05",
                 "--out-dir", str(price_out)] + args) == 0
    row = json.loads((sweep_out / "sweep.json").read_text())["rows"][0]
    prices = json.loads((price_out / "prices.json").read_text())
    assert row["lambda_star"] == pytest.approx(prices["lambda_star"])
    assert row["revenue"] == pytest.approx(prices["revenue"])
    assert row["disparity"] == pytest.approx(prices["achieved_disparity"])


def test_unknown_subcommand_exits_nonzero():
    assert main(["frobnicate"]) != 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit):
        # argparse handles --version itself when invoked via parse_args
        import fairprice.cli as cli
        cli.build_parser().parse_args(["--version"])
    assert capsys.readouterr().out.strip()
