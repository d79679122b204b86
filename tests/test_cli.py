"""End-to-end tests of the command-line interface (run in-process)."""

import csv
import io
import json
import os
import stat
import subprocess
import sys

import pytest
from scipy.special import expit

import fairprice as fp
from fairprice.cli import _csv_text, main
from fairprice.util import fmt_float

from tables import record_table


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
    assert manifest["version"] == fp.__version__
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


_LOGISTIC = ("demand = logistic\nbeta = -1.5\nintercept = 1.2\n"
             "gamma.x1 = 0.5\nunit_cost = 0.1\n")


@pytest.mark.parametrize("kind", ["support", "records", "logistic"])
def test_revenue_curve_is_the_expected_revenue_loop(tmp_path, kind):
    """Every point of the curve, bit for bit, is ``expected_revenue`` of the
    constant policy at that price."""
    text = SCENARIO
    if kind != "support":
        text = text.replace("n = 800", "n = 300").replace(
            "choice(0:0.5, 1:0.5)", "uniform(0.0, 2.0)")
    if kind == "logistic":
        latent = text[text.index("demand = latent"):text.index("price_levels")]
        text = text.replace(latent, _LOGISTIC)
    path = tmp_path / "scenario.txt"
    path.write_text(text)
    assert main(["simulate", "--scenario", str(path), "--seed", "5",
                 "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0
    model, population = fp.simulate(fp.ScenarioConfig.from_text(text), 5)
    assert (population.support is None) == (kind != "support")
    want = ["price,revenue,margin"]
    for k in range(200):
        p = 0.8 + k * (2.0 - 0.8) / 199.0
        revenue = fp.expected_revenue(fp.ConstantPolicy(p), model, population)
        margin = revenue - population.unit_cost * (revenue / p)
        want.append(",".join(map(repr, (p, revenue, margin))))
    got = (tmp_path / "o" / "revenue_curve.csv").read_text().splitlines()
    assert got == want


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
                 "--mode", "attribute_blind",
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


def test_price_refuses_support_points_a_policy_matches_as_one(tmp_path, capsys):
    import numpy as np

    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.0, np.array([0.5])), "b": (1.0, np.array([0.5]))})
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0], [5e-10]],
                        masses=[0.3, 0.3, 0.4],
                        membership=[[0.5, 0.5], [0.2, 0.8], [0.6, 0.4]])
    (tmp_path / "model.json").write_text(json.dumps(fp.model_to_dict(model)))
    (tmp_path / "population.json").write_text(
        json.dumps(fp.population_to_dict(pop)))
    out = tmp_path / "o"
    for mode in ("attribute_based", "attribute_blind"):
        code = main(["price", "--model", str(tmp_path / "model.json"),
                     "--population", str(tmp_path / "population.json"),
                     "--mode", mode, "--gamma", "0", "--out-dir", str(out),
                     "--quiet"])
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        assert "support points 0 [0.0] and 2 [5e-10]" in err
        assert "error_code=invalid_value" in err


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


@pytest.mark.parametrize("flags, message", [
    (["price", "--gamma", "0.1", "--scope", "group", "--group", "zz"],
     "--scope applies to share runs only"),
    (["price", "--share-lambda", "0.3", "--mode", "attribute_blind"],
     "--mode applies to parity runs only"),
    (["sweep", "--kind", "parity", "--grid", "0,0.1", "--scope", "group",
      "--group", "zz"], "--scope applies to share runs only"),
    (["price", "--share-lambda", "0.3", "--group", "a"],
     "--group applies to share runs with --scope group only"),
], ids=["parity_price_scope", "share_price_mode", "parity_sweep_scope",
        "group_without_group_scope"])
def test_pricing_flags_the_solver_ignores_exit_2(tmp_path, capsys, flags,
                                                  message):
    # the model file is missing: the flags are refused before any file is read
    out = tmp_path / "o"
    code = main(flags + ["--model", str(tmp_path / "missing.json"),
                         "--population", str(tmp_path / "missing.json"),
                         "--out-dir", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=config_parse" in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["price", "--share-lambda", "0.3", "--scope", "group"],
    ["sweep", "--kind", "share", "--scope", "group", "--grid", "0:1:3"],
], ids=["price", "sweep"])
def test_a_group_scope_without_a_group_exits_2(tmp_path, capsys, flags):
    # the model file is missing: the run is refused before any file is read
    out = tmp_path / "o"
    code = main(flags + ["--model", str(tmp_path / "missing.json"),
                         "--population", str(tmp_path / "missing.json"),
                         "--out-dir", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=missing_field" in err
    assert "group-scoped share penalty needs a group" in err
    assert not out.exists()


@pytest.mark.parametrize("labels", [["a", "b"], ["a,b", 'q"', "cr\r", "lf\n", "\u00e9"]],
                         ids=["plain", "quoted"])
def test_csv_text_formats_cells_as_the_csv_module(labels):
    header = ("x_index", "group", "price")
    rows = [(i, labels[i % len(labels)], None if i % 3 else i / 7.0)
            for i in range(12)]
    for cells in (rows, []):
        buf = io.StringIO()
        csv.writer(buf).writerows(
            [fmt_float(v) if isinstance(v, float) else v for v in row]
            for row in [header, *cells])
        assert _csv_text(header, cells) == buf.getvalue()


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
    "r99,a,1.0,1.5,1.0,,",
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


@pytest.mark.parametrize("command", [["audit"], ["fit", "--model", "linear"]])
def test_empty_group_cell_exits_2_naming_the_line(tmp_path, capsys, sim_dir,
                                                  command):
    lines = (sim_dir / "records.csv").read_text().splitlines(keepends=True)
    rid, _, rest = lines[5].split(",", 2)
    lines[5] = f"{rid},,{rest}"
    path = tmp_path / "blank.csv"
    path.write_text("".join(lines))
    code = main([command[0], "--records", str(path), *command[1:],
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=missing_field" in err
    assert "line 6: group missing" in err


@pytest.mark.parametrize("rows,line", [
    ('"r\n0",a,0.0,abc,1.0,,,1.0\nr1,b,1.0,1.0,0.0,,,1.0\n', 2),
    ('"r\n0",a,0.0,1.0,1.0,,,1.0\nr1,b,1.0,abc,0.0,,,1.0\n', 4),
    ('"r\n0",a,0.0,1.0,1.0,,,1.0\n\nr1,b,1.0,1.0,0.0,,,nan\n', 5),
])
def test_bad_cell_after_a_multi_line_field_names_its_first_line(
        tmp_path, capsys, rows, line):
    path = tmp_path / "quoted.csv"
    path.write_text("id,group,x1,price,demand,outcome,valuation,weight\n"
                    + rows)
    code = main(["audit", "--records", str(path),
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=invalid_value" in err
    assert f"line {line}:" in err


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
    lines = (out / "audit.csv").read_text().splitlines()
    assert lines[0] == "metric,key,value"
    assert {line.split(",")[0] for line in lines[1:]} == set(blob["metrics"])
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["outputs"] == ["audit.csv", "audit.json"]
    assert "format" not in manifest


_COMMANDS = ["simulate", "fit", "price", "audit", "ope", "sweep"]


def _successful_argv(command, tmp_path, sim_dir, scenario_path):
    """A run of ``command`` that exits 0, without --out-dir."""
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(fp.policy_to_dict(fp.ConstantPolicy(1.2))))
    records = ["--records", str(sim_dir / "records.csv")]
    market = ["--model", str(sim_dir / "model_true.json"),
              "--population", str(sim_dir / "population.json")]
    return {
        "simulate": ["simulate", "--scenario", scenario_path],
        "fit": ["fit", *records, "--model", "linear"],
        "price": ["price", *market, "--share-lambda", "0.3"],
        "audit": ["audit", *records],
        "ope": ["ope", *records, "--policy", str(policy), "--n-boot", "20"],
        "sweep": ["sweep", "--kind", "share", *market, "--grid", "0,0.3"],
    }[command]


@pytest.mark.parametrize("command", _COMMANDS)
def test_no_subcommand_takes_a_format_flag(tmp_path, sim_dir, scenario_path,
                                           capsys, command):
    # every subcommand writes one fixed set of files
    argv = _successful_argv(command, tmp_path, sim_dir, scenario_path)
    out = tmp_path / "o"
    assert main(argv + ["--out-dir", str(out), "--quiet"]) == 0
    out = tmp_path / "with_format"
    code = main(argv + ["--format", "json", "--out-dir", str(out), "--quiet"])
    assert code == 2
    assert "--format" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", _COMMANDS)
def test_only_the_commands_that_draw_numbers_take_a_seed(
        tmp_path, sim_dir, scenario_path, capsys, command):
    argv = _successful_argv(command, tmp_path, sim_dir, scenario_path)
    draws = command in ("simulate", "ope")
    out = tmp_path / "o"
    assert main(argv + ["--out-dir", str(out), "--quiet"]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert ("seed" in manifest) == draws
    out = tmp_path / "seeded"
    code = main(argv + ["--seed", "3", "--out-dir", str(out), "--quiet"])
    err = capsys.readouterr().err
    if draws:
        assert code == 0
        assert json.loads((out / "run_manifest.json").read_text())["seed"] == 3
    else:
        assert code == 2
        assert "unrecognized arguments: --seed 3" in err
        assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["fit", "--model", "logistic", "--allow-upward"],
     "--allow-upward applies to linear fits only"),
    (["ope", "--policy", "missing.json", "--n-starts", "3"],
     "--n-starts applies to --search only"),
], ids=["fit_logistic_allow_upward", "ope_policy_n_starts"])
def test_flags_the_run_ignores_exit_2(tmp_path, capsys, flags, message):
    # the records file is missing: the flags are refused before any file is
    # read
    out = tmp_path / "o"
    code = main(flags + ["--records", str(tmp_path / "missing.csv"),
                         "--out-dir", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=config_parse" in err
    assert message in err
    assert not out.exists()


def test_fit_linear_allow_upward_keeps_a_rising_slope(tmp_path, capsys):
    records = tmp_path / "rising.csv"
    _rising_takeup_log(records)
    argv = ["fit", "--records", str(records), "--model", "linear", "--quiet"]
    out = tmp_path / "refused"
    assert main(argv + ["--out-dir", str(out)]) == 3
    assert "error_code=upward_slope" in capsys.readouterr().err
    assert not out.exists()
    out = tmp_path / "kept"
    assert main(argv + ["--allow-upward", "--out-dir", str(out)]) == 0
    model = json.loads((out / "model.json").read_text())["model"]
    assert model["allow_upward"] is True
    assert min(model["beta"].values()) >= 0.0


@pytest.mark.parametrize("quiet", [False, True])
def test_a_run_prints_one_summary_line_unless_quiet(tmp_path, sim_dir, capsys,
                                                    quiet):
    argv = ["audit", "--records", str(sim_dir / "records.csv"),
            "--out-dir", str(tmp_path / "o")]
    assert main(argv + ["--quiet"] * quiet) == 0
    out = capsys.readouterr().out
    if quiet:
        assert out == ""
    else:
        assert out.startswith("audited 800 records: ")
        assert out.endswith("\n") and out.count("\n") == 1


@pytest.mark.parametrize("metric", ["", ",", " , "])
def test_audit_empty_metric_selection_is_a_usage_error(tmp_path, sim_dir,
                                                       capsys, metric):
    # exit 5 is kept for records from which no metric can be computed
    code = main(["audit", "--records", str(sim_dir / "records.csv"),
                 "--metric", metric, "--out-dir", str(tmp_path / "x"),
                 "--quiet"])
    assert code == 2
    assert "error_code=config_parse" in capsys.readouterr().err


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


@pytest.mark.parametrize("alpha", ["0", "-1", "nan", "1"])
def test_audit_rejects_alpha_outside_unit_interval(tmp_path, sim_dir, capsys,
                                                  alpha):
    out = tmp_path / "o"
    code = main(["audit", "--records", str(sim_dir / "records.csv"),
                 f"--alpha={alpha}", "--out-dir", str(out), "--quiet"])
    assert code == 2
    assert "error_code=missing_field" in capsys.readouterr().err
    assert not (out / "audit.json").exists()


@pytest.mark.parametrize("alpha", ["nan", "0", "0.05", "0.5"])
def test_model_audit_refuses_alpha(tmp_path, capsys, alpha):
    # model mode computes only access, which takes no test level; the flag is
    # refused before any of the (missing) input files is read
    missing = [str(tmp_path / name) for name in ("m.json", "p.json", "q.json")]
    out = tmp_path / "o"
    code = main(["audit", "--model", missing[0], "--policy", missing[1],
                 "--population", missing[2], f"--alpha={alpha}",
                 "--out-dir", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--alpha applies to records audits only" in err
    assert "error_code=config_parse" in err
    assert not out.exists()


def test_only_records_audits_record_alpha(tmp_path, sim_dir):
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps(fp.policy_to_dict(fp.ConstantPolicy(1.2))))
    model_argv = ["audit", "--model", str(sim_dir / "model_true.json"),
                  "--policy", str(policy_path),
                  "--population", str(sim_dir / "population.json")]
    records_argv = ["audit", "--records", str(sim_dir / "records.csv")]
    for name, argv, parameters in [
            ("model", model_argv, {"metrics": []}),
            ("records", records_argv, {"alpha": 0.05, "metrics": []}),
            ("records_alpha", records_argv + ["--alpha", "0.1"],
             {"alpha": 0.1, "metrics": []})]:
        out = tmp_path / name
        assert main(argv + ["--out-dir", str(out), "--quiet"]) == 0
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["parameters"] == parameters


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
    # the start count is a parameter of a search, as its output shows; a
    # policy evaluation runs no search and records none
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert "n_starts" not in manifest["parameters"]
    manifest = json.loads((out2 / "run_manifest.json").read_text())
    assert manifest["parameters"]["n_starts"] == 4


def test_ope_requires_exactly_one_of_policy_or_search(tmp_path, sim_dir,
                                                      capsys):
    code = main(["ope", "--records", str(sim_dir / "records.csv"),
                 "--out-dir", str(tmp_path / "x"), "--quiet"])
    assert code == 2
    assert "error_code=missing_field" in capsys.readouterr().err


@pytest.mark.parametrize("bandwidth", ["inf", "nan"])
def test_ope_rejects_non_finite_bandwidth(tmp_path, sim_dir, capsys,
                                          bandwidth):
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps(fp.policy_to_dict(fp.ConstantPolicy(1.2))))
    code = main(["ope", "--records", str(sim_dir / "records.csv"),
                 "--policy", str(policy_path), "--bandwidth", bandwidth,
                 "--out-dir", str(tmp_path / "x"), "--quiet"])
    assert code == 2
    assert "error_code=missing_field" in capsys.readouterr().err


@pytest.mark.parametrize("bandwidth", ["1e-308", "1e-300"])
def test_ope_rejects_a_bandwidth_whose_kernel_weights_overflow(
        tmp_path, sim_dir, capsys, bandwidth):
    # at 1e-308 the weights themselves overflow, at 1e-300 their squares:
    # either way the estimate or its diagnostics would be nan
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps(fp.policy_to_dict(fp.ConstantPolicy(1.2))))
    out = tmp_path / "x"
    code = main(["ope", "--records", str(sim_dir / "records.csv"),
                 "--policy", str(policy_path), "--bandwidth", bandwidth,
                 "--n-boot", "20", "--out-dir", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "error_code=missing_field" in err and "bandwidth" in err
    assert "Warning" not in err
    assert not (out / "ope.json").exists()


@pytest.mark.parametrize("flags", [
    ["--policy", "policy.json", "--bandwidth", "nan"],
    ["--search", "--n-starts", "0", "--bandwidth", "0"],
], ids=["invalid_policy_json", "search_without_starts"])
def test_ope_checks_the_bandwidth_before_the_policy_and_the_starts(
        tmp_path, sim_dir, capsys, monkeypatch, flags):
    # the bandwidth is checked once the records are read, so its error wins
    # over a policy file that is not JSON and over --n-starts 0
    (tmp_path / "policy.json").write_text("{not json")
    monkeypatch.chdir(tmp_path)
    code = main(["ope", "--records", str(sim_dir / "records.csv"), *flags,
                 "--out-dir", str(tmp_path / "x"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2, err
    assert "bandwidth must be positive and finite" in err
    assert "error_code=missing_field" in err


def test_simulate_without_membership_coefficients(tmp_path):
    """An intercept-only membership rule gives every support point the same
    membership row."""
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(SCENARIO.replace("membership.x1 = -1.6\n", ""))
    out = tmp_path / "sim"
    assert main(["simulate", "--scenario", str(scenario), "--seed", "3",
                 "--out-dir", str(out), "--quiet"]) == 0
    blob = json.loads((out / "population.json").read_text())
    q = float(expit(0.8))
    assert blob["membership"] == [[q, 1.0 - q]] * len(blob["support"])


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


# a nan grid point is refused as a grid value before it becomes a weight
@pytest.mark.parametrize("command, weight, error_code, message", [
    (["sweep", "--kind", "share", "--grid"], "inf", "missing_field",
     "share weight"),
    (["sweep", "--kind", "share", "--grid"], "nan", "config_parse",
     "grid spec 'nan'"),
    (["price", "--share-lambda"], "inf", "missing_field", "share weight"),
    (["price", "--share-lambda"], "nan", "missing_field", "share weight"),
], ids=["sweep-inf", "sweep-nan", "price-inf", "price-nan"])
def test_share_weight_must_be_finite(tmp_path, sim_dir, capsys, command,
                                     weight, error_code, message):
    out = tmp_path / "o"
    code = main(command + [weight,
                           "--model", str(sim_dir / "model_true.json"),
                           "--population", str(sim_dir / "population.json"),
                           "--out-dir", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error_code={error_code}" in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["sweep", "--kind", "share", "--grid"],
                                     ["price", "--share-lambda"]],
                         ids=["sweep", "price"])
def test_share_subsidy_for_unknown_group_exits_2(tmp_path, sim_dir, capsys,
                                                 command):
    out = tmp_path / "o"
    code = main(command + ["0.3", "--scope", "group", "--group", "zz",
                           "--model", str(sim_dir / "model_true.json"),
                           "--population", str(sim_dir / "population.json"),
                           "--out-dir", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error_code=unknown_group" in err
    assert "'zz'" in err


@pytest.mark.parametrize("command", [
    ["sweep", "--kind", "share", "--grid", "0.5", "--scope", "group",
     "--group", "b"],
    ["price", "--share-lambda", "0.5", "--scope", "group", "--group", "b"],
    # population scope: the realized disparity needs both groups' priors
    ["price", "--share-lambda", "0.5"],
], ids=["sweep", "price", "price_population_scope"])
def test_share_subsidy_for_a_group_of_zero_prior_exits_2(tmp_path, capsys,
                                                         command):
    model = fp.LatentValuationModel(loc={g: (2.0, [0.5]) for g in "ab"})
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0]],
                        masses=[0.5, 0.5], membership=[[1.0, 0.0], [1.0, 0.0]])
    model_path, pop_path = tmp_path / "model.json", tmp_path / "pop.json"
    model_path.write_text(json.dumps(fp.model_to_dict(model)))
    pop_path.write_text(json.dumps(fp.population_to_dict(pop)))
    out = tmp_path / "o"
    code = main(command + ["--model", str(model_path), "--population",
                           str(pop_path), "--out-dir", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error_code=precondition" in err
    assert "'b' needs a positive prior" in err


def _rising_takeup_log(path):
    """400 records whose binary take-up rises with price, in both groups."""
    import numpy as np

    rng = np.random.default_rng(4)
    price, x = rng.uniform(0.5, 2.5, 400), rng.normal(size=400)
    buy = rng.random(400) < expit(-1.0 + 1.2 * price + 0.3 * x)
    fp.write_records_csv(path, record_table(
        dict(id=f"r{i}", group="ab"[i % 2], covariates=[x[i]],
             price=price[i], demand=float(buy[i])) for i in range(400)))


_GOOD_POPULATION = fp.population_to_dict(fp.Population(
    groups=("a", "b"), support=[[0.0], [1.0]], masses=[0.5, 0.5],
    membership=[[0.6, 0.4], [0.3, 0.7]]))
_GOOD_MODEL = {"kind": "partially_linear", "beta": {"a": -1.0, "b": -0.8},
               "baseline": {g: {"intercept": 2.0, "coefs": [0.3]}
                            for g in "ab"}}
_PRICING = [["price", "--gamma", "0.1"], ["price", "--share-lambda", "0.3"],
            ["sweep", "--kind", "parity", "--grid", "0.1"],
            ["sweep", "--kind", "share", "--grid", "0.3"]]
# fault -> (model, population, fit commands, exit status, error code); a
# population-scope share sweep never needs a group's prior, so it does not
# meet a zero prior (test_share_subsidy_for_a_group_of_zero_prior_exits_2
# has the group-scope cases)
_FAULTS = {
    "upward_linear": (
        dict(_GOOD_MODEL, beta={"a": -1.0, "b": 0.5}, allow_upward=True),
        _GOOD_POPULATION, [["fit", "--model", "linear"]], 3, "upward_slope"),
    "upward_logistic": (
        {"kind": "logistic", "gamma": [0.5], "beta": 0.7, "intercept": 0.2},
        _GOOD_POPULATION, [["fit", "--model", "logistic"],
                           ["fit", "--model", "linear"]], 3, "upward_slope"),
    "no_support": (
        _GOOD_MODEL, {"groups": ["a", "b"], "rho": {"a": 0.5, "b": 0.5}},
        [], 2, "missing_support"),
    "zero_prior": (
        _GOOD_MODEL, dict(_GOOD_POPULATION, membership=[[1.0, 0.0]] * 2,
                          rho=None), [], 2, "precondition"),
}


@pytest.mark.parametrize("fault", list(_FAULTS))
def test_each_pricing_fault_ends_alike_in_every_command(tmp_path, capsys,
                                                         fault):
    model, population, fits, status, error_code = _FAULTS[fault]
    paths = {name: tmp_path / f"{name}.json" for name in ("model", "pop")}
    paths["model"].write_text(json.dumps(model))
    paths["pop"].write_text(json.dumps(population))
    _rising_takeup_log(tmp_path / "records.csv")
    commands = [c + ["--records", str(tmp_path / "records.csv")]
                for c in fits]
    commands += [c + ["--model", str(paths["model"]),
                      "--population", str(paths["pop"])]
                 for c in (_PRICING[:3] if fault == "zero_prior"
                           else _PRICING)]
    ends = set()
    for k, command in enumerate(commands):
        out = tmp_path / f"o{k}"
        code = main(command + ["--out-dir", str(out), "--quiet"])
        tokens = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error_code=")]
        ends.add((code, *tokens))
        assert not out.exists(), command
    assert ends == {(status, f"error_code={error_code}")}


# input files of _FAILING_RUNS, by name; rising.csv is _rising_takeup_log
_FAILING_INPUTS = {
    "costly.txt": SCENARIO + "unit_cost = 5.0\n",
    "empty.csv": "id,group,x1,price,demand,outcome,valuation,weight\n",
    "model.json": _GOOD_MODEL,
    "upward.json": _FAULTS["upward_linear"][0],
    "pop.json": _GOOD_POPULATION,
    "far.json": fp.policy_to_dict(fp.ConstantPolicy(100.0)),
    # a single support cell leaves blind prices no lever on the disparity
    "flat.json": {"kind": "partially_linear", "beta": {"a": -1.0, "b": -1.0},
                  "baseline": {"a": {"intercept": 2.0, "coefs": []},
                               "b": {"intercept": 1.0, "coefs": []}}},
    "one_cell.json": fp.population_to_dict(fp.Population(
        groups=("a", "b"), support=[[]], masses=[1.0],
        membership=[[0.3, 0.7]])),
}
# a failing run of every subcommand and exit status: (argv, status, code)
_FAILING_RUNS = {
    "simulate_cost_above_every_price": (
        ["simulate", "--scenario", "costly.txt"], 2, "degenerate_demand"),
    "fit_rising_takeup": (
        ["fit", "--records", "rising.csv", "--model", "linear"], 3,
        "upward_slope"),
    "price_rising_model": (
        ["price", "--gamma", "0.1", "--model", "upward.json",
         "--population", "pop.json"], 3, "upward_slope"),
    "price_blind_on_one_cell": (
        ["price", "--mode", "attribute_blind", "--gamma", "0",
         "--model", "flat.json", "--population", "one_cell.json"], 4,
        "unenforceable_constraint"),
    "audit_no_records": (
        ["audit", "--records", "empty.csv"], 5, "no_computable_metric"),
    "ope_policy_outside_the_log": (
        ["ope", "--records", "rising.csv", "--policy", "far.json"], 2,
        "empty_weights"),
    "sweep_two_part_grid": (
        ["sweep", "--grid", "1:2", "--model", "model.json",
         "--population", "pop.json"], 2, "config_parse"),
    "sweep_missing_model": (
        ["sweep", "--grid", "0.1", "--model", "missing.json",
         "--population", "pop.json"], 1, "io"),
}


@pytest.mark.parametrize("case", list(_FAILING_RUNS))
def test_a_failed_run_leaves_the_out_dir_as_it_found_it(tmp_path, capsys,
                                                        case):
    argv, status, error_code = _FAILING_RUNS[case]
    for name, content in _FAILING_INPUTS.items():
        (tmp_path / name).write_text(
            content if isinstance(content, str) else json.dumps(content))
    _rising_takeup_log(tmp_path / "rising.csv")
    argv = [str(tmp_path / a) if a.endswith((".txt", ".csv", ".json")) else a
            for a in argv]
    earlier = tmp_path / "earlier"
    assert main(["sweep", "--grid", "0.1,0.2", "--model",
                 str(tmp_path / "model.json"), "--population",
                 str(tmp_path / "pop.json"), "--out-dir", str(earlier),
                 "--quiet"]) == 0
    before = {p.name: p.read_bytes() for p in earlier.iterdir()}
    missing = tmp_path / "missing"
    for out in (earlier, missing):
        code = main(argv + ["--out-dir", str(out), "--quiet"])
        assert code == status
        assert f"error_code={error_code}" in capsys.readouterr().err
    # the same files, byte for byte, and no temp file left behind
    assert {p.name: p.read_bytes() for p in earlier.iterdir()} == before
    assert not missing.exists()


def test_a_defect_in_a_command_exits_1_as_an_internal_error(tmp_path, sim_dir,
                                                           capsys, monkeypatch):
    def defect(*args, **kwargs):
        raise ZeroDivisionError("float division by zero")
    monkeypatch.setattr("fairprice.cli.fit_partially_linear", defect)
    out = tmp_path / "o"
    code = main(["fit", "--records", str(sim_dir / "records.csv"),
                 "--model", "linear", "--out-dir", str(out), "--quiet"])
    assert code == 1 and not out.exists()
    assert capsys.readouterr().err == (
        "internal error: float division by zero\nerror_code=internal\n")


def test_a_run_whose_files_fail_to_write_reports_no_success(tmp_path,
                                                           capsys):
    _rising_takeup_log(tmp_path / "rising.csv")
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(fp.policy_to_dict(fp.ConstantPolicy(1.5))))
    out = tmp_path / "o"
    (out / "ope.json").mkdir(parents=True)  # ope.json cannot be replaced
    code = main(["ope", "--records", str(tmp_path / "rising.csv"),
                 "--policy", str(policy), "--n-boot", "20",
                 "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "error_code=io" in captured.err
    assert captured.out == ""
    assert [p.name for p in out.iterdir()] == ["ope.json"]


@pytest.mark.parametrize("name", ["revenue_curve.csv", "run_manifest.json"])
def test_a_directory_in_place_of_an_output_fails_before_any_write(
        tmp_path, capsys, scenario_path, name):
    out = tmp_path / "o"
    assert main(["simulate", "--scenario", scenario_path, "--seed", "1",
                 "--out-dir", str(out), "--quiet"]) == 0
    (out / name).unlink()
    (out / name).mkdir()
    before = {p.name: p.is_file() and p.read_bytes() for p in out.iterdir()}
    code = main(["simulate", "--scenario", scenario_path, "--seed", "3",
                 "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 1
    assert "error_code=io" in captured.err
    assert captured.out == ""
    assert {p.name: p.is_file() and p.read_bytes()
            for p in out.iterdir()} == before


def test_every_output_takes_the_mode_the_umask_gives(tmp_path, scenario_path):
    out = tmp_path / "o"
    umask = os.umask(0o022)
    try:
        assert main(["simulate", "--scenario", scenario_path,
                     "--out-dir", str(out), "--quiet"]) == 0
    finally:
        os.umask(umask)
    modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in out.iterdir()}
    assert modes == dict.fromkeys(
        ["records.csv", "population.json", "model_true.json",
         "experiment.csv", "experiment.json", "revenue_curve.csv",
         "run_manifest.json"], 0o644)


@pytest.mark.parametrize("flags", [["--gamma", "0.1"],
                                   ["--share-lambda", "0.3"]],
                         ids=["parity", "share"])
def test_a_rho_naming_a_third_group_exits_2(tmp_path, capsys, flags):
    paths = {name: tmp_path / f"{name}.json" for name in ("model", "pop")}
    paths["model"].write_text(json.dumps(_GOOD_MODEL))
    paths["pop"].write_text(json.dumps(dict(
        _GOOD_POPULATION, rho=dict(_GOOD_POPULATION["rho"], c=0.0))))
    out = tmp_path / "o"
    code = main(["price", *flags, "--model", str(paths["model"]),
                 "--population", str(paths["pop"]), "--out-dir", str(out),
                 "--quiet"])
    assert code == 2
    assert "error_code=unknown_group" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("beta", [0.0, 0.7])
@pytest.mark.parametrize("command", ["sweep", "audit"])
def test_logistic_model_file_with_a_rising_slope_exits_3(tmp_path, sim_dir,
                                                         capsys, beta,
                                                         command):
    model_path, policy_path = tmp_path / "model.json", tmp_path / "pol.json"
    model_path.write_text(json.dumps({"kind": "logistic", "gamma": [0.5],
                                      "beta": beta, "intercept": 0.2}))
    policy_path.write_text(json.dumps(fp.policy_to_dict(
        fp.ConstantPolicy(1.0))))
    extra = (["--kind", "share", "--grid", "0.3"] if command == "sweep"
             else ["--policy", str(policy_path)])
    code = main([command, "--model", str(model_path), "--population",
                 str(sim_dir / "population.json"), "--out-dir",
                 str(tmp_path / "o"), "--quiet"] + extra)
    assert code == 3
    assert "error_code=upward_slope" in capsys.readouterr().err


def test_share_price_with_a_logistic_model_of_other_width_exits_2(
        tmp_path, sim_dir, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(fp.model_to_dict(
        fp.LogisticDemand(gamma=[0.5, 0.2], beta=-1.5, intercept=1.0))))
    code = main(["price", "--share-lambda", "0.3", "--model", str(model_path),
                 "--population", str(sim_dir / "population.json"),
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error_code=dimension_mismatch" in err
    assert "model expects 2 covariates, got 1" in err


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
    assert main(["--version"]) == 0
    assert capsys.readouterr().out == f"fairprice {fp.__version__}\n"


def _env_with_src() -> dict:
    """The environment, with this checkout's ``src`` first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(fp.__file__))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def test_module_entry_prints_the_version():
    done = subprocess.run([sys.executable, "-m", "fairprice.cli", "--version"],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout == f"fairprice {fp.__version__}\n"


@pytest.mark.parametrize("old, new, line", [
    ("price_levels = 0.8, 1.2, 1.6, 2.0", "price_levels = 0.8, 1.2, nan", 14),
    ("covariate.x1 = choice(0:0.5, 1:0.5)",
     "covariate.x1 = choice(0:-0.5, 1:1.5)", 4),
    ("covariate.x1 = choice(0:0.5, 1:0.5)",
     "covariate.x1 = choice(0:nan, 1:nan)", 4),
    ("noise = logistic", "noise = bogus", 8),
    ("scale = 0.4", "scale = 0", 9),
    ("demand = latent\nnoise = logistic", "demand = logistic\nbeta = 0.5", 8),
    ("n = 800", "n = 0", 2),
    ("n = 800", "n = x", 2),
    ("n = 800", "n = 800\n= 3", 3),
    ("groups = a, b", "groups = a, a", 3),
    ("demand = latent", "demand = probit", 7),
    ("price_levels = 0.8, 1.2, 1.6, 2.0", "price_levels = -0.8, 1.2", 14),
    ("scale = 0.4", "scale = abc", 9),
    ("demand = latent\nnoise = logistic",
     "demand = logistic\nbeta = -1.5\noutcome.surplus_weight = 0.5", 9),
    ("choice(0:0.5, 1:0.5)", "normal(0, 0)", 4),
    ("choice(0:0.5, 1:0.5)", "uniform(1, 1)", 4),
    ("choice(0:0.5, 1:0.5)", "choice(0:0.5, 1:0.4)", 4),
    ("choice(0:0.5, 1:0.5)", "choice(0:0.5, 0:0.5)", 4),
    ("choice(0:0.5, 1:0.5)", "choice", 4),
], ids=["nan_price_level", "negative_choice_prob", "nan_choice_probs",
        "unknown_noise", "zero_scale", "nonnegative_logistic_beta",
        "zero_n", "non_integer_n", "empty_key", "repeated_group",
        "unknown_demand", "negative_price_level", "non_numeric_scale",
        "surplus_weight_under_logistic", "zero_normal_scale",
        "empty_uniform_range", "choice_probs_short_of_one",
        "repeated_choice_value", "bare_choice"])
def test_simulate_rejects_bad_numbers_naming_the_line(tmp_path, capsys, old,
                                                      new, line):
    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO.replace(old, new))
    code = main(["simulate", "--scenario", str(path), "--seed", "1",
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=config_parse" in err
    assert f"line {line}" in err


def test_simulate_without_n_exits_2(tmp_path, capsys):
    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO.replace("n = 800\n", ""))
    code = main(["simulate", "--scenario", str(path), "--seed", "1",
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=config_parse" in err
    assert "missing required key 'n'" in err


@pytest.mark.parametrize("grid", ["1:2", "a:b:3", "2:1:3", "x,y", "0:inf:3",
                                  "-inf:0:3", "-1e308:1e308:3", "0.1,nan"])
def test_sweep_rejects_a_bad_grid(tmp_path, sim_dir, capsys, grid):
    out = tmp_path / "o"
    code = main(["sweep", "--kind", "share", f"--grid={grid}",
                 "--model", str(sim_dir / "model_true.json"),
                 "--population", str(sim_dir / "population.json"),
                 "--out-dir", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=config_parse" in err
    assert f"grid spec {grid!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("key", ["membership.zz", "loc.a.zz", "gamma.zz"])
def test_simulate_rejects_unknown_covariate_coefficient(tmp_path, capsys, key):
    text = SCENARIO
    if key.startswith("gamma."):
        latent = text[text.index("demand = latent"):text.index("price_levels")]
        text = text.replace(latent, "demand = logistic\nbeta = -1.5\n"
                                    "gamma.x1 = 0.5\n")
    text += f"{key} = 1.0\n"
    path = tmp_path / "scenario.txt"
    path.write_text(text)
    code = main(["simulate", "--scenario", str(path), "--seed", "1",
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=config_parse" in err
    assert f"line {text.count(chr(10))}: {key}: unknown covariate" in err


@pytest.mark.parametrize("key", ["noise = gumbel", "scale = -3"])
def test_simulate_rejects_latent_keys_under_logistic_demand(tmp_path, capsys,
                                                            key):
    latent = SCENARIO[SCENARIO.index("demand = latent"):
                      SCENARIO.index("price_levels")]
    text = SCENARIO.replace(latent, f"demand = logistic\nbeta = -1.5\n{key}\n")
    path = tmp_path / "scenario.txt"
    path.write_text(text)
    code = main(["simulate", "--scenario", str(path), "--seed", "1",
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=config_parse" in err
    line = text.splitlines().index(key) + 1
    assert f"line {line}: unknown key {key.split()[0]!r}" in err


@pytest.mark.parametrize("command", ["simulate", "ope"])
def test_negative_seed_exits_2(tmp_path, capsys, scenario_path, sim_dir,
                               command):
    source = (["--scenario", scenario_path] if command == "simulate"
              else ["--records", str(sim_dir / "records.csv"), "--search"])
    code = main([command, *source, "--seed", "-1",
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=missing_field" in err
    assert "--seed" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n_boot", ["0", "1", "-5"])
@pytest.mark.parametrize("mode", ["policy", "search"])
def test_ope_rejects_too_few_bootstrap_resamples(tmp_path, sim_dir, capsys,
                                                 monkeypatch, n_boot, mode):
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran before --n-boot was checked")
    monkeypatch.setattr("fairprice.cli.optimize_linear_policy", refuse)
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(json.dumps(fp.policy_to_dict(fp.ConstantPolicy(1.2))))
    target = (["--policy", str(policy_path)] if mode == "policy"
              else ["--search"])
    code = main(["ope", "--records", str(sim_dir / "records.csv"), *target,
                 "--n-boot", n_boot, "--out-dir", str(tmp_path / "x"),
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=missing_field" in err
    assert "n_boot must be at least 2" in err


@pytest.mark.parametrize("n_starts", ["0", "-3"])
def test_ope_search_rejects_no_starts(tmp_path, sim_dir, capsys, n_starts):
    code = main(["ope", "--records", str(sim_dir / "records.csv"), "--search",
                 "--n-starts", n_starts, "--n-boot", "20",
                 "--out-dir", str(tmp_path / "x"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=missing_field" in err
    assert "n_starts must be at least 1" in err


@pytest.mark.parametrize("field", ["masses", "membership", "rho"])
def test_sweep_rejects_nan_population_fields(tmp_path, capsys, sim_dir,
                                             field):
    population = json.loads((sim_dir / "population.json").read_text())
    if field == "membership":
        population["membership"][0] = [float("nan"), float("nan")]
    elif field == "rho":
        population["rho"]["a"] = float("nan")
    else:
        population[field][0] = float("nan")
    path = tmp_path / "population.json"
    path.write_text(json.dumps(population))
    code = main(["sweep", "--kind", "share",
                 "--model", str(sim_dir / "model_true.json"),
                 "--population", str(path), "--grid", "0,0.3",
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=invalid_value" in err
    assert f"population.{field}" in err


@pytest.mark.parametrize("command", [["audit"], ["fit", "--model", "linear"]])
def test_empty_records_file_exits_2(tmp_path, capsys, command):
    path = tmp_path / "records.csv"
    path.write_text("")
    code = main([command[0], "--records", str(path), *command[1:],
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=invalid_value" in err
    assert "empty records file" in err


@pytest.mark.parametrize("command", [["audit"], ["fit", "--model", "linear"]])
def test_records_file_that_is_not_utf8_exits_2(tmp_path, capsys, command):
    path = tmp_path / "records.csv"
    path.write_bytes(b"id,group,x1,price,demand,outcome,valuation,weight\n"
                     + _GOOD_ROWS.encode() + b"r99,\xff,1.0,1.5,1.0,,,1.0\n")
    out = tmp_path / "o"
    code = main([command[0], "--records", str(path), *command[1:],
                 "--out-dir", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=invalid_value" in err
    assert "line 14: records are not UTF-8 text" in err
    assert not out.exists()


@pytest.mark.parametrize("quote", ["", '"'], ids=["plain", "quoted"])
@pytest.mark.parametrize("cell", ["1_0", "\u0661", "\uff11"],
                         ids=["underscore", "arabic_indic", "fullwidth"])
def test_a_number_outside_the_records_grammar_exits_2(tmp_path, capsys, cell,
                                                      quote):
    # float() reads all three; records.csv numbers are the ones loadtxt reads
    path = tmp_path / "records.csv"
    path.write_text("id,group,x1,price,demand,outcome,valuation,weight\n"
                    + _GOOD_ROWS + f"r99,a,1.0,{quote}{cell}{quote},1.0,,,\n",
                    encoding="utf-8")
    out = tmp_path / "o"
    code = main(["audit", "--records", str(path), "--out-dir", str(out),
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=invalid_value" in err
    assert f"line 14: price cell {cell!r} is not a number" in err
    assert not out.exists()


@pytest.mark.parametrize("rid", ["r", '"r"'], ids=["plain", "quoted"])
def test_records_field_over_the_csv_limit_exits_2(tmp_path, capsys, rid):
    path = tmp_path / "records.csv"
    long_id = rid.replace("r", "r" * (csv.field_size_limit() + 1))
    path.write_text("id,group,x1,price,demand,outcome,valuation,weight\n"
                    + _GOOD_ROWS + f"{long_id},a,1.0,1.5,1.0,,,1.0\n")
    code = main(["audit", "--records", str(path),
                 "--out-dir", str(tmp_path / "o"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=invalid_value" in err
    assert "line 14: field larger than field limit" in err


def test_price_rejects_bad_gamma_before_reading_files(tmp_path, sim_dir,
                                                      capsys):
    out = tmp_path / "o"
    code = main(["price", "--model", str(tmp_path / "missing.json"),
                 "--population", str(sim_dir / "population.json"),
                 "--gamma", "abc", "--out-dir", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error_code=config_parse" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_model_file_that_is_not_json_exits_2(tmp_path, sim_dir, capsys):
    path = tmp_path / "model.json"
    path.write_text("not json")
    out = tmp_path / "o"
    code = main(["price", "--model", str(path), "--share-lambda", "0.3",
                 "--population", str(sim_dir / "population.json"),
                 "--out-dir", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=invalid_value" in err
    assert "is not valid JSON" in err
    assert not out.exists()


@pytest.mark.parametrize("fault, message", [
    ("repeated_group", "duplicate group labels"),
    ("negative_membership", "membership probabilities must be >= 0"),
    ("rho_over_one", "group priors must sum to 1"),
])
def test_inconsistent_population_file_exits_2(tmp_path, sim_dir, capsys,
                                              fault, message):
    population = json.loads((sim_dir / "population.json").read_text())
    if fault == "repeated_group":
        population["groups"] = ["a", "a"]
    elif fault == "negative_membership":
        population["membership"][0] = [-0.1, 1.1]
    else:
        population = {"groups": ["a", "b"], "rho": {"a": 0.6, "b": 0.5}}
    path = tmp_path / "population.json"
    path.write_text(json.dumps(population))
    out = tmp_path / "o"
    code = main(["price", "--model", str(sim_dir / "model_true.json"),
                 "--population", str(path), "--share-lambda", "0.3",
                 "--out-dir", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=invalid_value" in err
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    ([], "need --model, --policy and --population"),
    (["--population", "POPULATION", "--metric", "conditional_parity_gap"],
     "compute the access metric only"),
], ids=["no_population", "records_metric"])
def test_incomplete_model_audit_exits_2(tmp_path, sim_dir, capsys, flags,
                                        message):
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(fp.policy_to_dict(fp.ConstantPolicy(1.2))))
    flags = [str(sim_dir / "population.json") if f == "POPULATION" else f
             for f in flags]
    out = tmp_path / "o"
    code = main(["audit", "--model", str(sim_dir / "model_true.json"),
                 "--policy", str(policy), *flags, "--out-dir", str(out),
                 "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert "error_code=missing_field" in err
    assert message in err
    assert not out.exists()


def test_scipy_special_loads_on_first_use(tmp_path, sim_dir):
    """``import fairprice.cli`` and an audit never import scipy.special, nor
    the installer metadata (``importlib.metadata``, which loads ``email``)."""
    script = (
        "import sys\n"
        "import fairprice.cli\n"
        "lazy = ('scipy.special', 'importlib.metadata', 'email')\n"
        "assert not set(lazy) & set(sys.modules), 'import'\n"
        "code = fairprice.cli.main(['audit', '--records', sys.argv[1],\n"
        "                           '--out-dir', sys.argv[2], '--quiet'])\n"
        "assert code == 0, code\n"
        "assert not set(lazy) & set(sys.modules), 'audit'\n")
    done = subprocess.run(
        [sys.executable, "-c", script, str(sim_dir / "records.csv"),
         str(tmp_path / "audit")], env=_env_with_src(), capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert (tmp_path / "audit" / "audit.json").exists()


def _mutations(doc):
    """``(name, copy)`` of every single-field change of a JSON document:
    each object member and list item at any depth dropped, replaced by its
    JSON text, or set to null. Changes that leave ``doc`` equal are skipped."""
    def fields(node, path):
        items = (node.items() if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, value in items:
            yield path + (key,), value
            yield from fields(value, path + (key,))

    for path, value in fields(doc, ()):
        for change in ("drop", "stringify", "null"):
            new = json.loads(json.dumps(doc))
            parent = new
            for key in path[:-1]:
                parent = parent[key]
            if change == "drop":
                del parent[path[-1]]
            else:
                parent[path[-1]] = json.dumps(value) if change == "stringify" else None
            if new != doc:
                yield f"{change} {'.'.join(map(str, path))}", new


def test_every_policy_file_mutation_exits_2(tmp_path, capsys, sim_dir):
    """One field of a valid policy file dropped, stringified or nulled is an
    input error (exit 2) naming its kind, never an internal error."""
    records = str(sim_dir / "records.csv")
    policies = [
        {"kind": "constant", "value": 1.2},
        {"kind": "tabular", "support": [[0.0], [1.0]],
         "prices": [{"x_index": 0, "group": None, "price": 1.1},
                    {"x_index": 1, "group": None, "price": 1.4}]},
        {"kind": "linear", "intercept": 1.0, "theta": [0.3],
         "clip_lo": 0.8, "clip_hi": 2.0},
    ]
    path = tmp_path / "policy.json"
    runs = 0
    for policy in policies:
        for name, doc in [("valid", policy), *_mutations(policy)]:
            path.write_text(json.dumps(doc))
            code = main(["ope", "--records", records, "--policy", str(path),
                         "--n-boot", "2", "--out-dir", str(tmp_path / "o"),
                         "--quiet"])
            err = capsys.readouterr().err
            assert code == (0 if name == "valid" else 2), (name, err)
            assert "error_code=internal" not in err, (name, err)
            runs += 1
    assert runs > 60


def _price_outputs(tmp_path, capsys, model, population, flags):
    """``(exit status, stderr, output bytes)`` of ``price`` on the ``model``
    and ``population`` files; the bytes of prices.json and prices.csv on
    success, none otherwise."""
    out = tmp_path / "o"
    for name in ("prices.json", "prices.csv"):
        if (out / name).exists():
            (out / name).unlink()
    code = main(["price", "--model", str(model), "--population",
                 str(population), *flags, "--out-dir", str(out), "--quiet"])
    outputs = [(out / name).read_bytes() for name
               in ("prices.json", "prices.csv") if code == 0]
    return code, capsys.readouterr().err, outputs


def test_every_population_file_mutation_exits_2_or_changes_nothing(
        tmp_path, capsys, sim_dir):
    """One field of a valid population file dropped, stringified or nulled
    is an input error (exit 2), or leaves the prices unchanged (a dropped
    ``unit_cost`` or ``rho`` is its default); never an internal error."""
    population = json.loads((sim_dir / "population.json").read_text())
    path = tmp_path / "population.json"

    def run(doc):
        path.write_text(json.dumps(doc))
        return _price_outputs(tmp_path, capsys, sim_dir / "model_true.json",
                              path, ["--share-lambda", "0.3"])

    code, _, valid = run(population)
    assert code == 0
    runs = 0
    for name, doc in _mutations(population):
        code, err, outputs = run(doc)
        assert code in (0, 2), (name, err)
        assert "error_code=internal" not in err, (name, err)
        if code == 0:
            assert outputs == valid, name
        runs += 1
    assert runs > 50


def test_every_model_file_mutation_exits_2_or_changes_nothing(
        tmp_path, capsys, sim_dir):
    """One field of a valid model file dropped, stringified or nulled is an
    input error (exit 2), or leaves the prices unchanged (a dropped
    ``baseline_form`` or ``allow_upward`` at its default, or a change to
    fit's diagnostics); never an internal error. Latent and logistic models
    price with a share subsidy, partially linear ones (linear and table
    baselines) under a parity cap; the fitted ones keep fit's wrapper."""
    records = str(sim_dir / "records.csv")
    for kind in ("logistic", "linear"):
        assert main(["fit", "--records", records, "--model", kind,
                     "--out-dir", str(tmp_path / kind), "--quiet"]) == 0
    table = {"kind": "partially_linear", "baseline_form": "table",
             "beta": {"a": -1.0, "b": -1.2}, "allow_upward": False,
             "baseline": {g: [{"x": [0.0], "value": v0},
                              {"x": [1.0], "value": v1}]
                          for g, v0, v1 in [("a", 2.2, 2.6), ("b", 1.5, 1.8)]}}
    share, parity = ["--share-lambda", "0.3"], ["--gamma", "0.2"]
    cases = [(json.loads((sim_dir / "model_true.json").read_text()), share),
             (json.loads((tmp_path / "logistic" / "model.json").read_text()),
              share),
             (json.loads((tmp_path / "linear" / "model.json").read_text()),
              parity),
             (table, parity)]
    path = tmp_path / "model.json"

    def run(doc, flags):
        path.write_text(json.dumps(doc))
        return _price_outputs(tmp_path, capsys, path,
                              sim_dir / "population.json", flags)

    runs = 0
    for case, (model, flags) in enumerate(cases):
        code, err, valid = run(model, flags)
        assert code == 0, err
        for name, doc in _mutations(model):
            code, err, outputs = run(doc, flags)
            assert code in (0, 2), (case, name, err)
            assert "error_code=internal" not in err, (case, name, err)
            if code == 0:
                assert outputs == valid, (case, name)
            runs += 1
    assert runs > 100


def test_ope_bootstrap_skips_a_resample_with_one_logged_price(tmp_path,
                                                             capsys):
    # a third of the resamples draw only price-1 records, though the log's
    # prices vary
    records = tmp_path / "records.csv"
    fp.write_records_csv(records, record_table(
        dict(id=f"r{i}", group="a", covariates=[0.0], price=p, demand=d)
        for i, (p, d) in enumerate(zip([1, 1, 1, 1, 1, 2],
                                       [1, 0, 1, 1, 0, 1]))))
    policy = tmp_path / "policy.json"
    policy.write_text(json.dumps(fp.policy_to_dict(fp.ConstantPolicy(1.2))))
    code = main(["ope", "--records", str(records), "--policy", str(policy),
                 "--bandwidth", "0.5", "--out-dir", str(tmp_path / "o"),
                 "--quiet"])
    assert code == 0, capsys.readouterr().err
    blob = json.loads((tmp_path / "o" / "ope.json").read_text())
    assert blob["value"] == pytest.approx(0.72)
    assert blob["std_error"] > 0.0
    # 64 of the 200 resamples log one price, and ope.json counts them
    assert blob["skipped_resamples"] == {"empty_window": 0, "tied_prices": 64}
