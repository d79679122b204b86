"""Command-line entry points.

Subcommands: ``simulate`` (scenario -> synthetic records), ``fit`` (records ->
demand model), ``price`` (model + population -> parity-constrained prices),
``audit`` (records -> fairness metrics), ``ope`` (records -> off-policy value
or policy search), and ``sweep`` (constraint or subsidy frontiers).

Every run writes its outputs plus a ``run_manifest.json`` into ``--out-dir``.
All randomness flows from ``--seed``, so reruns with identical inputs produce
identical output bytes (the manifest's duration field aside). Failures print
``error_code=<token>`` on stderr and exit with a documented status:

    0  success
    1  missing or unreadable input file, or an unexpected internal error
    2  usage, configuration, data, or estimation problem
    3  demand slopes upward (downward-sloping demand assumption violated)
    4  parity constraint unenforceable by the requested policy class
    5  no audit metric computable from the given records

Codes 3-5 are reserved for those specific failure modes so scripts can
branch on them; the ``error_code=`` token disambiguates everything that
lands on 1 or 2.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import time
from csv import writer as csv_writer
from importlib.metadata import PackageNotFoundError, version as pkg_version

from .audit import AUDIT_METRIC_NAMES, AuditReport, access_metrics, run_audit
from .demand import (
    fit_logistic,
    fit_partially_linear,
    model_from_dict,
    model_to_dict,
    population_from_dict,
    population_to_dict,
)
from .optimize import PriceInterval
from .errors import (
    ConfigError,
    FairPriceError,
    InvalidRecordError,
    MissingFieldError,
    NoComputableMetricError,
    UnenforceableConstraintError,
    UpwardSlopeError,
)
from .parity import (
    ATTRIBUTE_BASED,
    ATTRIBUTE_BLIND,
    expected_revenue,
    policy_disparity,
    solve_attribute_based_parity,
    solve_attribute_blind_parity,
)
from .policies import ConstantPolicy, TabularPolicy, policy_from_dict, policy_to_dict, table_rows
from .share import GROUP_SCOPE, POPULATION_SCOPE, SharePenalty, share_frontier, solve_share_price
from .sim import (
    OPEConfig,
    ScenarioConfig,
    ope_bootstrap_se,
    ope_value,
    ope_weight_diagnostics,
    optimize_linear_policy,
    read_records_csv,
    run_pricing_experiment,
    simulate,
    write_records_csv,
)
from .util import atomic_write_text, fmt_float, json_dumps_stable

try:
    VERSION = pkg_version("fairprice")
except PackageNotFoundError:  # running from a source tree without install
    VERSION = "0.0.0"

_EXIT_IO = 1
_EXIT_USAGE = 2
_EXIT_UPWARD_SLOPE = 3
_EXIT_UNENFORCEABLE = 4
_EXIT_NO_METRIC = 5

_ERROR_EXIT_CODES = (
    (UpwardSlopeError, _EXIT_UPWARD_SLOPE),
    (UnenforceableConstraintError, _EXIT_UNENFORCEABLE),
    (NoComputableMetricError, _EXIT_NO_METRIC),
)


def _exit_code_for(exc: FairPriceError) -> int:
    for cls, code in _ERROR_EXIT_CODES:
        if isinstance(exc, cls):
            return code
    # everything else (config, data, estimation, precondition failures)
    # shares the usage code; error_code= on stderr disambiguates
    return _EXIT_USAGE


def _load_json(path, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidRecordError(f"{what} file {path} is not valid JSON: "
                                 f"{exc}") from None


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv_writer(buf)
    w.writerow(header)
    for row in rows:
        w.writerow([fmt_float(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _parse_grid(text: str):
    """Grid spec: either comma-separated values or ``lo:hi:n``."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid spec {text!r}: expected lo:hi:n")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise ConfigError(f"grid spec {text!r}: lo:hi:n must be numbers"
                              ) from None
        if n < 2 or not lo < hi:
            raise ConfigError(f"grid spec {text!r}: needs lo < hi and n >= 2")
        step = (hi - lo) / (n - 1)
        return [lo + k * step for k in range(n)]
    try:
        return [float(t) for t in text.split(",")]
    except ValueError:
        raise ConfigError(f"grid spec {text!r}: expected numbers") from None


def _parse_gamma(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"gamma must be a number or 'inf', got {text!r}"
                          ) from None
    return value


class _Run:
    """Collects output files and the manifest for one CLI invocation."""

    def __init__(self, args):
        self.args = args
        self.out_dir = args.out_dir
        os.makedirs(self.out_dir, exist_ok=True)
        self.outputs = []
        self.started = time.perf_counter()

    def write(self, name: str, text: str):
        atomic_write_text(os.path.join(self.out_dir, name), text)
        self.outputs.append(name)

    def say(self, message: str):
        if not self.args.quiet:
            print(message)

    def finish(self, command: str, inputs: list, parameters: dict) -> int:
        manifest = {
            "command": command,
            "version": VERSION,
            "seed": self.args.seed,
            "format": self.args.format,
            "inputs": sorted(str(p) for p in inputs),
            "parameters": parameters,
            "outputs": sorted(self.outputs),
            "duration_s": time.perf_counter() - self.started,
        }
        atomic_write_text(os.path.join(self.out_dir, "run_manifest.json"),
                          json_dumps_stable(manifest))
        return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    run = _Run(args)
    config = ScenarioConfig.from_file(args.scenario)
    model, population = simulate(config, args.seed)
    records_path = os.path.join(run.out_dir, "records.csv")
    write_records_csv(records_path, population.records)
    run.outputs.append("records.csv")
    run.write("population.json", json_dumps_stable(population_to_dict(population)))
    run.write("model_true.json", json_dumps_stable(model_to_dict(model)))
    _write_experiment_bundle(run, model, population, config)
    takeup = float(population.records.demand.mean())
    run.say(f"simulated {len(population.records)} records "
            f"({', '.join(population.groups)}); mean take-up {takeup:.3f}")
    return run.finish("simulate", [args.scenario],
                      {"scenario": str(args.scenario)})


def _write_experiment_bundle(run, model, population, config) -> None:
    """Price the simulated market three ways and emit plot-ready tables.

    ``experiment.csv`` holds long-format (scheme, metric, group, value) rows,
    ``experiment.json`` adds the policies and 25-bin price histograms, and
    ``revenue_curve.csv`` traces aggregate revenue and margin over 200
    uniform prices spanning the scenario's level grid.
    """
    interval = PriceInterval(min(config.price_levels),
                             max(config.price_levels))
    experiment = run_pricing_experiment(model, population, interval)

    rows, payload = [], {}
    for scheme in ("uniform", "group", "personalized"):
        info = experiment[scheme]
        rows.append((scheme, "revenue", "", info["revenue"]))
        rows.append((scheme, "margin", "", info["margin"]))
        for g in sorted(info["access"]):
            rows.append((scheme, "access", g, info["access"][g]))
        for g in sorted(info["price_mean"]):
            rows.append((scheme, "price_mean", g, info["price_mean"][g]))
        payload[scheme] = {
            "policy": policy_to_dict(info["policy"]),
            "revenue": info["revenue"],
            "margin": info["margin"],
            "access": info["access"],
            "price_mean": info["price_mean"],
            "histogram": info["histogram"],
        }
    run.write("experiment.csv",
              _csv_text(("scheme", "metric", "group", "value"), rows))
    run.write("experiment.json", json_dumps_stable(payload))

    cost = population.unit_cost
    curve_rows = []
    for k in range(200):
        p = interval.lo + k * (interval.hi - interval.lo) / 199.0
        revenue = expected_revenue(ConstantPolicy(p), model, population)
        margin = revenue - cost * (revenue / p if p > 0.0 else 0.0)
        curve_rows.append((p, revenue, margin))
    run.write("revenue_curve.csv",
              _csv_text(("price", "revenue", "margin"), curve_rows))


def _cmd_fit(args) -> int:
    run = _Run(args)
    records = read_records_csv(args.records)
    if args.model == "logistic":
        model, diag = fit_logistic(records)
    else:
        model, diag = fit_partially_linear(records,
                                           allow_upward=args.allow_upward)
    diagnostics = {
        "n_records": diag.n_records,
        "iterations": diag.iterations,
        "gradient_norm": diag.gradient_norm,
    }
    if diag.log_likelihood is not None:
        diagnostics["log_likelihood"] = diag.log_likelihood
    if diag.std_errors is not None:
        diagnostics["std_errors"] = [float(v) for v in diag.std_errors]
    if diag.residual_sum_squares is not None:
        diagnostics["residual_sum_squares"] = diag.residual_sum_squares
    run.write("model.json", json_dumps_stable(
        {"model": model_to_dict(model), "diagnostics": diagnostics}))
    run.say(f"fitted {args.model} demand on {diag.n_records} records")
    return run.finish("fit", [args.records],
                      {"model": args.model, "allow_upward": args.allow_upward})


def _load_model_file(path):
    data = _load_json(path, "model")
    if "model" in data and isinstance(data["model"], dict):
        data = data["model"]
    return model_from_dict(data)


def _cmd_price(args) -> int:
    run = _Run(args)
    if args.share_lambda is not None and args.gamma is not None:
        raise ConfigError("pass --gamma or --share-lambda, not both")
    model = _load_model_file(args.model)
    population = population_from_dict(_load_json(args.population, "population"))

    if args.share_lambda is not None:
        policy, payload, parameters = _share_solution(model, population, args)
        note = (f"share prices under lambda={fmt_float(args.share_lambda)} "
                f"({args.scope} scope)")
    else:
        gamma = _parse_gamma(args.gamma if args.gamma is not None else "inf")
        solver = (solve_attribute_based_parity if args.mode == ATTRIBUTE_BASED
                  else solve_attribute_blind_parity)
        solution = solver(model, population, gamma)
        policy = solution.policy()
        payload = solution.to_dict()
        parameters = {"mode": args.mode, "gamma": gamma}
        note = (f"{args.mode} prices under gamma={fmt_float(gamma)}: "
                f"multiplier {solution.lambda_star:.6g}")

    payload["revenue"] = expected_revenue(policy, model, population)
    payload["access"] = {
        g: info["access"]
        for g, info in access_metrics(policy=policy, model=model,
                                      population=population).items()}
    if "prices" not in payload:
        payload["prices"] = table_rows(policy.table)
    rows = [(row["x_index"], "" if row["group"] is None else row["group"],
             row["price"]) for row in payload["prices"]]
    run.write("prices.csv", _csv_text(("x_index", "group", "price"), rows))
    run.write("prices.json", json_dumps_stable(payload))
    run.say(f"{note}, expected revenue {payload['revenue']:.6g}")
    return run.finish("price", [args.model, args.population], parameters)


def _share_solution(model, population, args):
    """Share-subsidized prices per support cell, with realized disparity."""
    if population.support is None or population.membership is None:
        raise MissingFieldError(
            "share pricing needs a population with a discrete support")
    penalty = SharePenalty(weight=args.share_lambda, scope=args.scope,
                           group=args.group)
    table = {}
    for i, x in enumerate(population.support):
        for g in population.groups:
            ell = penalty.effective(population.rho, g)
            table[(i, g)] = solve_share_price(model, x, g, ell)
    policy = TabularPolicy(support=population.support.copy(), table=table)
    payload = {
        "mode": "share",
        "share_lambda": float(args.share_lambda),
        "scope": args.scope,
        "group": args.group,
        "disparity": (policy_disparity(policy, population)
                      if len(population.groups) == 2 else None),
    }
    parameters = {"mode": "share", "share_lambda": float(args.share_lambda),
                  "scope": args.scope, "group": args.group}
    return policy, payload, parameters


def _cmd_audit(args) -> int:
    run = _Run(args)
    selected = None
    if args.metric:
        selected = tuple(m.strip() for spec in args.metric
                         for m in spec.split(",") if m.strip())
        unknown = [m for m in selected if m not in AUDIT_METRIC_NAMES]
        if unknown:
            raise ConfigError(f"unknown audit metric(s) {unknown}; "
                              f"choose from {list(AUDIT_METRIC_NAMES)}")

    model_mode = bool(args.model or args.policy)
    if model_mode == bool(args.records):
        raise MissingFieldError(
            "pass either --records or the --model/--policy/--population trio")
    if model_mode:
        if not (args.model and args.policy and args.population):
            raise MissingFieldError(
                "model-based audits need --model, --policy and --population")
        if selected is not None and tuple(selected) != ("access",):
            raise MissingFieldError(
                "model-based audits compute the access metric only")
        model = _load_model_file(args.model)
        policy = policy_from_dict(_load_json(args.policy, "policy"))
        population = population_from_dict(
            _load_json(args.population, "population"))
        report = AuditReport(
            n_records=0, groups=population.groups,
            metrics={"access": access_metrics(policy=policy, model=model,
                                              population=population)})
        inputs = [args.model, args.policy, args.population]
    else:
        records = read_records_csv(args.records)
        report = run_audit(records, alpha=args.alpha, metrics=selected)
        inputs = [args.records]

    if args.format == "csv":
        rows = report.to_csv_rows()
        run.write("audit.csv", _csv_text(rows[0], rows[1:]))
    else:
        run.write("audit.json", report.to_json())
    computed = sum(1 for v in report.metrics.values()
                   if not (isinstance(v, dict) and set(v) == {"error"}))
    run.say(f"audited {report.n_records} records: {computed} of "
            f"{len(report.metrics)} metrics computed")
    return run.finish("audit", inputs, {"alpha": args.alpha,
                                        "metrics": sorted(selected or ())})


def _cmd_ope(args) -> int:
    run = _Run(args)
    if bool(args.policy) == bool(args.search):
        raise MissingFieldError("pass exactly one of --policy or --search")
    records = read_records_csv(args.records)
    config = OPEConfig(bandwidth=args.bandwidth)
    payload = {"bandwidth": args.bandwidth, "n_records": len(records)}
    if args.policy:
        policy = policy_from_dict(_load_json(args.policy, "policy"))
        value = ope_value(records, policy, config)
        se = ope_bootstrap_se(records, policy, config,
                              n_boot=args.n_boot, seed=args.seed)
        payload.update({"policy": policy_to_dict(policy), "value": value,
                        "std_error": se, "n_boot": args.n_boot})
        run.say(f"off-policy value {value:.6g} (bootstrap se {se:.3g})")
    else:
        result = optimize_linear_policy(records, config,
                                        n_starts=args.n_starts,
                                        seed=args.seed)
        policy = result.policy
        se = ope_bootstrap_se(records, policy, config,
                              n_boot=args.n_boot, seed=args.seed)
        payload.update({"policy": policy_to_dict(policy),
                        "value": result.value, "std_error": se,
                        "n_boot": args.n_boot, "starts": result.starts,
                        "trace": result.trace})
        run.say(f"best linear policy value {result.value:.6g} "
                f"(bootstrap se {se:.3g}, {result.starts} starts)")
    payload.update(ope_weight_diagnostics(records, policy, config))
    run.write("ope.json", json_dumps_stable(payload))
    inputs = [args.records] + ([args.policy] if args.policy else [])
    return run.finish("ope", inputs,
                      {"bandwidth": args.bandwidth, "n_boot": args.n_boot,
                       "search": bool(args.search)})


def _cmd_sweep(args) -> int:
    run = _Run(args)
    model = _load_model_file(args.model)
    population = population_from_dict(_load_json(args.population, "population"))
    grid = _parse_grid(args.grid)
    if args.kind == "parity":
        solver = (solve_attribute_based_parity if args.mode == ATTRIBUTE_BASED
                  else solve_attribute_blind_parity)
        rows = []
        for gamma in grid:
            solution = solver(model, population, gamma)
            rows.append((gamma, solution.lambda_star,
                         expected_revenue(solution.policy(), model, population),
                         solution.achieved_disparity))
        header = ("gamma", "lambda_star", "revenue", "disparity")
        json_rows = [dict(zip(header, row)) for row in rows]
        parameters = {"kind": "parity", "mode": args.mode, "grid": grid}
    else:
        frontier = share_frontier(model, population, grid,
                                  scope=args.scope, group=args.group)
        header = ("weight", "group", "price_mean", "access", "revenue")
        rows = [tuple(r[k] for k in header) for r in frontier]
        json_rows = frontier
        parameters = {"kind": "share", "scope": args.scope,
                      "group": args.group, "grid": grid}
    run.write("sweep.csv", _csv_text(header, rows))
    run.write("sweep.json", json_dumps_stable(
        {"parameters": parameters, "rows": json_rows}))
    run.say(f"{args.kind} sweep over {len(grid)} grid points "
            f"-> {len(rows)} rows")
    return run.finish("sweep", [args.model, args.population], parameters)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairprice",
        description="Parity-constrained personalized pricing toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {VERSION}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0,
                        help="seed for all randomness (default 0)")
    common.add_argument("--out-dir", default=".",
                        help="directory for output files (default .)")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="serialization of the primary output")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress lines on stdout")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="generate synthetic records from a scenario file")
    p.add_argument("--scenario", required=True, help="scenario config path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", parents=[common],
                       help="fit a demand model to records")
    p.add_argument("--records", required=True, help="records CSV path")
    p.add_argument("--model", choices=("logistic", "linear"), required=True)
    p.add_argument("--allow-upward", action="store_true",
                   help="accept a nonnegative fitted price slope")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("price", parents=[common],
                       help="solve parity-constrained or share-subsidized "
                            "prices on a support")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--population", required=True, help="population JSON path")
    p.add_argument("--mode", choices=(ATTRIBUTE_BASED, ATTRIBUTE_BLIND),
                   default=ATTRIBUTE_BASED)
    p.add_argument("--gamma", default=None,
                   help="parity cap (number or 'inf', default inf); "
                        "exclusive with --share-lambda")
    p.add_argument("--share-lambda", dest="share_lambda", type=float,
                   default=None,
                   help="price with a market-share subsidy of this weight "
                        "instead of a parity cap")
    p.add_argument("--scope", choices=(POPULATION_SCOPE, GROUP_SCOPE),
                   default=POPULATION_SCOPE, help="share pricing only")
    p.add_argument("--group", default=None,
                   help="share pricing: target group for group scope")
    p.set_defaults(func=_cmd_price)

    p = sub.add_parser("audit", parents=[common],
                       help="run fairness audit metrics over records")
    p.add_argument("--records", help="records CSV path")
    p.add_argument("--model", help="model JSON path (model-based audit)")
    p.add_argument("--policy", help="policy JSON path (model-based audit)")
    p.add_argument("--population",
                   help="population JSON path (model-based audit)")
    p.add_argument("--metric", action="append", default=None,
                   help="audit metric to compute (repeatable or "
                        "comma-separated; default all)")
    p.add_argument("--alpha", type=float, default=0.05,
                   help="test level for distributional metrics")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("ope", parents=[common],
                       help="off-policy evaluation or linear policy search")
    p.add_argument("--records", required=True, help="records CSV path")
    p.add_argument("--policy", help="policy JSON path to evaluate")
    p.add_argument("--search", action="store_true",
                   help="search for the best clipped linear policy")
    p.add_argument("--bandwidth", type=float, default=0.3,
                   help="kernel bandwidth relative to the price range")
    p.add_argument("--n-boot", type=int, default=200,
                   help="bootstrap resamples for the standard error")
    p.add_argument("--n-starts", type=int, default=16,
                   help="pattern-search starts (search mode)")
    p.set_defaults(func=_cmd_ope)

    p = sub.add_parser("sweep", parents=[common],
                       help="trace a constraint or subsidy frontier")
    p.add_argument("--kind", choices=("parity", "share"), default="parity")
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--population", required=True, help="population JSON path")
    p.add_argument("--grid", required=True,
                   help="grid values: comma list or lo:hi:n")
    p.add_argument("--mode", choices=(ATTRIBUTE_BASED, ATTRIBUTE_BLIND),
                   default=ATTRIBUTE_BASED, help="parity sweeps only")
    p.add_argument("--scope", choices=("population", "group"),
                   default="population", help="share sweeps only")
    p.add_argument("--group", default=None, help="share sweeps: target group")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FairPriceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"error_code={exc.code}", file=sys.stderr)
        return _exit_code_for(exc)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("error_code=io", file=sys.stderr)
        return _EXIT_IO
    except Exception as exc:  # pragma: no cover - defensive catch-all
        print(f"internal error: {exc}", file=sys.stderr)
        print("error_code=internal", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
