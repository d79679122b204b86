"""Command-line entry points.

Subcommands: ``simulate`` (scenario -> synthetic records), ``fit`` (records ->
demand model), ``price`` (model + population -> parity-constrained prices),
``audit`` (records -> fairness metrics), ``ope`` (records -> off-policy value
or policy search), and ``sweep`` (constraint or subsidy frontiers).

A run writes its outputs, then a ``run_manifest.json``, into ``--out-dir``
once it has succeeded; a failed run leaves ``--out-dir`` as it was. Only
``simulate`` and ``ope`` draw random numbers, and only they take ``--seed``,
so reruns with identical inputs produce identical output bytes (the
manifest's duration field aside). Every accepted input changes the run:
``_MODE_FLAGS`` names the flags each mode of a subcommand reads and their
defaults, and a flag that only another mode reads is refused before any
file is read. Failures print ``error_code=<token>`` on stderr and exit with
a documented status:

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
import errno
import json
import math
import os
import sys
import time

from . import __version__
from .audit import AuditReport, check_alpha, check_metrics, run_audit
from .demand import (
    fit_logistic,
    fit_partially_linear,
    model_from_dict,
    model_to_dict,
    population_from_dict,
    population_to_dict,
)
from .optimize import PriceInterval
from .errors import ConfigError, FairPriceError, InvalidRecordError, MissingFieldError
from .parity import (
    ATTRIBUTE_BASED,
    ATTRIBUTE_BLIND,
    expected_revenue,
    policy_disparity,
    solve_attribute_based_parity,
    solve_attribute_blind_parity,
)
from .policies import TabularPolicy, policy_from_dict, policy_to_dict, table_rows
from .share import GROUP_SCOPE, POPULATION_SCOPE, SharePenalty, share_frontier, share_prices
from .sim import (
    ScenarioConfig,
    check_bandwidth,
    check_n_boot,
    ope_bootstrap_se,
    ope_estimate,
    optimize_linear_policy,
    read_records_csv,
    run_pricing_experiment,
    simulate,
    write_records_csv,
)
from .util import atomic_write_text, csv_text, fmt_float, json_dumps_stable


def _load_json(path, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InvalidRecordError(f"{what} file {path} is not valid JSON: "
                                 f"{exc}") from None


def _csv_text(header, rows) -> str:
    """CSV text of ``header`` and ``rows``, one column at a time: floats by
    :func:`fmt_float`, None as an empty cell, the rest by ``str``."""
    columns = list(zip(*rows)) or [()] * len(header)
    return csv_text([[name, *(fmt_float(v) if v is None or isinstance(v, float)
                               else str(v) for v in column)]
                     for name, column in zip(header, columns)])


def _parse_grid(text: str):
    """Grid spec: either comma-separated values (``inf`` allowed, ``nan``
    not) or ``lo:hi:n`` with finite points."""
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
        grid = [lo + k * step for k in range(n)]
        if not all(map(math.isfinite, grid)):
            raise ConfigError(f"grid spec {text!r}: lo:hi:n needs finite points")
        return grid
    try:
        grid = [float(t) for t in text.split(",")]
    except ValueError:
        raise ConfigError(f"grid spec {text!r}: expected numbers") from None
    if any(map(math.isnan, grid)):
        raise ConfigError(f"grid spec {text!r}: nan is not a grid value")
    return grid


class _Run:
    """Holds the output files of one CLI invocation until :meth:`finish`."""

    def __init__(self, args):
        if getattr(args, "seed", 0) < 0:
            raise MissingFieldError("--seed must be nonnegative")
        self.args = args
        self.outputs = {}  # file name -> text, or a RecordTable for records.csv
        self.started = time.perf_counter()

    def write(self, name: str, content):
        self.outputs[name] = content

    def finish(self, inputs: list, parameters: dict, summary: str) -> int:
        """Refuse a directory in place of any file of the run, then write
        the outputs, then the manifest, then print ``summary``."""
        paths = {name: os.path.join(self.args.out_dir, name)
                 for name in [*self.outputs, "run_manifest.json"]}
        for path in paths.values():
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, "Is a directory", path)
        for name, content in self.outputs.items():
            writer = (atomic_write_text if isinstance(content, str)
                      else write_records_csv)
            writer(paths[name], content)
        manifest = {
            "command": self.args.command,
            "version": __version__,
            "inputs": sorted(str(p) for p in inputs),
            "parameters": parameters,
            "outputs": sorted(self.outputs),
            "duration_s": time.perf_counter() - self.started,
        }
        if hasattr(self.args, "seed"):
            manifest["seed"] = self.args.seed
        atomic_write_text(paths["run_manifest.json"],
                          json_dumps_stable(manifest))
        if not self.args.quiet:
            print(summary)
        return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args, run) -> int:
    config = ScenarioConfig.from_file(args.scenario)
    model, population = simulate(config, args.seed)
    run.write("records.csv", population.records)
    run.write("population.json", json_dumps_stable(population_to_dict(population)))
    run.write("model_true.json", json_dumps_stable(model_to_dict(model)))
    _write_experiment_bundle(run, population, config)
    takeup = float(population.records.demand.mean())
    return run.finish([args.scenario], {"scenario": str(args.scenario)},
                      f"simulated {len(population.records)} records "
                      f"({', '.join(population.groups)}); "
                      f"mean take-up {takeup:.3f}")


def _write_experiment_bundle(run, population, config) -> None:
    """Price the simulated market three ways and emit plot-ready tables.

    ``experiment.csv`` holds long-format (scheme, metric, group, value) rows,
    ``experiment.json`` adds the policies and 25-bin price histograms, and
    ``revenue_curve.csv`` traces aggregate revenue and margin over 200
    uniform prices spanning the scenario's level grid.
    """
    model = config.model
    interval = PriceInterval(min(config.price_levels), max(config.price_levels))
    experiment = run_pricing_experiment(model, population, interval)

    rows, payload = [], {}
    for scheme in ("uniform", "group", "personalized"):
        info = experiment[scheme]
        rows += [(scheme, m, "", info[m]) for m in ("revenue", "margin")]
        rows += [(scheme, m, g, info[m][g]) for m in ("access", "price_mean")
                 for g in sorted(info[m])]
        payload[scheme] = dict(info, policy=policy_to_dict(info["policy"]))
    run.write("experiment.csv",
              _csv_text(("scheme", "metric", "group", "value"), rows))
    run.write("experiment.json", json_dumps_stable(payload))

    cost = population.unit_cost
    prices = [interval.lo + k * (interval.hi - interval.lo) / 199.0
              for k in range(200)]
    cells = population.cells()
    revenues = cells.curve(model, [prices], cells.mass[None], revenue=True)[0]
    curve_rows = [(p, r, r - cost * (r / p if p > 0.0 else 0.0))
                  for p, r in zip(prices, revenues.tolist())]
    run.write("revenue_curve.csv",
              _csv_text(("price", "revenue", "margin"), curve_rows))


def _cmd_fit(args, run) -> int:
    records = read_records_csv(args.records)
    model, diag = (fit_logistic(records) if args.model == "logistic" else
                   fit_partially_linear(records, allow_upward=args.allow_upward))
    diagnostics = {k: v.tolist() if k == "std_errors" else v
                   for k, v in vars(diag).items() if v is not None}
    run.write("model.json", json_dumps_stable(
        {"model": model_to_dict(model), "diagnostics": diagnostics}))
    return run.finish([args.records],
                      {"model": args.model, "allow_upward": args.allow_upward},
                      f"fitted {args.model} demand on {diag.n_records} records")


def _load_model_file(path):
    data = _load_json(path, "model")
    if isinstance(data, dict) and isinstance(data.get("model"), dict):
        data = data["model"]
    return model_from_dict(data)


def _cmd_price(args, run) -> int:
    try:
        gamma = None if args.share_lambda is not None else float(args.gamma)
    except ValueError:
        raise ConfigError(f"gamma must be a number or 'inf', got "
                          f"{args.gamma!r}") from None
    model = _load_model_file(args.model)
    population = population_from_dict(_load_json(args.population, "population"))

    if args.share_lambda is not None:
        policy, payload, parameters = _share_solution(model, population, args)
        note = (f"share prices under lambda={fmt_float(args.share_lambda)} "
                f"({args.scope} scope)")
    else:
        solution = _parity_solver(args.mode)(model, population, gamma)
        policy, payload = solution.policy(), solution.to_dict()
        parameters = {"mode": args.mode, "gamma": gamma}
        note = (f"{args.mode} prices under gamma={fmt_float(gamma)}: "
                f"multiplier {solution.lambda_star:.6g}")

    *_, payload["revenue"], by_group = population.cells().evaluate(policy, model)
    payload["access"] = {g: info["access"] for g, info in by_group.items()}
    rows = [(row["x_index"], row["group"], row["price"]) for row in payload["prices"]]
    run.write("prices.csv", _csv_text(("x_index", "group", "price"), rows))
    run.write("prices.json", json_dumps_stable(payload))
    return run.finish([args.model, args.population], parameters,
                      f"{note}, expected revenue {payload['revenue']:.6g}")


def _parity_solver(mode: str):
    """The parity solver of ``mode``, looked up in this module's globals
    on every call, so that a replaced solver function is the one run."""
    return (solve_attribute_based_parity if mode == ATTRIBUTE_BASED
            else solve_attribute_blind_parity)


def _share_solution(model, population, args):
    """Share-subsidized prices per support cell, with realized disparity."""
    groups, n = population.groups, len(population.joint_weights())
    penalty = SharePenalty(args.share_lambda, args.scope, args.group)
    ell = [penalty.effective(population.rho, g) for g in groups]
    prices = share_prices(model, population.support.repeat(len(groups), 0),
                          list(range(len(groups))) * n, groups, ell * n)
    policy = TabularPolicy(population.support.copy(), groups,
                           prices.reshape(n, len(groups)))
    parameters = {"mode": "share", "share_lambda": float(args.share_lambda),
                  "scope": args.scope, "group": args.group}
    payload = dict(parameters, prices=table_rows(policy), disparity=(
        policy_disparity(policy, population) if len(groups) == 2 else None))
    return policy, payload, parameters


def _cmd_audit(args, run) -> int:
    selected = None if args.metric is None else check_metrics(
        m.strip() for spec in args.metric for m in spec.split(",") if m.strip())

    mode = _run_mode(args)
    if mode is None:
        raise MissingFieldError(
            "pass either --records or the --model/--policy/--population trio")
    parameters = {"metrics": sorted(selected or ())}
    if mode == "model audits":
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
            metrics={"access": population.cells().evaluate(policy, model)[3]})
        inputs = [args.model, args.policy, args.population]
    else:
        parameters["alpha"] = args.alpha
        check_alpha(args.alpha)
        records = read_records_csv(args.records)
        report = run_audit(records, alpha=args.alpha, metrics=selected)
        inputs = [args.records]

    rows = report.to_csv_rows()
    run.write("audit.csv", _csv_text(rows[0], rows[1:]))
    run.write("audit.json", report.to_json())
    computed = sum(set(v) != {"error"} for v in report.metrics.values())
    return run.finish(inputs, parameters,
                      f"audited {report.n_records} records: {computed} of "
                      f"{len(report.metrics)} metrics computed")


def _cmd_ope(args, run) -> int:
    if _run_mode(args) is None:
        raise MissingFieldError("pass exactly one of --policy or --search")
    check_n_boot(args.n_boot)
    records = read_records_csv(args.records)
    check_bandwidth(args.bandwidth)
    payload = {"bandwidth": args.bandwidth, "n_records": len(records),
               "n_boot": args.n_boot}
    if args.policy:
        policy = policy_from_dict(_load_json(args.policy, "policy"))
        payload.update(ope_estimate(records, policy, args.bandwidth))
        note = "off-policy value {:.6g} (bootstrap se {:.3g})"
    else:
        result = optimize_linear_policy(records, args.bandwidth,
                                        n_starts=args.n_starts, seed=args.seed)
        policy = result.policy
        payload.update(ope_estimate(records, policy, args.bandwidth),
                       value=result.value, starts=len(result.trace),
                       trace=result.trace)
        note = (f"best linear policy value {{:.6g}} (bootstrap se {{:.3g}}, "
                f"{len(result.trace)} starts)")
    se, skipped = ope_bootstrap_se(records, policy, args.bandwidth,
                                   n_boot=args.n_boot, seed=args.seed)
    payload.update(policy=policy_to_dict(policy), std_error=se,
                   skipped_resamples=skipped)
    run.write("ope.json", json_dumps_stable(payload))
    return run.finish([args.records, *([args.policy] if args.policy else [])],
                      {"bandwidth": args.bandwidth, "n_boot": args.n_boot,
                       "search": bool(args.search),
                       **({"n_starts": args.n_starts} if args.search else {})},
                      note.format(payload["value"], se))


def _cmd_sweep(args, run) -> int:
    model = _load_model_file(args.model)
    population = population_from_dict(_load_json(args.population, "population"))
    grid = _parse_grid(args.grid)
    if args.kind == "parity":
        solver = _parity_solver(args.mode)
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
        population.joint_weights()  # a population file carries no records
        json_rows = share_frontier(model, population, grid,
                                   scope=args.scope, group=args.group)
        header = ("weight", "group", "price_mean", "access", "revenue")
        rows = [tuple(r[k] for k in header) for r in json_rows]
        parameters = {"kind": "share", "scope": args.scope,
                      "group": args.group, "grid": grid}
    run.write("sweep.csv", _csv_text(header, rows))
    run.write("sweep.json", json_dumps_stable(
        {"parameters": parameters, "rows": json_rows}))
    return run.finish([args.model, args.population], parameters,
                      f"{args.kind} sweep over {len(grid)} grid points "
                      f"-> {len(rows)} rows")


# ---------------------------------------------------------------------------
# parser and modes
# ---------------------------------------------------------------------------


# Subcommand -> mode -> the flags (argparse dests) that set the mode apart,
# with their defaults (None: none); all modes read the flags left out.
_SHARE_MODES = {"share runs": {"scope": POPULATION_SCOPE},
                "share runs with --scope group": {"scope": None, "group": None}}
_MODE_FLAGS = {
    "fit": {"linear fits": {"allow_upward": None}, "logistic fits": {}},
    "price": {"parity runs": {"gamma": "inf", "mode": ATTRIBUTE_BASED},
              **_SHARE_MODES},
    "sweep": {"parity runs": {"mode": ATTRIBUTE_BASED}, **_SHARE_MODES},
    "audit": {"records audits": {"records": None, "alpha": 0.05},
              "model audits": dict.fromkeys(("model", "policy", "population"))},
    "ope": {"--policy": {"policy": None},
            "--search": {"search": None, "n_starts": 16}},
}


def _run_mode(args):
    """The run's mode in ``_MODE_FLAGS``; None for ``simulate``, and for an
    audit or ope run that names both modes or neither (the command refuses)."""
    if args.command == "fit":
        return f"{args.model} fits"
    if args.command in ("price", "sweep"):
        if (args.share_lambda is None if args.command == "price"
                else args.kind == "parity"):
            return "parity runs"
        return ("share runs with --scope group" if args.scope == GROUP_SCOPE
                else "share runs")
    if args.command == "audit":
        model_mode = bool(args.model or args.policy or args.population)
        if model_mode != bool(args.records):
            return "model audits" if model_mode else "records audits"
    if args.command == "ope" and bool(args.policy) != bool(args.search):
        return "--policy" if args.policy else "--search"
    return None


def _apply_mode(args) -> None:
    """Refuse a flag given that the run's mode lacks, naming the first mode
    that reads it; then fill in the defaults of the run's mode, and refuse a
    share run whose scope lacks its group."""
    mode = _run_mode(args)
    if mode is None:
        return
    modes = _MODE_FLAGS[args.command]
    for reader, flags in modes.items():
        for flag in flags:
            value = getattr(args, flag)  # False: a store_true flag not given
            if flag not in modes[mode] and not (value is None or value is False):
                raise ConfigError(f"--{flag.replace('_', '-')} applies to "
                                  f"{reader} only")
    for flag, default in modes[mode].items():
        if getattr(args, flag) is None:
            setattr(args, flag, default)
    if mode.startswith("share runs"):
        SharePenalty(0.0, args.scope, args.group)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairprice",
        description="Parity-constrained personalized pricing toolkit")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0,
                        help="seed for all randomness (default 0)")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out-dir", default=".",
                        help="directory for output files (default .)")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress lines on stdout")
    pricing = argparse.ArgumentParser(add_help=False)
    pricing.add_argument("--model", required=True, help="model JSON path")
    pricing.add_argument("--population", required=True,
                         help="population JSON path")
    pricing.add_argument("--mode", choices=(ATTRIBUTE_BASED, ATTRIBUTE_BLIND),
                         help=f"parity runs only (default {ATTRIBUTE_BASED})")
    pricing.add_argument("--scope", choices=(POPULATION_SCOPE, GROUP_SCOPE),
                         help=f"share runs only (default {POPULATION_SCOPE})")
    pricing.add_argument("--group",
                         help="target group (share runs with --scope group)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[seeded, common],
                       help="generate synthetic records from a scenario file")
    p.add_argument("--scenario", required=True, help="scenario config path")

    p = sub.add_parser("fit", parents=[common],
                       help="fit a demand model to records")
    p.add_argument("--records", required=True, help="records CSV path")
    p.add_argument("--model", choices=("logistic", "linear"), required=True)
    p.add_argument("--allow-upward", action="store_true",
                   help="accept a fitted price slope >= 0 (linear fits only)")

    p = sub.add_parser("price", parents=[common, pricing],
                       help="solve parity-constrained or share-subsidized "
                            "prices on a support")
    p.add_argument("--gamma",
                   help="parity cap, a number or 'inf' (parity runs only, "
                        "default inf)")
    p.add_argument("--share-lambda", type=float,
                   help="price with a market-share subsidy of this weight "
                        "instead of a parity cap")

    p = sub.add_parser("audit", parents=[common],
                       help="run fairness audit metrics over records")
    p.add_argument("--records", help="records CSV path")
    p.add_argument("--model", help="model JSON path (model-based audit)")
    p.add_argument("--policy", help="policy JSON path (model-based audit)")
    p.add_argument("--population",
                   help="population JSON path (model-based audit)")
    p.add_argument("--metric", action="append",
                   help="audit metric to compute (repeatable or "
                        "comma-separated; default all)")
    p.add_argument("--alpha", type=float,
                   help="test level of the distributional metrics, in (0, 1) "
                        "(records audits only, default 0.05)")

    p = sub.add_parser("ope", parents=[seeded, common],
                       help="off-policy evaluation or linear policy search")
    p.add_argument("--records", required=True, help="records CSV path")
    p.add_argument("--policy", help="policy JSON path to evaluate")
    p.add_argument("--search", action="store_true",
                   help="search for the best clipped linear policy")
    p.add_argument("--bandwidth", type=float, default=0.3,
                   help="kernel bandwidth relative to the price range")
    p.add_argument("--n-boot", type=int, default=200,
                   help="bootstrap resamples for the standard error")
    p.add_argument("--n-starts", type=int,
                   help="pattern-search starts (--search only, default 16)")

    p = sub.add_parser("sweep", parents=[common, pricing],
                       help="trace a constraint or subsidy frontier")
    p.add_argument("--kind", choices=("parity", "share"), default="parity")
    p.add_argument("--grid", required=True,
                   help="grid values: comma list or lo:hi:n")
    return parser


_COMMANDS = {"simulate": _cmd_simulate, "fit": _cmd_fit, "price": _cmd_price,
             "audit": _cmd_audit, "ope": _cmd_ope, "sweep": _cmd_sweep}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_mode(args)
        return _COMMANDS[args.command](args, _Run(args))
    except FairPriceError as exc:
        message, code, status = f"error: {exc}", exc.code, exc.exit_status
    except OSError as exc:
        message, code, status = f"error: {exc}", "io", 1
    except Exception as exc:  # a defect: one line and exit 1, not a traceback
        message, code, status = f"internal error: {exc}", "internal", 1
    print(f"{message}\nerror_code={code}", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
