"""Scenario simulation, record CSV I/O, pricing experiments, and kernel OPE.

A scenario file is a flat ``key = value`` text format ('#' starts a comment):

    n = 4000
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

``membership.*`` are logit coefficients for P(first group | x). Covariates may
be ``normal(m, s)``, ``uniform(lo, hi)``, ``choice(v:p, ...)`` or
``constant(v)``; when all are discrete the generated population carries the
exact covariate support with exact membership probabilities, so analytic
solvers and sampled records see the same world.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

from .demand import (
    CSV_LEADING_COLUMNS,
    CSV_TRAILING_COLUMNS,
    LatentValuationModel,
    LogisticDemand,
    Population,
    RecordTable,
    as_table,
    eval_demand,
)
from .errors import (
    ConfigError,
    EmptyWeightError,
    InvalidRecordError,
    MissingFieldError,
)
from .optimize import PriceInterval, maximize_revenue_1d
from .policies import ConstantPolicy, GroupPolicy, LinearPolicy, TabularPolicy
from .util import fmt_float, seqsum


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------


@dataclass
class CovariateSpec:
    """One covariate sampler: kind plus its parameters."""

    name: str
    kind: str
    params: tuple

    @property
    def discrete(self) -> bool:
        return self.kind in ("choice", "constant")

    def values_and_probs(self):
        if self.kind == "constant":
            return [self.params[0]], [1.0]
        if self.kind == "choice":
            values, probs = zip(*self.params)
            return list(values), list(probs)
        raise ConfigError(f"covariate {self.name} is continuous")

    def sample(self, rng):
        if self.kind == "normal":
            return float(rng.normal(self.params[0], self.params[1]))
        if self.kind == "uniform":
            return float(rng.uniform(self.params[0], self.params[1]))
        if self.kind == "constant":
            return float(self.params[0])
        values, probs = self.values_and_probs()
        return float(values[rng.choice(len(values), p=probs)])


def _parse_sampler(name, text, line):
    text = text.strip()
    open_paren = text.find("(")
    if open_paren < 0 or not text.endswith(")"):
        raise ConfigError(f"covariate {name}: expected kind(args), got {text!r}",
                          line)
    kind = text[:open_paren].strip()
    body = text[open_paren + 1:-1].strip()
    try:
        if kind == "normal":
            m, s = (float(t) for t in body.split(","))
            if s <= 0:
                raise ValueError("scale must be positive")
            return CovariateSpec(name, "normal", (m, s))
        if kind == "uniform":
            lo, hi = (float(t) for t in body.split(","))
            if not lo < hi:
                raise ValueError("needs lo < hi")
            return CovariateSpec(name, "uniform", (lo, hi))
        if kind == "constant":
            return CovariateSpec(name, "constant", (float(body),))
        if kind == "choice":
            pairs = []
            for item in body.split(","):
                v, p = item.split(":")
                pairs.append((float(v), float(p)))
            total = sum(p for _, p in pairs)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"choice probabilities sum to {total:g}, not 1")
            if len({v for v, _ in pairs}) != len(pairs):
                raise ValueError("choice values must be distinct")
            return CovariateSpec(name, "choice", tuple(pairs))
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"covariate {name}: {exc}", line) from None
    raise ConfigError(f"covariate {name}: unknown sampler kind {kind!r}", line)


@dataclass
class ScenarioConfig:
    """Validated scenario: population shape, demand model, and logging menu."""

    n: int
    groups: tuple
    covariates: list
    membership_intercept: float
    membership_coefs: dict
    demand_kind: str
    price_levels: tuple
    noise: str = "logistic"
    scale: float = 1.0
    loc: dict = field(default_factory=dict)
    beta: float | None = None
    gamma: dict = field(default_factory=dict)
    intercept: float = 0.0
    unit_cost: float = 0.0
    surplus_weight: float | None = None

    @property
    def covariate_names(self) -> list:
        return [c.name for c in self.covariates]

    @property
    def all_discrete(self) -> bool:
        return all(c.discrete for c in self.covariates)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def from_text(cls, text) -> "ScenarioConfig":
        raw = {}
        lines = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"expected key = value, got {body!r}", lineno)
            key, value = (part.strip() for part in body.split("=", 1))
            if not key:
                raise ConfigError("empty key", lineno)
            if key in raw:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            raw[key] = value
            lines[key] = lineno

        def take(key, default=None, required=False):
            if key in raw:
                return raw.pop(key)
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default

        def as_float(key, text_value):
            try:
                return float(text_value)
            except ValueError:
                raise ConfigError(f"{key}: expected a number, got {text_value!r}",
                                  lines.get(key)) from None

        try:
            n = int(take("n", required=True))
        except ValueError:
            raise ConfigError("n: expected an integer", lines.get("n")) from None
        if n <= 0:
            raise ConfigError("n must be positive", lines.get("n"))
        groups = tuple(t.strip() for t in take("groups", required=True).split(","))
        if len(groups) != 2 or len(set(groups)) != 2 or not all(groups):
            raise ConfigError("groups must name exactly two distinct labels",
                              lines.get("groups"))

        covariates = []
        for key in [k for k in list(raw) if k.startswith("covariate.")]:
            name = key.split(".", 1)[1]
            covariates.append(_parse_sampler(name, raw.pop(key), lines[key]))
        if not covariates:
            raise ConfigError("at least one covariate.<name> entry is required")

        membership_intercept = as_float(
            "membership.intercept", take("membership.intercept", "0"))
        membership_coefs = {}
        for key in [k for k in list(raw) if k.startswith("membership.")]:
            name = key.split(".", 1)[1]
            if name not in {c.name for c in covariates}:
                raise ConfigError(f"membership.{name}: unknown covariate",
                                  lines[key])
            membership_coefs[name] = as_float(key, raw.pop(key))

        demand_kind = take("demand", required=True)
        if demand_kind not in ("latent", "logistic"):
            raise ConfigError(f"demand must be 'latent' or 'logistic', "
                              f"got {demand_kind!r}", lines.get("demand"))

        levels_text = take("price_levels", required=True)
        try:
            levels = tuple(float(t) for t in levels_text.split(","))
        except ValueError:
            raise ConfigError("price_levels: expected comma-separated numbers",
                              lines.get("price_levels")) from None
        if len(levels) < 2 or len(set(levels)) != len(levels) or \
                list(levels) != sorted(levels):
            raise ConfigError(
                "price_levels must be at least two distinct ascending values",
                lines.get("price_levels"))
        if levels[0] < 0:
            raise ConfigError("price_levels must be nonnegative",
                              lines.get("price_levels"))

        unit_cost = as_float("unit_cost", take("unit_cost", "0"))
        surplus_raw = take("outcome.surplus_weight")
        surplus_weight = (None if surplus_raw is None
                          else as_float("outcome.surplus_weight", surplus_raw))

        noise = take("noise", "logistic")
        scale = as_float("scale", take("scale", "1"))
        loc = {}
        beta = None
        gamma = {}
        intercept = 0.0
        if demand_kind == "latent":
            for g in groups:
                loc_icpt = take(f"loc.{g}.intercept", required=True)
                coefs = {}
                for key in [k for k in list(raw) if k.startswith(f"loc.{g}.")]:
                    name = key.split(".", 2)[2]
                    if name not in {c.name for c in covariates}:
                        raise ConfigError(f"{key}: unknown covariate", lines[key])
                    coefs[name] = as_float(key, raw.pop(key))
                loc[g] = (as_float(f"loc.{g}.intercept", loc_icpt), coefs)
        else:
            beta = as_float("beta", take("beta", required=True))
            if beta >= 0:
                raise ConfigError("beta must be negative", lines.get("beta"))
            intercept = as_float("intercept", take("intercept", "0"))
            for key in [k for k in list(raw) if k.startswith("gamma.")]:
                name = key.split(".", 1)[1]
                if name not in {c.name for c in covariates}:
                    raise ConfigError(f"{key}: unknown covariate", lines[key])
                gamma[name] = as_float(key, raw.pop(key))
            if surplus_weight is not None:
                raise ConfigError(
                    "outcome.surplus_weight needs latent demand",
                    lines.get("outcome.surplus_weight"))

        if raw:
            stray = sorted(raw)[0]
            raise ConfigError(f"unknown key {stray!r}", lines.get(stray))

        config = cls(n=n, groups=groups, covariates=covariates,
                     membership_intercept=membership_intercept,
                     membership_coefs=membership_coefs,
                     demand_kind=demand_kind, price_levels=levels,
                     noise=noise, scale=scale, loc=loc, beta=beta,
                     gamma=gamma, intercept=intercept, unit_cost=unit_cost,
                     surplus_weight=surplus_weight)
        config.build_model()  # validate model parameters eagerly
        return config

    def membership_prob(self, x):
        """P(first group | x) from the logit membership rule: a float for
        one covariate vector, an array for the rows of a matrix."""
        x = np.asarray(x, dtype=float)
        z = self.membership_intercept
        for name, coef in self.membership_coefs.items():
            z = z + coef * x[..., self.covariate_names.index(name)]
        q = expit(z)
        return float(q) if x.ndim == 1 else q

    def build_model(self):
        names = self.covariate_names
        if self.demand_kind == "latent":
            loc = {}
            for g in self.groups:
                intercept, coefs = self.loc[g]
                vec = np.array([coefs.get(nm, 0.0) for nm in names])
                loc[g] = (intercept, vec)
            return LatentValuationModel(loc=loc, noise=self.noise,
                                        scale=self.scale)
        vec = np.array([self.gamma.get(nm, 0.0) for nm in names])
        return LogisticDemand(gamma=vec, beta=self.beta,
                              intercept=self.intercept)


# ---------------------------------------------------------------------------
# population generation and interaction logging
# ---------------------------------------------------------------------------


def _exact_support(config: ScenarioConfig):
    pairs_per_cov = []
    for spec in config.covariates:
        values, probs = spec.values_and_probs()
        pairs_per_cov.append(list(zip(values, probs)))
    points, masses = [], []
    for combo in itertools.product(*pairs_per_cov):
        points.append([value for value, _ in combo])
        masses.append(math.prod(prob for _, prob in combo))
    support = np.asarray(points, dtype=float)
    q = config.membership_prob(support)
    return support, np.asarray(masses, dtype=float), np.column_stack([q, 1.0 - q])


def generate_population(config: ScenarioConfig, rng) -> Population:
    """Draw ``n`` customers: covariates, group, and (latent) valuation.

    Prices, demand, and outcomes are attached later by
    :func:`log_interactions`. When every covariate is discrete the returned
    population also carries the exact support, masses, and membership
    probabilities of the generating process.
    """
    model = config.build_model()
    latent = config.demand_kind == "latent"
    width = max(6, len(str(config.n)))
    ids = [f"r{i:0{width}d}" for i in range(config.n)]
    # the loop only draws, in the generator's order; the draws are turned
    # into groups and valuations afterwards, all rows at once
    X = np.empty((config.n, len(config.covariates)))
    u, eps = np.empty(config.n), np.empty(config.n)
    for i in range(config.n):
        X[i] = [spec.sample(rng) for spec in config.covariates]
        u[i] = rng.random()
        if latent:
            eps[i] = model.family.sample(rng)
    code = np.where(u < config.membership_prob(X), 0, 1)
    groups = np.array(config.groups)[code]
    values = np.full((config.n, len(CSV_TRAILING_COLUMNS)), np.nan)
    if latent:
        values[:, CSV_TRAILING_COLUMNS.index("valuation")] = (
            model.location_rows(X, code, config.groups) + model.scale * eps)
    records = RecordTable.from_arrays(
        ids, groups, X, values, ~np.isnan(values),
        lambda i: f"record {ids[i]}")
    if config.all_discrete:
        support, masses, membership = _exact_support(config)
        return Population(groups=config.groups, records=records,
                          support=support, masses=masses,
                          membership=membership, unit_cost=config.unit_cost)
    total = len(records)
    rho = {g: int(np.sum(groups == g)) / total for g in config.groups}
    if min(rho.values()) == 0.0:
        # keep priors valid even if a tiny sample missed a group entirely
        rho = {g: max(v, 1.0 / (2 * total)) for g, v in rho.items()}
        z = sum(rho.values())
        rho = {g: v / z for g, v in rho.items()}
    return Population(groups=config.groups, records=records, rho=rho,
                      unit_cost=config.unit_cost)


def log_interactions(config: ScenarioConfig, population: Population, rng,
                     policy=None) -> Population:
    """Assign a price to every record and realize demand (and outcomes).

    Without a policy, prices are drawn uniformly from the scenario's price
    levels (the logging menu). Latent records buy iff their stored valuation
    covers the price; logistic records draw a Bernoulli take-up. The realized
    consumer surplus, scaled by ``outcome.surplus_weight``, lands in the
    outcome column when configured.
    """
    model = config.build_model()
    levels = config.price_levels
    table = population.records
    groups = table.group
    # pricing draws no random numbers, so batching it keeps the RNG stream
    offered = None if policy is None else policy.price_batch(table.X, groups)
    for i, x in enumerate(table.X):
        if policy is None:
            p = float(levels[int(rng.integers(len(levels)))])
        else:
            p = float(offered[i])
        table.price[i] = p
        if config.demand_kind == "latent":
            table.demand[i] = float(table.valuation[i] >= p)
        else:
            rate = eval_demand(model, x, groups[i], p)
            table.demand[i] = float(rng.random() < rate)
    if config.surplus_weight is not None:
        table.outcome[:] = (config.surplus_weight
                            * np.maximum(table.valuation - table.price, 0.0)
                            * table.demand)
    return population


def simulate(config: ScenarioConfig, seed: int):
    """Generate a population and log one interaction per customer.

    Returns ``(model, population)``; all randomness flows from ``seed``.
    """
    rng = np.random.default_rng(seed)
    population = generate_population(config, rng)
    log_interactions(config, population, rng)
    return config.build_model(), population


# ---------------------------------------------------------------------------
# record CSV I/O
# ---------------------------------------------------------------------------


def write_records_csv(path, records) -> None:
    """Write records with header id,group,x1..xk,price,demand,outcome,valuation,weight."""
    table = as_table(records).require()
    numeric = [*table.X.T] + [getattr(table, name)
                              for name in CSV_TRAILING_COLUMNS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(table.X.shape[1]))
        # rows are formatted as they are written, so no column of cell
        # strings is ever held in memory
        writer.writerows(zip(table.ids, table.group,
                             *(map(_csv_cell, col) for col in numeric)))


def _csv_header(k: int) -> list:
    return (list(CSV_LEADING_COLUMNS) + [f"x{j + 1}" for j in range(k)]
            + list(CSV_TRAILING_COLUMNS))


def _csv_cell(value) -> str:
    return "" if value != value else fmt_float(value)


def read_records_csv(path) -> RecordTable:
    """Read records written by :func:`write_records_csv` (empty cell = missing).

    Every non-empty numeric cell must parse as a finite number; the error
    names the CSV line.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InvalidRecordError("empty records file") from None
        k = len(header) - len(CSV_LEADING_COLUMNS) - len(CSV_TRAILING_COLUMNS)
        expected = _csv_header(k)
        if k < 0 or header != expected:
            raise InvalidRecordError(
                f"unexpected header {header!r}; expected id,group,x1..xk,"
                "price,demand,outcome,valuation,weight")
        lines, rows = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise InvalidRecordError(
                    f"line {lineno}: expected {len(expected)} cells, "
                    f"got {len(row)}")
            lines.append(lineno)
            rows.append(row)
    text = np.array([c.strip() for row in rows for c in row[2:]],
                    dtype=object).reshape(len(rows), len(expected) - 2)
    present = text != ""
    values = np.full(text.shape, np.nan)
    try:
        values[present] = np.array(text[present].tolist(), dtype=float)
    except ValueError:
        for i, j in zip(*np.nonzero(present)):
            try:
                float(text[i, j])
            except ValueError:
                raise InvalidRecordError(
                    f"line {lines[i]}: {expected[j + 2]} cell {text[i, j]!r} "
                    "is not a number") from None
        raise
    return RecordTable.from_arrays(
        [row[0] for row in rows], [row[1] for row in rows], values[:, :k],
        values[:, k:], present[:, k:], lambda i: f"line {lines[i]}")


# ---------------------------------------------------------------------------
# pricing experiment: uniform vs per-group vs personalized
# ---------------------------------------------------------------------------


# cells x prices evaluated at once by the aggregated demand curves
_CURVE_BLOCK = 1 << 12


def _histogram(prices, weights, lo, hi, bins=25):
    # shared edges across policies keep the histograms comparable
    counts, edges = np.histogram(np.asarray(prices, dtype=float), bins=bins,
                                 range=(lo, hi),
                                 weights=np.asarray(weights, dtype=float))
    return {"edges": [float(e) for e in edges],
            "counts": [float(c) for c in counts]}


def run_pricing_experiment(model, population: Population,
                           interval: PriceInterval,
                           unit_cost: float | None = None) -> dict:
    """Price one market three ways and compare revenue and access.

    Modes: ``uniform`` (one price), ``group`` (one price per group), and
    ``personalized`` (one price per population cell). Every mode maximizes
    expected margin ``(p - unit_cost) * D`` under the same demand model.
    Returns a dict mode -> {policy, revenue, margin, access, price_mean,
    histogram}.
    """
    cost = population.unit_cost if unit_cost is None else float(unit_cost)
    cells = population.cells()
    labels = cells.labels.tolist()
    w = cells.mass

    def aggregate(rows):
        """Mass-weighted demand of the cells ``rows``, added cell by cell."""
        X, g, mass = cells.X[rows], cells.g[rows], w[rows]

        def curve(p):
            p = np.asarray(p, dtype=float)
            total = np.zeros(p.shape)
            step = max(1, _CURVE_BLOCK // max(p.size, 1))
            for lo in range(0, len(mass), step):
                part = slice(lo, lo + step)
                d = model.demand(X[part], g[part], p[None], cells.groups)
                terms = (mass[part] if p.ndim == 0 else mass[part][:, None]) * d
                # continuing the running sum from the total so far adds the
                # cells one by one, in cell order, as a Python sum would
                total = np.cumsum(np.concatenate([total[None], terms]), axis=0)[-1]
            return total
        return curve

    def cell_price(j):
        def curve(p):
            return eval_demand(model, cells.X[j], labels[j], p)
        return maximize_revenue_1d(curve, interval, shift=cost)[0]

    out = {}

    uniform_price, _ = maximize_revenue_1d(aggregate(slice(None)), interval,
                                           shift=cost)
    out["uniform"] = ConstantPolicy(uniform_price)

    present = sorted(set(labels))
    group_prices = {}
    for g in present:
        price, _ = maximize_revenue_1d(aggregate(cells.labels == g), interval,
                                       shift=cost)
        group_prices[g] = price
    out["group"] = GroupPolicy(prices=group_prices)

    if cells.index is not None:
        index, support = cells.index.tolist(), population.support
    else:
        # record cells: one solve per distinct (x, g), the distinct rows
        # numbered in order of first appearance
        seen = {}
        index = [seen.setdefault(tuple(x), len(seen)) for x in cells.X.tolist()]
        support = np.asarray(list(seen))
    table = {}
    for j, i in enumerate(index):
        if (i, labels[j]) not in table:
            table[(i, labels[j])] = cell_price(j)
    out["personalized"] = TabularPolicy(support=support, table=table)

    report = {}
    for mode, policy in out.items():
        p, d, totals = cells.evaluate(policy, model)
        stats = {g: totals[cells.groups.index(g)] for g in present}
        report[mode] = {
            "policy": policy,
            "revenue": seqsum(w * p * d),
            "margin": seqsum(w * (p - cost) * d),
            "access": {g: s[1] / s[0] for g, s in stats.items()},
            "price_mean": {g: s[2] / s[0] for g, s in stats.items()},
            "histogram": _histogram(p, w, interval.lo, interval.hi),
        }
    return report


# ---------------------------------------------------------------------------
# kernel off-policy evaluation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OPEConfig:
    """Kernel off-policy evaluation settings.

    ``bandwidth`` is measured relative to the logged price range, so the
    effective kernel width in price units is ``bandwidth * range``.
    ``level_masses`` maps logged price level -> behavior probability; omit it
    to plug in the empirical level frequencies.
    """

    bandwidth: float = 0.3
    kernel: str = "epanechnikov"
    level_masses: dict | None = None
    self_normalize: bool = True

    def __post_init__(self):
        if not (self.bandwidth > 0.0):
            raise MissingFieldError("bandwidth must be positive")
        if self.kernel != "epanechnikov":
            raise MissingFieldError(f"unknown kernel {self.kernel!r}")


def _epanechnikov(u):
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def _importance_weights(table: RecordTable, policy, config: OPEConfig):
    """Target prices of ``policy``, the kernel importance weight of every
    logged record, and their sum.

    A record's weight is the kernel proximity of its logged price to the
    target price over the behavior probability of the logged level, times
    the record weight. Raises when every weight vanishes.
    """
    p, w = table.price, table.weight
    target = policy.price_batch(table.X, table.group)
    width = float(p.max() - p.min())
    if width <= 0.0:
        raise MissingFieldError(
            "logged prices carry no variation; off-policy weights undefined")
    levels, inverse = np.unique(p, return_inverse=True)
    if config.level_masses is not None:
        masses = np.array([config.level_masses.get(float(v), 0.0)
                           for v in levels])[inverse]
        if np.any(masses <= 0.0):
            bad = float(p[int(np.argmin(masses))])
            raise MissingFieldError(
                f"logged price {bad:g} has no behavior mass")
    else:
        freq = np.bincount(inverse, weights=w)
        masses = (freq / w.sum())[inverse]
    h = config.bandwidth * width
    kernel_weights = _epanechnikov((target - p) / h) / h
    imp = w * kernel_weights / masses
    total = float(imp.sum())
    if total <= 0.0:
        raise EmptyWeightError(
            "no logged interaction falls inside the kernel window of the "
            "target policy")
    return target, imp, total


def ope_value(records, policy, config: OPEConfig | None = None) -> float:
    """Kernel-smoothed off-policy estimate of a policy's expected revenue.

    Each record is weighted by kernel proximity of its logged price to the
    policy's price for that customer, divided by the behavior probability of
    the logged level; the revenue signal is ``target price x logged demand``.
    Self-normalization (the default) divides by the summed importance
    weights, otherwise by the summed record weights. Raises when every kernel
    weight vanishes (policy prices too far from the data).
    """
    config = config or OPEConfig()
    table = as_table(records).require("price", "demand")
    target, imp, total = _importance_weights(table, policy, config)
    signal = target * table.demand
    if config.self_normalize:
        return float((imp * signal).sum() / total)
    return float((imp * signal).sum() / table.weight.sum())


def ope_weight_diagnostics(records, policy,
                           config: OPEConfig | None = None) -> dict:
    """How much of the log the importance weights of :func:`ope_value` use.

    ``ess`` is the Kish effective sample size ``(sum imp)^2 / sum imp^2``,
    ``window_share`` the weighted share of records inside the kernel window
    (nonzero weight), ``max_weight_share`` the largest single weight over
    the summed weights.
    """
    config = config or OPEConfig()
    table = as_table(records).require("price", "demand")
    _, imp, total = _importance_weights(table, policy, config)
    w = table.weight
    return {"ess": total * total / float((imp * imp).sum()),
            "window_share": float(w[imp > 0.0].sum() / w.sum()),
            "max_weight_share": float(imp.max() / total)}


def ope_bootstrap_se(records, policy, config: OPEConfig | None = None,
                     n_boot: int = 200, seed: int = 0) -> float:
    """Bootstrap standard error of :func:`ope_value` over record resamples."""
    config = config or OPEConfig()
    table = as_table(records)
    rng = np.random.default_rng(seed)
    n = len(table)
    values = []
    for _ in range(n_boot):
        idx = rng.integers(0, n, size=n)
        try:
            values.append(ope_value(table.take(idx), policy, config))
        except EmptyWeightError:
            continue
    if len(values) < 2:
        raise EmptyWeightError("bootstrap produced no usable resamples")
    return float(np.std(np.asarray(values), ddof=1))


# ---------------------------------------------------------------------------
# off-policy linear policy search
# ---------------------------------------------------------------------------


@dataclass
class PolicySearchResult:
    policy: LinearPolicy
    value: float
    trace: list
    starts: int


def optimize_linear_policy(records, config: OPEConfig | None = None,
                           clip_lo: float | None = None,
                           clip_hi: float | None = None,
                           n_starts: int = 16, n_halvings: int = 6,
                           seed: int = 0) -> PolicySearchResult:
    """Maximize the OPE value over clipped linear pricing policies.

    Coordinate pattern search from multiple starts. The first starts are
    deterministic flat policies pinned at each observed price level (so the
    search result is never worse than the best constant policy); remaining
    starts draw random coefficients from ``seed``. Steps begin at 10% of the
    clip range and halve ``n_halvings`` times. Ties keep the earliest start.
    """
    config = config or OPEConfig()
    table = as_table(records).require()
    prices = np.unique(table.price[~np.isnan(table.price)]).tolist()
    if not prices:
        raise MissingFieldError("records carry no logged prices")
    lo = min(prices) if clip_lo is None else float(clip_lo)
    hi = max(prices) if clip_hi is None else float(clip_hi)
    dim = table.X.shape[1]

    def evaluate(vec):
        policy = LinearPolicy(theta=vec[1:], intercept=vec[0],
                              clip_lo=lo, clip_hi=hi)
        try:
            return ope_value(table, policy, config)
        except EmptyWeightError:
            return -math.inf

    rng = np.random.default_rng(seed)
    starts = [np.concatenate([[lvl], np.zeros(dim)]) for lvl in prices]
    while len(starts) < n_starts:
        vec = np.concatenate([
            [rng.uniform(lo, hi)],
            rng.normal(0.0, 0.25 * (hi - lo), size=dim)])
        starts.append(vec)
    starts = starts[:max(n_starts, len(prices))]

    step0 = 0.1 * (hi - lo)
    best_vec, best_val = None, -math.inf
    trace = []
    for si, start in enumerate(starts):
        vec = start.copy()
        val = evaluate(vec)
        step = step0
        for _ in range(n_halvings + 1):
            improved = True
            while improved:
                improved = False
                best_move, best_move_val = None, val
                for k in range(vec.size):
                    for sign in (1.0, -1.0):
                        cand = vec.copy()
                        cand[k] += sign * step
                        cand_val = evaluate(cand)
                        if cand_val > best_move_val + 1e-15:
                            best_move, best_move_val = cand, cand_val
                if best_move is not None:
                    vec, val = best_move, best_move_val
                    improved = True
            step *= 0.5
        trace.append({"start": si, "value": val})
        if val > best_val + 1e-12:
            best_vec, best_val = vec, val
    if best_vec is None or not math.isfinite(best_val):
        raise EmptyWeightError("no starting policy produced usable weights")
    policy = LinearPolicy(theta=best_vec[1:], intercept=float(best_vec[0]),
                          clip_lo=lo, clip_hi=hi)
    return PolicySearchResult(policy=policy, value=float(best_val),
                              trace=trace, starts=len(starts))
