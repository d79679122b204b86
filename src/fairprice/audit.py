"""Fairness audits over pricing records and fitted models.

Record-level metrics (mean-price gaps, distributional tests, take-up parity,
concordance bounds) work directly on observed data; the decomposition tools
explain *why* two pricing rules diverge through a first-order expansion of
their first-order conditions.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .demand import (
    PartiallyLinearDemand,
    RecordTable,
    as_table,
    demand_gradient,
    eval_demand,
)
from .errors import (
    DecompositionError,
    InvalidRecordError,
    MissingFieldError,
    NoComputableMetricError,
    NoQualifyingPairsError,
    PreconditionError,
)
from .optimize import PriceInterval, maximize_revenue_1d
from .util import json_dumps_stable


# ---------------------------------------------------------------------------
# report container
# ---------------------------------------------------------------------------


@dataclass
class AuditReport:
    """Bundle of audit metrics with stable serialization.

    ``metrics`` maps metric name to a value dict; metrics that could not be
    computed carry ``{"error": <code>}`` instead, and building a report in
    which nothing was computable raises.
    """

    n_records: int
    groups: tuple
    metrics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json_dumps_stable({
            "n_records": self.n_records,
            "groups": list(self.groups),
            "metrics": self.metrics,
        })

    def to_csv_rows(self) -> list:
        """Flatten to (metric, key, value) rows, header included."""
        rows = [("metric", "key", "value")]
        for name in sorted(self.metrics):
            value = self.metrics[name]
            if isinstance(value, dict):
                for key in sorted(value, key=str):
                    inner = value[key]
                    if isinstance(inner, dict):
                        for k2 in sorted(inner, key=str):
                            rows.append((name, f"{key}.{k2}", inner[k2]))
                    else:
                        rows.append((name, str(key), inner))
            else:
                rows.append((name, "", value))
        return rows


# ---------------------------------------------------------------------------
# record-level disparity metrics
# ---------------------------------------------------------------------------


def _weighted_mean(values, weights) -> float:
    # BLAS sums a dot product over strided columns in another order than over
    # contiguous arrays; taking it over the columns of one (n, 2) array keeps
    # the means bit-stable with the values these metrics have always reported
    pair = np.column_stack([values, weights])
    return float(pair[:, 0] @ pair[:, 1] / pair[:, 1].sum())


def marginal_price_disparity(records) -> dict:
    """Weighted mean offered price per group and the largest pairwise gap."""
    table = as_table(records).require("price")
    means = {}
    counts = {}
    for k, g in enumerate(table.labels):
        rows = table.codes == k
        means[g] = _weighted_mean(table.price[rows], table.weight[rows])
        counts[g] = int(rows.sum())
    values = list(means.values())
    return {
        "price_mean": means,
        "count": counts,
        "max_gap": float(max(values) - min(values)) if len(values) > 1 else 0.0,
    }


def _cumulative(values, weights):
    """``values`` sorted, and the running weight before each of them."""
    order = np.argsort(values, kind="stable")
    return values[order], np.concatenate([[0.0], np.cumsum(weights[order])])


def _weighted_ecdf_stat(x1, w1, x2, w2) -> float:
    pool = np.unique(np.concatenate([x1, x2]))
    ecdfs = []
    for x, w in ((x1, w1), (x2, w2)):
        ordered, cw = _cumulative(x, w)
        ecdfs.append(cw[np.searchsorted(ordered, pool, side="right")] / cw[-1])
    return float(np.max(np.abs(ecdfs[0] - ecdfs[1])))


def two_sample_distribution_test(x1, w1, x2, w2, alpha: float = 0.05) -> dict:
    """Two-sample Kolmogorov-Smirnov test with weighted ECDFs.

    The rejection threshold uses the asymptotic quantile
    ``sqrt(-ln(alpha/2)/2) * sqrt((n1+n2)/(n1 n2))`` with effective sample
    sizes ``(sum w)^2 / sum w^2``.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    w1 = np.asarray(w1, dtype=float)
    w2 = np.asarray(w2, dtype=float)
    if x1.size == 0 or x2.size == 0:
        raise MissingFieldError("both samples must be nonempty")
    stat = _weighted_ecdf_stat(x1, w1, x2, w2)
    n1 = float(w1.sum() ** 2 / (w1 ** 2).sum())
    n2 = float(w2.sum() ** 2 / (w2 ** 2).sum())
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    threshold = c * math.sqrt((n1 + n2) / (n1 * n2))
    return {
        "statistic": stat,
        "threshold": threshold,
        "reject": bool(stat > threshold),
        "alpha": alpha,
    }


def _two_groups(table: RecordTable, what: str) -> None:
    if len(table.labels) != 2:
        raise PreconditionError(
            f"{what} compares exactly two groups, got {len(table.labels)}")


def distributional_parity_stat(records, alpha: float = 0.05) -> dict:
    """KS distance between the two groups' offered-price distributions."""
    table = as_table(records).require("price")
    _two_groups(table, "distributional parity")
    a, b = table.codes == 0, table.codes == 1
    out = two_sample_distribution_test(
        table.price[a], table.weight[a], table.price[b], table.weight[b], alpha)
    out["groups"] = list(table.labels)
    return out


def _stratum_rows(table: RecordTable):
    """Yield ``(key, rows)`` per exact covariate stratum, in sorted order.

    ``rows`` holds one index array per group label, in record order.
    """
    n_groups = len(table.labels)
    strata, row_of = table.strata
    cell = row_of * n_groups + table.codes
    order = np.argsort(cell, kind="stable")
    bounds = np.searchsorted(cell[order],
                             np.arange(strata.shape[0] * n_groups + 1))
    for s, x in enumerate(strata):
        first = s * n_groups
        yield (str(tuple(x.tolist())),
               [order[bounds[first + k]:bounds[first + k + 1]]
                for k in range(n_groups)])


def conditional_parity_gap(records) -> dict:
    """Mean-price gap between groups within each exact covariate stratum.

    Strata where some group is absent are skipped; the summary value is the
    largest absolute within-stratum gap. Raises when no stratum is computable.
    """
    table = as_table(records).require("price")
    _two_groups(table, "conditional parity")
    per_stratum = {}
    for key, (a, b) in _stratum_rows(table):
        if a.size and b.size:
            per_stratum[key] = (
                _weighted_mean(table.price[a], table.weight[a])
                - _weighted_mean(table.price[b], table.weight[b]))
    if not per_stratum:
        raise NoComputableMetricError(
            "no covariate stratum contains both groups")
    max_abs = max(abs(v) for v in per_stratum.values())
    return {"groups": list(table.labels), "per_stratum": per_stratum,
            "max_abs_gap": float(max_abs)}


def takeup_conditional_parity(records, alpha: float = 0.05) -> dict:
    """Per-stratum KS test on prices *among purchasers*.

    A stratum with no purchases at all reports ``None``; a stratum where
    purchases exist but one group has none is an error, because silently
    skipping it would hide exactly the asymmetric take-up the metric is
    meant to expose.
    """
    table = as_table(records).require("price", "demand")
    _two_groups(table, "take-up parity")
    bought = table.demand > 0.0
    p, w = table.price, table.weight
    out = {}
    worst = 0.0
    for key, rows in _stratum_rows(table):
        a, b = (r[bought[r]] for r in rows)
        if not (a.size or b.size):
            out[key] = None
            continue
        if not (a.size and b.size):
            raise NoComputableMetricError(
                f"stratum {key}: purchases exist but not for every group")
        test = two_sample_distribution_test(p[a], w[a], p[b], w[b], alpha)
        out[key] = test["statistic"]
        worst = max(worst, test["statistic"])
    return {"groups": list(table.labels), "per_stratum": out,
            "max_statistic": worst, "alpha": alpha}


def access_metrics(records=None, policy=None, model=None, population=None) -> dict:
    """Per-group take-up and mean price, empirical or model-implied.

    Pass ``records`` alone for the empirical version (observed demand), or
    the ``policy``+``model``+``population`` triple for the model-implied
    version. Model-implied take-up is reported on the model's own scale,
    without clamping. Mixing the two input styles is rejected.
    """
    empirical = records is not None
    implied = policy is not None or model is not None or population is not None
    if empirical and implied:
        raise MissingFieldError(
            "pass records alone or policy+model+population, not both")
    out = {}
    if empirical:
        table = as_table(records).require("price", "demand")
        for k, g in enumerate(table.labels):
            rows = table.codes == k
            w = table.weight[rows]
            out[g] = {
                "access": _weighted_mean(table.demand[rows], w),
                "price_mean": _weighted_mean(table.price[rows], w),
                "weight": float(w.sum()),
            }
        return out
    if policy is None or model is None or population is None:
        raise MissingFieldError(
            "model-implied access needs policy, model, and population")
    _, _, stats = population.cells().evaluate(policy, model)
    for g, (mass, dsum, psum) in zip(population.groups, stats):
        if mass > 0.0:
            out[g] = {"access": dsum / mass, "price_mean": psum / mass,
                      "weight": mass}
    return out


# ---------------------------------------------------------------------------
# concordance pair estimators
# ---------------------------------------------------------------------------


def _group_pairs(table: RecordTable):
    """Row indices of every pair of distinct groups, in label order."""
    members = [np.flatnonzero(table.codes == k)
               for k in range(len(table.labels))]
    return itertools.combinations(members, 2)


def _price_masses(query, prices, weights):
    """Weight of ``prices`` strictly below, tied with, and strictly above
    each ``query`` price."""
    ordered, cw = _cumulative(prices, weights)
    below = cw[np.searchsorted(ordered, query, side="left")]
    upto = cw[np.searchsorted(ordered, query, side="right")]
    return below, upto - below, cw[-1] - upto


def _dominating_mass(q_rev, q_val, d_rev, d_val, d_weight):
    """Per query, the data weight strictly higher in price and in valuation.

    Inputs are dense integer ranks, prices reversed (``rev = top - rank``),
    so "higher price" is the prefix ``d_rev < q_rev``. That prefix splits
    into one dyadic block per set bit of ``q_rev``; per bit level, one sort
    of the data by (block, valuation rank) and two ``searchsorted`` calls sum
    each query's block above its valuation. O(n log^2 n).
    """
    span = int(max(q_val.max(), d_val.max())) + 1
    out = np.zeros(q_rev.size)
    level = 0
    while (1 << level) <= q_rev.max():
        hit = ((q_rev >> level) & 1) == 1
        keys, cw = _cumulative((d_rev >> level) * span + d_val, d_weight)
        block = (q_rev[hit] >> level) - 1
        start = np.searchsorted(keys, block * span + q_val[hit], side="right")
        end = np.searchsorted(keys, (block + 1) * span, side="left")
        out[hit] += cw[end] - cw[start]
        level += 1
    return out


def concordance_lower_bound(records) -> dict:
    """Observable lower bound on cross-group valuation concordance.

    Over cross-group record pairs with strictly different prices, counts the
    share where the cheaper offer was declined and the pricier one accepted:
    whenever demand comes from a threshold rule on latent valuations, that
    pattern certifies the pricier buyer valued the product more, so the
    share can never exceed the true concordance rate. Pairs with tied prices
    are excluded and reported.
    """
    table = as_table(records).require("price", "demand")
    p, d, w = table.price, table.demand, table.weight
    nonbinary = np.flatnonzero((d != 0.0) & (d != 1.0))
    if nonbinary.size:
        raise InvalidRecordError(f"record {table.ids[nonbinary[0]]}: demand "
                                 "must be 0 or 1 for pair metrics")
    qualifying = certified = tied = total = 0.0
    for a, b in _group_pairs(table):
        below, same, above = _price_masses(p[a], p[b], w[b])
        qualifying += float(w[a] @ (below + above))
        tied += float(w[a] @ same)
        total += float(w[a].sum() * w[b].sum())
        # a declined below a purchase in b, or purchased above a decline in b
        skip_a, buy_a = a[d[a] == 0.0], a[d[a] == 1.0]
        skip_b, buy_b = b[d[b] == 0.0], b[d[b] == 1.0]
        _, _, above_buy = _price_masses(p[skip_a], p[buy_b], w[buy_b])
        below_skip, _, _ = _price_masses(p[buy_a], p[skip_b], w[skip_b])
        certified += float(w[skip_a] @ above_buy) + float(w[buy_a] @ below_skip)
    if qualifying <= 0.0:
        raise NoQualifyingPairsError(
            "no cross-group pair has strictly different prices")
    return {
        "bound": certified / qualifying,
        "qualifying_pairs": qualifying,
        "excluded_ties": tied,
        "total_pairs": total,
    }


def concordance_oracle(records) -> dict:
    """True cross-group concordance rate, computable only with valuations.

    Among cross-group pairs with strictly different prices, the share where
    the higher-priced record also has the strictly higher valuation.
    """
    table = as_table(records).require("price", "valuation")
    p, w = table.price, table.weight
    levels, rank = np.unique(p, return_inverse=True)
    rev = levels.size - 1 - rank.reshape(-1)
    val = np.unique(table.valuation, return_inverse=True)[1].reshape(-1)
    qualifying = concordant = 0.0
    for a, b in _group_pairs(table):
        below, _, above = _price_masses(p[a], p[b], w[b])
        qualifying += float(w[a] @ (below + above))
        concordant += float(
            w[a] @ _dominating_mass(rev[a], val[a], rev[b], val[b], w[b])
            + w[b] @ _dominating_mass(rev[b], val[b], rev[a], val[a], w[a]))
    if qualifying <= 0.0:
        raise NoQualifyingPairsError(
            "no cross-group pair has strictly different prices")
    return {"concordance": concordant / qualifying,
            "qualifying_pairs": qualifying}


# ---------------------------------------------------------------------------
# price-gap decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecompositionReport:
    """First-order account of why two pricing rules post different prices.

    The gap ``price_estimated - price_true`` is predicted by
    ``-(T1 + p_true (T2 + T3)) / (grad_est(p_est) + grad_est(p_true))`` where
    T1 is the demand-level error at the true optimum, T2 the slope error
    there, and T3 the slope shift of the estimated curve between the two
    optima. When all three terms share a sign the gap direction is certain;
    otherwise it is reported indeterminate.
    """

    price_true: float
    price_estimated: float
    gap: float
    predicted_gap: float
    residual: float
    term_level: float
    term_slope_error: float
    term_slope_shift: float
    denominator: float
    sign: str


def _decompose_curves(curve_est, grad_est, curve_true, interval, t3_tol=1e-12):
    """Solve both pricing problems and return (t1, t3, p_est, p_true, den)."""
    p_est, _ = maximize_revenue_1d(curve_est, interval)
    p_true, _ = maximize_revenue_1d(curve_true, interval)
    grad_est_at_true = grad_est(p_true)
    grad_est_at_est = grad_est(p_est)
    t3 = grad_est_at_est - grad_est_at_true
    if abs(t3) < t3_tol:
        raise DecompositionError(
            "estimated demand slope does not move between the two optima; "
            "the decomposition is inapplicable (e.g. linear estimated demand)")
    t1 = curve_est(p_true) - curve_true(p_true)
    denominator = grad_est_at_est + grad_est_at_true
    return t1, t3, p_est, p_true, denominator


def _finish_decomposition(t1, t2, t3, p_est, p_true, denominator):
    predicted = -(t1 + p_true * (t2 + t3)) / denominator
    gap = p_est - p_true
    terms = (t1, t2, t3)
    if all(t > 0.0 for t in terms):
        sign = "positive"
    elif all(t < 0.0 for t in terms):
        sign = "negative"
    else:
        sign = "indeterminate"
    return DecompositionReport(
        price_true=float(p_true), price_estimated=float(p_est),
        gap=float(gap), predicted_gap=float(predicted),
        residual=float(gap - predicted), term_level=float(t1),
        term_slope_error=float(t2), term_slope_shift=float(t3),
        denominator=float(denominator), sign=sign)


def suboptimality_decomposition(estimated, true, x, group,
                                interval: PriceInterval) -> DecompositionReport:
    """Decompose the price gap caused by optimizing an estimated demand curve.

    ``estimated`` and ``true`` are demand models; both revenue problems are
    solved on ``interval`` and the gap between their optima is explained by
    the level error, slope error, and slope shift of the estimated curve.
    Linear estimated demand (constant slope) is rejected: its slope-shift
    term is identically zero and the expansion degenerates.
    """
    if isinstance(estimated, PartiallyLinearDemand):
        raise DecompositionError(
            "estimated demand is linear in price; slope-shift term vanishes")

    curve_est = partial(eval_demand, estimated, x, group)
    curve_true = partial(eval_demand, true, x, group)
    grad_est = partial(demand_gradient, estimated, x, group)
    t1, t3, p_est, p_true, den = _decompose_curves(
        curve_est, grad_est, curve_true, interval)
    t2 = grad_est(p_true) - demand_gradient(true, x, group, p_true)
    return _finish_decomposition(t1, t2, t3, p_est, p_true, den)


def attribute_gap_decomposition(model, population, x_index: int, group: str,
                                interval: PriceInterval | None = None
                                ) -> DecompositionReport:
    """Explain the gap between group-aware and group-blind prices at a point.

    The group-aware pricer sees ``D(p | x, a)``; the blind pricer sees the
    membership mixture ``sum_g P(g|x) D(p | x, g)``. Treating the group-aware
    curve as the 'estimate' of the mixture, the same expansion attributes
    their price gap to level, slope, and slope-shift differences. Needs a
    curved demand family.
    """
    if isinstance(model, PartiallyLinearDemand):
        raise DecompositionError(
            "attribute gap decomposition needs a curved demand family")
    if population.support is None or population.membership is None:
        raise MissingFieldError("population needs a support with membership")
    x = population.support[x_index]
    mixture = {g: float(population.membership[x_index, k])
               for k, g in enumerate(population.groups)}
    if interval is None:
        centers = [model.location(x, g) if hasattr(model, "location") else 0.0
                   for g in population.groups]
        spread = getattr(model, "scale", 1.0)
        hi = max(max(centers) + 10.0 * spread, 10.0 * spread)
        interval = PriceInterval(0.0, float(hi))

    curve_est = partial(eval_demand, model, x, group)
    curve_true = partial(eval_demand, model, x, mixture)
    grad_est = partial(demand_gradient, model, x, group)
    t1, t3, p_est, p_true, den = _decompose_curves(
        curve_est, grad_est, curve_true, interval)
    t2 = grad_est(p_true) - demand_gradient(model, x, mixture, p_true)
    return _finish_decomposition(t1, t2, t3, p_est, p_true, den)


# ---------------------------------------------------------------------------
# audit driver
# ---------------------------------------------------------------------------


#: every metric run_audit knows, in report order
AUDIT_METRIC_NAMES = (
    "marginal_price_disparity",
    "distributional_parity",
    "conditional_parity_gap",
    "takeup_conditional_parity",
    "access",
    "concordance_lower_bound",
    "concordance_oracle",
)


def run_audit(records, alpha: float = 0.05, metrics=None) -> AuditReport:
    """Run record-level audit metrics, tolerating per-metric failures.

    ``metrics`` selects a subset of ``AUDIT_METRIC_NAMES`` (default all).
    Metrics that cannot be computed from the given records are reported as
    ``{"error": <code>}``. If nothing at all is computable the audit raises.
    """
    table = as_table(records)
    attempts = {
        "marginal_price_disparity": lambda: marginal_price_disparity(table),
        "distributional_parity": lambda: distributional_parity_stat(table, alpha),
        "conditional_parity_gap": lambda: conditional_parity_gap(table),
        "takeup_conditional_parity": lambda: takeup_conditional_parity(table, alpha),
        "access": lambda: access_metrics(records=table),
        "concordance_lower_bound": lambda: concordance_lower_bound(table),
        "concordance_oracle": lambda: concordance_oracle(table),
    }
    selected = AUDIT_METRIC_NAMES if metrics is None else tuple(metrics)
    unknown = [m for m in selected if m not in attempts]
    if unknown:
        raise MissingFieldError(
            f"unknown audit metric(s) {unknown}; "
            f"choose from {list(AUDIT_METRIC_NAMES)}")
    metrics = {}
    computed = 0
    from .errors import FairPriceError

    for name in selected:
        try:
            metrics[name] = attempts[name]()
            computed += 1
        except FairPriceError as exc:
            metrics[name] = {"error": exc.code}
    if computed == 0:
        raise NoComputableMetricError(
            "none of the audit metrics could be computed from these records")
    return AuditReport(n_records=len(table), groups=table.labels,
                       metrics=metrics)
