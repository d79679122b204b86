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

import numpy as np

from .demand import (
    LatentValuationModel,
    LogisticDemand,
    PartiallyLinearDemand,
    RecordTable,
)
from .errors import (
    ConfigError,
    DecompositionError,
    FairPriceError,
    InvalidRecordError,
    MissingFieldError,
    NoComputableMetricError,
    NoQualifyingPairsError,
    PreconditionError,
)
from .optimize import PriceInterval, maximize_rows
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
            for key in sorted(value, key=str):
                inner = value[key]
                if isinstance(inner, dict):
                    for k2 in sorted(inner, key=str):
                        rows.append((name, f"{key}.{k2}", inner[k2]))
                else:
                    rows.append((name, str(key), inner))
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


def marginal_price_disparity(records: RecordTable) -> dict:
    """Weighted mean offered price per group and the largest pairwise gap."""
    table = records.require("price")
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


def check_alpha(alpha) -> None:
    """Raise MissingFieldError unless ``0 < alpha < 1``; nan fails too."""
    if not (0.0 < alpha < 1.0):
        raise MissingFieldError("alpha must lie strictly between 0 and 1")


def two_sample_distribution_test(x1, w1, x2, w2, alpha: float = 0.05) -> dict:
    """Two-sample Kolmogorov-Smirnov test with weighted ECDFs.

    The rejection threshold uses the asymptotic quantile
    ``sqrt(-ln(alpha/2)/2) * sqrt((n1+n2)/(n1 n2))`` with effective sample
    sizes ``(sum w)^2 / sum w^2``.
    """
    check_alpha(alpha)
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


def distributional_parity_stat(records: RecordTable,
                               alpha: float = 0.05) -> dict:
    """KS distance between the two groups' offered-price distributions."""
    table = records.require("price")
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


def conditional_parity_gap(records: RecordTable) -> dict:
    """Mean-price gap between groups within each exact covariate stratum.

    Strata where some group is absent are skipped; the summary value is the
    largest absolute within-stratum gap. Raises when no stratum is computable.
    """
    table = records.require("price")
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


def takeup_conditional_parity(records: RecordTable,
                              alpha: float = 0.05) -> dict:
    """Per-stratum KS test on prices *among purchasers*.

    A stratum with no purchases at all reports ``None``; a stratum where
    purchases exist but one group has none is an error, because silently
    skipping it would hide exactly the asymmetric take-up the metric is
    meant to expose.
    """
    table = records.require("price", "demand")
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


def access_metrics(records: RecordTable) -> dict:
    """Per-group take-up (observed demand), mean price and weight of the
    records. The model-implied version under a policy is the ``by_group``
    item of ``population.cells().evaluate(policy, model)``."""
    table = records.require("price", "demand")
    out = {}
    for k, g in enumerate(table.labels):
        rows = table.codes == k
        w = table.weight[rows]
        out[g] = {
            "access": _weighted_mean(table.demand[rows], w),
            "price_mean": _weighted_mean(table.price[rows], w),
            "weight": float(w.sum()),
        }
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


def concordance_lower_bound(records: RecordTable) -> dict:
    """Observable lower bound on cross-group valuation concordance.

    Over cross-group record pairs with strictly different prices, counts the
    share where the cheaper offer was declined and the pricier one accepted:
    whenever demand comes from a threshold rule on latent valuations, that
    pattern certifies the pricier buyer valued the product more, so the
    share can never exceed the true concordance rate. Pairs with tied prices
    are excluded and reported.
    """
    table = records.require("price", "demand")
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


def concordance_oracle(records: RecordTable) -> dict:
    """True cross-group concordance rate, computable only with valuations.

    Among cross-group pairs with strictly different prices, the share where
    the higher-priced record also has the strictly higher valuation.
    """
    table = records.require("price", "valuation")
    p, w = table.price, table.weight
    levels, rank = table.price_levels
    rev = levels.size - 1 - rank
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


def _customer(model, x, group):
    """``kernels(p, *kinds)``: the named kernels of ``model`` at prices ``p``
    (one price, or a (1, m) grid) for the customer at covariates ``x`` in
    ``group``, a label or a {label: weight} mixture. A mixture adds ``w *
    kernel`` in its order, starting from zeros; logistic demand takes no
    group."""
    mixture = isinstance(group, dict) and not isinstance(model, LogisticDemand)
    groups = tuple(group) if mixture else (group,)
    X = np.tile(np.asarray(x, dtype=float).reshape(-1), (len(groups), 1))
    terms = model.row_terms(X, np.arange(len(groups)), groups)

    def kernels(p, *kinds):
        values = model.kernels(terms, p, *kinds)
        if not mixture:
            return [v[0] for v in values]
        return [sum((w * v[j] for j, w in enumerate(group.values())),
                    np.zeros(v.shape[1:])) for v in values]
    return kernels


def _decompose(estimated, est_group, true, true_group, x, interval):
    """Solve both pricing problems at ``x`` and decompose their price gap."""
    est, tru = _customer(estimated, x, est_group), _customer(true, x, true_group)
    p_est, p_true = (
        float(maximize_rows(lambda rows, p: p * side(p, "demand")[0], 1,
                            interval)[0][0]) for side in (est, tru))
    d_est, grad_est_at_true = map(float, est(p_true, "demand", "gradient"))
    d_true, grad_true = map(float, tru(p_true, "demand", "gradient"))
    grad_est_at_est = float(est(p_est, "gradient")[0])
    t3 = grad_est_at_est - grad_est_at_true
    if abs(t3) < 1e-12:
        raise DecompositionError(
            "estimated demand slope does not move between the two optima; "
            "the decomposition is inapplicable (e.g. linear estimated demand)")
    t1 = d_est - d_true
    t2 = grad_est_at_true - grad_true
    denominator = grad_est_at_est + grad_est_at_true
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
    return _decompose(estimated, group, true, group, x, interval)


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
    x = population.support_point(x_index)
    mixture = {g: float(population.membership[x_index, k])
               for k, g in enumerate(population.groups)}
    if interval is None:
        groups = population.groups
        centers = (model.location_rows(np.tile(x, (len(groups), 1)),
                                       np.arange(len(groups)), groups).tolist()
                   if isinstance(model, LatentValuationModel) else [0.0])
        spread = getattr(model, "scale", 1.0)
        hi = max(max(centers) + 10.0 * spread, 10.0 * spread)
        interval = PriceInterval(0.0, float(hi))
    return _decompose(model, group, model, mixture, x, interval)


# ---------------------------------------------------------------------------
# audit driver
# ---------------------------------------------------------------------------


#: every metric run_audit knows, in report order: name -> metric of
#: ``(records, alpha)``. Each lambda looks its function up when called, so a
#: wrapper installed in the module namespace still sees the call.
_AUDIT_METRICS = {
    "marginal_price_disparity": lambda r, a: marginal_price_disparity(r),
    "distributional_parity": lambda r, a: distributional_parity_stat(r, a),
    "conditional_parity_gap": lambda r, a: conditional_parity_gap(r),
    "takeup_conditional_parity": lambda r, a: takeup_conditional_parity(r, a),
    "access": lambda r, a: access_metrics(records=r),
    "concordance_lower_bound": lambda r, a: concordance_lower_bound(r),
    "concordance_oracle": lambda r, a: concordance_oracle(r),
}
AUDIT_METRIC_NAMES = tuple(_AUDIT_METRICS)


def check_metrics(metrics=None) -> tuple:
    """The audit metrics named by ``metrics``, every one for None;
    ConfigError for an unknown name or an empty selection."""
    selected = AUDIT_METRIC_NAMES if metrics is None else tuple(metrics)
    unknown = [m for m in selected if m not in _AUDIT_METRICS]
    if unknown or not selected:
        raise ConfigError(f"unknown audit metric(s) {unknown} or none "
                          f"selected; choose from {list(AUDIT_METRIC_NAMES)}")
    return selected


def run_audit(records: RecordTable, alpha: float = 0.05,
              metrics=None) -> AuditReport:
    """Run record-level audit metrics, tolerating per-metric failures.

    ``metrics`` selects a nonempty subset of ``AUDIT_METRIC_NAMES``
    (default all; see :func:`check_metrics`).
    Metrics that cannot be computed from the given records are reported as
    ``{"error": <code>}``. If nothing at all is computable the audit raises.
    A significance level ``alpha`` outside (0, 1) raises before any metric
    runs.
    """
    check_alpha(alpha)
    selected = check_metrics(metrics)
    metrics = {}
    computed = 0
    for name in selected:
        try:
            metrics[name] = _AUDIT_METRICS[name](records, alpha)
            computed += 1
        except FairPriceError as exc:
            metrics[name] = {"error": exc.code}
    if computed == 0:
        raise NoComputableMetricError(
            "none of the audit metrics could be computed from these records")
    return AuditReport(n_records=len(records), groups=records.labels,
                       metrics=metrics)
