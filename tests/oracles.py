"""Independent reference implementations used to check the library.

Everything here is deliberately brute force -- dense grids, double loops,
bisection -- and shares no code or algebra with the package internals. Where
the library uses a closed form, the oracle searches; where the library
vectorizes pair enumeration, the oracle loops.
"""

from __future__ import annotations

import numpy as np


def grid_argmax(f, lo, hi, n=200_001):
    """Dense-grid maximizer of a scalar function, refined once."""
    grid = np.linspace(lo, hi, n)
    vals = np.array([f(p) for p in grid])
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n - 1)]
    fine = np.linspace(a, b, 2001)
    fvals = np.array([f(p) for p in fine])
    j = int(np.argmax(fvals))
    return float(fine[j]), float(fvals[j])


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


# ---------------------------------------------------------------------------
# parity pricing oracle: Lagrangian grid search + bisection on the multiplier
# ---------------------------------------------------------------------------


def _cell_argmax_grid(intercept, slope, penalty, lo, hi, n=8001):
    """Grid maximizer of p*(intercept + slope*p) - penalty*p on [lo, hi]."""
    grid = np.linspace(lo, hi, n)
    vals = grid * (intercept + slope * grid) - penalty * grid
    k = int(np.argmax(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, n - 1)]
    fine = np.linspace(a, b, 801)
    fvals = fine * (intercept + slope * fine) - penalty * fine
    return float(fine[int(np.argmax(fvals))])


def _parity_oracle_core(weights, intercepts, slopes, contrasts, gamma):
    """Maximize sum_k w_k p_k (i_k + s_k p_k) s.t. |sum_k w_k c_k p_k| <= gamma.

    Pure numeric: for a trial multiplier each cell price is found by grid
    search over the Lagrangian; the multiplier is bisected until the signed
    disparity meets the (oriented) cap. Concavity of the objective and
    linearity of the constraint make the dual search exact up to grid error.
    Returns (prices, revenue, disparity).
    """
    weights = np.asarray(weights, dtype=float)
    intercepts = np.asarray(intercepts, dtype=float)
    slopes = np.asarray(slopes, dtype=float)
    contrasts = np.asarray(contrasts, dtype=float)
    p0 = -intercepts / (2.0 * slopes)
    span = 10.0 * max(1.0, float(np.max(np.abs(p0))))
    lo = float(np.min(p0)) - span
    hi = float(np.max(p0)) + span

    def prices_at(lam):
        return np.array([
            _cell_argmax_grid(intercepts[k], slopes[k], lam * contrasts[k],
                              lo, hi)
            for k in range(weights.size)])

    def disparity(prices):
        return float(np.sum(weights * contrasts * prices))

    def revenue(prices):
        return float(np.sum(weights * prices * (intercepts + slopes * prices)))

    base = prices_at(0.0)
    d0 = disparity(base)
    sign = 1.0 if d0 >= 0.0 else -1.0
    if abs(d0) <= gamma:
        return base, revenue(base), d0
    # bisect lam >= 0 against the oriented disparity sign*d(lam) - gamma
    lam_lo, lam_hi = 0.0, 1.0
    for _ in range(200):
        trial = prices_at(sign * lam_hi)
        if sign * disparity(trial) <= gamma:
            break
        lam_hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lam_lo + lam_hi)
        trial = prices_at(sign * mid)
        if sign * disparity(trial) > gamma:
            lam_lo = mid
        else:
            lam_hi = mid
    final = prices_at(sign * lam_hi)
    return final, revenue(final), disparity(final)


def oracle_attribute_parity(dbar, beta, joint, xi, gamma):
    """Brute-force attribute-based parity prices.

    dbar: (m, 2) baselines; beta: (2,) slopes; joint: (m, 2) cell masses;
    xi: (2,) signed inverse-prior weights; gamma: cap.
    Returns (prices (m,2), revenue, disparity).
    """
    m = dbar.shape[0]
    weights, intercepts, slopes, contrasts = [], [], [], []
    for i in range(m):
        for k in range(2):
            weights.append(joint[i, k])
            intercepts.append(dbar[i, k])
            slopes.append(beta[k])
            contrasts.append(xi[k])
    prices, revenue, disparity = _parity_oracle_core(
        weights, intercepts, slopes, contrasts, gamma)
    return prices.reshape(m, 2), revenue, disparity


def oracle_blind_parity(dbar_x, betabar, m_x, masses, gamma):
    """Brute-force attribute-blind parity prices (one price per point)."""
    prices, revenue, disparity = _parity_oracle_core(
        masses, dbar_x, betabar, m_x, gamma)
    return prices, revenue, disparity


# ---------------------------------------------------------------------------
# pair statistics by double loop
# ---------------------------------------------------------------------------


def loop_concordance_bound(prices, demands, groups, weights=None):
    """O(n^2) python-loop version of the cross-group concordance bound."""
    n = len(prices)
    if weights is None:
        weights = [1.0] * n
    qualifying = 0.0
    certified = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if groups[i] == groups[j]:
                continue
            if prices[i] == prices[j]:
                continue
            w = weights[i] * weights[j]
            lo, hi = (i, j) if prices[i] < prices[j] else (j, i)
            qualifying += w
            if demands[lo] == 0.0 and demands[hi] == 1.0:
                certified += w
    return certified, qualifying


def loop_concordance_oracle(prices, valuations, groups, weights=None):
    """O(n^2) python-loop true concordance among qualifying pairs."""
    n = len(prices)
    if weights is None:
        weights = [1.0] * n
    qualifying = 0.0
    concordant = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            if groups[i] == groups[j]:
                continue
            if prices[i] == prices[j]:
                continue
            w = weights[i] * weights[j]
            lo, hi = (i, j) if prices[i] < prices[j] else (j, i)
            qualifying += w
            if valuations[lo] < valuations[hi]:
                concordant += w
    return concordant, qualifying


def loop_ks_statistic(x1, x2):
    """Unweighted two-sample KS distance by direct ECDF comparison."""
    pool = sorted(set(list(x1) + list(x2)))
    n1, n2 = len(x1), len(x2)
    worst = 0.0
    for t in pool:
        f1 = sum(1 for v in x1 if v <= t) / n1
        f2 = sum(1 for v in x2 if v <= t) / n2
        worst = max(worst, abs(f1 - f2))
    return worst


def loop_weighted_mean(values, weights):
    num = sum(v * w for v, w in zip(values, weights))
    den = sum(weights)
    return num / den


# ---------------------------------------------------------------------------
# population-cell loops: one price and demand call per cell
# ---------------------------------------------------------------------------
#
# Cell-by-cell reference loops, one customer at a time (``one_price``,
# ``customer``, ``formula_baseline`` and the like) and accumulating in
# cell order, so an array path that keeps the order matches them bit for bit.

import fairprice as fp  # noqa: E402
from tables import customer, one_customer, one_price  # noqa: E402

_GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0


def loop_cells(population):
    """``(mass, support index or None, group, x)`` per positive-mass cell."""
    if population.support is not None and population.membership is not None:
        joint = population.joint_weights()
        return [(float(joint[i, k]), i, g, population.support[i])
                for i in range(population.support.shape[0])
                for k, g in enumerate(population.groups)
                if joint[i, k] > 0.0]
    records = population.records
    total = sum(records.weight.tolist())
    return [(w / total, None, records.labels[c], x)
            for w, c, x in zip(records.weight.tolist(), records.codes.tolist(),
                               records.X)]


def loop_expected_revenue(policy, model, population):
    total = 0.0
    for w, _, g, x in loop_cells(population):
        p = one_price(policy, x, g)
        total += w * p * one_customer(model, x, g, p)
    return total


def loop_access(policy, model, population):
    stats = {g: [0.0, 0.0, 0.0] for g in population.groups}
    for w, _, g, x in loop_cells(population):
        p = one_price(policy, x, g)
        d = one_customer(model, x, g, p)
        stats[g][0] += w
        stats[g][1] += w * d
        stats[g][2] += w * p
    return {g: {"access": s[1] / s[0], "price_mean": s[2] / s[0],
                "weight": s[0]}
            for g, s in stats.items() if s[0] > 0.0}


def loop_policy_disparity(policy, population):
    joint = population.joint_weights()
    means = []
    for k, g in enumerate(population.groups):
        w = joint[:, k]
        prices = np.array([one_price(policy, x, g) for x in population.support])
        means.append(float(w @ prices / w.sum()))
    return means[0] - means[1]


def loop_golden_max(f, lo, hi, tol):
    a, b = float(lo), float(hi)
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return max([(x, f(x)), (lo, f(lo)), (hi, f(hi))], key=lambda t: t[1])


def loop_maximize_revenue(curve, lo, hi, grid_n, shift, tol=1e-8):
    """Grid then golden section, one ``curve`` call per price."""
    def objective(p):
        return (p - shift) * curve(p)

    grid = np.linspace(lo, hi, grid_n)
    vals = np.array([objective(p) for p in grid])
    assert np.any(vals > 0.0)
    k = int(np.argmax(vals))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, grid.size - 1)]
    if a == b:
        return float(grid[k])
    return loop_golden_max(objective, a, b, tol)[0]


def loop_share_price(model, x, group, ell):
    """Subsidized-revenue price: 2001-point grid, one demand call per point,
    then safeguarded Newton on the first-order condition."""
    if isinstance(model, fp.PartiallyLinearDemand):
        beta = float(model.beta[group])
        return -formula_baseline(model, x, group) / (2.0 * beta) - ell / 2.0
    if isinstance(model, fp.LatentValuationModel):
        center, spread = formula_location(model, x, group), model.scale
    else:
        spread = 1.0 / abs(model.beta)
        x = np.asarray(x, dtype=float)
        center = max(-(model.gamma @ x + model.intercept) / model.beta, 0.0)
    lo_min = max(0.0, -ell) + (1e-9 if ell < 0.0 else 0.0)
    kernel = customer(model, x, group)

    def objective(p):
        return (p + ell) * kernel(p)

    def foc(p):
        return kernel(p) + (p + ell) * kernel(p, "gradient")

    grid = np.linspace(lo_min, max(center + 10.0 * spread,
                                   lo_min + 10.0 * spread), 2001)
    p0 = float(grid[int(np.argmax([objective(p) for p in grid]))])
    lo, hi = max(lo_min, p0 - 10.0 * spread), p0 + 10.0 * spread
    fa = foc(lo)
    if fa * foc(hi) > 0.0:
        return float(loop_golden_max(objective, lo, hi, 1e-10)[0])
    a, b = lo, hi
    p = p0 if lo < p0 < hi else 0.5 * (a + b)
    for _ in range(200):
        fp_ = foc(p)
        if fp_ == 0.0:
            return float(p)
        if (fp_ > 0.0) == (fa > 0.0):
            a, fa = p, fp_
        else:
            b = p
        if b - a < 1e-12 * max(1.0, abs(p)):
            return float(0.5 * (a + b))
        slope = (2.0 * kernel(p, "gradient")
                 + (p + ell) * kernel(p, "curvature"))
        if slope != 0.0 and a < p - fp_ / slope < b:
            p = p - fp_ / slope
            continue
        p = 0.5 * (a + b)
    raise AssertionError("no convergence")


def loop_share_frontier(model, population, weights, scope="population",
                        group=None):
    rows = []
    for wt in weights:
        penalty = fp.SharePenalty(weight=float(wt), scope=scope, group=group)
        stats = {g: [0.0, 0.0, 0.0, 0.0] for g in population.groups}
        for m, _, g, x in loop_cells(population):
            p = loop_share_price(model, x, g,
                                 penalty.effective(population.rho, g))
            d = one_customer(model, x, g, p)
            acc = stats[g]
            acc[0] += m
            acc[1] += m * p
            acc[2] += m * d
            acc[3] += m * p * d
        rows += [{"weight": float(wt), "group": g, "price_mean": s[1] / s[0],
                  "access": s[2] / s[0], "revenue": s[3] / s[0]}
                 for g, s in stats.items() if s[0] > 0.0]
    return rows


def loop_pricing_experiment(model, population, lo, hi, grid_n=4096,
                            cost=0.0):
    """Uniform, per-group and per-cell prices, then revenue, margin, access
    and mean price per scheme; histograms are left out."""
    cells = loop_cells(population)
    demand = [customer(model, x, g) for _, _, g, x in cells]

    def curve_of(members):
        return lambda p: sum(cells[j][0] * demand[j](p) for j in members)

    prices = {"uniform": {}, "group": {}, "personalized": {}}
    uniform = loop_maximize_revenue(curve_of(range(len(cells))), lo, hi,
                                    grid_n, cost)
    for g in sorted({c[2] for c in cells}):
        members = [j for j, c in enumerate(cells) if c[2] == g]
        prices["group"][g] = loop_maximize_revenue(curve_of(members), lo, hi,
                                                   grid_n, cost)
    for j, (_, _, g, x) in enumerate(cells):
        key = (tuple(float(v) for v in x), g)
        if key not in prices["personalized"]:
            prices["personalized"][key] = loop_maximize_revenue(
                demand[j], lo, hi, grid_n, cost)
    price_of = {
        "uniform": lambda x, g: uniform,
        "group": lambda x, g: prices["group"][g],
        "personalized": lambda x, g: prices["personalized"][
            (tuple(float(v) for v in x), g)],
    }
    report = {}
    for mode, rule in price_of.items():
        revenue = margin = 0.0
        stats = {}
        for (w, _, g, x), kernel in zip(cells, demand):
            p = rule(x, g)
            d = kernel(p)
            revenue += w * p * d
            margin += w * (p - cost) * d
            acc = stats.setdefault(g, [0.0, 0.0, 0.0])
            acc[0] += w
            acc[1] += w * d
            acc[2] += w * p
        report[mode] = {
            "revenue": revenue, "margin": margin,
            "access": {g: s[1] / s[0] for g, s in sorted(stats.items())},
            "price_mean": {g: s[2] / s[0] for g, s in sorted(stats.items())}}
    return report


# ---------------------------------------------------------------------------
# per-family demand formulas, one customer and one price at a time
# ---------------------------------------------------------------------------


def _affine(params, x) -> float:
    """``intercept + coefs . x`` of one ``(intercept, coefs)`` pair."""
    intercept, coefs = params
    x = np.asarray(x, dtype=float).reshape(-1)
    return float(intercept + np.asarray(coefs, dtype=float) @ x)


def formula_baseline(model, x, group) -> float:
    """``dbar(x, a)`` of partially linear demand, read from its parameters
    for the one customer at covariates ``x`` in ``group``."""
    if model.baseline_form == "linear":
        return _affine(model.baseline[group], x)
    return float(model.baseline[group][tuple(float(v) for v in np.ravel(x))])


def formula_location(model, x, group) -> float:
    """``loc(x, a)`` of latent-valuation demand, read from its parameters."""
    return _affine(model.loc[group], x)


def formula_demand(model, x, group, p):
    """Demand, slope and curvature at one price from each family's own
    scalar formula (survival form per noise family)."""
    from scipy.special import expit, ndtr

    x = np.asarray(x, dtype=float).reshape(-1)
    if isinstance(model, fp.PartiallyLinearDemand):
        beta = float(model.beta[group])
        return formula_baseline(model, x, group) + beta * p, beta, 0.0
    if isinstance(model, fp.LogisticDemand):
        z = float(model.gamma @ x + model.beta * p + model.intercept)
        s = expit(z)
        upper = expit(-z) if z > 16.0 else 1.0 - s  # 1 - s, exact in the tail
        return (float(s), float(model.beta * s * upper),
                float(model.beta ** 2 * s * upper * (1.0 - 2.0 * s)))
    z = (p - formula_location(model, x, group)) / model.scale
    fam = model.family
    survival = {"normal": lambda: ndtr(-z), "logistic": lambda: expit(-z),
                "gumbel": lambda: -np.expm1(-np.exp(-z)),
                "exponential": lambda: 1.0 - (0.0 if z < 0.0
                                              else -np.expm1(-z)),
                "laplace": lambda: 1.0 - (0.5 * np.exp(z) if z < 0.0
                                          else 1.0 - 0.5 * np.exp(-z))}[
        model.noise]()
    return (float(survival), float(-fam.pdf(z) / model.scale),
            float(-fam.pdf_prime(z) / model.scale ** 2))


# ---------------------------------------------------------------------------
# the simulator's per-record draw loops and the per-cell CSV writer
# ---------------------------------------------------------------------------
#
# Verbatim copies of the record-by-record implementations that the block
# draws and the blocked CSV writer of ``fairprice.sim`` replaced; those must
# match them bit for bit, leaving the generator in the same state.

import csv  # noqa: E402

from fairprice.demand import (  # noqa: E402
    CSV_TRAILING_COLUMNS,
    Population,
    RecordTable,
)
from fairprice.sim import ScenarioConfig, _csv_header, _exact_support  # noqa: E402
from fairprice.util import fmt_float  # noqa: E402


def loop_generate_population(config: ScenarioConfig, rng) -> Population:
    """Draw ``n`` customers: covariates, group, and (latent) valuation.

    Prices, demand, and outcomes are attached later by
    :func:`log_interactions`. When every covariate is discrete the returned
    population also carries the exact support, masses, and membership
    probabilities of the generating process.
    """
    model = config.model
    latent = isinstance(model, fp.LatentValuationModel)
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


def loop_log_interactions(config: ScenarioConfig, population: Population,
                          rng, policy=None) -> Population:
    """Assign a price to every record and realize demand (and outcomes).

    Without a policy, prices are drawn uniformly from the scenario's price
    levels (the logging menu). Latent records buy iff their stored valuation
    covers the price; logistic records draw a Bernoulli take-up. The realized
    consumer surplus, scaled by ``outcome.surplus_weight``, lands in the
    outcome column when configured.
    """
    model = config.model
    levels = config.price_levels
    table = population.records
    groups = [table.labels[c] for c in table.codes]
    # pricing draws no random numbers, so batching it keeps the RNG stream
    offered = None if policy is None else policy.price_batch(
        table.X, table.codes, table.labels)
    for i, x in enumerate(table.X):
        if policy is None:
            p = float(levels[int(rng.integers(len(levels)))])
        else:
            p = float(offered[i])
        table.price[i] = p
        if isinstance(model, fp.LatentValuationModel):
            table.demand[i] = float(table.valuation[i] >= p)
        else:
            rate = one_customer(model, x, groups[i], p)
            table.demand[i] = float(rng.random() < rate)
    if config.surplus_weight is not None:
        table.outcome[:] = (config.surplus_weight
                            * np.maximum(table.valuation - table.price, 0.0)
                            * table.demand)
    return population


def cell_write_records_csv(path, records) -> None:
    """Write records with header id,group,x1..xk,price,demand,outcome,valuation,weight."""
    table = records.require()
    numeric = [*table.X.T] + [getattr(table, name)
                              for name in CSV_TRAILING_COLUMNS]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_csv_header(table.X.shape[1]))
        # rows are formatted as they are written, so no column of cell
        # strings is ever held in memory
        writer.writerows(zip(table.ids, (table.labels[c] for c in table.codes),
                             *(map(_csv_cell, col) for col in numeric)))


def _csv_cell(value) -> str:
    return "" if value != value else fmt_float(value)


# ---------------------------------------------------------------------------
# TabularPolicy: the full-scan row match and the per-pair table lookup that
# the sort-window matcher and the dense price table replaced, verbatim apart
# from taking the support and table as arguments
# ---------------------------------------------------------------------------

from fairprice.errors import DimensionMismatchError, UnknownGroupError  # noqa: E402

_MATCH_TOL = 1e-9


def scan_locate(support, x) -> int:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != support.shape[1]:
        raise DimensionMismatchError(
            f"policy support has {support.shape[1]} covariates, "
            f"got {x.size}")
    hits = np.where(np.all(np.abs(support - x) <= _MATCH_TOL, axis=1))[0]
    if hits.size == 0:
        raise DimensionMismatchError(
            f"covariate point {tuple(x)} is not on the policy support")
    return int(hits[0])


def scan_entry(table, idx: int, a) -> float:
    if a is not None and (idx, a) in table:
        return float(table[(idx, a)])
    if (idx, None) in table:
        return float(table[(idx, None)])
    raise UnknownGroupError(
        f"no price for support point {idx} and group {a!r}")


def reference_table_rows(table: dict) -> list:
    """A ``(support_index, group) -> price`` table as JSON rows, ordered by
    support index, then group label (the blind ``None`` entry first): the
    dict sort that ``policies.table_rows`` replaced, verbatim. ``None`` and
    ``""`` tie, so the dict's order decides between them."""
    return [{"x_index": idx, "group": group, "price": float(price)}
            for (idx, group), price in sorted(
                table.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]


def scan_tabular_prices(policy, X, groups) -> np.ndarray:
    """A TabularPolicy's price of every row: one full scan and one table
    lookup per row, the first failing row raising."""
    return np.array([scan_entry(policy.table, scan_locate(policy.support, x), a)
                     for x, a in zip(X, groups)], dtype=float)


# ---------------------------------------------------------------------------
# GroupPolicy and LinearPolicy: the scalar formulas that priced one customer
# before ``price_batch`` took over, verbatim apart from taking the policy as
# an argument
# ---------------------------------------------------------------------------


def scalar_group_price(policy, a) -> float:
    """A group policy's price for one customer in group ``a``."""
    if a is not None and a in policy.prices:
        return float(policy.prices[a])
    if policy.default is not None:
        return float(policy.default)
    raise UnknownGroupError(f"no price for group {a!r} and no default")


def scalar_linear_price(policy, x) -> float:
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != policy.theta.size:
        raise DimensionMismatchError(
            f"policy expects {policy.theta.size} covariates, got {x.size}")
    raw = float(policy.intercept + policy.theta @ x)
    return float(min(policy.clip_hi, max(policy.clip_lo, raw)))


# ---------------------------------------------------------------------------
# Parity solvers: the two separate closed-form bodies that the shared
# ``parity._solve`` replaced, verbatim, each orienting the groups by solving
# a second time
# ---------------------------------------------------------------------------

import math  # noqa: E402

from fairprice.errors import UnenforceableConstraintError  # noqa: E402
from fairprice.parity import (  # noqa: E402
    ATTRIBUTE_BASED,
    ATTRIBUTE_BLIND,
    ParitySolution,
    _check_parity_inputs,
    _dbar_matrix,
    parity_weight,
)


def _oriented_weights(population, positive_group):
    return {g: parity_weight(population.rho, g, positive_group)
            for g in population.groups}


def reference_attribute_based_parity(model, population, gamma):
    gamma = _check_parity_inputs(model, population, gamma)[0]
    support = population.support
    joint = population.joint_weights()
    groups = population.groups
    dbar = _dbar_matrix(model, population)
    beta = np.array([model.beta[g] for g in groups])

    def solve_for(positive_group):
        xi_map = _oriented_weights(population, positive_group)
        xi = np.array([xi_map[g] for g in groups])
        p0 = -dbar / (2.0 * beta)
        d0 = float(np.sum(joint * xi * p0))
        return xi_map, xi, p0, d0

    xi_map, xi, p0, d0 = solve_for(groups[0])
    positive = groups[0] if d0 >= 0.0 else groups[1]
    if d0 < 0.0:
        xi_map, xi, p0, d0 = solve_for(positive)

    if math.isinf(gamma) or d0 <= gamma:
        lam = 0.0
        prices = p0
        achieved = d0
    else:
        num = gamma - d0
        den = float(np.sum(joint * xi ** 2 / (2.0 * beta)))
        lam = num / den
        prices = (-dbar + lam * xi) / (2.0 * beta)
        achieved = gamma
    other = groups[1] if positive == groups[0] else groups[0]
    return ParitySolution(
        mode=ATTRIBUTE_BASED, gamma=gamma, lambda_star=float(lam),
        parity_weights=xi_map, oriented_groups=(positive, other),
        price_array=prices, support=support.copy(), groups=groups,
        unconstrained_disparity=d0, achieved_disparity=float(achieved))


def reference_attribute_blind_parity(model, population, gamma):
    gamma = _check_parity_inputs(model, population, gamma)[0]
    support = population.support
    masses = population.masses
    memb = population.membership
    groups = population.groups
    dbar_xa = _dbar_matrix(model, population)
    beta = np.array([model.beta[g] for g in groups])
    betabar = memb @ beta
    dbar_x = np.sum(memb * dbar_xa, axis=1)

    def solve_for(positive_group):
        xi_map = _oriented_weights(population, positive_group)
        xi = np.array([xi_map[g] for g in groups])
        m = memb @ xi
        p0 = -dbar_x / (2.0 * betabar)
        d0 = float(np.sum(masses * m * p0))
        return xi_map, xi, m, p0, d0

    xi_map, xi, m, p0, d0 = solve_for(groups[0])
    positive = groups[0] if d0 >= 0.0 else groups[1]
    if d0 < 0.0:
        xi_map, xi, m, p0, d0 = solve_for(positive)

    if math.isinf(gamma) or d0 <= gamma:
        lam = 0.0
        prices = p0
        achieved = d0
    else:
        den = float(np.sum(masses * m ** 2 / (2.0 * betabar)))
        if abs(den) < 1e-14:
            raise UnenforceableConstraintError(
                "covariates carry no group signal; an attribute-blind policy "
                "cannot move the disparity below the cap")
        lam = (gamma - d0) / den
        prices = (-dbar_x + lam * m) / (2.0 * betabar)
        achieved = gamma
    other = groups[1] if positive == groups[0] else groups[0]
    return ParitySolution(
        mode=ATTRIBUTE_BLIND, gamma=gamma, lambda_star=float(lam),
        parity_weights=xi_map, oriented_groups=(positive, other),
        price_array=prices[:, None], support=support.copy(), groups=groups,
        unconstrained_disparity=d0, achieved_disparity=float(achieved))


# ---------------------------------------------------------------------------
# Kernel OPE: the bootstrap and the linear policy search as they ran before
# the log was priced once, verbatim apart from the names: every resample a
# ``RecordTable.take`` and every search candidate an ``ope_estimate`` call,
# and the bootstrap's skipped resamples counted at its two ``continue``s
# ---------------------------------------------------------------------------

from fairprice.errors import EmptyWeightError, MissingFieldError  # noqa: E402
from fairprice.sim import _SEARCH_HALVINGS, check_n_boot  # noqa: E402


def take_bootstrap_se(records, policy, bandwidth=0.3, n_boot=200, seed=0):
    check_n_boot(n_boot)
    table = records.require("price", "demand")
    rng = np.random.default_rng(seed)
    n = len(table)
    values, skipped = [], {"empty_window": 0, "tied_prices": 0}
    for _ in range(n_boot):
        idx = rng.integers(0, n, size=n)
        if np.ptp(table.price[idx]) == 0.0:
            skipped["tied_prices"] += 1
            continue
        try:
            values.append(fp.ope_estimate(table.take(idx), policy,
                                          bandwidth)["value"])
        except EmptyWeightError:
            skipped["empty_window"] += 1
            continue
    if len(values) < 2:
        raise EmptyWeightError("bootstrap produced no usable resamples")
    return float(np.std(np.asarray(values), ddof=1)), skipped


def candidate_policy_search(records, bandwidth=0.3, clip_lo=None,
                            clip_hi=None, n_starts=16, seed=0):
    if n_starts < 1:
        raise MissingFieldError("n_starts must be at least 1")
    table = records.require("price", "demand")
    prices = table.price_levels[0].tolist()
    lo = min(prices) if clip_lo is None else float(clip_lo)
    hi = max(prices) if clip_hi is None else float(clip_hi)
    dim = table.X.shape[1]

    def evaluate(vec):
        policy = fp.LinearPolicy(theta=vec[1:], intercept=vec[0],
                                 clip_lo=lo, clip_hi=hi)
        try:
            return fp.ope_estimate(table, policy, bandwidth)["value"]
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
        for _ in range(_SEARCH_HALVINGS + 1):
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
    policy = fp.LinearPolicy(theta=best_vec[1:], intercept=float(best_vec[0]),
                             clip_lo=lo, clip_hi=hi)
    return fp.PolicySearchResult(policy=policy, value=float(best_val),
                                 trace=trace)


# ---------------------------------------------------------------------------
# JSON output: the two-pass writer that ``util.json_dumps_stable``'s one
# recursive writer replaced, verbatim apart from the names
# ---------------------------------------------------------------------------

import json  # noqa: E402


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        # numpy scalar
        obj = obj.item()
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def stdlib_json_dumps_stable(obj) -> str:
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2, allow_nan=False) + "\n"
