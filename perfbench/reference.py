"""Output checks for every benchmarked CLI command.

Each check recomputes the command's results from the generated inputs with
this file's own numpy code, a frozen copy of the definitions the program
implements today, and compares them at the tolerances the repository's tests
use for those quantities: 1e-9 for closed forms and record statistics, 1e-7
for share prices, which solve a first-order condition. A maximized revenue
may fall short of the best point of a 4097-point price grid by at most 1e-6.
Counts, labels and record counts must match exactly. Output keys the checks
do not know are allowed.

A check returns a list of mismatch messages; an empty list means the output
is correct.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from inputs import GROUPS, HEADER, LOC, PRICE_LEVELS, SCALE, market_a_support

AUDIT_METRICS = ("marginal_price_disparity", "distributional_parity",
                 "conditional_parity_gap", "takeup_conditional_parity",
                 "access", "concordance_lower_bound", "concordance_oracle")


class Mismatches(list):
    """Collects mismatch messages for one command's outputs."""

    def close(self, what, got, want, tol=1e-9):
        try:
            ok = abs(float(got) - float(want)) <= tol * max(1.0, abs(float(want)))
        except (TypeError, ValueError):
            ok = False
        if not ok:
            self.append(f"{what}: got {got!r}, want {want!r} (tol {tol:g})")

    def equal(self, what, got, want):
        if got != want:
            self.append(f"{what}: got {got!r}, want {want!r}")

    def arrays(self, what, got, want, tol=1e-9):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.append(f"{what}: shape {got.shape}, want {want.shape}")
            return
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        if err.size and not float(err.max()) <= tol:
            k = int(np.argmax(err))
            self.append(f"{what}[{k}]: got {got.flat[k]!r}, "
                        f"want {want.flat[k]!r} (tol {tol:g})")


def load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv_rows(path):
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def load_records(inputs_dir) -> dict:
    with np.load(os.path.join(inputs_dir, "records.npz")) as data:
        return {k: data[k] for k in data.files}


def _outputs(check):
    """Run a check body, turning unreadable or malformed output into a mismatch."""
    def run(*args):
        found = Mismatches()
        try:
            check(found, *args)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            found.append(f"malformed output: {type(exc).__name__}: {exc}")
        return found
    run.__name__ = check.__name__
    run.__doc__ = check.__doc__
    return run


# ---------------------------------------------------------------------------
# log_audit: fit --model linear, audit
# ---------------------------------------------------------------------------


@_outputs
def check_fit(found, out_dir, cols):
    """Per-group least squares of demand on (price, x, 1)."""
    got = load_json(os.path.join(out_dir, "model.json"))
    model, diag = got["model"], got["diagnostics"]
    found.equal("n_records", diag["n_records"], int(cols["price"].size))
    found.equal("kind", model["kind"], "partially_linear")
    for g in sorted(set(cols["group"].tolist())):
        rows = cols["group"] == g
        design = np.column_stack([cols["price"][rows], cols["X"][rows],
                                  np.ones(int(rows.sum()))])
        coef = np.linalg.lstsq(design, cols["demand"][rows], rcond=None)[0]
        resid = cols["demand"][rows] - design @ coef
        found.close(f"beta[{g}]", model["beta"][g], coef[0])
        found.close(f"intercept[{g}]", model["baseline"][g]["intercept"], coef[-1])
        found.arrays(f"coefs[{g}]", model["baseline"][g]["coefs"], coef[1:-1])
        found.close(f"rss[{g}]", diag["residual_sum_squares"][g], resid @ resid)


def _ks(x1, x2) -> float:
    pool = np.unique(np.concatenate([x1, x2]))
    f1 = np.searchsorted(np.sort(x1), pool, side="right") / x1.size
    f2 = np.searchsorted(np.sort(x2), pool, side="right") / x2.size
    return float(np.max(np.abs(f1 - f2)))


def _strata(X):
    keys = sorted({tuple(row) for row in X.tolist()})
    return [(str(tuple(float(v) for v in k)),
             np.all(X == np.asarray(k), axis=1)) for k in keys]


def _count_below(sorted_vals, x):
    """How many entries of ``sorted_vals`` are strictly below each of ``x``."""
    return np.searchsorted(sorted_vals, x, side="left")


@_outputs
def check_audit(found, out_dir, cols):
    """All seven record-level metrics, with unit weights."""
    got = load_json(os.path.join(out_dir, "audit.json"))
    p, d, v, X, g = (cols[k] for k in ("price", "demand", "valuation", "X", "group"))
    found.equal("n_records", got["n_records"], int(p.size))
    found.equal("groups", got["groups"], list(GROUPS))
    m = got["metrics"]
    missing = [k for k in AUDIT_METRICS if k not in m]
    if missing:
        found.append(f"metrics missing: {missing}")
        return
    ga, gb = (g == GROUPS[0]), (g == GROUPS[1])

    mpd = m["marginal_price_disparity"]
    means = [float(p[ga].mean()), float(p[gb].mean())]
    for k, lab in enumerate(GROUPS):
        found.close(f"price_mean[{lab}]", mpd["price_mean"][lab], means[k])
        found.equal(f"count[{lab}]", mpd["count"][lab], int((g == lab).sum()))
    found.close("max_gap", mpd["max_gap"], max(means) - min(means))

    dist = m["distributional_parity"]
    stat = _ks(p[ga], p[gb])
    n1, n2 = float(ga.sum()), float(gb.sum())
    threshold = (math.sqrt(-math.log(0.05 / 2.0) / 2.0)
                 * math.sqrt((n1 + n2) / (n1 * n2)))
    found.close("ks statistic", dist["statistic"], stat)
    found.close("ks threshold", dist["threshold"], threshold)
    found.equal("ks reject", dist["reject"], stat > threshold)

    gaps, takeup = {}, {}
    takeup_error = False
    for key, rows in _strata(X):
        a, b = rows & ga, rows & gb
        if a.any() and b.any():
            gaps[key] = float(p[a].mean() - p[b].mean())
        ba, bb = a & (d > 0.0), b & (d > 0.0)
        if not (ba.any() or bb.any()):
            takeup[key] = None
        elif ba.any() and bb.any():
            takeup[key] = _ks(p[ba], p[bb])
        else:
            takeup_error = True
    cpg = m["conditional_parity_gap"]
    found.equal("strata", sorted(cpg["per_stratum"]), sorted(gaps))
    for key, gap in gaps.items():
        found.close(f"gap{key}", cpg["per_stratum"].get(key), gap)
    found.close("max_abs_gap", cpg["max_abs_gap"],
                max(abs(x) for x in gaps.values()))
    tcp = m["takeup_conditional_parity"]
    if takeup_error:
        found.equal("takeup error", sorted(tcp), ["error"])
    else:
        found.equal("takeup strata", sorted(tcp["per_stratum"]), sorted(takeup))
        for key, stat in takeup.items():
            if stat is None:
                found.equal(f"takeup{key}", tcp["per_stratum"].get(key), None)
            else:
                found.close(f"takeup{key}", tcp["per_stratum"].get(key), stat)
        found.close("max_statistic", tcp["max_statistic"],
                    max([s for s in takeup.values() if s is not None] + [0.0]))

    for lab, rows in ((GROUPS[0], ga), (GROUPS[1], gb)):
        acc = m["access"][lab]
        found.close(f"access[{lab}]", acc["access"], d[rows].mean())
        found.close(f"access price_mean[{lab}]", acc["price_mean"], p[rows].mean())
        found.equal(f"access weight[{lab}]", acc["weight"], float(rows.sum()))

    # pairs (i in a, j in b) with p_i != p_j; the cheaper offer declined and
    # the pricier accepted certifies concordance
    pa, pb = np.sort(p[ga]), np.sort(p[gb])
    total = float(pa.size) * float(pb.size)
    qualifying = float(np.sum(pb.size - np.searchsorted(pb, p[ga], side="right"))
                       + np.sum(_count_below(pb, p[ga])))
    pb1 = np.sort(p[gb & (d == 1.0)])
    pa1 = np.sort(p[ga & (d == 1.0)])
    certified = float(
        np.sum(pb1.size - np.searchsorted(pb1, p[ga & (d == 0.0)], side="right"))
        + np.sum(pa1.size - np.searchsorted(pa1, p[gb & (d == 0.0)], side="right")))
    clb = m["concordance_lower_bound"]
    found.equal("qualifying_pairs", clb["qualifying_pairs"], qualifying)
    found.equal("total_pairs", clb["total_pairs"], total)
    found.equal("excluded_ties", clb["excluded_ties"], total - qualifying)
    found.close("concordance bound", clb["bound"], certified / qualifying)

    concordant = 0.0
    levels = np.unique(p)
    for lo in levels:
        for hi in levels[levels > lo]:
            for low, high in ((ga, gb), (gb, ga)):
                v_high = np.sort(v[high & (p == hi)])
                v_low = v[low & (p == lo)]
                concordant += float(np.sum(
                    v_high.size - np.searchsorted(v_high, v_low, side="right")))
    oracle = m["concordance_oracle"]
    found.equal("oracle qualifying_pairs", oracle["qualifying_pairs"], qualifying)
    found.close("concordance", oracle["concordance"], concordant / qualifying)


# ---------------------------------------------------------------------------
# ope_search: kernel OPE of a fixed policy, then the linear policy search
# ---------------------------------------------------------------------------


class OPEReference:
    """This commit's kernel OPE, bootstrap and pattern search, on arrays.

    Target prices are computed once per distinct covariate row with the same
    scalar expression the program's ``LinearPolicy.price`` uses, so values
    agree with the program to the last bit.
    """

    def __init__(self, cols, bandwidth=0.3):
        self.p = cols["price"]
        self.d = cols["demand"]
        self.w = np.ones_like(self.p)
        self.rows, self.row_of = np.unique(cols["X"], axis=0, return_inverse=True)
        self.row_of = self.row_of.reshape(-1)
        self.bandwidth = bandwidth

    def targets(self, intercept, theta, lo, hi):
        theta = np.asarray(theta, dtype=float).reshape(-1)
        per_row = np.array([min(hi, max(lo, float(intercept + theta @ x)))
                            for x in self.rows])
        return per_row[self.row_of]

    def value(self, target, idx=None):
        p, d, w = self.p, self.d, self.w
        if idx is not None:
            p, d, w, target = p[idx], d[idx], w[idx], target[idx]
        width = float(p.max() - p.min())
        _, inverse = np.unique(p, return_inverse=True)
        masses = (np.bincount(inverse, weights=w) / w.sum())[inverse]
        h = self.bandwidth * width
        u = (target - p) / h
        imp = w * (np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0) / h) / masses
        total = float(imp.sum())
        if total <= 0.0:
            return None
        return float((imp * (target * d)).sum() / total)

    def bootstrap_se(self, target, n_boot, seed):
        rng = np.random.default_rng(seed)
        n = self.p.size
        values = [self.value(target, rng.integers(0, n, size=n))
                  for _ in range(n_boot)]
        values = [v for v in values if v is not None]
        return float(np.std(np.asarray(values), ddof=1))

    def search(self, n_starts, seed, n_halvings=6):
        prices = sorted({float(v) for v in self.p})
        lo, hi = min(prices), max(prices)
        dim = self.rows.shape[1]

        def evaluate(vec):
            v = self.value(self.targets(vec[0], vec[1:], lo, hi))
            return -math.inf if v is None else v

        rng = np.random.default_rng(seed)
        starts = [np.concatenate([[lvl], np.zeros(dim)]) for lvl in prices]
        while len(starts) < n_starts:
            starts.append(np.concatenate([[rng.uniform(lo, hi)],
                                          rng.normal(0.0, 0.25 * (hi - lo), size=dim)]))
        starts = starts[:max(n_starts, len(prices))]
        best = -math.inf
        for start in starts:
            vec, val, step = start.copy(), evaluate(start), 0.1 * (hi - lo)
            for _ in range(n_halvings + 1):
                improved = True
                while improved:
                    improved = False
                    move, move_val = None, val
                    for k in range(vec.size):
                        for sign in (1.0, -1.0):
                            cand = vec.copy()
                            cand[k] += sign * step
                            cand_val = evaluate(cand)
                            if cand_val > move_val + 1e-15:
                                move, move_val = cand, cand_val
                    if move is not None:
                        vec, val, improved = move, move_val, True
                step *= 0.5
            if val > best + 1e-12:
                best = val
        return best, len(starts)


def _check_ope_common(found, got, cols, n_boot):
    found.equal("n_records", got["n_records"], int(cols["price"].size))
    found.equal("n_boot", got["n_boot"], n_boot)
    found.equal("bandwidth", got["bandwidth"], 0.3)


@_outputs
def check_ope_policy(found, out_dir, ref, cols, policy, n_boot, seed):
    """Value and bootstrap standard error of the fixed linear policy."""
    got = load_json(os.path.join(out_dir, "ope.json"))
    _check_ope_common(found, got, cols, n_boot)
    found.equal("policy", got["policy"], policy)
    target = ref.targets(policy["intercept"], policy["theta"],
                         policy["clip_lo"], policy["clip_hi"])
    found.close("value", got["value"], ref.value(target))
    found.close("std_error", got["std_error"],
                ref.bootstrap_se(target, n_boot, seed))


@_outputs
def check_ope_search(found, out_dir, ref, cols, n_starts, n_boot, seed,
                     search_value):
    """Searched policy: its value re-evaluated, and no worse than this commit's."""
    got = load_json(os.path.join(out_dir, "ope.json"))
    _check_ope_common(found, got, cols, n_boot)
    pol = got["policy"]
    found.equal("policy kind", pol["kind"], "linear")
    lo, hi = float(cols["price"].min()), float(cols["price"].max())
    found.equal("clip", (pol["clip_lo"], pol["clip_hi"]), (lo, hi))
    target = ref.targets(pol["intercept"], pol["theta"], lo, hi)
    value = ref.value(target)
    found.close("value re-evaluated", got["value"], value, tol=1e-12)
    if not got["value"] >= search_value - 1e-6:
        found.append(f"search value {got['value']!r} is below this commit's "
                     f"{search_value!r} by more than 1e-6")
    found.equal("starts", got["starts"], n_starts)
    found.equal("trace length", len(got["trace"]), n_starts)
    found.close("std_error", got["std_error"],
                ref.bootstrap_se(target, n_boot, seed))


# ---------------------------------------------------------------------------
# market_price: simulate, price, sweep
# ---------------------------------------------------------------------------


def _latent_demand(p, X, group):
    """Logistic latent-valuation demand; ``p`` is per row of ``X``, or rows x grid."""
    icpt, coefs = LOC[group]
    loc = icpt + X @ np.asarray(coefs)
    if np.ndim(p) == 2:
        loc = loc[:, None]
    return 1.0 / (1.0 + np.exp((p - loc) / SCALE))


def _market_cells():
    support, masses, membership = market_a_support()
    return support, masses[:, None] * membership


def _policy_prices(policy, support):
    """(n_support, n_groups) prices of a serialized constant/group/tabular policy."""
    out = np.empty((support.shape[0], len(GROUPS)))
    if policy["kind"] == "constant":
        out[:] = policy["value"]
    elif policy["kind"] == "group":
        out[:] = [policy["prices"][g] for g in GROUPS]
    else:
        for row in policy["prices"]:
            cols = ([GROUPS.index(row["group"])] if row["group"] is not None
                    else list(range(len(GROUPS))))
            out[row["x_index"], cols] = row["price"]
    return out


def _market_stats(prices, support, joint):
    demand = np.column_stack([_latent_demand(prices[:, k], support, g)
                              for k, g in enumerate(GROUPS)])
    mass = joint.sum(axis=0)
    return (float(np.sum(joint * prices * demand)),
            (joint * demand).sum(axis=0) / mass,
            (joint * prices).sum(axis=0) / mass)


@_outputs
def check_simulate(found, out_dir, n):
    """Records, population, true model and the three-way pricing experiment."""
    rows = _csv_rows(os.path.join(out_dir, "records.csv"))
    found.equal("records header", rows[0], HEADER)
    found.equal("record count", len(rows) - 1, n)
    body = np.array(rows[1:], dtype=object)
    groups = set(body[:, 1].tolist())
    found.equal("record groups", sorted(groups), sorted(GROUPS))
    X = body[:, 2:4].astype(float)
    price, demand = body[:, 4].astype(float), body[:, 5].astype(float)
    valuation, weight = body[:, 7].astype(float), body[:, 8].astype(float)
    if not (set(X[:, 0]) <= {0.0, 1.0} and set(X[:, 1]) <= {0.0, 1.0, 2.0}):
        found.append("covariates off the market-A support")
    if not set(price) <= set(PRICE_LEVELS):
        found.append("logged price off the price levels")
    if not np.array_equal(demand, (valuation >= price).astype(float)):
        found.append("demand is not the valuation threshold")
    if not (np.all(weight == 1.0) and set(body[:, 6]) == {""}):
        found.append("weights must be 1 and outcomes empty")

    support, joint = _market_cells()
    pop = load_json(os.path.join(out_dir, "population.json"))
    found.equal("population groups", pop["groups"], list(GROUPS))
    found.arrays("support", pop["support"], support, tol=1e-12)
    found.arrays("joint mass", np.asarray(pop["masses"])[:, None]
                 * np.asarray(pop["membership"]), joint, tol=1e-12)
    true = load_json(os.path.join(out_dir, "model_true.json"))
    found.equal("true model", (true["kind"], true["noise"], true["scale"]),
                ("latent", "logistic", SCALE))
    for g, (icpt, coefs) in LOC.items():
        found.close(f"loc[{g}]", true["loc"][g]["intercept"], icpt)
        found.arrays(f"loc coefs[{g}]", true["loc"][g]["coefs"], coefs)

    exp = load_json(os.path.join(out_dir, "experiment.json"))
    lo, hi = PRICE_LEVELS[0], PRICE_LEVELS[-1]
    grid = np.broadcast_to(np.linspace(lo, hi, 4097), (support.shape[0], 4097))
    # cell_rev[i, k, j]: revenue of cell (x_i, group k) at the j-th grid price
    cell_rev = np.stack([joint[:, k][:, None] * grid * _latent_demand(grid, support, g)
                         for k, g in enumerate(GROUPS)], axis=1)
    best = {"uniform": float(cell_rev.sum(axis=(0, 1)).max()),
            "group": float(cell_rev.sum(axis=0).max(axis=1).sum()),
            "personalized": float(cell_rev.max(axis=2).sum())}
    revenues = {}
    for scheme in ("uniform", "group", "personalized"):
        info = exp[scheme]
        prices = _policy_prices(info["policy"], support)
        revenue, access, price_mean = _market_stats(prices, support, joint)
        revenues[scheme] = revenue
        found.close(f"{scheme} revenue", info["revenue"], revenue)
        found.close(f"{scheme} margin", info["margin"], revenue)
        for k, g in enumerate(GROUPS):
            found.close(f"{scheme} access[{g}]", info["access"][g], access[k])
            found.close(f"{scheme} price_mean[{g}]", info["price_mean"][g],
                        price_mean[k])
        # the 1-D maximizers refine a 4096-point grid; none may lose to ours
        if not revenue >= best[scheme] - 1e-6:
            found.append(f"{scheme} revenue {revenue!r} below grid optimum "
                         f"{best[scheme]!r}")
    if not (revenues["uniform"] <= revenues["group"] + 1e-9
            and revenues["group"] <= revenues["personalized"] + 1e-9):
        found.append(f"revenue ordering violated: {revenues}")
    found.equal("experiment.csv rows", len(_csv_rows(
        os.path.join(out_dir, "experiment.csv"))), 1 + 3 * 6)

    curve = _csv_rows(os.path.join(out_dir, "revenue_curve.csv"))
    found.equal("revenue curve rows", len(curve), 201)
    p_curve = lo + np.arange(200) * (hi - lo) / 199.0
    rev_curve = [_market_stats(np.full((support.shape[0], 2), pc), support,
                               joint)[0] for pc in p_curve]
    found.arrays("revenue curve price", [float(r[0]) for r in curve[1:]], p_curve)
    found.arrays("revenue curve revenue", [float(r[1]) for r in curve[1:]],
                 rev_curve)


class ParityReference:
    """Closed-form parity prices for the partially linear grid market."""

    def __init__(self, model, population):
        self.support = np.asarray(population["support"], dtype=float)
        self.masses = np.asarray(population["masses"], dtype=float)
        self.memb = np.asarray(population["membership"], dtype=float)
        self.joint = self.masses[:, None] * self.memb
        self.rho = self.masses @ self.memb
        self.beta = np.array([model["beta"][g] for g in GROUPS])
        self.dbar = np.column_stack([
            model["baseline"][g]["intercept"]
            + self.support @ np.asarray(model["baseline"][g]["coefs"])
            for g in GROUPS])

    def _xi(self, positive):
        return np.array([(1.0 if g == positive else -1.0) / self.rho[k]
                         for k, g in enumerate(GROUPS)])

    def solve(self, mode, gamma):
        """(prices as (n_support, n_groups), lambda, unconstrained, achieved)."""
        blind = mode == "attribute_blind"
        if blind:
            betabar = self.memb @ self.beta
            dbar_x = np.sum(self.memb * self.dbar, axis=1)

        def start(positive):
            xi = self._xi(positive)
            if blind:
                m = self.memb @ xi
                p0 = -dbar_x / (2.0 * betabar)
                return xi, m, p0, float(np.sum(self.masses * m * p0))
            p0 = -self.dbar / (2.0 * self.beta)
            return xi, None, p0, float(np.sum(self.joint * xi * p0))

        xi, m, p0, d0 = start(GROUPS[0])
        if d0 < 0.0:
            xi, m, p0, d0 = start(GROUPS[1])
        if math.isinf(gamma) or d0 <= gamma:
            lam, prices, achieved = 0.0, p0, d0
        elif blind:
            lam = (gamma - d0) / float(np.sum(self.masses * m ** 2 / (2.0 * betabar)))
            prices, achieved = (-dbar_x + lam * m) / (2.0 * betabar), gamma
        else:
            lam = (gamma - d0) / float(np.sum(self.joint * xi ** 2 / (2.0 * self.beta)))
            prices, achieved = (-self.dbar + lam * xi) / (2.0 * self.beta), gamma
        if blind:
            prices = np.column_stack([prices, prices])
        return prices, lam, d0, achieved

    def stats(self, prices):
        demand = self.dbar + self.beta * prices
        mass = self.joint.sum(axis=0)
        return (float(np.sum(self.joint * prices * demand)),
                (self.joint * demand).sum(axis=0) / mass)


@_outputs
def check_price(found, out_dir, ref, mode, gamma):
    got = load_json(os.path.join(out_dir, "prices.json"))
    prices, lam, d0, achieved = ref.solve(mode, gamma)
    found.equal("mode", got["mode"], mode)
    found.close("lambda_star", got["lambda_star"], lam)
    found.close("unconstrained_disparity", got["unconstrained_disparity"], d0)
    found.close("achieved_disparity", got["achieved_disparity"], achieved)
    n_support = prices.shape[0]
    labels = list(GROUPS) if mode == "attribute_based" else [None]
    want_keys = [(i, g) for i in range(n_support) for g in labels]
    got_keys = [(row["x_index"], row["group"]) for row in got["prices"]]
    found.equal("price keys", got_keys, want_keys)
    if got_keys == want_keys:
        found.arrays("prices", [row["price"] for row in got["prices"]],
                     prices[:, :len(labels)].reshape(-1))
    revenue, access = ref.stats(prices)
    found.close("revenue", got["revenue"], revenue)
    for k, g in enumerate(GROUPS):
        found.close(f"access[{g}]", got["access"][g], access[k])
    found.equal("prices.csv rows",
                len(_csv_rows(os.path.join(out_dir, "prices.csv"))),
                1 + len(want_keys))


def _sweep_rows(found, out_dir, n_rows):
    got = load_json(os.path.join(out_dir, "sweep.json"))
    found.equal("sweep.csv rows",
                len(_csv_rows(os.path.join(out_dir, "sweep.csv"))), 1 + n_rows)
    rows = got["rows"]
    found.equal("sweep rows", len(rows), n_rows)
    return rows


def grid_points(lo, hi, n):
    step = (hi - lo) / (n - 1)
    return [lo + k * step for k in range(n)]


@_outputs
def check_sweep_parity(found, out_dir, ref, grid):
    rows = _sweep_rows(found, out_dir, len(grid))
    for row, gamma in zip(rows, grid):
        prices, lam, _, achieved = ref.solve("attribute_based", gamma)
        found.equal("gamma", row["gamma"], gamma)
        found.close(f"lambda_star@{gamma:g}", row["lambda_star"], lam)
        found.close(f"revenue@{gamma:g}", row["revenue"], ref.stats(prices)[0])
        found.close(f"disparity@{gamma:g}", row["disparity"], achieved)


def share_prices(ell: float) -> np.ndarray:
    """argmax_p (p + ell) D(p) per market-A cell, by bisection on the FOC.

    For logistic latent demand the condition ``D + (p + ell) D' = 0`` reads
    ``(p + ell)(1 - D(p)) = scale``, whose left side increases in ``p``.
    """
    support, _ = _market_cells()
    out = np.empty((support.shape[0], len(GROUPS)))
    for k, g in enumerate(GROUPS):
        lo = np.full(support.shape[0], max(0.0, -ell))
        hi = lo + 50.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            over = (mid + ell) * (1.0 - _latent_demand(mid, support, g)) > SCALE
            hi = np.where(over, mid, hi)
            lo = np.where(over, lo, mid)
        out[:, k] = 0.5 * (lo + hi)
    return out


@_outputs
def check_sweep_share(found, out_dir, weights):
    support, joint = _market_cells()
    rows = _sweep_rows(found, out_dir, len(weights) * len(GROUPS))
    k_row = 0
    for w in weights:
        prices = share_prices(w)
        for k, g in enumerate(GROUPS):
            row = rows[k_row]
            k_row += 1
            found.equal("row key", (row["weight"], row["group"]), (w, g))
            mass = joint[:, k].sum()
            demand = _latent_demand(prices[:, k], support, g)
            found.close(f"price_mean@{w:g},{g}", row["price_mean"],
                        joint[:, k] @ prices[:, k] / mass, tol=1e-7)
            found.close(f"access@{w:g},{g}", row["access"],
                        joint[:, k] @ demand / mass, tol=1e-7)
            found.close(f"revenue@{w:g},{g}", row["revenue"],
                        joint[:, k] @ (prices[:, k] * demand) / mass, tol=1e-7)
