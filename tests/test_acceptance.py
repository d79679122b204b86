"""Acceptance gate: ten criteria, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion. Each test states its tolerance inline; reference values come from
the independent brute-force oracles in oracles.py, hand-computed instances,
or structural properties that hold exactly.
"""

import json

import numpy as np
import pytest

import fairprice as fp
from fairprice.cli import main as cli_main

from oracles import (
    formula_baseline,
    oracle_attribute_parity,
    oracle_blind_parity,
)
from tables import one_customer, one_price, record_table


# ---------------------------------------------------------------------------
# shared instance generators
# ---------------------------------------------------------------------------


def _random_instance(rng, m, shared_beta):
    """Partially linear two-group instance on m support points."""
    masses = rng.dirichlet(np.ones(m))
    memb = rng.dirichlet(np.ones(2), size=m)
    support = [[float(v)] for v in rng.normal(size=m)]
    baseline = {g: (rng.uniform(1.0, 3.0), np.array([rng.uniform(-0.3, 0.3)]))
                for g in ("a", "b")}
    if shared_beta:
        b = -rng.uniform(0.5, 2.0)
        beta = {"a": b, "b": b}
    else:
        beta = {"a": -rng.uniform(0.5, 2.0), "b": -rng.uniform(0.5, 2.0)}
    model = fp.PartiallyLinearDemand(beta=beta, baseline=baseline)
    pop = fp.Population(groups=("a", "b"), support=support,
                        masses=masses.tolist(), membership=memb.tolist())
    return model, pop


def _group_free_instance(rng, m):
    """Instance meeting the mode-comparison preconditions.

    Shared slope and a baseline free of the group label, so the two parity
    modes differ only through their constraint corrections.
    """
    b = -rng.uniform(0.6, 1.8)
    base = (rng.uniform(1.5, 3.0), np.array([rng.uniform(-0.4, 0.4)]))
    model = fp.PartiallyLinearDemand(
        beta={"a": b, "b": b},
        baseline={"a": base, "b": (base[0], base[1].copy())})
    masses = rng.dirichlet(np.ones(m))
    memb = rng.dirichlet(np.ones(2), size=m)
    support = [[float(v)] for v in rng.uniform(-1, 1, size=m)]
    pop = fp.Population(groups=("a", "b"), support=support,
                        masses=masses.tolist(), membership=memb.tolist())
    return model, pop


def _oracle_frame(model, pop, oriented_groups):
    m = len(pop.support)
    dbar = np.array([[formula_baseline(model, pop.support[i], g) for g in pop.groups]
                     for i in range(m)])
    beta = np.array([model.beta[g] for g in pop.groups])
    pos = oriented_groups[0]
    xi = np.array([(1.0 if g == pos else -1.0) / pop.rho[g]
                   for g in pop.groups])
    return dbar, beta, xi


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_closed_forms_match_bruteforce_oracle():
    """Both parity modes within 1e-2 (price) / 1e-3 (revenue) of the
    Lagrangian-sweep oracle on 100 random instances; hand instance exact."""
    rng = np.random.default_rng(20260818)
    worst_price = worst_revenue = 0.0
    blind_unenforceable = 0
    for k in range(100):
        m = int(rng.integers(1, 5))
        gamma = float(rng.choice([0.0, 0.02, 0.1, 0.5, np.inf]))
        model, pop = _random_instance(rng, m, shared_beta=bool(k % 2))
        joint = pop.joint_weights()

        sol = fp.solve_attribute_based_parity(model, pop, gamma=gamma)
        dbar, beta, xi = _oracle_frame(model, pop, sol.oriented_groups)
        prices, revenue, _ = oracle_attribute_parity(dbar, beta, joint, xi,
                                                     gamma)
        for i in range(m):
            for j, g in enumerate(pop.groups):
                worst_price = max(worst_price,
                                  abs(sol.price_array[i, j] - prices[i, j]))
        worst_revenue = max(
            worst_revenue,
            abs(fp.expected_revenue(sol.policy(), model, pop) - revenue))

        try:
            solb = fp.solve_attribute_blind_parity(model, pop, gamma=gamma)
        except fp.UnenforceableConstraintError:
            # a single support point carries no covariate signal: correct
            blind_unenforceable += 1
            assert m == 1
            continue
        dbar_b, beta_b, xi_b = _oracle_frame(model, pop, solb.oriented_groups)
        memb = np.asarray(pop.membership, dtype=float)
        prices_b, revenue_b, _ = oracle_blind_parity(
            (memb * dbar_b).sum(axis=1), memb @ beta_b, memb @ xi_b,
            np.asarray(pop.masses), gamma)
        for i in range(m):
            worst_price = max(worst_price,
                              abs(solb.price_array[i, 0] - prices_b[i]))
        worst_revenue = max(
            worst_revenue,
            abs(fp.expected_revenue(solb.policy(), model, pop) - revenue_b))

    assert worst_price < 1e-2
    assert worst_revenue < 1e-3
    assert blind_unenforceable < 20

    # hand-computed instance: intercepts (2, 1), slope -1, even split, cap 0
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.0, np.array([])), "b": (1.0, np.array([]))})
    pop = fp.Population(groups=("a", "b"), support=[[]], masses=[1.0],
                        membership=[[0.5, 0.5]])
    sol = fp.solve_attribute_based_parity(model, pop, gamma=0.0)
    assert sol.lambda_star == pytest.approx(0.25, abs=1e-9)
    assert sol.price_array[0].tolist() == pytest.approx([0.75, 0.75], abs=1e-9)


def test_criterion_02_gamma_monotonicity_and_information_nesting():
    """Revenue nondecreasing in the cap on a 20-point grid, and finer
    conditioning never loses revenue (slack >= -1e-9)."""
    for seed in range(15):
        rng = np.random.default_rng(5000 + seed)
        m = int(rng.integers(2, 5))
        model, pop = _random_instance(rng, m, shared_beta=bool(seed % 2))

        based_inf = fp.solve_attribute_based_parity(model, pop, gamma=np.inf)
        blind_inf = fp.solve_attribute_blind_parity(model, pop, gamma=np.inf)
        d0 = abs(based_inf.unconstrained_disparity)
        grid = np.linspace(0.0, 1.2 * d0 if d0 > 0 else 1.0, 20)

        for solver in (fp.solve_attribute_based_parity,
                       fp.solve_attribute_blind_parity):
            revenues = []
            for gamma in grid:
                sol = solver(model, pop, gamma=float(gamma))
                revenues.append(fp.expected_revenue(sol.policy(), model, pop))
            assert all(b >= a - 1e-9
                       for a, b in zip(revenues, revenues[1:])), seed

        # unconstrained nesting: (x, a) prices >= x-only prices >= one price
        r_xa = fp.expected_revenue(based_inf.policy(), model, pop)
        r_x = fp.expected_revenue(blind_inf.policy(), model, pop)
        joint = pop.joint_weights()
        agg_dbar = sum(joint[i, j] * formula_baseline(model, pop.support[i], g)
                       for i in range(m)
                       for j, g in enumerate(pop.groups))
        agg_beta = sum(joint[i, j] * model.beta[g]
                       for i in range(m)
                       for j, g in enumerate(pop.groups))
        uniform = fp.ConstantPolicy(fp.monopoly_price_linear(agg_dbar,
                                                             agg_beta))
        r_u = fp.expected_revenue(uniform, model, pop)
        assert r_xa >= r_x - 1e-9, seed
        assert r_x >= r_u - 1e-9, seed


def test_criterion_03_revenue_loss_bound_chain():
    """On 100 equal-slope instances the personalization gap dominates the
    second-moment bound, which is itself nonnegative (tol 1e-9)."""
    for seed in range(100):
        rng = np.random.default_rng(6000 + seed)
        m = int(rng.integers(1, 5))
        model, pop = _random_instance(rng, m, shared_beta=True)
        actual, bound = fp.revenue_loss_bound(model, pop)
        # independent check of the actual gap from the two optimal policies
        based = fp.solve_attribute_based_parity(model, pop, gamma=np.inf)
        blind = fp.solve_attribute_blind_parity(model, pop, gamma=np.inf)
        gap = (fp.expected_revenue(based.policy(), model, pop)
               - fp.expected_revenue(blind.policy(), model, pop))
        assert abs(gap - actual) < 1e-9, seed
        assert actual >= bound - 1e-9, seed
        assert bound >= -1e-9, seed


def test_criterion_04_mode_comparison_sign_predictions():
    """Multiplier-based sign predictions match measured price differences on
    100 precondition-satisfying instances; the advantaged group's difference
    is strictly negative at the point leaning most toward the other group."""
    count = 0
    seed = 0
    while count < 100:
        seed += 1
        assert seed < 2000, "instance generator starved"
        rng = np.random.default_rng(40000 + seed)
        m = int(rng.integers(2, 5))
        model, pop = _group_free_instance(rng, m)
        probe = fp.compare_parity_modes(model, pop, x_index=0)
        if abs(probe.lambda_attribute) < 1e-6:
            continue  # cap not binding: differences are all zero
        for i in range(m):
            rep = fp.compare_parity_modes(model, pop, x_index=i)
            assert rep.consistent_low, (seed, i)
            assert rep.consistent_high, (seed, i)
        lean = fp.most_group_leaning_index(pop, probe.group_low)
        rep = fp.compare_parity_modes(model, pop, x_index=lean)
        assert rep.diff_high < 0.0, seed
        count += 1


def test_criterion_05_access_sensitivity_formulas():
    """Analytic dp*/dw = D/(p* R'') vs central differences (h=1e-4) within
    1e-4 on smooth families; exactly -1/2 for linear demand (population
    scope) and -1/(2 rho) on group scope."""
    smooth = [
        (fp.LogisticDemand(gamma=[], beta=-1.2, intercept=1.0), []),
        (fp.LogisticDemand(gamma=[0.3], beta=-2.0, intercept=0.5), [1.0]),
        (fp.LatentValuationModel(loc={"g": (0.0, np.array([]))},
                                 noise="exponential", scale=1.0), []),
        (fp.LatentValuationModel(loc={"g": (0.5, np.array([]))},
                                 noise="exponential", scale=0.7), []),
        (fp.LatentValuationModel(loc={"g": (2.0, np.array([]))},
                                 noise="logistic", scale=0.5), []),
        (fp.LatentValuationModel(loc={"g": (1.5, np.array([0.2]))},
                                 noise="normal", scale=0.6), [1.0]),
    ]
    for model, x in smooth:
        g = "g" if isinstance(model, fp.LatentValuationModel) else None
        rep = fp.sensitivity_at_zero(model, x, g,
                                     scope=fp.POPULATION_SCOPE, step=1e-4)
        assert rep.discrepancy <= 1e-4, type(model).__name__

    # exponential survival e^{-p}: optimum 1, sensitivity exactly -1
    unit = fp.sensitivity_at_zero(
        fp.LatentValuationModel(loc={"g": (0.0, np.array([]))},
                                noise="exponential", scale=1.0),
        [], "g", scope=fp.POPULATION_SCOPE)
    assert unit.price == pytest.approx(1.0, abs=1e-8)
    assert unit.analytic == pytest.approx(-1.0, abs=1e-8)

    rng = np.random.default_rng(77)
    for _ in range(25):
        dbar = float(rng.uniform(0.5, 4.0))
        beta = -float(rng.uniform(0.2, 3.0))
        rho = float(rng.uniform(0.05, 0.95))
        model = fp.PartiallyLinearDemand(beta={"g": beta},
                                         baseline={"g": (dbar, np.array([]))})
        pop_rep = fp.sensitivity_at_zero(model, [], "g",
                                         scope=fp.POPULATION_SCOPE)
        grp_rep = fp.sensitivity_at_zero(model, [], "g", scope=fp.GROUP_SCOPE,
                                         rho={"g": rho})
        assert pop_rep.analytic == pytest.approx(-0.5, abs=1e-12)
        assert grp_rep.analytic == pytest.approx(-0.5 / rho, abs=1e-9)


def test_criterion_06_decomposition_residual_first_order_accuracy():
    """The three-term gap prediction's residual contracts with ratio <= 0.35
    when the perturbation halves, on the exponential-demand family."""
    interval = fp.PriceInterval(0.05, 12.0)
    residuals = []
    for eps in (0.2, 0.1, 0.05):
        true = fp.LatentValuationModel(loc={"g": (0.0, np.array([]))},
                                       noise="exponential", scale=1.0)
        est = fp.LatentValuationModel(loc={"g": (eps, np.array([]))},
                                      noise="exponential",
                                      scale=1.0 + eps / 2)
        rep = fp.suboptimality_decomposition(est, true, [], "g", interval)
        residuals.append(abs(rep.residual))
    assert residuals[1] <= 0.35 * residuals[0]
    assert residuals[2] <= 0.35 * residuals[1]


def test_criterion_07_concordance_bound_never_exceeds_oracle():
    """Certified cross-group pattern fraction <= true valuation-ordering
    probability on 1000 simulated threshold-demand datasets (n=200)."""
    rng = np.random.default_rng(7001)
    levels = np.array([0.8, 1.2, 1.6, 2.0, 2.4])
    violations = 0
    evaluated = 0
    for _ in range(1000):
        n = 200
        grp = np.where(rng.random(n) < 0.5, "a", "b")
        vals = np.where(grp == "a", rng.normal(2.0, 0.6, n),
                        rng.normal(1.4, 0.6, n))
        prices = levels[rng.integers(0, len(levels), n)]
        demands = (vals >= prices).astype(float)
        records = record_table(
            dict(id=f"r{i}", group=str(grp[i]), covariates=[0.0],
                 price=float(prices[i]), demand=float(demands[i]),
                 valuation=float(vals[i]))
            for i in range(n))
        try:
            bound = fp.concordance_lower_bound(records)["bound"]
        except fp.NoQualifyingPairsError:
            continue
        oracle = fp.concordance_oracle(records)["concordance"]
        evaluated += 1
        if bound > oracle + 1e-12:
            violations += 1
    assert violations == 0
    assert evaluated >= 990


def test_criterion_08_personalization_raises_minority_access():
    """Simulate a logistic market with five price levels, fit demand from the
    logs, and price it three ways: personalized revenue must not trail the
    uniform price, and the minority group's access must strictly rise."""
    scenario = """
n = 4000
groups = a, b
covariate.x1 = choice(0:0.75, 1:0.25)
membership.intercept = 2.9
membership.x1 = -5.3
demand = logistic
beta = -2.2
intercept = 3.4
gamma.x1 = -1.3
price_levels = 0.6, 1.0, 1.4, 1.8, 2.2
"""
    cfg = fp.ScenarioConfig.from_text(scenario)
    _, pop = fp.simulate(cfg, seed=0)
    fitted, _ = fp.fit_logistic(pop.records)
    out = fp.run_pricing_experiment(fitted, pop, fp.PriceInterval(0.05, 4.0))

    minority = min(pop.rho, key=pop.rho.get)
    assert pop.rho[minority] < 0.35

    assert out["personalized"]["revenue"] >= out["uniform"]["revenue"] - 1e-9
    access_uniform = out["uniform"]["access"][minority]
    access_personal = out["personalized"]["access"][minority]
    assert access_personal > access_uniform


def test_criterion_09_kernel_ope_unbiased_and_search_dominates_constants():
    """Kernel OPE of a fixed linear policy on 1e4 records within 3 bootstrap
    standard errors of the exact counterfactual revenue; searched policy's
    value >= best constant-price value - 1e-6."""
    scenario = """
n = 10000
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
    cfg = fp.ScenarioConfig.from_text(scenario)
    model, pop = fp.simulate(cfg, seed=9)
    policy = fp.LinearPolicy(theta=np.array([0.4]), intercept=1.2,
                             clip_lo=0.8, clip_hi=2.0)

    # exact counterfactual revenue from the discrete support
    truth = 0.0
    for i, x in enumerate(pop.support):
        mix = {"a": float(pop.membership[i, 0]),
               "b": float(pop.membership[i, 1])}
        p = one_price(policy, x)
        truth += float(pop.masses[i]) * p * one_customer(model, x, mix, p)

    estimate = fp.ope_estimate(pop.records, policy, 0.3)["value"]
    se, _ = fp.ope_bootstrap_se(pop.records, policy, 0.3, n_boot=200,
                                seed=1)
    assert abs(estimate - truth) <= 3.0 * se

    result = fp.optimize_linear_policy(pop.records, 0.3, n_starts=6,
                                       seed=0)
    best_constant = -np.inf
    for c in np.linspace(0.8, 2.0, 121):
        try:
            v = fp.ope_estimate(pop.records, fp.ConstantPolicy(float(c)),
                                0.3)["value"]
        except fp.EmptyWeightError:
            continue
        best_constant = max(best_constant, v)
    assert result.value >= best_constant - 1e-6


def test_criterion_10_cli_runs_are_byte_deterministic(tmp_path):
    """Every subcommand re-run with identical arguments reproduces identical
    output bytes (run manifests equal up to their duration field)."""
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("""
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
""")
    policy_path = tmp_path / "policy.json"
    policy_path.write_text(
        json.dumps(fp.policy_to_dict(fp.ConstantPolicy(1.2))))

    def run_twice(name, args):
        dirs = []
        for tag in ("one", "two"):
            out = tmp_path / f"{name}-{tag}"
            code = cli_main(args + ["--out-dir", str(out), "--quiet"])
            assert code == 0, (name, tag)
            dirs.append(out)
        d1, d2 = dirs
        names1 = sorted(p.name for p in d1.iterdir())
        assert names1 == sorted(p.name for p in d2.iterdir())
        for fname in names1:
            b1 = (d1 / fname).read_bytes()
            b2 = (d2 / fname).read_bytes()
            if fname == "run_manifest.json":
                m1, m2 = json.loads(b1), json.loads(b2)
                m1.pop("duration_s"), m2.pop("duration_s")
                assert m1 == m2, name
            else:
                assert b1 == b2, (name, fname)
        return d1

    sim = run_twice("simulate", ["simulate", "--scenario", str(scenario),
                                 "--seed", "4"])
    records = str(sim / "records.csv")
    population = str(sim / "population.json")

    fit = run_twice("fit", ["fit", "--records", records, "--model", "linear"])
    model_json = str(fit / "model.json")

    run_twice("price", ["price", "--model", model_json,
                        "--population", population,
                        "--mode", "attribute_based", "--gamma", "0"])
    run_twice("audit", ["audit", "--records", records])
    run_twice("ope", ["ope", "--records", records, "--policy",
                      str(policy_path), "--n-boot", "50", "--seed", "2"])
    run_twice("sweep", ["sweep", "--kind", "parity", "--model", model_json,
                        "--population", population, "--grid", "0:0.4:5",
                        "--mode", "attribute_based"])
