"""Tests for the equalized-price constraint solvers.

The reference values here come from two independent sources: a tiny instance
solved by hand, and a brute-force Lagrangian grid solver (oracles.py) that
shares no code with the implementation.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairprice as fp
from fairprice import parity
from fairprice.share import share_prices
from fairprice.util import json_dumps_stable

from oracles import (
    formula_baseline,
    oracle_attribute_parity,
    oracle_blind_parity,
    reference_attribute_based_parity,
    reference_attribute_blind_parity,
    scan_locate,
)
from tables import one_price


def _hand_model_population():
    # One covariate cell, two groups split evenly, intercepts 2 and 1,
    # shared slope -1.  Known solution at gamma=0: lambda*=1/4, both
    # prices 3/4, revenue loss exactly 1/16.
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.0, np.array([])), "b": (1.0, np.array([]))})
    pop = fp.Population(groups=("a", "b"), support=[[]], masses=[1.0],
                        membership=[[0.5, 0.5]])
    return model, pop


def test_hand_instance_attribute_based():
    model, pop = _hand_model_population()
    sol = fp.solve_attribute_based_parity(model, pop, gamma=0.0)
    assert sol.lambda_star == pytest.approx(0.25, abs=1e-9)
    assert sol.price_array[0].tolist() == pytest.approx([0.75, 0.75], abs=1e-9)
    assert sol.achieved_disparity == pytest.approx(0.0, abs=1e-9)
    assert sol.unconstrained_disparity == pytest.approx(0.5, abs=1e-9)

    rev = fp.expected_revenue(sol.policy(), model, pop)
    # unconstrained revenue is (1/2)(1) + (1/2)(1/4) = 5/8; loss is 1/16
    assert rev == pytest.approx(0.625 - 0.0625, abs=1e-9)


def test_hand_instance_loss_equals_bound():
    model, pop = _hand_model_population()
    actual, bound = fp.revenue_loss_bound(model, pop)
    # the shared-slope bound is tight at gamma = 0
    assert actual == pytest.approx(0.0625, abs=1e-9)
    assert bound == pytest.approx(0.0625, abs=1e-9)


def test_gamma_inf_is_unconstrained():
    model, pop = _hand_model_population()
    for solve in (fp.solve_attribute_based_parity, fp.solve_attribute_blind_parity):
        sol = solve(model, pop, gamma=np.inf)
        assert sol.lambda_star == 0.0
        assert sol.achieved_disparity == pytest.approx(
            sol.unconstrained_disparity)
    sol = fp.solve_attribute_based_parity(model, pop, gamma=np.inf)
    assert sol.price_array[0].tolist() == pytest.approx([1.0, 0.5])


def test_slack_constraint_is_inactive():
    model, pop = _hand_model_population()
    sol = fp.solve_attribute_based_parity(model, pop, gamma=0.8)
    assert sol.lambda_star == 0.0  # d0 = 0.5 <= 0.8


def _random_instance(rng, m, shared_beta):
    masses = rng.dirichlet(np.ones(m))
    memb = rng.dirichlet(np.ones(2), size=m)
    support = [[float(v)] for v in rng.normal(size=m)]
    dbar = {}
    for g in ("a", "b"):
        icpt = rng.uniform(1.0, 3.0)
        coef = rng.uniform(-0.3, 0.3)
        dbar[g] = (icpt, np.array([coef]))
    if shared_beta:
        b = -rng.uniform(0.5, 2.0)
        beta = {"a": b, "b": b}
    else:
        beta = {"a": -rng.uniform(0.5, 2.0), "b": -rng.uniform(0.5, 2.0)}
    model = fp.PartiallyLinearDemand(beta=beta, baseline=dbar)
    pop = fp.Population(groups=("a", "b"), support=support,
                        masses=masses.tolist(), membership=memb.tolist())
    return model, pop


def _oracle_inputs(model, pop):
    m = len(pop.support)
    dbar = np.array([[formula_baseline(model, pop.support[i], g) for g in pop.groups]
                     for i in range(m)])
    beta = np.array([model.beta[g] for g in pop.groups])
    joint = pop.joint_weights()
    rho = np.array([pop.rho[g] for g in pop.groups])
    return dbar, beta, joint, rho


@pytest.mark.parametrize("gamma", [0.0, 0.05, 0.3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_attribute_based_matches_oracle(seed, gamma):
    rng = np.random.default_rng(100 + seed)
    model, pop = _random_instance(rng, m=3, shared_beta=(seed % 2 == 0))
    sol = fp.solve_attribute_based_parity(model, pop, gamma=gamma)

    dbar, beta, joint, rho = _oracle_inputs(model, pop)
    # oriented contrast: +1/rho for the solver's positive group
    pos = sol.oriented_groups[0]
    xi = np.array([(1.0 if g == pos else -1.0) / pop.rho[g]
                   for g in pop.groups])
    prices, revenue, disparity = oracle_attribute_parity(
        dbar, beta, joint, xi, gamma)

    for i in range(len(pop.support)):
        for j, g in enumerate(pop.groups):
            assert abs(sol.price_array[i, j] - prices[i, j]) < 1e-3, (i, g)
    got_rev = fp.expected_revenue(sol.policy(), model, pop)
    assert abs(got_rev - revenue) < 1e-5
    assert abs(sol.achieved_disparity) <= gamma + 1e-7


@pytest.mark.parametrize("gamma", [0.0, 0.1])
@pytest.mark.parametrize("seed", [3, 4])
def test_attribute_blind_matches_oracle(seed, gamma):
    rng = np.random.default_rng(200 + seed)
    model, pop = _random_instance(rng, m=3, shared_beta=False)
    sol = fp.solve_attribute_blind_parity(model, pop, gamma=gamma)

    m = len(pop.support)
    memb = np.asarray(pop.membership, dtype=float)
    dbar_x = np.array([
        sum(memb[i, j] * formula_baseline(model, pop.support[i], g)
            for j, g in enumerate(pop.groups)) for i in range(m)])
    betabar = memb @ np.array([model.beta[g] for g in pop.groups])
    pos = sol.oriented_groups[0]
    xi = np.array([(1.0 if g == pos else -1.0) / pop.rho[g]
                   for g in pop.groups])
    m_x = memb @ xi
    prices, revenue, disparity = oracle_blind_parity(
        dbar_x, betabar, m_x, np.asarray(pop.masses), gamma)

    policy = sol.policy()
    for i in range(m):
        got = sol.price_array[i, 0]  # one price per covariate cell
        assert abs(got - prices[i]) < 1e-3
        # both group labels resolve to the cell price
        assert one_price(policy, pop.support[i], "a") == got
        assert one_price(policy, pop.support[i], "b") == got
    got_rev = fp.expected_revenue(sol.policy(), model, pop)
    assert abs(got_rev - revenue) < 1e-5
    assert abs(sol.achieved_disparity) <= gamma + 1e-7


def _solve_outcome(solver, model, pop, gamma):
    """Everything a solve yields, as text that tells -0.0 from 0.0 and a
    numpy float from a Python one."""
    try:
        sol = solver(model, pop, gamma)
    except fp.FairPriceError as exc:
        return type(exc), str(exc)
    return (json_dumps_stable(sol.to_dict()), repr(list(sol.policy().table.items())),
            repr(list(sol.parity_weights.items())), sol.oriented_groups)


def _bitwise_instance(rng, t):
    """0-2 covariates, shared or distinct slopes, priors listed in reverse
    key order, and every 10th membership within 1e-9 of the priors (an
    attribute-blind cap the covariates cannot enforce)."""
    n, d = int(rng.integers(1, 8)), int(rng.integers(0, 3))
    masses = rng.dirichlet(np.ones(n))
    if t % 10 == 0:
        r = rng.uniform(0.2, 0.8)
        memb = np.array([r, 1.0 - r]) + rng.normal(
            scale=1e-9, size=(n, 1)) * np.array([1.0, -1.0])
    else:
        memb = rng.dirichlet(np.ones(2), size=n)
    support = rng.normal(size=(n, d))
    baseline = {g: (float(rng.uniform(-1.0, 3.0)), rng.uniform(-0.5, 0.5, d))
                for g in ("a", "b")}
    b = -rng.uniform(0.5, 2.0)
    beta = {"a": b, "b": b if t % 2 else -rng.uniform(0.5, 2.0)}
    implied = masses @ memb
    rho = ({"b": float(implied[1]), "a": float(implied[0])} if t % 3 == 0
           else None)
    return (fp.PartiallyLinearDemand(beta=beta, baseline=baseline),
            fp.Population(groups=("a", "b"), support=support, masses=masses,
                          membership=memb, rho=rho))


def _zero_contrast_instance(sign):
    """Support point 0 has zero membership contrast and zero baseline, so its
    constrained blind price is a signed zero."""
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.5},
        baseline={"a": (0.0, np.array([sign])), "b": (0.0, np.array([sign / 2]))})
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0], [2.0]],
                        masses=[0.2, 0.4, 0.4],
                        membership=[[0.5, 0.5], [0.9, 0.1], [0.1, 0.9]])
    return model, pop


def test_solvers_match_separate_reference_bodies_bitwise():
    rng = np.random.default_rng(20)
    cases = [_bitwise_instance(rng, t) for t in range(200)]
    cases += [_zero_contrast_instance(s) for s in (1.0, -1.0)]
    pairs = ((fp.solve_attribute_based_parity, reference_attribute_based_parity),
             (fp.solve_attribute_blind_parity, reference_attribute_blind_parity))
    flips = unenforceable = 0
    for model, pop in cases:
        for gamma in (0.0, 0.01, 0.05, 0.3, float("inf")):
            for solver, reference in pairs:
                got = _solve_outcome(solver, model, pop, gamma)
                assert got == _solve_outcome(reference, model, pop, gamma)
                flips += got[-1] == ("b", "a")
                unenforceable += got[0] is fp.UnenforceableConstraintError
    assert flips > 100 and unenforceable > 0
    assert list(cases[0][1].rho) == ["b", "a"]


def test_parity_weight_identities():
    pop = fp.Population(groups=("a", "b"), support=[[0.0]], masses=[1.0],
                        membership=[[0.3, 0.7]])
    xa = fp.parity_weight(pop.rho, "a", positive_group="a")
    xb = fp.parity_weight(pop.rho, "b", positive_group="a")
    assert xa == pytest.approx(1.0 / 0.3)
    assert xb == pytest.approx(-1.0 / 0.7)
    # E[xi] = 0 and E[xi^2] = 1/rho_a + 1/rho_b under the group marginal
    assert 0.3 * xa + 0.7 * xb == pytest.approx(0.0)
    assert 0.3 * xa ** 2 + 0.7 * xb ** 2 == pytest.approx(1 / 0.3 + 1 / 0.7)


@pytest.mark.parametrize("rho, group, positive, error, message", [
    ({"a": 0.2, "b": 0.3, "c": 0.5}, "a", None, fp.PreconditionError,
     "exactly two groups, got 3"),
    ({"a": 0.3, "b": 0.7}, "a", "zz", fp.UnknownGroupError,
     "unknown group 'zz'"),
    ({"a": 0.3, "b": 0.7}, "zz", "a", fp.UnknownGroupError,
     "unknown group 'zz'"),
    ({"a": 0.0, "b": 1.0}, "a", None, fp.PreconditionError,
     "group 'a' needs a positive prior"),
], ids=["three_groups", "unknown_positive", "unknown_group", "zero_prior"])
def test_parity_weight_rejects_bad_priors_and_groups(rho, group, positive,
                                                     error, message):
    with pytest.raises(error, match=message):
        fp.parity_weight(rho, group, positive_group=positive)


def test_policy_disparity_agrees_with_solution():
    rng = np.random.default_rng(17)
    model, pop = _random_instance(rng, m=4, shared_beta=True)
    for gamma in (0.0, 0.2, np.inf):
        sol = fp.solve_attribute_based_parity(model, pop, gamma=gamma)
        gap = fp.policy_disparity(sol.policy(), pop)
        assert abs(abs(gap) - abs(sol.achieved_disparity)) < 1e-9


def test_revenue_loss_bound_holds_on_random_instances():
    for seed in range(6):
        rng = np.random.default_rng(300 + seed)
        model, pop = _random_instance(rng, m=3, shared_beta=True)
        actual, bound = fp.revenue_loss_bound(model, pop)
        assert actual <= bound + 1e-9
        assert actual >= -1e-9


def test_revenue_loss_bound_needs_shared_slope():
    rng = np.random.default_rng(5)
    model, pop = _random_instance(rng, m=2, shared_beta=False)
    with pytest.raises(fp.PreconditionError):
        fp.revenue_loss_bound(model, pop)


def test_solution_round_trips_to_json():
    import json

    model, pop = _hand_model_population()
    sol = fp.solve_attribute_based_parity(model, pop, gamma=0.0)
    blob = json.loads(json_dumps_stable(sol.to_dict()))
    assert blob["mode"] == fp.ATTRIBUTE_BASED
    assert blob["lambda_star"] == pytest.approx(0.25)
    assert len(blob["prices"]) == 2
    assert {row["group"] for row in blob["prices"]} == {"a", "b"}


def test_solution_dict_keeps_infinite_gamma_and_one_policy():
    model, pop = _hand_model_population()
    sol = fp.solve_attribute_blind_parity(model, pop, gamma=float("inf"))
    blob = sol.to_dict()
    assert blob["gamma"] == float("inf")
    assert '"gamma": "inf"' in json_dumps_stable(blob)
    # the solution prices through one tabular policy built from its table
    policy = sol.policy()
    assert one_price(policy, [], "a") == sol.price_array[0, 0]
    assert policy.price_batch(np.zeros((2, 0)), [0, 1], ("a", "b")).tolist() == [
        sol.price_array[0, 0]] * 2


def test_parity_rejects_latent_model():
    _, pop = _hand_model_population()
    latent = fp.LatentValuationModel(loc={"a": (2.0, np.array([])),
                                          "b": (1.0, np.array([]))},
                                     noise="logistic")
    with pytest.raises(fp.PreconditionError):
        fp.solve_attribute_based_parity(latent, pop, gamma=0.0)


def test_parity_rejects_bad_gamma():
    model, pop = _hand_model_population()
    with pytest.raises(fp.MissingFieldError):
        fp.solve_attribute_based_parity(model, pop, gamma=-0.1)


def test_parity_needs_two_groups():
    model = fp.PartiallyLinearDemand(beta={"a": -1.0},
                                     baseline={"a": (2.0, np.array([]))})
    pop = fp.Population(groups=("a",), support=[[]], masses=[1.0],
                        membership=[[1.0]])
    with pytest.raises(fp.PreconditionError):
        fp.solve_attribute_based_parity(model, pop, gamma=0.0)


# -- comparing the two modes --------------------------------------------------


def _comparison_instance(rng, m=3):
    """Instance satisfying the comparison preconditions.

    Shared price slope and a group-free baseline, so the blind and
    attribute-based problems differ only through the contrast terms.
    """
    b = -rng.uniform(0.6, 1.8)
    icpt = rng.uniform(1.5, 3.0)
    coef = rng.uniform(-0.4, 0.4)
    base = (icpt, np.array([coef]))
    model = fp.PartiallyLinearDemand(
        beta={"a": b, "b": b},
        baseline={"a": base, "b": (base[0], base[1].copy())})
    masses = rng.dirichlet(np.ones(m))
    memb = rng.dirichlet(np.ones(2), size=m)
    support = [[float(v)] for v in rng.uniform(-1, 1, size=m)]
    pop = fp.Population(groups=("a", "b"), support=support,
                        masses=masses.tolist(), membership=memb.tolist())
    return model, pop


def test_compare_modes_consistency_sweep():
    # the sign prediction must agree with directly measured price gaps
    checked = 0
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        model, pop = _comparison_instance(rng)
        for i in range(len(pop.support)):
            try:
                rep = fp.compare_parity_modes(model, pop, x_index=i)
            except fp.UnenforceableConstraintError:
                continue
            assert rep.consistent_low, (seed, i)
            assert rep.consistent_high, (seed, i)
            if rep.ratio is not None:
                assert -1e-9 <= rep.ratio <= 1.0 + 1e-9
            checked += 1
    assert checked > 50


def test_compare_modes_on_a_support_without_group_signal_predicts_equal_prices():
    # memberships equal to the priors at every point: the gap is exactly 0,
    # neither cap binds, and both modes price every point alike
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.0, np.array([0.5])), "b": (2.0, np.array([0.5]))})
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0]],
                        masses=[0.5, 0.5], membership=[[0.5, 0.5], [0.5, 0.5]])
    for i in range(2):
        rep = fp.compare_parity_modes(model, pop, x_index=i)
        assert rep.lambda_attribute == rep.lambda_blind == 0.0
        assert rep.diff_low == rep.diff_high == 0.0
        assert rep.predicted_low == rep.predicted_high == "equal"
        assert rep.consistent_low and rep.consistent_high


def test_compare_modes_blind_overcharges_high_group_at_leaning_point():
    # At the support point leaning most toward the cheaper group, the blind
    # price exceeds what attribute-based pricing charges the *other* group:
    # the blind surcharge aimed at that cell spills onto them.
    hits = 0
    for seed in range(30):
        rng = np.random.default_rng(2000 + seed)
        model, pop = _comparison_instance(rng)
        probe = fp.compare_parity_modes(model, pop, x_index=0)
        if abs(probe.lambda_attribute) < 1e-6:
            continue  # constraint not binding; nothing to compare
        idx = fp.most_group_leaning_index(pop, probe.group_low)
        rep = fp.compare_parity_modes(model, pop, x_index=idx)
        assert rep.diff_high < 1e-9, seed
        hits += 1
    assert hits >= 10


def test_compare_modes_pinned_counterexample():
    # blind pricing can *raise* the high-group price at some support point:
    # membership there leans toward the low group, so the blind surcharge
    # undershoots the attribute-based one.  Found by deterministic search.
    found = None
    for seed in range(200):
        rng = np.random.default_rng(3000 + seed)
        model, pop = _comparison_instance(rng)
        probe = fp.compare_parity_modes(model, pop, x_index=0)
        if abs(probe.lambda_attribute) < 1e-6:
            continue
        for i in range(len(pop.support)):
            rep = fp.compare_parity_modes(model, pop, x_index=i)
            if rep.diff_high > 1e-6:
                found = (seed, i, rep)
                break
        if found:
            break
    assert found is not None
    _, _, rep = found
    assert rep.predicted_high == "higher"
    assert rep.consistent_high


def test_compare_modes_requires_group_free_baseline():
    rng = np.random.default_rng(9)
    model, pop = _random_instance(rng, m=2, shared_beta=True)
    with pytest.raises(fp.PreconditionError):
        fp.compare_parity_modes(model, pop, x_index=0)


@pytest.mark.parametrize("run", [
    lambda model, pop: fp.revenue_loss_bound(model, pop),
    lambda model, pop: fp.compare_parity_modes(model, pop, x_index=1),
], ids=["revenue_loss_bound", "compare_parity_modes"])
def test_loss_bound_and_mode_comparison_check_their_inputs_once(monkeypatch,
                                                                run):
    check, calls = parity._check_parity_inputs, []

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(parity, "_check_parity_inputs", counted)
    run(*_comparison_instance(np.random.default_rng(11)))
    assert len(calls) == 1


def test_most_group_leaning_index():
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0], [2.0]],
                        masses=[0.3, 0.3, 0.4],
                        membership=[[0.2, 0.8], [0.9, 0.1], [0.5, 0.5]])
    assert fp.most_group_leaning_index(pop, "a") == 1
    assert fp.most_group_leaning_index(pop, "b") == 0
    with pytest.raises(fp.UnknownGroupError):
        fp.most_group_leaning_index(pop, "zz")


# ---------------------------------------------------------------------------
# properties over random two-group partially linear markets
# ---------------------------------------------------------------------------

_SOLVERS = (fp.solve_attribute_based_parity, fp.solve_attribute_blind_parity)


@st.composite
def parity_markets(draw):
    """A two-group partially linear market on a support of 1-6 points with
    0-2 covariates (one point without covariates, or two in a draw with
    copies): shared or distinct slopes, and now and then memberships within
    1e-9 of the priors (a blind cap the covariates cannot enforce). One draw
    in three adds copies of some points, each coordinate moved by 0, 3e-10,
    -5e-10 or 2e-9: within or just outside the 1e-9 by which a policy
    matches rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, 2))
    support = rng.normal(size=(draw(st.integers(1, 6)) if k else 1, k))
    if draw(st.integers(0, 2)) == 0:
        copies = rng.integers(len(support), size=draw(st.integers(1, 3)))
        jitter = rng.choice([0.0, 3e-10, -5e-10, 2e-9], size=(len(copies), k))
        support = np.concatenate([support, support[copies] + jitter])
        support = support[rng.permutation(len(support))]
    n = len(support)
    q = (rng.uniform(0.2, 0.8) + rng.normal(scale=1e-9, size=n)
         if draw(st.integers(0, 9)) == 0 else rng.uniform(0.0, 1.0, size=n))
    b = -rng.uniform(0.5, 2.0)
    beta = {"a": b, "b": b if draw(st.booleans()) else -rng.uniform(0.5, 2.0)}
    model = fp.PartiallyLinearDemand(
        beta=beta, baseline={g: (rng.uniform(-1.0, 3.0),
                                 rng.uniform(-0.5, 0.5, k)) for g in "ab"})
    population = fp.Population(groups=("a", "b"), support=support,
                               masses=rng.dirichlet(np.ones(n)),
                               membership=np.column_stack([q, 1.0 - q]))
    return model, population


def _twin(population):
    """The first support point that the full-scan matcher finds at an
    earlier point, and that point; None when every point is its own."""
    support = population.support
    for i in range(len(support)):
        j = scan_locate(support, support[i])
        if j != i:
            return i, j
    return None


def _accepted(market) -> bool:
    """Whether the solvers take the market: none of its support points is
    matched to another (test_the_solved_policy_is_the_evaluated_policy holds
    the refusal of the others)."""
    return _twin(market[1]) is None


def _revenue(solution, model, population):
    """The solution's expected revenue and a rounding allowance for it: 1e-9
    of the summed absolute cell terms, plus 1e-9."""
    cells = population.cells()
    p, d, revenue, _ = cells.evaluate(solution.policy(), model)
    return revenue, 1e-9 * (1.0 + float(np.abs(cells.mass * p * d).sum()))


def _solved(solve, model, population, gamma):
    try:
        return solve(model, population, gamma)
    except fp.UnenforceableConstraintError:
        return None


@settings(max_examples=200)
@given(parity_markets().filter(_accepted), st.floats(0.0, 1.5))
def test_parity_prices_keep_the_cap(market, share):
    model, population = market
    for solve in _SOLVERS:
        gamma = share * solve(model, population, math.inf).unconstrained_disparity
        solution = _solved(solve, model, population, gamma)
        if solution is None:
            continue
        prices = solution.price_array
        assert abs(fp.policy_disparity(solution.policy(), population)) <= (
            gamma + 1e-9 * (1.0 + np.abs(prices).max()))


@settings(max_examples=200)
@given(parity_markets().filter(_accepted), st.floats(1.0, 3.0))
def test_a_cap_at_or_above_the_unconstrained_gap_does_not_bind(market, factor):
    model, population = market
    for solve in _SOLVERS:
        gap = abs(solve(model, population, math.inf).unconstrained_disparity)
        for gamma in (gap, factor * gap):
            assert solve(model, population, gamma).lambda_star == 0.0


@settings(max_examples=200)
@given(parity_markets().filter(_accepted), st.floats(0.0, 1.5),
       st.floats(0.0, 1.5))
def test_revenue_does_not_fall_as_the_cap_grows(market, s, t):
    model, population = market
    for solve in _SOLVERS:
        gap = solve(model, population, math.inf).unconstrained_disparity
        tight, loose = (_solved(solve, model, population, share * gap)
                        for share in sorted((s, t)))
        if tight is None or loose is None:
            continue
        (low, slack), (high, _) = (_revenue(solution, model, population)
                                   for solution in (tight, loose))
        assert low <= high + slack


@settings(max_examples=200)
@given(parity_markets().filter(_accepted), st.floats(0.0, 1.5))
def test_attribute_based_revenue_is_at_least_blind_revenue(market, share):
    model, population = market
    based, blind = _SOLVERS
    gamma = share * based(model, population, math.inf).unconstrained_disparity
    blind_solution = _solved(blind, model, population, gamma)
    if blind_solution is None:
        return
    revenue, slack = _revenue(based(model, population, gamma), model, population)
    assert revenue + slack >= _revenue(blind_solution, model, population)[0]


@settings(max_examples=200)
@given(parity_markets().filter(_accepted), st.floats(0.0, 1.5))
def test_a_blind_policy_prices_both_groups_alike(market, share):
    model, population = market
    blind = fp.solve_attribute_blind_parity
    gamma = share * blind(model, population, math.inf).unconstrained_disparity
    solution = _solved(blind, model, population, gamma)
    if solution is None:
        return
    support, n = population.support, len(population.support)
    prices = [solution.policy().price_batch(support, np.full(n, k),
                                            population.groups)
              for k in range(2)]
    assert prices[0].tobytes() == prices[1].tobytes()


@settings(max_examples=200)
@given(parity_markets().filter(_accepted))
def test_a_zero_share_penalty_gives_the_uncapped_prices(market):
    model, population = market
    solution = fp.solve_attribute_based_parity(model, population, math.inf)
    n, groups = len(population.support), population.groups
    share = share_prices(model, population.support.repeat(2, 0), [0, 1] * n,
                         groups, [0.0] * (2 * n))
    uncapped = solution.price_array.ravel()
    assert np.all(np.abs(share - uncapped) <= 1e-12 * (1.0 + np.abs(uncapped)))


@settings(max_examples=300)
@given(parity_markets(), st.floats(0.0, 1.5), st.floats(0.0, 1.5))
def test_the_solved_policy_is_the_evaluated_policy(market, s, t):
    # a support with a point that a policy matches to an earlier one is
    # refused; otherwise the solution's own policy has the achieved
    # disparity, and its revenue does not fall as the cap grows
    model, population = market
    twin = _twin(population)
    for solve in _SOLVERS:
        if twin is not None:
            i, j = twin
            with pytest.raises(fp.InvalidRecordError, match=(
                    rf"support points {j} \[.*\] and {i} \[")) as info:
                solve(model, population, math.inf)
            assert info.value.code == "invalid_value"
            continue
        gap = solve(model, population, math.inf).unconstrained_disparity
        solutions = [_solved(solve, model, population, share * gap)
                     for share in sorted((s, t))]
        if None in solutions:
            continue
        for solution in solutions:
            disparity = fp.policy_disparity(solution.policy(), population)
            assert abs(abs(disparity) - solution.achieved_disparity) <= 1e-9 * (
                1.0 + np.abs(solution.price_array).max())
        (low, slack), (high, _) = (_revenue(solution, model, population)
                                   for solution in solutions)
        assert low <= high + slack


def test_points_a_policy_matches_as_one_are_refused_by_every_parity_entry():
    # two copies of one point: at the parent the blind solve at gamma 0.0711
    # reported a disparity of 0.0707 while its policy's was 0
    model = fp.PartiallyLinearDemand(
        beta={"a": -0.561, "b": -0.525},
        baseline={"a": (2.253, np.array([0.0])), "b": (2.651, np.array([0.0]))})
    pop = fp.Population(groups=("a", "b"), support=[[1.0], [1.0]],
                        masses=[0.4714, 0.5286],
                        membership=[[0.637, 0.363], [0.270, 0.730]])
    calls = [lambda solve=solve: solve(model, pop, 0.0711) for solve in _SOLVERS]
    calls += [lambda: fp.revenue_loss_bound(model, pop),
              lambda: fp.compare_parity_modes(model, pop, 0)]
    for call in calls:
        with pytest.raises(fp.InvalidRecordError, match=re.escape(
                "support points 0 [1.0] and 1 [1.0] lie within 1e-9")):
            call()
