"""Array paths over population cells against the cell-by-cell loop oracles.

Every comparison is exact: the array paths add cells in the loops' order.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairprice as fp

from oracles import (
    loop_access,
    loop_expected_revenue,
    loop_policy_disparity,
    loop_pricing_experiment,
    loop_share_frontier,
)

GROUPS = ("a", "b")


def same(got, want):
    """Equal to the last bit, NaN included (a group of zero mass gives NaN
    means), key order included."""
    return repr(got) == repr(want)


@st.composite
def markets(draw, max_points=5):
    """A demand model and a two-group population, on a random small support
    (some masses and memberships exactly zero) or on weighted records."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(1, 2))
    n = draw(st.integers(1, max_points))
    support = np.unique(np.round(rng.normal(size=(n, k)) * 1.3, 6), axis=0)
    n = len(support)
    family = draw(st.sampled_from(["latent", "logistic", "linear"]))
    if family == "latent":
        model = fp.LatentValuationModel(
            loc={g: (1.5 + rng.normal() * 0.3, rng.normal(size=k) * 0.4)
                 for g in GROUPS},
            noise=draw(st.sampled_from(sorted(fp.NOISE_FAMILIES))),
            scale=float(rng.uniform(0.2, 0.8)))
    elif family == "logistic":
        model = fp.LogisticDemand(gamma=rng.normal(size=k) * 0.5,
                                  beta=-rng.uniform(0.8, 2.0),
                                  intercept=rng.uniform(0.5, 2.0))
    else:
        model = fp.PartiallyLinearDemand(
            beta={g: -rng.uniform(0.5, 1.5) for g in GROUPS},
            baseline={g: (rng.uniform(1.5, 3.0), rng.normal(size=k) * 0.3)
                      for g in GROUPS})
    if draw(st.booleans()):
        masses = rng.uniform(0.1, 1.0, size=n) * (rng.random(n) > 0.2)
        masses = masses / masses.sum() if masses.sum() > 0 else np.full(n, 1.0 / n)
        q = rng.uniform(0.0, 1.0, size=n)
        q[rng.random(n) < 0.2] = 1.0
        population = fp.Population(groups=GROUPS, support=support,
                                   masses=masses,
                                   membership=np.column_stack([q, 1.0 - q]))
    else:
        m = draw(st.integers(1, 12))
        records = [fp.Record(id=f"r{i}", group=GROUPS[int(rng.integers(2))],
                             covariates=support[rng.integers(n)],
                             weight=float(rng.uniform(0.2, 3.0)))
                   for i in range(m)]
        population = fp.Population(groups=GROUPS, records=records,
                                   rho={"a": 0.5, "b": 0.5})
    return model, population, rng


def _policy(rng, population, kind):
    """A policy with nonnegative prices; tabular ones sit on the support."""
    support = population.support
    if kind == "constant":
        return fp.ConstantPolicy(float(rng.uniform(0.2, 2.5)))
    if kind == "group":
        return fp.GroupPolicy({g: float(rng.uniform(0.2, 2.5)) for g in GROUPS})
    if kind == "linear":
        k = (support if support is not None else population.records.X).shape[1]
        return fp.LinearPolicy(theta=rng.normal(size=k), intercept=1.2,
                               clip_lo=0.1, clip_hi=2.5)
    if support is None:
        support = np.unique(population.records.X, axis=0)
    table = {}
    for i in range(len(support)):
        if rng.random() < 0.5:
            table[(i, None)] = float(rng.uniform(0.2, 2.5))
        for g in GROUPS:
            if (i, None) not in table or rng.random() < 0.5:
                table[(i, g)] = float(rng.uniform(0.2, 2.5))
    return fp.TabularPolicy(support=support, table=table)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 0/0 mean of an empty group
@settings(max_examples=200)
@given(markets(), st.sampled_from(["constant", "group", "linear", "tabular"]))
def test_revenue_access_and_disparity_match_cell_loops(market, kind):
    model, population, rng = market
    policy = _policy(rng, population, kind)
    assert same(fp.expected_revenue(policy, model, population),
                loop_expected_revenue(policy, model, population))
    assert same(fp.access_metrics(policy=policy, model=model,
                                  population=population),
                loop_access(policy, model, population))
    if population.support is not None:
        assert same(fp.policy_disparity(policy, population),
                    loop_policy_disparity(policy, population))


def test_near_duplicate_support_points_price_at_the_first_hit():
    # support points 0 and 1 lie within 1e-9: every path prices the cells of
    # point 1 at point 0's entry, as TabularPolicy.price does
    pop = fp.Population(groups=GROUPS, support=[[0.0], [5e-10], [1.0]],
                        masses=[0.3, 0.3, 0.4],
                        membership=[[0.5, 0.5], [0.2, 0.8], [0.6, 0.4]])
    model = fp.LatentValuationModel(
        loc={g: (1.5, np.array([0.4])) for g in GROUPS}, noise="gumbel")
    policy = fp.TabularPolicy(support=pop.support,
                              table={(0, None): 1.0, (1, None): 2.0,
                                     (2, "a"): 1.2, (2, "b"): 1.4})
    assert fp.expected_revenue(policy, model, pop) \
        == loop_expected_revenue(policy, model, pop)
    access = fp.access_metrics(policy=policy, model=model, population=pop)
    assert same(access, loop_access(policy, model, pop))
    assert access["b"]["price_mean"] == pytest.approx(
        (0.15 + 0.24 + 0.16 * 1.4) / 0.55)
    assert fp.policy_disparity(policy, pop) == loop_policy_disparity(policy, pop)


@settings(max_examples=15)
@given(markets(max_points=3), st.sampled_from(["population", "group"]))
def test_share_frontier_matches_cell_loop(market, scope):
    model, population, _ = market
    group = "b" if scope == "group" else None
    weights = [0.0, 0.3]
    assert same(fp.share_frontier(model, population, weights, scope, group),
                loop_share_frontier(model, population, weights, scope, group))


@settings(max_examples=25)
@given(markets(max_points=4))
def test_pricing_experiment_matches_cell_loop(market):
    model, population, rng = market
    cost = float(rng.uniform(0.0, 0.3))
    interval = fp.PriceInterval(0.05, 3.0, grid_n=64)
    got = fp.run_pricing_experiment(model, population, interval, unit_cost=cost)
    want = loop_pricing_experiment(model, population, 0.05, 3.0, grid_n=64,
                                   cost=cost)
    for mode, info in want.items():
        assert same({key: got[mode][key] for key in info}, info), mode


def test_scalarized_objective_sums_in_cell_order():
    rng = np.random.default_rng(3)
    pop = fp.Population(groups=GROUPS, support=rng.normal(size=(40, 2)),
                        masses=np.full(40, 1 / 40),
                        membership=np.column_stack([np.full(40, 0.3),
                                                    np.full(40, 0.7)]))
    model = fp.LatentValuationModel(
        loc={g: (1.5, np.array([0.2, -0.1])) for g in GROUPS}, noise="normal")
    policy = fp.GroupPolicy({"a": 1.1, "b": 1.3})
    value, slacks = fp.scalarized_objective(
        policy, model, pop, fp.ScalarizationWeights(unit_cost=0.2))
    assert value == loop_expected_revenue(policy, model, pop)
    margin = 0.0
    for w, g, x in [(float(pop.joint_weights()[i, k]), g, pop.support[i])
                    for i in range(40) for k, g in enumerate(GROUPS)]:
        p = policy.price(x, g)
        margin += w * (p - 0.2) * fp.eval_demand(model, x, g, p)
    assert slacks["break_even"] == margin


@pytest.mark.parametrize("terms", [[], [-0.0], [-0.0, -0.0], [0.1, 0.2, 0.3],
                                   [1e16, 1.0, -1e16, 1.0]])
def test_seqsum_is_a_left_to_right_loop(terms):
    from fairprice.util import seqsum

    total = 0.0
    for t in terms:
        total += t
    got = seqsum(np.array(terms, dtype=float))
    assert isinstance(got, float) and repr(got) == repr(total)
    stacked = seqsum(np.array([[t, 2 * t] for t in terms]).reshape(-1, 2))
    assert stacked.tolist() == [total, seqsum(2 * np.array(terms, dtype=float))]
