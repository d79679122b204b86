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
from tables import record_table

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
        records = record_table(
            dict(id=f"r{i}", group=GROUPS[int(rng.integers(2))],
                 covariates=support[rng.integers(n)],
                 weight=float(rng.uniform(0.2, 3.0))) for i in range(m))
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


@settings(max_examples=200)
@given(markets(), st.sampled_from(["constant", "group", "linear", "tabular"]))
def test_revenue_access_and_disparity_match_cell_loops(market, kind):
    model, population, rng = market
    policy = _policy(rng, population, kind)
    assert same(fp.expected_revenue(policy, model, population),
                loop_expected_revenue(policy, model, population))
    assert same(population.cells().evaluate(policy, model)[3],
                loop_access(policy, model, population))
    if population.support is not None and min(population.rho.values()) > 0.0:
        assert same(fp.policy_disparity(policy, population),
                    loop_policy_disparity(policy, population))
    elif population.support is not None:
        with pytest.raises(fp.PreconditionError, match="needs a positive prior"):
            fp.policy_disparity(policy, population)


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
    access = pop.cells().evaluate(policy, model)[3]
    assert same(access, loop_access(policy, model, pop))
    assert access["b"]["price_mean"] == pytest.approx(
        (0.15 + 0.24 + 0.16 * 1.4) / 0.55)
    assert fp.policy_disparity(policy, pop) == loop_policy_disparity(policy, pop)


def _outcome(fn):
    try:
        return repr(fn())
    except fp.FairPriceError as exc:
        return type(exc), str(exc)


@st.composite
def _near_duplicate_policies(draw):
    """A population whose support points repeat, exactly or within the 1e-9
    match window, and a tabular policy on that support, some of whose
    entries may be missing; and the policy on a support one ulp off."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, n = draw(st.integers(1, 2)), draw(st.integers(1, 6))
    support = np.round(rng.normal(size=(n, k)), 1)
    copies = rng.integers(n, size=draw(st.integers(0, 4)))
    jitter = rng.choice([0.0, 3e-10, -5e-10, 2e-9], size=(len(copies), k))
    support = np.concatenate([support, support[copies] + jitter])[
        rng.permutation(n + len(copies))]
    n = len(support)
    q = rng.uniform(0.0, 1.0, size=n)
    population = fp.Population(groups=GROUPS, support=support,
                               masses=np.full(n, 1.0 / n),
                               membership=np.column_stack([q, 1.0 - q]))
    table = {(i, g): float(rng.uniform(0.2, 2.5))
             for i in range(n) for g in (None, *GROUPS) if rng.random() < 0.6}
    policy = fp.TabularPolicy(support=support.copy(), table=table)
    off = support.copy()
    at = rng.integers(n), rng.integers(k)
    off[at] = np.nextafter(off[at], np.inf)
    off_policy = fp.TabularPolicy(support=off, table=table)
    return population, policy, off_policy


@settings(max_examples=200)
@given(_near_duplicate_policies())
def test_cached_support_classes_price_as_the_matcher_does(case):
    # the cells of a support population through its cached classes, and
    # through the matcher (as record cells are priced): the same outputs or
    # the same first error; a policy one ulp off takes the matcher's path
    population, policy, off_policy = case
    model = fp.LatentValuationModel(
        loc={g: (1.5, np.full(population.support.shape[1], 0.3))
             for g in GROUPS}, noise="normal")
    cells = population.cells()
    cached = _outcome(lambda: cells.evaluate(policy, model))
    assert cached == _outcome(
        lambda: cells._replace(population=None).evaluate(policy, model))
    assert cached == _outcome(lambda: cells.evaluate(off_policy, model))
    n = len(population.support)
    for k in range(len(GROUPS)):
        assert _outcome(lambda: population.support_prices(
            policy, np.arange(n), np.full(n, k))) == _outcome(
            lambda: policy.price_batch(population.support, np.full(n, k), GROUPS))


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
    population.unit_cost = cost
    got = fp.run_pricing_experiment(model, population, interval)
    want = loop_pricing_experiment(model, population, 0.05, 3.0, grid_n=64,
                                   cost=cost)
    for mode, info in want.items():
        assert same({key: got[mode][key] for key in info}, info), mode


@pytest.mark.parametrize("family", [*sorted(fp.NOISE_FAMILIES), "logit"])
def test_pricing_experiment_matches_cell_loop_at_the_default_grid(family):
    # a continuous covariate: every record is its own cell
    rng = np.random.default_rng(11)
    if family == "logit":
        model = fp.LogisticDemand(gamma=[0.6, -0.4], beta=-1.7, intercept=1.4)
    else:
        model = fp.LatentValuationModel(
            loc={"a": (1.6, np.array([0.4, -0.2])),
                 "b": (1.1, np.array([0.3, 0.1]))}, noise=family, scale=0.45)
    records = record_table(
        dict(id=f"r{i}", group=GROUPS[i % 2],
             covariates=rng.uniform(0.0, 2.0, size=2),
             weight=float(rng.uniform(0.5, 2.0))) for i in range(5))
    population = fp.Population(groups=GROUPS, records=records,
                               rho={"a": 0.5, "b": 0.5}, unit_cost=0.1)
    got = fp.run_pricing_experiment(model, population,
                                    fp.PriceInterval(0.05, 4.0))
    want = loop_pricing_experiment(model, population, 0.05, 4.0, cost=0.1)
    for mode, info in want.items():
        assert same({key: got[mode][key] for key in info}, info), mode


@settings(max_examples=50)
@given(markets(), st.integers(1, 5), st.booleans())
def test_curve_rows_are_the_curves_of_the_cells_they_select(market, m, revenue):
    # prices up to 8 make partially linear demand negative, so the cells a
    # row leaves out add 0.0 * d = -0.0 terms there
    model, population, rng = market
    cells = population.cells()
    masks = [np.ones(len(cells.g), dtype=bool), rng.random(len(cells.g)) < 0.5,
             *(cells.g == k for k in range(len(cells.groups)))]
    weights = np.array([np.where(mask, cells.mass, 0.0) for mask in masks])

    def loop(mask, prices):
        total = np.zeros(len(prices))
        for w, k, x in zip(cells.mass[mask], cells.g[mask], cells.X[mask]):
            d = fp.eval_demand(model, x, cells.groups[k], prices)
            total = total + (w * prices if revenue else w) * d
        return total.tolist()

    for p in (rng.uniform(0.0, 8.0, size=(1, m)),
              rng.uniform(0.0, 8.0, size=(len(masks), m)),
              rng.uniform(0.0, 8.0, size=len(masks))):
        got = cells.curve(model, p, weights, revenue=revenue)
        assert got.shape == (len(masks),) + p.shape[1:]
        for r, mask in enumerate(masks):
            prices = np.atleast_1d(p[min(r, len(p) - 1)])
            assert same(np.atleast_1d(got[r]).tolist(), loop(mask, prices))


@settings(max_examples=25)
@given(markets(max_points=4), st.floats(0.0, 0.3))
def test_row_maximizer_prices_each_row_as_alone(market, cost):
    from fairprice.optimize import maximize_rows

    model, population, _ = market
    cells = population.cells()
    interval = fp.PriceInterval(0.05, 3.0)
    many = maximize_rows(
        lambda rows, p: (p - cost) * model.demand(cells.X[rows], cells.g[rows],
                                                  p, cells.groups),
        len(cells.g), interval)
    for j, (x, k) in enumerate(zip(cells.X, cells.g)):
        alone = fp.maximize_revenue_1d(
            lambda p: fp.eval_demand(model, x, cells.groups[k], p), interval,
            shift=cost)
        assert (many[0][j], many[1][j]) == alone


def _near_duplicate_market(groups=None, **support):
    """Customers at x = 0.3, 0.3 + 5e-10 and 1.0, the first two within the
    1e-9 by which TabularPolicy matches rows: three records in ``groups``,
    or a support of these three points."""
    model = fp.LatentValuationModel(loc={"a": (1.8, np.array([0.4])),
                                         "b": (1.3, np.array([0.4]))},
                                    noise="logistic", scale=0.4)
    points = [0.3, 0.3 + 5e-10, 1.0]
    if support:
        pop = fp.Population(groups=GROUPS, support=np.c_[points], **support)
    else:
        records = record_table(dict(id=f"r{i}", group=g, covariates=[x])
                               for i, (x, g) in enumerate(zip(points, groups)))
        pop = fp.Population(groups=GROUPS, rho={"a": 0.5, "b": 0.5},
                            records=records)
    interval = fp.PriceInterval(0.05, 4.0)

    def alone(x, g):
        return fp.maximize_revenue_1d(
            lambda p: fp.eval_demand(model, [x], g, p), interval)[0]
    return fp.run_pricing_experiment(model, pop, interval)["personalized"], alone


def test_near_duplicate_records_in_two_groups_get_a_cell_each():
    # the second row is matched to the first row's point, in its own group
    out, alone = _near_duplicate_market(["a", "b", "a"])
    policy = out["policy"]
    assert policy.support.tolist() == [[0.3], [0.3 + 5e-10], [1.0]]
    assert policy.table == {(0, "a"): alone(0.3, "a"), (0, "b"): alone(0.3, "b"),
                            (2, "a"): alone(1.0, "a")}
    assert out["price_mean"]["b"] == alone(0.3, "b")


def test_near_duplicate_records_in_one_group_share_the_first_rows_price():
    # both rows of group a are one cell of the matcher, priced at its point;
    # no table entry is left that the matcher never reads
    out, alone = _near_duplicate_market(["a", "a", "b"])
    assert out["policy"].table == {(0, "a"): alone(0.3, "a"),
                                   (2, "b"): alone(1.0, "b")}
    assert out["price_mean"]["a"] == alone(0.3, "a")
    assert alone(0.3 + 5e-10, "a") != alone(0.3, "a")


def test_near_duplicate_support_points_get_the_first_points_cells():
    # point 0 has no group b mass; point 1's b cell is matched to point 0
    out, alone = _near_duplicate_market(
        masses=[0.3, 0.3, 0.4], membership=[[1.0, 0.0], [0.2, 0.8], [0.6, 0.4]])
    assert out["policy"].support.tolist() == [[0.3], [0.3 + 5e-10], [1.0]]
    assert out["policy"].table == {
        (0, "a"): alone(0.3, "a"), (0, "b"): alone(0.3, "b"),
        (2, "a"): alone(1.0, "a"), (2, "b"): alone(1.0, "b")}


def test_scalarized_objective_sums_in_cell_order():
    rng = np.random.default_rng(3)
    pop = fp.Population(groups=GROUPS, support=rng.normal(size=(40, 2)),
                        masses=np.full(40, 1 / 40),
                        membership=np.column_stack([np.full(40, 0.3),
                                                    np.full(40, 0.7)]),
                        unit_cost=0.2)
    model = fp.LatentValuationModel(
        loc={g: (1.5, np.array([0.2, -0.1])) for g in GROUPS}, noise="normal")
    policy = fp.GroupPolicy({"a": 1.1, "b": 1.3})
    value, slacks = fp.scalarized_objective(
        policy, model, pop, fp.ScalarizationWeights())
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


@settings(max_examples=300)
@given(st.integers(0, 40), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.sampled_from(["contiguous", "transposed", "column slice"]))
def test_seqsum_adds_every_column_in_row_order(n, m, seed, layout):
    # numpy does not document the row-by-row order of a 2-D add.reduce that
    # seqsum relies on; each column must equal a Python loop, bit for bit.
    # Terms mix signed zeros, values of one scale, whose sums round by their
    # order, and (in a share of examples) magnitudes from 1e-300 to 1e300;
    # column 0 is all -0.0 when the seed is even.
    from fairprice.util import seqsum

    rng = np.random.default_rng(seed)
    wide = rng.choice([0.0, 0.05, 0.3])
    kind = rng.choice(3, size=(n, m), p=[0.2, 0.8 - wide, wide])
    block = np.where(kind == 0, rng.choice([0.0, -0.0], size=(n, m)),
                     rng.normal(size=(n, m)))
    block[kind == 2] *= 10.0 ** rng.integers(-300, 300, size=(n, m))[kind == 2]
    block[:, 0] = -0.0 if seed % 2 == 0 else block[:, 0]
    values = block.tolist()
    if layout == "transposed":
        block = np.ascontiguousarray(block.T).T
    elif layout == "column slice":
        padded = np.zeros((n, 2 * m))
        padded[:, 1::2] = block
        block = padded[:, 1::2]
    want = []
    for j in range(m):
        total = 0.0
        for row in values:
            total += row[j]
        want.append(total)
        one = seqsum(block[:, j])
        assert isinstance(one, float) and repr(one) == repr(total)
    assert repr(seqsum(block).tolist()) == repr(want)
