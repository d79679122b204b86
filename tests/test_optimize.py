import numpy as np
import pytest

import fairprice as fp
from fairprice.optimize import _TOL, golden_rows, maximize_rows

from oracles import grid_argmax
from tables import customer


def test_monopoly_price_linear_matches_grid():
    # argmax p(d - |b| p) has the closed form d / (2 |b|)
    for dbar, beta in [(2.0, -1.0), (1.3, -0.4), (5.0, -2.5)]:
        p = fp.monopoly_price_linear(dbar, beta)
        p_grid, _ = grid_argmax(lambda t: t * (dbar + beta * t), 0.0,
                                2 * dbar / abs(beta))
        assert p == pytest.approx(-dbar / (2 * beta))
        assert abs(p - p_grid) < 1e-4


def test_monopoly_price_requires_downward_slope():
    with pytest.raises(fp.UpwardSlopeError):
        fp.monopoly_price_linear(1.0, 0.0)


def test_golden_section_quadratic():
    x, v = golden_rows(lambda rows, t: -(t - 0.37) ** 2 + 2.0, [0.0], [1.0],
                       _TOL)
    assert abs(x[0] - 0.37) < 1e-6
    assert v[0] == pytest.approx(2.0, abs=1e-10)


def test_golden_section_endpoint_max():
    x, v = golden_rows(lambda rows, t: t, [0.0], [3.0], _TOL)
    assert x[0] == pytest.approx(3.0, abs=1e-6)


def test_price_interval_validation():
    with pytest.raises(fp.PreconditionError):
        fp.PriceInterval(2.0, 1.0)
    with pytest.raises(fp.PreconditionError):
        fp.PriceInterval(0.0, 1.0, grid_n=8)


def _one_row(m, shift=0.0):
    """The revenue ``(p - shift) * D(p)`` of one customer without covariates
    in group "g", as a ``maximize_rows`` objective."""
    terms = m.row_terms(np.zeros((1, 0)), [0], ("g",))
    return lambda rows, p: (p - shift) * m.kernels(terms, p, "demand")[0]


def test_maximize_rows_latent_curve():
    m = fp.LatentValuationModel(loc={"g": (2.0, np.array([]))},
                                noise="logistic", scale=0.5)
    interval = fp.PriceInterval(0.01, 8.0)
    (p_star,), (v_star,) = maximize_rows(_one_row(m), 1, interval)
    demand = customer(m, [], "g")
    p_grid, v_grid = grid_argmax(lambda t: t * demand(t), 0.01, 8.0)
    assert abs(p_star - p_grid) < 1e-4
    assert v_star >= v_grid - 1e-9


def test_maximize_rows_with_cost_shift():
    m = fp.LatentValuationModel(loc={"g": (2.0, np.array([]))},
                                noise="normal", scale=0.6)
    cost = 0.8
    interval = fp.PriceInterval(0.01, 8.0)
    (p_star,), _ = maximize_rows(_one_row(m, cost), 1, interval)
    demand = customer(m, [], "g")
    p_grid, v_grid = grid_argmax(lambda t: (t - cost) * demand(t), 0.01, 8.0)
    assert abs(p_star - p_grid) < 1e-4
    # shifting the objective moves the optimum strictly up
    (p0,), _ = maximize_rows(_one_row(m), 1, interval)
    assert p_star > p0


def test_maximize_revenue_unimodal_flag_agrees():
    (p1,), _ = maximize_rows(lambda rows, p: p * np.maximum(3.0 - p, 0.0), 1,
                             fp.PriceInterval(0.01, 3.0))
    assert abs(p1 - 1.5) < 1e-5


def test_maximize_revenue_degenerate():
    interval = fp.PriceInterval(0.1, 2.0)
    with pytest.raises(fp.DegenerateDemandError):
        maximize_rows(lambda rows, p: p * 0.0, 1, interval)
    with pytest.raises(fp.DegenerateDemandError):
        # net of a prohibitive cost the objective is everywhere negative
        maximize_rows(lambda rows, p: p - 5.0, 1, interval)


def test_maximize_rows_refuses_a_row_only_when_its_grid_finds_no_gain():
    # positive only where |p - 0.5| < 5e-4: between the points of a 64-point
    # grid (31/63 and 32/63), but on 2047/4095 and 2048/4095 of the default
    # 4096-point one
    def bump(rows, p):
        return 2.5e-7 - (p - 0.5) ** 2

    (price,), (value,) = maximize_rows(bump, 1, fp.PriceInterval(0.0, 1.0))
    assert price == pytest.approx(0.5, abs=1e-8) and value > 0.0
    with pytest.raises(fp.DegenerateDemandError):
        maximize_rows(bump, 1, fp.PriceInterval(0.0, 1.0, grid_n=64))


def _two_point_population():
    return fp.Population(groups=("a", "b"), support=[[0.0], [1.0]],
                         masses=[0.5, 0.5],
                         membership=[[1.0, 0.0], [0.0, 1.0]])


def test_scalarized_objective_hand_computed():
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.0, np.array([0.0])), "b": (1.0, np.array([0.0]))})
    pop = _two_point_population()
    policy = fp.ConstantPolicy(0.5)
    w = fp.ScalarizationWeights(access_weight=0.0, outcome_weight=0.0)
    value, slack = fp.scalarized_objective(policy, model, pop, w)
    # demand at p=0.5: group a -> 1.5, group b -> 0.5; revenue = 0.5 * E[D]
    assert value == pytest.approx(0.5 * (0.5 * 1.5 + 0.5 * 0.5))
    assert slack["break_even"] == pytest.approx(value)  # zero unit cost
    assert slack["parity"] == np.inf

    pop.unit_cost = 0.2
    w2 = fp.ScalarizationWeights(access_weight=2.0, outcome_weight=0.0,
                                 parity_cap=0.1)
    v2, s2 = fp.scalarized_objective(policy, model, pop, w2)
    assert v2 == pytest.approx(value + 2.0 * (1.5 + 0.5))
    assert s2["break_even"] == pytest.approx((0.5 - 0.2) * (0.5 * 1.5 + 0.5 * 0.5))
    assert s2["parity"] == pytest.approx(0.1)  # constant policy has zero gap


def test_scalarized_objective_parity_slack_sign():
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.0, np.array([0.0])), "b": (2.0, np.array([0.0]))})
    pop = _two_point_population()
    policy = fp.GroupPolicy(prices={"a": 1.0, "b": 0.4})
    w = fp.ScalarizationWeights(parity_cap=0.5)
    _, slack = fp.scalarized_objective(policy, model, pop, w)
    assert slack["parity"] == pytest.approx(0.5 - 0.6)  # violated -> negative


def test_scalarized_objective_outcome_term():
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.0, np.array([0.0])), "b": (1.0, np.array([0.0]))})
    pop = _two_point_population()
    policy = fp.ConstantPolicy(1.0)
    w = fp.ScalarizationWeights(outcome_weight=3.0)
    with pytest.raises(fp.MissingFieldError):
        fp.scalarized_objective(policy, model, pop, w)
    value, _ = fp.scalarized_objective(
        policy, model, pop, w, outcome=lambda x, a, p: 2.0)
    base, _ = fp.scalarized_objective(
        policy, model, pop, fp.ScalarizationWeights(),
        outcome=lambda x, a, p: 2.0)
    assert value == pytest.approx(base + 3.0 * 2.0)
