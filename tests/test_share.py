import json
import warnings

import numpy as np
import pytest

import fairprice as fp
from fairprice.cli import main

from oracles import grid_argmax, loop_share_frontier, loop_share_price


def test_linear_demand_closed_form():
    # argmax (p + ell) (dbar + beta p) shifts the monopoly price by -ell/2
    m = fp.PartiallyLinearDemand(beta={"g": -1.0},
                                 baseline={"g": (2.0, np.array([]))})
    assert fp.solve_share_price(m, [], "g", 0.0) == pytest.approx(1.0)
    assert fp.solve_share_price(m, [], "g", 0.5) == pytest.approx(0.75)
    assert fp.solve_share_price(m, [], "g", -0.3) == pytest.approx(1.15)


@pytest.mark.parametrize("ell", [0.0, 0.2, 0.8, -0.1])
def test_latent_share_price_matches_grid(ell):
    m = fp.LatentValuationModel(loc={"g": (2.0, np.array([]))},
                                noise="logistic", scale=0.5)
    p = fp.solve_share_price(m, [], "g", ell)
    lo = max(1e-6, -ell + 1e-6)
    p_grid, _ = grid_argmax(
        lambda t: (t + ell) * fp.eval_demand(m, [], "g", t), lo, 8.0)
    assert abs(p - p_grid) < 1e-4


@pytest.mark.parametrize("ell", [0.0, 0.4])
def test_logistic_share_price_matches_grid(ell):
    m = fp.LogisticDemand(gamma=[0.5], beta=-1.4, intercept=0.8)
    x = [1.0]
    p = fp.solve_share_price(m, x, None, ell)
    p_grid, _ = grid_argmax(
        lambda t: (t + ell) * fp.eval_demand(m, x, None, t), 1e-6, 12.0)
    assert abs(p - p_grid) < 1e-4


def test_share_price_under_a_large_tax_matches_grid():
    # demand near 1e-161: the two bracket-end conditions (about 2e-161 and
    # 3e-166) share a sign though their product underflows to 0.0
    m = fp.LatentValuationModel(loc={"a": (2.0, [0.5])}, noise="logistic",
                                scale=0.4)
    p = fp.share.share_prices(m, [[0.0]], [0], ("a",), [-150.0])[0]
    p_grid, _ = grid_argmax(
        lambda t: (t - 150.0) * fp.eval_demand(m, [0.0], "a", t), 150.0, 160.0)
    assert abs(p - p_grid) < 1e-6


def test_share_price_under_an_extreme_tax_has_a_newton_slope():
    # the optimum sits near z = 370, where the logistic density is about
    # 1e-161: computed as s * (1 - s) it was 0.0, and so was the Newton
    # slope 2 D' + (p + ell) D''
    m = fp.LatentValuationModel(loc={"a": (2.0, [0.5])}, noise="logistic",
                                scale=0.4)
    p = fp.share.share_prices(m, [[0.0]], [0], ("a",), [-150.0])[0]
    assert fp.revenue_curvature(m, [0.0], "a", p, -150.0) < 0.0
    assert abs(p - 150.4) < 1e-6  # p + ell = D / -D' = scale, the hazard's inverse


def test_share_price_iteration_cap_raises_convergence_error():
    # a curvature kernel a million times too steep: every Newton step stays
    # inside the bracket but crawls, so the bracket never narrows
    class Crawling(fp.LatentValuationModel):
        def kernels(self, terms, p, *kinds):
            values = super().kernels(terms, p, *kinds)
            return [np.full(np.shape(v), -1e6) if kind == "curvature" else v
                    for kind, v in zip(kinds, values)]

    m = Crawling(loc={"a": (2.0, [0.5])}, noise="logistic", scale=0.4)
    with pytest.raises(fp.ConvergenceError, match="failed to localize"):
        fp.share.share_prices(m, [[0.0]], [0], ("a",), [0.0])


def test_share_price_under_a_huge_subsidy_warns_nothing():
    # the product of the bracket-end conditions overflows at weight 1e308
    m = fp.LatentValuationModel(loc={"a": (2.0, [0.5])}, noise="logistic",
                                scale=0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prices = fp.share.share_prices(m, [[0.0], [1.0]], [0, 0], ("a",),
                                       [1e308, 0.0])
    assert prices[0] == 0.0
    assert prices[1] == fp.solve_share_price(m, [1.0], "a", 0.0)


def test_share_prices_reject_an_unsupported_model():
    with pytest.raises(fp.PreconditionError, match="unsupported model object"):
        fp.share.share_prices(object(), [[0.0]], [0], ("a",), [0.0])


def test_share_price_foc_holds():
    m = fp.LatentValuationModel(loc={"g": (1.5, np.array([]))},
                                noise="gumbel", scale=0.6)
    ell = 0.3
    p = fp.solve_share_price(m, [], "g", ell)
    d = fp.eval_demand(m, [], "g", p)
    dp = fp.demand_gradient(m, [], "g", p)
    assert abs(d + (p + ell) * dp) < 1e-7


def test_revenue_curvature_formula():
    m = fp.LatentValuationModel(loc={"g": (2.0, np.array([]))},
                                noise="normal", scale=0.7)
    p = 1.4
    want = (2.0 * fp.demand_gradient(m, [], "g", p)
            + p * fp.demand_curvature(m, [], "g", p))
    assert fp.revenue_curvature(m, [], "g", p) == pytest.approx(want)


def test_sensitivity_linear_demand_is_minus_half():
    # for d - |b| p the local response of the optimal price to a small
    # subsidy weight is exactly -1/2, independent of d and b
    for dbar, beta in [(2.0, -1.0), (3.0, -0.7)]:
        m = fp.PartiallyLinearDemand(beta={"g": beta},
                                     baseline={"g": (dbar, np.array([]))})
        rep = fp.sensitivity_at_zero(m, [], "g", scope=fp.POPULATION_SCOPE)
        assert rep.analytic == pytest.approx(-0.5, abs=1e-12)
        assert rep.finite_difference == pytest.approx(-0.5, abs=1e-6)
        assert rep.discrepancy < 1e-6


def test_sensitivity_exponential_tail():
    # survival exp(-p) gives p* = 1 and sensitivity exactly -1
    m = fp.LatentValuationModel(loc={"g": (0.0, np.array([]))},
                                noise="exponential", scale=1.0)
    rep = fp.sensitivity_at_zero(m, [], "g", scope=fp.POPULATION_SCOPE)
    assert rep.price == pytest.approx(1.0, abs=1e-8)
    assert rep.analytic == pytest.approx(-1.0, abs=1e-8)
    assert rep.discrepancy < 1e-5
    assert rep.curvature < 0
    assert rep.inverse_curvature_form == pytest.approx(
        1.0 / (rep.curvature * rep.price ** 2))


def test_sensitivity_group_scope_scales_by_prior():
    m = fp.PartiallyLinearDemand(beta={"g": -1.0},
                                 baseline={"g": (2.0, np.array([]))})
    pop_rep = fp.sensitivity_at_zero(m, [], "g", scope=fp.POPULATION_SCOPE)
    grp_rep = fp.sensitivity_at_zero(m, [], "g", scope=fp.GROUP_SCOPE,
                                     rho={"g": 0.25})
    assert grp_rep.analytic == pytest.approx(pop_rep.analytic / 0.25)
    assert abs(grp_rep.finite_difference - grp_rep.analytic) < 1e-5


def test_sensitivity_fd_agreement_across_models():
    cases = [
        fp.LatentValuationModel(loc={"g": (2.0, np.array([]))},
                                noise="logistic", scale=0.5),
        fp.LatentValuationModel(loc={"g": (1.5, np.array([]))},
                                noise="laplace", scale=0.8),
        fp.LogisticDemand(gamma=[], beta=-1.2, intercept=1.0),
    ]
    for m in cases:
        g = "g" if isinstance(m, fp.LatentValuationModel) else None
        rep = fp.sensitivity_at_zero(m, [], g, scope=fp.POPULATION_SCOPE)
        assert rep.discrepancy < 5e-4 * max(1.0, abs(rep.analytic))


def test_sensitivity_refuses_an_optimum_at_or_below_zero():
    # a negative baseline puts the closed-form price -dbar / (2 beta) below 0
    m = fp.PartiallyLinearDemand(beta={"g": -1.0},
                                 baseline={"g": (-1.0, np.array([]))})
    with pytest.raises(fp.PreconditionError, match="not interior"):
        fp.sensitivity_at_zero(m, [], "g")


def test_sensitivity_refuses_an_optimum_without_negative_curvature():
    # exponential noise with loc > scale: revenue rises up to the kink at
    # p = loc and falls after it, so the optimum is the kink, where the
    # revenue curvature (p - 2 scale) / scale^2 is positive on the right
    # and 0 on the left
    m = fp.LatentValuationModel(loc={"g": (2.0, np.array([]))},
                                noise="exponential", scale=0.5)
    with pytest.raises(fp.PreconditionError, match="is not negative"):
        fp.sensitivity_at_zero(m, [], "g")


def test_sensitivity_requires_rho_for_group_scope():
    m = fp.PartiallyLinearDemand(beta={"g": -1.0},
                                 baseline={"g": (2.0, np.array([]))})
    with pytest.raises(fp.PreconditionError):
        fp.sensitivity_at_zero(m, [], "g", scope=fp.GROUP_SCOPE)


def test_share_penalty_validation_and_effective():
    pen = fp.SharePenalty(weight=0.6)
    assert pen.effective({"a": 0.2, "b": 0.8}, "a") == pytest.approx(0.6)
    pen_g = fp.SharePenalty(weight=0.6, scope=fp.GROUP_SCOPE, group="a")
    assert pen_g.effective({"a": 0.2, "b": 0.8}, "a") == pytest.approx(3.0)
    assert pen_g.effective({"a": 0.2, "b": 0.8}, "b") == 0.0
    with pytest.raises(fp.MissingFieldError):
        fp.SharePenalty(weight=0.5, scope="nope")
    with pytest.raises(fp.MissingFieldError):
        fp.SharePenalty(weight=0.5, scope=fp.GROUP_SCOPE)  # group missing
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fp.SharePenalty(weight=-0.2)
    assert any("negative" in str(w.message).lower() for w in caught)
    # the warning points at the caller, not into the dataclass __init__
    assert [w.filename for w in caught] == [__file__]


def _frontier_setup():
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.4, np.array([0.2])), "b": (1.6, np.array([0.2]))})
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0]],
                        masses=[0.5, 0.5],
                        membership=[[0.7, 0.3], [0.2, 0.8]])
    return model, pop


def test_share_frontier_monotone_in_weight():
    model, pop = _frontier_setup()
    weights = [0.0, 0.2, 0.5, 1.0]
    rows = fp.share_frontier(model, pop, weights, scope=fp.POPULATION_SCOPE)
    by_group = {}
    for row in rows:
        by_group.setdefault(row["group"], []).append(row)
    for g, seq in by_group.items():
        assert [r["weight"] for r in seq] == weights
        prices = [r["price_mean"] for r in seq]
        access = [r["access"] for r in seq]
        assert all(a <= b + 1e-9 for a, b in zip(prices[1:], prices[:-1])), g
        assert all(a >= b - 1e-9 for a, b in zip(access[1:], access[:-1])), g
    # zero weight recovers the unconstrained revenue maximizer
    zero = [r for r in rows if r["weight"] == 0.0]
    for row in zero:
        assert row["revenue"] >= max(
            r["revenue"] for r in by_group[row["group"]]) - 1e-9


def test_share_frontier_group_scope_targets_one_group():
    model, pop = _frontier_setup()
    rows = fp.share_frontier(model, pop, [0.0, 0.6],
                             scope=fp.GROUP_SCOPE, group="b")
    f = {(r["weight"], r["group"]): r for r in rows}
    # the targeted group's price falls...
    assert f[(0.6, "b")]["price_mean"] < f[(0.0, "b")]["price_mean"] - 1e-6
    # ...while the other group's prices stay put (penalty is zero there)
    assert f[(0.6, "a")]["price_mean"] == pytest.approx(
        f[(0.0, "a")]["price_mean"])


def _boundary_market(noise):
    """Group ``a`` (location 0.5) prices at the boundary 0.0 under a large
    subsidy, through golden section; group ``b`` (location 2.5) stays
    interior, through Newton."""
    model = fp.LatentValuationModel(
        loc={"a": (0.5, np.array([0.0])), "b": (2.5, np.array([0.3]))},
        noise=noise, scale=0.4)
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0], [2.0]],
                        masses=[0.3, 0.3, 0.4],
                        membership=[[0.5, 0.5], [0.2, 0.8], [0.6, 0.4]])
    return model, pop


@pytest.mark.parametrize("noise, weight", [
    ("logistic", 3.0), ("laplace", 3.0), ("normal", 3.0), ("normal", 10.0),
    ("gumbel", 10.0)])
def test_golden_section_rows_match_the_cell_loop(tmp_path, noise, weight):
    model, pop = _boundary_market(noise)
    rows = fp.share_frontier(model, pop, [weight])
    assert rows == loop_share_frontier(model, pop, [weight])
    assert {r["group"]: r["price_mean"] == 0.0 for r in rows} == {
        "a": True, "b": False}

    model_path, pop_path = tmp_path / "model.json", tmp_path / "pop.json"
    model_path.write_text(json.dumps(fp.model_to_dict(model)))
    pop_path.write_text(json.dumps(fp.population_to_dict(pop)))
    out = tmp_path / "price"
    assert main(["price", "--model", str(model_path), "--population",
                 str(pop_path), "--share-lambda", str(weight),
                 "--out-dir", str(out), "--quiet"]) == 0
    prices = json.loads((out / "prices.json").read_text())["prices"]
    assert [(r["x_index"], r["group"], r["price"]) for r in prices] == [
        (i, g, loop_share_price(model, x, g, weight))
        for i, x in enumerate(pop.support) for g in pop.groups]


def test_degenerate_rows_raise_among_newton_rows():
    # exponential valuations far below zero never buy at a nonnegative price
    model = fp.LatentValuationModel(
        loc={"a": (2.0, np.array([0.2])), "b": (-60.0, np.array([0.0]))},
        noise="exponential", scale=0.5)
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0]],
                        masses=[0.5, 0.5], membership=[[0.6, 0.4], [0.3, 0.7]])
    message = "subsidized revenue is nonpositive everywhere in the price range"
    with pytest.raises(fp.DegenerateDemandError) as caught:
        fp.share_frontier(model, pop, [0.3])
    assert str(caught.value) == message
    with pytest.raises(fp.DegenerateDemandError) as caught:
        fp.solve_share_price(model, [1.0], "b", 0.3)
    assert str(caught.value) == message
    assert fp.solve_share_price(model, [1.0], "a", 0.3) == loop_share_price(
        model, np.array([1.0]), "a", 0.3)


def test_share_prices_name_a_later_rows_upward_group():
    # only the second row's group slopes upward: the per-row retry raises
    # that row's error, naming its group
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": 0.5},
        baseline={g: (2.0, np.array([0.3])) for g in "ab"}, allow_upward=True)
    with pytest.raises(fp.UpwardSlopeError, match="group 'b'"):
        fp.share.share_prices(model, [[0.0], [1.0]], [0, 1], ("a", "b"),
                              [0.0, 0.0])


def test_share_solver_kernel_calls_do_not_grow_with_cells():
    """The share solver works on all cells at once: ten times the cells take
    about as many demand-kernel calls, not ten times as many."""
    calls = []

    class Counting(fp.LatentValuationModel):
        def kernels(self, terms, p, *kinds):
            calls.extend(kinds)
            return super().kernels(terms, p, *kinds)

    def kernel_calls(n_points):
        model = Counting(loc={"a": (2.0, np.array([0.3])),
                              "b": (1.5, np.array([0.2]))},
                         noise="logistic", scale=0.5)
        pop = fp.Population(groups=("a", "b"),
                            support=np.linspace(-1.0, 1.0, n_points)[:, None],
                            masses=np.full(n_points, 1.0 / n_points),
                            membership=np.full((n_points, 2), 0.5))
        calls.clear()
        fp.share_frontier(model, pop, [0.3])
        return len(calls)

    few, many = kernel_calls(20), kernel_calls(200)  # 40 and 400 cells
    assert many <= 1.5 * few, (few, many)
