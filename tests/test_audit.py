"""Audit metric tests.

Concordance and distribution statistics are checked against pure-python
double-loop implementations in oracles.py.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairprice as fp

from oracles import (
    loop_concordance_bound,
    loop_concordance_oracle,
    loop_ks_statistic,
)


def _rec(i, group, price, demand, valuation=None, weight=1.0, x=(0.0,)):
    return fp.Record(id=f"r{i}", group=group, covariates=list(x),
                     price=price, demand=demand, valuation=valuation,
                     weight=weight)


def test_marginal_price_disparity_hand_case():
    records = [
        _rec(0, "a", 1.0, 1.0), _rec(1, "a", 2.0, 0.0),
        _rec(2, "b", 4.0, 1.0, weight=2.0),
    ]
    out = fp.marginal_price_disparity(records)
    assert out["price_mean"]["a"] == pytest.approx(1.5)
    assert out["price_mean"]["b"] == pytest.approx(4.0)
    assert out["max_gap"] == pytest.approx(2.5)
    assert out["count"]["a"] == 2


def test_two_sample_statistic_matches_loop_ks():
    rng = np.random.default_rng(8)
    x1 = rng.normal(size=300)
    x2 = rng.normal(0.4, 1.0, size=200)
    out = fp.two_sample_distribution_test(x1, np.ones(300), x2, np.ones(200))
    assert out["statistic"] == pytest.approx(loop_ks_statistic(x1, x2),
                                             abs=1e-12)
    want_thr = math.sqrt(-math.log(0.025) / 2) * math.sqrt(
        (300 + 200) / (300 * 200))
    assert out["threshold"] == pytest.approx(want_thr)
    assert out["reject"] == (out["statistic"] > out["threshold"])
    assert out["reject"]  # a 0.4 sigma shift at n=500 is detectable


def test_two_sample_same_distribution_usually_accepted():
    rng = np.random.default_rng(15)
    rejections = 0
    for _ in range(40):
        x1 = rng.normal(size=150)
        x2 = rng.normal(size=150)
        out = fp.two_sample_distribution_test(x1, np.ones(150), x2,
                                              np.ones(150))
        rejections += bool(out["reject"])
    assert rejections <= 6  # alpha = 0.05, some slack


def test_weighted_ks_uses_effective_sample_size():
    rng = np.random.default_rng(3)
    x = rng.normal(size=100)
    y = rng.normal(size=100)
    flat = fp.two_sample_distribution_test(x, np.ones(100), y, np.ones(100))
    # one dominant weight shrinks the effective n and loosens the threshold
    w = np.ones(100)
    w[0] = 50.0
    skew = fp.two_sample_distribution_test(x, w, y, np.ones(100))
    assert skew["threshold"] > flat["threshold"]


def test_distributional_parity_stat():
    records = ([_rec(i, "a", float(i % 5), 1.0) for i in range(40)]
               + [_rec(100 + i, "b", float(i % 5) + 2.0, 1.0)
                  for i in range(40)])
    out = fp.distributional_parity_stat(records)
    assert out["groups"] == ["a", "b"]
    assert out["reject"]
    one_group = [_rec(i, "a", 1.0, 1.0) for i in range(5)]
    with pytest.raises(fp.PreconditionError):
        fp.distributional_parity_stat(one_group)


def test_conditional_parity_gap_by_stratum():
    records = [
        _rec(0, "a", 1.0, 1.0, x=(0.0,)), _rec(1, "b", 1.4, 1.0, x=(0.0,)),
        _rec(2, "a", 2.0, 1.0, x=(1.0,)), _rec(3, "b", 2.0, 1.0, x=(1.0,)),
        _rec(4, "a", 9.0, 1.0, x=(2.0,)),  # one-group stratum: skipped
    ]
    out = fp.conditional_parity_gap(records)
    assert out["max_abs_gap"] == pytest.approx(0.4)
    assert len(out["per_stratum"]) == 2
    # both groups exist but never share a stratum: nothing is computable
    apart = [_rec(0, "a", 1.0, 1.0, x=(0.0,)),
             _rec(1, "b", 2.0, 1.0, x=(1.0,))]
    with pytest.raises(fp.NoComputableMetricError):
        fp.conditional_parity_gap(apart)


def test_takeup_conditional_parity():
    rng = np.random.default_rng(4)
    records = []
    for i in range(300):
        g = "a" if i % 2 else "b"
        price = float(rng.uniform(1, 3))
        records.append(_rec(i, g, price, demand=float(rng.random() < 0.7),
                            x=(float(rng.integers(0, 2)),)))
    out = fp.takeup_conditional_parity(records)
    assert set(out["per_stratum"]) and out["max_statistic"] >= 0
    # a stratum with no buyers reports None rather than a statistic
    dead = [_rec(i, "a" if i % 2 else "b", 1.0, 0.0) for i in range(10)]
    rep = fp.takeup_conditional_parity(dead)
    assert rep["per_stratum"] == {"(0.0,)": None}
    assert rep["max_statistic"] == 0.0
    # buyers exist but only in one group -> not computable
    lopsided = [_rec(i, "a", 1.0, 1.0) for i in range(5)] + \
        [_rec(9 + i, "b", 1.0, 0.0) for i in range(5)]
    with pytest.raises(fp.NoComputableMetricError):
        fp.takeup_conditional_parity(lopsided)


def test_access_metrics_from_records():
    records = [_rec(0, "a", 1.0, 1.0), _rec(1, "a", 2.0, 0.0),
               _rec(2, "b", 1.5, 1.0, weight=3.0)]
    out = fp.access_metrics(records=records)
    assert out["a"]["access"] == pytest.approx(0.5)
    assert out["a"]["price_mean"] == pytest.approx(1.5)
    assert out["b"]["weight"] == pytest.approx(3.0)


@pytest.mark.parametrize("metric", [
    fp.takeup_conditional_parity,
    lambda records: fp.access_metrics(records=records),
])
def test_missing_price_raises_missing_field(metric):
    records = [_rec(0, "a", 1.0, 1.0), _rec(1, "b", None, 1.0),
               _rec(2, "b", 2.0, 0.0)]
    with pytest.raises(fp.MissingFieldError, match="price missing"):
        metric(records)


def test_access_metrics_from_model():
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.0, np.array([])), "b": (1.0, np.array([]))})
    pop = fp.Population(groups=("a", "b"), support=[[]], masses=[1.0],
                        membership=[[0.5, 0.5]])
    out = fp.access_metrics(policy=fp.ConstantPolicy(0.75), model=model,
                            population=pop)
    assert out["a"]["access"] == pytest.approx(1.25)
    assert out["b"]["access"] == pytest.approx(0.25)
    assert out["a"]["price_mean"] == pytest.approx(0.75)
    with pytest.raises(fp.MissingFieldError):
        fp.access_metrics(records=[_rec(0, "a", 1.0, 1.0)],
                          policy=fp.ConstantPolicy(1.0))


# -- concordance --------------------------------------------------------------


def test_concordance_micro_example():
    # qualifying pairs are cross-group with distinct prices; the certified
    # pattern is "cheaper price declined, higher price accepted"
    records = [
        _rec(0, "a", 1.0, 0.0),   # cheap, declined
        _rec(1, "a", 2.0, 1.0),
        _rec(2, "b", 3.0, 1.0),   # pricier, accepted -> pairs with r0 certify
        _rec(3, "b", 1.0, 1.0),   # ties with r0 on price -> excluded
    ]
    out = fp.concordance_lower_bound(records)
    # cross-group pairs: (0,2) certified, (1,2) not (both accepted),
    # (1,3) not, (0,3) tie excluded
    assert out["qualifying_pairs"] == 3
    assert out["excluded_ties"] == 1
    assert out["bound"] == pytest.approx(1.0 / 3.0)
    assert out["total_pairs"] == 4


def test_concordance_bound_matches_loop_oracle():
    rng = np.random.default_rng(12)
    n = 80
    groups = ["a" if rng.random() < 0.5 else "b" for _ in range(n)]
    prices = rng.choice([1.0, 1.5, 2.0, 2.5], size=n)
    demands = (rng.random(n) < 0.5).astype(float)
    records = [_rec(i, groups[i], float(prices[i]), float(demands[i]))
               for i in range(n)]
    got = fp.concordance_lower_bound(records)
    want_cert, want_qual = loop_concordance_bound(prices, demands,
                                                  np.array(groups))
    assert got["qualifying_pairs"] == want_qual
    assert got["bound"] == pytest.approx(want_cert / want_qual)


def test_concordance_bound_weighted_matches_loop():
    rng = np.random.default_rng(13)
    n = 50
    groups = np.array(["a" if rng.random() < 0.4 else "b" for _ in range(n)])
    prices = rng.choice([1.0, 2.0, 3.0], size=n)
    demands = (rng.random(n) < 0.6).astype(float)
    weights = rng.integers(1, 4, size=n).astype(float)
    records = [_rec(i, groups[i], float(prices[i]), float(demands[i]),
                    weight=float(weights[i])) for i in range(n)]
    got = fp.concordance_lower_bound(records)
    want_cert, want_qual = loop_concordance_bound(prices, demands, groups,
                                                  weights)
    assert got["bound"] == pytest.approx(want_cert / want_qual)


def test_concordance_bound_never_exceeds_oracle_on_threshold_demand():
    # when purchase = 1{valuation >= price}, certified discordance of the
    # observable pattern understates true pairwise concordance violations
    rng = np.random.default_rng(14)
    n = 120
    groups = np.array(["a" if i % 2 else "b" for i in range(n)])
    vals = np.where(groups == "a", rng.normal(2.2, 0.5, n),
                    rng.normal(1.6, 0.5, n))
    prices = rng.choice([1.0, 1.6, 2.2], size=n)
    demands = (vals >= prices).astype(float)
    records = [_rec(i, groups[i], float(prices[i]), float(demands[i]),
                    valuation=float(vals[i])) for i in range(n)]
    bound = fp.concordance_lower_bound(records)
    oracle = fp.concordance_oracle(records)
    conc, qual = loop_concordance_oracle(prices, vals, groups,
                                         np.ones(n))
    assert oracle["concordance"] == pytest.approx(conc / qual)
    assert bound["bound"] <= oracle["concordance"] + 1e-12


def test_concordance_requires_qualifying_pairs():
    same_group = [_rec(i, "a", 1.0 + i, 1.0) for i in range(4)]
    with pytest.raises(fp.NoQualifyingPairsError):
        fp.concordance_lower_bound(same_group)
    all_tied = [_rec(0, "a", 1.0, 1.0), _rec(1, "b", 1.0, 0.0)]
    with pytest.raises(fp.NoQualifyingPairsError):
        fp.concordance_lower_bound(all_tied)


def test_concordance_rejects_nonbinary_demand():
    with pytest.raises(fp.InvalidRecordError):
        fp.concordance_lower_bound([_rec(0, "a", 1.0, 0.4),
                                    _rec(1, "b", 2.0, 1.0)])


@st.composite
def _pair_logs(draw):
    """Small logs with tied prices and valuations, non-unit weights, absent
    groups and all-tied prices."""
    n = draw(st.integers(1, 16))
    labels = draw(st.sampled_from([("a",), ("a", "b"), ("a", "b", "c")]))
    price_pool = draw(st.sampled_from([
        st.just(1.0),
        st.sampled_from([1.0, 1.5, 2.0]),
        st.floats(0.0, 3.0, allow_nan=False, allow_infinity=False),
    ]))
    value_pool = draw(st.sampled_from([
        st.sampled_from([0.5, 1.5, 2.5]),
        st.floats(-2.0, 4.0, allow_nan=False, allow_infinity=False),
    ]))
    weight_pool = draw(st.sampled_from([
        st.just(1.0), st.floats(0.1, 10.0, allow_nan=False)]))

    def column(strategy):
        return draw(st.lists(strategy, min_size=n, max_size=n))

    return (column(st.sampled_from(labels)), column(price_pool),
            column(st.sampled_from([0.0, 1.0])), column(value_pool),
            column(weight_pool))


@settings(max_examples=300)
@given(_pair_logs())
def test_pair_kernels_match_loop_oracles(log):
    groups, prices, demands, values, weights = log
    records = [_rec(i, g, p, d, valuation=v, weight=w)
               for i, (g, p, d, v, w) in enumerate(zip(*log))]
    cert, qual = loop_concordance_bound(prices, demands, groups, weights)
    conc, qual_o = loop_concordance_oracle(prices, values, groups, weights)
    if qual == 0.0:
        for metric in (fp.concordance_lower_bound, fp.concordance_oracle):
            with pytest.raises(fp.NoQualifyingPairsError):
                metric(records)
        return
    bound = fp.concordance_lower_bound(records)
    oracle = fp.concordance_oracle(records)
    assert bound["qualifying_pairs"] == pytest.approx(qual, rel=1e-12)
    assert bound["bound"] == pytest.approx(cert / qual, rel=1e-12, abs=0.0)
    assert oracle["qualifying_pairs"] == pytest.approx(qual_o, rel=1e-12)
    assert oracle["concordance"] == pytest.approx(conc / qual_o, rel=1e-12,
                                                  abs=0.0)


def test_concordance_ties_counted_directly():
    rng = np.random.default_rng(23)
    n = 3000
    groups = np.where(rng.random(n) < 0.5, "a", "b")
    demands = (rng.random(n) < 0.5).astype(float)
    weights = rng.uniform(0.2, 5.0, size=n)
    distinct = rng.permutation(n) * 0.001 + 0.5
    records = [_rec(i, groups[i], float(distinct[i]), float(demands[i]),
                    weight=float(weights[i])) for i in range(n)]
    assert fp.concordance_lower_bound(records)["excluded_ties"] == 0.0

    small = 60
    prices = rng.choice([1.0, 1.5, 2.0], size=small)
    records = [_rec(i, groups[i], float(prices[i]), float(demands[i]),
                    weight=float(weights[i])) for i in range(small)]
    tied = sum(weights[i] * weights[j]
               for i in range(small) for j in range(i + 1, small)
               if groups[i] != groups[j] and prices[i] == prices[j])
    got = fp.concordance_lower_bound(records)["excluded_ties"]
    assert got == pytest.approx(tied, rel=1e-12)


# -- decomposition ------------------------------------------------------------


def _latent_pair(shift=0.3, slope_scale=1.15):
    true = fp.LatentValuationModel(loc={"g": (2.0, np.array([]))},
                                   noise="logistic", scale=0.5)
    est = fp.LatentValuationModel(
        loc={"g": (2.0 + shift, np.array([]))},
        noise="logistic", scale=0.5 * slope_scale)
    return est, true


def test_decomposition_reconstructs_gap_to_second_order():
    est, true = _latent_pair()
    interval = fp.PriceInterval(0.05, 10.0)
    rep = fp.suboptimality_decomposition(est, true, [], "g", interval)
    assert rep.gap == pytest.approx(rep.price_estimated - rep.price_true)
    assert abs(rep.residual) < 0.25 * abs(rep.gap)
    total = rep.term_level + rep.term_slope_error + rep.term_slope_shift
    assert rep.predicted_gap == pytest.approx(
        -(rep.term_level + rep.price_true * (
            rep.term_slope_error + rep.term_slope_shift)) / rep.denominator)
    assert np.isfinite(total)


def test_decomposition_residual_shrinks_quadratically():
    interval = fp.PriceInterval(0.05, 10.0)
    resid = []
    for eps in (0.2, 0.1, 0.05):
        est, true = _latent_pair(shift=eps, slope_scale=1.0 + eps / 2)
        rep = fp.suboptimality_decomposition(est, true, [], "g", interval)
        resid.append(abs(rep.residual))
    assert resid[1] < 0.5 * resid[0]
    assert resid[2] < 0.5 * resid[1]


def test_decomposition_sign_classification():
    est, true = _latent_pair(shift=0.4, slope_scale=1.0)
    rep = fp.suboptimality_decomposition(est, true, [], "g",
                                         fp.PriceInterval(0.05, 10.0))
    assert rep.sign in ("positive", "negative", "indeterminate")
    if rep.sign != "indeterminate":
        terms = (rep.term_level, rep.term_slope_error, rep.term_slope_shift)
        assert all(t >= 0 for t in terms) or all(t <= 0 for t in terms)


def test_decomposition_rejects_linear_estimate():
    # a partially linear estimate has no curvature: the slope-shift channel
    # vanishes identically and the split is uninformative
    est = fp.PartiallyLinearDemand(beta={"g": -1.0},
                                   baseline={"g": (2.0, np.array([]))})
    true = fp.LatentValuationModel(loc={"g": (2.0, np.array([]))},
                                   noise="logistic", scale=0.5)
    with pytest.raises(fp.DecompositionError):
        fp.suboptimality_decomposition(est, true, [], "g",
                                       fp.PriceInterval(0.05, 10.0))


def test_attribute_gap_decomposition_runs():
    model = fp.LatentValuationModel(
        loc={"a": (2.4, np.array([0.3])), "b": (1.7, np.array([0.3]))},
        noise="logistic", scale=0.5)
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0]],
                        masses=[0.5, 0.5],
                        membership=[[0.8, 0.2], [0.3, 0.7]])
    rep = fp.attribute_gap_decomposition(model, pop, x_index=0, group="a")
    # group-aware price vs. membership-mixture price at the same covariates
    assert rep.price_estimated != pytest.approx(rep.price_true)
    assert abs(rep.gap - (rep.price_estimated - rep.price_true)) < 1e-12


def test_run_audit_collects_metrics_and_errors():
    rng = np.random.default_rng(30)
    records = []
    for i in range(200):
        g = "a" if rng.random() < 0.5 else "b"
        price = float(rng.choice([1.0, 1.5, 2.0]))
        records.append(_rec(i, g, price, float(rng.random() < 0.5),
                            x=(float(i % 3),)))
    report = fp.run_audit(records)
    assert report.n_records == 200
    assert "marginal_price_disparity" in report.metrics
    assert isinstance(report.to_json(), str)
    rows = report.to_csv_rows()
    assert rows[0] == ("metric", "key", "value")
    # an all-ties corpus: concordance fails, the rest still computes
    tied = [_rec(i, "a" if i % 2 else "b", 1.0, float(i % 2), x=(0.0,))
            for i in range(20)]
    rep2 = fp.run_audit(tied)
    assert rep2.metrics["concordance_lower_bound"] == {
        "error": "no_qualifying_pairs"}
