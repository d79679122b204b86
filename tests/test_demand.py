import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairprice as fp
from fairprice.demand import NOISE_FAMILIES, as_table

from oracles import central_difference, formula_demand


def test_noise_families_pdf_matches_cdf_derivative():
    zs = np.linspace(-4.5, 4.5, 37)
    for name, fam in NOISE_FAMILIES.items():
        for z in zs:
            if name == "exponential" and abs(z) < 0.05:
                continue  # density kink at the origin
            num = central_difference(lambda t: float(fam.cdf(t)), z, 1e-5)
            assert abs(num - float(fam.pdf(z))) < 5e-6, (name, z)


def test_noise_families_pdf_prime_matches_pdf_derivative():
    for name, fam in NOISE_FAMILIES.items():
        for z in np.linspace(-4.0, 4.0, 33):
            if name in ("exponential", "laplace") and abs(z) < 0.05:
                continue
            num = central_difference(lambda t: float(fam.pdf(t)), z, 1e-5)
            assert abs(num - float(fam.pdf_prime(z))) < 5e-6, (name, z)


def test_noise_samples_follow_cdf():
    # seeded draw; compare empirical CDF at a few quantiles
    rng = np.random.default_rng(42)
    for name, fam in NOISE_FAMILIES.items():
        draws = fam.sample(rng, 20_000)
        for z in (-1.0, 0.0, 1.0):
            emp = float(np.mean(draws <= z))
            assert abs(emp - float(fam.cdf(z))) < 0.02, name


def _linear_model():
    return fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -0.5},
        baseline={"a": (2.0, np.array([0.5])), "b": (1.0, np.array([-0.25]))})


def test_partially_linear_eval_and_slope():
    m = _linear_model()
    x = [2.0]
    assert fp.eval_demand(m, x, "a", 1.5) == pytest.approx(2.0 + 1.0 - 1.5)
    assert fp.eval_demand(m, x, "b", 1.0) == pytest.approx(1.0 - 0.5 - 0.5)
    assert fp.demand_gradient(m, x, "a", 0.7) == -1.0
    assert fp.demand_curvature(m, x, "b", 0.7) == 0.0
    # values are model scale: no clamping to [0, 1]
    assert fp.eval_demand(m, x, "a", 0.0) == pytest.approx(3.0)
    assert fp.eval_demand(m, x, "a", 10.0) < 0.0


def test_partially_linear_negative_prices_allowed():
    m = _linear_model()
    assert fp.eval_demand(m, [0.0], "a", -1.0) == pytest.approx(3.0)


def test_mixture_group_is_weighted_average():
    m = _linear_model()
    mix = {"a": 0.3, "b": 0.7}
    x = [1.0]
    p = 0.8
    want = 0.3 * fp.eval_demand(m, x, "a", p) + 0.7 * fp.eval_demand(m, x, "b", p)
    assert fp.eval_demand(m, x, mix, p) == pytest.approx(want)
    want_g = 0.3 * (-1.0) + 0.7 * (-0.5)
    assert fp.demand_gradient(m, x, mix, p) == pytest.approx(want_g)


def test_upward_slope_rejected_at_construction():
    with pytest.raises(fp.UpwardSlopeError):
        fp.PartiallyLinearDemand(beta={"a": 0.1},
                                 baseline={"a": (1.0, np.array([]))})


def test_unknown_group_raises():
    m = _linear_model()
    with pytest.raises(fp.UnknownGroupError):
        fp.eval_demand(m, [0.0], "zz", 1.0)


def test_logistic_demand_gradient_and_curvature_match_fd():
    m = fp.LogisticDemand(gamma=[0.4, -0.2], beta=-1.3, intercept=0.6)
    x = [1.0, 2.0]
    for p in (0.1, 0.9, 2.5):
        g = central_difference(lambda t: fp.eval_demand(m, x, None, t), p, 1e-5)
        c = central_difference(
            lambda t: fp.demand_gradient(m, x, None, t), p, 1e-5)
        assert abs(g - fp.demand_gradient(m, x, None, p)) < 1e-8
        assert abs(c - fp.demand_curvature(m, x, None, p)) < 1e-7


def test_logistic_rejects_negative_price():
    m = fp.LogisticDemand(gamma=[0.0], beta=-1.0)
    with pytest.raises(fp.InvalidRecordError):
        fp.eval_demand(m, [0.0], None, -0.5)


@pytest.mark.parametrize("noise", sorted(NOISE_FAMILIES))
def test_latent_demand_derivatives_match_fd(noise):
    m = fp.LatentValuationModel(loc={"g": (2.0, np.array([0.5]))},
                                noise=noise, scale=0.7)
    x = [1.0]
    for p in (0.5, 1.8, 3.2):
        g = central_difference(lambda t: fp.eval_demand(m, x, "g", t), p, 1e-5)
        assert abs(g - fp.demand_gradient(m, x, "g", p)) < 1e-6, (noise, p)
        c = central_difference(
            lambda t: fp.demand_gradient(m, x, "g", t), p, 1e-5)
        assert abs(c - fp.demand_curvature(m, x, "g", p)) < 1e-5, (noise, p)


def test_latent_demand_is_survival_probability():
    m = fp.LatentValuationModel(loc={"g": (1.0, np.array([]))},
                                noise="normal", scale=0.5)
    assert fp.eval_demand(m, [], "g", 0.0) > 0.97
    assert fp.eval_demand(m, [], "g", 1.0) == pytest.approx(0.5)
    assert fp.eval_demand(m, [], "g", 30.0) >= 0.0
    # deep tail must not produce garbage
    assert fp.eval_demand(m, [], "g", 30.0) < 1e-300 or \
        fp.eval_demand(m, [], "g", 30.0) == 0.0


def test_sample_demand_curve_monotone_in_price():
    m = fp.LatentValuationModel(loc={"g": (2.0, np.array([]))},
                                noise="gumbel", scale=1.0)
    rng = np.random.default_rng(3)
    prices = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    for _ in range(200):
        buys = fp.sample_demand_curve(m, [], "g", prices, rng)
        assert np.all(np.diff(buys) <= 0)


def test_sample_demand_rate_matches_model():
    m = fp.LogisticDemand(gamma=[0.0], beta=-1.0, intercept=1.0)
    rng = np.random.default_rng(11)
    hits = sum(fp.sample_demand(m, [0.0], None, 1.0, rng) for _ in range(20_000))
    assert abs(hits / 20_000 - 0.5) < 0.02


def test_sample_valuation_location_shift():
    m = fp.LatentValuationModel(loc={"g": (5.0, np.array([]))},
                                noise="normal", scale=0.1)
    rng = np.random.default_rng(5)
    draws = [fp.sample_valuation(m, [], "g", rng) for _ in range(2000)]
    assert abs(np.mean(draws) - 5.0) < 0.02


# -- array kernels ----------------------------------------------------------

_FAMILIES = sorted(NOISE_FAMILIES) + ["logistic_demand", "linear", "table"]
_KERNELS = (("demand", fp.eval_demand), ("gradient", fp.demand_gradient),
            ("curvature", fp.demand_curvature))


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


def _outcome(fn):
    try:
        return fn()
    except fp.FairPriceError as exc:
        return type(exc), str(exc)


@st.composite
def _kernel_cases(draw):
    """A model of one family, covariate rows with group indices, and prices.

    Coefficients and covariates carry full mantissas, so dot products round;
    prices include 0, values near the location and far tails (|z| up to
    about 1e6), and negative prices for partially linear demand.
    """
    family = draw(st.sampled_from(_FAMILIES))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = rng.normal(size=(draw(st.integers(1, 4)), k)) * 1.7
    X = support[rng.integers(len(support), size=draw(st.integers(1, 7)))]
    groups = ("a", "b")
    g = rng.integers(2, size=len(X))

    def affine():
        return {h: (float(rng.normal()), rng.normal(size=k)) for h in groups}

    if family == "logistic_demand":
        model = fp.LogisticDemand(gamma=rng.normal(size=k),
                                  beta=-abs(rng.normal()) - 0.1,
                                  intercept=rng.normal())
    elif family == "linear":
        model = fp.PartiallyLinearDemand(
            beta={h: -abs(rng.normal()) - 0.1 for h in groups},
            baseline=affine())
    elif family == "table":
        model = fp.PartiallyLinearDemand(
            beta={h: -abs(rng.normal()) - 0.1 for h in groups},
            baseline={h: {tuple(x): float(rng.normal()) for x in support.tolist()}
                      for h in groups}, baseline_form="table")
    else:
        model = fp.LatentValuationModel(
            loc=affine(), noise=family,
            scale=draw(st.sampled_from([1e-3, 0.4, 1.0, 3.0])))
    scale = draw(st.sampled_from([0.0, 1e-300, 0.5, 2.0, 1e3, 1e6]))
    prices = np.concatenate([[0.0], rng.uniform(0.0, 4.0, size=5), [scale]])
    if family in ("linear", "table"):
        prices = np.concatenate([prices, -prices[1:3]])
    return model, X, g, groups, prices


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # far-tail overflow
@settings(max_examples=300)
@given(_kernel_cases())
def test_array_kernels_match_scalar_functions_bitwise(case):
    model, X, g, groups, prices = case
    for name, scalar in _KERNELS:
        kernel = getattr(model, name)
        want = [[scalar(model, x, groups[j], p) for p in prices]
                for x, j in zip(X, g)]
        # a price grid for every row, one price per row, one shared price
        assert _bits(kernel(X, g, prices[None], groups)) == _bits(want), name
        per_row = prices[np.arange(len(X)) % len(prices)]
        assert _bits(kernel(X, g, per_row, groups)) == _bits(
            [want[i][i % len(prices)] for i in range(len(X))]), name
        assert _bits(kernel(X, g, prices[-1], groups)) == _bits(
            [row[-1] for row in want]), name
        # one customer over an array of prices
        assert _bits(scalar(model, X[0], groups[g[0]], prices)) == _bits(want[0])
    for x, j in zip(X, g):
        for p in prices:
            formula = formula_demand(model, x, groups[j], float(p))
            values = [scalar(model, x, groups[j], p) for _, scalar in _KERNELS]
            assert _bits(values) == _bits(formula), (x, p)


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf, -np.inf])
def test_bad_prices_raise_the_scalar_errors(family, bad):
    model = {"logistic_demand": fp.LogisticDemand(gamma=[0.3], beta=-1.0),
             "linear": _linear_model(),
             "table": fp.PartiallyLinearDemand(
                 beta={"a": -1.0}, baseline={"a": {(0.0,): 1.0}},
                 baseline_form="table")}.get(family) or fp.LatentValuationModel(
        loc={"a": (1.0, np.array([0.2]))}, noise=family)
    X, g = np.zeros((2, 1)), np.zeros(2, dtype=int)
    negative_ok = isinstance(model, fp.PartiallyLinearDemand)

    def first_error(prices):
        for p in prices:
            if not np.isfinite(p):
                return fp.InvalidRecordError, "price must be finite"
            if p < 0.0 and not negative_ok:
                return (fp.InvalidRecordError,
                        "price must be nonnegative for this demand family")
        return None

    for prices in (bad, [0.3, bad, np.nan], [[0.2], [bad]]):
        want = first_error(np.ravel(prices))
        for name, scalar in _KERNELS:
            got = [_outcome(lambda: getattr(model, name)(
                X, g, np.asarray(prices), ("a",)))]
            if np.ndim(prices) < 2:
                got.append(_outcome(lambda: scalar(model, [0.0], "a", prices)))
            for outcome in got:
                assert outcome == want if want else not isinstance(outcome, tuple)


def test_kernels_check_groups_and_covariates_like_scalars():
    latent = fp.LatentValuationModel(loc={"a": (1.0, np.array([0.2, 0.1]))})
    linear = _linear_model()
    X = np.zeros((3, 2))
    for model, scalar_args in ((latent, ([0.0, 0.0], "z")),
                               (linear, ([0.0], "z"))):
        want = _outcome(lambda: fp.eval_demand(model, *scalar_args, 1.0))
        assert want == (fp.UnknownGroupError, "unknown group 'z'")
        got = _outcome(lambda: model.demand(X[:, :len(scalar_args[0])],
                                            [0, 1, 0], 1.0, ("a", "z")))
        assert got == want
    assert _outcome(lambda: latent.demand(np.zeros((2, 3)), [0, 0], 1.0, ("a",))) \
        == _outcome(lambda: fp.eval_demand(latent, [0.0] * 3, "a", 1.0)) \
        == (fp.DimensionMismatchError, "location expects 2 covariates, got 3")
    # one row with a numpy integer group index, as Cells.g yields it
    two = fp.LatentValuationModel(loc={"a": (1.0, np.array([0.2, 0.1])),
                                       "b": (0.5, np.array([0.3, 0.0]))})
    x = np.array([1.0, 2.0])
    for model, row in ((two, x), (linear, x[:1])):
        for kernel, scalar in (("demand", fp.eval_demand),
                               ("gradient", fp.demand_gradient),
                               ("curvature", fp.demand_curvature)):
            got = getattr(model, kernel)(row, np.intp(1), 1.5, ("a", "b"))
            assert got.shape == () and float(got) == scalar(model, row, "b", 1.5)


def test_population_cells_support_and_record_views():
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0], [2.0]],
                        masses=[0.5, 0.0, 0.5],
                        membership=[[1.0, 0.0], [0.3, 0.7], [0.4, 0.6]])
    cells = pop.cells()
    assert cells.index.tolist() == [0, 2, 2]
    assert cells.g.tolist() == [0, 0, 1]
    assert cells.labels.tolist() == ["a", "a", "b"]
    assert cells.mass.tolist() == [0.5, 0.5 * 0.4, 0.5 * 0.6]
    assert cells.X.tolist() == [[0.0], [2.0], [2.0]]
    records = [fp.Record(id=f"r{i}", group=g, covariates=[float(i)], weight=w)
               for i, (g, w) in enumerate([("b", 1.0), ("a", 3.0)])]
    rows = fp.Population(groups=("b", "a"), records=records, rho={"a": 0.5, "b": 0.5}).cells()
    assert rows.index is None
    assert rows.g.tolist() == [0, 1] and rows.mass.tolist() == [0.25, 0.75]
    assert rows.totals(1, rows.mass, rows.mass * 2.0) == [0.75, 1.5]
    with pytest.raises(fp.MissingFieldError):
        fp.Population(groups=("a",), rho={"a": 1.0}).cells()


def test_record_table_group_is_built_once():
    table = as_table([fp.Record(id="r0", group="b", covariates=[0.0]),
                      fp.Record(id="r1", group="a", covariates=[1.0])])
    assert table.group.tolist() == ["b", "a"]
    assert table.group is table.group


# -- fitting ----------------------------------------------------------------


def _logistic_records(n, rng, gamma=(0.8,), beta=-1.5, intercept=0.5):
    model = fp.LogisticDemand(gamma=list(gamma), beta=beta, intercept=intercept)
    records = []
    for i in range(n):
        x = rng.normal(size=len(gamma))
        p = rng.uniform(0.2, 2.5)
        d = fp.sample_demand(model, x, None, p, rng)
        records.append(fp.Record(id=str(i), group="a" if i % 2 else "b",
                                 covariates=x, price=p, demand=float(d)))
    return records


def test_fit_logistic_recovers_coefficients():
    rng = np.random.default_rng(7)
    records = _logistic_records(6000, rng)
    model, diag = fp.fit_logistic(records)
    assert abs(model.beta - (-1.5)) < 0.15
    assert abs(model.gamma[0] - 0.8) < 0.15
    assert abs(model.intercept - 0.5) < 0.15
    assert diag.gradient_norm < 1e-8
    assert diag.std_errors is not None and np.all(diag.std_errors > 0)
    assert diag.log_likelihood < 0


def test_fit_logistic_converges_on_large_discrete_log():
    # near the optimum a full Newton step moves a log-likelihood of size ~1e4
    # by less than its rounding error; the line search must still accept it
    rng = np.random.default_rng(1)
    n = 20000
    x = rng.choice([0.0, 1.0, 2.0], size=(n, 2))
    p = rng.choice([0.8, 1.2, 1.6, 2.0], size=n)
    truth = np.array([0.5, 0.15, -1.5, 2.0])  # gamma, beta, intercept
    rate = 1.0 / (1.0 + np.exp(-(x @ truth[:2] + truth[2] * p + truth[3])))
    y = (rng.random(n) < rate).astype(float)
    records = [fp.Record(id=str(i), group="a", covariates=x[i],
                         price=float(p[i]), demand=float(y[i]))
               for i in range(n)]
    model, diag = fp.fit_logistic(records)
    assert diag.gradient_norm < 1e-8
    assert diag.iterations <= 10
    est = np.concatenate([model.gamma, [model.beta, model.intercept]])
    assert np.all(np.abs(est - truth) <= 5.0 * diag.std_errors)


def test_fit_logistic_weights_matter():
    rng = np.random.default_rng(9)
    records = _logistic_records(800, rng)
    doubled = [fp.Record(id=r.id, group=r.group, covariates=r.covariates,
                         price=r.price, demand=r.demand, weight=2.0)
               for r in records]
    m1, _ = fp.fit_logistic(records)
    m2, _ = fp.fit_logistic(doubled)
    # uniform reweighting must not move the MLE
    assert np.allclose(m1.gamma, m2.gamma, atol=1e-6)
    assert abs(m1.beta - m2.beta) < 1e-6


def test_fit_logistic_perfect_separation():
    records = [
        fp.Record(id=str(i), group="a", covariates=[float(i)], price=1.0 + i,
                  demand=float(i >= 5))
        for i in range(10)
    ]
    with pytest.raises(fp.PerfectSeparationError):
        fp.fit_logistic(records)


def test_fit_logistic_one_class():
    records = [fp.Record(id=str(i), group="a", covariates=[float(i % 3)],
                         price=1.0 + (i % 4), demand=1.0) for i in range(12)]
    with pytest.raises(fp.PerfectSeparationError):
        fp.fit_logistic(records)


def test_fit_logistic_dead_column():
    rng = np.random.default_rng(1)
    records = [fp.Record(id=str(i), group="a", covariates=[1.5],  # constant
                         price=rng.uniform(0.5, 2.0),
                         demand=float(rng.random() < 0.5)) for i in range(60)]
    with pytest.raises(fp.SingularDesignError):
        fp.fit_logistic(records)


def test_fit_logistic_rejects_nonbinary_demand():
    records = [fp.Record(id="0", group="a", covariates=[0.1], price=1.0,
                         demand=0.7),
               fp.Record(id="1", group="a", covariates=[0.9], price=1.5,
                         demand=0.0)]
    with pytest.raises(fp.InvalidRecordError):
        fp.fit_logistic(records)


def test_fit_partially_linear_recovery():
    rng = np.random.default_rng(21)
    truth = fp.PartiallyLinearDemand(
        beta={"a": -1.2, "b": -0.6},
        baseline={"a": (2.5, np.array([0.4])), "b": (1.5, np.array([0.4]))})
    records = []
    for i in range(4000):
        x = rng.normal(size=1)
        g = "a" if rng.random() < 0.5 else "b"
        p = rng.uniform(0.2, 2.0)
        d = fp.eval_demand(truth, x, g, p) + 0.05 * rng.normal()
        records.append(fp.Record(id=str(i), group=g, covariates=x,
                                 price=p, demand=d))
    model, diag = fp.fit_partially_linear(records)
    assert abs(model.beta["a"] + 1.2) < 0.02
    assert abs(model.beta["b"] + 0.6) < 0.02
    icpt_a, coefs_a = model.baseline["a"]
    assert abs(icpt_a - 2.5) < 0.02
    assert abs(coefs_a[0] - 0.4) < 0.02
    assert set(diag.residual_sum_squares) == {"a", "b"}


def test_fit_partially_linear_upward_slope():
    rng = np.random.default_rng(2)
    records = []
    for i in range(200):
        p = rng.uniform(0.5, 2.0)
        records.append(fp.Record(id=str(i), group="a",
                                 covariates=rng.normal(size=1),
                                 price=p, demand=0.5 * p + rng.normal() * 0.01))
    with pytest.raises(fp.UpwardSlopeError):
        fp.fit_partially_linear(records)
    model, _ = fp.fit_partially_linear(records, allow_upward=True)
    assert model.beta["a"] > 0


def test_fit_partially_linear_no_price_variation():
    records = [fp.Record(id=str(i), group="a", covariates=[float(i)],
                         price=1.0, demand=0.3) for i in range(10)]
    with pytest.raises(fp.SingularDesignError):
        fp.fit_partially_linear(records)


# -- populations and serialization -------------------------------------------


def test_population_rho_computed_from_support():
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0]],
                        masses=[0.25, 0.75],
                        membership=[[0.8, 0.2], [0.4, 0.6]])
    assert pop.rho["a"] == pytest.approx(0.25 * 0.8 + 0.75 * 0.4)
    assert pop.rho["b"] == pytest.approx(1.0 - pop.rho["a"])
    joint = pop.joint_weights()
    assert joint.sum() == pytest.approx(1.0)


def test_population_validation_errors():
    with pytest.raises(fp.InvalidRecordError):
        fp.Population(groups=("a", "b"), support=[[0.0]], masses=[0.9],
                      membership=[[0.5, 0.5]])  # masses don't sum to 1
    with pytest.raises(fp.InvalidRecordError):
        fp.Population(groups=("a", "b"), support=[[0.0]], masses=[1.0],
                      membership=[[0.7, 0.7]])  # membership row sum
    with pytest.raises(fp.InvalidRecordError):
        fp.Population(groups=("a", "b"), support=[[0.0]], masses=[1.0],
                      membership=[[0.5, 0.5]], rho={"a": 0.9, "b": 0.1})
    with pytest.raises(fp.DimensionMismatchError):
        fp.Population(groups=("a", "b"), support=[[0.0], [1.0]], masses=[1.0],
                      membership=[[0.5, 0.5]])
    with pytest.raises(fp.UnknownGroupError):
        fp.Population(groups=("a", "b"),
                      records=[fp.Record(id="0", group="zz", covariates=[0.0])],
                      rho={"a": 0.5, "b": 0.5})


def test_record_validation():
    with pytest.raises(fp.InvalidRecordError):
        fp.Record(id="0", group="a", covariates=[np.nan])
    with pytest.raises(fp.InvalidRecordError):
        fp.Record(id="0", group="a", covariates=[0.0], weight=0.0)


@pytest.mark.parametrize("field,value", [
    ("price", np.nan), ("price", np.inf), ("demand", np.nan),
    ("outcome", -np.inf), ("valuation", np.nan), ("weight", np.inf),
])
def test_record_table_rejects_nonfinite_cells(field, value):
    good = fp.Record(id="r0", group="a", covariates=[0.0], price=1.0,
                     demand=1.0)
    bad = fp.Record(id="r1", group="b", covariates=[1.0], price=1.0,
                    demand=0.0)
    setattr(bad, field, value)
    with pytest.raises(fp.InvalidRecordError, match=f"record r1: {field}"):
        as_table([good, bad])


def test_record_table_rows_round_trip():
    records = [fp.Record(id=f"r{i}", group="ba"[i % 2], covariates=[i, 1.0],
                         price=1.0 + i, demand=float(i % 2),
                         valuation=None if i % 3 else 2.5, weight=1.0 + i)
               for i in range(6)]
    pop = fp.Population(groups=("a", "b"), records=records,
                        rho={"a": 0.5, "b": 0.5})
    table = pop.records
    assert isinstance(table, fp.RecordTable)
    assert len(table) == 6 and table.labels == ("a", "b")
    assert [r.id for r in table] == [r.id for r in records]
    assert [r.valuation for r in table[1:4]] == [None, None, 2.5]
    row = table[4]
    assert (row.group, row.price, row.demand, row.weight) == ("b", 5.0, 0.0, 5.0)
    assert row.covariates.tolist() == [4.0, 1.0]


def test_model_dict_round_trip():
    models = [
        _linear_model(),
        fp.PartiallyLinearDemand(
            beta={"a": -1.0}, baseline={"a": {(0.0,): 2.0, (1.0,): 1.5}},
            baseline_form="table"),
        fp.LogisticDemand(gamma=[0.1, -0.2], beta=-0.9, intercept=0.3),
        fp.LatentValuationModel(loc={"a": (2.0, np.array([0.5]))},
                                noise="laplace", scale=0.4),
    ]
    for m in models:
        back = fp.model_from_dict(fp.model_to_dict(m))
        assert fp.model_to_dict(back) == fp.model_to_dict(m)


def test_population_dict_round_trip():
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0]],
                        masses=[0.5, 0.5],
                        membership=[[0.9, 0.1], [0.3, 0.7]], unit_cost=0.2)
    back = fp.population_from_dict(fp.population_to_dict(pop))
    assert fp.population_to_dict(back) == fp.population_to_dict(pop)


def test_model_from_dict_unknown_kind():
    with pytest.raises(fp.MissingFieldError):
        fp.model_from_dict({"kind": "mystery"})
