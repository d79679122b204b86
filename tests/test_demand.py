import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit

import fairprice as fp
from fairprice.demand import NOISE_FAMILIES, take_rows

from oracles import central_difference, formula_demand
from tables import one_customer, record_table


def test_noise_families_pdf_matches_cdf_derivative():
    zs = np.linspace(-4.5, 4.5, 37)
    for name, fam in NOISE_FAMILIES.items():
        for z in zs:
            if name == "exponential" and abs(z) < 0.05:
                continue  # density kink at the origin
            num = central_difference(lambda t: float(fam.sf(t)), z, 1e-5)
            assert abs(-num - float(fam.pdf(z))) < 5e-6, (name, z)


def test_noise_families_pdf_prime_matches_pdf_derivative():
    for name, fam in NOISE_FAMILIES.items():
        for z in np.linspace(-4.0, 4.0, 33):
            if name in ("exponential", "laplace") and abs(z) < 0.05:
                continue
            num = central_difference(lambda t: float(fam.pdf(t)), z, 1e-5)
            assert abs(num - float(fam.pdf_prime(z))) < 5e-6, (name, z)


def test_noise_samples_follow_cdf():
    # seeded draw; compare the empirical survival function at a few points
    rng = np.random.default_rng(42)
    for name, fam in NOISE_FAMILIES.items():
        draws = fam.sample(rng, 20_000)
        for z in (-1.0, 0.0, 1.0):
            emp = float(np.mean(draws > z))
            assert abs(emp - float(fam.sf(z))) < 0.02, name


def _linear_model():
    return fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -0.5},
        baseline={"a": (2.0, np.array([0.5])), "b": (1.0, np.array([-0.25]))})


def test_partially_linear_eval_and_slope():
    m = _linear_model()
    x = [2.0]
    assert one_customer(m, x, "a", 1.5) == pytest.approx(2.0 + 1.0 - 1.5)
    assert one_customer(m, x, "b", 1.0) == pytest.approx(1.0 - 0.5 - 0.5)
    assert one_customer(m, x, "a", 0.7, "gradient") == -1.0
    assert one_customer(m, x, "b", 0.7, "curvature") == 0.0
    # values are model scale: no clamping to [0, 1]
    assert one_customer(m, x, "a", 0.0) == pytest.approx(3.0)
    assert one_customer(m, x, "a", 10.0) < 0.0


def test_partially_linear_negative_prices_allowed():
    m = _linear_model()
    assert one_customer(m, [0.0], "a", -1.0) == pytest.approx(3.0)


def test_mixture_group_is_weighted_average():
    m = _linear_model()
    mix = {"a": 0.3, "b": 0.7}
    x = [1.0]
    p = 0.8
    want = 0.3 * one_customer(m, x, "a", p) + 0.7 * one_customer(m, x, "b", p)
    assert one_customer(m, x, mix, p) == pytest.approx(want)
    want_g = 0.3 * (-1.0) + 0.7 * (-0.5)
    assert one_customer(m, x, mix, p, "gradient") == pytest.approx(want_g)


def test_upward_slope_rejected_at_construction():
    with pytest.raises(fp.UpwardSlopeError):
        fp.PartiallyLinearDemand(beta={"a": 0.1},
                                 baseline={"a": (1.0, np.array([]))})


@pytest.mark.parametrize("build, error", [
    (lambda: fp.LatentValuationModel(loc={"a": (1.0, [])}, scale=np.inf),
     fp.InvalidRecordError),
    (lambda: fp.LatentValuationModel(loc={"a": (1.0, [])}, scale=np.nan),
     fp.InvalidRecordError),
    (lambda: fp.LogisticDemand(gamma=[0.5], beta=0.0), fp.UpwardSlopeError),
    (lambda: fp.LogisticDemand(gamma=[0.5], beta=0.7), fp.UpwardSlopeError),
], ids=["latent_inf_scale", "latent_nan_scale", "logistic_zero_beta",
        "logistic_positive_beta"])
def test_models_reject_invalid_parameters_at_construction(build, error):
    with pytest.raises(error):
        build()


def test_downward_slopes_name_the_offending_group():
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": 0.5},
        baseline={g: (2.0, np.array([])) for g in "ab"}, allow_upward=True)
    assert model.downward_slopes(["a"]).tolist() == [-1.0]
    with pytest.raises(fp.UpwardSlopeError, match="group 'b'"):
        model.downward_slopes(["a", "b"])
    with pytest.raises(fp.UnknownGroupError, match="'zz'"):
        model.downward_slopes(["zz"])


def test_unknown_group_raises():
    m = _linear_model()
    with pytest.raises(fp.UnknownGroupError):
        one_customer(m, [0.0], "zz", 1.0)


def test_logistic_gradient_and_curvature_match_fd():
    m = fp.LogisticDemand(gamma=[0.4, -0.2], beta=-1.3, intercept=0.6)
    x = [1.0, 2.0]
    for p in (0.1, 0.9, 2.5):
        g = central_difference(lambda t: one_customer(m, x, None, t), p, 1e-5)
        c = central_difference(
            lambda t: one_customer(m, x, None, t, "gradient"), p, 1e-5)
        assert abs(g - one_customer(m, x, None, p, "gradient")) < 1e-8
        assert abs(c - one_customer(m, x, None, p, "curvature")) < 1e-7


def test_logistic_rejects_negative_price():
    m = fp.LogisticDemand(gamma=[0.0], beta=-1.0)
    with pytest.raises(fp.InvalidRecordError):
        one_customer(m, [0.0], None, -0.5)


@pytest.mark.parametrize("noise", sorted(NOISE_FAMILIES))
def test_latent_demand_derivatives_match_fd(noise):
    m = fp.LatentValuationModel(loc={"g": (2.0, np.array([0.5]))},
                                noise=noise, scale=0.7)
    x = [1.0]
    for p in (0.5, 1.8, 3.2):
        g = central_difference(lambda t: one_customer(m, x, "g", t), p, 1e-5)
        assert abs(g - one_customer(m, x, "g", p, "gradient")) < 1e-6, (noise, p)
        c = central_difference(
            lambda t: one_customer(m, x, "g", t, "gradient"), p, 1e-5)
        assert abs(c - one_customer(m, x, "g", p, "curvature")) < 1e-5, (noise, p)


def test_latent_demand_is_survival_probability():
    m = fp.LatentValuationModel(loc={"g": (1.0, np.array([]))},
                                noise="normal", scale=0.5)
    assert one_customer(m, [], "g", 0.0) > 0.97
    assert one_customer(m, [], "g", 1.0) == pytest.approx(0.5)
    assert one_customer(m, [], "g", 30.0) >= 0.0
    # deep tail must not produce garbage
    assert one_customer(m, [], "g", 30.0) < 1e-300 or \
        one_customer(m, [], "g", 30.0) == 0.0


# -- array kernels ----------------------------------------------------------

_FAMILIES = sorted(NOISE_FAMILIES) + ["logistic_demand", "linear", "table"]
_KINDS = ("demand", "gradient", "curvature")


def _per_call(model, kind):
    """The ``kind`` kernel of ``model`` from the row terms of each call."""
    return lambda X, g, p, groups: model.kernels(
        model.row_terms(X, g, groups), p, kind)[0]


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
    for name in _KINDS:
        kernel = _per_call(model, name)
        want = [[one_customer(model, x, groups[j], p, name) for p in prices]
                for x, j in zip(X, g)]
        # a price grid for every row, one price per row, one shared price
        assert _bits(kernel(X, g, prices[None], groups)) == _bits(want), name
        per_row = prices[np.arange(len(X)) % len(prices)]
        assert _bits(kernel(X, g, per_row, groups)) == _bits(
            [want[i][i % len(prices)] for i in range(len(X))]), name
        assert _bits(kernel(X, g, prices[-1], groups)) == _bits(
            [row[-1] for row in want]), name
        # one customer over an array of prices
        assert _bits(one_customer(model, X[0], groups[g[0]], prices, name)) \
            == _bits(want[0])
    for x, j in zip(X, g):
        for p in prices:
            formula = formula_demand(model, x, groups[j], float(p))
            values = [one_customer(model, x, groups[j], p, kind)
                      for kind in _KINDS]
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
        for name in _KINDS:
            got = [_outcome(lambda: _per_call(model, name)(
                X, g, np.asarray(prices), ("a",)))]
            if np.ndim(prices) < 2:
                got.append(_outcome(
                    lambda: one_customer(model, [0.0], "a", prices, name)))
            for outcome in got:
                assert outcome == want if want else not isinstance(outcome, tuple)


def _result(fn):
    """An error as its type and message, a value as its shape and bits."""
    try:
        value = fn()
    except fp.FairPriceError as exc:
        return type(exc), str(exc)
    return np.shape(value), _bits(value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # far-tail overflow
@settings(max_examples=200)
@given(_kernel_cases(), st.data())
def test_kernels_from_hoisted_row_terms_match_per_call_kernels(case, data):
    # the terms of every row, computed once, then any rows of them in any
    # order, at every price shape: the per-call kernels' bits
    model, X, g, groups, prices = case
    terms = model.row_terms(X, g, groups)
    rows = np.array(data.draw(st.lists(st.integers(0, len(X) - 1),
                                       max_size=8)), dtype=np.intp)
    for p in (prices[-1], prices[np.arange(len(rows)) % len(prices)],
              np.tile(prices, (len(rows), 1)), prices[None]):
        got = model.kernels(take_rows(terms, rows), p, *_KINDS)
        for kind, value in zip(_KINDS, got):
            assert _result(lambda: value) == _result(
                lambda: _per_call(model, kind)(X[rows], g[rows], p, groups)), kind


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=100)
@given(_kernel_cases(), st.sampled_from([-0.5, np.nan, np.inf]),
       st.sampled_from(_KINDS))
def test_kernels_from_row_terms_raise_the_per_call_errors(case, bad, kind):
    # a bad price, a label the model lacks (logistic demand reads none), and
    # both at once: the row terms come first, so their error wins
    model, X, g, groups, prices = case
    finite = bool(np.isfinite(bad))
    price_error = None if finite and isinstance(
        model, fp.PartiallyLinearDemand) else (fp.InvalidRecordError, (
            "price must be nonnegative for this demand family" if finite
            else "price must be finite"))
    row_error = None if isinstance(model, fp.LogisticDemand) or not (
        g == 1).any() else (fp.UnknownGroupError, "unknown group 'zz'")
    for p, labels, want in (
            (np.append(prices, bad)[None], groups, price_error),
            (prices[None], ("a", "zz"), row_error),
            (np.append(prices, bad)[None], ("a", "zz"),
             row_error or price_error)):
        got = _outcome(lambda: _per_call(model, kind)(X, g, p, labels))
        assert got == want if want else not isinstance(got, tuple)


@settings(max_examples=300)
@given(st.floats(-700.0, 700.0))
@example(16.0)
@example(20.0)
@example(40.0)
@example(700.0)
@example(-700.0)
def test_logistic_densities_keep_their_precision_in_both_tails(z):
    """Within 1e-8 of the exact density, relative, at every z (s * (1 - s)
    loses it above z = 16 and is 0 past z = 36.7); the derivatives within
    1e-8 of the density, the scale of their rounding by their zero at 0."""
    def exact(z):
        e = math.exp(-abs(z))
        pdf = e / (1.0 + e) ** 2
        return pdf, pdf * math.tanh(-z / 2.0)

    fam = NOISE_FAMILIES["logistic"]
    # latent logistic demand with z = p - 700, logistic demand with z = 700 - p
    latent = fp.LatentValuationModel(loc={"a": (700.0, np.array([]))})
    logistic = fp.LogisticDemand(gamma=[], beta=-1.0, intercept=700.0)
    p_latent, p_logistic = z + 700.0, 700.0 - z
    z_latent, z_logistic = p_latent - 700.0, -p_logistic + 700.0
    cases = [(fam.pdf(z), fam.pdf_prime(z), exact(z)),
             (-one_customer(latent, [], "a", p_latent, "gradient"),
              -one_customer(latent, [], "a", p_latent, "curvature"), exact(z_latent)),
             (-one_customer(logistic, [], None, p_logistic, "gradient"),
              one_customer(logistic, [], None, p_logistic, "curvature"),
              exact(z_logistic))]
    for pdf, prime, (want_pdf, want_prime) in cases:
        assert abs(pdf - want_pdf) <= 1e-8 * want_pdf, (pdf, want_pdf)
        assert abs(prime - want_prime) <= 1e-8 * want_pdf, (prime, want_prime)


def test_kernels_check_groups_and_covariates_like_scalars():
    latent = fp.LatentValuationModel(loc={"a": (1.0, np.array([0.2, 0.1]))})
    linear = _linear_model()
    X = np.zeros((3, 2))
    for model, scalar_args in ((latent, ([0.0, 0.0], "z")),
                               (linear, ([0.0], "z"))):
        want = _outcome(lambda: one_customer(model, *scalar_args, 1.0))
        assert want == (fp.UnknownGroupError, "unknown group 'z'")
        got = _outcome(lambda: model.row_terms(X[:, :len(scalar_args[0])],
                                               [0, 1, 0], ("a", "z")))
        assert got == want
    assert _outcome(lambda: latent.row_terms(np.zeros((2, 3)), [0, 0], ("a",))) \
        == _outcome(lambda: one_customer(latent, [0.0] * 3, "a", 1.0)) \
        == (fp.DimensionMismatchError, "location expects 2 covariates, got 3")
    # one customer: a (1, k) matrix and an np.intp code array, as Cells.g
    # yields it, gives the family's scalar formula bit for bit
    two = fp.LatentValuationModel(loc={"a": (1.0, np.array([0.2, 0.1])),
                                       "b": (0.5, np.array([0.3, 0.0]))})
    X1, g1 = np.array([[1.0, 2.0]]), np.array([1], dtype=np.intp)
    for model, row in ((two, X1), (linear, X1[:, :1])):
        got = [_per_call(model, kind)(row, g1, 1.5, ("a", "b")) for kind in _KINDS]
        assert [v.shape for v in got] == [(1,)] * len(_KINDS)
        assert _bits(np.concatenate(got)) == _bits(
            formula_demand(model, row[0], "b", 1.5))


def test_population_cells_support_and_record_views():
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0], [2.0]],
                        masses=[0.5, 0.0, 0.5],
                        membership=[[1.0, 0.0], [0.3, 0.7], [0.4, 0.6]])
    cells = pop.cells()
    assert cells.index.tolist() == [0, 2, 2]
    assert cells.g.tolist() == [0, 0, 1]
    assert cells.mass.tolist() == [0.5, 0.5 * 0.4, 0.5 * 0.6]
    assert cells.X.tolist() == [[0.0], [2.0], [2.0]]
    records = record_table(
        dict(id=f"r{i}", group=g, covariates=[float(i)], weight=w)
        for i, (g, w) in enumerate([("b", 1.0), ("a", 3.0)]))
    rows = fp.Population(groups=("b", "a"), records=records, rho={"a": 0.5, "b": 0.5}).cells()
    assert rows.index is None
    assert rows.g.tolist() == [0, 1] and rows.mass.tolist() == [0.25, 0.75]
    assert rows.totals(1, rows.mass, rows.mass * 2.0) == [0.75, 1.5]
    with pytest.raises(fp.MissingFieldError):
        fp.Population(groups=("a",), rho={"a": 1.0}).cells()


# -- fitting ----------------------------------------------------------------


def _logistic_records(n, rng, gamma=(0.8,), beta=-1.5, intercept=0.5):
    model = fp.LogisticDemand(gamma=list(gamma), beta=beta, intercept=intercept)
    records = []
    for i in range(n):
        x = rng.normal(size=len(gamma))
        p = rng.uniform(0.2, 2.5)
        d = float(rng.random() < one_customer(model, x, None, p))
        records.append(dict(id=str(i), group="a" if i % 2 else "b",
                            covariates=x, price=p, demand=d))
    return records


def test_fit_logistic_recovers_coefficients():
    rng = np.random.default_rng(7)
    records = _logistic_records(6000, rng)
    model, diag = fp.fit_logistic(record_table(records))
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
    records = [dict(id=str(i), group="a", covariates=x[i],
                    price=float(p[i]), demand=float(y[i]))
               for i in range(n)]
    model, diag = fp.fit_logistic(record_table(records))
    assert diag.gradient_norm < 1e-8
    assert diag.iterations <= 10
    est = np.concatenate([model.gamma, [model.beta, model.intercept]])
    assert np.all(np.abs(est - truth) <= 5.0 * diag.std_errors)


def _logistic_log(x, price, demand):
    return record_table(dict(id=str(i), group="a", covariates=np.ravel(xi),
                             price=pi, demand=di)
                        for i, (xi, pi, di) in enumerate(zip(x, price, demand)))


# on these seven records the sixth full Newton step from zero overshoots
_OVERSHOOT = ([-1.5, -0.2, 106.4, 1.2, 0.2, -23.5, 0.1],
              [1.9, 1.4, 0.9, 1.5, 1.3, 0.5, 1.3],
              [0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0])


def test_fit_logistic_halves_a_step_that_lowers_the_likelihood():
    model, diag = fp.fit_logistic(_logistic_log(*_OVERSHOOT))
    assert diag.gradient_norm < 1e-8 and model.beta < 0.0
    X = np.column_stack([_OVERSHOOT[0], _OVERSHOOT[1], np.ones(7)])
    y = np.array(_OVERSHOOT[2])

    def loglik(coef):
        return float(y @ (X @ coef) - np.logaddexp(0.0, X @ coef).sum())
    # five full Newton steps from zero raise the likelihood, the sixth lowers it
    coef, lls = np.zeros(3), [loglik(np.zeros(3))]
    for _ in range(6):
        mu = expit(X @ coef)
        hessian = X.T @ (X * (mu * (1.0 - mu))[:, None])
        coef = coef + np.linalg.solve(hessian, X.T @ (y - mu))
        lls.append(loglik(coef))
    assert lls[-1] < lls[-2] and lls[1:-1] == sorted(lls[1:-1])


def test_fit_logistic_reports_a_singular_design_and_no_convergence(monkeypatch):
    x, price, demand = _OVERSHOOT
    with pytest.raises(fp.SingularDesignError, match="singular information"):
        fp.fit_logistic(_logistic_log(np.c_[x, x], price, demand))
    monkeypatch.setattr(fp.demand, "_LOGISTIC_MAX_ITER", 2)
    with pytest.raises(fp.ConvergenceError,
                       match=r"did not converge in 2 iterations \(gradient norm"):
        fp.fit_logistic(_logistic_log(*_OVERSHOOT))


def test_fit_logistic_weights_matter():
    rng = np.random.default_rng(9)
    records = _logistic_records(800, rng)
    doubled = [dict(r, weight=2.0) for r in records]
    m1, _ = fp.fit_logistic(record_table(records))
    m2, _ = fp.fit_logistic(record_table(doubled))
    # uniform reweighting must not move the MLE
    assert np.allclose(m1.gamma, m2.gamma, atol=1e-6)
    assert abs(m1.beta - m2.beta) < 1e-6


def test_fit_logistic_perfect_separation():
    records = [
        dict(id=str(i), group="a", covariates=[float(i)], price=1.0 + i,
             demand=float(i >= 5))
        for i in range(10)
    ]
    with pytest.raises(fp.PerfectSeparationError):
        fp.fit_logistic(record_table(records))


def test_fit_logistic_one_class():
    records = [dict(id=str(i), group="a", covariates=[float(i % 3)],
                    price=1.0 + (i % 4), demand=1.0) for i in range(12)]
    with pytest.raises(fp.PerfectSeparationError):
        fp.fit_logistic(record_table(records))


def test_fit_logistic_dead_column():
    rng = np.random.default_rng(1)
    records = [dict(id=str(i), group="a", covariates=[1.5],  # constant
                    price=rng.uniform(0.5, 2.0),
                    demand=float(rng.random() < 0.5)) for i in range(60)]
    with pytest.raises(fp.SingularDesignError):
        fp.fit_logistic(record_table(records))


def test_fit_logistic_rejects_nonbinary_demand():
    records = [dict(id="0", group="a", covariates=[0.1], price=1.0,
                    demand=0.7),
               dict(id="1", group="a", covariates=[0.9], price=1.5,
                    demand=0.0)]
    with pytest.raises(fp.InvalidRecordError):
        fp.fit_logistic(record_table(records))


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
        d = one_customer(truth, x, g, p) + 0.05 * rng.normal()
        records.append(dict(id=str(i), group=g, covariates=x,
                            price=p, demand=d))
    model, diag = fp.fit_partially_linear(record_table(records))
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
        records.append(dict(id=str(i), group="a",
                            covariates=rng.normal(size=1),
                            price=p, demand=0.5 * p + rng.normal() * 0.01))
    with pytest.raises(fp.UpwardSlopeError):
        fp.fit_partially_linear(record_table(records))
    model, _ = fp.fit_partially_linear(record_table(records), allow_upward=True)
    assert model.beta["a"] > 0


@pytest.mark.parametrize("price, covariate, message", [
    (lambda i: 1.0, float, "no price variation"),
    (lambda i: 1.0 + i % 3, lambda i: 0.5, "rank-deficient design"),
], ids=["constant_price", "constant_covariate"])
def test_fit_partially_linear_singular_design(price, covariate, message):
    records = [dict(id=str(i), group="a", covariates=[covariate(i)],
                    price=price(i), demand=0.3) for i in range(10)]
    with pytest.raises(fp.SingularDesignError, match=message):
        fp.fit_partially_linear(record_table(records))


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
                      records=record_table(
                          [dict(id="0", group="zz", covariates=[0.0])]),
                      rho={"a": 0.5, "b": 0.5})


@pytest.mark.parametrize("field, value, message", [
    ("masses", [np.nan, 0.5], "support masses must be finite"),
    ("membership", [[np.nan, 0.4], [0.3, 0.7]],
     "membership probabilities must be finite"),
    ("rho", {"a": np.nan, "b": 0.55}, "group priors must be finite"),
])
def test_a_population_rejects_a_nan_parameter(field, value, message):
    # the JSON readers refuse NaN first, so only a direct build meets these
    params = dict(support=[[0.0], [1.0]], masses=[0.5, 0.5],
                  membership=[[0.6, 0.4], [0.3, 0.7]])
    params[field] = value
    with pytest.raises(fp.InvalidRecordError, match=message):
        fp.Population(groups=("a", "b"), **params)


@given(k=st.integers(1, 3), n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       keys=st.lists(st.sampled_from("abcde"), unique=True, max_size=5))
@settings(max_examples=200)
def test_a_population_takes_a_rho_keyed_by_exactly_its_groups(k, n, seed,
                                                               keys):
    rng = np.random.default_rng(seed)
    groups, masses = tuple("abc"[:k]), rng.dirichlet(np.ones(n))
    membership = rng.dirichlet(np.ones(k), size=n)
    implied = masses @ membership
    # a key outside the groups gets a prior of zero, so only the keys differ
    rho = {g: float(implied[groups.index(g)]) if g in groups else 0.0
           for g in keys}

    def build():
        return fp.Population(groups=groups, support=np.arange(n)[:, None],
                             masses=masses, membership=membership, rho=rho)

    if set(keys) == set(groups):
        assert build().rho == rho
    else:
        with pytest.raises(fp.UnknownGroupError, match="rho names groups"):
            build()


def test_record_validation():
    with pytest.raises(fp.InvalidRecordError, match="record 0: covariates"):
        record_table([dict(id="0", group="a", covariates=[np.nan])])
    with pytest.raises(fp.InvalidRecordError, match="record 0: weight"):
        record_table([dict(id="0", group="a", covariates=[0.0], weight=0.0)])


def test_record_table_rejects_an_empty_group():
    rows = [dict(id=f"r{i}", group=g, covariates=[0.0])
            for i, g in enumerate(["a", "", "b"])]
    with pytest.raises(fp.MissingFieldError, match="record r1: group missing"):
        record_table(rows)
    with pytest.raises(fp.MissingFieldError, match="row 1: group missing"):
        fp.RecordTable.from_arrays(
            ["r0", "r1"], [0, 1], np.zeros((2, 1)), np.full((2, 5), np.nan),
            np.zeros((2, 5), dtype=bool), lambda i: f"row {i}",
            labels=("a", ""))


@pytest.mark.parametrize("field,value", [
    ("price", np.nan), ("price", np.inf), ("demand", np.nan),
    ("outcome", -np.inf), ("valuation", np.nan), ("weight", np.inf),
])
def test_record_table_rejects_nonfinite_cells(field, value):
    good = dict(id="r0", group="a", covariates=[0.0], price=1.0,
                demand=1.0)
    bad = dict(id="r1", group="b", covariates=[1.0], price=1.0,
               demand=0.0)
    bad[field] = value
    with pytest.raises(fp.InvalidRecordError, match=f"record r1: {field}"):
        record_table([good, bad])


def test_record_table_rows_round_trip():
    rows = [dict(id=f"r{i}", group="ba"[i % 2], covariates=[i, 1.0],
                 price=1.0 + i, demand=float(i % 2),
                 valuation=None if i % 3 else 2.5, weight=1.0 + i)
            for i in range(6)]
    table = record_table(rows)
    pop = fp.Population(groups=("a", "b"), records=table,
                        rho={"a": 0.5, "b": 0.5})
    assert pop.records is table
    assert len(table) == 6 and table.labels == ("a", "b")
    assert table.ids.tolist() == [r["id"] for r in rows]
    assert [table.labels[c] for c in table.codes] == [r["group"] for r in rows]
    assert np.isnan(table.outcome).all()
    part = table.take([1, 2, 3])
    assert np.isnan(part.valuation[:2]).all() and part.valuation[2] == 2.5
    row = table.take([4])
    assert (row.labels[row.codes[0]], row.price[0], row.demand[0],
            row.weight[0]) == (
        "b", 5.0, 0.0, 5.0)
    assert row.X.tolist() == [[4.0, 1.0]]


def _covariate_table(X):
    n = len(X)
    return fp.RecordTable.from_arrays(
        [f"r{i}" for i in range(n)], ["a"] * n, np.asarray(X, dtype=float),
        np.full((n, 5), np.nan), np.zeros((n, 5), dtype=bool), str)


@given(n=st.integers(0, 40), k=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200)
def test_strata_match_np_unique_and_keep_each_first_record(n, k, seed):
    # the sorted rows and every record's index are np.unique's; a stratum
    # whose records mix -0.0 and 0.0 takes its first record's spelling
    X = np.random.default_rng(seed).choice([-0.0, 0.0, 0.5, -1.5, 2.0],
                                           size=(n, k))
    rows, row_of = _covariate_table(X).strata
    want_rows, want_row_of = np.unique(X, axis=0, return_inverse=True)
    assert rows.shape == want_rows.shape and (rows == want_rows).all()
    assert row_of.dtype == np.intp
    assert row_of.tolist() == want_row_of.reshape(-1).tolist()
    for s in range(len(rows)):
        first = X[np.flatnonzero(row_of == s)[0]]
        assert rows[s].view(np.uint64).tolist() == first.view(np.uint64).tolist()


def test_strata_spell_a_signed_zero_as_the_first_record_does():
    X = [[0.0, 1.0], [-0.0, 1.0], [-0.0, 0.0], [0.0, -0.0]]
    rows, row_of = _covariate_table(X).strata
    assert [str(tuple(r)) for r in rows.tolist()] == ["(-0.0, 0.0)",
                                                      "(0.0, 1.0)"]
    assert row_of.tolist() == [1, 1, 0, 0]
    rows, _ = _covariate_table(X[::-1]).strata
    assert [str(tuple(r)) for r in rows.tolist()] == ["(0.0, -0.0)",
                                                      "(-0.0, 1.0)"]


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


@pytest.mark.parametrize("call", [fp.model_to_dict], ids=["model_to_dict"])
def test_a_non_model_is_a_type_error(call):
    with pytest.raises(TypeError, match="not a demand model: dict"):
        call({"kind": "latent"})


def test_population_dict_round_trip():
    pop = fp.Population(groups=("a", "b"), support=[[0.0], [1.0]],
                        masses=[0.5, 0.5],
                        membership=[[0.9, 0.1], [0.3, 0.7]], unit_cost=0.2)
    back = fp.population_from_dict(fp.population_to_dict(pop))
    assert fp.population_to_dict(back) == fp.population_to_dict(pop)


def test_model_from_dict_unknown_kind():
    with pytest.raises(fp.MissingFieldError):
        fp.model_from_dict({"kind": "mystery"})
