import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairprice as fp


def test_constant_policy():
    assert fp.ConstantPolicy(1.3).price([0.0, 1.0], "a") == 1.3


def test_group_policy_default_and_error():
    pol = fp.GroupPolicy(prices={"a": 1.0, "b": 2.0})
    assert pol.price([], "a") == 1.0
    with pytest.raises(fp.UnknownGroupError):
        pol.price([], "c")
    with_default = fp.GroupPolicy(prices={"a": 1.0}, default=1.5)
    assert with_default.price([], "c") == 1.5
    assert with_default.price([], None) == 1.5


def test_tabular_policy_lookup_and_blind_fallback():
    pol = fp.TabularPolicy(support=[[0.0], [1.0]],
                           table={(0, "a"): 1.0, (0, None): 0.9,
                                  (1, None): 2.0})
    assert pol.price([0.0], "a") == 1.0
    assert pol.price([0.0], "b") == 0.9   # falls back to the blind entry
    assert pol.price([1.0], "a") == 2.0
    assert pol.price([1.0 + 1e-12], "a") == 2.0  # tolerant row match
    with pytest.raises(fp.DimensionMismatchError):
        pol.price([0.5], "a")   # off-support
    with pytest.raises(fp.DimensionMismatchError):
        pol.price([0.0, 1.0], "a")  # wrong arity
    bare = fp.TabularPolicy(support=[[0.0]], table={(0, "a"): 1.0})
    with pytest.raises(fp.UnknownGroupError):
        bare.price([0.0], "b")


def test_linear_policy_clipping_and_flatten():
    pol = fp.LinearPolicy(theta=[0.5, -1.0], intercept=1.0,
                          clip_lo=0.2, clip_hi=2.0)
    assert pol.price([1.0, 0.0]) == 1.5
    assert pol.price([10.0, 0.0]) == 2.0
    assert pol.price([0.0, 10.0]) == 0.2
    flat = pol.flatten()
    back = fp.policy_from_flat(flat, 0.2, 2.0)
    assert back.price([1.0, 0.0]) == pol.price([1.0, 0.0])
    with pytest.raises(fp.DimensionMismatchError):
        pol.price([1.0])


def test_policy_dict_round_trips():
    policies = [
        fp.ConstantPolicy(1.1),
        fp.GroupPolicy(prices={"a": 1.0, "b": 2.0}, default=1.4),
        fp.TabularPolicy(support=[[0.0], [1.0]],
                         table={(0, "a"): 1.0, (1, None): 2.0}),
        fp.LinearPolicy(theta=np.array([0.3]), intercept=0.9,
                        clip_lo=0.0, clip_hi=3.0),
    ]
    for pol in policies:
        blob = fp.policy_to_dict(pol)
        back = fp.policy_from_dict(blob)
        assert fp.policy_to_dict(back) == blob
    with pytest.raises(fp.MissingFieldError):
        fp.policy_from_dict({"kind": "cubist"})


# ---------------------------------------------------------------------------
# price_batch against the price loop
# ---------------------------------------------------------------------------

_LABELS = ("a", "b", "c", None)
_coef = st.floats(-50.0, 50.0, allow_nan=False, width=64)


def _noisy(k):
    """``k`` values with full mantissas, so products round (hypothesis
    floats lean towards short, exactly representable values)."""
    return st.integers(0, 2**32 - 1).map(
        lambda seed: (np.random.default_rng(seed).normal(size=k) * 7.3).tolist())


def _outcome(fn):
    """The result of ``fn``, or the type and message of the error it raised."""
    try:
        return fn()
    except fp.FairPriceError as exc:
        return type(exc), str(exc)


@st.composite
def _priced_rows(draw):
    """A policy of one of the five kinds, plus rows and labels to price.

    Rows mostly sit on a small support (some nudged within the match
    tolerance); others are off it, and some draws give every row the wrong
    number of covariates. Labels include ones no table or map holds.
    """
    k = draw(st.integers(1, 3))
    support = np.array(draw(st.lists(
        st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.5]),
                 min_size=k, max_size=k),
        min_size=1, max_size=4, unique_by=tuple)))
    width = k + draw(st.sampled_from([0, 0, 0, 1]))
    row = st.one_of(
        st.sampled_from(range(len(support))).map(lambda i: support[i].tolist()),
        st.sampled_from(range(len(support))).map(
            lambda i: (support[i] + 1e-12).tolist()),
        st.lists(_coef, min_size=k, max_size=k),
        _noisy(k))
    rows = draw(st.lists(row, min_size=1, max_size=25))
    X = np.array([r + [0.25] * (width - k) for r in rows])
    groups = draw(st.lists(st.sampled_from(_LABELS), min_size=len(rows),
                           max_size=len(rows)))
    cells = [(i, g) for i in range(len(support)) for g in _LABELS]
    table = {cell: draw(_coef) for cell in draw(
        st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))}
    kind = draw(st.sampled_from(
        ["constant", "group", "tabular", "parity", "linear"]))
    if kind == "constant":
        policy = fp.ConstantPolicy(draw(_coef))
    elif kind == "group":
        prices = {g: draw(_coef) for g in draw(
            st.lists(st.sampled_from(_LABELS[:3]), unique=True))}
        policy = fp.GroupPolicy(prices=prices,
                                default=draw(st.none() | _coef))
    elif kind == "tabular":
        policy = fp.TabularPolicy(support=support, table=table)
    elif kind == "parity":
        policy = fp.ParitySolution(
            mode="attribute_based", gamma=0.0, lambda_star=0.0,
            parity_weights={}, oriented_groups=("a", "b"), prices=table,
            support=support, groups=("a", "b"),
            unconstrained_disparity=0.0, achieved_disparity=0.0)
    else:
        # clip ranges from empty to wider than any score
        lo = draw(st.floats(-1e4, 50.0))
        policy = fp.LinearPolicy(
            theta=np.array(draw(st.lists(_coef, min_size=k, max_size=k)
                                | _noisy(k))),
            intercept=draw(_coef), clip_lo=lo,
            clip_hi=lo + draw(st.floats(0.0, 2e4)))
    return policy, X, groups


@settings(max_examples=400, deadline=None)
@given(_priced_rows())
def test_price_batch_matches_price_loop_bitwise(case):
    policy, X, groups = case
    want = _outcome(lambda: np.array(
        [policy.price(x, g) for x, g in zip(X, groups)], dtype=float))
    got = _outcome(lambda: policy.price_batch(X, groups))
    if isinstance(want, tuple):
        assert got == want      # same error type, naming the same row
        return
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_linear_price_batch_matches_per_row_dot_on_inexact_products():
    # X @ theta sums the products in another order than the per-row dot
    # of ``price`` once k >= 2, which changes last bits on inexact products
    rng = np.random.default_rng(5)
    for k in (2, 3, 7, 20):
        X = rng.normal(size=(300, k)) * 3.7
        pol = fp.LinearPolicy(theta=rng.normal(size=k), intercept=0.3,
                              clip_lo=-50.0, clip_hi=50.0)
        want = np.array([pol.price(x) for x in X])
        got = pol.price_batch(X, ["a"] * len(X))
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
