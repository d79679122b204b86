import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairprice as fp
from oracles import scalar_linear_price, scan_locate, scan_tabular_prices


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
    empty = pol.price_batch(np.zeros((0, 1)), [], ("a",))
    assert empty.dtype == np.float64 and empty.shape == (0,)
    with pytest.raises(fp.DimensionMismatchError):
        pol.price([0.5], "a")   # off-support
    with pytest.raises(fp.DimensionMismatchError):
        pol.price([0.0, 1.0], "a")  # wrong arity
    bare = fp.TabularPolicy(support=[[0.0]], table={(0, "a"): 1.0})
    with pytest.raises(fp.UnknownGroupError):
        bare.price([0.0], "b")


def test_linear_policy_clipping():
    pol = fp.LinearPolicy(theta=[0.5, -1.0], intercept=1.0,
                          clip_lo=0.2, clip_hi=2.0)
    assert pol.price([1.0, 0.0]) == 1.5
    assert pol.price([10.0, 0.0]) == 2.0
    assert pol.price([0.0, 10.0]) == 0.2
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
    with pytest.raises(TypeError, match="not a policy: dict"):
        fp.policy_to_dict({"kind": "constant", "value": 1.0})


_TABULAR = {"kind": "tabular", "support": [[0.0, 1.0], [2.0, 3.0]],
            "prices": [{"x_index": 0, "group": None, "price": 1.0},
                       {"x_index": 1, "group": "a", "price": 2.0}]}


@pytest.mark.parametrize("path, value, error, where", [
    (("prices", 1, "x_index"), 2, fp.InvalidRecordError, "prices[1].x_index"),
    (("prices", 1, "x_index"), -1, fp.InvalidRecordError, "prices[1].x_index"),
    (("prices", 1, "x_index"), 1.0, fp.InvalidRecordError, "prices[1].x_index"),
    (("prices", 1, "x_index"), True, fp.InvalidRecordError, "prices[1].x_index"),
    (("prices", 0, "price"), float("nan"), fp.InvalidRecordError,
     "prices[0].price"),
    (("prices", 0, "price"), float("inf"), fp.InvalidRecordError,
     "prices[0].price"),
    (("prices", 0, "price"), 10 ** 400, fp.InvalidRecordError,
     "prices[0].price"),
    (("prices", 0, "price"), "1.0", fp.InvalidRecordError, "prices[0].price"),
    (("prices", 0, "group"), 3, fp.InvalidRecordError, "prices[0].group"),
    (("prices", 0, "group"), ["a"], fp.InvalidRecordError, "prices[0].group"),
    (("prices", 0), {"x_index": 1, "group": "a", "price": 5.0},
     fp.InvalidRecordError, "prices[1] repeats"),
    (("prices", 0), [0, None, 1.0], fp.InvalidRecordError, "prices[0]"),
    (("support", 1), [2.0], fp.InvalidRecordError, "support"),
    (("support",), [], fp.InvalidRecordError, "support"),
    (("support", 0, 1), float("nan"), fp.InvalidRecordError, "support[0][1]"),
    (("support", 0, 1), None, fp.InvalidRecordError, "support[0][1]"),
    (("support",), {"0": [0.0]}, fp.InvalidRecordError, "policy.support"),
    (("prices", 1, "price"), None, fp.InvalidRecordError, "prices[1].price"),
    (("prices", 1, "x_index"), "drop", fp.MissingFieldError,
     "prices[1].x_index"),
    (("prices", 1, "group"), "drop", fp.MissingFieldError, "prices[1].group"),
    (("prices",), "drop", fp.MissingFieldError, "policy.prices"),
    (("support",), "drop", fp.MissingFieldError, "policy.support"),
], ids=lambda v: "huge_int" if isinstance(v, int) and v > 2 ** 64 else None)
def test_tabular_policy_file_is_checked_field_by_field(path, value, error,
                                                       where):
    blob = json.loads(json.dumps(_TABULAR))
    parent = blob
    for key in path[:-1]:
        parent = parent[key]
    if value == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    with pytest.raises(error, match=re.escape(where)):
        fp.policy_from_dict(blob)


@pytest.mark.parametrize("blob, error, where", [
    ({"kind": "constant"}, fp.MissingFieldError, "policy.value"),
    ({"kind": "constant", "value": "1.2"}, fp.InvalidRecordError,
     "policy.value"),
    ({"kind": "group", "default": 1.0}, fp.MissingFieldError, "policy.prices"),
    ({"kind": "group", "prices": {"a": None}}, fp.InvalidRecordError,
     "policy.prices.a"),
    ({"kind": "linear", "theta": [1.0], "clip_lo": 0.0, "clip_hi": 1.0},
     fp.MissingFieldError, "policy.intercept"),
    ({"kind": "linear", "intercept": 1.0, "clip_lo": 0.0, "clip_hi": 1.0},
     fp.MissingFieldError, "policy.theta"),
    ({"kind": "linear", "intercept": 1.0, "theta": [1.0, None],
      "clip_lo": 0.0, "clip_hi": 1.0}, fp.InvalidRecordError,
     "policy.theta[1]"),
    ({"kind": "linear", "intercept": 1.0, "theta": [], "clip_lo": 2.0,
      "clip_hi": 1.0}, fp.InvalidRecordError, "policy.clip_lo"),
    ([1.0], fp.InvalidRecordError, "policy"),
])
def test_policy_files_name_the_bad_field(blob, error, where):
    with pytest.raises(error, match=re.escape(where)):
        fp.policy_from_dict(blob)


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


def _assert_same_outcome(got, want):
    """The same error (type and message), or the same float64 bits."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def _price_loop(policy, X, g, groups):
    """Each row priced alone: by the scalar formula for a linear policy
    (``LinearPolicy.price`` is a one-row ``price_batch``), by ``price``
    otherwise."""
    price = policy.price
    if isinstance(policy, fp.LinearPolicy):
        price = lambda x, a: scalar_linear_price(policy, x)  # noqa: E731
    return np.array([price(x, groups[j]) for x, j in zip(X, g)], dtype=float)


@st.composite
def _priced_rows(draw):
    """A policy of one of the five kinds, plus rows, their group codes and
    the label tuple the codes index.

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
    groups = tuple(draw(st.permutations(_LABELS)))
    g = np.array(draw(st.lists(st.integers(0, len(groups) - 1),
                               min_size=len(rows), max_size=len(rows))))
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
        # a solver's price array: a column per group, or one blind column
        mode = draw(st.sampled_from(["attribute_based", "attribute_blind"]))
        columns = 2 if mode == "attribute_based" else 1
        prices = draw(st.lists(_coef, min_size=columns * len(support),
                               max_size=columns * len(support)))
        policy = fp.ParitySolution(
            mode=mode, gamma=0.0, lambda_star=0.0,
            parity_weights={}, oriented_groups=("a", "b"),
            price_array=np.reshape(prices, (len(support), columns)),
            support=support, groups=("a", "b"),
            unconstrained_disparity=0.0, achieved_disparity=0.0).policy()
    else:
        # clip ranges from empty to wider than any score
        lo = draw(st.floats(-1e4, 50.0))
        policy = fp.LinearPolicy(
            theta=np.array(draw(st.lists(_coef, min_size=k, max_size=k)
                                | _noisy(k))),
            intercept=draw(_coef), clip_lo=lo,
            clip_hi=lo + draw(st.floats(0.0, 2e4)))
    return policy, X, g, groups


@settings(max_examples=400)
@given(_priced_rows())
def test_price_batch_matches_price_loop_bitwise(case):
    # an error is the first failing row's: same type, naming the same row
    policy, X, g, groups = case
    want = _outcome(lambda: _price_loop(policy, X, g, groups))
    _assert_same_outcome(_outcome(lambda: policy.price_batch(X, g, groups)),
                         want)


@settings(max_examples=300)
@given(_priced_rows(), st.permutations(range(len(_LABELS) + 1)))
def test_prices_read_labels_only_through_codes(case, order):
    # the labels permuted, with one that no row uses and no policy prices:
    # remapped codes give the same prices or the same first error
    policy, X, g, groups = case
    want = _outcome(lambda: _price_loop(policy, X, g, groups))
    extended = groups + ("unpriced",)
    relabeled = tuple(extended[j] for j in order)
    remap = np.array([relabeled.index(a) for a in groups])
    _assert_same_outcome(
        _outcome(lambda: policy.price_batch(X, remap[g], relabeled)), want)


def test_linear_price_batch_matches_per_row_dot_on_inexact_products():
    # X @ theta sums the products in another order than the per-row dot
    # of ``price`` once k >= 2, which changes last bits on inexact products
    rng = np.random.default_rng(5)
    for k in (2, 3, 7, 20):
        X = rng.normal(size=(300, k)) * 3.7
        pol = fp.LinearPolicy(theta=rng.normal(size=k), intercept=0.3,
                              clip_lo=-50.0, clip_hi=50.0)
        want = np.array([scalar_linear_price(pol, x) for x in X])
        got = pol.price_batch(X, [0] * len(X), ("a",))
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


# ---------------------------------------------------------------------------
# TabularPolicy row matching
# ---------------------------------------------------------------------------


def test_tabular_price_batch_resolves_near_duplicates_to_first_hit():
    # points 0 and 2 lie within the 1e-9 tolerance of each other, so every
    # row near either resolves to point 0, as ``price`` does
    support = [[1.0, 2.0], [3.0, 4.0], [1.0 + 5e-10, 2.0 - 5e-10]]
    pol = fp.TabularPolicy(support=support, table={
        (0, None): 10.0, (1, None): 11.0, (2, None): 12.0})
    X = np.array([[1.0 + 5e-10, 2.0 - 5e-10], [3.0, 4.0 + 5e-10],
                  [1.0 + 1.4e-9, 2.0], [1.0, 2.0]])
    want = [pol.price(x) for x in X]
    assert want == [10.0, 11.0, 12.0, 10.0]
    assert pol.price_batch(X, [0] * 4, (None,)).tolist() == want


def test_tabular_price_batch_errors_match_price():
    pol = fp.TabularPolicy(support=[[0.0, 1.0], [2.0, 3.0]],
                           table={(0, "a"): 1.0, (1, None): 2.0})
    off = np.array([[0.0, 1.0], [2.0, 3.0 + 2e-9], [0.0, 1.0]])
    with pytest.raises(fp.DimensionMismatchError) as want:
        pol.price(off[1], "a")
    with pytest.raises(fp.DimensionMismatchError) as got:
        pol.price_batch(off, [0, 0, 0], ("a",))
    assert str(got.value) == str(want.value)
    # a missing entry on an earlier row is the first error
    with pytest.raises(fp.UnknownGroupError,
                       match="no price for support point 0 and group 'b'"):
        pol.price_batch(off, [0, 1, 1], ("b", "a"))
    for width in (1, 3):
        with pytest.raises(fp.DimensionMismatchError) as want:
            pol.price(np.zeros(width), "a")
        with pytest.raises(fp.DimensionMismatchError) as got:
            pol.price_batch(np.zeros((2, width)), [0, 0], ("a",))
        assert str(got.value) == str(want.value)
        assert "policy support has 2 covariates" in str(got.value)


def test_tabular_match_of_many_rows_against_a_large_support():
    # many blocks of rows, one coordinate shared by every support point
    rng = np.random.default_rng(8)
    support = np.column_stack([np.zeros(3000), rng.permutation(3000) * 0.5])
    pol = fp.TabularPolicy(support=support,
                           table={(i, None): float(i) for i in range(3000)})
    X = support[rng.integers(3000, size=5000)]
    want = [scan_locate(pol.support, x) for x in X]
    assert pol.price_batch(X, [0] * len(X), (None,)).tolist() == want


@pytest.mark.parametrize("shape", ["grid", "repeated"])
def test_tabular_match_over_many_blocks_of_candidates(shape):
    # every row's window holds many candidates: a 50 x 40 grid gives 40 per
    # row over many blocks; 4 points repeated 2500 times give one row more
    # candidates than a block, and the first copy is the hit
    rng = np.random.default_rng(9)
    if shape == "grid":
        support = np.stack(np.meshgrid(np.arange(50.0), np.linspace(-1, 2, 40),
                                       indexing="ij"), -1).reshape(-1, 2)
    else:
        support = rng.integers(2, size=(10000, 2)).astype(float)
    pol = fp.TabularPolicy(support=support,
                           table={(i, None): float(i) for i in range(len(support))})
    X = support[rng.integers(len(support), size=1000)]
    X[::3] += 5e-10
    want = [scan_locate(pol.support, x) for x in X]
    assert pol.price_batch(X, [0] * len(X), (None,)).tolist() == want


# near-duplicate offsets around the 1e-9 tolerance, and values at 1e10, where
# 1e-9 is below one ulp
_OFFSETS = (0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1e-9 * (1 + 1e-7), 3e-9)
_CENTERS = (0.0, -0.0, 1.0, -2.5, 1e10, -1e10, 3.0, float("nan"))


@st.composite
def _tabular_rows(draw):
    """A TabularPolicy on a support built from few values per column, with
    near-duplicate, signed-zero, 1e10 and (in half the draws) NaN
    coordinates; rows on, near and (in half the draws) off the support, some
    of the wrong width; and their labels. Two tables in three have a blind
    price at every support point."""
    k = draw(st.integers(0, 3))
    centers = _CENTERS if draw(st.booleans()) else _CENTERS[:-1]
    coordinate = st.builds(lambda c, o: c + o, st.sampled_from(centers),
                           st.sampled_from(_OFFSETS))
    point = st.lists(coordinate, min_size=k, max_size=k)
    support = draw(st.lists(point, min_size=1, max_size=8))
    near = st.sampled_from(support).flatmap(lambda p: st.builds(
        lambda o: [v + d for v, d in zip(p, o)],
        st.lists(st.sampled_from(_OFFSETS[:5]), min_size=k, max_size=k)))
    row = st.sampled_from(support) | near
    rows = draw(st.lists(row | point if draw(st.booleans()) else row,
                         min_size=1, max_size=20))
    width = max(0, k + draw(st.sampled_from([0] * 8 + [1, -1])))
    X = np.array([(r + [0.5])[:width] for r in rows]).reshape(len(rows), width)
    groups = draw(st.lists(st.sampled_from(_LABELS), min_size=len(rows),
                           max_size=len(rows)))
    # keys off the support (-1, len(support)) are never read
    cells = [(i, g) for i in range(-1, len(support) + 1) for g in _LABELS]
    price = _coef | st.just(float("nan"))
    table = {cell: draw(price) for cell in draw(
        st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))}
    if draw(st.sampled_from([True, True, False])):
        for i in range(len(support)):
            table.setdefault((i, None), draw(price))
    return fp.TabularPolicy(support=np.reshape(support, (len(support), k)),
                            table=table), X, groups


@settings(max_examples=300)
@given(_tabular_rows())
def test_tabular_prices_match_the_full_scan_bitwise(case):
    policy, X, groups = case
    want = _outcome(lambda: scan_tabular_prices(policy, X, groups))
    got = _outcome(lambda: policy.price_batch(
        X, [_LABELS.index(a) for a in groups], _LABELS))
    _assert_same_outcome(got, want)
    if isinstance(want, tuple):
        return
    one = _outcome(lambda: policy.price(X[-1], groups[-1]))
    assert np.float64(one).view(np.uint64) == want[-1:].view(np.uint64)[0]
