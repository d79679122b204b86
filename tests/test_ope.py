"""Kernel OPE on one per-log context, checked against the loops it replaced.

The kernel is evaluated once per (price class, logged level) pair.
``ope_bootstrap_se`` prices the log and weighs its records once and gathers
each block of resamples, weighing again only a resample with a narrower
price range; ``optimize_linear_policy`` prices each distinct covariate row
once per candidate, evaluates a sweep's new candidates as one block and
looks up a candidate it has met before. Both must give the bits of the
take-based bootstrap (and its counts of skipped resamples) and of the
per-candidate ``ope_estimate`` search in ``tests/oracles.py``, whatever the
block size. A log that no resample or candidate can use
fails when the context is built, with the error class and CLI
``error_code`` pinned here.
"""

import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairprice as fp
from fairprice.cli import main

from oracles import candidate_policy_search, take_bootstrap_se
from tables import record_table, tabular_policy

LEVELS = (0.8, 1.2, 1.6, 2.0)


def _bits(value):
    return struct.pack("<d", value)


def _outcome(fn):
    """What ``fn`` returns, or the type and message of the error it raised."""
    try:
        return fn()
    except fp.FairPriceError as exc:
        return type(exc), str(exc)


def _rows(X, groups, price, demand, weight=None):
    return [dict(id=f"r{i}", group=g, covariates=x, price=p, demand=d,
                 weight=None if weight is None else weight[i])
            for i, (x, g, p, d) in enumerate(zip(X, groups, price, demand))]


@st.composite
def _cases(draw):
    """``(log, bandwidth, policy)``: a log of 4-30 records over one or two
    covariates, drawn with signed zeros or with full mantissas (every record
    its own stratum), in two groups, logged at two to four price levels
    (often all but one record at one level, so that many resamples tie, or
    one record at the lowest or highest of three or four levels, so that
    many resamples have a narrower price range without tying), with unit or
    non-unit weights; a bandwidth narrow enough to leave kernel windows empty
    or not; and a constant (signed zeros included), group, tabular or linear
    policy that prices every record, some of which give many rows one price
    or give -0.0 to some records and 0.0 to others."""
    n, k = draw(st.integers(4, 30)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        X = draw(st.lists(st.lists(st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0]),
                                   min_size=k, max_size=k),
                          min_size=n, max_size=n))
    else:
        X = rng.uniform(-1.0, 2.0, (n, k)).tolist()
    groups = draw(st.lists(st.sampled_from("ab"), min_size=n, max_size=n))
    levels = draw(st.lists(st.sampled_from(LEVELS), min_size=2, max_size=4,
                           unique=True))
    layout = draw(st.sampled_from(["one_off", "mixed", "rare_extreme"]))
    if layout == "one_off":
        price = [levels[0]] * n
        price[draw(st.integers(0, n - 1))] = levels[1]
    elif layout == "mixed" or len(levels) < 3:
        price = draw(st.lists(st.sampled_from(levels), min_size=n, max_size=n))
        price[0], price[1] = levels[0], levels[1]
    else:
        inner = sorted(levels)
        rare = inner.pop(draw(st.sampled_from([0, -1])))
        price = draw(st.lists(st.sampled_from(inner), min_size=n, max_size=n))
        price[0], price[1] = inner[0], inner[-1]
        price[draw(st.integers(2, n - 1))] = rare
    demand = draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n))
    weight = rng.uniform(0.25, 4.0, n).tolist() if draw(st.booleans()) else None
    log = record_table(_rows(X, groups, price, demand, weight))
    bandwidth = draw(st.sampled_from([0.02, 0.1, 0.3, 0.7]))

    support = np.unique(log.X, axis=0)
    kind = draw(st.sampled_from(["constant", "zero", "group", "signed_zeros",
                                 "tabular", "one_price", "linear"]))
    if kind == "constant":
        policy = fp.ConstantPolicy(float(draw(st.sampled_from(
            LEVELS + (1.0, 1.45)))))
    elif kind == "zero":
        policy = fp.ConstantPolicy(draw(st.sampled_from([0.0, -0.0])))
    elif kind == "group":
        policy = fp.GroupPolicy(prices={"a": float(rng.uniform(0.8, 2.0)),
                                        "b": draw(st.sampled_from(LEVELS))})
    elif kind == "signed_zeros":
        policy = fp.GroupPolicy(prices={"a": 0.0, "b": -0.0})
    elif kind == "tabular":
        table = {(i, None): float(rng.uniform(0.8, 2.0))
                 for i in range(len(support))}
        table.update({(i, "b"): draw(st.sampled_from(LEVELS))
                      for i in range(0, len(support), 2)})
        policy = tabular_policy(support, table)
    elif kind == "one_price":
        one = draw(st.sampled_from(LEVELS + (1.45,)))
        table = {(i, None): one for i in range(len(support))}
        table.update({(i, "b"): draw(st.sampled_from([one, 1.0]))
                      for i in range(0, len(support), 2)})
        policy = tabular_policy(support, table)
    else:
        policy = fp.LinearPolicy(theta=rng.normal(0.0, 0.5, k),
                                 intercept=float(rng.uniform(0.8, 2.0)),
                                 clip_lo=0.8, clip_hi=2.0)
    return log, bandwidth, policy


def _boot_bits(bootstrap, *args):
    """An error's (type, message), or the bits and the skip counts."""
    got = _outcome(lambda: bootstrap(*args))
    return got if isinstance(got[0], type) else (_bits(got[0]), got[1])


def _search_bits(search, log, bandwidth, clip, n_starts, seed):
    """An error's (type, message), or the bits of the result."""
    got = _outcome(lambda: search(log, bandwidth, *clip, n_starts=n_starts,
                                  seed=seed))
    if isinstance(got, tuple):
        return got
    p = got.policy
    return (_bits(got.value),
            [(row["start"], _bits(row["value"])) for row in got.trace],
            [_bits(v) for v in p.theta], _bits(p.intercept),
            p.clip_lo, p.clip_hi)


CLIPS = [(None, None), (0.5, 2.5), (1.0, 1.5)]


@given(case=_cases(), n_boot=st.integers(2, 12), seed=st.integers(0, 2**16))
@settings(max_examples=200)
def test_bootstrap_matches_the_take_based_oracle(case, n_boot, seed):
    log, bandwidth, policy = case
    args = log, policy, bandwidth, n_boot, seed
    assert _boot_bits(fp.ope_bootstrap_se, *args) \
        == _boot_bits(take_bootstrap_se, *args)


@given(case=_cases(), n_starts=st.integers(1, 5), seed=st.integers(0, 2**16),
       clip=st.sampled_from(CLIPS))
@settings(max_examples=40)
def test_policy_search_matches_the_per_candidate_oracle(case, n_starts, seed,
                                                        clip):
    log, bandwidth, _ = case
    args = log, bandwidth, clip, n_starts, seed
    assert _search_bits(fp.optimize_linear_policy, *args) \
        == _search_bits(candidate_policy_search, *args)


# a _cases log fits in one block; these cell counts make a block of one row,
# or of three rows, which no bootstrap below fills at its end
_ROWS = {1: lambda n: n - 1, 3: lambda n: 3 * n + 1}


@given(case=_cases(), n_boot=st.sampled_from([2, 4, 5, 8, 11]),
       n_starts=st.integers(1, 3), seed=st.integers(0, 2**16),
       clip=st.sampled_from(CLIPS), rows=st.sampled_from(sorted(_ROWS)))
@settings(max_examples=60)
def test_blocks_of_one_row_or_several_keep_the_oracles_bits(
        case, n_boot, n_starts, seed, clip, rows):
    log, bandwidth, policy = case
    boot = log, policy, bandwidth, n_boot, seed
    search = log, bandwidth, clip, n_starts, seed
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fp.sim, "_BLOCK_CELLS", _ROWS[rows](len(log)))
        got = (_boot_bits(fp.ope_bootstrap_se, *boot),
               _search_bits(fp.optimize_linear_policy, *search))
    assert got == (_boot_bits(take_bootstrap_se, *boot),
                   _search_bits(candidate_policy_search, *search))


@pytest.mark.parametrize("rows", sorted(_ROWS))
@pytest.mark.parametrize("prices, price, kinds, error, message", [
    ((1, 1, 1, 1, 1, 2), 1.0, ["tied_over", "overflow"],
     fp.MissingFieldError, "too narrow"),
    ((1, 1, 2, 2, 3, 3), 3.0, ["empty_window", "overflow"],
     fp.MissingFieldError, "too narrow"),
    # the tie is skipped though its weights overflow
    ((3, 3, 1, 2), 3.0, ["tied_over", "empty_window"],
     fp.EmptyWeightError, "no usable resamples"),
])
def test_a_blocks_resamples_are_skipped_or_raise_in_their_order(
        monkeypatch, rows, prices, price, kinds, error, message):
    # a kernel of width 1e-308 overflows on the records logged at ``price``,
    # and only there; the first seed whose two resamples are of ``kinds``
    log, n = _tie_log(prices), len(prices)

    def kind(resample):
        if price not in resample:
            return "tied" if np.ptp(resample) == 0.0 else "empty_window"
        return "tied_over" if np.ptp(resample) == 0.0 else "overflow"

    for seed in range(1000):
        rng = np.random.default_rng(seed)
        if [kind(log.price[rng.integers(0, n, size=n)])
                for _ in kinds] == kinds:
            break
    else:
        raise AssertionError("no seed found")
    monkeypatch.setattr(fp.sim, "_BLOCK_CELLS", _ROWS[rows](n))
    args = log, fp.ConstantPolicy(price), 1e-308, len(kinds), seed
    got = _boot_bits(fp.ope_bootstrap_se, *args)
    assert got == _boot_bits(take_bootstrap_se, *args)
    assert got[0] is error and message in got[1]


def _market_log(n=600, seed=4):
    """``n`` logged records over two discrete covariates: 6 strata."""
    rng = np.random.default_rng(seed)
    X = np.column_stack([rng.choice([0.0, 1.0], n), rng.choice([0.0, 1.0, 2.0], n)])
    price = rng.choice(LEVELS, n)
    demand = (rng.random(n) < 1.6 - 0.5 * price + 0.1 * X[:, 0]).astype(float)
    return record_table(_rows(X, rng.choice(["a", "b"], n), price, demand))


def test_the_search_prices_strata_and_the_bootstrap_prices_the_log_once(
        monkeypatch):
    # a later edit that goes back to pricing every record, to evaluating
    # the kernel on every record, per candidate or per resample, to one
    # candidate a pass, or to evaluating a candidate the search has met
    # before shows here, though its outputs would not change
    log = _market_log()
    sizes, price_batch = [], fp.LinearPolicy.price_batch
    kernels, weighted = [], fp.sim._KernelLog.weighted
    seen, estimate = [], fp.ope_estimate

    def counted(self, X, g, groups):
        sizes.append(len(X))
        return price_batch(self, X, g, groups)

    def counted_kernel(self, prices, pairs, width):
        # the rows of a search's block; a bootstrap's one row
        kernels.append((len(prices) if np.ndim(prices) == 2 else 1,
                        len(pairs[0]), width))
        return weighted(self, prices, pairs, width)

    def counted_estimate(records, policy, bandwidth):
        seen.append(np.concatenate([[policy.intercept], policy.theta]))
        return estimate(records, policy, bandwidth)

    monkeypatch.setattr(fp.LinearPolicy, "price_batch", counted)
    monkeypatch.setattr(fp.sim._KernelLog, "weighted", counted_kernel)
    fp.optimize_linear_policy(log, n_starts=2, seed=1)
    assert len(log.strata[0]) == 6
    assert len(sizes) > 20 and max(sizes) <= len(log.strata[0])
    # each candidate priced is one row of a kernel evaluation on at most
    # strata x levels values, and a block holds several of them
    assert sum(rows for rows, _, _ in kernels) == len(sizes)
    assert max(size for _, size, _ in kernels) <= 6 * len(LEVELS)
    assert len(kernels) < len(sizes)
    # one candidate priced per distinct candidate of the per-candidate
    # search, which meets some candidates again
    priced = len(sizes)
    monkeypatch.setattr(fp, "ope_estimate", counted_estimate)
    candidate_policy_search(log, n_starts=2, seed=1)
    assert len({vec.tobytes() for vec in seen}) == priced < len(seen)
    sizes.clear()
    kernels.clear()
    policy = fp.LinearPolicy(theta=[0.4, 0.1], intercept=1.2, clip_lo=0.8,
                             clip_hi=2.0)
    fp.ope_bootstrap_se(log, policy, n_boot=40)
    assert sizes == [len(log)]
    # every resample holds the lowest and the highest level
    assert [width for _, _, width in kernels] == [np.ptp(log.price)]
    # once at the log's price range, then once per narrower resample
    log = _tie_log((1, 2, 2, 2, 2, 3))
    kernels.clear()
    rng, want = np.random.default_rng(5), [2.0]
    for _ in range(30):
        width = np.ptp(log.price[rng.integers(0, len(log), size=len(log))])
        want += [width] if 0.0 < width < 2.0 else []
    assert len(want) > 5
    fp.ope_bootstrap_se(log, fp.ConstantPolicy(2.0), 0.6, n_boot=30, seed=5)
    assert [width for _, _, width in kernels] == want

@pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (float("nan"), 1.0),
                                    (1.0, float("nan"))])
def test_an_inverted_or_nan_clip_range_is_an_input_error(lo, hi):
    # the search draws its random starts inside the clip range, so the
    # range's check comes before numpy meets it
    for call in (lambda: fp.LinearPolicy(theta=[0.4, 0.1], intercept=1.2,
                                         clip_lo=lo, clip_hi=hi),
                 lambda: fp.optimize_linear_policy(_market_log(),
                                                   clip_lo=lo, clip_hi=hi)):
        with pytest.raises(fp.InvalidRecordError,
                           match="clip_lo must not exceed clip_hi"):
            call()


# -- errors: raised when the context is built, with their CLI error_code -----


def _tie_log(prices=(1, 1, 1, 1, 1, 2)):
    return record_table(_rows([[0.0]] * len(prices), "a" * len(prices), prices,
                              [1, 0, 1, 1, 0, 1][:len(prices)]))


def _all_tie_seed(log, n_boot):
    """The first seed whose ``n_boot`` resamples of ``log`` each log one
    price, on the bootstrap's own ``rng.integers`` stream."""
    n = len(log)
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        if all(np.ptp(log.price[rng.integers(0, n, size=n)]) == 0.0
               for _ in range(n_boot)):
            return seed
    raise AssertionError("no seed found")


# prices the covariate 0.0 at the logged price 1.0, where a kernel of width
# 1e-308 overflows
_LINEAR = fp.LinearPolicy(theta=[0.3], intercept=1.0, clip_lo=0.8, clip_hi=2.0)
_ALL = {
    "value": lambda log, policy, bandwidth: fp.ope_estimate(
        log, policy, bandwidth)["value"],
    "estimate": lambda log, policy, bandwidth: fp.ope_estimate(
        log, policy, bandwidth),
    "bootstrap": lambda log, policy, bandwidth: fp.ope_bootstrap_se(
        log, policy, bandwidth, n_boot=20),
    "search": lambda log, policy, bandwidth: fp.optimize_linear_policy(
        log, bandwidth, n_starts=2),
}


@pytest.mark.parametrize("entry", sorted(_ALL))
@pytest.mark.parametrize("case, error, message", [
    ("no_variation", fp.MissingFieldError, "carry no variation"),
    ("overflow", fp.MissingFieldError, "bandwidth 1e-308 is too narrow"),
])
def test_a_log_no_estimate_can_use_fails_in_every_entry_point(entry, case,
                                                              error, message):
    log, bandwidth = _tie_log(), 0.5
    if case == "no_variation":
        log = _tie_log((1.2,) * 6)
    else:
        bandwidth = 1e-308
    with pytest.raises(error, match=message) as info:
        _ALL[entry](log, _LINEAR, bandwidth)
    assert info.value.code == "missing_field"


def _unpriced_log():
    """The last record is in group b at covariate 1.0: the group policies
    below have no price for it, and it is off the tabular support."""
    return record_table(_rows([[0.0]] * 5 + [[1.0]], "aaaaab",
                              [1, 1, 2, 2, 1, 2], [1, 0, 1, 1, 0, 1]))


@pytest.mark.parametrize("entry", ["value", "estimate", "bootstrap"])
@pytest.mark.parametrize("policy, error, code", [
    (fp.GroupPolicy(prices={"a": 1.2}), fp.UnknownGroupError, "unknown_group"),
    (tabular_policy([[0.0]], {(0, None): 1.2}), fp.DimensionMismatchError,
     "dimension_mismatch"),
])
def test_an_unpriceable_row_fails_before_any_resample(entry, policy, error,
                                                      code):
    with pytest.raises(error) as info:
        _ALL[entry](_unpriced_log(), policy, 0.5)
    assert info.value.code == code


def test_the_bootstrap_counts_the_resamples_it_skips():
    # only the records logged at 3 are in the kernel window of the price 3,
    # so a resample without them has an empty window unless its prices tie
    log = _tie_log((1, 1, 2, 2, 3, 3))
    rng, want = np.random.default_rng(0), {"empty_window": 0, "tied_prices": 0}
    for _ in range(50):
        price = log.price[rng.integers(0, len(log), size=len(log))]
        if np.ptp(price) == 0.0:
            want["tied_prices"] += 1
        elif 3.0 not in price:
            want["empty_window"] += 1
    assert want["empty_window"] > 0 and sum(want.values()) <= 48
    se, skipped = fp.ope_bootstrap_se(log, fp.ConstantPolicy(3.0), 0.3,
                                      n_boot=50, seed=0)
    assert se > 0.0 and skipped == want


def test_a_bootstrap_without_two_usable_resamples_fails():
    log = _tie_log()
    # every resample ties
    with pytest.raises(fp.EmptyWeightError, match="no usable resamples"):
        fp.ope_bootstrap_se(log, fp.ConstantPolicy(1.2), 0.5, n_boot=3,
                            seed=_all_tie_seed(log, 3))
    # every kernel window is empty
    with pytest.raises(fp.EmptyWeightError,
                       match="no usable resamples") as info:
        fp.ope_bootstrap_se(log, fp.ConstantPolicy(12.0), 0.5, n_boot=20)
    assert info.value.code == "empty_weights"


# -- record weights: a level's behavior mass is its weighted share of the log


def _bits_of(got):
    """The bits of every number an entry point returns."""
    if isinstance(got, float):
        return _bits(got)
    if isinstance(got, dict):
        return {key: _bits(v) for key, v in got.items()}
    if isinstance(got, tuple):
        return _bits(got[0]), got[1]
    return (_bits(got.value),
            [(row["start"], _bits(row["value"])) for row in got.trace],
            [_bits(v) for v in got.policy.theta], _bits(got.policy.intercept))


@pytest.mark.parametrize("entry", sorted(_ALL))
def test_every_entry_point_reads_record_weights_as_relative(entry):
    # scaling every weight by a power of two scales each level's summed
    # weight, the log's total and every importance weight exactly, so the
    # masses and the ratios over the summed weights keep their bits
    log = _market_log(n=300)
    weight = np.random.default_rng(1).uniform(0.25, 4.0, len(log))
    weighted = dataclasses.replace(log, weight=weight)
    scaled = dataclasses.replace(log, weight=8.0 * weight)
    policy = fp.LinearPolicy(theta=[0.4, 0.1], intercept=1.2, clip_lo=0.8,
                             clip_hi=2.0)
    got = _bits_of(_ALL[entry](weighted, policy, 0.3))
    assert _bits_of(_ALL[entry](scaled, policy, 0.3)) == got
    # the weights are read: the unweighted log gives other numbers
    assert _bits_of(_ALL[entry](log, policy, 0.3)) != got


def test_a_record_of_weight_two_counts_as_two_copies():
    prices, demand = [1, 1, 2, 2, 2], [1, 1, 1, 0, 0]
    weighted = record_table(_rows([[0.0]] * 5, "a" * 5, prices, demand,
                                  [2.0, 1.0, 1.0, 1.0, 1.0]))
    copied = record_table(_rows([[0.0]] * 6, "a" * 6, [1, *prices],
                                [1, *demand]))
    policy = fp.ConstantPolicy(1.4)
    value = fp.ope_estimate(weighted, policy, 0.9)["value"]
    assert value == pytest.approx(
        fp.ope_estimate(copied, policy, 0.9)["value"], rel=1e-12)
    # by hand: both levels hold half the weight, so each record's importance
    # weight is its weight times its Epanechnikov kernel at 1.4 over 1/2
    h = 0.9
    kernel = {p: 0.75 * (1.0 - ((1.4 - p) / h) ** 2) / h for p in (1, 2)}
    imp = [w * kernel[p] / 0.5
           for p, w in zip(prices, [2.0, 1.0, 1.0, 1.0, 1.0])]
    assert value == pytest.approx(
        sum(i * 1.4 * d for i, d in zip(imp, demand)) / sum(imp), rel=1e-12)


def _run_ope(tmp_path, capsys, log, policy, *flags):
    records = tmp_path / "records.csv"
    fp.write_records_csv(records, log)
    target = ["--search"]
    if policy is not None:
        path = tmp_path / "policy.json"
        path.write_text(json.dumps(fp.policy_to_dict(policy)))
        target = ["--policy", str(path)]
    out = tmp_path / "out"
    code = main(["ope", "--records", str(records), *target, *flags,
                 "--out-dir", str(out), "--quiet"])
    err = capsys.readouterr().err
    assert not (out / "ope.json").exists()
    return code, err


@pytest.mark.parametrize("case, policy, flags, code", [
    ("no_variation", None, [], "missing_field"),
    ("no_variation", fp.ConstantPolicy(1.2), [], "missing_field"),
    ("overflow", None, ["--bandwidth", "1e-308"], "missing_field"),
    ("unpriced", fp.GroupPolicy(prices={"a": 1.2}), [], "unknown_group"),
    ("unpriced", tabular_policy([[0.0]], {(0, None): 1.2}), [],
     "dimension_mismatch"),
    ("empty", fp.ConstantPolicy(12.0), [], "empty_weights"),
    ("ties", fp.ConstantPolicy(1.2), ["--n-boot", "3"], "empty_weights"),
])
def test_ope_error_codes(tmp_path, capsys, case, policy, flags, code):
    log = (_tie_log((1.2,) * 6) if case == "no_variation"
           else _unpriced_log() if case == "unpriced" else _tie_log())
    if case == "ties":
        flags = flags + ["--seed", str(_all_tie_seed(log, 3))]
    status, err = _run_ope(tmp_path, capsys, log, policy, "--bandwidth", "0.5",
                           *flags)
    assert status == 2, err
    assert f"error_code={code}" in err
