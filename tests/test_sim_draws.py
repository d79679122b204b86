"""The simulator's block draws and blocked CSV writer against the
record-by-record loops they replaced (``tests/oracles.py``): equal bits in
every column and the generator left in the same state. Also the numpy facts
that kernel OPE's blocks rely on: a (rows, n) draw, C-ordered row sums and
gathers."""

import numpy as np
import pytest

import fairprice as fp
from fairprice import sim
from oracles import (
    cell_write_records_csv,
    loop_generate_population,
    loop_log_interactions,
)

COVARIATES = {
    "choice": ["covariate.x1 = choice(0:0.5, 1:0.5)",
               "covariate.x2 = choice(0:0.3, 1:0.4, 2:0.3)"],
    "uniform": ["covariate.x1 = choice(0:0.5, 1:0.5)",
                "covariate.x2 = uniform(-1.0, 2.5)"],
    "constant": ["covariate.x1 = constant(1.5)",
                 "covariate.x2 = choice(0:0.2, 1:0.8)"],
    "mixed": ["covariate.x1 = choice(0:0.5, 1:0.5)",
              "covariate.x2 = uniform(0.25, 0.75)",
              "covariate.x3 = constant(-2.0)",
              "covariate.x4 = normal(0.5, 1.2)"],
}


def scenario(covariates="choice", demand="latent", noise="logistic",
             n=1500, surplus=False, groups="a, b"):
    lines = [f"n = {n}", f"groups = {groups}", *COVARIATES[covariates],
             "membership.intercept = 0.8", "membership.x1 = -1.6",
             f"demand = {demand}", "price_levels = 0.8, 1.2, 1.6, 2.0"]
    if demand == "latent":
        lines += [f"noise = {noise}", "scale = 0.4",
                  "loc.a.intercept = 2.0", "loc.a.x1 = 0.5",
                  "loc.b.intercept = 1.3", "loc.b.x2 = 0.25"]
        if surplus:
            lines.append("outcome.surplus_weight = 0.5")
    else:
        lines += ["beta = -1.5", "intercept = 2.0", "gamma.x1 = 0.3",
                  "gamma.x2 = -0.2"]
    return fp.ScenarioConfig.from_text("\n".join(lines) + "\n")


def policy_for(config):
    k = len(config.covariates)
    return fp.LinearPolicy(theta=np.linspace(0.3, -0.2, k), intercept=1.2,
                           clip_lo=0.8, clip_hi=2.0)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    if a.dtype.kind == "f":
        a, b = a.view(np.uint64), b.view(np.uint64)
    assert np.array_equal(a, b)


def assert_same_population(got, want):
    t, w = got.records, want.records
    assert_same_bits(t.ids, w.ids)
    assert t.labels == w.labels
    assert_same_bits(t.codes, w.codes)
    for name in ("X",) + fp.demand.CSV_TRAILING_COLUMNS:
        assert_same_bits(getattr(t, name), getattr(w, name))
    assert fp.population_to_dict(got) == fp.population_to_dict(want)


def run_both(config, seed, policy=None, rng=None):
    """The package's and the oracle loops' simulation from ``seed``, with
    both generators."""
    got_rng = rng if rng is not None else np.random.default_rng(seed)
    got = sim.log_interactions(
        config, sim.generate_population(config, got_rng), got_rng, policy)
    want_rng = np.random.default_rng(seed)
    want = loop_log_interactions(
        config, loop_generate_population(config, want_rng), want_rng, policy)
    assert_same_population(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return got


@pytest.fixture()
def no_loop(monkeypatch):
    """Fail any draw that falls back to the per-record loop."""
    def refuse(*args):
        raise AssertionError("fell back to the per-record loop")
    monkeypatch.setattr(sim, "_draw_loop", refuse)


@pytest.mark.parametrize("noise", ["logistic", "laplace", "gumbel"])
@pytest.mark.parametrize("seed", [0, 7])
def test_one_double_noise_draws_in_one_block(noise, seed, no_loop):
    run_both(scenario(noise=noise, surplus=True), seed)


@pytest.mark.parametrize("noise", ["normal", "exponential"])
def test_ziggurat_noise_falls_back_to_the_loop(noise):
    run_both(scenario(noise=noise, surplus=True), 3)


@pytest.mark.parametrize("covariates", ["choice", "uniform", "constant"])
@pytest.mark.parametrize("demand", ["latent", "logistic"])
def test_one_double_covariates_draw_in_one_block(covariates, demand, no_loop):
    run_both(scenario(covariates, demand), 11)


@pytest.mark.parametrize("demand", ["latent", "logistic"])
def test_normal_covariate_falls_back_to_the_loop(demand):
    run_both(scenario("mixed", demand), 5)


@pytest.mark.parametrize("demand", ["latent", "logistic"])
@pytest.mark.parametrize("covariates", ["choice", "mixed"])
def test_interactions_under_a_policy(demand, covariates):
    config = scenario(covariates, demand)
    got = run_both(config, 2, policy_for(config))
    assert got.records.price.min() >= 0.8


@pytest.mark.parametrize("n", [1, 2, 1501])
def test_logistic_demand_without_policy_any_parity_of_n(n):
    # scalar integers() calls keep half of a 64-bit draw for the next one
    run_both(scenario("uniform", "logistic", n=n), 4)


@pytest.mark.parametrize("n", [1, 1500])
def test_group_codes_index_the_sorted_labels_that_occur(n):
    # groups listed out of sorted order; a one-record draw holds one group
    got = run_both(scenario("uniform", n=n, groups="b, a"), 6)
    assert len(got.records.labels) == min(n, 2)


class ZeroInBlock:
    """A generator whose one block draw has 0.0 in its last column, the
    double on which numpy's noise samplers draw again."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    @property
    def bit_generator(self):
        return self._rng.bit_generator

    def random(self, size=None):
        out = self._rng.random(size)
        if np.ndim(out) == 2:
            out[3, -1] = 0.0
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize("noise", ["logistic", "laplace", "gumbel"])
def test_zero_noise_double_reruns_the_loop_from_the_same_state(noise):
    run_both(scenario(noise=noise), 9, rng=ZeroInBlock(9))


def _table(n, seed, ids=None, groups=("a", "b")):
    rng = np.random.default_rng(seed)
    signed_zero = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    values = np.full((n, 5), np.nan)
    values[:, 0] = rng.choice([0.8, 1.2, 1.6], size=n)
    values[:, 1] = rng.integers(2, size=n)
    # one column holding -0.0, 0.0, NaN (an empty cell) and repeats
    values[:, 2] = rng.choice([-0.0, 0.0, np.nan, 0.1, 2.5e-17], size=n)
    values[:, 3] = rng.normal(size=n)
    values[rng.random(n) < 0.1, 3] = np.nan
    values[:, 4] = 1.0
    X = np.column_stack([signed_zero, rng.uniform(-1.0, 1.0, size=n)])
    ids = [f"r{i}" for i in range(n)] if ids is None else ids
    return fp.RecordTable.from_arrays(
        ids, rng.choice(list(groups), size=n), X, values, ~np.isnan(values),
        lambda i: ids[i])


@pytest.mark.parametrize("n", [40, 2 * sim._ROW_BLOCK + 5])
def test_csv_writer_matches_the_per_cell_writer(tmp_path, n):
    # ids that csv.writer quotes, in the first and last rows only, so that a
    # long table has blocks written both ways; then group labels it quotes
    quoted = [f"r{i}" for i in range(n)]
    quoted[0], quoted[-1] = 'r,"0"\r\n\u00e9', "cr\r"
    for ids, groups in [(None, ("a", "b")), (quoted, ("a", "b")),
                        (None, ('a,"b"', "lf\n\u00e9"))]:
        table = _table(n, n, ids, groups)
        sim.write_records_csv(tmp_path / "block.csv", table)
        cell_write_records_csv(tmp_path / "cell.csv", table)
        text = (tmp_path / "block.csv").read_bytes()
        assert text == (tmp_path / "cell.csv").read_bytes()
        assert b",-0.0," in text and b",0.0," in text and b",," in text
        assert (b'"' in text) == (ids is not None or groups[0] != "a")
        back = sim.read_records_csv(tmp_path / "block.csv")
        assert back.ids.tolist() == table.ids.tolist()
        assert back.labels == table.labels
        assert np.array_equal(back.codes, table.codes)
        sim.write_records_csv(tmp_path / "again.csv", back)
        assert (tmp_path / "again.csv").read_bytes() == text


# -- numpy facts that kernel OPE's blocks of resamples and candidates rely on


@pytest.mark.parametrize("n", [1, 2, 7, 1000, 4097])
@pytest.mark.parametrize("rows", [1, 3, 7])
def test_a_rows_by_n_draw_is_rows_draws_of_n(n, rows):
    block, loop = (np.random.default_rng(n * 10 + rows) for _ in range(2))
    want = np.array([loop.integers(0, n, size=n) for _ in range(rows)])
    assert_same_bits(block.integers(0, n, size=(rows, n)), want)
    assert block.bit_generator.state == loop.bit_generator.state


@pytest.mark.parametrize("n", [7, 8, 9, 129, 2000, 8193, 200_000])
def test_a_c_ordered_row_sum_has_the_bits_of_a_one_row_sum(n):
    rng = np.random.default_rng(n)
    rows = max(1, 2 ** 14 // n)
    a = rng.standard_normal((rows, n)) * np.exp(rng.uniform(-20, 20, (rows, n)))
    want = [float(row.sum()).hex() for row in a]
    assert [x.hex() for x in a.sum(axis=1).tolist()] == want
    if n == 2000:
        # a Fortran-ordered block adds down its rows one by one instead:
        # the case the blocks must avoid
        got = np.asfortranarray(a).sum(axis=1).tolist()
        assert [x.hex() for x in got] != want


def test_the_blocks_gathers_are_c_ordered():
    a, codes = np.arange(12.0).reshape(3, 4), np.array([0, 2, 1, 1, 3])
    idx = np.random.default_rng(0).integers(0, 4, (3, 5))
    assert not a[:, codes].flags.c_contiguous  # the gather to avoid
    assert a.take(codes, axis=-1).flags.c_contiguous
    assert np.arange(4.0)[idx].flags.c_contiguous
