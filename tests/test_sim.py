import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fairprice as fp
from fairprice import sim
from fairprice.demand import CSV_TRAILING_COLUMNS
from fairprice.sim import read_records_csv, write_records_csv

from oracles import take_bootstrap_se
from tables import one_price, record_table


SCENARIO = """
# two-group latent scenario over one binary covariate
n = 400
groups = a, b
covariate.x1 = choice(0:0.5, 1:0.5)
membership.intercept = 0.8
membership.x1 = -1.6
demand = latent
noise = logistic
scale = 0.4
loc.a.intercept = 2.0
loc.a.x1 = 0.5
loc.b.intercept = 1.3
loc.b.x1 = 0.5
price_levels = 0.8, 1.2, 1.6, 2.0
"""


def test_scenario_parses_and_builds_model():
    cfg = fp.ScenarioConfig.from_text(SCENARIO)
    assert cfg.n == 400
    assert cfg.groups == ("a", "b")
    assert cfg.price_levels == (0.8, 1.2, 1.6, 2.0)
    assert isinstance(cfg.model, fp.LatentValuationModel)
    assert cfg.membership_prob([[0.0], [1.0]]) == pytest.approx(
        [1 / (1 + np.exp(-0.8)), 1 / (1 + np.exp(0.8))])


def test_scenario_error_reports_line_numbers():
    bad = "n = 100\ngroups = a, b\nn = 200\n"
    with pytest.raises(fp.ConfigError) as err:
        fp.ScenarioConfig.from_text(bad)
    assert "line 3" in str(err.value)

    broken_sampler = SCENARIO.replace("covariate.x1 = choice(0:0.5, 1:0.5)",
                                      "covariate.x1 = wobble(1)")
    with pytest.raises(fp.ConfigError) as err:
        fp.ScenarioConfig.from_text(broken_sampler)
    assert "line" in str(err.value)

    with pytest.raises(fp.ConfigError):
        fp.ScenarioConfig.from_text("n = 100\njust a dangling phrase\n")

    with pytest.raises(fp.ConfigError):
        fp.ScenarioConfig.from_text(SCENARIO + "\nmystery_key = 3\n")

    # required pieces missing
    with pytest.raises(fp.ConfigError):
        fp.ScenarioConfig.from_text("n = 50\ngroups = a, b\ndemand = latent\n")


def test_scenario_rejects_bad_price_levels():
    with pytest.raises(fp.ConfigError):
        fp.ScenarioConfig.from_text(
            SCENARIO.replace("price_levels = 0.8, 1.2, 1.6, 2.0",
                             "price_levels = 2.0, 1.2"))
    with pytest.raises(fp.ConfigError):
        fp.ScenarioConfig.from_text(
            SCENARIO.replace("price_levels = 0.8, 1.2, 1.6, 2.0",
                             "price_levels = 1.0"))


def test_exact_support_for_discrete_covariates():
    cfg = fp.ScenarioConfig.from_text(SCENARIO)
    rng = np.random.default_rng(0)
    pop = fp.generate_population(cfg, rng)
    # one binary covariate -> two support rows with equal mass
    assert pop.support.shape == (2, 1)
    assert pop.masses.tolist() == [0.5, 0.5]
    # membership at each support point is the exact logit value
    want = cfg.membership_prob(pop.support)
    assert want.shape == (2,)
    assert pop.membership[:, 0] == pytest.approx(want)
    assert len(pop.records) == 400
    assert pop.records.ids[0] == "r000000"


def test_population_reproducible_under_seed():
    cfg = fp.ScenarioConfig.from_text(SCENARIO)
    pop1 = fp.generate_population(cfg, np.random.default_rng(7))
    pop2 = fp.generate_population(cfg, np.random.default_rng(7))
    assert pop1.records.labels == pop2.records.labels
    assert pop1.records.codes.tolist() == pop2.records.codes.tolist()
    assert np.allclose(pop1.records.valuation, pop2.records.valuation)


def test_log_interactions_latent_demand_is_threshold():
    cfg = fp.ScenarioConfig.from_text(SCENARIO)
    rng = np.random.default_rng(3)
    pop = fp.generate_population(cfg, rng)
    fp.log_interactions(cfg, pop, rng)
    first = pop.records.take(np.arange(100))
    assert set(first.price.tolist()) <= set(cfg.price_levels)
    assert (first.demand == (first.valuation >= first.price)).all()


def test_log_interactions_under_policy():
    cfg = fp.ScenarioConfig.from_text(SCENARIO)
    rng = np.random.default_rng(3)
    pop = fp.generate_population(cfg, rng)
    fp.log_interactions(cfg, pop, rng, policy=fp.ConstantPolicy(1.1))
    assert set(pop.records.price.tolist()) == {1.1}


@pytest.mark.parametrize("demand", ["latent", "logistic"])
@pytest.mark.parametrize("price, message", [
    (-1.0, "price must be nonnegative for this demand family"),
    (float("nan"), "price must be finite")])
def test_log_interactions_refuses_a_bad_policy_price_before_any_change(
        demand, price, message):
    # both families check the policy's prices before a column is written or
    # a take-up drawn
    head, tail = SCENARIO.split("demand = latent")
    text = SCENARIO if demand == "latent" else head + (
        "demand = logistic\nbeta = -1.8\nintercept = 2.5\ngamma.x1 = 0.4\n"
        + tail[tail.index("price_levels"):])
    cfg = fp.ScenarioConfig.from_text(text)
    rng = np.random.default_rng(3)
    pop = fp.generate_population(cfg, rng)
    fp.log_interactions(cfg, pop, rng)
    table, state = pop.records, rng.bit_generator.state
    before = [c.copy() for c in (table.price, table.demand, table.outcome)]
    with pytest.raises(fp.InvalidRecordError, match=message):
        fp.log_interactions(cfg, pop, rng, policy=fp.ConstantPolicy(price))
    for old, new in zip(before, (table.price, table.demand, table.outcome)):
        assert np.array_equal(old, new, equal_nan=True)
    assert rng.bit_generator.state == state


def test_relogged_prices_replace_the_cached_price_levels():
    cfg = fp.ScenarioConfig.from_text(SCENARIO)
    rng = np.random.default_rng(3)
    pop = fp.generate_population(cfg, rng)
    fp.log_interactions(cfg, pop, rng)
    assert pop.records.price_levels[0].tolist() == list(cfg.price_levels)
    policy = fp.GroupPolicy(prices={"a": 1.0, "b": 1.5})
    fp.log_interactions(cfg, pop, rng, policy=policy)
    levels, level_of = pop.records.price_levels
    assert levels.tolist() == [1.0, 1.5]
    assert (levels[level_of] == pop.records.price).all()


def test_log_interactions_prices_rows_like_price():
    text = SCENARIO.replace("covariate.x1 = choice(0:0.5, 1:0.5)",
                            "covariate.x1 = normal(0.3, 0.7)\n"
                            "covariate.x2 = uniform(-1.0, 2.0)")
    cfg = fp.ScenarioConfig.from_text(text)
    policy = fp.LinearPolicy(theta=np.array([0.31, -0.27]), intercept=1.3,
                             clip_lo=0.8, clip_hi=2.0)
    rng = np.random.default_rng(3)
    pop = fp.generate_population(cfg, rng)
    fp.log_interactions(cfg, pop, rng, policy=policy)
    want = [one_price(policy, x) for x in pop.records.X]
    assert pop.records.price.tolist() == want
    assert (pop.records.demand
            == (pop.records.valuation >= pop.records.price)).all()


def test_surplus_weight_outcome():
    cfg = fp.ScenarioConfig.from_text(SCENARIO + "outcome.surplus_weight = 2.0\n")
    rng = np.random.default_rng(3)
    pop = fp.generate_population(cfg, rng)
    fp.log_interactions(cfg, pop, rng)
    first = pop.records.take(np.arange(100))
    want = 2.0 * np.maximum(first.valuation - first.price, 0.0) * first.demand
    assert first.outcome == pytest.approx(want)


def test_csv_round_trip_identical(tmp_path):
    cfg = fp.ScenarioConfig.from_text(SCENARIO)
    rng = np.random.default_rng(5)
    pop = fp.generate_population(cfg, rng)
    fp.log_interactions(cfg, pop, rng)
    path = tmp_path / "records.csv"
    write_records_csv(str(path), pop.records)
    text1 = path.read_text()
    back = read_records_csv(str(path))
    write_records_csv(str(path), back)
    assert path.read_text() == text1
    assert len(back) == len(pop.records)
    assert back.X[0].tolist() == pop.records.X[0].tolist()


def test_csv_write_that_fails_leaves_the_old_file(tmp_path, monkeypatch):
    cfg, pop, logged = _logged_scenario(seed=5, n=sim._ROW_BLOCK + 10)
    path = tmp_path / "records.csv"
    write_records_csv(path, logged)
    before = path.read_bytes()
    real = sim._column_cells

    def failing_cells(col):
        cells, blocks = real(col), []

        def second_block_fails(rows):
            blocks.append(rows)
            if len(blocks) == 2:
                raise RuntimeError("write interrupted")
            return cells(rows)
        return second_block_fails

    monkeypatch.setattr(sim, "_column_cells", failing_cells)
    with pytest.raises(RuntimeError, match="write interrupted"):
        write_records_csv(path, logged)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]  # no temp litter


def test_csv_round_trip_with_quoted_fields(tmp_path):
    # ids and groups that the writer must quote, or keep their spaces
    ids = ["plain", "com,ma", 'say "hi"', "two\nlines", "  padded ",
           'all, "of"\nthem ']
    groups = ["a,b", ' "q" ', "line\nbreak"]
    rows = [dict(id=rid, group=groups[i % 3],
                 covariates=[-0.0 if i % 2 else 1e-300, 0.5 * i],
                 price=1.0 + i, demand=float(i % 2),
                 outcome=None if i % 2 else -0.0,
                 valuation=None if i % 3 else 2.5, weight=1.0 + i)
            for i, rid in enumerate(ids)]
    table = record_table(rows)
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    write_records_csv(first, table)
    back = read_records_csv(first)
    write_records_csv(second, back)
    assert second.read_bytes() == first.read_bytes()
    assert b'"two\nlines"' in first.read_bytes()
    assert back.ids.tolist() == ids and back.labels == table.labels
    assert back.codes.tolist() == table.codes.tolist()
    for name in ("X",) + CSV_TRAILING_COLUMNS:
        # bit for bit: -0.0 stays negative and empty cells stay NaN
        want, got = getattr(table, name), getattr(back, name)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


# numeric cells that either reader may meet: the writer's spellings, padding,
# and after them spellings that float() reads but loadtxt refuses ("1_0", an
# Arabic-Indic digit one) or that neither reads
_CELLS = ["", "0.5", "-0.0", "1e-300", "2.0", "+3.", ".5", " 1.5 ", "\t2\x0b",
          "nan", "-inf", "1e999", " ", "1_0", "\u0661", "abc", "0x10"]
_PLAIN_IDS = ["r0", "r1", " x ", "", "a\tb"]
_GROUPS = ["a", "b c", "", "d,e", ' "q" ', "line\nbreak"]


@st.composite
def _record_sources(draw):
    """A small table for the writer, or the bytes of a file whose rows hold
    the cells above. Half the files of either kind are plain: no id or
    group that needs quotes and, for the cell rows, one cell per column.
    Half the cell files use only the first nine cells."""
    k, plain = draw(st.integers(0, 2)), draw(st.booleans())

    def pick(*values):
        return draw(st.sampled_from(values))

    def rid():
        if plain:
            return pick(*_PLAIN_IDS)
        return draw(st.text(alphabet='r ,"\n\r', max_size=3))
    groups = _GROUPS[:3] if plain else _GROUPS
    if draw(st.booleans()):
        return record_table(
            dict(id=rid(), group=pick(*filter(None, groups)),
                 covariates=[pick(-0.0, 1e-300, 0.5, 3.0) for _ in range(k)],
                 price=pick(None, 1.0, 1e-300), demand=pick(None, 0.0, 1.0),
                 outcome=pick(None, -0.0), valuation=pick(None, 2.5, -1e300),
                 weight=pick(None, 1e-300, 2.0))
            for _ in range(draw(st.integers(1, 4))))
    cells = st.sampled_from(_CELLS[:9] if draw(st.booleans()) else _CELLS)
    lines = [",".join(sim._csv_header(k))]
    for _ in range(draw(st.integers(0, 4))):
        width = len(CSV_TRAILING_COLUMNS) + k
        width += 0 if plain else pick(0, -1, 1)
        lines.append(",".join([rid(), pick(*groups),
                               *draw(st.lists(cells, min_size=width,
                                              max_size=width))]))
    return "".join(line + "\r\n" for line in lines).encode()


def _read_outcome(read, path):
    """What ``read(path)`` gives: the table's columns, bit for bit, or the
    class and message of its error."""
    try:
        table = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return (table.ids.dtype, table.ids.tolist(), table.labels,
            table.codes.tolist(), table.X.shape,
            [getattr(table, name).view(np.uint64).tolist()
             for name in ("X",) + CSV_TRAILING_COLUMNS])


@given(source=_record_sources(), edits=st.data())
@settings(max_examples=400)
def test_array_and_csv_module_readers_agree(tmp_path_factory, source, edits):
    path = tmp_path_factory.getbasetemp() / "agree.csv"
    if isinstance(source, bytes):
        path.write_bytes(source)
    else:
        write_records_csv(path, source)
    data = path.read_bytes()
    if edits.draw(st.booleans()):
        data = data.replace(b"\r\n", b"\n")
    if edits.draw(st.booleans()):
        # a blank or space-only line after some line
        at = edits.draw(st.sampled_from(
            [i + 1 for i, byte in enumerate(data) if byte == ord("\n")]))
        blank = edits.draw(st.sampled_from([b"\n", b"\r\n", b" \n"]))
        data = data[:at] + blank + data[at:]
    if edits.draw(st.booleans()):
        data = data.rstrip(b"\r\n")
    path.write_bytes(data)
    csv_module = _read_outcome(
        lambda p: sim._record_table(sim._csv_cells(p.read_bytes())), path)
    assert _read_outcome(read_records_csv, path) == csv_module


def _refuse_csv_module(data):
    raise AssertionError("the csv module path ran")


def _sparse_table():
    """Records with a column of empty cells (outcome) and columns where only
    some cells are empty."""
    return record_table(
        dict(id=f"r{i}", group="ab"[i % 2], covariates=[-0.0, 0.5 * i],
             price=1.0 + i, demand=None if i % 3 else float(i % 2),
             valuation=2.5 if i % 2 else None)
        for i in range(7))


@pytest.mark.parametrize("kind", ["logged", "sparse", "no_weights"])
def test_plain_records_file_skips_the_csv_module(tmp_path, monkeypatch, kind):
    table = _logged_scenario(seed=5)[2] if kind == "logged" else _sparse_table()
    path = tmp_path / "records.csv"
    write_records_csv(path, table)
    if kind == "no_weights":
        # an empty last cell before each CRLF; an empty weight reads as 1
        path.write_bytes(path.read_bytes().replace(b",1.0\r\n", b",\r\n"))
    assert b'"' not in path.read_bytes()
    monkeypatch.setattr(sim, "_csv_cells", _refuse_csv_module)
    back = read_records_csv(path)
    assert back.ids.tolist() == table.ids.tolist()
    assert back.labels == table.labels
    assert back.codes.tolist() == table.codes.tolist()
    for name in ("X",) + CSV_TRAILING_COLUMNS:
        want, got = getattr(table, name), getattr(back, name)
        assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_quoted_records_file_goes_through_the_csv_module(tmp_path,
                                                         monkeypatch):
    table = record_table([
        dict(id="com,ma", group="a", covariates=[0.5], price=1.0),
        dict(id="two\nlines", group="b", covariates=[1.0], price=2.0)])
    path = tmp_path / "records.csv"
    write_records_csv(path, table)
    monkeypatch.setattr(sim, "_csv_cells", _refuse_csv_module)
    with pytest.raises(AssertionError, match="csv module path ran"):
        read_records_csv(path)


_ONE_COVARIATE = "id,group,x1,price,demand,outcome,valuation,weight\n"


# every numeric cell is empty, so no loadtxt parse meets these rows: only
# the array reader's own checks keep it from reading them
@pytest.mark.parametrize("rows", [
    # the commas balance over the file: one row is a cell short, the next
    # one a cell long, by an empty cell before its id
    "r0,a,,,,,\n,r1,b,,,,,,\n",
    # a lone CR in an unquoted id ends a line for the csv module
    "r\r0,a,,,,,,\n",
], ids=["short_then_long_row", "lone_cr_in_an_id"])
def test_array_reader_leaves_a_misaligned_file_to_the_csv_module(tmp_path,
                                                                 rows):
    path = tmp_path / "records.csv"
    path.write_bytes((_ONE_COVARIATE + rows).encode())
    got = 7 if "\r" not in rows else 1
    message = f"line 2: expected 8 cells, got {got}"
    with pytest.raises(fp.InvalidRecordError, match=message):
        sim._csv_cells(path.read_bytes())
    with pytest.raises(fp.InvalidRecordError, match=message):
        read_records_csv(path)


# spellings a number cell may take; records.csv reads exactly those that
# loadtxt reads, with the same bits
_SPELLINGS = ["0.5", "-0.0", "1e-300", "+3.", ".5", "1.", "00012", "1e0001",
              "1.5E-3", " 1.5 ", "\t2\x0b", "\x0c1", "nan", "-nan", "NaN",
              "inf", "-inf", "INF", "Infinity", "1e999", "1_0", "_1", "1_",
              "1_000.0", "\u0661", "\uff11", "\u0661\u0662", "abc", "0x10",
              "1e", "e5", "--1", "1 0", "1d5", "1j", "nan(1)"]


@pytest.mark.parametrize("cell", _SPELLINGS)
def test_records_numbers_are_the_ones_loadtxt_reads(cell):
    def outcome(parse):
        try:
            return parse().view(np.uint64).tolist()
        except ValueError:
            return "refused"
    loadtxt = outcome(lambda: np.loadtxt(
        [f"r,{cell}"], dtype=float, delimiter=",", comments=None,
        quotechar=None, usecols=[1], ndmin=1))
    assert outcome(lambda: sim._numbers([cell.strip()])) == loadtxt


def test_csv_missing_fields_read_as_none(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("id,group,x1,price,demand,outcome,valuation,weight\n"
                    "r0,a,0.5,1.0,1.0,,,\n")
    recs = read_records_csv(str(path))
    assert np.isnan(recs.outcome[0])
    assert np.isnan(recs.valuation[0])
    assert recs.weight[0] == 1.0


def test_csv_header_mismatch_raises(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("id,team,x1,price,demand,outcome,valuation,weight\n"
                    "r0,a,0.5,1.0,1.0,,,\n")
    with pytest.raises(fp.InvalidRecordError):
        read_records_csv(str(path))


def test_simulate_returns_model_and_population():
    cfg = fp.ScenarioConfig.from_text(SCENARIO)
    model, pop = fp.simulate(cfg, seed=11)
    assert model is cfg.model
    assert len(pop.records) == cfg.n


def test_pricing_experiment_revenue_ordering():
    cfg = fp.ScenarioConfig.from_text(SCENARIO)
    model, pop = fp.simulate(cfg, seed=2)
    interval = fp.PriceInterval(0.05, 6.0)
    out = fp.run_pricing_experiment(model, pop, interval)
    assert set(out) == {"uniform", "group", "personalized"}
    r_u = out["uniform"]["revenue"]
    r_g = out["group"]["revenue"]
    r_p = out["personalized"]["revenue"]
    # finer information never hurts model-implied revenue
    assert r_g >= r_u - 1e-9
    assert r_p >= r_g - 1e-9
    for mode in out:
        cell = out[mode]
        assert all(v >= 0 for v in cell["access"].values())
        assert len(cell["histogram"]["counts"]) == len(
            cell["histogram"]["edges"]) - 1


def test_pricing_experiment_margin_uses_unit_cost():
    cfg = fp.ScenarioConfig.from_text(SCENARIO)
    model, pop = fp.simulate(cfg, seed=2)
    interval = fp.PriceInterval(0.05, 6.0)
    pop.unit_cost = 0.4
    out = fp.run_pricing_experiment(model, pop, interval)
    for mode, cell in out.items():
        assert cell["margin"] <= cell["revenue"]


# -- off-policy evaluation ----------------------------------------------------


def _logged_scenario(seed=0, n=None):
    text = SCENARIO if n is None else SCENARIO.replace("n = 400", f"n = {n}")
    cfg = fp.ScenarioConfig.from_text(text)
    rng = np.random.default_rng(seed)
    pop = fp.generate_population(cfg, rng)
    fp.log_interactions(cfg, pop, rng)
    return cfg, pop, pop.records


def test_ope_constant_policy_at_level_is_exact_average():
    # a constant policy sitting exactly on a logged level, with spacing wider
    # than the kernel window, averages only that level's records
    cfg, pop, logged = _logged_scenario(seed=9, n=2000)
    target = fp.ConstantPolicy(1.2)
    est = fp.ope_estimate(logged, target, 0.3)["value"]
    want = 1.2 * np.mean(logged.demand[logged.price == 1.2])
    assert est == pytest.approx(want, abs=1e-12)


def test_ope_value_invariant_to_weight_scale():
    # record weights are relative: doubling all of them is the same log
    cfg, pop, logged = _logged_scenario(seed=9, n=1000)
    doubled = dataclasses.replace(logged, weight=2.0 * logged.weight)
    policy = fp.LinearPolicy(theta=np.array([0.4]), intercept=1.1,
                             clip_lo=0.8, clip_hi=2.0)
    assert (fp.ope_estimate(doubled, policy, 0.3)["value"]
            == fp.ope_estimate(logged, policy, 0.3)["value"])


def test_ope_estimate_diagnostics_on_one_level():
    # a window narrower than the level spacing keeps only the 1.2 records,
    # which all carry the same importance weight
    cfg, pop, logged = _logged_scenario(seed=9, n=2000)
    at_level = int(np.sum(logged.price == 1.2))
    diag = fp.ope_estimate(logged, fp.ConstantPolicy(1.2),
                           0.3)
    assert diag["ess"] == pytest.approx(at_level, rel=1e-12)
    assert diag["window_share"] == at_level / len(logged)
    assert diag["max_weight_share"] == pytest.approx(1.0 / at_level,
                                                     rel=1e-12)


def test_ope_estimate_diagnostics_match_direct_formulas():
    cfg, pop, logged = _logged_scenario(seed=4, n=800)
    weighted = dataclasses.replace(
        logged, weight=np.random.default_rng(0).uniform(0.5, 2.0, len(logged)))
    policy = fp.LinearPolicy(theta=np.array([0.5]), intercept=1.0,
                             clip_lo=0.8, clip_hi=2.0)
    diag = fp.ope_estimate(weighted, policy, 0.3)
    p, w = weighted.price, weighted.weight
    target = np.array([one_price(policy, x) for x in weighted.X])
    h = 0.3 * (p.max() - p.min())
    u = (target - p) / h
    kern = np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0) / h
    mass = {v: w[p == v].sum() / w.sum() for v in np.unique(p)}
    imp = w * kern / np.array([mass[v] for v in p])
    assert diag["ess"] == pytest.approx(imp.sum() ** 2 / (imp ** 2).sum(),
                                        rel=1e-12)
    assert diag["window_share"] == pytest.approx(
        w[kern > 0].sum() / w.sum(), rel=1e-12)
    assert 0.0 < diag["window_share"] < 1.0
    assert diag["max_weight_share"] == pytest.approx(imp.max() / imp.sum(),
                                                     rel=1e-12)


def test_ope_empty_window_raises():
    cfg, pop, logged = _logged_scenario(seed=9)
    lonely = fp.ConstantPolicy(12.0)  # far above every logged level
    with pytest.raises(fp.EmptyWeightError):
        fp.ope_estimate(logged, lonely, 0.05)


def test_policy_search_with_no_usable_start_raises():
    cfg, pop, logged = _logged_scenario(seed=9)
    # every start is clipped far above the logged prices
    with pytest.raises(fp.EmptyWeightError, match="no starting policy"):
        fp.optimize_linear_policy(logged, clip_lo=100.0, clip_hi=101.0,
                                  n_starts=2)


def test_ope_bootstrap_se_positive_and_stable():
    cfg, pop, logged = _logged_scenario(seed=9, n=1500)
    se, skipped = fp.ope_bootstrap_se(logged, fp.ConstantPolicy(1.2),
                                      0.3, n_boot=60,
                                      seed=4)
    assert se > 0 and skipped == {"empty_window": 0, "tied_prices": 0}
    assert fp.ope_bootstrap_se(logged, fp.ConstantPolicy(1.2),
                               0.3, n_boot=60,
                               seed=4) == (se, skipped)


def test_ope_bandwidth_validation():
    cfg, pop, logged = _logged_scenario(seed=9)
    policy = fp.ConstantPolicy(1.2)
    for bandwidth in (0.0, -0.3, float("inf"), float("nan")):
        for call in (lambda: fp.ope_estimate(logged, policy, bandwidth),
                     lambda: fp.ope_bootstrap_se(logged, policy, bandwidth),
                     lambda: fp.optimize_linear_policy(logged, bandwidth)):
            with pytest.raises(fp.MissingFieldError,
                               match="bandwidth must be positive and finite"):
                call()


def test_ope_counts_below_their_minimum_raise():
    cfg, pop, logged = _logged_scenario(seed=9)
    for n_boot in (1, 0, -5):
        with pytest.raises(fp.MissingFieldError, match="n_boot"):
            fp.ope_bootstrap_se(logged, fp.ConstantPolicy(1.2), n_boot=n_boot)
    for n_starts in (0, -3):
        with pytest.raises(fp.MissingFieldError, match="n_starts"):
            fp.optimize_linear_policy(logged, n_starts=n_starts)


def test_policy_search_beats_every_constant():
    cfg, pop, logged = _logged_scenario(seed=21, n=1200)
    result = fp.optimize_linear_policy(logged, 0.3, n_starts=4, seed=0)
    assert isinstance(result.policy, fp.LinearPolicy)
    for lvl in cfg.price_levels:
        const = fp.ope_estimate(logged, fp.ConstantPolicy(lvl), 0.3)["value"]
        assert result.value >= const - 1e-9, lvl
    # one trace row per start; the reported value is the best of them
    assert len(result.trace) == 4
    assert result.value == pytest.approx(
        max(row["value"] for row in result.trace))


def test_policy_search_deterministic_under_seed():
    cfg, pop, logged = _logged_scenario(seed=21, n=600)
    r1 = fp.optimize_linear_policy(logged, 0.3, n_starts=3, seed=5)
    r2 = fp.optimize_linear_policy(logged, 0.3, n_starts=3, seed=5)
    assert r1.value == r2.value
    assert r1.policy.theta.tolist() == r2.policy.theta.tolist()
    assert r1.policy.intercept == r2.policy.intercept


def test_ope_bootstrap_skips_resamples_with_one_logged_price():
    # the log's prices vary only through its last record, so about a third
    # of the resamples log one price and carry no kernel width
    log = record_table(
        dict(id=f"r{i}", group="a", covariates=[0.0], price=p, demand=d)
        for i, (p, d) in enumerate(zip([1, 1, 1, 1, 1, 2], [1, 0, 1, 1, 0, 1])))
    policy = fp.ConstantPolicy(1.2)
    assert fp.ope_estimate(log, policy, 0.5)["value"] == pytest.approx(0.72)
    rng = np.random.default_rng(3)
    kept = sum(np.ptp(log.price[rng.integers(0, len(log), size=len(log))]) > 0.0
               for _ in range(200))
    assert 100 < kept < 200
    se, skipped = fp.ope_bootstrap_se(log, policy, 0.5, n_boot=200, seed=3)
    assert skipped == {"empty_window": 0, "tied_prices": 200 - kept}
    assert (se, skipped) == take_bootstrap_se(log, policy, 0.5, n_boot=200,
                                              seed=3)
