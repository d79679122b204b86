"""Scenario simulation, record CSV I/O, pricing experiments, and kernel OPE.

A scenario file is a flat ``key = value`` text format ('#' starts a comment):

    n = 4000
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

``membership.*`` are logit coefficients for P(first group | x). Covariates may
be ``normal(m, s)``, ``uniform(lo, hi)``, ``choice(v:p, ...)`` or
``constant(v)``; when all are discrete the generated population carries the
exact covariate support with exact membership probabilities, so analytic
solvers and sampled records see the same world.

Simulation draws whole arrays and stays on the exact stream of the per-record
loop: the same records, bit for bit, and the generator left in the same
state. When every sampler takes exactly one double per record (``choice``,
``uniform`` and ``constant`` covariates, the last taking none; the
membership draw; logistic, laplace or gumbel noise), the population comes
from one ``rng.random((n, m))`` block, each column rebuilt with numpy's own
formula for its sampler. Three cases fall back to the per-record loop:
``normal`` covariates and normal or exponential noise, whose ziggurat
samplers take a variable number of doubles, and a block with a noise double
of exactly 0.0, on which numpy's sampler draws again. Logged prices come from
one ``rng.integers`` call and policy-priced logistic take-up from one
``rng.random`` call. Logistic demand without a policy draws its prices and
take-up in a loop: a scalar ``integers`` call takes 32 bits of a 64-bit draw
and keeps the other half for the next call, ``random`` takes a whole one, so
the two interleave.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .demand import (
    CSV_LEADING_COLUMNS,
    CSV_TRAILING_COLUMNS,
    LatentValuationModel,
    LogisticDemand,
    Population,
    RecordTable,
    _check_price,
    distinct_rows,
    first_hits,
    scipy_special,
    take_rows,
)
from .errors import (
    ConfigError,
    EmptyWeightError,
    FairPriceError,
    InvalidRecordError,
    MissingFieldError,
)
from .optimize import PriceInterval, maximize_rows
from .policies import ConstantPolicy, GroupPolicy, LinearPolicy, TabularPolicy
from .util import atomic_file, csv_text, seqsum


# ---------------------------------------------------------------------------
# scenario configuration
# ---------------------------------------------------------------------------


@dataclass
class CovariateSpec:
    """One covariate sampler: kind plus its parameters."""

    name: str
    kind: str
    params: tuple

    @property
    def discrete(self) -> bool:
        return self.kind in ("choice", "constant")

    def values_and_probs(self):
        if self.kind == "constant":
            return [self.params[0]], [1.0]
        values, probs = zip(*self.params)
        return list(values), list(probs)

    def sample(self, rng):
        if self.kind == "normal":
            return float(rng.normal(self.params[0], self.params[1]))
        if self.kind == "uniform":
            return float(rng.uniform(self.params[0], self.params[1]))
        if self.kind == "constant":
            return float(self.params[0])
        values, probs = self.values_and_probs()
        return float(values[rng.choice(len(values), p=probs)])

    def from_uniform(self, u) -> np.ndarray:
        """The values :meth:`sample` draws from the doubles ``u``, one per
        record, for the ``uniform`` and ``choice`` kinds: numpy's C formula
        ``lo + (hi - lo) * U``, and a search of ``Generator.choice``'s own
        cdf."""
        if self.kind == "uniform":
            lo, hi = self.params
            return lo + (hi - lo) * u
        values, probs = self.values_and_probs()
        cdf = np.asarray(probs, dtype=float).cumsum()
        cdf /= cdf[-1]
        return np.asarray(values, dtype=float)[cdf.searchsorted(u, side="right")]


def _finite(text) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text.strip()!r} is not a finite number")
    return value


def _parse_sampler(name, text, line):
    text = text.strip()
    open_paren = text.find("(")
    if open_paren < 0 or not text.endswith(")"):
        raise ConfigError(f"covariate {name}: expected kind(args), got {text!r}",
                          line)
    kind = text[:open_paren].strip()
    body = text[open_paren + 1:-1].strip()
    try:
        if kind == "normal":
            m, s = (_finite(t) for t in body.split(","))
            if s <= 0:
                raise ValueError("scale must be positive")
            return CovariateSpec(name, "normal", (m, s))
        if kind == "uniform":
            lo, hi = (_finite(t) for t in body.split(","))
            if not lo < hi:
                raise ValueError("needs lo < hi")
            return CovariateSpec(name, "uniform", (lo, hi))
        if kind == "constant":
            return CovariateSpec(name, "constant", (_finite(body),))
        if kind == "choice":
            pairs = []
            for item in body.split(","):
                v, p = item.split(":")
                pairs.append((_finite(v), _finite(p)))
            if any(p < 0.0 for _, p in pairs):
                raise ValueError("choice probabilities must be nonnegative")
            total = sum(p for _, p in pairs)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"choice probabilities sum to {total:g}, not 1")
            if len({v for v, _ in pairs}) != len(pairs):
                raise ValueError("choice values must be distinct")
            return CovariateSpec(name, "choice", tuple(pairs))
    except ValueError as exc:
        raise ConfigError(f"covariate {name}: {exc}", line) from None
    raise ConfigError(f"covariate {name}: unknown sampler kind {kind!r}", line)


@dataclass
class ScenarioConfig:
    """Validated scenario: population shape, demand model, and logging menu."""

    n: int
    groups: tuple
    covariates: list
    membership_intercept: float
    membership_coefs: dict
    model: LatentValuationModel | LogisticDemand
    price_levels: tuple
    unit_cost: float = 0.0
    surplus_weight: float | None = None

    @property
    def all_discrete(self) -> bool:
        return all(c.discrete for c in self.covariates)

    @classmethod
    def from_file(cls, path) -> "ScenarioConfig":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    @classmethod
    def from_text(cls, text) -> "ScenarioConfig":
        raw = {}
        lines = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"expected key = value, got {body!r}", lineno)
            key, value = (part.strip() for part in body.split("=", 1))
            if not key:
                raise ConfigError("empty key", lineno)
            if key in raw:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            raw[key] = value
            lines[key] = lineno

        def take(key, default=None, required=False):
            if key in raw:
                return raw.pop(key)
            if required:
                raise ConfigError(f"missing required key {key!r}")
            return default

        def as_float(key, text_value):
            try:
                return _finite(text_value)
            except ValueError:
                raise ConfigError(
                    f"{key}: expected a finite number, got {text_value!r}",
                    lines.get(key)) from None

        def at_line(key, check):
            """``check()``, which builds a model from the value of ``key``
            alone: the model's own error is raised at the line of ``key``."""
            try:
                check()
            except FairPriceError as exc:
                raise ConfigError(f"{key}: {exc}", lines.get(key)) from None

        try:
            n = int(take("n", required=True))
        except ValueError:
            raise ConfigError("n: expected an integer", lines.get("n")) from None
        if n <= 0:
            raise ConfigError("n must be positive", lines.get("n"))
        groups = tuple(t.strip() for t in take("groups", required=True).split(","))
        if len(groups) != 2 or len(set(groups)) != 2 or not all(groups):
            raise ConfigError("groups must name exactly two distinct labels",
                              lines.get("groups"))

        covariates = []
        for key in [k for k in list(raw) if k.startswith("covariate.")]:
            name = key.split(".", 1)[1]
            covariates.append(_parse_sampler(name, raw.pop(key), lines[key]))
        if not covariates:
            raise ConfigError("at least one covariate.<name> entry is required")

        def coefficients(prefix):
            coefs = {}
            for key in [k for k in list(raw) if k.startswith(prefix)]:
                name = key[len(prefix):]
                if name not in {c.name for c in covariates}:
                    raise ConfigError(f"{key}: unknown covariate", lines[key])
                coefs[name] = as_float(key, raw.pop(key))
            return coefs

        def coef_vector(prefix):
            coefs = coefficients(prefix)
            return np.array([coefs.get(c.name, 0.0) for c in covariates])

        membership_intercept = as_float(
            "membership.intercept", take("membership.intercept", "0"))
        membership_coefs = coefficients("membership.")

        kind = take("demand", required=True)
        if kind not in ("latent", "logistic"):
            raise ConfigError(f"demand must be 'latent' or 'logistic', "
                              f"got {kind!r}", lines.get("demand"))

        levels_text = take("price_levels", required=True)
        try:
            levels = tuple(_finite(t) for t in levels_text.split(","))
        except ValueError:
            raise ConfigError("price_levels: expected comma-separated finite "
                              "numbers",
                              lines.get("price_levels")) from None
        if len(levels) < 2 or len(set(levels)) != len(levels) or \
                list(levels) != sorted(levels):
            raise ConfigError(
                "price_levels must be at least two distinct ascending values",
                lines.get("price_levels"))
        if levels[0] < 0:
            raise ConfigError("price_levels must be nonnegative",
                              lines.get("price_levels"))

        unit_cost = as_float("unit_cost", take("unit_cost", "0"))
        surplus_raw = take("outcome.surplus_weight")
        surplus_weight = (None if surplus_raw is None
                          else as_float("outcome.surplus_weight", surplus_raw))

        if kind == "latent":
            noise = take("noise", "logistic")
            at_line("noise", lambda: LatentValuationModel({}, noise))
            scale = as_float("scale", take("scale", "1"))
            at_line("scale", lambda: LatentValuationModel({}, scale=scale))
            loc = {}
            for g in groups:
                loc_icpt = take(f"loc.{g}.intercept", required=True)
                coefs = coef_vector(f"loc.{g}.")
                loc[g] = (as_float(f"loc.{g}.intercept", loc_icpt), coefs)
            model = LatentValuationModel(loc=loc, noise=noise, scale=scale)
        else:
            beta = as_float("beta", take("beta", required=True))
            at_line("beta", lambda: LogisticDemand([], beta))
            intercept = as_float("intercept", take("intercept", "0"))
            model = LogisticDemand(gamma=coef_vector("gamma."), beta=beta,
                                   intercept=intercept)
            if surplus_weight is not None:
                raise ConfigError(
                    "outcome.surplus_weight needs latent demand",
                    lines.get("outcome.surplus_weight"))

        if raw:
            stray = sorted(raw)[0]
            raise ConfigError(f"unknown key {stray!r}", lines.get(stray))

        return cls(n=n, groups=groups, covariates=covariates,
                   membership_intercept=membership_intercept,
                   membership_coefs=membership_coefs, model=model,
                   price_levels=levels, unit_cost=unit_cost,
                   surplus_weight=surplus_weight)

    def membership_prob(self, X) -> np.ndarray:
        """P(first group | x) from the logit membership rule, for every row
        ``x`` of the (n, k) covariate matrix ``X``."""
        X = np.asarray(X, dtype=float)
        z = np.full(len(X), self.membership_intercept)
        names = [c.name for c in self.covariates]
        for name, coef in self.membership_coefs.items():
            z = z + coef * X[:, names.index(name)]
        return scipy_special().expit(z)


# ---------------------------------------------------------------------------
# population generation and interaction logging
# ---------------------------------------------------------------------------


def _exact_support(config: ScenarioConfig):
    combos = list(itertools.product(*(
        zip(*spec.values_and_probs()) for spec in config.covariates)))
    support = np.array([[value for value, _ in c] for c in combos], dtype=float)
    masses = np.array([math.prod(prob for _, prob in c) for c in combos])
    q = config.membership_prob(support)
    return support, masses, np.column_stack([q, 1.0 - q])


# rows turned into Python objects (noise draws, CSV cells) at a time, which
# bounds the memory those objects hold
_ROW_BLOCK = 1 << 12


def generate_population(config: ScenarioConfig, rng) -> Population:
    """Draw ``n`` customers: covariates, group, and (latent) valuation.

    Prices, demand, and outcomes are attached later by
    :func:`log_interactions`. When every covariate is discrete the returned
    population also carries the exact support, masses, and membership
    probabilities of the generating process.
    """
    model = config.model
    family = model.family if isinstance(model, LatentValuationModel) else None
    width = max(6, len(str(config.n)))
    ids = np.char.add("r", np.char.zfill(
        np.arange(config.n).astype(f"U{width}"), width))
    draws = _draw_block(config, family, rng)
    X, u, eps = draws if draws is not None else _draw_loop(config, family, rng)
    code = np.where(u < config.membership_prob(X), 0, 1)
    count = np.bincount(code, minlength=len(config.groups))
    # the table keeps the sorted labels that occur and codes into them
    labels = sorted(g for g, c in zip(config.groups, count) if c)
    label_code = np.array([labels.index(g) if c else -1
                           for g, c in zip(config.groups, count)])
    values = np.full((config.n, len(CSV_TRAILING_COLUMNS)), np.nan)
    if family is not None:
        values[:, CSV_TRAILING_COLUMNS.index("valuation")] = (
            model.location_rows(X, code, config.groups) + model.scale * eps)
    records = RecordTable.from_arrays(
        ids, label_code[code], X, values, ~np.isnan(values),
        lambda i: f"record {ids[i]}", labels)
    if config.all_discrete:
        support, masses, membership = _exact_support(config)
        return Population(groups=config.groups, records=records,
                          support=support, masses=masses,
                          membership=membership, unit_cost=config.unit_cost)
    total = len(records)
    rho = {g: int(c) / total for g, c in zip(config.groups, count)}
    if min(rho.values()) == 0.0:
        # keep priors valid even if a tiny sample missed a group entirely
        rho = {g: max(v, 1.0 / (2 * total)) for g, v in rho.items()}
        z = sum(rho.values())
        rho = {g: v / z for g, v in rho.items()}
    return Population(groups=config.groups, records=records, rho=rho,
                      unit_cost=config.unit_cost)


def _draw_block(config: ScenarioConfig, family, rng):
    """``(X, u, eps)`` from one ``rng.random((n, m))`` block, bit for bit
    what :func:`_draw_loop` draws, or None with ``rng`` untouched when a
    sampler takes other than one double per record (see the module
    docstring). A record's doubles sit in one row, in the loop's order;
    ``family`` is the latent noise family, None under logistic demand."""
    if any(spec.kind == "normal" for spec in config.covariates) or (
            family is not None and family.from_uniform is None):
        return None
    state = rng.bit_generator.state
    drawn = sum(spec.kind != "constant" for spec in config.covariates)
    U = rng.random((config.n, drawn + 1 + (family is not None)))
    eps = None
    if family is not None:
        if not U[:, -1].all():
            rng.bit_generator.state = state
            return None
        eps = np.concatenate([
            family.from_uniform(U[lo:lo + _ROW_BLOCK, -1].tolist())
            for lo in range(0, config.n, _ROW_BLOCK)])
    X = np.empty((config.n, len(config.covariates)))
    columns = iter(U.T)
    for j, spec in enumerate(config.covariates):
        X[:, j] = (spec.params[0] if spec.kind == "constant"
                   else spec.from_uniform(next(columns)))
    return X, next(columns), eps


def _draw_loop(config: ScenarioConfig, family, rng):
    """``(X, u, eps)`` drawn record by record, in the generator's order:
    the covariates, the membership double and, with a noise ``family``, the
    noise. The fallback of :func:`_draw_block`."""
    X = np.empty((config.n, len(config.covariates)))
    u, eps = np.empty(config.n), np.empty(config.n)
    for i in range(config.n):
        X[i] = [spec.sample(rng) for spec in config.covariates]
        u[i] = rng.random()
        if family is not None:
            eps[i] = family.sample(rng)
    return X, u, eps


def log_interactions(config: ScenarioConfig, population: Population, rng,
                     policy=None) -> Population:
    """Assign a price to every record and realize demand (and outcomes).

    Without a policy, prices are drawn uniformly from the scenario's price
    levels (the logging menu). Latent records buy iff their stored valuation
    covers the price; logistic records draw a Bernoulli take-up. The realized
    consumer surplus, scaled by ``outcome.surplus_weight``, lands in the
    outcome column when configured.
    """
    model = config.model
    levels = np.asarray(config.price_levels, dtype=float)
    table = population.records
    n = len(table)
    logistic = isinstance(model, LogisticDemand)
    # the prices written below replace any cached levels of older ones
    vars(table).pop("price_levels", None)
    if policy is not None:
        # pricing draws no random numbers, so batching it keeps the RNG
        # stream; the model's price rule holds before any column changes
        table.price[:] = _check_price(model, policy.price_batch(
            table.X, table.codes, table.labels))
        u = rng.random(n) if logistic else None
    elif not logistic:
        table.price[:] = levels[rng.integers(len(levels), size=n)]
    else:
        # a scalar integers() call takes 32-bit halves of a 64-bit draw and
        # random() a whole one, so the interleaved draws are taken one by one
        level, u = np.empty(n, dtype=np.intp), np.empty(n)
        for i in range(n):
            level[i] = rng.integers(len(levels))
            u[i] = rng.random()
        table.price[:] = levels[level]
    if logistic:
        terms = model.row_terms(table.X, table.codes, table.labels)
        rate = model.kernels(terms, table.price, "demand")[0]
        table.demand[:] = u < rate
    else:
        table.demand[:] = table.valuation >= table.price
    if config.surplus_weight is not None:
        table.outcome[:] = (config.surplus_weight
                            * np.maximum(table.valuation - table.price, 0.0)
                            * table.demand)
    return population


def simulate(config: ScenarioConfig, seed: int):
    """Generate a population and log one interaction per customer.

    Returns ``(model, population)``; all randomness flows from ``seed``.
    """
    rng = np.random.default_rng(seed)
    population = generate_population(config, rng)
    log_interactions(config, population, rng)
    return config.model, population


# ---------------------------------------------------------------------------
# record CSV I/O
# ---------------------------------------------------------------------------


def write_records_csv(path, records: RecordTable) -> None:
    """Write records with header id,group,x1..xk,price,demand,outcome,valuation,weight."""
    table = records.require()
    numeric = [*table.X.T] + [getattr(table, name)
                              for name in CSV_TRAILING_COLUMNS]
    cells = [_column_cells(col) for col in numeric]
    labels = np.array(table.labels, dtype=object)
    with atomic_file(path) as fh:
        fh.write(csv_text([[name] for name in _csv_header(table.X.shape[1])]))
        # rows are formatted block by block as they are written, so no
        # column of cell strings is ever held in memory; numeric cells never
        # need quotes, so only the ids and labels are checked
        for lo in range(0, len(table), _ROW_BLOCK):
            rows = slice(lo, lo + _ROW_BLOCK)
            text = [table.ids[rows].tolist(), labels[table.codes[rows]].tolist()]
            fh.write(csv_text(text + [column(rows) for column in cells], text))


def _column_cells(col):
    """A function from a row slice to the CSV cells of ``col`` there: the
    shortest round-trip repr of each value, '' for NaN.

    A column of at most a block's worth of distinct values (price levels,
    demand, discrete covariates) formats each one once, keyed by its float64
    bits so that -0.0 and 0.0 keep their own text.
    """
    # np.unique would hash, far slower than a sort on continuous columns
    bits = np.sort(col.view(np.uint64))
    bits = bits[np.append(True, bits[1:] != bits[:-1])]
    if bits.size <= _ROW_BLOCK:
        text = np.array(["" if v != v else repr(v)
                         for v in bits.view(np.float64).tolist()],
                        dtype=object)
        return lambda rows: text[bits.searchsorted(
            col[rows].view(np.uint64))].tolist()
    empty = np.isnan(col)

    def cells(rows):
        text = list(map(repr, col[rows].tolist()))
        for i in np.flatnonzero(empty[rows]).tolist():
            text[i] = ""
        return text
    return cells


def _csv_header(k: int) -> list:
    return (list(CSV_LEADING_COLUMNS) + [f"x{j + 1}" for j in range(k)]
            + list(CSV_TRAILING_COLUMNS))


def read_records_csv(path) -> RecordTable:
    """Read records written by :func:`write_records_csv` (empty cell = missing).

    Records are UTF-8 text. Every non-empty numeric cell must be a finite
    number in the grammar of :func:`_numbers`; the error names the CSV
    line. A plain file is parsed with array operations
    (:func:`_plain_cells`); a quoted or irregular file, or one whose numbers
    ``loadtxt`` refuses, goes through the csv module (:func:`_csv_cells`),
    with the same result or error.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return _record_table(_plain_cells(data) or _csv_cells(data))


def _record_table(cells) -> RecordTable:
    """The table of ``(ids, groups, values, present, where)``, where
    ``values`` and ``present`` hold the numeric columns x1..xk,
    price..weight."""
    ids, groups, values, present, where = cells
    k = values.shape[1] - len(CSV_TRAILING_COLUMNS)
    return RecordTable.from_arrays(ids, groups, values[:, :k], values[:, k:],
                                   present[:, k:], where)


def _csv_cells(data: bytes):
    """The cells of a records file through the csv module, which reads
    quoted fields and blank lines and names the line of every error."""
    try:
        decoded = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(data[:exc.start + 1].splitlines())
        raise InvalidRecordError(
            f"line {line}: records are not UTF-8 text ({exc.reason} at "
            f"byte {exc.start})") from None
    reader = csv.reader(io.StringIO(decoded, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise InvalidRecordError("empty records file")
        k = len(header) - len(CSV_LEADING_COLUMNS) - len(CSV_TRAILING_COLUMNS)
        expected = _csv_header(k)
        if k < 0 or header != expected:
            raise InvalidRecordError(
                f"unexpected header {header!r}; expected id,group,x1..xk,"
                "price,demand,outcome,valuation,weight")
        lines, rows, end = [], [], reader.line_num
        for row in reader:
            # a quoted field may span lines: a row starts after the last one
            lineno, end = end + 1, reader.line_num
            if not row:
                continue
            if len(row) != len(expected):
                raise InvalidRecordError(
                    f"line {lineno}: expected {len(expected)} cells, "
                    f"got {len(row)}")
            lines.append(lineno)
            rows.append(row)
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise InvalidRecordError(f"line {reader.line_num}: {exc}") from None
    text = np.array([c.strip() for row in rows for c in row[2:]],
                    dtype=object).reshape(len(rows), len(expected) - 2)
    present = text != ""
    values = np.full(text.shape, np.nan)
    try:
        values[present] = _numbers(text[present].tolist())
    except ValueError:
        for i, j in zip(*np.nonzero(present)):
            try:
                _numbers([text[i, j]])
            except ValueError:
                raise InvalidRecordError(
                    f"line {lines[i]}: {expected[j + 2]} cell {text[i, j]!r} "
                    "is not a number") from None
    return ([row[0] for row in rows], [row[1] for row in rows], values,
            present, lambda i: f"line {lines[i]}")


def _numbers(cells) -> np.ndarray:
    """The stripped non-empty cells as floats under the one number grammar
    of records.csv, the one ``np.loadtxt`` reads: ASCII text with no ``_``
    that ``float()`` parses. ValueError for any other cell."""
    joined = "".join(cells)
    if not joined.isascii() or "_" in joined:
        raise ValueError("records.csv numbers are ASCII without '_'")
    return np.array(cells, dtype=float)


def _plain_cells(data: bytes):
    """The cells of a plain records file, found with array operations, or
    None when the csv module must read it.

    A plain file is ASCII with no quote, NUL or lone CR, and each of its
    lines holds exactly one cell per column, so its row ``i`` is line
    ``i + 2`` and every comma or line end ends a cell. The numeric columns
    that hold a value anywhere go through one ``loadtxt`` parse, with a
    placeholder in their empty cells. A header, field size or number that the
    csv path might read otherwise sends the file there instead.
    """
    if not data.isascii() or b'"' in data or b"\0" in data:
        return None
    if not data.endswith(b"\n"):
        data += b"\n"
    header = data[:data.index(b"\n")].removesuffix(b"\r").decode().split(",")
    k = len(header) - len(CSV_LEADING_COLUMNS) - len(CSV_TRAILING_COLUMNS)
    if k < 0 or header != _csv_header(k):
        return None
    buf = np.frombuffer(data, np.uint8)
    ends = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
    if ends.size % len(header):
        return None
    ends = ends.reshape(-1, len(header))
    line_end = buf[ends] == ord("\n")
    if not line_end[:, -1].all() or line_end[:, :-1].any():
        return None
    # a CR is allowed only as part of a CRLF line end, outside the last cell
    cr = buf[ends[:, -1] - 1] == ord("\r")
    if np.count_nonzero(cr) != data.count(b"\r"):
        return None
    size = np.diff(ends.ravel(), prepend=-1).reshape(ends.shape)
    size[:, -1] -= cr
    size -= 1
    ends[:, -1] -= cr
    ends, size = ends[1:], size[1:]
    if size.max(initial=0) > csv.field_size_limit():
        return None
    present = size[:, 2:] > 0
    values = np.full(present.shape, np.nan)
    used = present.any(axis=0)
    if used.any():
        # a 0 in each empty cell of a used column, then NaN in its value
        holes = ends[:, 2:][used & ~present]
        if holes.size:
            data = np.insert(buf, holes, ord("0")).tobytes()
        try:
            values[:, used] = np.loadtxt(
                io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"),
                dtype=float, delimiter=",", comments=None, quotechar=None,
                skiprows=1, usecols=(np.flatnonzero(used) + 2).tolist(),
                ndmin=2)
        except ValueError:
            return None
        values[~present] = np.nan
    return (_byte_cells(buf, ends[:, 0], size[:, 0]),
            _byte_cells(buf, ends[:, 1], size[:, 1]), values, present,
            lambda i: f"line {i + 2}")


def _byte_cells(buf, stop, size):
    """The cells of ``size[i]`` bytes that end at the comma ``buf[stop[i]]``,
    as one str array; ASCII, so each byte is one code point."""
    width = max(int(size.max(initial=0)), 1)
    at = (stop - size)[:, None] + np.arange(width)
    np.minimum(at, stop[:, None], out=at)
    cells = buf[at].astype(np.uint32)
    cells[cells == ord(",")] = 0  # past the cell's end: NUL pads a str
    return cells.view(f"U{width}").ravel()


# ---------------------------------------------------------------------------
# pricing experiment: uniform vs per-group vs personalized
# ---------------------------------------------------------------------------


def _histogram(prices, weights, lo, hi, bins=25):
    # shared edges across policies keep the histograms comparable
    counts, edges = np.histogram(np.asarray(prices, dtype=float), bins=bins,
                                 range=(lo, hi),
                                 weights=np.asarray(weights, dtype=float))
    return {"edges": [float(e) for e in edges],
            "counts": [float(c) for c in counts]}


def run_pricing_experiment(model, population: Population,
                           interval: PriceInterval) -> dict:
    """Price one market three ways and compare revenue and access.

    Modes: ``uniform`` (one price), ``group`` (one price per group), and
    ``personalized`` (one price per population cell). Every mode maximizes
    expected margin ``(p - population.unit_cost) * D`` under the same
    demand model. Returns a dict mode -> {policy, revenue, margin, access,
    price_mean, histogram}.
    """
    cost = population.unit_cost
    cells = population.cells()
    groups, w = cells.groups, cells.mass

    # one weight row for the uniform price, then one per group with cells
    present = sorted((groups[k], k) for k in np.unique(cells.g).tolist())
    weights = np.array([w, *(np.where(cells.g == k, w, 0.0) for _, k in present)])
    cell_terms = model.row_terms(cells.X, cells.g, groups)
    prices = maximize_rows(
        lambda rows, p: (p - cost) * cells.curve(model, p, weights[rows],
                                                 terms=cell_terms),
        len(weights), interval)[0].tolist()
    out = {"uniform": ConstantPolicy(prices[0]), "group": GroupPolicy(
        prices={g: q for (g, _), q in zip(present, prices[1:])})}

    # one solve per (support point, group) that the policy's matcher finds;
    # record cells take their distinct rows, first appearances, as support
    if cells.index is None:
        support = cells.X[np.sort(distinct_rows(cells.X)[0])]
        index = first_hits(support, cells.X)
    else:
        support, index = population.support, population.support_classes[cells.index]
    first = np.unique(index * len(cells.groups) + cells.g, return_index=True)[1]
    terms = model.row_terms(support[index[first]], cells.g[first], groups)
    prices = maximize_rows(
        lambda rows, p: (p - cost) * model.kernels(take_rows(terms, rows), p,
                                                   "demand")[0],
        len(first), interval)[0]
    at = index[first], cells.g[first]
    table = np.zeros((len(support), len(groups)))
    present = np.zeros(table.shape, dtype=bool)
    table[at], present[at] = prices, True
    out["personalized"] = TabularPolicy(support, groups, table, present)

    report = {}
    for mode, policy in out.items():
        p, d, revenue, by_group = cells.evaluate(policy, model)
        report[mode] = {
            "policy": policy,
            "revenue": revenue,
            "margin": seqsum(w * (p - cost) * d),
            "access": {g: s["access"] for g, s in by_group.items()},
            "price_mean": {g: s["price_mean"] for g, s in by_group.items()},
            "histogram": _histogram(p, w, interval.lo, interval.hi),
        }
    return report


# ---------------------------------------------------------------------------
# kernel off-policy evaluation
# ---------------------------------------------------------------------------


# cells (rows x records) in a block of resamples or candidates, at least one row
_BLOCK_CELLS = 2 ** 14


class _KernelLog:
    """A log as kernel OPE reads it: each record's price (its index into the
    sorted logged ``levels``), demand, weight and behavior mass (its level's
    weighted frequency), the price range and the ``bandwidth``. A record's
    kernel factor ``kernel((target - logged) / h) / h`` depends only on its
    price class (the records one target price covers) and its level, so it
    is evaluated once per (class, level) pair. The methods take blocks of up
    to :attr:`block` rows, one per resample or candidate, and sum each row;
    a block is C-ordered, so that a row's sum has a one-row sum's bits (a
    gather along a row uses ``take``: ``a[:, codes]`` is Fortran-ordered).
    Raises when the bandwidth is not positive and finite, a price or demand
    cell is empty or the logged prices all tie."""

    def __init__(self, records: RecordTable, bandwidth: float):
        check_bandwidth(bandwidth)
        table = records.require("price", "demand")
        self.levels, level_of = table.price_levels
        if self.levels.size < 2:
            raise MissingFieldError(
                "logged prices carry no variation; off-policy weights undefined")
        # the narrowest codes make the bootstrap's gathers cheap
        self.level_of = level_of.astype(np.min_scalar_type(self.levels.size))
        self.demand, self.weight = table.demand, table.weight
        self.masses = (np.bincount(level_of, weights=self.weight)
                       / self.weight.sum())[level_of]
        self.width = float(self.levels[-1] - self.levels[0])
        self.bandwidth = bandwidth
        self.block = max(1, _BLOCK_CELLS // len(level_of))  # rows

    def pairs(self, class_of) -> tuple:
        """``(pair_class, pair_price, pair_of)``: each (class, level) pair in
        the log and every record's pair code (``intp``: an index array of a
        narrower dtype is cast on every gather)."""
        keys, pair_of = np.unique(class_of * self.levels.size + self.level_of,
                                  return_inverse=True)
        pair_class, level = np.divmod(keys, self.levels.size)
        return pair_class, self.levels[level], pair_of

    def weighted(self, prices, pairs, width):
        """Each record's weight times its kernel factor, per row of class
        ``prices``: the class ``c`` of the :meth:`pairs` priced at ``prices[...,
        c]`` and the kernel ``bandwidth`` times ``width`` wide."""
        h = self.bandwidth * width
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            u = (prices.take(pairs[0], axis=-1) - pairs[1]) / h  # the argument
            # Epanechnikov: 1 - u * u is negative or nan where not |u| <= 1
            kernel = np.fmax(0.75 * (1.0 - u * u), 0.0)
            return self.weight * (kernel / h).take(pairs[2], axis=-1)

    def weights(self, weighted, masses, signal) -> tuple:
        """``(imp, rows)``: the importance weights of these :meth:`weighted`
        factors over behavior ``masses``, and each row's :meth:`value` input:
        the value of revenue ``signal`` (target price x demand), the weights'
        sum and their sum of squares, as floats."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            imp = weighted / masses
            total, squares = imp.sum(axis=1), (imp * imp).sum(axis=1)
            value = (imp * signal).sum(axis=1) / total
        return imp, zip(value.tolist(), total.tolist(), squares.tolist())

    def value(self, value, total, squares) -> float:
        """A row's :meth:`weights` ``value``; raises when its weights overflow
        (a bandwidth too narrow for floats) and when they all vanish."""
        if not all(map(math.isfinite, (total, total * total, squares))):
            raise MissingFieldError(
                f"bandwidth {self.bandwidth!r} is too narrow: the "
                f"kernel weights overflow")
        if total <= 0.0:
            raise EmptyWeightError(
                "no logged interaction falls inside the kernel window of the "
                "target policy")
        return value


def ope_estimate(records: RecordTable, policy,
                 bandwidth: float = 0.3) -> dict:
    """Kernel-smoothed off-policy estimate of a policy's expected revenue,
    with how much of the log its importance weights use.

    Each record is weighted by kernel proximity of its logged price to the
    policy's price for that customer (a kernel ``bandwidth`` times the logged
    price range wide), divided by the weighted frequency of the logged level;
    the revenue signal is ``target price x logged demand`` over the summed
    weights. Raises when every kernel weight vanishes (policy prices too far
    from the data).

    Returns ``value``, the estimate; ``ess``, the Kish effective sample size
    ``(sum imp)^2 / sum imp^2``; ``window_share``, the weighted share of
    records inside the kernel window (nonzero weight); and
    ``max_weight_share``, the largest single weight over the summed weights.
    """
    log = _KernelLog(records, bandwidth)
    target = policy.price_batch(records.X, records.codes, records.labels)
    prices, class_of = np.unique(target, return_inverse=True)
    imp, ((value, total, squares),) = log.weights(  # a block of one row
        log.weighted(prices[None], log.pairs(class_of), log.width),
        log.masses, target * log.demand)
    w = records.weight
    return {"value": log.value(value, total, squares),
            "ess": total * total / squares,
            "window_share": float(w[imp[0] > 0.0].sum() / w.sum()),
            "max_weight_share": float(imp.max() / total)}


def check_bandwidth(bandwidth) -> None:
    """Raise MissingFieldError unless ``bandwidth`` is positive and finite."""
    if not (0.0 < bandwidth < math.inf):
        raise MissingFieldError("bandwidth must be positive and finite")


def check_n_boot(n_boot) -> None:
    """Raise MissingFieldError unless ``n_boot >= 2``."""
    if n_boot < 2:
        raise MissingFieldError("n_boot must be at least 2")


def ope_bootstrap_se(records: RecordTable, policy,
                     bandwidth: float = 0.3, n_boot: int = 200,
                     seed: int = 0) -> tuple:
    """``(std_error, skipped)``: the bootstrap standard error of the
    :func:`ope_estimate` value over record resamples, and how many resamples
    it skipped by cause, ``{"empty_window": k, "tied_prices": m}`` (an empty
    kernel window; logged prices that all tie). The log's weighted kernel
    factors are computed once, at its price range; a resample without the
    lowest or the highest level is narrower and has them computed again.
    Resamples go ``b`` at a time: one ``(b, n)`` draw (``b`` draws of ``n``,
    bit for bit), one ``bincount`` of their level masses and one pass over
    the block. Ties are skipped; then, in order, an overflow raises and an
    empty kernel window is skipped."""
    check_n_boot(n_boot)
    log = _KernelLog(records, bandwidth)
    target = policy.price_batch(records.X, records.codes, records.labels)
    prices, class_of = np.unique(target, return_inverse=True)
    pairs, levels, signal = log.pairs(class_of), log.levels, target * log.demand
    full = log.weighted(prices, pairs, log.width)
    rng, values, n = np.random.default_rng(seed), [], len(target)
    skipped = {"empty_window": 0, "tied_prices": 0}
    for start in range(0, n_boot, log.block):
        idx = rng.integers(0, n, size=(min(log.block, n_boot - start), n))
        code = log.level_of[idx] + levels.size * np.arange(len(idx))[:, None]
        weight = log.weight[idx]  # positive: a level with mass is present
        mass = np.bincount(code.ravel(), weight.ravel(), len(idx) * levels.size)
        present = mass.reshape(-1, levels.size) != 0.0
        width = (levels[levels.size - 1 - present[:, ::-1].argmax(axis=1)]
                 - levels[present.argmax(axis=1)])
        weighted, kept = full[idx], width > 0.0
        for row in np.flatnonzero(kept & (width != log.width)):
            weighted[row] = log.weighted(prices, pairs, width[row])[idx[row]]
        mass /= np.repeat(weight.sum(axis=1), levels.size)
        skipped["tied_prices"] += len(idx) - int(kept.sum())
        for row in itertools.compress(log.weights(
                weighted, mass[code], signal[idx])[1], kept):
            try:
                values.append(log.value(*row))
            except EmptyWeightError:
                skipped["empty_window"] += 1
    if len(values) < 2:
        raise EmptyWeightError("bootstrap produced no usable resamples")
    return float(np.std(np.asarray(values), ddof=1)), skipped


# ---------------------------------------------------------------------------
# off-policy linear policy search
# ---------------------------------------------------------------------------


@dataclass
class PolicySearchResult:
    policy: LinearPolicy
    value: float
    trace: list


# times the policy search halves its pattern step
_SEARCH_HALVINGS = 6


def optimize_linear_policy(records: RecordTable,
                           bandwidth: float = 0.3,
                           clip_lo: float | None = None,
                           clip_hi: float | None = None,
                           n_starts: int = 16,
                           seed: int = 0) -> PolicySearchResult:
    """Maximize the OPE value over clipped linear pricing policies.

    Coordinate pattern search from multiple starts. The first starts are
    deterministic flat policies pinned at each observed price level (so the
    search result is never worse than the best constant policy); remaining
    starts draw random coefficients from ``seed``. Steps begin at 10% of the
    clip range and halve ``_SEARCH_HALVINGS`` times. Ties keep the earliest
    start. ``n_starts`` must be at least 1.
    """
    if n_starts < 1:
        raise MissingFieldError("n_starts must be at least 1")
    log = _KernelLog(records, bandwidth)
    prices = records.price_levels[0].tolist()
    lo = min(prices) if clip_lo is None else float(clip_lo)
    hi = max(prices) if clip_hi is None else float(clip_hi)
    dim = records.X.shape[1]
    # the policy's own clip-range check, before a start is drawn in it
    LinearPolicy(theta=np.zeros(dim), intercept=lo, clip_lo=lo, clip_hi=hi)
    rows, row_of = records.strata  # the blind policy's price classes
    pairs, memo = log.pairs(row_of), {}

    def evaluate(vecs) -> list:
        # each candidate's OPE value (-inf for an empty kernel window): one
        # met before is looked up, new ones go ``log.block`` at a time
        keys = [vec.tobytes() for vec in vecs]
        new = [*{key: vec for key, vec in zip(keys, vecs)
                 if key not in memo}.items()]
        for at in range(0, len(new), log.block):
            row_prices = np.array([LinearPolicy(
                theta=vec[1:], intercept=vec[0], clip_lo=lo,
                clip_hi=hi).price_batch(rows, np.zeros(len(rows), np.intp),
                                        records.labels)
                for _, vec in new[at:at + log.block]])
            for (key, _), row in zip(new[at:], log.weights(
                    log.weighted(row_prices, pairs, log.width), log.masses,
                    row_prices.take(row_of, axis=1) * log.demand)[1]):
                try:
                    memo[key] = log.value(*row)
                except EmptyWeightError:
                    memo[key] = -math.inf
        return [memo[key] for key in keys]

    rng = np.random.default_rng(seed)
    starts = [np.concatenate([[lvl], np.zeros(dim)]) for lvl in prices]
    while len(starts) < n_starts:
        starts.append(np.concatenate([[rng.uniform(lo, hi)], rng.normal(
            0.0, 0.25 * (hi - lo), size=dim)]))

    # a sweep evaluates all its candidates, each coordinate moved by +step
    # then by -step, before it chooses a move
    moves = np.arange(2 * dim + 2), np.arange(2 * dim + 2) // 2
    signs = np.tile([1.0, -1.0], dim + 1)
    best_vec, best_val = None, -math.inf
    trace = []
    for si, (vec, val) in enumerate(zip(starts, evaluate(starts))):
        for halving in range(_SEARCH_HALVINGS + 1):
            step = 0.1 * (hi - lo) * 0.5 ** halving
            while True:
                cands = np.repeat(vec[None], len(signs), axis=0)
                cands[moves] += signs * step
                best_move, best_move_val = None, val
                for cand, cand_val in zip(cands, evaluate(cands)):
                    if cand_val > best_move_val + 1e-15:
                        best_move, best_move_val = cand, cand_val
                if best_move is None:
                    break
                vec, val = best_move, best_move_val
        trace.append({"start": si, "value": val})
        if val > best_val + 1e-12:
            best_vec, best_val = vec, val
    if best_vec is None or not math.isfinite(best_val):
        raise EmptyWeightError("no starting policy produced usable weights")
    policy = LinearPolicy(theta=best_vec[1:], intercept=float(best_vec[0]),
                          clip_lo=lo, clip_hi=hi)
    return PolicySearchResult(policy=policy, value=float(best_val),
                              trace=trace)
