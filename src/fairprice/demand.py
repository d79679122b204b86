"""Demand primitives: records, populations, and the three demand families.

The package works with three response models:

* ``PartiallyLinearDemand`` -- expected demand ``dbar(x, a) + beta_a * p`` with a
  strictly negative per-group slope. Values are model-scale reals and are NOT
  clamped to [0, 1]; clamping happens only when Bernoulli outcomes are drawn.
* ``LogisticDemand`` -- take-up probability ``sigmoid(gamma . x + beta * p + c)``.
  The group label is not an input; groups differ only through their covariates.
* ``LatentValuationModel`` -- a buyer values the product at
  ``V = loc(x, a) + scale * eps`` with ``eps`` from a log-concave noise family,
  and purchases iff ``V >= p``.

Records travel as CSV with header ``id,group,x1,...,xk,price,demand,outcome,
valuation,weight`` (UTF-8, '.' decimal, empty cell = missing); the reader and
writer live in :mod:`fairprice.sim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.special import expit, ndtr

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    InvalidRecordError,
    MissingFieldError,
    MissingSupportError,
    PerfectSeparationError,
    SingularDesignError,
    UnknownGroupError,
    UpwardSlopeError,
)
from .util import seqsum

CSV_LEADING_COLUMNS = ("id", "group")
CSV_TRAILING_COLUMNS = ("price", "demand", "outcome", "valuation", "weight")

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# noise families for the latent-valuation model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseFamily:
    """Standardized (location 0, scale 1) log-concave noise distribution.

    ``sf`` is the survival function ``1 - cdf``, in a form that keeps its
    precision in the upper tail where the family has one. ``pdf_prime`` is
    the derivative of the density, needed for analytic revenue curvature.
    ``sample`` draws from the numpy generator passed in.
    """

    name: str
    cdf: callable
    sf: callable
    pdf: callable
    pdf_prime: callable
    sample: callable


def _normal_cdf(z):
    return ndtr(z)


def _normal_pdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


def _logistic_cdf(z):
    return expit(z)


def _logistic_pdf(z):
    s = expit(z)
    return s * (1.0 - s)


def _logistic_pdf_prime(z):
    s = expit(z)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


def _exponential_cdf(z):
    z = np.asarray(z, dtype=float)
    return np.where(z < 0.0, 0.0, -np.expm1(-np.clip(z, 0.0, None)))


def _exponential_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.where(z < 0.0, 0.0, np.exp(-np.clip(z, 0.0, None)))


def _exponential_pdf_prime(z):
    z = np.asarray(z, dtype=float)
    return np.where(z < 0.0, 0.0, -np.exp(-np.clip(z, 0.0, None)))


def _laplace_cdf(z):
    z = np.asarray(z, dtype=float)
    return np.where(z < 0.0, 0.5 * np.exp(np.clip(z, None, 0.0)),
                    1.0 - 0.5 * np.exp(-np.clip(z, 0.0, None)))


def _laplace_pdf(z):
    return 0.5 * np.exp(-np.abs(z))


def _laplace_pdf_prime(z):
    z = np.asarray(z, dtype=float)
    return -np.sign(z) * 0.5 * np.exp(-np.abs(z))


def _gumbel_cdf(z):
    return np.exp(-np.exp(-np.asarray(z, dtype=float)))


def _gumbel_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-z - np.exp(-z))


def _gumbel_pdf_prime(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-z - np.exp(-z)) * (np.exp(-z) - 1.0)


NOISE_FAMILIES: dict[str, NoiseFamily] = {
    "normal": NoiseFamily(
        "normal", _normal_cdf, lambda z: ndtr(-z), _normal_pdf,
        lambda z: -np.asarray(z, dtype=float) * _normal_pdf(z),
        lambda rng, size=None: rng.standard_normal(size),
    ),
    "logistic": NoiseFamily(
        "logistic", _logistic_cdf, lambda z: expit(-z),
        _logistic_pdf, _logistic_pdf_prime,
        lambda rng, size=None: rng.logistic(0.0, 1.0, size),
    ),
    "exponential": NoiseFamily(
        "exponential", _exponential_cdf, lambda z: 1.0 - _exponential_cdf(z),
        _exponential_pdf, _exponential_pdf_prime,
        lambda rng, size=None: rng.exponential(1.0, size),
    ),
    "laplace": NoiseFamily(
        "laplace", _laplace_cdf, lambda z: 1.0 - _laplace_cdf(z),
        _laplace_pdf, _laplace_pdf_prime,
        lambda rng, size=None: rng.laplace(0.0, 1.0, size),
    ),
    "gumbel": NoiseFamily(
        "gumbel", _gumbel_cdf, lambda z: -np.expm1(-np.exp(-z)),
        _gumbel_pdf, _gumbel_pdf_prime,
        lambda rng, size=None: rng.gumbel(0.0, 1.0, size),
    ),
}


# ---------------------------------------------------------------------------
# records and populations
# ---------------------------------------------------------------------------


@dataclass
class Record:
    """One customer interaction.

    Optional fields are ``None`` when unobserved. ``weight`` is a positive
    sampling weight used by every record-level expectation.
    """

    id: str
    group: str
    covariates: np.ndarray
    price: float | None = None
    demand: float | None = None
    outcome: float | None = None
    valuation: float | None = None
    weight: float = 1.0

    def __post_init__(self):
        self.covariates = np.asarray(self.covariates, dtype=float).reshape(-1)
        if not np.all(np.isfinite(self.covariates)):
            raise InvalidRecordError(f"record {self.id}: non-finite covariate")
        if not (self.weight > 0.0):
            raise InvalidRecordError(f"record {self.id}: weight must be positive")


@dataclass(eq=False)
class RecordTable:
    """Records as columns: the one container every record-level path reads.

    ``labels`` are the sorted group labels and ``codes`` index them per row;
    ``X`` is the (n, k) covariate matrix. In the float columns NaN means only
    "empty cell"; ``weight`` is never empty. Build tables with
    :func:`as_table`, :meth:`from_arrays` or
    :func:`fairprice.sim.read_records_csv`, which validate every cell.
    Integer indexing and iteration yield :class:`Record` rows, slicing and
    :meth:`take` yield tables.
    """

    ids: np.ndarray
    labels: tuple
    codes: np.ndarray
    X: np.ndarray
    price: np.ndarray
    demand: np.ndarray
    outcome: np.ndarray
    valuation: np.ndarray
    weight: np.ndarray

    @classmethod
    def from_arrays(cls, ids, groups, X, values, present, where) -> "RecordTable":
        """Validated table from parsed arrays.

        ``values`` and ``present`` are (n, 5) arrays with the columns of
        ``CSV_TRAILING_COLUMNS``; a cell that is not present is empty (an
        empty weight means 1). Present cells must be finite and weights
        positive; ``where(i)`` names row ``i`` in error messages.
        """
        weight = np.where(present[:, -1], values[:, -1], 1.0)
        checks = [("covariates must be given and finite",
                   np.isfinite(X).all(axis=1))]
        checks += [(f"{name} must be finite",
                    np.isfinite(values[:, j]) | ~present[:, j])
                   for j, name in enumerate(CSV_TRAILING_COLUMNS)]
        checks.append(("weight must be positive", weight > 0.0))
        for problem, ok in checks:
            if not ok.all():
                raise InvalidRecordError(f"{where(np.argmin(ok))}: {problem}")
        cols = np.where(present[:, :-1], values[:, :-1], np.nan).T.copy()
        labels, codes = np.unique(np.asarray(groups, dtype=str),
                                  return_inverse=True)
        return cls(ids=np.asarray(ids, dtype=str),
                   labels=tuple(str(g) for g in labels),
                   codes=codes.reshape(-1), X=X, price=cols[0],
                   demand=cols[1], outcome=cols[2], valuation=cols[3],
                   weight=weight)

    def __len__(self) -> int:
        return self.ids.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(np.arange(len(self))[index])
        i = int(index)
        cells = {name: float(getattr(self, name)[i])
                 for name in CSV_TRAILING_COLUMNS}
        cells.update((name, None) for name, v in cells.items() if math.isnan(v))
        return Record(id=str(self.ids[i]), group=self.labels[self.codes[i]],
                      covariates=self.X[i].copy(), **cells)

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def take(self, idx) -> "RecordTable":
        """The rows at integer positions ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        rows = ("ids", "codes", "X") + CSV_TRAILING_COLUMNS
        return RecordTable(labels=self.labels,
                           **{name: getattr(self, name)[idx] for name in rows})

    @cached_property
    def strata(self) -> tuple:
        """``(rows, row_of)``: the distinct covariate rows in sorted order and
        the index into them of every record. Computed once per table, since
        ``X`` is never written after construction."""
        rows, row_of = np.unique(self.X, axis=0, return_inverse=True)
        return rows, row_of.reshape(-1)

    @cached_property
    def group(self) -> np.ndarray:
        """Group label of every row (an object array of ``str``), built once
        per table: ``labels`` and ``codes`` are never written after
        construction."""
        return np.array(self.labels, dtype=object)[self.codes]

    def require(self, *names) -> "RecordTable":
        """This table, once checked to have rows and no empty cell in the
        ``names`` columns; raises MissingFieldError naming the first gap."""
        if not len(self):
            raise MissingFieldError("no records")
        for name in names:
            empty = np.flatnonzero(np.isnan(getattr(self, name)))
            if empty.size:
                raise MissingFieldError(
                    f"record {self.ids[empty[0]]}: {name} missing")
        return self


def as_table(records) -> RecordTable:
    """``records`` as a validated RecordTable.

    A table passes through; :class:`Record` rows are converted, ``None``
    fields becoming empty cells.
    """
    if isinstance(records, RecordTable):
        return records
    records = list(records)
    dim = records[0].covariates.size if records else 0
    odd = [r.id for r in records if r.covariates.size != dim]
    if odd:
        raise DimensionMismatchError(
            f"record {odd[0]}: expected {dim} covariates like the first record")
    cells = np.array([[getattr(r, name) for name in CSV_TRAILING_COLUMNS]
                      for r in records], dtype=object)
    cells = cells.reshape(len(records), len(CSV_TRAILING_COLUMNS))
    present = cells != None  # noqa: E711
    values = np.where(present, cells, np.nan).astype(float)
    ids = [r.id for r in records]
    X = np.array([r.covariates for r in records]).reshape(len(records), dim)
    return RecordTable.from_arrays(ids, [r.group for r in records], X, values,
                                  present, lambda i: f"record {ids[i]}")


@dataclass
class Population:
    """A reference population: group priors plus, optionally, a discrete support.

    ``support`` rows are covariate vectors with point masses ``masses`` and
    per-point group membership probabilities ``membership`` (rows sum to one).
    The group priors ``rho`` must be the membership-weighted masses; they are
    computed when omitted and validated when given. ``records`` (a
    RecordTable, or Record rows converted to one) are optional and used by
    record-level estimators; the analytic solvers only touch the support.
    """

    groups: tuple
    records: RecordTable | list = field(default_factory=list)
    support: np.ndarray | None = None
    masses: np.ndarray | None = None
    membership: np.ndarray | None = None
    rho: dict | None = None
    unit_cost: float = 0.0

    def __post_init__(self):
        self.groups = tuple(str(g) for g in self.groups)
        if len(set(self.groups)) != len(self.groups):
            raise InvalidRecordError("duplicate group labels")
        if self.support is not None:
            self.support = np.atleast_2d(np.asarray(self.support, dtype=float))
            self.masses = np.asarray(self.masses, dtype=float).reshape(-1)
            if self.masses.shape[0] != self.support.shape[0]:
                raise DimensionMismatchError("one mass per support point required")
            if np.any(self.masses < -1e-12) or abs(self.masses.sum() - 1.0) > 1e-9:
                raise InvalidRecordError("support masses must be nonnegative and sum to 1")
            if self.membership is not None:
                self.membership = np.asarray(self.membership, dtype=float)
                if self.membership.shape != (self.support.shape[0], len(self.groups)):
                    raise DimensionMismatchError(
                        "membership must be (n_support, n_groups)")
                if np.any(self.membership < -1e-12):
                    raise InvalidRecordError("membership probabilities must be >= 0")
                rowsums = self.membership.sum(axis=1)
                if np.any(np.abs(rowsums - 1.0) > 1e-9):
                    raise InvalidRecordError("membership rows must sum to 1")
                implied = self.masses @ self.membership
                if self.rho is None:
                    self.rho = {g: float(implied[k]) for k, g in enumerate(self.groups)}
                else:
                    for k, g in enumerate(self.groups):
                        if abs(self.rho.get(g, np.nan) - implied[k]) > 1e-7:
                            raise InvalidRecordError(
                                f"rho[{g}] inconsistent with support membership")
        if self.rho is not None:
            missing = [g for g in self.groups if g not in self.rho]
            if missing:
                raise UnknownGroupError(f"rho missing groups {missing}")
            total = sum(self.rho[g] for g in self.groups)
            if abs(total - 1.0) > 1e-9:
                raise InvalidRecordError("group priors must sum to 1")
        self.records = as_table(self.records)
        unknown = [g for g in self.records.labels if g not in self.groups]
        if unknown:
            raise UnknownGroupError(f"records carry unknown group {unknown[0]!r}")

    # -- convenience accessors -------------------------------------------

    def group_index(self, group: str) -> int:
        try:
            return self.groups.index(group)
        except ValueError:
            raise UnknownGroupError(f"unknown group {group!r}") from None

    def joint_weights(self) -> np.ndarray:
        """P(X = x_i, A = g) over the support, shape (n_support, n_groups)."""
        if self.support is None or self.membership is None:
            raise MissingSupportError(
                "population has no discrete support with membership probabilities")
        return self.masses[:, None] * self.membership

    def rho_vector(self) -> np.ndarray:
        return np.array([self.rho[g] for g in self.groups], dtype=float)

    def cells(self) -> "Cells":
        """The population as weighted cells, one array per field.

        With a support and membership: every (support point, group) pair of
        positive joint weight, support-major. Otherwise every record, weighted
        by its share of the total record weight. Raises MissingFieldError
        when the population has neither.
        """
        if self.support is not None and self.membership is not None:
            joint = self.joint_weights()
            index, g = np.nonzero(joint > 0.0)
            return Cells(joint[index, g], g, self.support[index], index,
                         self.groups)
        table = self.records
        if not table:
            raise MissingFieldError("population has neither support nor records")
        share = table.weight / sum(table.weight.tolist())
        code = np.array([self.groups.index(g) for g in table.labels],
                        dtype=np.intp)
        return Cells(share, code[table.codes], table.X, None, self.groups)


class Cells(NamedTuple):
    """Weighted population cells (see :meth:`Population.cells`).

    ``g`` indexes ``groups`` per cell; ``index`` is the support row of each
    cell, or None for record cells.
    """

    mass: np.ndarray
    g: np.ndarray
    X: np.ndarray
    index: np.ndarray | None
    groups: tuple

    @property
    def labels(self) -> np.ndarray:
        """Group label of every cell (an object array of ``str``)."""
        return np.array(self.groups, dtype=object)[self.g]

    def totals(self, k: int, *terms) -> list:
        """Each per-cell ``terms`` array summed over the cells of group
        ``k``, in cell order."""
        rows = self.g == k
        return [seqsum(t[rows]) for t in terms]

    def evaluate(self, policy, model):
        """``(p, d, stats)``: the price and model demand of every cell under
        ``policy``, and per group index the cell-order totals ``(mass,
        mass * demand, mass * price)``."""
        p = policy.price_batch(self.X, self.labels)
        d = model.demand(self.X, self.g, p, self.groups)
        w = self.mass
        return p, d, [self.totals(k, w, w * d, w * p)
                      for k in range(len(self.groups))]


# ---------------------------------------------------------------------------
# demand models
# ---------------------------------------------------------------------------
#
# Each family evaluates ``demand``, ``gradient`` and ``curvature`` at once for
# the rows of an (n, k) covariate matrix ``X``: ``g`` indexes the label tuple
# ``groups`` per row, and prices ``p`` broadcast against the rows along their
# first axis (one price, one per row, or an (n or 1, m) grid). One customer is
# a (k,) row ``X`` with one index ``g``; the scalar functions below evaluate
# that form. Row terms use the per-row dot of ``_row_dots``, so a row of a
# matrix gets the very bits the same row gets alone.


def _row_dots(X, coefs):
    """``coefs @ x`` for every row ``x`` of ``X`` (or the one row ``X``).

    A stack of (1, k) @ (k,) products takes the same BLAS dot per row as the
    1-D product; ``X @ coefs`` sums in another order and changes last bits.
    """
    if X.ndim == 1:
        return coefs @ X
    return (np.ascontiguousarray(X)[:, None, :] @ coefs)[:, 0]


def _along(rows, p):
    """Per-row values shaped to broadcast with prices ``p``."""
    if isinstance(p, float) or np.ndim(p) < 2 or not np.ndim(rows):
        return rows
    return rows.reshape(rows.shape + (1,) * (np.ndim(p) - 1))


def _used_labels(g, groups, known) -> list:
    """The indices into ``groups`` that ``g`` uses, in order of first use;
    raises UnknownGroupError for the first label ``known`` lacks."""
    if np.ndim(g) == 0:
        used = [int(g)]
    elif len(groups) == 1:
        used = [0]
    else:
        used = list(dict.fromkeys(np.asarray(g).tolist()))
    for j in used:
        if groups[j] not in known:
            raise UnknownGroupError(f"unknown group {groups[j]!r}")
    return used


def _affine_rows(X, g, groups, params, known, what) -> np.ndarray:
    """``intercept + coefs @ x`` per row, with the ``(intercept, coefs)`` of
    the row's group in ``params``."""
    X = np.asarray(X, dtype=float)
    used = _used_labels(g, groups, known)
    out = np.empty(X.shape[:-1])
    for j in used:
        intercept, coefs = params[groups[j]]
        coefs = np.asarray(coefs, dtype=float).reshape(-1)
        if coefs.size != X.shape[-1]:
            raise DimensionMismatchError(
                f"{what} expects {coefs.size} covariates, got {X.shape[-1]}")
        rows = ... if len(used) == 1 else np.asarray(g) == j
        out[rows] = intercept + _row_dots(X[rows], coefs)
    return out


@dataclass
class PartiallyLinearDemand:
    """Expected demand ``dbar(x, a) + beta_a * p``, unclamped.

    ``baseline`` holds the intercept term ``dbar``: with ``baseline_form ==
    "linear"`` it maps group -> (intercept, coefficient vector); with
    ``"table"`` it maps group -> {covariate tuple -> value} over a discrete
    support. Slopes must be strictly negative per group unless
    ``allow_upward`` is set (used only to carry an explicitly overridden fit).
    """

    beta: dict
    baseline: dict
    baseline_form: str = "linear"
    allow_upward: bool = False

    def __post_init__(self):
        if self.baseline_form not in ("linear", "table"):
            raise InvalidRecordError(f"unknown baseline form {self.baseline_form!r}")
        for g, b in self.beta.items():
            if g not in self.baseline:
                raise UnknownGroupError(f"baseline missing group {g!r}")
            if b >= 0.0 and not self.allow_upward:
                raise UpwardSlopeError(
                    f"group {g!r}: price slope {b:g} is not negative")

    def baseline_rows(self, X, g, groups) -> np.ndarray:
        """``dbar(x, a)`` of every row of ``X``."""
        if self.baseline_form == "linear":
            return _affine_rows(X, g, groups, self.baseline, self.beta,
                                "baseline")
        _used_labels(g, groups, self.beta)
        X = np.asarray(X, dtype=float)
        out = []
        for x, j in zip(np.atleast_2d(X).tolist(), np.ravel(g).tolist()):
            table = self.baseline[groups[j]]
            if tuple(x) not in table:
                raise DimensionMismatchError(
                    f"covariate point {tuple(x)} not in baseline table for "
                    f"group {groups[j]!r}")
            out.append(table[tuple(x)])
        return np.array(out, dtype=float).reshape(X.shape[:-1])

    def _slopes(self, g, groups):
        _used_labels(g, groups, self.beta)
        per_group = [float(self.beta.get(label, math.nan)) for label in groups]
        return np.array(per_group)[g]

    def dbar(self, x, group) -> float:
        """Baseline expected demand at zero price for one group or a mixture."""
        if isinstance(group, dict):
            return sum(w * self.dbar(x, g) for g, w in group.items())
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(self.baseline_rows(x, 0, (group,)))

    def slope(self, group) -> float:
        if isinstance(group, dict):
            return float(sum(w * self.slope(g) for g, w in group.items()))
        return float(self._slopes(0, (group,)))

    def demand(self, X, g, p, groups) -> np.ndarray:
        p = _check_price(self, p)
        dbar = _along(self.baseline_rows(X, g, groups), p)
        return dbar + _along(self._slopes(g, groups), p) * p

    def gradient(self, X, g, p, groups) -> np.ndarray:
        p = _check_price(self, p)
        slopes = _along(self._slopes(g, groups), p)
        return np.broadcast_to(slopes, np.broadcast_shapes(
            np.shape(slopes), np.shape(p))).copy()

    def curvature(self, X, g, p, groups) -> np.ndarray:
        p = _check_price(self, p)
        return np.zeros(np.shape(_along(np.zeros(np.shape(g)), p) + p))


@dataclass
class LogisticDemand:
    """Take-up probability ``sigmoid(gamma . x + beta * p + intercept)``.

    The kernels take ``g`` and ``groups`` like the other families and ignore
    them."""

    gamma: np.ndarray
    beta: float
    intercept: float = 0.0

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        self.beta = float(self.beta)
        self.intercept = float(self.intercept)

    def _sigmoid(self, X, p) -> np.ndarray:
        p = _check_price(self, p)
        X = np.asarray(X, dtype=float)
        if X.shape[-1] != self.gamma.size:
            raise DimensionMismatchError(
                f"model expects {self.gamma.size} covariates, got {X.shape[-1]}")
        index = _along(_row_dots(X, self.gamma), p) + self.beta * p
        return expit(index + self.intercept)

    def demand(self, X, g, p, groups) -> np.ndarray:
        return self._sigmoid(X, p)

    def gradient(self, X, g, p, groups) -> np.ndarray:
        s = self._sigmoid(X, p)
        return self.beta * s * (1.0 - s)

    def curvature(self, X, g, p, groups) -> np.ndarray:
        s = self._sigmoid(X, p)
        return self.beta ** 2 * s * (1.0 - s) * (1.0 - 2.0 * s)


@dataclass
class LatentValuationModel:
    """Valuation ``V = loc(x, a) + scale * noise``; purchase iff ``V >= p``.

    ``loc`` maps group -> (intercept, coefficient vector). The noise family
    must be one of the log-concave families in ``NOISE_FAMILIES`` so revenue
    under the implied demand curve is well behaved.
    """

    loc: dict
    noise: str = "logistic"
    scale: float = 1.0

    def __post_init__(self):
        if self.noise not in NOISE_FAMILIES:
            raise InvalidRecordError(
                f"unknown noise family {self.noise!r}; "
                f"choose from {sorted(NOISE_FAMILIES)}")
        if not (self.scale > 0.0):
            raise InvalidRecordError("noise scale must be positive")
        self.scale = float(self.scale)

    @property
    def family(self) -> NoiseFamily:
        return NOISE_FAMILIES[self.noise]

    def location_rows(self, X, g, groups) -> np.ndarray:
        """``loc(x, a)`` of every row of ``X``."""
        return _affine_rows(X, g, groups, self.loc, self.loc, "location")

    def location(self, x, group) -> float:
        if isinstance(group, dict):
            return sum(w * self.location(x, g) for g, w in group.items())
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(self.location_rows(x, 0, (group,)))

    def _z(self, X, g, p, groups) -> np.ndarray:
        p = _check_price(self, p)
        return (p - _along(self.location_rows(X, g, groups), p)) / self.scale

    def demand(self, X, g, p, groups) -> np.ndarray:
        return self.family.sf(self._z(X, g, p, groups))

    def gradient(self, X, g, p, groups) -> np.ndarray:
        return -self.family.pdf(self._z(X, g, p, groups)) / self.scale

    def curvature(self, X, g, p, groups) -> np.ndarray:
        return (-self.family.pdf_prime(self._z(X, g, p, groups))
                / self.scale ** 2)


DemandModel = (PartiallyLinearDemand, LogisticDemand, LatentValuationModel)


def _check_price(model, p):
    """``p`` as a float, or as a float array for an array of prices; raises
    for the first price that is not finite (or negative, except for
    partially linear demand)."""
    if not isinstance(p, float) and np.ndim(p):
        p = np.asarray(p, dtype=float)
        negative_ok = isinstance(model, PartiallyLinearDemand)
        for first in p[~np.isfinite(p) | ((p < 0.0) & (not negative_ok))][:1]:
            _check_price(model, first)
        return p
    p = float(p)
    if not math.isfinite(p):
        raise InvalidRecordError("price must be finite")
    if not isinstance(model, PartiallyLinearDemand) and p < 0.0:
        raise InvalidRecordError("price must be nonnegative for this demand family")
    return p


def _one_customer(kernel: str, model, x, group, p):
    """``kernel`` of ``model`` for one customer: a float at a scalar price,
    an array at an array of prices. A {label: weight} mixture sums its
    groups' values (logistic demand takes no group)."""
    p = _check_price(model, p)
    if not isinstance(model, DemandModel):
        raise TypeError(f"not a demand model: {type(model).__name__}")
    x = np.asarray(x, dtype=float).reshape(-1)
    evaluate = getattr(model, kernel)
    if isinstance(group, dict) and not isinstance(model, LogisticDemand):
        out = sum((w * evaluate(x, 0, p, (g,)) for g, w in group.items()),
                  np.zeros(np.shape(p)))
    else:
        out = evaluate(x, 0, p, (group,))
    return float(out) if isinstance(p, float) else out


def eval_demand(model, x, group, p):
    """Model-scale expected demand at price ``p`` (a float, or an array of
    prices for an array).

    ``group`` may be a label or a {label: weight} mixture (used for
    attribute-blind evaluation). Partially linear values are not clamped;
    logistic and latent values are probabilities by construction.
    """
    return _one_customer("demand", model, x, group, p)


def demand_gradient(model, x, group, p):
    """Analytic d demand / d price at ``p`` (mixtures sum their components)."""
    return _one_customer("gradient", model, x, group, p)


def demand_curvature(model, x, group, p):
    """Analytic d^2 demand / d price^2 at ``p``."""
    return _one_customer("curvature", model, x, group, p)


def sample_valuation(model: LatentValuationModel, x, group, rng) -> float:
    """One latent valuation draw ``loc(x, a) + scale * eps``."""
    if not isinstance(model, LatentValuationModel):
        raise TypeError("sample_valuation needs a LatentValuationModel")
    eps = float(model.family.sample(rng))
    return model.location(x, group) + model.scale * eps


def sample_demand(model, x, group, p, rng) -> int:
    """One realized purchase indicator at price ``p``.

    Latent models threshold a fresh valuation draw (purchase iff V >= p).
    The probabilistic families draw a single uniform and compare it with the
    clamped take-up rate, so a caller holding the rng can couple draws.
    """
    p = _check_price(model, p)
    if isinstance(model, LatentValuationModel):
        return int(sample_valuation(model, x, group, rng) >= p)
    rate = eval_demand(model, x, group, p)
    rate = min(1.0, max(0.0, rate))
    return int(rng.random() < rate)


def sample_demand_curve(model, x, group, prices, rng) -> np.ndarray:
    """Purchase indicators for one customer across several candidate prices.

    A single latent draw (valuation, or uniform threshold for the
    probabilistic families) is shared, so the result is nonincreasing in
    price by construction.
    """
    prices = _check_price(model, np.asarray(prices, dtype=float).reshape(-1))
    if isinstance(model, LatentValuationModel):
        v = sample_valuation(model, x, group, rng)
        return (v >= prices).astype(int)
    u = rng.random()
    rates = np.clip(eval_demand(model, x, group, prices), 0.0, 1.0)
    return (u < rates).astype(int)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------


@dataclass
class FitDiagnostics:
    """Optimizer trace summary returned next to a fitted model."""

    n_records: int
    iterations: int
    gradient_norm: float
    log_likelihood: float | None = None
    std_errors: np.ndarray | None = None
    residual_sum_squares: dict | None = None


def fit_logistic(records, max_iter=500, grad_tol=1e-8):
    """Maximum-likelihood logistic demand via damped Newton iterations.

    The price enters as one more covariate; coefficients are reported as
    (gamma, beta, intercept). Raises PerfectSeparationError when the
    likelihood is unbounded, SingularDesignError when some coefficient is
    unidentified, and ConvergenceError (with the final gradient norm) when
    the iteration cap is hit.

    Returns
    -------
    (LogisticDemand, FitDiagnostics)
    """
    table = as_table(records).require("price", "demand")
    dim = table.X.shape[1]
    X = np.column_stack([table.X, table.price, np.ones(len(table))])
    y, w = table.demand, table.weight
    if np.any((y != 0.0) & (y != 1.0)):
        raise InvalidRecordError("demand must be 0 or 1 for a logistic fit")
    if np.all(y == y[0]):
        raise PerfectSeparationError(
            "perfect separation: all demand outcomes identical; "
            "coefficients diverge")
    spread = np.ptp(X[:, :-1], axis=0)
    dead = np.where(spread == 0.0)[0]
    if dead.size:
        names = [f"x{j + 1}" if j < dim else "price" for j in dead]
        raise SingularDesignError(
            f"column(s) {', '.join(names)} carry no variation; "
            "coefficient unidentified")

    def loglik(eta):
        return float(w @ (y * eta - np.logaddexp(0.0, eta)))

    coef = np.zeros(X.shape[1])
    eta = X @ coef
    ll = loglik(eta)
    grad_norm = math.inf
    for iteration in range(1, max_iter + 1):
        mu = expit(eta)
        grad = X.T @ (w * (y - mu))
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < grad_tol:
            info = X.T @ (X * (w * mu * (1.0 - mu))[:, None])
            se = np.sqrt(np.diag(np.linalg.inv(info)))
            model = LogisticDemand(gamma=coef[:dim], beta=coef[dim],
                                   intercept=coef[dim + 1])
            return model, FitDiagnostics(
                n_records=len(table), iterations=iteration - 1,
                gradient_norm=grad_norm, log_likelihood=ll, std_errors=se)
        margins = (2.0 * y - 1.0) * eta
        if np.all(margins > 0.0) and float(np.max(np.abs(eta))) > 30.0:
            raise PerfectSeparationError(
                "perfect separation: a covariate direction splits the "
                "outcomes; likelihood unbounded")
        weights = w * mu * (1.0 - mu)
        hessian = X.T @ (X * weights[:, None])
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError:
            raise SingularDesignError(
                "singular information matrix; some coefficient unidentified"
            ) from None
        # the acceptance slack scales with |ll|: near the optimum a full step
        # changes ll by less than its rounding error, which grows with n
        slack = 1e-12 * max(1.0, abs(ll))
        scale = 1.0
        for _ in range(40):
            cand = coef + scale * step
            eta_cand = X @ cand
            ll_cand = loglik(eta_cand)
            if ll_cand > ll - slack:
                break
            scale *= 0.5
        coef, eta, ll = cand, eta_cand, ll_cand
    raise ConvergenceError(
        f"logistic fit did not converge in {max_iter} iterations "
        f"(gradient norm {grad_norm:.3e})", gradient_norm=grad_norm)


def fit_partially_linear(records, allow_upward=False):
    """Per-group least squares of demand on (price, covariates, intercept).

    A fitted nonnegative price slope raises UpwardSlopeError unless the
    caller explicitly opts in with ``allow_upward`` (the returned model then
    carries the override flag). Groups with rank-deficient designs, e.g. no
    price variation, raise SingularDesignError.
    """
    table = as_table(records).require("price", "demand")
    y, w = table.demand, table.weight
    beta, baseline, rss = {}, {}, {}
    for k, g in enumerate(table.labels):
        rows = table.codes == k
        Xg = np.column_stack([table.price[rows], table.X[rows],
                              np.ones(rows.sum())])
        yg = y[rows]
        sw = np.sqrt(w[rows])
        if np.ptp(Xg[:, 0]) == 0.0:
            raise SingularDesignError(
                f"group {g!r}: no price variation; slope unidentified")
        coef, _, rank, _ = np.linalg.lstsq(Xg * sw[:, None], yg * sw, rcond=None)
        if rank < Xg.shape[1]:
            raise SingularDesignError(
                f"group {g!r}: rank-deficient design ({rank} < {Xg.shape[1]})")
        slope = float(coef[0])
        if slope >= 0.0 and not allow_upward:
            raise UpwardSlopeError(
                f"group {g!r}: fitted price slope {slope:.6g} is not negative; "
                "demand must fall in price")
        beta[g] = slope
        baseline[g] = (float(coef[-1]), np.asarray(coef[1:-1], dtype=float))
        resid = yg - Xg @ coef
        rss[g] = float(w[rows] @ resid ** 2)
    model = PartiallyLinearDemand(beta=beta, baseline=baseline,
                                  baseline_form="linear",
                                  allow_upward=allow_upward)
    diag = FitDiagnostics(n_records=len(table), iterations=1,
                          gradient_norm=0.0, residual_sum_squares=rss)
    return model, diag


# ---------------------------------------------------------------------------
# model and population (de)serialization
# ---------------------------------------------------------------------------


def model_to_dict(model) -> dict:
    """JSON-ready description of a demand model."""
    if isinstance(model, PartiallyLinearDemand):
        if model.baseline_form == "linear":
            baseline = {g: {"intercept": float(icpt),
                            "coefs": [float(c) for c in np.atleast_1d(coefs)]}
                        for g, (icpt, coefs) in model.baseline.items()}
        else:
            baseline = {g: [{"x": [float(v) for v in key], "value": float(val)}
                            for key, val in sorted(table.items())]
                        for g, table in model.baseline.items()}
        return {"kind": "partially_linear",
                "baseline_form": model.baseline_form,
                "beta": {g: float(b) for g, b in model.beta.items()},
                "baseline": baseline,
                "allow_upward": model.allow_upward}
    if isinstance(model, LogisticDemand):
        return {"kind": "logistic",
                "gamma": [float(v) for v in model.gamma],
                "beta": model.beta,
                "intercept": model.intercept}
    if isinstance(model, LatentValuationModel):
        return {"kind": "latent", "noise": model.noise, "scale": model.scale,
                "loc": {g: {"intercept": float(icpt),
                            "coefs": [float(c) for c in np.atleast_1d(coefs)]}
                        for g, (icpt, coefs) in model.loc.items()}}
    raise TypeError(f"not a demand model: {type(model).__name__}")


def model_from_dict(data: dict):
    """Inverse of :func:`model_to_dict`."""
    kind = data.get("kind")
    if kind == "partially_linear":
        form = data.get("baseline_form", "linear")
        if form == "linear":
            baseline = {g: (float(entry["intercept"]),
                            np.asarray(entry["coefs"], dtype=float))
                        for g, entry in data["baseline"].items()}
        else:
            baseline = {g: {tuple(float(v) for v in row["x"]): float(row["value"])
                            for row in rows}
                        for g, rows in data["baseline"].items()}
        return PartiallyLinearDemand(
            beta={g: float(b) for g, b in data["beta"].items()},
            baseline=baseline, baseline_form=form,
            allow_upward=bool(data.get("allow_upward", False)))
    if kind == "logistic":
        return LogisticDemand(gamma=np.asarray(data["gamma"], dtype=float),
                              beta=float(data["beta"]),
                              intercept=float(data.get("intercept", 0.0)))
    if kind == "latent":
        loc = {g: (float(entry["intercept"]),
                   np.asarray(entry["coefs"], dtype=float))
               for g, entry in data["loc"].items()}
        return LatentValuationModel(loc=loc,
                                    noise=data.get("noise", "logistic"),
                                    scale=float(data.get("scale", 1.0)))
    raise MissingFieldError(f"unknown model kind {kind!r}")


def population_to_dict(population: Population) -> dict:
    """JSON-ready description of a population's support side (not records)."""
    out = {"groups": list(population.groups),
           "unit_cost": population.unit_cost}
    if population.support is not None:
        out["support"] = [[float(v) for v in row] for row in population.support]
        out["masses"] = [float(v) for v in population.masses]
        out["membership"] = [[float(v) for v in row]
                             for row in population.membership]
    if population.rho is not None:
        out["rho"] = {g: float(v) for g, v in population.rho.items()}
    return out


def population_from_dict(data: dict, records=None) -> Population:
    """Inverse of :func:`population_to_dict`; records may be attached."""
    if "groups" not in data:
        raise MissingFieldError("population description needs 'groups'")
    return Population(
        groups=tuple(data["groups"]),
        records=[] if records is None else records,
        support=np.asarray(data["support"], dtype=float)
        if data.get("support") is not None else None,
        masses=np.asarray(data["masses"], dtype=float)
        if data.get("masses") is not None else None,
        membership=np.asarray(data["membership"], dtype=float)
        if data.get("membership") is not None else None,
        rho=dict(data["rho"]) if data.get("rho") is not None else None,
        unit_cost=float(data.get("unit_cost", 0.0)))
