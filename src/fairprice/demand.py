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
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

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
from .optimize import _GRID_CELLS
from .util import json_field, json_number_map, json_numbers, json_rows, json_value, seqsum

CSV_LEADING_COLUMNS = ("id", "group")
CSV_TRAILING_COLUMNS = ("price", "demand", "outcome", "valuation", "weight")

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@cache
def scipy_special():
    """``scipy.special``, imported on first use: its import costs more than
    a whole audit, and only the curved demand families need it."""
    import scipy.special
    return scipy.special


# ---------------------------------------------------------------------------
# noise families for the latent-valuation model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NoiseFamily:
    """Standardized (location 0, scale 1) log-concave noise distribution.

    ``sf`` is the survival function ``1 - cdf``, in a form that keeps its
    precision in the upper tail where the family has one. ``pdf_prime`` is
    the derivative of the density, needed for analytic revenue curvature.
    ``sample`` draws from the numpy generator passed in. ``from_uniform``
    turns a list of doubles in (0, 1) into the draws ``sample`` makes from
    them, for the samplers that take exactly one double per draw; it is None
    for the ziggurat samplers (normal, exponential), which take a variable
    number.
    """

    name: str
    sf: callable
    pdf: callable
    pdf_prime: callable
    sample: callable
    from_uniform: callable = None


def _normal_pdf(z):
    return np.exp(-0.5 * np.square(z)) / _SQRT_2PI


# above this z, 1 - expit(z) has lost over 23 of its 53 bits to the rounding
# of expit(z) near 1, and all of them past z = 36.7, where expit(z) rounds to
# 1; expit(-z) keeps them
_LOGISTIC_TAIL = 16.0


def _logistic_upper(z, s):
    """``1 - s`` for ``s = expit(z)``, as ``expit(-z)`` above ``_LOGISTIC_TAIL``."""
    tail = np.greater(z, _LOGISTIC_TAIL)
    return np.where(tail, scipy_special().expit(-z), 1.0 - s) if tail.any() else 1.0 - s


def _logistic_pdf(z):
    s = scipy_special().expit(z)
    return s * _logistic_upper(z, s)


def _logistic_pdf_prime(z):
    s = scipy_special().expit(z)
    return s * _logistic_upper(z, s) * (1.0 - 2.0 * s)


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


def _gumbel_pdf(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-z - np.exp(-z))


def _gumbel_pdf_prime(z):
    z = np.asarray(z, dtype=float)
    return np.exp(-z - np.exp(-z)) * (np.exp(-z) - 1.0)


# numpy's one-double samplers at loc 0 and scale 1, formula for formula; they
# draw again on U == 0.0, so callers pass only positive doubles. math.log is
# the C library's log, as in numpy's samplers; np.log rounds some values
# differently.
def _logistic_from_uniform(u):
    log = math.log
    return [log(v / (1.0 - v)) for v in u]


def _laplace_from_uniform(u):
    log = math.log
    # 0.0 - y, as the sampler's loc - scale * y, gives +0.0 where y is 0.0
    return [0.0 - log(2.0 - v - v) if v >= 0.5 else log(v + v) for v in u]


def _gumbel_from_uniform(u):
    log = math.log
    return [0.0 - log(-log(1.0 - v)) for v in u]


NOISE_FAMILIES: dict[str, NoiseFamily] = {
    "normal": NoiseFamily(
        "normal", lambda z: scipy_special().ndtr(-z),
        _normal_pdf, lambda z: -np.asarray(z, dtype=float) * _normal_pdf(z),
        lambda rng, size=None: rng.standard_normal(size),
    ),
    "logistic": NoiseFamily(
        "logistic", lambda z: scipy_special().expit(-z),
        _logistic_pdf, _logistic_pdf_prime,
        lambda rng, size=None: rng.logistic(0.0, 1.0, size),
        _logistic_from_uniform,
    ),
    "exponential": NoiseFamily(
        "exponential", lambda z: 1.0 - _exponential_cdf(z),
        _exponential_pdf, _exponential_pdf_prime,
        lambda rng, size=None: rng.exponential(1.0, size),
    ),
    "laplace": NoiseFamily(
        "laplace", lambda z: 1.0 - _laplace_cdf(z),
        _laplace_pdf, _laplace_pdf_prime,
        lambda rng, size=None: rng.laplace(0.0, 1.0, size),
        _laplace_from_uniform,
    ),
    "gumbel": NoiseFamily(
        "gumbel", lambda z: -np.expm1(-np.exp(-z)),
        _gumbel_pdf, _gumbel_pdf_prime,
        lambda rng, size=None: rng.gumbel(0.0, 1.0, size),
        _gumbel_from_uniform,
    ),
}


# ---------------------------------------------------------------------------
# records and populations
# ---------------------------------------------------------------------------


def distinct_rows(X) -> tuple:
    """``(first, row_of)`` for the rows of the (n, k) matrix ``X``: the index
    of the first row of each distinct row, in sorted order (first column
    first), and the index into them of every row. -0.0 and 0.0 are one row,
    spelled as its first row spells it."""
    order = np.lexsort(X.T[::-1]) if X.shape[1] else np.arange(len(X))
    new = np.ones(len(X), dtype=bool)
    new[1:] = (X[order[1:]] != X[order[:-1]]).any(axis=1)
    row_of = np.empty(len(X), dtype=np.intp)
    row_of[order] = np.cumsum(new) - 1
    return order[new], row_of


# a row matches a support point within this distance in every coordinate
_MATCH_TOL = 1e-9
# (row, support point) candidate pairs tested at once by first_hits
_MATCH_BLOCK = 1 << 12


def first_hits(support, X) -> np.ndarray:
    """Index of the first support point within 1e-9 of each row of ``X`` in
    every coordinate (TabularPolicy's match), n_support where there is none.
    Only the points whose sort key lies within 2e-9 of a row's can pass; the
    candidate pairs are tested a block of rows at a time, a coordinate at a
    time."""
    n, k = support.shape
    if k == 0:
        return np.zeros(len(X), dtype=np.intp)
    first, row_of = distinct_rows(X)
    rows = X[first]
    # sort the support on its column with the most distinct values
    columns = np.ascontiguousarray(support.T)
    key = int(np.argmax((np.diff(np.sort(columns)) != 0).sum(axis=1)))
    order = np.argsort(columns[key])
    keys = columns[key][order]
    first = np.searchsorted(keys, rows[:, key] - 2 * _MATCH_TOL)
    count = np.searchsorted(keys, rows[:, key] + 2 * _MATCH_TOL, "right") - first
    start = np.cumsum(count) - count
    hit = np.full(len(rows), n, dtype=np.intp)
    # rows a..b-1 start their pairs in one _MATCH_BLOCK-sized stretch
    cuts = (np.flatnonzero(np.diff(start // _MATCH_BLOCK)) + 1).tolist()
    for a, b in zip([0, *cuts], [*cuts, len(rows)]):
        r = np.repeat(np.arange(a, b), count[a:b])
        s = order[first[r] + np.arange(len(r)) - (start[r] - start[a])]
        for c in range(k):
            near = np.abs(columns[c][s] - rows[r, c]) <= _MATCH_TOL
            r, s = r[near], s[near]
        np.minimum.at(hit, r, s)
    return hit[row_of]


@dataclass(eq=False)
class RecordTable:
    """Records as columns: the one container every record-level path reads.

    ``labels`` are the sorted group labels and ``codes`` index them per row;
    ``X`` is the (n, k) covariate matrix. In the float columns NaN means only
    "empty cell"; ``weight`` is never empty. Build tables with
    :meth:`from_arrays` or :func:`fairprice.sim.read_records_csv`, which
    validate every cell; :meth:`take` selects rows.
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
    def from_arrays(cls, ids, groups, X, values, present, where,
                    labels=None) -> "RecordTable":
        """Validated table from parsed arrays.

        ``groups`` holds each row's group label or, when the sorted
        ``labels`` are given, its index into them. ``values`` and ``present``
        are (n, 5) arrays with the columns of ``CSV_TRAILING_COLUMNS``; a cell
        that is not present is empty (an empty weight means 1). Present cells
        must be finite, weights positive and group labels not empty;
        ``where(i)`` names row ``i`` in error messages.
        """
        if labels is None:
            labels, groups = np.unique(np.asarray(groups, dtype=str),
                                       return_inverse=True)
        labels = tuple(str(g) for g in labels)
        codes = np.asarray(groups).reshape(-1)
        if "" in labels:
            raise MissingFieldError(
                f"{where(np.argmax(codes == labels.index('')))}: group missing")
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
        return cls(ids=np.asarray(ids, dtype=str), labels=labels, codes=codes,
                   X=X, price=cols[0], demand=cols[1], outcome=cols[2],
                   valuation=cols[3], weight=weight)

    def __len__(self) -> int:
        return self.ids.shape[0]

    def take(self, idx) -> "RecordTable":
        """The rows at integer positions ``idx``, in that order."""
        idx = np.asarray(idx, dtype=np.intp)
        rows = ("ids", "codes", "X") + CSV_TRAILING_COLUMNS
        return RecordTable(labels=self.labels,
                           **{name: getattr(self, name)[idx] for name in rows})

    @cached_property
    def strata(self) -> tuple:
        """``(rows, row_of)``: the :func:`distinct_rows` of ``X`` and the
        index into them of every record. Computed once per table, since ``X``
        is never written after construction."""
        first, row_of = distinct_rows(self.X)
        return self.X[first], row_of

    @cached_property
    def price_levels(self) -> tuple:
        """``(levels, level_of)``: the distinct logged prices in sorted order
        and the index into them of every record. Computed once per table;
        :func:`fairprice.sim.log_interactions`, the one writer of ``price``,
        drops it."""
        levels, level_of = np.unique(self.price, return_inverse=True)
        return levels, level_of.reshape(-1)

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


@dataclass
class Population:
    """A reference population: group priors plus, optionally, a discrete support.

    ``support`` rows are covariate vectors with point masses ``masses`` and
    per-point group membership probabilities ``membership`` (rows sum to one).
    The group priors ``rho``, keyed by exactly ``groups``, must be the
    membership-weighted masses; they are computed when omitted and validated
    when given. ``records``, a RecordTable, are optional and used by
    record-level estimators; the analytic solvers only touch the support.
    """

    groups: tuple
    records: RecordTable | None = None
    support: np.ndarray | None = None
    masses: np.ndarray | None = None
    membership: np.ndarray | None = None
    rho: dict | None = None
    unit_cost: float = 0.0

    def __post_init__(self):
        self.groups = tuple(str(g) for g in self.groups)
        if len(set(self.groups)) != len(self.groups):
            raise InvalidRecordError("duplicate group labels")
        if self.rho is not None and set(self.rho) != set(self.groups):
            raise UnknownGroupError(f"rho names groups {list(self.rho)}, "
                                    f"not exactly {list(self.groups)}")
        if self.rho is not None and not all(
                math.isfinite(v) for v in self.rho.values()):
            raise InvalidRecordError("group priors must be finite")
        if self.support is not None:
            self.support = np.atleast_2d(np.asarray(self.support, dtype=float))
            self.masses = np.asarray(self.masses, dtype=float).reshape(-1)
            if self.masses.shape[0] != self.support.shape[0]:
                raise DimensionMismatchError("one mass per support point required")
            if not np.isfinite(self.masses).all():
                raise InvalidRecordError("support masses must be finite")
            if np.any(self.masses < -1e-12) or abs(self.masses.sum() - 1.0) > 1e-9:
                raise InvalidRecordError("support masses must be nonnegative and sum to 1")
            if self.membership is not None:
                self.membership = np.asarray(self.membership, dtype=float)
                if self.membership.shape != (self.support.shape[0], len(self.groups)):
                    raise DimensionMismatchError(
                        "membership must be (n_support, n_groups)")
                if not np.isfinite(self.membership).all():
                    raise InvalidRecordError(
                        "membership probabilities must be finite")
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
                        if abs(self.rho[g] - implied[k]) > 1e-7:
                            raise InvalidRecordError(
                                f"rho[{g}] inconsistent with support membership")
        if self.rho is not None:
            total = sum(self.rho[g] for g in self.groups)
            if abs(total - 1.0) > 1e-9:
                raise InvalidRecordError("group priors must sum to 1")
        unknown = [] if self.records is None else [
            g for g in self.records.labels if g not in self.groups]
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

    @cached_property
    def support_classes(self) -> np.ndarray:
        """The :func:`first_hits` of the support on itself: the support point
        whose prices a :class:`~fairprice.policies.TabularPolicy` on this
        support gives each point. Computed once, as ``support`` must not
        change after it."""
        return first_hits(self.support, self.support)

    def support_prices(self, policy, index, g) -> np.ndarray:
        """The prices under ``policy`` of support points ``index`` in groups
        ``g``. A policy with a ``lookup`` on this very support reads the
        points' :attr:`support_classes`, its match of them, instead of
        matching them again."""
        X = self.support[index]
        lookup = getattr(policy, "lookup", None)
        if lookup is not None and np.array_equal(policy.support, self.support):
            return lookup(self.support_classes[index], X, g, self.groups)
        return policy.price_batch(X, g, self.groups)

    def support_point(self, x_index: int) -> np.ndarray:
        """The covariates of support point ``x_index``: MissingSupportError
        without a support or for an index outside it."""
        n = len(self.joint_weights())
        if not 0 <= x_index < n:
            raise MissingSupportError(
                f"support index {x_index} out of range 0..{n - 1}")
        return self.support[x_index]

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
                         self.groups, self)
        table = self.records
        if table is None or not len(table):
            raise MissingFieldError("population has neither support nor records")
        share = table.weight / sum(table.weight.tolist())
        code = np.array([self.groups.index(g) for g in table.labels],
                        dtype=np.intp)
        return Cells(share, code[table.codes], table.X, None, self.groups)


class Cells(NamedTuple):
    """Weighted population cells (see :meth:`Population.cells`).

    ``g`` indexes ``groups`` per cell; ``index`` is the support row of each
    cell in ``population``, or both are None for record cells.
    """

    mass: np.ndarray
    g: np.ndarray
    X: np.ndarray
    index: np.ndarray | None
    groups: tuple
    population: Population | None = None

    def totals(self, k: int, *terms) -> list:
        """Each per-cell ``terms`` array summed over the cells of group
        ``k``, in cell order."""
        rows = self.g == k
        return [seqsum(t[rows]) for t in terms]

    def evaluate(self, policy, model):
        """``(p, d, revenue, by_group)``: the price and model demand of every
        cell under ``policy``, the cells' expected revenue ``mass * p * d``
        added in cell order, and for each group of positive mass, in
        ``groups`` order, its ``access`` (mean demand), ``price_mean`` and
        ``weight`` (mass), divided from cell-order totals."""
        p = (policy.price_batch(self.X, self.g, self.groups)
             if self.population is None
             else self.population.support_prices(policy, self.index, self.g))
        d = model.demand(self.X, self.g, p, self.groups)
        w, by_group = self.mass, {}
        for k, g in enumerate(self.groups):
            mass, dsum, psum = self.totals(k, w, w * d, w * p)
            if mass > 0.0:
                by_group[g] = {"access": dsum / mass,
                               "price_mean": psum / mass, "weight": mass}
        return p, d, seqsum(w * p * d), by_group

    def curve(self, model, p, weights, revenue=False, terms=None) -> np.ndarray:
        """For each row of the (R, n_cells) ``weights``, the cells' ``weight *
        demand``, or with ``revenue`` their ``(weight * price) * demand``,
        added cell by cell as a ``total +=`` loop over the cells adds them.
        ``p`` broadcasts against the rows: one price per row (an (R,) result)
        or an (R or 1, m) grid (an (R, m) one). A block of cells at a time
        bounds the memory, and each block's demand serves every row.
        ``terms``, the cells' ``model.row_terms``, spares a caller that draws
        many curves computing them for each."""
        if terms is None:
            terms = model.row_terms(self.X, self.g, self.groups)
        p = np.asarray(p, dtype=float)
        grid = p if p.ndim == 2 else p[:, None]
        step = max(1, _GRID_CELLS // grid.size)
        # row 0 holds the totals so far, so each block continues in cell order
        block = np.zeros((min(step, len(self.mass)) + 1, len(weights),
                          grid.shape[1]))
        for k in range(0, len(self.mass), step):
            rows = slice(k, k + step)
            d = model.kernels(take_rows(terms, rows), grid.reshape(1, -1),
                              "demand")[0].reshape((-1,) + grid.shape)
            w = weights[:, rows].T[:, :, None] * (grid if revenue else 1.0)
            added = block[:len(d) + 1]
            np.multiply(w, d, out=added[1:])
            block[0] = seqsum(added.reshape(len(added), -1)).reshape(block[0].shape)
        return block[0] if p.ndim == 2 else block[0, :, 0]


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
#
# A family's ``row_terms(X, g, groups)`` is the tuple of per-row arrays that
# its prices act on (``loc``; ``gamma . x``; ``dbar`` and the slope), and its
# ``kernels(terms, p, *kinds)`` returns the named kinds from them in one call.
# A solver computes the terms once and takes their rows with ``take_rows``;
# ``demand``, ``gradient`` and ``curvature`` compute them for each call.


def take_rows(terms, rows) -> tuple:
    """The ``rows`` of every per-row array of ``terms``."""
    return tuple(t[rows] for t in terms)


def _per_call(kind):
    """The ``kind`` kernel of a family from the row terms of its call; the
    price is checked before the rows, as every kernel call checks it."""
    def kernel(self, X, g, p, groups) -> np.ndarray:
        p = _check_price(self, p)
        return self.kernels(self.row_terms(X, g, groups), p, kind)[0]
    kernel.__name__ = kernel.__qualname__ = kind
    return kernel


class _RowKernels:
    """A family's ``demand``, ``gradient`` and ``curvature``."""

    demand, gradient, curvature = map(_per_call, ("demand", "gradient", "curvature"))


def _row_dots(X, coefs):
    """``coefs @ x`` for every row ``x`` of ``X`` (or the one row ``X``);
    raises DimensionMismatchError when ``x`` and ``coefs`` differ in length.

    A stack of (1, k) @ (k,) products takes the same BLAS dot per row as the
    1-D product; ``X @ coefs`` sums in another order and changes last bits.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[-1] != coefs.size:
        raise DimensionMismatchError(
            f"model expects {coefs.size} covariates, got {X.shape[-1]}")
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
class PartiallyLinearDemand(_RowKernels):
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
        for g in self.beta:
            if g not in self.baseline:
                raise UnknownGroupError(f"baseline missing group {g!r}")
            if not self.allow_upward:
                self.downward_slopes([g])

    def downward_slopes(self, groups) -> np.ndarray:
        """The price slopes of ``groups``, in order: UnknownGroupError for a
        group without one, UpwardSlopeError for one that is not negative."""
        slopes = self._slopes(np.arange(len(groups)), tuple(groups))
        for g, b in zip(groups, slopes.tolist()):
            if not b < 0.0:
                raise UpwardSlopeError(
                    f"group {g!r}: price slope {b:g} is not negative")
        return slopes

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
        """Baseline expected demand at zero price for one group."""
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(self.baseline_rows(x, 0, (group,)))

    def slope(self, group) -> float:
        return float(self._slopes(0, (group,)))

    def row_terms(self, X, g, groups) -> tuple:
        """``(dbar, slope)`` of every row."""
        return self.baseline_rows(X, g, groups), self._slopes(g, groups)

    def kernels(self, terms, p, *kinds) -> list:
        p = _check_price(self, p)
        dbar, slopes = terms
        slopes = _along(slopes, p)
        shape = np.broadcast_shapes(np.shape(slopes), np.shape(p))
        kernel = {"demand": lambda: _along(dbar, p) + slopes * p,
                  "gradient": lambda: np.broadcast_to(slopes, shape).copy(),
                  "curvature": lambda: np.zeros(shape)}
        return [kernel[kind]() for kind in kinds]


@dataclass
class LogisticDemand(_RowKernels):
    """Take-up probability ``sigmoid(gamma . x + beta * p + intercept)``.

    The kernels take ``g`` and ``groups`` like the other families and ignore
    them. ``beta`` must be negative: demand falls in price."""

    gamma: np.ndarray
    beta: float
    intercept: float = 0.0

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        self.beta = float(self.beta)
        self.intercept = float(self.intercept)
        if not self.beta < 0.0:
            raise UpwardSlopeError(
                f"logistic price slope {self.beta:g} is not negative")

    def row_terms(self, X, g, groups) -> tuple:
        """``(gamma . x,)`` of every row."""
        return (_row_dots(X, self.gamma),)

    def kernels(self, terms, p, *kinds) -> list:
        p = _check_price(self, p)
        z = _along(terms[0], p) + self.beta * p + self.intercept
        s = scipy_special().expit(z)
        upper = None if kinds == ("demand",) else _logistic_upper(z, s)
        kernel = {"demand": lambda: s,
                  "gradient": lambda: self.beta * s * upper,
                  "curvature": lambda: self.beta ** 2 * s * upper * (1.0 - 2.0 * s)}
        return [kernel[kind]() for kind in kinds]


@dataclass
class LatentValuationModel(_RowKernels):
    """Valuation ``V = loc(x, a) + scale * noise``; purchase iff ``V >= p``.

    ``loc`` maps group -> (intercept, coefficient vector). The noise family
    must be one of the log-concave families in ``NOISE_FAMILIES`` so revenue
    under the implied demand curve is well behaved, at a finite positive
    ``scale``.
    """

    loc: dict
    noise: str = "logistic"
    scale: float = 1.0

    def __post_init__(self):
        if self.noise not in NOISE_FAMILIES:
            raise InvalidRecordError(
                f"unknown noise family {self.noise!r}; "
                f"choose from {sorted(NOISE_FAMILIES)}")
        if not 0.0 < self.scale < math.inf:
            raise InvalidRecordError("noise scale must be positive and finite")
        self.scale = float(self.scale)

    @property
    def family(self) -> NoiseFamily:
        return NOISE_FAMILIES[self.noise]

    def location_rows(self, X, g, groups) -> np.ndarray:
        """``loc(x, a)`` of every row of ``X``."""
        return _affine_rows(X, g, groups, self.loc, self.loc, "location")

    def location(self, x, group) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        return float(self.location_rows(x, 0, (group,)))

    def row_terms(self, X, g, groups) -> tuple:
        """``(loc,)`` of every row."""
        return (self.location_rows(X, g, groups),)

    def kernels(self, terms, p, *kinds) -> list:
        p = _check_price(self, p)
        z = (p - _along(terms[0], p)) / self.scale
        family = self.family
        kernel = {"demand": lambda: family.sf(z),
                  "gradient": lambda: -family.pdf(z) / self.scale,
                  "curvature": lambda: -family.pdf_prime(z) / self.scale ** 2}
        return [kernel[kind]() for kind in kinds]


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


# Newton iteration cap and gradient-norm stopping bound of the logistic fit
_LOGISTIC_MAX_ITER = 500
_LOGISTIC_GRAD_TOL = 1e-8


def fit_logistic(records: RecordTable):
    """Maximum-likelihood logistic demand via damped Newton iterations.

    The price enters as one more covariate; coefficients are reported as
    (gamma, beta, intercept). Raises PerfectSeparationError when the
    likelihood is unbounded, SingularDesignError when some coefficient is
    unidentified, ConvergenceError (with the final gradient norm) when the
    iteration cap is hit, and UpwardSlopeError for a price slope >= 0.

    Returns
    -------
    (LogisticDemand, FitDiagnostics)
    """
    table = records.require("price", "demand")
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
    for iteration in range(1, _LOGISTIC_MAX_ITER + 1):
        mu = scipy_special().expit(eta)
        grad = X.T @ (w * (y - mu))
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm < _LOGISTIC_GRAD_TOL:
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
        f"logistic fit did not converge in {_LOGISTIC_MAX_ITER} iterations "
        f"(gradient norm {grad_norm:.3e})")


def fit_partially_linear(records: RecordTable, allow_upward=False):
    """Per-group least squares of demand on (price, covariates, intercept).

    Groups with rank-deficient designs, e.g. no price variation, raise
    SingularDesignError. The model's constructor then raises UpwardSlopeError
    for a nonnegative fitted price slope unless the caller explicitly opts in
    with ``allow_upward`` (the returned model carries the override flag).
    """
    table = records.require("price", "demand")
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
        beta[g] = float(coef[0])
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


def _affine_to_dict(params: dict) -> dict:
    """A group -> ``(intercept, coefs)`` map as JSON ``{intercept, coefs}``
    objects."""
    return {g: {"intercept": float(icpt),
                "coefs": [float(c) for c in np.atleast_1d(coefs)]}
            for g, (icpt, coefs) in params.items()}


def _affine_from_dict(data: dict, where: str) -> dict:
    """Inverse of :func:`_affine_to_dict` for the JSON object at ``where``."""
    return {g: (json_field(entry, "intercept", "number", f"{where}.{g}"),
                np.array(json_numbers(json_field(entry, "coefs", "list",
                                                 f"{where}.{g}"),
                                      f"{where}.{g}.coefs"), dtype=float))
            for g, entry in data.items()}


def _table_from_dict(data: dict, where: str) -> dict:
    """Inverse of :func:`model_to_dict`'s table baseline, the JSON object at
    ``where``: group -> {covariate tuple -> value}."""
    tables = {g: {} for g in data}
    for g, rows in data.items():
        for i, row in enumerate(json_value(rows, "list", f"{where}.{g}")):
            at = f"{where}.{g}[{i}]"
            x = json_numbers(json_field(row, "x", "list", at), f"{at}.x")
            tables[g][tuple(x)] = json_field(row, "value", "number", at)
    return tables


def model_to_dict(model) -> dict:
    """JSON-ready description of a demand model."""
    if isinstance(model, PartiallyLinearDemand):
        if model.baseline_form == "linear":
            baseline = _affine_to_dict(model.baseline)
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
                "loc": _affine_to_dict(model.loc)}
    raise TypeError(f"not a demand model: {type(model).__name__}")


def model_from_dict(data: dict):
    """Inverse of :func:`model_to_dict`. Every field it writes is required
    but ``baseline_form`` (default "linear") and ``allow_upward`` (a JSON
    boolean, default false); a missing or ill-typed field raises
    MissingFieldError or InvalidRecordError naming its JSON path."""
    kind = json_value(data, "object", "model").get("kind")
    if kind == "partially_linear":
        form = json_value(data.get("baseline_form", "linear"), "string",
                          "model.baseline_form")
        read = _affine_from_dict if form == "linear" else _table_from_dict
        return PartiallyLinearDemand(
            beta=json_number_map(json_field(data, "beta", "object", "model"),
                                 "model.beta"),
            baseline=read(json_field(data, "baseline", "object", "model"),
                          "model.baseline"),
            baseline_form=form,
            allow_upward=json_value(data.get("allow_upward", False), "boolean",
                                    "model.allow_upward"))
    if kind == "logistic":
        return LogisticDemand(
            gamma=json_numbers(json_field(data, "gamma", "list", "model"),
                               "model.gamma"),
            beta=json_field(data, "beta", "number", "model"),
            intercept=json_field(data, "intercept", "number", "model"))
    if kind == "latent":
        return LatentValuationModel(
            loc=_affine_from_dict(json_field(data, "loc", "object", "model"),
                                  "model.loc"),
            noise=json_field(data, "noise", "string", "model"),
            scale=json_field(data, "scale", "number", "model"))
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


def population_from_dict(data: dict) -> Population:
    """Inverse of :func:`population_to_dict`: a population without records.
    A bad field raises the error of the ``util.json_*`` readers; a null
    ``support``, ``masses``, ``membership`` or ``rho`` is an absent one."""
    groups = json_field(data, "groups", "list", "population")
    read = {"support": json_rows, "masses": json_numbers,
            "membership": json_rows, "rho": json_number_map}
    return Population(
        groups=tuple(json_value(g, "string", f"population.groups[{i}]")
                     for i, g in enumerate(groups)),
        unit_cost=json_value(data.get("unit_cost", 0.0), "number",
                             "population.unit_cost"),
        **{key: None if data.get(key) is None
           else f(data[key], f"population.{key}") for key, f in read.items()})
