"""Pricing policies: small callables mapping (covariates, group) to a price.

Every policy implements ``price_batch(X, g, groups)`` for the rows of an
(n, k) covariate matrix, with ``g`` indexing the label tuple ``groups`` per
row as in the demand kernels; one customer is one row. An error names the
first offending row; a label no row uses is never read. Attribute-blind
policies ignore the group; attribute-based ones require it.
Policies are plain data so they can be serialized into run manifests and
reloaded by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .demand import _row_dots, first_hits
from .errors import (
    DimensionMismatchError,
    InvalidRecordError,
    MissingFieldError,
    UnknownGroupError,
)
from .util import json_field, json_number_map, json_numbers, json_rows, json_value


@dataclass(frozen=True)
class ConstantPolicy:
    """One posted price for everyone."""

    value: float

    def price_batch(self, X, g, groups) -> np.ndarray:
        return np.full(len(X), float(self.value))


@dataclass(frozen=True)
class GroupPolicy:
    """One price per group, optional fallback for unmapped labels."""

    prices: dict
    default: float | None = None

    def price_batch(self, X, g, groups) -> np.ndarray:
        # the codes in order of first use, so the first failing label is the
        # one of the first failing row
        prices = np.zeros(len(groups))
        for j in dict.fromkeys(np.asarray(g).tolist()):
            a = groups[j]
            price = (self.prices[a] if a is not None and a in self.prices
                     else self.default)
            if price is None:
                raise UnknownGroupError(f"no price for group {a!r} and no default")
            prices[j] = price
        return prices[g]


class TabularPolicy:
    """Prices attached to the discrete covariate support.

    Column ``j`` of the (n_support, len(columns)) ``prices`` holds the
    prices of label ``columns[j]``, and ``present`` marks the entries that
    exist (every entry when it is omitted). The column labelled ``None``
    holds the attribute-blind prices, the fallback of a label without an
    entry at a support point. A covariate row is priced at the first support
    point within 1e-9 of it in every coordinate. The arrays are read into one
    dense price table on first use, so they may not change after it.
    """

    def __init__(self, support, columns, prices, present=None):
        self.support = np.atleast_2d(np.asarray(support, dtype=float))
        self.columns, self.prices = tuple(columns), np.asarray(prices, dtype=float)
        shape = (len(self.support), len(self.columns))
        self.present = (np.ones(shape, dtype=bool) if present is None
                        else np.asarray(present, dtype=bool))
        if len(set(self.columns)) < len(self.columns):
            raise InvalidRecordError(
                f"tabular policy columns repeat a label: {self.columns!r}")
        for name in ("prices", "present"):
            if getattr(self, name).shape != shape:
                raise DimensionMismatchError(
                    f"tabular policy {name} must have shape {shape} (support "
                    f"points, columns), got {getattr(self, name).shape}")

    @cached_property
    def table(self):
        """A read-only ``(support_index, label) -> price`` view of the
        entries, by support index, then label (the blind ``None`` first)."""
        order = sorted(range(len(self.columns)), key=lambda j: (
            self.columns[j] is not None, self.columns[j]))
        labels = [self.columns[j] for j in order]
        at = np.nonzero(self.present[:, order])
        keys = zip(at[0].tolist(), map(labels.__getitem__, at[1].tolist()))
        return MappingProxyType(dict(zip(keys, self.prices[:, order][at].tolist())))

    @cached_property
    def _dense(self) -> tuple:
        """``(column_of, blind, prices, present)``: the arrays plus an empty
        row, read for rows off the support, and one column, the blind entries
        filling every hole. A label not in ``column_of`` reads column
        ``blind``: the blind one, or else the added column, then empty."""
        n, k = self.prices.shape
        prices = np.zeros((n + 1, k + 1))
        present = np.zeros(prices.shape, dtype=bool)
        prices[:n, :k], present[:n, :k] = self.prices, self.present
        column_of = dict(zip(self.columns, range(k)))
        blind = [column_of.pop(None, k)]
        fill = present[:, blind] & ~present
        return column_of, blind[0], np.where(fill, prices[:, blind], prices), present | fill

    def price_batch(self, X, g, groups) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if not len(X):
            return np.zeros(0)
        if X.shape[1] != self.support.shape[1]:
            raise DimensionMismatchError(
                f"policy support has {self.support.shape[1]} covariates, "
                f"got {X.shape[1]}")
        return self.lookup(first_hits(self.support, X), X, g, groups)

    def lookup(self, hits, X, g, groups) -> np.ndarray:
        """The prices of rows ``X`` whose :func:`first_hits` on the support
        are ``hits``: :meth:`price_batch` once the rows are matched."""
        column_of, blind, prices, present = self._dense
        g = np.asarray(g, dtype=np.intp)
        column = np.array([column_of.get(a, blind) for a in groups], dtype=np.intp)
        at = (hits, column[g])
        missing = ~present[at]
        if missing.any():
            i = int(np.argmax(missing))
            if at[0][i] == len(self.support):
                raise DimensionMismatchError(
                    f"covariate point {tuple(X[i])} is not on the policy support")
            raise UnknownGroupError(f"no price for support point {at[0][i]} "
                                    f"and group {groups[g[i]]!r}")
        return prices[at]


@dataclass
class LinearPolicy:
    """Attribute-blind linear score ``intercept + theta . x`` with clipping.

    The clip range keeps searched policies inside the price interval that the
    data (or an evaluation design) actually covers.
    """

    theta: np.ndarray
    intercept: float
    clip_lo: float
    clip_hi: float

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float).reshape(-1)
        if not self.clip_lo <= self.clip_hi:
            raise InvalidRecordError("clip_lo must not exceed clip_hi")

    def price_batch(self, X, g, groups) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.theta.size:
            raise DimensionMismatchError(
                f"policy expects {self.theta.size} covariates, got {X.shape[1]}")
        raw = self.intercept + _row_dots(X, self.theta)
        # clipped as Python's min(hi, max(lo, raw)), which keeps its first
        # argument on ties and NaN
        raw = np.where(raw > self.clip_lo, raw, float(self.clip_lo))
        return np.where(raw < self.clip_hi, raw, float(self.clip_hi))


def table_rows(policy: TabularPolicy) -> list:
    """A tabular policy's :attr:`~TabularPolicy.table` as JSON rows."""
    return [{"x_index": idx, "group": group, "price": price}
            for (idx, group), price in policy.table.items()]


def policy_to_dict(policy) -> dict:
    """JSON-ready description of any of the built-in policy classes."""
    if isinstance(policy, ConstantPolicy):
        return {"kind": "constant", "value": float(policy.value)}
    if isinstance(policy, GroupPolicy):
        return {"kind": "group",
                "prices": {g: float(v) for g, v in policy.prices.items()},
                "default": policy.default}
    if isinstance(policy, TabularPolicy):
        return {"kind": "tabular",
                "support": [[float(v) for v in row] for row in policy.support],
                "prices": table_rows(policy)}
    if isinstance(policy, LinearPolicy):
        return {"kind": "linear", "intercept": float(policy.intercept),
                "theta": [float(v) for v in policy.theta],
                "clip_lo": float(policy.clip_lo),
                "clip_hi": float(policy.clip_hi)}
    raise TypeError(f"not a policy: {type(policy).__name__}")


def policy_from_dict(data: dict):
    """Inverse of :func:`policy_to_dict`. A missing or ill-typed field raises
    MissingFieldError or InvalidRecordError naming its JSON path."""
    kind = json_value(data, "object", "policy").get("kind")
    if kind == "constant":
        return ConstantPolicy(value=json_field(data, "value", "number", "policy"))
    if kind == "group":
        default = data.get("default")
        return GroupPolicy(
            prices=json_number_map(json_field(data, "prices", "object", "policy"),
                                   "policy.prices"),
            default=None if default is None
            else json_value(default, "number", "policy.default"))
    if kind == "tabular":
        support = json_rows(json_field(data, "support", "list", "policy"),
                            "policy.support")
        cells, columns = {}, {}
        for i, row in enumerate(json_field(data, "prices", "list", "policy")):
            at = f"policy.prices[{i}]"
            cell = (json_field(row, "x_index", "index", at),
                    json_field(row, "group", "label", at))
            if not 0 <= cell[0] < len(support):
                raise InvalidRecordError(
                    f"{at}.x_index must index the {len(support)} support "
                    f"points, got {cell[0]}")
            if cell in cells:
                raise InvalidRecordError(f"{at} repeats the entry for "
                                         f"x_index {cell[0]}, group {cell[1]!r}")
            cells[cell] = json_field(row, "price", "number", at)
            columns.setdefault(cell[1], len(columns))
        prices = np.zeros((len(support), len(columns)))
        present = np.zeros(prices.shape, dtype=bool)
        at = ([i for i, _ in cells], [columns[label] for _, label in cells])
        prices[at], present[at] = list(cells.values()), True
        return TabularPolicy(support, columns, prices, present)
    if kind == "linear":
        theta = json_numbers(json_field(data, "theta", "list", "policy"),
                             "policy.theta")
        lo, hi = (json_field(data, name, "number", "policy")
                  for name in ("clip_lo", "clip_hi"))
        if not lo <= hi:
            raise InvalidRecordError("policy.clip_lo must not exceed policy.clip_hi")
        return LinearPolicy(theta=np.array(theta, dtype=float),
                            intercept=json_field(data, "intercept", "number", "policy"),
                            clip_lo=lo, clip_hi=hi)
    raise MissingFieldError(f"unknown policy kind {kind!r}")
