"""Pricing policies: small callables mapping (covariates, group) to a price.

Every policy implements ``price_batch(X, g, groups)`` for the rows of an
(n, k) covariate matrix, with ``g`` indexing the label tuple ``groups`` per
row as in the demand kernels, and ``price(x, a=None)`` for one customer, the
same prices bit for bit. An error names the first offending row; a label no
row uses is never read. Attribute-blind policies ignore the group;
attribute-based ones require it.
Policies are plain data so they can be serialized into run manifests and
reloaded by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product, repeat

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

    def price(self, x, a=None) -> float:
        return float(self.value)

    def price_batch(self, X, g, groups) -> np.ndarray:
        return np.full(len(X), float(self.value))


@dataclass(frozen=True)
class GroupPolicy:
    """One price per group, optional fallback for unmapped labels."""

    prices: dict
    default: float | None = None

    def price(self, x, a=None) -> float:
        if a is not None and a in self.prices:
            return float(self.prices[a])
        if self.default is not None:
            return float(self.default)
        raise UnknownGroupError(f"no price for group {a!r} and no default")

    def price_batch(self, X, g, groups) -> np.ndarray:
        # the codes in order of first use, so the first failing label is the
        # one of the first failing row
        prices = np.zeros(len(groups))
        for j in dict.fromkeys(np.asarray(g).tolist()):
            prices[j] = self.price(None, groups[j])
        return prices[g]


class TabularPolicy:
    """Prices attached to the discrete covariate support.

    ``table`` maps ``(support_index, group_label)`` to a price; a key with
    group ``None`` serves as the attribute-blind price for that support
    point and is the fallback when the requested group has no entry. A
    covariate row is priced at the first support point within 1e-9 of it in
    every coordinate. A solver passes ``array`` instead, a ``(columns,
    prices)`` pair: column ``j`` of the (n_support, len(columns)) ``prices``
    holds the prices of label ``columns[j]``, and ``table`` is read from it
    on first use. Either way the prices are read into one dense price table
    on first use, so neither may change after it.
    """

    def __init__(self, support, table=None, array=None):
        self.support = np.atleast_2d(np.asarray(support, dtype=float))
        if array is None:
            self.table = table
        else:
            columns, prices = tuple(array[0]), np.asarray(array[1], dtype=float)
            self._array = columns, prices, np.ones(prices.shape, dtype=bool)

    @cached_property
    def table(self) -> dict:  # read only from an array, which has every entry
        columns, prices, _ = self._array
        return dict(zip(product(range(len(prices)), columns), prices.ravel().tolist()))

    @cached_property
    def _array(self) -> tuple:
        """``(columns, prices, present)``: the table's labels in order of
        first use, and its prices and where it has an entry as
        (n_support, len(columns)) arrays. Keys off the support are dropped."""
        n = len(self.support)
        idx, labels = zip(*self.table) if self.table else ((), ())
        columns = tuple(dict.fromkeys(labels))
        # a dict lookup matches an index as the table's own keys would; keys
        # off the support go to the last row, dropped below
        row_of = dict(zip(range(n), range(n)))
        at = (np.fromiter(map(row_of.get, idx, repeat(n)), np.intp),
              np.fromiter(map(columns.index, labels), np.intp))
        prices = np.zeros((n + 1, len(columns)))
        present = np.zeros(prices.shape, dtype=bool)
        prices[at] = np.fromiter(map(float, self.table.values()), float)
        present[at] = True
        return columns, prices[:n], present[:n]

    @cached_property
    def _dense(self) -> tuple:
        """``(column_of, prices, present)``: the prices as an (n_support + 1,
        n_labels + 1) array and where it has an entry. The blind entries, in
        the last column, fill labels without their own and serve the labels
        not in ``column_of``; the last row, read for rows off the support,
        is empty."""
        columns, given, has = self._array
        # the labelled columns, then the blind one where there is one
        labelled = [j for j, label in enumerate(columns) if label is not None]
        order = labelled + [j for j, label in enumerate(columns) if label is None]
        prices = np.zeros((len(given) + 1, len(labelled) + 1))
        present = np.zeros(prices.shape, dtype=bool)
        prices[:-1, :len(order)], present[:-1, :len(order)] = given[:, order], has[:, order]
        fill = present[:, -1:] & ~present
        column_of = {columns[j]: k for k, j in enumerate(labelled)}
        return column_of, np.where(fill, prices[:, -1:], prices), present | fill

    def price(self, x, a=None) -> float:
        return float(self.price_batch(np.reshape(x, (1, -1)), [0], (a,))[0])

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
        column_of, prices, present = self._dense
        g = np.asarray(g, dtype=np.intp)
        column = np.array([column_of.get(a, len(column_of)) for a in groups],
                          dtype=np.intp)
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

    def price(self, x, a=None) -> float:
        return float(self.price_batch(np.reshape(x, (1, -1)), [0], (a,))[0])

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


def table_rows(table: dict) -> list:
    """A ``(support_index, group) -> price`` table as JSON rows, ordered by
    support index, then group label (the blind ``None`` entry first)."""
    return [{"x_index": idx, "group": group, "price": float(price)}
            for (idx, group), price in sorted(
                table.items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))]


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
                "prices": table_rows(policy.table)}
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
        table = {}
        for i, row in enumerate(json_field(data, "prices", "list", "policy")):
            at = f"policy.prices[{i}]"
            cell = (json_field(row, "x_index", "index", at),
                    json_field(row, "group", "label", at))
            if not 0 <= cell[0] < len(support):
                raise InvalidRecordError(
                    f"{at}.x_index must index the {len(support)} support "
                    f"points, got {cell[0]}")
            if cell in table:
                raise InvalidRecordError(f"{at} repeats the entry for "
                                         f"x_index {cell[0]}, group {cell[1]!r}")
            table[cell] = json_field(row, "price", "number", at)
        return TabularPolicy(support=support, table=table)
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
