"""Pricing policies: small callables mapping (covariates, group) to a price.

Every policy implements ``price(x, a=None)`` for one customer and
``price_batch(X, groups)`` for the rows of an (n, k) covariate matrix with one
group label per row. ``price_batch`` returns exactly the ``price`` values, bit
for bit, and raises the same error type for the first offending row.
Attribute-blind policies ignore ``a``; attribute-based ones require it.
Policies are plain data so they can be serialized into run manifests and
reloaded by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, MissingFieldError, UnknownGroupError

# a row matches a support point within this distance in every coordinate
_MATCH_TOL = 1e-9
# (row, support point) pairs compared at once by TabularPolicy._match
_MATCH_BLOCK = 1 << 14


@dataclass(frozen=True)
class ConstantPolicy:
    """One posted price for everyone."""

    value: float

    def price(self, x, a=None) -> float:
        return float(self.value)

    def price_batch(self, X, groups) -> np.ndarray:
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

    def price_batch(self, X, groups) -> np.ndarray:
        # labels in order of first appearance, so the first failing label is
        # the one of the first failing row
        by_label = {a: self.price(None, a) for a in dict.fromkeys(groups)}
        return np.fromiter(map(by_label.__getitem__, groups), float, len(groups))


@dataclass
class TabularPolicy:
    """Prices attached to the discrete covariate support.

    ``table`` maps ``(support_index, group_label)`` to a price; a key with
    group ``None`` serves as the attribute-blind price for that support
    point and is the fallback when the requested group has no entry. A
    covariate row is priced at the first support point within 1e-9 of it in
    every coordinate.
    """

    support: np.ndarray
    table: dict

    def __post_init__(self):
        self.support = np.atleast_2d(np.asarray(self.support, dtype=float))

    def _locate(self, x) -> int:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.support.shape[1]:
            raise DimensionMismatchError(
                f"policy support has {self.support.shape[1]} covariates, "
                f"got {x.size}")
        hits = np.where(np.all(np.abs(self.support - x) <= _MATCH_TOL, axis=1))[0]
        if hits.size == 0:
            raise DimensionMismatchError(
                f"covariate point {tuple(x)} is not on the policy support")
        return int(hits[0])

    def _match(self, X) -> np.ndarray:
        """``_locate`` of every row of ``X``, -1 where a row is off the
        support. Each distinct row is compared with every support point, a
        block of rows at a time, so no (rows, support) array is built."""
        rows, row_of = np.unique(X, axis=0, return_inverse=True)
        hit = np.full(len(rows), -1, dtype=np.intp)
        step = max(1, _MATCH_BLOCK // max(1, len(self.support)))
        for lo in range(0, len(rows), step):
            near = np.ones((len(rows[lo:lo + step]), len(self.support)), bool)
            for c in range(self.support.shape[1]):
                near &= (np.abs(self.support[:, c] - rows[lo:lo + step, c, None])
                         <= _MATCH_TOL)
            hit[lo:lo + step] = np.where(near.any(axis=1), near.argmax(axis=1), -1)
        return hit[row_of.reshape(-1)]

    def _entry(self, idx: int, a) -> float:
        if a is not None and (idx, a) in self.table:
            return float(self.table[(idx, a)])
        if (idx, None) in self.table:
            return float(self.table[(idx, None)])
        raise UnknownGroupError(
            f"no price for support point {idx} and group {a!r}")

    def price(self, x, a=None) -> float:
        return self._entry(self._locate(x), a)

    def _entries(self, index, groups) -> np.ndarray:
        """``_entry`` of every (index, label) pair, one lookup per distinct
        pair in order of first appearance, so an error names the first
        failing row."""
        pairs = list(zip(np.asarray(index).tolist(), groups))
        by_pair = {pair: self._entry(*pair) for pair in dict.fromkeys(pairs)}
        return np.fromiter(map(by_pair.__getitem__, pairs), float, len(pairs))

    def price_batch(self, X, groups) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if not len(X):
            return np.zeros(0)
        if X.shape[1] != self.support.shape[1]:
            raise DimensionMismatchError(
                f"policy support has {self.support.shape[1]} covariates, "
                f"got {X.shape[1]}")
        index = self._match(X)
        off = np.flatnonzero(index < 0)
        if off.size:
            # a lookup failing on an earlier row is the first error
            self._entries(index[:off[0]], list(groups)[:off[0]])
            raise DimensionMismatchError(
                f"covariate point {tuple(X[off[0]])} is not on the policy support")
        return self._entries(index, groups)


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
            raise ValueError("clip_lo must not exceed clip_hi")

    def price(self, x, a=None) -> float:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.theta.size:
            raise DimensionMismatchError(
                f"policy expects {self.theta.size} covariates, got {x.size}")
        raw = float(self.intercept + self.theta @ x)
        return float(min(self.clip_hi, max(self.clip_lo, raw)))

    def price_batch(self, X, groups) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.shape[1] != self.theta.size:
            raise DimensionMismatchError(
                f"policy expects {self.theta.size} covariates, got {X.shape[1]}")
        # a stack of (1, k) @ (k,) products takes the same BLAS dot per row as
        # ``theta @ x`` in ``price``; ``X @ theta`` is one matrix-vector
        # product, which sums in another order and changes last bits
        rows = np.ascontiguousarray(X)[:, None, :]
        raw = self.intercept + (rows @ self.theta)[:, 0]
        # Python's max/min keep their first argument on ties and NaN
        raw = np.where(raw > self.clip_lo, raw, float(self.clip_lo))
        return np.where(raw < self.clip_hi, raw, float(self.clip_hi))

    def flatten(self) -> np.ndarray:
        return np.concatenate([[self.intercept], self.theta])


def policy_from_flat(vector, clip_lo, clip_hi) -> LinearPolicy:
    """Rebuild a LinearPolicy from the flat (intercept, theta...) vector."""
    vector = np.asarray(vector, dtype=float).reshape(-1)
    return LinearPolicy(theta=vector[1:], intercept=float(vector[0]),
                        clip_lo=clip_lo, clip_hi=clip_hi)


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
    """Inverse of :func:`policy_to_dict`."""
    kind = data.get("kind")
    if kind == "constant":
        return ConstantPolicy(value=float(data["value"]))
    if kind == "group":
        default = data.get("default")
        return GroupPolicy(prices={g: float(v)
                                   for g, v in data["prices"].items()},
                           default=None if default is None else float(default))
    if kind == "tabular":
        table = {(int(row["x_index"]), row["group"]): float(row["price"])
                 for row in data["prices"]}
        return TabularPolicy(support=np.asarray(data["support"], dtype=float),
                             table=table)
    if kind == "linear":
        return LinearPolicy(theta=np.asarray(data["theta"], dtype=float),
                            intercept=float(data["intercept"]),
                            clip_lo=float(data["clip_lo"]),
                            clip_hi=float(data["clip_hi"]))
    raise MissingFieldError(f"unknown policy kind {kind!r}")
