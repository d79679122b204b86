"""Row-wise revenue maximization and the scalarized welfare objective."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateDemandError,
    MissingFieldError,
    PreconditionError,
    UpwardSlopeError,
)
from .util import seqsum

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# bracket width at which the revenue maximizers stop refining a price
_TOL = 1e-8
# (row, price) values evaluated at once on grids, which bounds their memory
_GRID_CELLS = 1 << 16


@dataclass(frozen=True)
class PriceInterval:
    """Closed price interval searched by the row maximizers."""

    lo: float
    hi: float
    grid_n: int = 4096

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise PreconditionError("price interval needs lo < hi")
        if self.grid_n < 64:
            raise PreconditionError("grid_n must be at least 64")


def monopoly_price_linear(dbar: float, beta: float) -> float:
    """Unconstrained revenue maximizer of ``p * (dbar + beta p)``.

    Requires a strictly negative slope; the optimum is ``-dbar / (2 beta)``.
    """
    if beta >= 0.0:
        raise UpwardSlopeError(f"price slope {beta:g} is not negative")
    return -dbar / (2.0 * beta)


def maximize_rows(objective, n_rows: int, interval: PriceInterval):
    """``(price, value)`` arrays maximizing ``objective(rows, p)`` over the
    interval for each of ``n_rows`` rows; ``p`` holds one price per row, or
    price grids as an (n, m) or (1, m) array. A ``grid_n``-point grid
    rejects rows with no positive value on it and brackets each other row's
    best point, robust to several local peaks; golden section refines it."""
    around, positive = grid_argmax(objective, n_rows, interval.lo,
                                   interval.hi, interval.grid_n)
    if not positive.all():
        raise DegenerateDemandError(
            "objective is nonpositive across the whole price interval")
    return golden_rows(objective, around[:, 0], around[:, 2], _TOL)


def grid_argmax(objective, n_rows: int, lo, hi, n: int):
    """``(around, positive)`` of ``objective(rows, p)`` on ``np.linspace(lo,
    hi, n)``, one grid per row when ``lo`` and ``hi`` are arrays: per row,
    the grid points before, at and after its first argmax (clipped to the
    grid), and whether any value is positive. Blocks of rows bound memory."""
    around, positive = np.empty((n_rows, 3)), np.empty(n_rows, dtype=bool)
    step = max(1, _GRID_CELLS // n)
    for s in range(0, n_rows, step):
        rows = np.arange(s, min(s + step, n_rows))
        grid = (np.linspace(lo, hi, n)[None] if np.ndim(lo) == 0 else
                np.ascontiguousarray(np.linspace(lo[rows], hi[rows], n, axis=1)))
        vals = objective(rows, grid)
        k = np.argmax(vals, axis=1)[:, None] + np.array([-1, 0, 1])
        around[rows] = np.take_along_axis(grid, k.clip(0, n - 1), axis=1)
        positive[rows] = np.any(vals > 0.0, axis=1)
    return around, positive


def golden_rows(objective, lo, hi, tol: float):
    """``(price, value)`` arrays from golden section on ``[lo[r], hi[r]]``
    for every row in lockstep, ``objective(rows, p)`` taking one price per
    row. A row retires once its bracket is no wider than ``tol``; its
    midpoint then competes with its two endpoints, a later candidate winning
    only when strictly larger, as in Python's ``max``."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    a, b = lo.copy(), hi.copy()
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    every = np.arange(len(a))
    fc, fd = objective(every, c), objective(every, d)
    live = every[b - a > tol]
    while live.size:
        left = fc[live] >= fd[live]
        l, r = live[left], live[~left]
        b[l], d[l], fd[l] = d[l], c[l], fc[l]
        a[r], c[r], fc[r] = c[r], d[r], fd[r]
        c[l] = b[l] - GOLDEN * (b[l] - a[l])
        d[r] = a[r] + GOLDEN * (b[r] - a[r])
        new = objective(live, np.where(left, c[live], d[live]))
        fc[l], fd[r] = new[left], new[~left]
        live = live[b[live] - a[live] > tol]
    price = 0.5 * (a + b)
    value = objective(every, price)
    for edge in (lo, hi):
        v = objective(every, edge)
        price = np.where(v > value, edge, price)
        value = np.where(v > value, v, value)
    return price, value


@dataclass(frozen=True)
class ScalarizationWeights:
    """Weights of the scalarized objective: revenue + access + outcomes.

    ``access_weight`` multiplies the sum of per-group expected take-up,
    ``outcome_weight`` multiplies the mean downstream outcome, and
    ``parity_cap`` sets the reported parity slack.
    """

    access_weight: float = 0.0
    outcome_weight: float = 0.0
    parity_cap: float = math.inf


def scalarized_objective(policy, model, population, weights: ScalarizationWeights,
                         outcome=None):
    """Evaluate a policy against the scalarized objective on a population.

    Expectations run over the discrete support when the population has one,
    otherwise over its records. The value is

        E[P D] + access_weight * sum_g E[D | A=g] + outcome_weight * E[Y]

    and two slacks are reported alongside (nonnegative means satisfied):
    ``parity`` is ``parity_cap - max pairwise |E[P|a] - E[P|b]|`` and
    ``break_even`` is ``E[(P - population.unit_cost) D]``. ``outcome`` is a
    callable ``(x, a, p) -> expected outcome`` and is required iff
    outcome_weight != 0.

    Returns ``(value, slacks_dict)``.
    """
    if weights.outcome_weight != 0.0 and outcome is None:
        raise MissingFieldError(
            "outcome_weight is nonzero but no outcome model was given")

    cells = population.cells()
    p, d, revenue, by_group = cells.evaluate(policy, model)
    w = cells.mass
    margin = seqsum(w * (p - population.unit_cost) * d)
    outcome_mean = 0.0
    if outcome is not None:
        outcome_mean = seqsum(w * np.array(
            [float(outcome(x, cells.groups[k], q)) for x, k, q in zip(
                cells.X, cells.g.tolist(), p.tolist())]))

    access = sum(s["access"] for s in by_group.values())
    value = revenue + weights.access_weight * access
    if outcome is not None:
        value += weights.outcome_weight * outcome_mean

    means = [s["price_mean"] for s in by_group.values()]
    disparity = max(means) - min(means) if len(means) > 1 else 0.0
    slacks = {
        "parity": (math.inf if math.isinf(weights.parity_cap)
                   else weights.parity_cap - disparity),
        "break_even": margin,
    }
    return value, slacks
