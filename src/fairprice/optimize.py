"""One-dimensional revenue maximization and the scalarized welfare objective."""

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


@dataclass(frozen=True)
class PriceInterval:
    """Closed price interval searched by the 1-D maximizers."""

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


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-8):
    """Maximize a unimodal scalar function on [lo, hi].

    Returns ``(argmax, value)``; endpoints are checked as well so a maximizer
    on the boundary is not missed.
    """
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    candidates = [(x, f(x)), (lo, f(lo)), (hi, f(hi))]
    return max(candidates, key=lambda t: t[1])


def maximize_revenue_1d(curve, interval: PriceInterval, tol: float = 1e-8,
                        shift: float = 0.0):
    """Maximize ``(p - shift) * curve(p)`` over the interval.

    ``curve`` maps price to model-scale demand; ``shift`` is a unit cost.
    It must accept a price array: it is called once on the whole price array
    of each grid below, where a scalar return broadcasts, and on single
    prices while golden section refines.
    A coarse 64-point probe first rejects curves with no positive revenue
    anywhere on the interval; then a dense grid locates the best bracket and
    golden section refines it, which is robust to multiple local peaks.

    Returns ``(price, value)``.
    """

    def objective(p):
        return (p - shift) * curve(p)

    probe = np.linspace(interval.lo, interval.hi, 64)
    probe_vals = objective(probe)
    if not np.any(probe_vals > 0.0):
        raise DegenerateDemandError(
            "objective is nonpositive across the whole price interval")
    grid = np.linspace(interval.lo, interval.hi, interval.grid_n)
    vals = objective(grid)
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    if lo == hi:
        return float(grid[k]), float(vals[k])
    return golden_section_max(objective, lo, hi, tol)


@dataclass(frozen=True)
class ScalarizationWeights:
    """Weights of the scalarized objective: revenue + access + outcomes.

    ``access_weight`` multiplies the sum of per-group expected take-up,
    ``outcome_weight`` multiplies the mean downstream outcome, ``parity_cap``
    and ``unit_cost`` parameterize the two reported constraint slacks.
    """

    access_weight: float = 0.0
    outcome_weight: float = 0.0
    parity_cap: float = math.inf
    unit_cost: float = 0.0


def scalarized_objective(policy, model, population, weights: ScalarizationWeights,
                         outcome=None):
    """Evaluate a policy against the scalarized objective on a population.

    Expectations run over the discrete support when the population has one,
    otherwise over its records. The value is

        E[P D] + access_weight * sum_g E[D | A=g] + outcome_weight * E[Y]

    and two slacks are reported alongside (nonnegative means satisfied):
    ``parity`` is ``parity_cap - max pairwise |E[P|a] - E[P|b]|`` and
    ``break_even`` is ``E[(P - unit_cost) D]``. ``outcome`` is a callable
    ``(x, a, p) -> expected outcome`` and is required iff outcome_weight != 0.

    Returns ``(value, slacks_dict)``.
    """
    if weights.outcome_weight != 0.0 and outcome is None:
        raise MissingFieldError(
            "outcome_weight is nonzero but no outcome model was given")

    cells = population.cells()
    p, d, stats = cells.evaluate(policy, model)
    w = cells.mass
    revenue = seqsum(w * p * d)
    margin = seqsum(w * (p - weights.unit_cost) * d)
    group_mass, group_demand, group_price = (
        dict(zip(population.groups, column)) for column in zip(*stats))
    outcome_mean = 0.0
    if outcome is not None:
        outcome_mean = seqsum(w * np.array(
            [float(outcome(x, g, q)) for x, g, q in zip(
                cells.X, cells.labels, p.tolist())]))

    access = sum(group_demand[g] / group_mass[g]
                 for g in population.groups if group_mass[g] > 0.0)
    value = revenue + weights.access_weight * access
    if outcome is not None:
        value += weights.outcome_weight * outcome_mean

    means = [group_price[g] / group_mass[g]
             for g in population.groups if group_mass[g] > 0.0]
    disparity = max(means) - min(means) if len(means) > 1 else 0.0
    slacks = {
        "parity": (math.inf if math.isinf(weights.parity_cap)
                   else weights.parity_cap - disparity),
        "break_even": margin,
    }
    return value, slacks
