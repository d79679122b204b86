"""Share-subsidized pricing: maximize ``(p + ell) * D(p)`` per customer.

A participation subsidy adds ``weight * E[D]`` (population scope) or
``weight * E[D | A = g]`` (group scope) to expected revenue. Per customer this
shifts the margin by an effective penalty ``ell``: the weight itself for
population scope, ``weight / rho_g`` for a targeted group. A positive weight
therefore lowers prices; a negative one acts as a tax and raises them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .demand import (
    LatentValuationModel,
    LogisticDemand,
    PartiallyLinearDemand,
    demand_curvature,
    demand_gradient,
    eval_demand,
)
from .errors import (
    ConvergenceError,
    DegenerateDemandError,
    MissingFieldError,
    PreconditionError,
)
from .optimize import golden_section_max

_BRACKET_SIGMAS = 10.0
_GRID_POINTS = 2001

POPULATION_SCOPE = "population"
GROUP_SCOPE = "group"


@dataclass(frozen=True)
class SharePenalty:
    """A take-up subsidy: scope, weight, and (for group scope) the target."""

    weight: float
    scope: str = POPULATION_SCOPE
    group: str | None = None

    def __post_init__(self):
        if self.scope not in (POPULATION_SCOPE, GROUP_SCOPE):
            raise MissingFieldError(f"unknown share scope {self.scope!r}")
        if self.scope == GROUP_SCOPE and self.group is None:
            raise MissingFieldError("group-scoped share penalty needs a group")
        if self.weight < 0.0:
            warnings.warn("negative share weight acts as a tax and raises prices",
                          stacklevel=2)

    def effective(self, rho: dict, group: str) -> float:
        """Per-customer margin shift for a member of ``group``."""
        if self.scope == POPULATION_SCOPE:
            return float(self.weight)
        if group != self.group:
            return 0.0
        prior = rho.get(self.group, 0.0)
        if not (prior > 0.0):
            raise PreconditionError(
                f"group {self.group!r} needs a positive prior")
        return float(self.weight) / prior


def _model_scale(model, x, group) -> tuple:
    """(center, spread) used to bracket the subsidized-revenue peak."""
    if isinstance(model, LatentValuationModel):
        return model.location(x, group), model.scale
    if isinstance(model, LogisticDemand):
        spread = 1.0 / abs(model.beta) if model.beta != 0.0 else 1.0
        x = np.asarray(x, dtype=float).reshape(-1)
        if model.beta != 0.0:
            center = -(model.gamma @ x + model.intercept) / model.beta
        else:
            center = 0.0
        return float(max(center, 0.0)), spread
    raise PreconditionError(f"unsupported model {type(model).__name__}")


def solve_share_price(model, x, group, ell: float) -> float:
    """Price maximizing ``(p + ell) * D(p | x, group)``.

    Partially linear demand has the closed form ``-dbar/(2 beta) - ell/2``.
    The curved families are solved on a bracket around the grid argmax of the
    objective via a safeguarded Newton iteration on the first-order condition
    ``D + (p + ell) D' = 0``, falling back to golden section when the
    condition does not change sign on the bracket (boundary optimum). Prices
    are kept above ``max(0, -ell)`` so the margin stays meaningful.
    """
    ell = float(ell)
    if isinstance(model, PartiallyLinearDemand):
        dbar = model.dbar(x, group)
        beta = model.slope(group)
        if beta >= 0.0:
            raise PreconditionError("price slope must be negative")
        return -dbar / (2.0 * beta) - ell / 2.0

    center, spread = _model_scale(model, x, group)
    lo_min = max(0.0, -ell) + (1e-9 if ell < 0.0 else 0.0)

    def demand(p):
        return eval_demand(model, x, group, p)

    def objective(p):
        return (p + ell) * demand(p)

    hi0 = max(center + _BRACKET_SIGMAS * spread,
              lo_min + _BRACKET_SIGMAS * spread)
    grid = np.linspace(lo_min, hi0, _GRID_POINTS)
    vals = objective(grid)
    if not np.any(vals > 0.0):
        raise DegenerateDemandError(
            "subsidized revenue is nonpositive everywhere in the price range")
    p0 = float(grid[int(np.argmax(vals))])
    lo = max(lo_min, p0 - _BRACKET_SIGMAS * spread)
    hi = p0 + _BRACKET_SIGMAS * spread

    def foc(p):
        return demand(p) + (p + ell) * demand_gradient(model, x, group, p)

    f_lo, f_hi = foc(lo), foc(hi)
    if f_lo * f_hi > 0.0:
        price, _ = golden_section_max(objective, lo, hi, tol=1e-10)
        return float(price)

    a, b = lo, hi
    fa = f_lo
    p = p0 if lo < p0 < hi else 0.5 * (a + b)
    for _ in range(200):
        fp = foc(p)
        if fp == 0.0:
            return float(p)
        if (fp > 0.0) == (fa > 0.0):
            a, fa = p, fp
        else:
            b = p
        if b - a < 1e-12 * max(1.0, abs(p)):
            return float(0.5 * (a + b))
        slope = (2.0 * demand_gradient(model, x, group, p)
                 + (p + ell) * demand_curvature(model, x, group, p))
        if slope != 0.0:
            candidate = p - fp / slope
            if a < candidate < b:
                p = candidate
                continue
        p = 0.5 * (a + b)
    raise ConvergenceError("share-price iteration failed to localize the optimum")


def revenue_curvature(model, x, group, p, ell: float = 0.0) -> float:
    """Second price derivative of ``(p + ell) * D(p)`` at ``p``."""
    return (2.0 * demand_gradient(model, x, group, p)
            + (p + ell) * demand_curvature(model, x, group, p))


@dataclass(frozen=True)
class SensitivityReport:
    """Local effect of a small share subsidy on the posted price.

    ``analytic`` is the implicit-function value ``D(p*) / (p* R''(p*))``
    scaled by ``1/rho_g`` for group scope; ``finite_difference`` re-solves the
    pricing problem at weights ``+-step``. ``inverse_curvature_form`` is the
    alternative normalization ``1 / (R'' p*^2)`` and is reported for
    inspection only.
    """

    price: float
    analytic: float
    finite_difference: float
    discrepancy: float
    curvature: float
    inverse_curvature_form: float
    scope: str
    step: float


def sensitivity_at_zero(model, x, group, scope: str = POPULATION_SCOPE,
                        rho: dict | None = None, step: float = 1e-4) -> SensitivityReport:
    """How the optimal price reacts to introducing a small share subsidy.

    Differentiating the first-order condition at zero subsidy gives
    ``dp*/dw = D(p*) / (p* R''(p*))`` for population scope; a group-targeted
    weight is diluted by the group prior, multiplying the value by
    ``1 / rho_g``. A central finite difference of the full solver validates
    the formula; both are returned with their discrepancy.
    """
    if scope not in (POPULATION_SCOPE, GROUP_SCOPE):
        raise MissingFieldError(f"unknown share scope {scope!r}")
    scale = 1.0
    if scope == GROUP_SCOPE:
        if rho is None or not (rho.get(group, 0.0) > 0.0):
            raise PreconditionError(
                "group-scope sensitivity needs the group priors")
        scale = 1.0 / rho[group]

    p_star = solve_share_price(model, x, group, 0.0)
    if p_star <= 0.0:
        raise PreconditionError("optimal price is not interior (p* <= 0)")
    demand = eval_demand(model, x, group, p_star)
    curv = revenue_curvature(model, x, group, p_star)
    if not (curv < 0.0):
        raise PreconditionError(
            f"revenue curvature {curv:g} at the optimum is not negative")
    analytic = scale * demand / (p_star * curv)

    plus = solve_share_price(model, x, group, scale * step)
    minus = solve_share_price(model, x, group, -scale * step)
    fd = (plus - minus) / (2.0 * step)
    return SensitivityReport(
        price=float(p_star), analytic=float(analytic),
        finite_difference=float(fd), discrepancy=float(abs(analytic - fd)),
        curvature=float(curv),
        inverse_curvature_form=float(1.0 / (curv * p_star ** 2)),
        scope=scope, step=float(step))


def share_frontier(model, population, weights, scope: str = POPULATION_SCOPE,
                   group: str | None = None) -> list:
    """Sweep subsidy weights and record per-group access, revenue, and price.

    For each weight the per-customer problem is re-solved and aggregated per
    group: mean offered price, expected take-up (access, model scale) and
    expected revenue. Returns a list of row dicts, one per (weight, group).
    """
    rows = []
    cells = population.cells()
    labels = cells.labels
    m = cells.mass
    for w in np.asarray(weights, dtype=float).reshape(-1):
        penalty = SharePenalty(weight=float(w), scope=scope, group=group)
        ell = {g: penalty.effective(population.rho, g)
               for g in dict.fromkeys(labels)}
        p = np.array([solve_share_price(model, x, g, ell[g])
                      for x, g in zip(cells.X, labels)])
        d = model.demand(cells.X, cells.g, p, cells.groups)
        for k, g in enumerate(population.groups):
            mass, psum, dsum, rsum = cells.totals(k, m, m * p, m * d, m * p * d)
            if mass <= 0.0:
                continue
            rows.append({
                "weight": float(w),
                "group": g,
                "price_mean": psum / mass,
                "access": dsum / mass,
                "revenue": rsum / mass,
            })
    return rows
