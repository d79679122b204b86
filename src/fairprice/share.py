"""Share-subsidized pricing: maximize ``(p + ell) * D(p)`` per customer.

A participation subsidy adds ``weight * E[D]`` (population scope) or
``weight * E[D | A = g]`` (group scope) to expected revenue. Per customer this
shifts the margin by an effective penalty ``ell``: the weight itself for
population scope, ``weight / rho_g`` for a targeted group. A positive weight
therefore lowers prices; a negative one acts as a tax and raises them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .demand import (
    LatentValuationModel,
    LogisticDemand,
    PartiallyLinearDemand,
    _along,
    demand_curvature,
    demand_gradient,
    eval_demand,
    take_rows,
)
from .errors import (
    ConvergenceError,
    DegenerateDemandError,
    FairPriceError,
    MissingFieldError,
    PreconditionError,
    UnknownGroupError,
)
from .optimize import golden_rows, grid_argmax

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
        if not math.isfinite(self.weight):
            raise MissingFieldError("share weight must be a finite number")
        if self.weight < 0.0:
            warnings.warn("negative share weight acts as a tax and raises prices",
                          stacklevel=3)

    def effective(self, rho: dict, group: str) -> float:
        """Per-customer margin shift for a member of ``group``."""
        if self.scope == POPULATION_SCOPE:
            return float(self.weight)
        if self.group not in rho:
            raise UnknownGroupError(f"unknown group {self.group!r}")
        if group != self.group:
            return 0.0
        if not (rho[self.group] > 0.0):
            raise PreconditionError(
                f"group {self.group!r} needs a positive prior")
        return float(self.weight) / rho[self.group]


def share_prices(model, X, g, groups, ell) -> np.ndarray:
    """Price maximizing ``(p + ell) * D(p | x, a)`` for every row of ``X``,
    with ``g`` indexing ``groups`` and ``ell`` the penalty per row.

    Partially linear demand has the closed form ``-dbar/(2 beta) - ell/2``.
    Curved demand takes the grid argmax of the objective, then a safeguarded
    Newton iteration on ``D + (p + ell) D' = 0`` for all rows in lockstep, or
    lockstep golden section for the rows where that condition keeps its sign
    on the bracket (boundary optimum). Prices stay above ``max(0, -ell)``.
    Each row gets the price it gets alone; a failure raises the first failing
    row's. The model's row terms are computed once for all of it.
    """
    X, g, ell = np.asarray(X, float), np.asarray(g), np.asarray(ell, float)
    try:
        return _share_rows(model, X, g, groups, ell)
    except FairPriceError:
        # a row fails as it fails alone, so when no row before the last
        # fails, the error is the last row's
        for r in range(len(ell) - 1):
            _share_rows(model, X[r:r + 1], g[r:r + 1], groups, ell[r:r + 1])
        raise


def _share_rows(model, X, g, groups, ell) -> np.ndarray:
    if not isinstance(model, (PartiallyLinearDemand, LatentValuationModel,
                              LogisticDemand)):
        raise PreconditionError(f"unsupported model {type(model).__name__}")
    terms = model.row_terms(X, g, groups)
    if isinstance(model, PartiallyLinearDemand):
        model.downward_slopes([groups[j] for j in np.unique(g)])
        dbar, beta = terms
        return -dbar / (2.0 * beta) - ell / 2.0
    # np.where(b > a, b, a) is Python's max(a, b), on ties of +-0 and NaN too
    if isinstance(model, LatentValuationModel):
        center, spread = terms[0], model.scale
    else:
        spread = 1.0 / abs(model.beta)
        center = -(terms[0] + model.intercept) / model.beta
        center = np.where(0.0 > center, 0.0, center)
    step = _BRACKET_SIGMAS * spread
    lo_min = np.where(-ell > 0.0, -ell, 0.0) + np.where(ell < 0.0, 1e-9, 0.0)
    hi0 = np.where(lo_min + step > center + step, lo_min + step, center + step)

    def objective(rows, p):
        return (p + _along(ell[rows], p)) * model.kernels(
            take_rows(terms, rows), p, "demand")[0]

    around, positive = grid_argmax(objective, len(ell), lo_min, hi0,
                                   _GRID_POINTS)
    if not positive.all():
        raise DegenerateDemandError("subsidized revenue is nonpositive "
                                    "everywhere in the price range")
    p0 = around[:, 1]
    lo, hi = np.where(p0 - step > lo_min, p0 - step, lo_min), p0 + step

    def foc(rows, p, *more):  # D + (p + ell) D', then D' and the more kernels
        d, dp, *rest = model.kernels(take_rows(terms, rows), p, "demand",
                                     "gradient", *more)
        return d + (p + ell[rows]) * dp, dp, *rest

    f_lo = foc(..., lo)[0]
    # signs, not the product, which under- or overflows at extreme demand
    golden = np.sign(f_lo) * np.sign(foc(..., hi)[0]) > 0.0
    price, at = np.empty(len(ell)), np.flatnonzero(golden)
    if at.size:
        price[at] = golden_rows(lambda i, p: objective(at[i], p), lo[at],
                                hi[at], 1e-10)[0]
    rows = np.flatnonzero(~golden)
    a, b, fa = lo[rows], hi[rows], f_lo[rows]
    p = np.where((lo < p0) & (p0 < hi), p0, 0.5 * (lo + hi))[rows]
    for _ in range(200):
        fp, dp, ddp = foc(rows, p, "curvature")
        up = (fp > 0.0) == (fa > 0.0)
        a, fa, b = np.where(up, p, a), np.where(up, fp, fa), np.where(up, b, p)
        mid, root, size = 0.5 * (a + b), fp == 0.0, np.abs(p)
        narrow = ~root & (b - a < 1e-12 * np.where(size > 1.0, size, 1.0))
        price[rows[root]], price[rows[narrow]] = p[root], mid[narrow]
        slope = 2.0 * dp + (p + ell[rows]) * ddp
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = p - fp / slope
        p = np.where((slope != 0.0) & (a < newton) & (newton < b), newton, mid)
        live = ~(root | narrow)
        rows, a, b, fa, p = rows[live], a[live], b[live], fa[live], p[live]
        if not rows.size:
            return price
    raise ConvergenceError(
        "share-price iteration failed to localize the optimum")


def solve_share_price(model, x, group, ell: float) -> float:
    """The one-row call of :func:`share_prices`."""
    return float(share_prices(model, np.reshape(x, (1, -1)), [0], (group,),
                              [float(ell)])[0])


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
    if scope == GROUP_SCOPE and rho is None:
        raise PreconditionError("group-scope sensitivity needs the group priors")
    scale = SharePenalty(1.0, scope, group).effective(rho, group)

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
    m = cells.mass
    for w in np.asarray(weights, dtype=float).reshape(-1):
        penalty = SharePenalty(weight=float(w), scope=scope, group=group)
        # every group's shift, so that a target group without cells is
        # checked too
        ell = [penalty.effective(population.rho, g) for g in cells.groups]
        p = share_prices(model, cells.X, cells.g, cells.groups,
                         np.array(ell)[cells.g])
        d = model.demand(cells.X, cells.g, p, cells.groups)
        for k, g in enumerate(population.groups):
            mass, psum, dsum, rsum = cells.totals(k, m, m * p, m * d, m * p * d)
            if mass > 0.0:
                rows.append({"weight": float(w), "group": g,
                             "price_mean": psum / mass, "access": dsum / mass,
                             "revenue": rsum / mass})
    return rows
