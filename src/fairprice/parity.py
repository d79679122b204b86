"""Closed-form price-parity solvers for partially linear demand.

Both solvers cap the absolute gap in mean offered price between two groups,
``|E[P | A=a] - E[P | A=b]| <= gamma``, while maximizing expected revenue over
a discrete covariate support. The attribute-based solver prices on (x, a); the
attribute-blind solver prices on x alone, so group composition enters only
through the per-point membership probabilities. Solutions are exact: the
constrained optimum solves a one-dimensional dual whose multiplier has a
closed form, obtained by plugging the stationary prices back into the
constraint.

Internally the groups are oriented so the unconstrained disparity is
nonnegative; reported multipliers refer to that orientation and the
``oriented_groups`` field records it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .demand import PartiallyLinearDemand, Population
from .errors import (
    MissingFieldError,
    PreconditionError,
    UnenforceableConstraintError,
    UnknownGroupError,
)
from .policies import TabularPolicy, table_rows

ATTRIBUTE_BASED = "attribute_based"
ATTRIBUTE_BLIND = "attribute_blind"


def parity_weight(rho: dict, group: str, positive_group: str | None = None) -> float:
    """Signed inverse-prior contrast weight for a two-group disparity.

    The weight is ``+1/rho_g`` for the positive group and ``-1/rho_g`` for the
    other, so that ``E[weight(A) * P]`` equals the mean-price gap
    ``E[P | positive] - E[P | other]``.
    """
    if len(rho) != 2:
        raise PreconditionError(
            f"parity weights are defined for exactly two groups, got {len(rho)}")
    labels = list(rho)
    if positive_group is None:
        positive_group = labels[0]
    if positive_group not in rho:
        raise UnknownGroupError(f"unknown group {positive_group!r}")
    if group not in rho:
        raise UnknownGroupError(f"unknown group {group!r}")
    prior = rho[group]
    if not (prior > 0.0):
        raise PreconditionError(f"group {group!r} needs a positive prior")
    return (1.0 if group == positive_group else -1.0) / prior


@dataclass
class ParitySolution:
    """Solved constrained pricing problem on a discrete support.

    ``price_array`` holds the price of every support point (rows) and
    ``columns`` label (one column per group; one blind column, labelled
    ``None``, for attribute-blind solutions). ``lambda_star`` is the dual
    multiplier in the orientation recorded by ``oriented_groups`` (positive
    group first); it is zero when the cap does not bind.
    """

    mode: str
    gamma: float
    lambda_star: float
    parity_weights: dict
    oriented_groups: tuple
    price_array: np.ndarray
    support: np.ndarray
    groups: tuple
    unconstrained_disparity: float
    achieved_disparity: float

    @property
    def columns(self) -> tuple:
        return self.groups if self.mode == ATTRIBUTE_BASED else (None,)

    @property
    def prices(self) -> dict:
        """``(support_index, group) -> price``, read from ``price_array``."""
        return self.policy().table

    def policy(self) -> TabularPolicy:
        return TabularPolicy(self.support, array=(self.columns, self.price_array))

    def to_dict(self) -> dict:
        """JSON-ready description; an infinite ``gamma`` stays a float."""
        return {
            "mode": self.mode,
            "gamma": self.gamma,
            "lambda_star": self.lambda_star,
            "xi": dict(self.parity_weights),
            "oriented_groups": list(self.oriented_groups),
            "unconstrained_disparity": self.unconstrained_disparity,
            "achieved_disparity": self.achieved_disparity,
            "prices": table_rows(self.prices),
        }


def _two_group_joint(population) -> np.ndarray:
    """The joint weights of a population of two groups of positive prior."""
    joint = population.joint_weights()
    if len(population.groups) != 2:
        raise PreconditionError(
            f"parity compares exactly two groups, got {len(population.groups)}")
    for g in population.groups:
        if not population.rho[g] > 0.0:
            raise PreconditionError(f"group {g!r} needs a positive prior")
    return joint


def _check_parity_inputs(model, population, gamma, shared=None):
    """The checked parity problem ``(gamma, joint, dbar, beta)``: ``gamma`` as
    a float, the joint weights and ``dbar(x_i, g)`` of every support point and
    group, and the group slopes. With ``shared``, the name of a result that
    needs it, the two groups must share one slope."""
    if not isinstance(model, PartiallyLinearDemand):
        raise PreconditionError(
            "closed-form parity pricing needs partially linear demand")
    joint = _two_group_joint(population)
    gamma = float(gamma)
    if math.isnan(gamma) or gamma < 0.0:
        raise MissingFieldError("gamma must be a nonnegative number or infinity")
    beta = model.downward_slopes(population.groups)
    if shared and abs(beta[0] - beta[1]) > 1e-12:
        raise PreconditionError(
            f"{shared} needs a price slope shared across groups")
    return gamma, joint, _dbar_matrix(model, population), beta


def _dbar_matrix(model, population) -> np.ndarray:
    """``dbar(x_i, g)`` of every support point and group, (n_support, n_groups)."""
    support, groups = population.support, population.groups
    n, k = support.shape[0], len(groups)
    dbar = model.baseline_rows(np.repeat(support, k, axis=0),
                               np.tile(np.arange(k), n), groups)
    return dbar.reshape(n, k)


def _solve(mode, population, problem):
    """The closed form both solvers share, on a checked parity ``problem``.
    Blind price cells are support points, which weigh the groups by
    membership; ``contrast @ xi`` is each price cell's contrast."""
    gamma, weight, dbar, slope = problem
    contrast = np.eye(len(slope))
    if mode == ATTRIBUTE_BLIND:
        contrast = population.membership
        weight, dbar = population.masses, np.sum(contrast * dbar, axis=1)
        slope = contrast @ slope
    groups = population.groups
    xi_map = {g: parity_weight(population.rho, g, groups[0]) for g in groups}
    xi = np.array([xi_map[g] for g in groups])
    c = contrast @ xi
    p0 = -dbar / (2.0 * slope)
    d0 = float(np.sum(weight * c * p0))
    flip = d0 < 0.0
    if flip:
        # Negation is exact; the contrast is recomputed, not negated, so a
        # zero contrast stays +0.0 as in a solve in this orientation.
        xi_map = {g: -w for g, w in xi_map.items()}
        xi = -xi
        c = contrast @ xi
        d0 = -d0

    if math.isinf(gamma) or d0 <= gamma:
        lam = 0.0
        prices = p0
        achieved = d0
    else:
        den = float(np.sum(weight * c ** 2 / (2.0 * slope)))
        if mode == ATTRIBUTE_BLIND and abs(den) < 1e-14:
            raise UnenforceableConstraintError(
                "covariates carry no group signal; an attribute-blind policy "
                "cannot move the disparity below the cap")
        lam = (gamma - d0) / den
        prices = (-dbar + lam * c) / (2.0 * slope)
        achieved = gamma
    return ParitySolution(
        mode=mode, gamma=gamma, lambda_star=float(lam),
        parity_weights=xi_map, oriented_groups=groups[::-1] if flip else groups,
        price_array=prices.reshape(len(population.support), -1),
        support=population.support.copy(), groups=groups,
        unconstrained_disparity=d0, achieved_disparity=float(achieved))


def solve_attribute_based_parity(model: PartiallyLinearDemand,
                                 population: Population,
                                 gamma: float) -> ParitySolution:
    """Revenue-optimal prices p(x, a) subject to the mean-price parity cap.

    Stationarity of the Lagrangian gives
    ``p(x, a) = (-dbar(x, a) + lambda * xi(a)) / (2 beta_a)`` and the
    multiplier follows in closed form from making the cap hold with equality;
    it is zero when the unconstrained prices already satisfy the cap.
    """
    return _solve(ATTRIBUTE_BASED, population,
                  _check_parity_inputs(model, population, gamma))


def solve_attribute_blind_parity(model: PartiallyLinearDemand,
                                 population: Population,
                                 gamma: float) -> ParitySolution:
    """Revenue-optimal prices p(x) -- no group input -- under the parity cap.

    With the group marginalized out, each support point carries a mean slope
    ``betabar(x)``, a mean baseline ``dbar(x)``, and a membership contrast
    ``m(x) = E[xi(A) | X=x]``; the stationary price is
    ``p(x) = (-dbar(x) + lambda * m(x)) / (2 betabar(x))`` with the same
    closed-form multiplier construction as the attribute-based solver. When
    the covariates carry no group signal (``m`` identically zero) a binding
    cap cannot be enforced and the solver raises.
    """
    return _solve(ATTRIBUTE_BLIND, population,
                  _check_parity_inputs(model, population, gamma))


def expected_revenue(policy, model, population) -> float:
    """E[P * D] for a policy, over the support when present, else records."""
    return population.cells().evaluate(policy, model)[2]


def policy_disparity(policy, population) -> float:
    """Mean offered price gap E[P | first group] - E[P | second group]."""
    joint = _two_group_joint(population)
    n = population.support.shape[0]
    means = []
    for k in range(len(population.groups)):
        w = joint[:, k]
        prices = population.support_prices(policy, np.arange(n), np.full(n, k))
        means.append(float(w @ prices / w.sum()))
    return means[0] - means[1]


def revenue_loss_bound(model: PartiallyLinearDemand,
                       population: Population):
    """Revenue given up by pricing blindly, with its moment-form bound.

    Requires a slope shared across groups. Returns ``(actual, bound)`` where
    ``actual`` is the gap between unconstrained attribute-based and
    attribute-blind expected revenue and ``bound`` is
    ``(E[dbar(X,A)^2] - E[dbar(X)^2]) / (4 |beta|)``; for partially linear
    demand with a shared slope the two coincide.
    """
    problem = _check_parity_inputs(model, population, math.inf,
                                   "revenue loss bound")
    _, joint, dbar_xa, beta = problem
    based = _solve(ATTRIBUTE_BASED, population, problem)
    blind = _solve(ATTRIBUTE_BLIND, population, problem)
    actual = (expected_revenue(based.policy(), model, population)
              - expected_revenue(blind.policy(), model, population))
    dbar_x = np.sum(population.membership * dbar_xa, axis=1)
    second_moment_xa = float(np.sum(joint * dbar_xa ** 2))
    second_moment_x = float(population.masses @ dbar_x ** 2)
    bound = (second_moment_xa - second_moment_x) / (4.0 * abs(float(beta[0])))
    return actual, bound


# ---------------------------------------------------------------------------
# attribute-based vs attribute-blind price comparison at one covariate point
# ---------------------------------------------------------------------------


@dataclass
class ModeComparison:
    """Who pays less under exact parity: per-group sign report at one point.

    Groups are relabeled so ``group_low`` is the group with the LOWER
    unconstrained mean price; in that orientation both multipliers are
    nonpositive. ``predicted_*`` comes from the sign of
    ``xi(g) * lambda_attr - m(x) * lambda_blind`` (negative price difference
    iff that quantity is positive); ``actual_*`` is the directly computed
    ``p_based(x, g) - p_blind(x)``; the consistency flags compare them. The
    threshold condition ``ratio < membership_low - (rho_low / rho_high) *
    membership_high`` is reported through its two sides.
    """

    x_index: int
    group_low: str
    group_high: str
    lambda_attribute: float
    lambda_blind: float
    ratio: float | None
    membership_low: float
    membership_high: float
    contrast: float
    condition_lhs: float | None
    condition_rhs: float
    diff_low: float
    diff_high: float
    predicted_low: str
    predicted_high: str
    consistent_low: bool
    consistent_high: bool


def _predict_sign(value: float, tol: float = 1e-12) -> str:
    if value > tol:
        return "lower"
    if value < -tol:
        return "higher"
    return "equal"


def compare_parity_modes(model: PartiallyLinearDemand,
                         population: Population,
                         x_index: int) -> ModeComparison:
    """Compare exact-parity prices across modes at one support point.

    Preconditions: two groups, a price slope shared across groups, and a
    baseline that does not depend on the group label (so the two modes differ
    only through the parity correction). Both problems are solved with a
    zero cap and the per-group sign of ``p_based(x, g) - p_blind(x)`` is both
    predicted from the multipliers and measured directly.
    """
    problem = _check_parity_inputs(model, population, 0.0, "mode comparison")
    _, joint, dbar_xa, beta = problem
    population.support_point(x_index)
    groups, beta = population.groups, float(beta[0])  # the shared slope
    if float(np.max(np.abs(dbar_xa[:, 0] - dbar_xa[:, 1]))) > 1e-9:
        raise PreconditionError(
            "mode comparison needs a baseline free of the group label")

    based = _solve(ATTRIBUTE_BASED, population, problem)
    blind = _solve(ATTRIBUTE_BLIND, population, problem)

    # Unconstrained mean price per group fixes the orientation: `low` is the
    # group whose customers were cheaper before the cap.
    p0 = -dbar_xa / (2.0 * beta)
    means = joint.sum(axis=0)
    mean_price = [float(joint[:, k] @ p0[:, k] / means[k]) for k in range(2)]
    low_idx = int(np.argmin(mean_price))
    low, high = groups[low_idx], groups[1 - low_idx]

    def reframe(solution):
        # Multiplier in the orientation with +1/rho on `low`.
        return (solution.lambda_star if solution.oriented_groups[0] == low
                else -solution.lambda_star)

    lam_a = reframe(based)
    lam_b = reframe(blind)
    rho_low = population.rho[low]
    rho_high = population.rho[high]
    memb = population.membership[x_index]
    memb_low = float(memb[population.group_index(low)])
    memb_high = float(memb[population.group_index(high)])
    contrast = memb_low / rho_low - memb_high / rho_high

    p_blind = blind.prices[(x_index, None)]
    diff_low = based.prices[(x_index, low)] - p_blind
    diff_high = based.prices[(x_index, high)] - p_blind

    xi_low = 1.0 / rho_low
    xi_high = -1.0 / rho_high
    score_low = xi_low * lam_a - contrast * lam_b
    score_high = xi_high * lam_a - contrast * lam_b
    # Same dead band as the measured differences, expressed in score units
    # (score and price difference are proportional with factor -1/(2 beta)).
    score_tol = 1e-9 * 2.0 * abs(beta)
    if abs(lam_a) < 1e-12 and abs(lam_b) < 1e-12:
        predicted_low = predicted_high = "equal"
    else:
        predicted_low = _predict_sign(score_low, score_tol)
        predicted_high = _predict_sign(score_high, score_tol)

    ratio = lam_a / lam_b if abs(lam_b) > 1e-12 else None
    rhs = memb_low - (rho_low / rho_high) * memb_high

    return ModeComparison(
        x_index=x_index, group_low=low, group_high=high,
        lambda_attribute=lam_a, lambda_blind=lam_b, ratio=ratio,
        membership_low=memb_low, membership_high=memb_high,
        contrast=contrast, condition_lhs=ratio, condition_rhs=rhs,
        diff_low=float(diff_low), diff_high=float(diff_high),
        predicted_low=predicted_low, predicted_high=predicted_high,
        consistent_low=_predict_sign(-diff_low, 1e-9) == predicted_low,
        consistent_high=_predict_sign(-diff_high, 1e-9) == predicted_high)


def most_group_leaning_index(population: Population, group: str) -> int:
    """Support index whose membership tilts most toward ``group``."""
    population.joint_weights()  # MissingSupportError without a support
    k = population.group_index(group)
    return int(np.argmax(population.membership[:, k]))
