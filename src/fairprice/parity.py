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

from .demand import PartiallyLinearDemand, Population, eval_demand
from .errors import (
    MissingFieldError,
    MissingSupportError,
    PreconditionError,
    UnenforceableConstraintError,
    UnknownGroupError,
    UpwardSlopeError,
)
from .policies import TabularPolicy
from .util import json_dumps_stable

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

    ``prices`` maps ``(support_index, group)`` to a price; attribute-blind
    solutions use ``None`` as the group key. ``lambda_star`` is the dual
    multiplier in the orientation recorded by ``oriented_groups`` (positive
    group first); it is zero when the cap does not bind.
    """

    mode: str
    gamma: float
    lambda_star: float
    parity_weights: dict
    oriented_groups: tuple
    prices: dict
    support: np.ndarray
    groups: tuple
    unconstrained_disparity: float
    achieved_disparity: float

    def policy(self) -> TabularPolicy:
        return TabularPolicy(support=self.support, table=dict(self.prices))

    def price(self, x, a=None) -> float:
        return self.policy().price(x, a)

    def price_batch(self, X, groups) -> np.ndarray:
        return self.policy().price_batch(X, groups)

    def to_json(self) -> str:
        rows = []
        for (idx, group), price in sorted(
                self.prices.items(),
                key=lambda kv: (kv[0][0], kv[0][1] or "")):
            rows.append({"x_index": idx, "group": group, "price": price})
        payload = {
            "mode": self.mode,
            "gamma": self.gamma,
            "lambda_star": self.lambda_star,
            "xi": dict(self.parity_weights),
            "oriented_groups": list(self.oriented_groups),
            "unconstrained_disparity": self.unconstrained_disparity,
            "achieved_disparity": self.achieved_disparity,
            "prices": rows,
        }
        return json_dumps_stable(payload)


def _check_parity_inputs(model, population, gamma):
    if not isinstance(model, PartiallyLinearDemand):
        raise PreconditionError(
            "closed-form parity pricing needs partially linear demand")
    if population.support is None or population.membership is None:
        raise MissingSupportError(
            "parity solvers need a discrete support with membership probabilities")
    if len(population.groups) != 2:
        raise PreconditionError(
            f"parity solvers handle exactly two groups, got {len(population.groups)}")
    gamma = float(gamma)
    if math.isnan(gamma) or gamma < 0.0:
        raise MissingFieldError("gamma must be a nonnegative number or infinity")
    for g in population.groups:
        if g not in model.beta:
            raise UnknownGroupError(f"model has no slope for group {g!r}")
        if model.beta[g] >= 0.0:
            raise UpwardSlopeError(f"group {g!r}: price slope must be negative")
        if not (population.rho.get(g, 0.0) > 0.0):
            raise PreconditionError(f"group {g!r} needs a positive prior")
    return gamma


def _oriented_weights(population, positive_group):
    return {g: parity_weight(population.rho, g, positive_group)
            for g in population.groups}


def solve_attribute_based_parity(model: PartiallyLinearDemand,
                                 population: Population,
                                 gamma: float) -> ParitySolution:
    """Revenue-optimal prices p(x, a) subject to the mean-price parity cap.

    Stationarity of the Lagrangian gives
    ``p(x, a) = (-dbar(x, a) + lambda * xi(a)) / (2 beta_a)`` and the
    multiplier follows in closed form from making the cap hold with equality;
    it is zero when the unconstrained prices already satisfy the cap.
    """
    gamma = _check_parity_inputs(model, population, gamma)
    support = population.support
    joint = population.joint_weights()
    groups = population.groups
    dbar = np.array([[model.dbar(x, g) for g in groups] for x in support])
    beta = np.array([model.beta[g] for g in groups])

    def solve_for(positive_group):
        xi_map = _oriented_weights(population, positive_group)
        xi = np.array([xi_map[g] for g in groups])
        p0 = -dbar / (2.0 * beta)
        d0 = float(np.sum(joint * xi * p0))
        return xi_map, xi, p0, d0

    xi_map, xi, p0, d0 = solve_for(groups[0])
    positive = groups[0] if d0 >= 0.0 else groups[1]
    if d0 < 0.0:
        xi_map, xi, p0, d0 = solve_for(positive)

    if math.isinf(gamma) or d0 <= gamma:
        lam = 0.0
        prices = p0
        achieved = d0
    else:
        num = gamma - d0
        den = float(np.sum(joint * xi ** 2 / (2.0 * beta)))
        lam = num / den
        prices = (-dbar + lam * xi) / (2.0 * beta)
        achieved = gamma
    table = {(i, g): float(prices[i, k])
             for i in range(support.shape[0])
             for k, g in enumerate(groups)}
    other = groups[1] if positive == groups[0] else groups[0]
    return ParitySolution(
        mode=ATTRIBUTE_BASED, gamma=gamma, lambda_star=float(lam),
        parity_weights=xi_map, oriented_groups=(positive, other),
        prices=table, support=support.copy(), groups=groups,
        unconstrained_disparity=d0, achieved_disparity=float(achieved))


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
    gamma = _check_parity_inputs(model, population, gamma)
    support = population.support
    masses = population.masses
    memb = population.membership
    groups = population.groups
    dbar_xa = np.array([[model.dbar(x, g) for g in groups] for x in support])
    beta = np.array([model.beta[g] for g in groups])
    betabar = memb @ beta
    dbar_x = np.sum(memb * dbar_xa, axis=1)

    def solve_for(positive_group):
        xi_map = _oriented_weights(population, positive_group)
        xi = np.array([xi_map[g] for g in groups])
        m = memb @ xi
        p0 = -dbar_x / (2.0 * betabar)
        d0 = float(np.sum(masses * m * p0))
        return xi_map, xi, m, p0, d0

    xi_map, xi, m, p0, d0 = solve_for(groups[0])
    positive = groups[0] if d0 >= 0.0 else groups[1]
    if d0 < 0.0:
        xi_map, xi, m, p0, d0 = solve_for(positive)

    if math.isinf(gamma) or d0 <= gamma:
        lam = 0.0
        prices = p0
        achieved = d0
    else:
        den = float(np.sum(masses * m ** 2 / (2.0 * betabar)))
        if abs(den) < 1e-14:
            raise UnenforceableConstraintError(
                "covariates carry no group signal; an attribute-blind policy "
                "cannot move the disparity below the cap")
        lam = (gamma - d0) / den
        prices = (-dbar_x + lam * m) / (2.0 * betabar)
        achieved = gamma
    table = {(i, None): float(prices[i]) for i in range(support.shape[0])}
    other = groups[1] if positive == groups[0] else groups[0]
    return ParitySolution(
        mode=ATTRIBUTE_BLIND, gamma=gamma, lambda_star=float(lam),
        parity_weights=xi_map, oriented_groups=(positive, other),
        prices=table, support=support.copy(), groups=groups,
        unconstrained_disparity=d0, achieved_disparity=float(achieved))


def expected_revenue(policy, model, population) -> float:
    """E[P * D] for a policy, over the support when present, else records."""
    total = 0.0
    if population.support is not None and population.membership is not None:
        joint = population.joint_weights()
        for i, x in enumerate(population.support):
            for k, g in enumerate(population.groups):
                w = float(joint[i, k])
                if w > 0.0:
                    p = policy.price(x, g)
                    total += w * p * eval_demand(model, x, g, p)
        return total
    if not population.records:
        raise MissingFieldError("population has neither support nor records")
    for w, g, x in population.records.cells():
        p = policy.price(x, g)
        total += w * p * eval_demand(model, x, g, p)
    return total


def policy_disparity(policy, population) -> float:
    """Mean offered price gap E[P | first group] - E[P | second group]."""
    if population.support is None or population.membership is None:
        raise MissingSupportError("disparity over a policy needs a support")
    if len(population.groups) != 2:
        raise PreconditionError("policy disparity is defined for two groups")
    joint = population.joint_weights()
    means = []
    for k, g in enumerate(population.groups):
        w = joint[:, k]
        prices = np.array([policy.price(x, g) for x in population.support])
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
    gamma = math.inf
    _check_parity_inputs(model, population, gamma)
    betas = [model.beta[g] for g in population.groups]
    if abs(betas[0] - betas[1]) > 1e-12:
        raise PreconditionError(
            "revenue loss bound needs a price slope shared across groups")
    beta = betas[0]
    based = solve_attribute_based_parity(model, population, gamma)
    blind = solve_attribute_blind_parity(model, population, gamma)
    actual = (expected_revenue(based.policy(), model, population)
              - expected_revenue(blind.policy(), model, population))
    joint = population.joint_weights()
    groups = population.groups
    dbar_xa = np.array([[model.dbar(x, g) for g in groups]
                        for x in population.support])
    memb = population.membership
    dbar_x = np.sum(memb * dbar_xa, axis=1)
    second_moment_xa = float(np.sum(joint * dbar_xa ** 2))
    second_moment_x = float(population.masses @ dbar_x ** 2)
    bound = (second_moment_xa - second_moment_x) / (4.0 * abs(beta))
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


def _sign_of_diff(diff: float, tol: float = 1e-9) -> str:
    if diff < -tol:
        return "lower"
    if diff > tol:
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
    _check_parity_inputs(model, population, 0.0)
    groups = population.groups
    support = population.support
    if not (0 <= x_index < support.shape[0]):
        raise MissingSupportError(
            f"support index {x_index} out of range 0..{support.shape[0] - 1}")
    betas = [model.beta[g] for g in groups]
    if abs(betas[0] - betas[1]) > 1e-12:
        raise PreconditionError(
            "mode comparison needs a price slope shared across groups")
    beta = betas[0]
    dbar_xa = np.array([[model.dbar(x, g) for g in groups] for x in support])
    if float(np.max(np.abs(dbar_xa[:, 0] - dbar_xa[:, 1]))) > 1e-9:
        raise PreconditionError(
            "mode comparison needs a baseline free of the group label")

    based = solve_attribute_based_parity(model, population, 0.0)
    blind = solve_attribute_blind_parity(model, population, 0.0)

    # Unconstrained mean price per group fixes the orientation: `low` is the
    # group whose customers were cheaper before the cap.
    joint = population.joint_weights()
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

    ratio = None
    lhs = None
    if abs(lam_b) > 1e-12:
        ratio = lam_a / lam_b
        lhs = ratio
    rhs = memb_low - (rho_low / rho_high) * memb_high

    return ModeComparison(
        x_index=x_index, group_low=low, group_high=high,
        lambda_attribute=lam_a, lambda_blind=lam_b, ratio=ratio,
        membership_low=memb_low, membership_high=memb_high,
        contrast=contrast, condition_lhs=lhs, condition_rhs=rhs,
        diff_low=float(diff_low), diff_high=float(diff_high),
        predicted_low=predicted_low, predicted_high=predicted_high,
        consistent_low=_sign_of_diff(diff_low) == predicted_low,
        consistent_high=_sign_of_diff(diff_high) == predicted_high)


def most_group_leaning_index(population: Population, group: str) -> int:
    """Support index whose membership tilts most toward ``group``."""
    if population.membership is None:
        raise MissingSupportError("population has no membership matrix")
    k = population.group_index(group)
    return int(np.argmax(population.membership[:, k]))
