#!/usr/bin/env python3
"""Walk through the closed-form parity-constrained pricing solvers.

Starts from a tiny instance that can be checked by hand, then traces how the
dual multiplier, prices, and revenue move as the disparity cap tightens, and
finishes with the equal-slope revenue-loss bound.
"""

import numpy as np

import fairprice as fp


def hand_instance():
    model = fp.PartiallyLinearDemand(
        beta={"a": -1.0, "b": -1.0},
        baseline={"a": (2.0, np.array([])), "b": (1.0, np.array([]))})
    pop = fp.Population(groups=("a", "b"), support=[[]], masses=[1.0],
                        membership=[[0.5, 0.5]])
    return model, pop


def main():
    model, pop = hand_instance()

    print("== a one-cell market you can solve on paper ==")
    print("intercepts (a, b) = (2, 1), slope -1, groups split 50/50")
    free = fp.solve_attribute_based_parity(model, pop, gamma=np.inf)
    a, b = free.price_array[0].tolist()
    print(f"unconstrained prices: a={a:.4f} b={b:.4f} "
          f"(disparity {free.unconstrained_disparity:+.4f})")

    tight = fp.solve_attribute_based_parity(model, pop, gamma=0.0)
    a, b = tight.price_array[0].tolist()
    print(f"exact parity:        a={a:.4f} b={b:.4f} "
          f"(multiplier {tight.lambda_star:.4f})")
    r_free = fp.expected_revenue(free.policy(), model, pop)
    r_tight = fp.expected_revenue(tight.policy(), model, pop)
    print(f"revenue {r_free:.4f} -> {r_tight:.4f} "
          f"(cost of parity {r_free - r_tight:.4f})")

    print("\n== tightening the cap on a random 3-cell market ==")
    rng = np.random.default_rng(8)
    baseline = {g: (rng.uniform(1.5, 3.0), np.array([rng.uniform(-0.3, 0.3)]))
                for g in ("a", "b")}
    model = fp.PartiallyLinearDemand(beta={"a": -1.1, "b": -1.1},
                                     baseline=baseline)
    pop = fp.Population(
        groups=("a", "b"),
        support=[[-0.5], [0.2], [1.0]],
        masses=[0.3, 0.4, 0.3],
        membership=[[0.8, 0.2], [0.5, 0.5], [0.25, 0.75]])

    d0 = abs(fp.solve_attribute_based_parity(model, pop,
                                             gamma=np.inf).unconstrained_disparity)
    print(f"{'cap':>8} {'multiplier':>11} {'revenue':>9} {'disparity':>10}")
    for gamma in np.linspace(0.0, 1.1 * d0, 6):
        sol = fp.solve_attribute_based_parity(model, pop, gamma=float(gamma))
        rev = fp.expected_revenue(sol.policy(), model, pop)
        print(f"{gamma:8.4f} {sol.lambda_star:11.4f} {rev:9.5f} "
              f"{sol.achieved_disparity:10.5f}")

    print("\n== attribute-blind pricing pays an information cost ==")
    based = fp.solve_attribute_based_parity(model, pop, gamma=np.inf)
    blind = fp.solve_attribute_blind_parity(model, pop, gamma=np.inf)
    r_based = fp.expected_revenue(based.policy(), model, pop)
    r_blind = fp.expected_revenue(blind.policy(), model, pop)
    actual, bound = fp.revenue_loss_bound(model, pop)
    print(f"revenue with group-aware prices: {r_based:.5f}")
    print(f"revenue with covariate-only prices: {r_blind:.5f}")
    print(f"gap {actual:.5f} vs second-moment bound {bound:.5f}")


if __name__ == "__main__":
    main()
