#!/usr/bin/env python3
"""What the scalar dual objective looks like and what lambda buys you.

For one batch of losses the robust surrogate is

    L(eta) = lambda * mean_j f*((loss_j - eta) / lambda) + eta

with f* the chi-square conjugate. It is convex and piecewise smooth in eta,
and its derivative is piecewise linear, so the minimizer has a closed form
(sort the losses, then an active-set test on their running sums). Sweeping
lambda shows the two limits worth knowing:

  - lambda -> 0:   the value climbs to the worst single loss (adversary
                   unconstrained inside the divergence ball)
  - lambda -> inf: the value falls to the plain mean (ball collapses, risk
                   neutral)

Run: python3 demos/dual_objective_tour.py [--size 40] [--seed 7]
"""

import argparse

import numpy as np

from drmoo.dual import DualContext, dual_value, exact_dual_min, grad_eta


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--size", type=int, default=40)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    losses = rng.gamma(2.0, 1.5, args.size)  # skewed, like real losses
    print(f"{args.size} losses: mean {losses.mean():.4f}, max {losses.max():.4f}\n")

    print("  lambda      eta*     L(eta*)   |dL/deta|")
    for lam in (0.05, 0.2, 1.0, 5.0, 25.0, 125.0):
        ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=1)
        eta_star = exact_dual_min(ctx, losses)
        val = dual_value(ctx, losses, eta_star)
        g = abs(grad_eta(ctx, losses, eta_star))
        print(f"  {lam:6.2f}  {eta_star:8.4f}  {val:9.4f}   {g:.1e}")

    print("\nsmall lambda hugs the max, large lambda hugs the mean.")

    # convexity, seen directly: sample the curve around the minimizer
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=1)
    eta_star = exact_dual_min(ctx, losses)
    v_star = dual_value(ctx, losses, eta_star)
    offsets = np.array([-2.0, -0.5, -0.1, 0.0, 0.1, 0.5, 2.0])
    print("\nlambda=1 cross-section (value - minimum):")
    for off in offsets:
        gap = dual_value(ctx, losses, eta_star + off) - v_star
        bar = "#" * int(min(40, round(8 * gap)))
        print(f"  eta* {off:+4.1f}: {gap:8.5f} {bar}")


if __name__ == "__main__":
    main()
