#!/usr/bin/env python3
"""How perturbation robustness reshapes a two-objective frontier.

The toy pair is two 1-d parabolas with distinct minimizers; every theta
between them is Pareto optimal. Perturbing all four parabola constants with
Gaussian noise and scoring each objective through its distributionally
robust dual value lifts and tilts the curves, so the robust frontier is not
just the nominal one shifted up.

Things to try:
  - python3 demos/toy_frontier.py             (std 0.5, the interesting case)
  - python3 demos/toy_frontier.py --std 0     both frontiers coincide
  - python3 demos/toy_frontier.py --lam 10    large lambda: nearly nominal,
    the robust ball shrinks and the dual value approaches the ensemble mean
"""

import argparse

from drmoo.metrics import robust_frontier
from drmoo.problems import ToySpec
from drmoo.svg import emit_svg_scatter


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--std", type=float, default=0.5)
    ap.add_argument("--draws", type=int, default=200)
    ap.add_argument("--lam", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="toy_frontier.svg")
    args = ap.parse_args()

    # ToySpec's default grid: 401 points on [-1, 3]
    nominal, robust = robust_frontier(
        ToySpec(perturbation_std=args.std), num_draws=args.draws, lam=args.lam, seed=args.seed
    )

    print(f"std={args.std} draws={args.draws} lambda={args.lam}")
    print(f"nominal frontier: {len(nominal)} points, "
          f"theta in [{nominal[0].theta:.2f}, {nominal[-1].theta:.2f}]")
    print(f"robust frontier:  {len(robust)} points, "
          f"theta in [{robust[0].theta:.2f}, {robust[-1].theta:.2f}]")

    print("\n  theta   nominal (f1, f2)      robust (f1, f2)")
    nom_by_theta = {p.theta: p.values for p in nominal}
    for p in robust[:: max(1, len(robust) // 8)]:
        nv = nom_by_theta.get(p.theta)
        left = f"({nv[0]:6.3f}, {nv[1]:6.3f})" if nv else "   (dominated)   "
        print(f"  {p.theta:5.2f}   {left}    ({p.values[0]:6.3f}, {p.values[1]:6.3f})")

    emit_svg_scatter(
        [[p.values for p in nominal], [p.values for p in robust]],
        ["nominal", "robust"],
        args.out,
    )
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
