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
    for name, (theta, _) in (("nominal", nominal), ("robust", robust)):
        print(f"{name + ' frontier:':17} {len(theta)} points, "
              f"theta in [{theta[0]:.2f}, {theta[-1]:.2f}]")

    print("\n  theta   nominal (f1, f2)      robust (f1, f2)")
    nom_by_theta = dict(zip(nominal[0].tolist(), nominal[1].tolist()))
    theta, values = robust
    step = max(1, len(theta) // 8)
    for t, (f1, f2) in zip(theta[::step].tolist(), values[::step].tolist()):
        nv = nom_by_theta.get(t)
        left = f"({nv[0]:6.3f}, {nv[1]:6.3f})" if nv else "   (dominated)   "
        print(f"  {t:5.2f}   {left}    ({f1:6.3f}, {f2:6.3f})")

    emit_svg_scatter([nominal[1], robust[1]], ["nominal", "robust"], args.out)
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
