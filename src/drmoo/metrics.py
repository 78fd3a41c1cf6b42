"""Stationarity measures, Pareto machinery, and the robust toy frontier.

The balanced gradient norm ||sum_i w^i g_i|| measures Pareto stationarity of
the robust objectives; the stationarity surrogate adds the dual-gradient
term G * sum_i w^i |d/d eta^i| that upper-bounds the bias of evaluating the
theta-gradients away from the exact dual minimizers.
"""

from dataclasses import dataclass

import numpy as np

from .dual import DualContext, ObjectiveJacobian, dual_value, exact_dual_min
from .problems import ToySpec, perturbation_ensemble, toy_objectives


def balanced_grad_norm(jac: ObjectiveJacobian, w) -> float:
    """||sum_i w^i * theta_grad_i||, the Pareto stationarity measure."""
    theta_grads = np.asarray(jac.theta_grads, dtype=float)
    w = np.asarray(w, dtype=float)
    if theta_grads.ndim != 2 or theta_grads.shape[1] != w.shape[0]:
        raise ValueError(
            f"jacobian with {theta_grads.shape} columns does not match w of length {w.shape[0]}"
        )
    return float(np.linalg.norm(theta_grads @ w))


def surrogate_stationarity(jac: ObjectiveJacobian, w, lipschitz_g: float) -> float:
    """G * sum_i w^i |eta_grad_i| + ||sum_i w^i theta_grad_i||.

    Upper bound on the balanced gradient norm of the exact robust
    objectives, computable at any dual iterate; collapses to
    balanced_grad_norm when the eta-gradients vanish (i.e. at the exact
    dual minimizers).
    """
    if lipschitz_g <= 0:
        raise ValueError(f"G must be positive, got {lipschitz_g}")
    eta_grads = np.asarray(jac.eta_grads, dtype=float)
    w = np.asarray(w, dtype=float)
    if eta_grads.shape != w.shape:
        raise ValueError(
            f"eta gradients of shape {eta_grads.shape} do not match w of shape {w.shape}"
        )
    return lipschitz_g * float(np.sum(w * np.abs(eta_grads))) + balanced_grad_norm(jac, w)


@dataclass(frozen=True)
class FrontierPoint:
    """A sampled point: its parameter and its m objective values."""

    theta: float
    values: tuple

    def __post_init__(self):
        if not self.values or not all(np.isfinite(v) for v in self.values):
            raise ValueError(f"missing or non-finite objective values: {self.values}")


def pareto_filter(points):
    """Non-dominated subset of points, input order preserved.

    q dominates p when q's values are <= p's in every coordinate and < in at
    least one. Exact duplicates are collapsed to their first occurrence
    before filtering (ties never dominate each other). The distinct values
    are then walked in lexicographic order, which puts every dominator of a
    point before it; a point is kept unless an already-kept point is <= it
    everywhere, and by transitivity the kept points are the only dominators
    that need checking.
    """
    points = list(points)
    if not points:
        return []
    m = len(points[0].values)
    if any(len(p.values) != m for p in points):
        raise ValueError("points mix different numbers of objectives")
    seen = set()
    uniq = []
    for p in points:
        if p.values not in seen:
            seen.add(p.values)
            uniq.append(p)
    vals = np.array([p.values for p in uniq])  # (k, m)
    front = np.empty_like(vals)  # values of the points kept so far
    size = 0
    keep = np.zeros(len(uniq), dtype=bool)
    for j in np.lexsort(vals.T[::-1]):
        if not np.all(front[:size] <= vals[j], axis=1).any():
            front[size] = vals[j]
            size += 1
            keep[j] = True
    return [p for p, k in zip(uniq, keep) if k]


def robust_frontier(spec: ToySpec, num_draws: int = 200, lam: float = 1.0, seed: int = 0):
    """Nominal and robust Pareto frontiers of the perturbed toy pair on spec.grid.

    For every theta on the grid, the nominal values come straight from
    toy_objectives; the robust value of objective k treats the k-th
    objective's evaluations under the perturbation ensemble (scale
    spec.perturbation_std) as the loss samples of the dual objective and
    minimizes the dual scalar out exactly. Both point clouds then pass
    through pareto_filter.

    Returns (nominal_frontier, robust_frontier) as FrontierPoint lists. With
    perturbation_std=0 the ensemble is a point mass, the dual of a constant
    sample set is that constant, and the two frontiers coincide.
    """
    grid = np.asarray(spec.grid, dtype=float)
    specs = perturbation_ensemble(spec, num_draws, seed)
    ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=2)

    # objective evaluations under every perturbed spec: (num_draws, grid)
    f1_draws = np.stack([toy_objectives(s, grid)[0] for s in specs])
    f2_draws = np.stack([toy_objectives(s, grid)[1] for s in specs])

    nominal = []
    robust = []
    for j, theta in enumerate(grid):
        f1, f2 = toy_objectives(spec, float(theta))
        nominal.append(FrontierPoint(float(theta), (f1, f2)))
        rvals = []
        for draws in (f1_draws[:, j], f2_draws[:, j]):
            eta_star = exact_dual_min(ctx, draws)
            rvals.append(dual_value(ctx, draws, eta_star))
        robust.append(FrontierPoint(float(theta), tuple(rvals)))
    return pareto_filter(nominal), pareto_filter(robust)


def window_means(values, window: int = 20):
    """(mean of the first `window` entries, mean of the last `window`).

    The two windows may overlap when the series is shorter than 2*window;
    used for the initial-vs-final trend summaries of solver traces.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty series")
    k = min(window, values.size)
    return float(values[:k].mean()), float(values[-k:].mean())


__all__ = [
    "FrontierPoint",
    "balanced_grad_norm",
    "pareto_filter",
    "robust_frontier",
    "surrogate_stationarity",
    "window_means",
]
