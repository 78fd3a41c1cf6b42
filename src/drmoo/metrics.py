"""Stationarity measures, Pareto machinery, and the robust toy frontier.

The balanced gradient norm ||sum_i w^i g_i|| measures Pareto stationarity of
the robust objectives; the stationarity surrogate adds the dual-gradient
term G * sum_i w^i |d/d eta^i| that upper-bounds the bias of evaluating the
theta-gradients away from the exact dual minimizers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dual import DualContext, ObjectiveJacobian, conjugate_value, exact_dual_min
from .dual import dual_value  # noqa: F401 (re-exported for the benchmark's tracer)
from .problems import ToySpec, perturbation_ensemble, toy_objectives

# element budget of the row chunks robust_frontier and pareto_filter work on
CHUNK_ELEMENTS = 1 << 16


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
        if not self.values or not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"missing or non-finite objective values: {self.values}")


def _row_chunks(rows: int, cols: int):
    """Slices of the rows of a (rows, cols) block, each under CHUNK_ELEMENTS."""
    step = max(1, CHUNK_ELEMENTS // cols)
    return [slice(i, i + step) for i in range(0, rows, step)]


def pareto_filter(points):
    """Non-dominated subset of points, input order preserved.

    q dominates p when q's values are <= p's in every coordinate and < in at
    least one. Exact duplicates are collapsed to their first occurrence
    before filtering (ties never dominate each other). A distinct point is
    then kept when it is the only one <= it everywhere, tested on row chunks
    of the (k, k) block of per-coordinate comparisons ANDed together.
    """
    uniq = {}  # first point of each distinct value tuple
    for p in points:
        uniq.setdefault(p.values, p)
    if not uniq:
        return []
    m = len(next(iter(uniq)))
    if any(len(v) != m for v in uniq):
        raise ValueError("points mix different numbers of objectives")
    cols = np.array(list(uniq)).T.copy()  # (m, k), one row per coordinate
    keep = np.empty(len(uniq), dtype=bool)
    for rows in _row_chunks(len(uniq), len(uniq)):
        below = cols[0] <= cols[0, rows, None]  # [i, j]: j <= i in every coordinate, once ANDed
        for c in range(1, m):
            below &= cols[c] <= cols[c, rows, None]
        keep[rows] = np.count_nonzero(below, axis=1) == 1
    return [p for p, k in zip(uniq.values(), keep) if k]


def robust_frontier(spec: ToySpec, num_draws: int = 200, lam: float = 1.0, seed: int = 0):
    """Nominal and robust Pareto frontiers of the perturbed toy pair on spec.grid.

    For every theta on the grid, the nominal values come straight from
    toy_objectives; the robust value of objective i treats the i-th
    objective's evaluations under the perturbation ensemble (scale
    spec.perturbation_std) as the loss samples of the dual objective and
    minimizes the dual scalar out exactly. On a k-point grid the sample sets
    of objectives 1 and 2 at point r are rows r and k + r of one C-ordered
    (2k, num_draws) block, taken in row chunks; a value is dual_value's
    arithmetic as a row mean, equal to dual_value on that row bit for bit.
    Both point clouds then pass through pareto_filter.

    Returns (nominal_frontier, robust_frontier) as FrontierPoint lists. With
    perturbation_std=0 the ensemble is a point mass, the dual of a constant
    sample set is that constant, and the two frontiers coincide.
    """
    grid = np.asarray(spec.grid, dtype=float)
    k = grid.size
    specs = perturbation_ensemble(spec, num_draws, seed)
    ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=2)

    losses = np.empty((2 * k, num_draws))
    for j, s in enumerate(specs):
        losses[:k, j], losses[k:, j] = toy_objectives(s, grid)
    robust = np.empty(2 * k)
    for rows in _row_chunks(2 * k, num_draws):
        eta = exact_dual_min(ctx, losses[rows])
        t = (losses[rows] - eta[:, None]) / ctx.lam
        robust[rows] = ctx.lam * np.mean(conjugate_value(t), axis=1) + eta
    clouds = (np.stack(toy_objectives(spec, grid)), robust.reshape(2, k))  # (f1, f2) rows
    return tuple(pareto_filter(list(map(FrontierPoint, grid.tolist(), zip(*c.tolist()))))
                 for c in clouds)


def window_means(values):
    """(mean of the first 20 entries, mean of the last 20).

    The two windows may overlap when the series is shorter than 40; used
    for the initial-vs-final trend summaries (init20, final20) of solver
    traces.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty series")
    k = min(20, values.size)
    return float(values[:k].mean()), float(values[-k:].mean())


__all__ = [
    "FrontierPoint",
    "balanced_grad_norm",
    "pareto_filter",
    "robust_frontier",
    "surrogate_stationarity",
    "window_means",
]
