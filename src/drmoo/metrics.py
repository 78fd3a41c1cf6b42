"""Stationarity measures, Pareto machinery, and the robust toy frontier.

The balanced gradient norm ||sum_i w^i g_i|| measures Pareto stationarity of
the robust objectives; the stationarity surrogate adds the dual-gradient
term G * sum_i w^i |d/d eta^i| that upper-bounds the bias of evaluating the
theta-gradients away from the exact dual minimizers.
The Pareto filter keeps a point iff no point before it in a stable
lexicographic sort is <= it everywhere: a prefix minimum of f2 for two
objectives (O(k log k)), row chunks of comparisons for more.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dual import DualContext, ObjectiveJacobian, conjugate_value, exact_dual_min
from .dual import dual_value  # noqa: F401 (re-exported for the benchmark's tracer)
from .problems import ToySpec, perturbation_ensemble, toy_objectives

# element budget of robust_frontier's loss chunks and, for m > 2, the sort rule's comparisons;
# 64 KiB temporaries stay under glibc's mmap threshold, so the heap reuses them, not the OS
CHUNK_ELEMENTS = 1 << 13


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


def _pareto_keep(values) -> np.ndarray:
    """Sorted indices of the non-dominated rows of a (k, m) array, each
    distinct row at its first occurrence. After a stable lexicographic sort a
    row goes iff an earlier row is <= it in coordinates 1..m-1 (and so in 0):
    a dominator or a repeat, both of which sort first."""
    k, m = values.shape
    order = np.lexsort(values.T[::-1])
    v = values[order]
    keep = np.ones(k, dtype=bool)
    if m == 2:
        keep[1:] = v[1:, 1] < np.minimum.accumulate(v[:-1, 1])
    else:  # for m = 1 only the first row survives
        for rows in _row_chunks(k, k):
            head = v[:rows.stop]  # every row that sorts before one of the chunk's
            below = np.arange(len(head)) < np.arange(k)[rows, None]  # [i, j]: j before i
            for c in range(1, m):
                below &= head[:, c] <= v[rows, c, None]
            keep[rows] = ~below.any(axis=1)
    return np.sort(order[keep])


def pareto_filter(points):
    """Non-dominated subset of points, input order preserved.

    q dominates p when q's values are <= p's in every coordinate and < in at
    least one; exact duplicates count once, at their first occurrence. The
    points are sorted lexicographically (stably), and a point is kept iff no
    earlier point in that order is <= it in every coordinate; for m = 2 that
    is a strict prefix minimum of the second coordinate.
    """
    if not points:
        return []
    if len({len(p.values) for p in points}) > 1:
        raise ValueError("points mix different numbers of objectives")
    values = np.array([p.values for p in points], dtype=float)
    return [points[i] for i in _pareto_keep(values).tolist()]


def robust_frontier(spec: ToySpec, num_draws: int = 200, lam: float = 1.0, seed: int = 0):
    """Nominal and robust Pareto frontiers of the perturbed toy pair on spec.grid.

    For every theta on the grid, the nominal values come straight from
    toy_objectives; the robust value of objective i treats the i-th
    objective's evaluations under the perturbation ensemble (scale
    spec.perturbation_std) as the loss samples of the dual objective and
    minimizes the dual scalar out exactly, in row chunks of each objective's
    (k, num_draws) losses on a k-point grid (toy_objectives' arithmetic); a
    value is dual_value's arithmetic as a row mean, equal to dual_value on
    that row bit for bit. Only the columns of the two (2, k) clouds that
    pareto_filter's rule keeps become FrontierPoints. An overflow raises a
    ValueError naming the std.

    Returns (nominal_frontier, robust_frontier) as FrontierPoint lists. With
    perturbation_std=0 the ensemble is a point mass, the dual of a constant
    sample set is that constant, and the two frontiers coincide.
    """
    grid = np.asarray(spec.grid, dtype=float)
    ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=2)
    try:
        with np.errstate(over="raise", invalid="raise"):
            shifts = np.array([(s.x1, s.b1, s.x2, s.b2)  # (4, num_draws)
                               for s in perturbation_ensemble(spec, num_draws, seed)]).T
            clouds = (np.stack(toy_objectives(spec, grid)), np.empty((2, grid.size)))
            for i, (x, b) in enumerate((shifts[:2], shifts[2:])):
                for rows in _row_chunks(grid.size, num_draws):
                    losses = np.square(grid[rows, None] - x) + b
                    eta = exact_dual_min(ctx, losses)
                    t = (losses - eta[:, None]) / ctx.lam
                    clouds[1][i, rows] = ctx.lam * np.mean(conjugate_value(t), axis=1) + eta
    except FloatingPointError:
        raise ValueError(f"toy losses overflow at perturbation std {spec.perturbation_std} "
                         f"on grid [{grid.min()}, {grid.max()}]") from None
    kept = [_pareto_keep(c.T) for c in clouds]
    return tuple([FrontierPoint(t, tuple(v)) for t, v in zip(grid[j].tolist(), c[:, j].T.tolist())]
                 for c, j in zip(clouds, kept))


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
