"""Stationarity measures, Pareto machinery, and the robust toy frontier.

The balanced gradient norm ||sum_i w^i g_i|| measures Pareto stationarity of
the robust objectives; the stationarity surrogate adds the dual-gradient
term G * sum_i w^i |d/d eta^i| that upper-bounds the bias of evaluating the
theta-gradients away from the exact dual minimizers. Both take the plain
arrays that dual.rescaled_grads returns.
The Pareto filter keeps a point iff no point before it in a stable
lexicographic sort is <= it everywhere: a prefix minimum of f2 for two
objectives (O(k log k)), row chunks of comparisons for more.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dual import _sorted_dual_min, chi_weights
from .dual import dual_value, exact_dual_min  # noqa: F401 (re-exported for the benchmark's tracer)
from .problems import ToySpec, perturbation_draws, toy_objectives
from .problems import perturbation_ensemble  # noqa: F401 (re-exported for the benchmark's tracer)

# element budget of one block of robust_frontier's workspace (allocated once per call and
# reused by every block) and, for m > 2, of the sort rule's comparisons
CHUNK_ELEMENTS = 1 << 15


def balanced_grad_norm(theta_grads, w) -> float:
    """||sum_i w^i * theta_grad_i|| of (n, m) theta_grads, the Pareto stationarity measure."""
    theta_grads = np.asarray(theta_grads, dtype=float)
    w = np.asarray(w, dtype=float)
    if theta_grads.ndim != 2 or theta_grads.shape[1] != w.shape[0]:
        raise ValueError(
            f"jacobian with {theta_grads.shape} columns does not match w of length {w.shape[0]}"
        )
    return float(np.linalg.norm(theta_grads @ w))


def surrogate_stationarity(theta_grads, eta_grads, w, lipschitz_g: float) -> float:
    """G * sum_i w^i |eta_grad_i| + ||sum_i w^i theta_grad_i||.

    Upper bound on the balanced gradient norm of the exact robust
    objectives, computable at any dual iterate; collapses to
    balanced_grad_norm when the eta-gradients vanish (i.e. at the exact
    dual minimizers).
    """
    if lipschitz_g <= 0:
        raise ValueError(f"G must be positive, got {lipschitz_g}")
    eta_grads = np.asarray(eta_grads, dtype=float)
    w = np.asarray(w, dtype=float)
    if eta_grads.shape != w.shape:
        raise ValueError(
            f"eta gradients of shape {eta_grads.shape} do not match w of shape {w.shape}"
        )
    return lipschitz_g * float(np.sum(w * np.abs(eta_grads))) + balanced_grad_norm(theta_grads, w)


@dataclass(frozen=True)
class FrontierPoint:
    """A sampled point: its parameter and its m objective values."""

    theta: float
    values: tuple

    def __post_init__(self):
        if not self.values or not all(math.isfinite(v) for v in self.values):
            raise ValueError(f"missing or non-finite objective values: {self.values}")


def _row_chunks(rows: int, cols: int):
    """Slices of the rows of a (rows, cols) block, each under CHUNK_ELEMENTS
    (or one row), the last one ending at rows."""
    step = max(1, CHUNK_ELEMENTS // cols)
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


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


def robust_frontier(spec: ToySpec, num_draws: int, lam: float, seed: int):
    """Nominal and robust Pareto frontiers of the perturbed toy pair on spec.grid.

    For every theta on the grid, the nominal values come straight from
    toy_objectives; the robust value of objective i treats the i-th
    objective's evaluations under the perturbation ensemble (scale
    spec.perturbation_std, drawn by perturbation_draws) as the loss samples
    of the dual objective and minimizes the dual scalar out exactly. Each
    objective's (k, num_draws) losses on a k-point grid (toy_objectives'
    arithmetic) are solved in row blocks, in place over one workspace
    allocated per call, by exact_dual_min's kernel; a value is dual_value's
    arithmetic as a row mean, so it equals dual_value at exact_dual_min of
    its row bit for bit. Only the grid points of the two (k, 2) value clouds
    that pareto_filter's rule keeps are returned. An overflow raises a
    ValueError naming the std.

    Returns (nominal_frontier, robust_frontier), each a pair of arrays
    (theta (j,), values (j, 2)) in grid order. With perturbation_std=0 the
    ensemble is a point mass, the dual of a constant sample set is that
    constant, and the two frontiers coincide.
    """
    if not 0 < lam < math.inf:  # DualContext's rule; the kernels read only lambda
        raise ValueError(f"lambda must be positive and finite, got {lam}")
    grid = np.asarray(spec.grid, dtype=float)
    try:
        with np.errstate(over="raise", invalid="raise"):
            shifts = perturbation_draws(spec, num_draws, seed).T.copy()  # x1, b1, x2, b2
            clouds = (np.stack(toy_objectives(spec, grid), axis=1), np.empty((grid.size, 2)))
            blocks = _row_chunks(grid.size, num_draws)
            work = np.empty((4, blocks[0].stop, num_draws))
            mask = np.empty(work.shape[1:], dtype=bool)
            for i, (x, b) in enumerate((shifts[:2], shifts[2:])):
                for rows in blocks:
                    n = rows.stop - rows.start
                    losses, u, gap, eta = work[:, :n]
                    np.square(np.subtract(grid[rows, None], x, out=losses), out=losses)
                    losses += b
                    np.copyto(u, losses)
                    u.sort(axis=1)
                    eta_star = _sorted_dual_min(lam, u, gap, eta, mask[:n])
                    f = chi_weights(lam, losses, eta_star, out=gap)  # (t + 2)_+
                    np.square(f, out=f)
                    f *= 0.25
                    f -= 1.0  # f*(t), t = (losses - eta*) / lambda
                    clouds[1][rows, i] = lam * np.mean(f, axis=1) + eta_star
    except FloatingPointError:
        raise ValueError(f"toy losses overflow at perturbation std {spec.perturbation_std} "
                         f"on grid [{grid.min()}, {grid.max()}]") from None
    kept = [_pareto_keep(c) for c in clouds]
    return tuple((grid[j], c[j]) for c, j in zip(clouds, kept))


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

