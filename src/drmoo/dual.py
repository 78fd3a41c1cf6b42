"""Dual objective of chi-square distributionally robust optimization.

For one objective with per-sample losses l_j and a scalar dual variable eta,
the robust (dual) objective is

    L(theta, eta) = lambda * mean_j f*((l_j - eta) / lambda) + eta

where f* is the convex conjugate of the chi-square divergence base function,

    f*(t) = 0.25 * (t + 2)_+^2 - 1.

Minimizing L over eta recovers the worst-case risk phi(theta) of that
objective, so the m-objective problem keeps one dual scalar per objective.
The chi-square divergence is the only one supported, so f* is a pair of
plain functions (conjugate_value, conjugate_deriv) and the Lipschitz
constant of its derivative is the module constant SMOOTHNESS_M.
This module provides the conjugate, the dual value, its stochastic gradients
in theta and eta, the gradients of the rescaled objective
Lhat(theta, eta) = L(theta, G*sqrt(m)*eta), and exact full-batch oracles
(the closed-form dual minimizer, robust values and gradients) for tests and
metrics; each takes one objective's loss batch (exact_dual_min also a block
of batches) and rejects an empty, misshapen or non-finite one. They are the
reference for batch_oracle, the solvers' fusion of all three for all m.

All expectations are plug-in empirical means over the supplied batch; the
caller owns sampling and randomness.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# (f*)' is M-Lipschitz with this M, which feeds the smoothness constants
# checked in tests (e.g. L0 = G^2*M/lambda + L)
SMOOTHNESS_M = 0.5


def conjugate_value(t):
    """f*(t); accepts a scalar or an array, returns the same shape."""
    t = np.asarray(t, dtype=float)
    out = 0.25 * np.square(np.maximum(t + 2.0, 0.0)) - 1.0
    return out.item() if out.ndim == 0 else out


def conjugate_deriv(t):
    """(f*)'(t) = 0.5*(t+2)_+; nonnegative, nondecreasing and
    SMOOTHNESS_M-Lipschitz."""
    t = np.asarray(t, dtype=float)
    out = 0.5 * np.maximum(t + 2.0, 0.0)
    return out.item() if out.ndim == 0 else out


@dataclass(frozen=True)
class DualContext:
    """Problem-level constants of the dual formulation.

    lam is the ambiguity-set regularization lambda > 0, lipschitz_g the
    per-sample loss Lipschitz bound G used by the rescaling and the
    stationarity surrogate, num_objectives the number m of objectives.
    """

    lam: float
    lipschitz_g: float
    num_objectives: int

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        if not 0 < self.lipschitz_g < math.inf:
            raise ValueError(f"lipschitz_g must be positive and finite, got {self.lipschitz_g}")
        if self.num_objectives < 1:
            raise ValueError(f"num_objectives must be >= 1, got {self.num_objectives}")
        if not math.isfinite(self.eta_scale):
            raise ValueError(f"lipschitz_g * sqrt(m) overflows, got lipschitz_g = {self.lipschitz_g}")

    @property
    def eta_scale(self) -> float:
        """The G*sqrt(m) factor mapping rescaled dual variables to raw ones."""
        return self.lipschitz_g * math.sqrt(self.num_objectives)


class ObjectiveJacobian(NamedTuple):
    """Stacked first-order information of all m objectives at one point.

    theta_grads: (n, m), column i is the theta-gradient of objective i.
    eta_grads: (m,), entry i is the gradient in the scalar dual eta^i
    (the eta block of the full jacobian is diagonal, so a vector suffices).
    """

    theta_grads: np.ndarray
    eta_grads: np.ndarray


def _as_batch(losses, block=False) -> np.ndarray:
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 1 and not (block and losses.ndim == 2):
        or_block = " or an (r, B) block" if block else ""
        raise ValueError(f"losses must be a 1-d batch{or_block}, got shape {losses.shape}")
    if losses.size == 0:
        raise ValueError("empty batch")
    finite = np.isfinite(losses)
    if not finite.all():
        where = np.unravel_index(np.argmin(finite), losses.shape)
        at = f"row {where[0]}, index {where[1]}" if losses.ndim == 2 else f"index {where[0]}"
        raise ValueError(f"non-finite loss at {at}: {losses[where]}")
    return losses


def dual_value(ctx: DualContext, losses, eta_i: float) -> float:
    """lambda * mean_j f*((l_j - eta)/lambda) + eta for one objective."""
    losses = _as_batch(losses)
    t = (losses - eta_i) / ctx.lam
    return ctx.lam * float(np.mean(conjugate_value(t))) + eta_i


def grad_eta(ctx: DualContext, losses, eta_i: float) -> float:
    """d/d eta of dual_value: 1 - mean_j f*'((l_j - eta)/lambda).

    Nondecreasing and piecewise linear in eta because f*' is, which is what
    gives exact_dual_min its closed form.
    """
    losses = _as_batch(losses)
    t = (losses - eta_i) / ctx.lam
    return 1.0 - float(np.mean(conjugate_deriv(t)))


def grad_theta(ctx: DualContext, per_sample_grads, losses, eta_i: float) -> np.ndarray:
    """Theta-gradient of dual_value: mean_j f*'((l_j - eta)/lambda) * g_j.

    per_sample_grads: (B, n) array of per-sample loss gradients g_j at the
    same theta the losses were evaluated at.
    """
    losses = _as_batch(losses)
    grads = np.asarray(per_sample_grads, dtype=float)
    if grads.ndim != 2 or grads.shape[0] != losses.shape[0]:
        raise ValueError(
            f"per-sample gradients shape {grads.shape} does not match "
            f"batch of {losses.shape[0]} losses"
        )
    wgt = conjugate_deriv((losses - eta_i) / ctx.lam)  # (B,)
    return (wgt[:, None] * grads).mean(axis=0)


def chi_weights(ctx: DualContext, losses, etas, out=None):
    """(t + 2)_+ = 2 f*'(t), t = (l - eta)/lambda, of (..., r, B) losses; into out if given."""
    u = np.subtract(losses, etas[..., None], out=out)
    u /= ctx.lam
    u += 2.0
    return np.maximum(u, 0.0, out=u)


def batch_oracle(ctx: DualContext, losses, slopes, rows, etas):
    """dual_value, grad_theta and grad_eta of every row of a batch: values
    (..., r), theta-gradients (..., n, r) and eta-gradients (..., r).

    The batch is MultiTaskProblem.sample_batch's (..., r, B) losses l and
    slopes l' and its rows X, (..., r, B, n) or one shared (B, n) array;
    sample j of row i has loss gradient l'_ij x_ij, and etas holds the
    (..., r) dual scalars. The leading axes (the seeds of a lockstep run) and
    the r rows (objectives, stacked over estimators) are independent: each
    slice gets the arithmetic it would get alone. The conjugate weights w are
    formed once, and column i of the theta-gradients is X_i^T (w_i o l'_i) / B
    without (B, n) gradients.
    """
    b = losses.shape[-1]
    u = chi_weights(ctx, losses, etas)  # (t + 2)_+ = 2 w
    values = ctx.lam * (0.25 * (u[..., None, :] @ u[..., :, None])[..., 0, 0] / b - 1.0) + etas
    theta_grads = ((u * slopes)[..., None, :] @ rows)[..., 0, :].swapaxes(-1, -2) * (0.5 / b)
    return values, theta_grads, 1.0 - 0.5 * u.sum(axis=-1) / b


def rescaled_grads(ctx: DualContext, batches, theta, eta) -> ObjectiveJacobian:
    """Gradients of the rescaled objective Lhat(theta, eta) = L(theta, s*eta),
    s = G*sqrt(m).

    By the chain rule the theta block is the plain theta-gradient of L taken
    at the shifted dual s*eta^i, and the eta block picks up a factor s:
    column i = grad_theta(. , s*eta^i), entry i = s * grad_eta(. , s*eta^i).

    batches: sequence of (losses, per_sample_grads) pairs, one per objective,
    all evaluated at theta.
    """
    theta = np.asarray(theta, dtype=float)
    eta = np.asarray(eta, dtype=float)
    m = ctx.num_objectives
    if len(batches) != m:
        raise ValueError(f"expected {m} objective batches, got {len(batches)}")
    if eta.shape != (m,):
        raise ValueError(f"eta must have shape ({m},), got {eta.shape}")
    n = theta.shape[0]
    scale = ctx.eta_scale
    cols = np.empty((n, m))
    egrads = np.empty(m)
    for i, (losses, grads) in enumerate(batches):
        grads = np.asarray(grads, dtype=float)
        if grads.shape[1] != n:
            raise ValueError(
                f"objective {i}: gradient dimension {grads.shape[1]} != theta dimension {n}"
            )
        eta_eff = scale * eta[i]
        cols[:, i] = grad_theta(ctx, grads, losses, eta_eff)
        egrads[i] = scale * grad_eta(ctx, losses, eta_eff)
    return ObjectiveJacobian(cols, egrads)


def exact_dual_min(ctx: DualContext, losses):
    """The minimizer eta* of dual_value over eta, in closed form: a float for
    a 1-d batch, an (r,) array for an (r, B) block of r batches.

    grad_eta(eta) = 1 - sum_j (l_j - eta + 2*lambda)_+ / (2*lambda*B) is
    piecewise linear and nondecreasing, so its root follows from the same
    sort-threshold rule as the simplex projection (Duchi et al. 2008): with
    the losses sorted descending as u and S_k = u_1 + ... + u_k, the root on
    the active set {u_1..u_k} is eta_k = S_k/k + 2*lambda*(1 - B/k), and the
    active set is the largest k with u_k > eta_k - 2*lambda (k = 1 always
    qualifies). The sums are taken relative to u_1, which keeps the rounding
    at the scale of the spread rather than of the losses and returns a
    constant batch's constant exactly. A block is solved along its rows, row
    i bit for bit as exact_dual_min(ctx, losses[i]).
    """
    losses = _as_batch(losses, block=True)
    u = np.sort(np.atleast_2d(losses), axis=1)[:, ::-1]
    top = u[:, 0]
    gap = u - top[:, None]
    b = u.shape[1]
    k = np.arange(1, b + 1)
    eta = np.cumsum(gap, axis=1) / k + 2.0 * ctx.lam * (1.0 - b / k)
    last = b - 1 - np.argmax((gap > eta - 2.0 * ctx.lam)[:, ::-1], axis=1)
    eta_star = top + eta[np.arange(len(u)), last]
    return float(eta_star[0]) if losses.ndim == 1 else eta_star


def phi_oracle(ctx: DualContext, problem, theta):
    """Exact robust values phi^i(theta) and their gradients, full batch.

    problem must expose per_sample(i, theta) -> (losses, per_sample_grads)
    over objective i's full dataset, of one size N for all. One exact_dual_min
    call on the (m, N) losses minimizes the dual scalars out; each value is
    the dual objective at its minimizer, and the gradient is grad_theta there
    (the eta-gradient vanishes at the minimizer, so this is the exact
    gradient of phi). Intended for tests and metrics, not for the solvers.

    Returns (values, jacobian): an m-vector and an (n, m) matrix.
    """
    theta = np.asarray(theta, dtype=float)
    evals = [problem.per_sample(i, theta) for i in range(problem.num_objectives)]
    if len(evals) != ctx.num_objectives:
        raise ValueError(
            f"problem has {len(evals)} objectives, context expects {ctx.num_objectives}"
        )
    eta_star = exact_dual_min(ctx, np.stack([losses for losses, _ in evals]))
    values = np.array([dual_value(ctx, loss, e) for (loss, _), e in zip(evals, eta_star)])
    jac = np.column_stack([grad_theta(ctx, g, loss, e) for (loss, g), e in zip(evals, eta_star)])
    return values, jac
