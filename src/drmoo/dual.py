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
metrics; each takes one objective's 1-d loss batch and rejects an empty,
misshapen or non-finite one. They are the reference for batch_oracle, the
solvers' fusion of all three for all m. The kernels batch_oracle,
chi_weights and _sorted_dual_min read only lambda, so they take it alone
rather than a DualContext.

All expectations are plug-in empirical means over the supplied batch; the
caller owns sampling and randomness.
"""

import math
from dataclasses import dataclass

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


def _as_batch(losses) -> np.ndarray:
    losses = np.asarray(losses, dtype=float)
    if losses.ndim != 1:
        raise ValueError(f"losses must be a 1-d batch, got shape {losses.shape}")
    if losses.size == 0:
        raise ValueError("empty batch")
    finite = np.isfinite(losses)
    if not finite.all():
        j = int(np.argmin(finite))
        raise ValueError(f"non-finite loss at index {j}: {losses[j]}")
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


def chi_weights(lam: float, losses, etas, out=None):
    """(t + 2)_+ = 2 f*'(t), t = (l - eta)/lambda, of (..., r, B) losses; into out if given."""
    u = np.subtract(losses, etas[..., None], out=out)
    u /= lam
    u += 2.0
    return np.maximum(u, 0.0, out=u)


def batch_oracle(lam: float, losses, slopes, rows, etas):
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
    u = chi_weights(lam, losses, etas)  # (t + 2)_+ = 2 w
    values = lam * (0.25 * (u[..., None, :] @ u[..., :, None])[..., 0, 0] / b - 1.0) + etas
    theta_grads = ((u * slopes)[..., None, :] @ rows)[..., 0, :].swapaxes(-1, -2) * (0.5 / b)
    return values, theta_grads, 1.0 - 0.5 * u.sum(axis=-1) / b


def rescaled_grads(ctx: DualContext, batches, theta, eta):
    """Gradients of the rescaled objective Lhat(theta, eta) = L(theta, s*eta),
    s = G*sqrt(m).

    By the chain rule the theta block is the plain theta-gradient of L taken
    at the shifted dual s*eta^i, and the eta block picks up a factor s:
    column i = grad_theta(. , s*eta^i), entry i = s * grad_eta(. , s*eta^i).

    batches: sequence of (losses, per_sample_grads) pairs, one per objective,
    all evaluated at theta.

    Returns (theta_grads, eta_grads): an (n, m) matrix with column i the
    theta-gradient of objective i, and an m-vector with entry i the gradient
    in eta^i (the eta block of the jacobian is diagonal).
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
    return cols, egrads


def exact_dual_min(ctx: DualContext, losses) -> float:
    """The minimizer eta* of dual_value over eta for one 1-d batch, in
    closed form.

    grad_eta(eta) = 1 - sum_j (l_j - eta + 2*lambda)_+ / (2*lambda*B) is
    piecewise linear and nondecreasing, so its root follows from the same
    sort-threshold rule as the simplex projection (Duchi et al. 2008): with
    the losses sorted descending as u and S_k = u_1 + ... + u_k, the root on
    the active set {u_1..u_k} is eta_k = S_k/k + 2*lambda*(1 - B/k), and the
    active set is the largest k with u_k > eta_k - 2*lambda (k = 1 always
    qualifies). The sums are taken relative to u_1, which keeps the rounding
    at the scale of the spread rather than of the losses and returns a
    constant batch's constant exactly.
    """
    u = np.sort(_as_batch(losses))[None]
    gap, eta = np.empty((2, *u.shape))
    return float(_sorted_dual_min(ctx.lam, u, gap, eta, np.empty(u.shape, dtype=bool))[0])


def _sorted_dual_min(lam: float, u, gap, eta, mask):
    """exact_dual_min's closed form on the rows of u, an (r, B) block of
    finite losses, each row sorted ascending; unchecked, for callers that
    sort into their own buffers. Row i is bit for bit exact_dual_min of that
    row. u is overwritten, and gap, eta (float) and mask (bool) are (r, B)
    work buffers; all four must be C-ordered."""
    b = u.shape[1]
    top = u[:, -1].copy()
    np.subtract(u[:, ::-1], top[:, None], out=gap)  # u_k - u_1, u descending
    k = np.arange(1, b + 1)
    np.cumsum(gap, axis=1, out=eta)
    eta /= k
    eta += 2.0 * lam * (1.0 - b / k)  # eta_k - u_1
    np.greater(gap, np.subtract(eta, 2.0 * lam, out=u), out=mask)
    last = b - 1 - np.argmax(mask[:, ::-1], axis=1)
    return top + eta[np.arange(len(u)), last]


def phi_oracle(ctx: DualContext, problem, theta):
    """Exact robust values phi^i(theta) and their gradients, full batch.

    problem must expose per_sample(i, theta) -> (losses, per_sample_grads)
    over objective i's full dataset. exact_dual_min minimizes each dual
    scalar out; each value is the dual objective at its minimizer, and the
    gradient is grad_theta there (the eta-gradient vanishes at the minimizer,
    so this is the exact gradient of phi). Intended for tests and metrics,
    not for the solvers.

    Returns (values, jacobian): an m-vector and an (n, m) matrix.
    """
    theta = np.asarray(theta, dtype=float)
    evals = [problem.per_sample(i, theta) for i in range(problem.num_objectives)]
    if len(evals) != ctx.num_objectives:
        raise ValueError(
            f"problem has {len(evals)} objectives, context expects {ctx.num_objectives}"
        )
    eta_star = [exact_dual_min(ctx, losses) for losses, _ in evals]
    values = np.array([dual_value(ctx, loss, e) for (loss, _), e in zip(evals, eta_star)])
    jac = np.column_stack([grad_theta(ctx, g, loss, e) for (loss, g), e in zip(evals, eta_star)])
    return values, jac
