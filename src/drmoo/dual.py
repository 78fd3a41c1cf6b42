"""Dual objective of chi-square distributionally robust optimization.

For one objective with per-sample losses l_j and a scalar dual variable eta,
the robust (dual) objective is

    L(theta, eta) = lambda * mean_j f*((l_j - eta) / lambda) + eta

where f* is the convex conjugate of the chi-square divergence base function,

    f*(t) = 0.25 * (t + 2)_+^2 - 1.

Minimizing L over eta recovers the worst-case risk phi(theta) of that
objective, so the m-objective problem keeps one dual scalar per objective.
This module provides the conjugate, the dual value, its stochastic gradients
in theta and eta (fused in batch_oracle), the gradients of the rescaled
objective Lhat(theta, eta) = L(theta, G*sqrt(m)*eta), and exact full-batch
oracles (the closed-form dual minimizer, robust values and gradients) for
tests and metrics. Every function taking a loss batch rejects an empty,
non-1-d or non-finite one, except the solvers' batch_oracle.

All expectations are plug-in empirical means over the supplied batch; the
caller owns sampling and randomness.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

CHI_SQUARE = "chi_square"


class Conjugate:
    """Convex conjugate f* of an f-divergence base function.

    Only the chi-square divergence is supported. Its conjugate
    f*(t) = 0.25*(t+2)_+^2 - 1 has derivative 0.5*(t+2)_+, which is
    nonnegative, nondecreasing, and M-Lipschitz with M = 0.5; that M is
    stored as ``smoothness_m`` and feeds the smoothness constants used in
    tests (e.g. L0 = G^2*M/lambda + L).
    """

    def __init__(self, kind: str = CHI_SQUARE):
        if kind != CHI_SQUARE:
            raise ValueError(f"unsupported conjugate kind: {kind!r}")
        self.kind = kind
        self.smoothness_m = 0.5

    def __repr__(self):
        return f"Conjugate(kind={self.kind!r})"


def conjugate_value(c: Conjugate, t):
    """f*(t); accepts a scalar or an array, returns the same shape."""
    t = np.asarray(t, dtype=float)
    out = 0.25 * np.square(np.maximum(t + 2.0, 0.0)) - 1.0
    return out.item() if out.ndim == 0 else out


def conjugate_deriv(c: Conjugate, t):
    """(f*)'(t) = 0.5*(t+2)_+; nonnegative and nondecreasing."""
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
    conjugate: Conjugate = field(default_factory=Conjugate)

    def __post_init__(self):
        if not 0 < self.lam < math.inf:
            raise ValueError(f"lambda must be positive and finite, got {self.lam}")
        if not 0 < self.lipschitz_g < math.inf:
            raise ValueError(f"lipschitz_g must be positive and finite, got {self.lipschitz_g}")
        if self.num_objectives < 1:
            raise ValueError(f"num_objectives must be >= 1, got {self.num_objectives}")

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
    return ctx.lam * float(np.mean(conjugate_value(ctx.conjugate, t))) + eta_i


def grad_eta(ctx: DualContext, losses, eta_i: float) -> float:
    """d/d eta of dual_value: 1 - mean_j f*'((l_j - eta)/lambda).

    Nondecreasing and piecewise linear in eta because f*' is, which is what
    gives exact_dual_min its closed form.
    """
    losses = _as_batch(losses)
    t = (losses - eta_i) / ctx.lam
    return 1.0 - float(np.mean(conjugate_deriv(ctx.conjugate, t)))


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
    wgt = conjugate_deriv(ctx.conjugate, (losses - eta_i) / ctx.lam)  # (B,)
    return (wgt[:, None] * grads).mean(axis=0)


def batch_oracle(ctx: DualContext, losses, slopes, rows, eta_i: float):
    """(dual_value, grad_theta, grad_eta) of one objective on one batch.

    The batch is MultiTaskProblem.evaluate's losses l, slopes l' and rows X
    (sample j's loss gradient is l'_j x_j). The conjugate weights w are formed
    once, and the theta-gradient is X^T (w o l') / B without (B, n) gradients.
    """
    b = losses.shape[0]
    u = np.maximum((losses - eta_i) / ctx.lam + 2.0, 0.0)  # (t + 2)_+ = 2 w
    value = ctx.lam * (0.25 * float(np.dot(u, u)) / b - 1.0) + eta_i
    theta_grad = np.dot(u * slopes, rows) * (0.5 / b)
    return value, theta_grad, 1.0 - 0.5 * float(u.sum()) / b


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


def exact_dual_min(ctx: DualContext, losses) -> float:
    """The minimizer eta* of dual_value over eta, in closed form.

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
    u = np.sort(_as_batch(losses))[::-1]
    top = u[0]
    k = np.arange(1, u.size + 1)
    eta = np.cumsum(u - top) / k + 2.0 * ctx.lam * (1.0 - u.size / k)
    active = np.flatnonzero(u - top > eta - 2.0 * ctx.lam)
    return float(top + eta[active[-1]])


def phi_oracle(ctx: DualContext, problem, theta):
    """Exact robust values phi^i(theta) and their gradients, full batch.

    problem must expose per_sample(i, theta) -> (losses, per_sample_grads)
    over objective i's full dataset. For each objective the dual scalar is
    minimized out exactly, the value is the dual objective at that minimizer,
    and the gradient is grad_theta there (the eta-gradient vanishes at the
    minimizer, so this is the exact gradient of phi). Intended for tests and
    metrics, not for the stochastic solvers.

    Returns (values, jacobian): an m-vector and an (n, m) matrix.
    """
    theta = np.asarray(theta, dtype=float)
    evals = [problem.per_sample(i, theta) for i in range(problem.num_objectives)]
    if len(evals) != ctx.num_objectives:
        raise ValueError(
            f"problem has {len(evals)} objectives, context expects {ctx.num_objectives}"
        )
    n = theta.shape[0]
    values = np.empty(ctx.num_objectives)
    jac = np.empty((n, ctx.num_objectives))
    for i, (losses, grads) in enumerate(evals):
        eta_star = exact_dual_min(ctx, losses)
        values[i] = dual_value(ctx, losses, eta_star)
        jac[:, i] = grad_theta(ctx, grads, losses, eta_star)
    return values, jac
