"""Stochastic solvers for the dual DR-MOO objective.

Four iterations over a MultiTaskProblem, all emitting a RunTrace:

  * run_double_loop: per outer step, an inner SGD loop drives each dual
    scalar toward its minimizer; three independent minibatches then build
    one gradient estimator for the parameter step and an independent pair
    for the preference (weight) step.
  * run_double_clip: single loop on the rescaled objective
    Lhat(theta, eta) = L(theta, G*sqrt(m)*eta), with clipped step sizes
    for both blocks and a preference step that mixes both gram terms.
  * run_stochastic_mgda: joint (theta, eta) SGD with the preference updated
    from a single shared batch (its gram estimator is biased by design).
  * run_modo: the same joint step, but the preference update uses two
    independent batches so the gram estimator is unbiased.

Determinism: every random draw comes from a stream keyed by
(seed, role, objective) through SeedSequence spawn keys, so identical
(config, problem, seed) reproduce bit-identical traces. A run is strictly
sequential and keeps its state in local variables.
"""

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .dual import DualContext, ObjectiveJacobian, batch_oracle, grad_eta
# benchmarks/spans.py wraps these names in this namespace
from .dual import conjugate_deriv, dual_value, grad_theta  # noqa: F401
from .metrics import surrogate_stationarity
from .simplex import project_simplex, uniform_preference

# stream roles of the seed-splitting scheme
ROLE_INNER = 0
ROLE_Y = 1
ROLE_YBAR = 2
ROLE_YTILDE = 3
ROLE_INDEX = 4
ROLE_Z = 5
ROLE_X = 6
ROLE_JOINT_A = 7
ROLE_JOINT_B = 8

SURROGATE_EVERY = 10  # full-batch stationarity surrogate cadence, in iterations


def make_stream(seed: int, role: int, objective: int) -> np.random.Generator:
    """Independent generator for one (role, objective) slot of a run."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(role, objective)))
    )


@dataclass
class RunTrace:
    """Per-iteration records of one solver run.

    iterations: (T,) iteration indices 0..T-1.
    samples: (T,) cumulative gradient-oracle samples consumed, strictly
        increasing; metric-only full-batch evaluations are not counted.
    wall_ms: (T,) cumulative wall-clock milliseconds (measured, and the one
        column exempt from byte-level reproducibility).
    losses: (T, m) per-objective stochastic dual values at the iterate the
        logged parameter gradient was evaluated at.
    balanced_grad: (T,) norm of the stochastic parameter-gradient matrix
        times w_t, i.e. the step direction magnitude actually used.
    surrogate_stat: (T,) full-batch stationarity surrogate, refreshed every
        SURROGATE_EVERY iterations and carried forward in between.
    w: (T, m) preference vector entering the iteration.
    eta: (T, m) dual iterate the logged gradients were evaluated at (the
        solver's own parameterization; run_double_clip stores the rescaled
        variable).
    diagnostics: solver-specific per-iteration arrays (clip factors, step
        norms, ...).
    """

    iterations: np.ndarray
    samples: np.ndarray
    wall_ms: np.ndarray
    losses: np.ndarray
    balanced_grad: np.ndarray
    surrogate_stat: np.ndarray
    w: np.ndarray
    eta: np.ndarray
    diagnostics: dict

    def __len__(self):
        return self.iterations.shape[0]

    @property
    def num_objectives(self) -> int:
        return self.losses.shape[1]


class SolverDivergence(RuntimeError):
    """Raised when an iterate stops being finite; carries the partial trace."""

    def __init__(self, iteration: int, partial_trace: RunTrace):
        super().__init__(f"divergence at iteration {iteration}")
        self.iteration = iteration
        self.partial_trace = partial_trace


def _require_finite(cfg):
    """Reject a solver config with a nan or infinite float field."""
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{f.name} must be finite, got {v}")


@dataclass(frozen=True)
class DoubleLoopConfig:
    alpha: float  # theta step
    beta: float  # w step
    gamma: float  # inner eta step
    rho: float  # w regularizer
    T: int  # outer iterations
    D: int  # inner iterations
    B: int  # outer batch size
    seed: int = 0

    def __post_init__(self):
        _require_finite(self)
        if min(self.alpha, self.beta, self.gamma) <= 0:
            raise ValueError("step sizes must be positive")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if min(self.T, self.D, self.B) < 1:
            raise ValueError("T, D and B must be >= 1")


@dataclass(frozen=True)
class DoubleClipConfig:
    gamma: float  # joint step
    beta: float  # w step
    rho: float
    c1: float  # theta clip cap
    c2: float  # theta clip threshold
    f1: float  # eta clip cap
    f2: float  # eta clip threshold
    N1: int  # theta-gradient batch size
    N2: int  # eta-gradient batch size
    T: int
    seed: int = 0

    def __post_init__(self):
        _require_finite(self)
        if min(self.gamma, self.beta) <= 0:
            raise ValueError("step sizes must be positive")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if min(self.c1, self.c2, self.f1, self.f2) <= 0:
            raise ValueError("clip constants must be positive")
        if min(self.N1, self.N2, self.T) < 1:
            raise ValueError("N1, N2 and T must be >= 1")


@dataclass(frozen=True)
class BaselineConfig:
    """Shared by run_stochastic_mgda and run_modo."""

    lr: float  # joint (theta, eta) step
    beta: float  # w step
    rho: float
    T: int
    B: int
    seed: int = 0

    def __post_init__(self):
        _require_finite(self)
        if min(self.lr, self.beta) <= 0:
            raise ValueError("step sizes must be positive")
        if self.rho < 0:
            raise ValueError("rho must be nonnegative")
        if min(self.T, self.B) < 1:
            raise ValueError("T and B must be >= 1")


class _TraceBuilder:
    """Accumulates per-iteration rows and finalizes a RunTrace."""

    def __init__(self, T: int, m: int):
        self.iterations = np.arange(T)
        self.samples = np.zeros(T, dtype=np.int64)
        self.wall_ms = np.zeros(T)
        self.losses = np.zeros((T, m))
        self.balanced_grad = np.zeros(T)
        self.surrogate_stat = np.zeros(T)
        self.w = np.zeros((T, m))
        self.eta = np.zeros((T, m))
        self.diagnostics = {}
        self._t0 = time.perf_counter()
        self._filled = 0

    def record(self, t, samples, losses, bal, sur, w, eta):
        self.samples[t] = samples
        self.wall_ms[t] = (time.perf_counter() - self._t0) * 1000.0
        self.losses[t] = losses
        self.balanced_grad[t] = bal
        self.surrogate_stat[t] = sur
        self.w[t] = w
        self.eta[t] = eta
        self._filled = t + 1

    def build(self, upto=None) -> RunTrace:
        end = self._filled if upto is None else upto
        diag = {k: v[:end] for k, v in self.diagnostics.items()}
        return RunTrace(
            self.iterations[:end],
            self.samples[:end],
            self.wall_ms[:end],
            self.losses[:end],
            self.balanced_grad[:end],
            self.surrogate_stat[:end],
            self.w[:end],
            self.eta[:end],
            diag,
        )


def _check_finite(t, builder, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise SolverDivergence(t, builder.build())


def _draw(problem, theta, size, streams):
    """One fresh batch per objective at theta, objective i from streams[i]."""
    return [problem.sample_batch(i, theta, size, rng) for i, rng in enumerate(streams)]


def _oracle(ctx, batches, etas):
    """batch_oracle on batches[i] at etas[i] for every objective: dual values
    (m,), theta-gradient columns (n, m) and eta-gradients (m,)."""
    values, cols, egr = zip(*(batch_oracle(ctx, *b, e) for b, e in zip(batches, etas)))
    return np.array(values), np.array(cols).T, np.array(egr)


def inner_eta_descent(losses, eta, gamma, lam):
    """Single-sample SGD eta <- eta - gamma*grad_eta, one loss (a float) per
    step, in Python floats: the same arithmetic as conjugate_deriv without
    its per-call cost. Returns the iterates entering each step and the last."""
    traj = []
    for loss in losses:
        traj.append(eta)
        eta -= gamma * (1.0 - 0.5 * max((loss - eta) / lam + 2.0, 0.0))
    return traj, eta


def _full_surrogate(problem, ctx, theta, eta_eff, w) -> float:
    """Full-batch stationarity surrogate at (theta, eta_eff) and w."""
    _, cols, egr = _oracle(ctx, problem.full_eval(theta), eta_eff)
    return surrogate_stationarity(ObjectiveJacobian(cols, egr), w, ctx.lipschitz_g)


def _check_problem(problem, ctx: DualContext):
    if problem.num_objectives != ctx.num_objectives:
        raise ValueError(
            f"problem has {problem.num_objectives} objectives, "
            f"context expects {ctx.num_objectives}"
        )


def run_double_loop(cfg: DoubleLoopConfig, problem, ctx: DualContext) -> RunTrace:
    """Double-loop iteration on L(theta, eta).

    Per outer step t: (a) each objective runs D single-sample SGD steps on
    its dual scalar, storing the trajectory eta_{t,0..D-1}; the inner state
    warm-starts from the previous outer step's final iterate; (b) indices
    d, dbar, dtilde are drawn independently and uniformly from {0..D-1},
    shared across objectives; (c) three mutually independent batches build
    Y_t at eta_{t,d}, Ybar_t at eta_{t,dbar}, Ytilde_t at eta_{t,dtilde};
    (d) theta step along Y_t w_t; (e) preference step
    w <- project(w - beta (Ybar^T Ytilde w + rho w)).

    Consumes exactly T*(m*D + 3*B*m) samples.
    """
    _check_problem(problem, ctx)
    m, n = problem.num_objectives, problem.dimension
    theta = np.zeros(n)
    eta = np.zeros(m)
    w = uniform_preference(m)
    inner = [make_stream(cfg.seed, ROLE_INNER, i) for i in range(m)]
    ybat = [make_stream(cfg.seed, ROLE_Y, i) for i in range(m)]
    ybarbat = [make_stream(cfg.seed, ROLE_YBAR, i) for i in range(m)]
    ytilbat = [make_stream(cfg.seed, ROLE_YTILDE, i) for i in range(m)]
    index_rng = make_stream(cfg.seed, ROLE_INDEX, 0)

    builder = _TraceBuilder(cfg.T, m)
    samples = 0
    surrogate = np.nan
    for t in range(cfg.T):
        # (a) inner dual descent, one fresh sample per step per objective; the
        # final iterate warm-starts the next outer iteration
        traj = np.empty((m, cfg.D))
        for i in range(m):
            idx = inner[i].integers(0, problem.size(i), size=cfg.D)
            losses = problem.evaluate(i, theta, idx)[0].tolist()
            traj[i], eta[i] = inner_eta_descent(losses, float(eta[i]), cfg.gamma, ctx.lam)
        samples += m * cfg.D

        # (b) trajectory indices, one triple shared across objectives
        d_y, d_bar, d_til = index_rng.integers(0, cfg.D, size=3)

        # (c) three independent batch estimators
        loss_log, y_mat, _ = _oracle(ctx, _draw(problem, theta, cfg.B, ybat), traj[:, d_y])
        _, ybar_mat, _ = _oracle(ctx, _draw(problem, theta, cfg.B, ybarbat), traj[:, d_bar])
        _, ytil_mat, _ = _oracle(ctx, _draw(problem, theta, cfg.B, ytilbat), traj[:, d_til])
        samples += 3 * cfg.B * m

        direction = y_mat @ w
        if t % SURROGATE_EVERY == 0:
            surrogate = _full_surrogate(problem, ctx, theta, traj[:, d_y], w)
        builder.record(
            t, samples, loss_log, float(np.linalg.norm(direction)), surrogate, w, traj[:, d_y]
        )

        # (d) parameter step, (e) preference step; divergence must be caught
        # on the raw update, before the projection chokes on non-finite input
        theta = theta - cfg.alpha * direction
        w_pre = w - cfg.beta * ((ybar_mat.T @ ytil_mat) @ w + cfg.rho * w)
        _check_finite(t, builder, theta, eta, w_pre)
        w = project_simplex(w_pre)
    return builder.build()


def run_double_clip(cfg: DoubleClipConfig, problem, ctx: DualContext) -> RunTrace:
    """Single-loop clipped iteration on the rescaled objective Lhat.

    Per step: Z_t = batched eta-gradient of Lhat at (theta_t, eta_t) over N2
    samples; mu_t = min{f1, f2/||Z_t o w_t||}; eta step along mu_t Z_t o w_t.
    Then X_t = batched theta-gradient of Lhat at (theta_t, eta_{t+1}) over N1
    fresh samples; alpha_t = min{c1, c2/||X_t w_t||}; theta step along
    alpha_t X_t w_t. Preference step uses both gram terms:
    w <- project(w - beta (alpha_t X^T X w + mu_t Z o Z o w + rho w)),
    where o is the elementwise product (the eta block of the jacobian is
    diagonal, so Z^T Z w collapses to Z o Z o w). Division by a zero norm
    follows the convention x/0 = +inf, so the cap c1 (or f1) applies.

    The stored eta is the rescaled variable; multiply by G*sqrt(m) for the
    dual scalar of L.
    """
    _check_problem(problem, ctx)
    m, n = problem.num_objectives, problem.dimension
    scale = ctx.eta_scale
    theta = np.zeros(n)
    eta = np.zeros(m)
    w = uniform_preference(m)
    zbat = [make_stream(cfg.seed, ROLE_Z, i) for i in range(m)]
    xbat = [make_stream(cfg.seed, ROLE_X, i) for i in range(m)]

    builder = _TraceBuilder(cfg.T, m)
    diag = {
        name: np.zeros(cfg.T)
        for name in ("alpha_t", "mu_t", "theta_step", "eta_step", "xw_norm", "zw_norm")
    }
    builder.diagnostics = diag
    samples = 0
    surrogate = np.nan
    for t in range(cfg.T):
        # eta block at eta_t: only the losses of these batches are read
        z_vec = scale * np.array([
            grad_eta(ctx, batch[0], scale * eta_i)
            for batch, eta_i in zip(_draw(problem, theta, cfg.N2, zbat), eta)
        ])
        zw = z_vec * w
        zw_norm = float(np.linalg.norm(zw))
        mu = cfg.f1 if zw_norm == 0.0 else min(cfg.f1, cfg.f2 / zw_norm)
        eta_next = eta - cfg.gamma * mu * zw
        samples += m * cfg.N2

        # theta block at the fresh dual iterate
        loss_log, x_mat, _ = _oracle(ctx, _draw(problem, theta, cfg.N1, xbat), scale * eta_next)
        xw = x_mat @ w
        xw_norm = float(np.linalg.norm(xw))
        alpha = cfg.c1 if xw_norm == 0.0 else min(cfg.c1, cfg.c2 / xw_norm)
        samples += m * cfg.N1

        if t % SURROGATE_EVERY == 0:
            surrogate = _full_surrogate(problem, ctx, theta, scale * eta_next, w)
        builder.record(t, samples, loss_log, xw_norm, surrogate, w, eta_next)
        diag["alpha_t"][t] = alpha
        diag["mu_t"][t] = mu
        diag["xw_norm"][t] = xw_norm
        diag["zw_norm"][t] = zw_norm
        diag["theta_step"][t] = cfg.gamma * alpha * xw_norm
        diag["eta_step"][t] = cfg.gamma * mu * zw_norm

        theta = theta - cfg.gamma * alpha * xw
        w_pre = w - cfg.beta * (
            alpha * (x_mat.T @ xw) + mu * (z_vec * z_vec * w) + cfg.rho * w
        )
        eta = eta_next
        _check_finite(t, builder, theta, eta, w_pre)
        w = project_simplex(w_pre)
    return builder.build()


def _run_joint_baseline(cfg: BaselineConfig, problem, ctx, double_sampling: bool) -> RunTrace:
    _check_problem(problem, ctx)
    m, n = problem.num_objectives, problem.dimension
    theta = np.zeros(n)
    eta = np.zeros(m)
    w = uniform_preference(m)
    abat = [make_stream(cfg.seed, ROLE_JOINT_A, i) for i in range(m)]
    bbat = [make_stream(cfg.seed, ROLE_JOINT_B, i) for i in range(m)] if double_sampling else None

    builder = _TraceBuilder(cfg.T, m)
    samples = 0
    surrogate = np.nan
    for t in range(cfg.T):
        loss_log, ja, ga = _oracle(ctx, _draw(problem, theta, cfg.B, abat), eta)
        samples += m * cfg.B
        if double_sampling:
            _, jb, gb = _oracle(ctx, _draw(problem, theta, cfg.B, bbat), eta)
            samples += m * cfg.B
        else:
            jb, gb = ja, ga

        direction = ja @ w
        if t % SURROGATE_EVERY == 0:
            surrogate = _full_surrogate(problem, ctx, theta, eta, w)
        builder.record(
            t, samples, loss_log, float(np.linalg.norm(direction)), surrogate, w, eta
        )

        # joint (theta, eta) step; the eta block of the jacobian is diagonal
        theta = theta - cfg.lr * direction
        eta = eta - cfg.lr * (ga * w)
        gram_w = (ja.T @ jb) @ w + (ga * gb) * w
        w_pre = w - cfg.beta * (gram_w + cfg.rho * w)
        _check_finite(t, builder, theta, eta, w_pre)
        w = project_simplex(w_pre)
    return builder.build()


def run_stochastic_mgda(cfg: BaselineConfig, problem, ctx: DualContext) -> RunTrace:
    """Joint-SGD baseline; one shared batch feeds both the parameter step
    and the preference gram estimator (the latter is biased by design)."""
    return _run_joint_baseline(cfg, problem, ctx, double_sampling=False)


def run_modo(cfg: BaselineConfig, problem, ctx: DualContext) -> RunTrace:
    """Double-sampling baseline: like run_stochastic_mgda, but the
    preference gram uses a second, independent batch (unbiased product);
    consumes twice the samples per iteration."""
    return _run_joint_baseline(cfg, problem, ctx, double_sampling=True)
