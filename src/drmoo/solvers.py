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

All four share one outer loop, _mgda_loop, which owns the start state, the
trace, the surrogate cadence, the sample count (samples_per_step, which
`drmoo run` also reads to start its longest jobs first), the preference step
w <- project(w - beta (G w + rho w)) and the divergence check; each solver
supplies its index streams and a per-step estimator of the parameter
direction, the dual update and the gram product G w. A run steps the seeds
of its config in lockstep, one RunTrace per seed: every state array has a
leading seed axis, so one gather and oracle call serve all seeds and roles.

SOLVERS maps each name to its run function and default config; the config
dataclasses' fields and defaults are the hyperparameter schema of
`drmoo run` config blocks.

Determinism: every random draw comes from a stream keyed by
(seed, role, objective) through SeedSequence spawn keys, so identical
(config, problem, seed) reproduce bit-identical traces. Each stream draws a
chunk of steps of indices per call, and a block of c steps holds the values
of c per-step draws (tests pin this), so the chunk changes no trace. Every
operation acts on each seed's slice as on that seed alone, so a seed's trace
is bit for bit the same whichever seeds run beside it (tests pin this too).
A run is strictly sequential and keeps its state in local variables.
"""

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .dual import DualContext, batch_oracle, chi_weights
# benchmarks/spans.py wraps these names in this namespace
from .dual import conjugate_deriv, dual_value, grad_eta, grad_theta  # noqa: F401
from .metrics import surrogate_stationarity  # noqa: F401
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

# steps of indices each stream draws per call, fewer when the held block of
# all streams would pass DRAW_ELEMENTS int64 indices (8 MB): five seeds of the
# double loop's nine batch streams hold 50 * 45 * 256 (4.6 MB) at B = 256
DRAW_CHUNK = 50
DRAW_ELEMENTS = 1 << 20


def make_stream(seed: int, role: int, objective: int) -> np.random.Generator:
    """Independent generator for one (role, objective) slot of a run."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(role, objective)))
    )


@dataclass
class RunTrace:
    """Per-iteration records of one solver run; row t is iteration t.

    samples: (T,) cumulative gradient-oracle samples consumed, strictly
        increasing; metric-only full-batch evaluations are not counted.
    wall_ms: (T,) cumulative wall-clock milliseconds (measured, and the one
        column exempt from byte-level reproducibility).
    losses: (T, m) per-objective stochastic dual values at the iterate the
        logged parameter gradient was evaluated at.
    balanced_grad: (T,) norm of the stochastic parameter-gradient matrix
        times w_t, i.e. the step direction magnitude actually used
        (run_double_clip's ||X_t w_t||, which its theta step size clips).
    surrogate_stat: (T,) full-batch stationarity surrogate, refreshed every
        SURROGATE_EVERY iterations and carried forward in between.
    w: (T, m) preference vector entering the iteration.
    eta: (T, m) dual iterate the logged gradients were evaluated at (the
        solver's own parameterization; run_double_clip stores the rescaled
        variable).
    diverged_at: None, or the iteration whose update went non-finite; the
        trace then ends with that iteration's row.
    """

    samples: np.ndarray
    wall_ms: np.ndarray
    losses: np.ndarray
    balanced_grad: np.ndarray
    surrogate_stat: np.ndarray
    w: np.ndarray
    eta: np.ndarray
    diverged_at: int = None

    def __len__(self):
        return self.samples.shape[0]

    @property
    def num_objectives(self) -> int:
        return self.losses.shape[1]


def _check_ranges(cfg):
    """The range rule of every solver config: a float field is finite and
    positive, except rho, which may be 0; an int field is >= 1."""
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.type is int and v < 1:
            raise ValueError(f"{f.name} must be >= 1, got {v}")
        if f.type is float and not math.isfinite(v):
            raise ValueError(f"{f.name} must be finite, got {v}")
        if f.type is float and f.name == "rho" and v < 0:
            raise ValueError(f"rho must be nonnegative, got {v}")
        if f.type is float and f.name != "rho" and v <= 0:
            raise ValueError(f"{f.name} must be positive, got {v}")


@dataclass(frozen=True)
class DoubleLoopConfig:
    alpha: float = 5e-5  # theta step
    beta: float = 5e-5  # w step
    gamma: float = 5e-3  # inner eta step
    rho: float = 1e-5  # w regularizer
    T: int = 600  # outer iterations
    D: int = 20  # inner iterations
    B: int = 256  # outer batch size
    seeds: tuple = (0,)  # run in lockstep

    __post_init__ = _check_ranges


@dataclass(frozen=True)
class DoubleClipConfig:
    gamma: float = 1e-2  # joint step
    beta: float = 5e-4  # w step
    rho: float = 1e-5
    c1: float = 0.5  # theta clip cap
    c2: float = 0.1  # theta clip threshold
    f1: float = 0.5  # eta clip cap
    f2: float = 0.1  # eta clip threshold
    N1: int = 256  # theta-gradient batch size
    N2: int = 256  # eta-gradient batch size
    T: int = 600
    seeds: tuple = (0,)

    __post_init__ = _check_ranges


@dataclass(frozen=True)
class BaselineConfig:
    """Shared by run_stochastic_mgda and run_modo."""

    lr: float = 1e-5  # joint (theta, eta) step
    beta: float = 1e-5  # w step
    rho: float = 1e-5
    T: int = 600
    B: int = 256
    seeds: tuple = (0,)

    __post_init__ = _check_ranges


def samples_per_step(solver, cfg, m) -> int:
    """Gradient-oracle samples one step of solver consumes per seed at its
    config cfg on m objectives; the samples column counts these."""
    if solver == "double_loop":
        return m * (cfg.D + 3 * cfg.B)
    if solver == "double_clip":
        return m * (cfg.N2 + cfg.N1)
    return (2 if solver == "modo" else 1) * m * cfg.B


def _index_steps(seeds, roles, m, high, size, steps):
    """The (S, k*m, size) index blocks of `steps` steps for S seeds and k
    roles: row r*m + i of seed s is drawn uniformly from {0..high-1} by
    stream (seeds[s], roles[r], i), each stream drawing up to DRAW_CHUNK
    steps per call."""
    streams = [make_stream(seed, role, i) for seed in seeds for role in roles for i in range(m)]
    chunk = min(DRAW_CHUNK, max(1, DRAW_ELEMENTS // (len(streams) * size)))
    for start in range(0, steps, chunk):
        c = min(chunk, steps - start)
        block = np.stack([rng.integers(0, high, size=(c, size)) for rng in streams], axis=1)
        yield from block.reshape(c, len(seeds), -1, size)


def _norms(x):
    """Row norms of x, each the sqrt of one dot product, as np.linalg.norm."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def _clip(cap, threshold, norm):
    """double_clip's step sizes min(cap, threshold / norm) per entry, with x/0 =
    +inf in _mgda_loop (a zero norm gets the cap) and, as Python's min gives it,
    the cap for a nan norm; drmoo check measures the steps they give."""
    q = threshold / norm
    return np.where(q < cap, q, cap)


def _matvec(a, v):
    """a[s] @ v[s] for each seed s: (S, p, q) matrices and (S, q) vectors."""
    return (a @ v[..., None])[..., 0]


def inner_eta_descent(losses, etas, gamma, lam):
    """Single-sample SGD eta <- eta - gamma*grad_eta from each etas[k], one step per loss
    (a float) of losses[k], in Python floats (conjugate_deriv's arithmetic without its
    per-call cost). Returns each lane's iterates entering its steps, and its last iterate."""
    trajs, last = [], []
    for lane, eta in zip(losses, etas):
        trajs.append(traj := [])
        for loss in lane:
            traj.append(eta)
            t = (loss - eta) / lam + 2.0
            eta -= gamma * (1.0 - 0.5 * (0.0 if t < 0.0 else t))
        last.append(eta)
    return trajs, last


def _full_surrogate(problem, ctx, theta, eta_eff, w) -> list:
    """Full-batch G sum_i w^i |eta-grad_i| + ||sum_i w^i theta-grad_i|| of each
    seed at its (theta, eta_eff) and w. One evaluation's fresh losses and slopes
    become u and u o l' in place (the stored rows X never change), and the
    theta-gradients are contracted with w first: one pass over X per seed."""
    losses, slopes, rows = problem.full_eval(theta)
    u = chi_weights(ctx.lam, losses, eta_eff, out=losses)
    slopes *= u
    eta_grads = 1.0 - 0.5 * u.sum(axis=-1) / problem.num_samples
    grad = ((w[:, None, :] @ slopes) @ rows)[:, 0] * (0.5 / problem.num_samples)
    return (ctx.lipschitz_g * np.sum(w * np.abs(eta_grads), axis=1) + _norms(grad)).tolist()


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # only the finite check reports
def _mgda_loop(cfg, problem, ctx: DualContext, per_step, step) -> list:
    """The outer iteration every solver shares, for each seed of cfg.seeds
    from theta = 0, eta = 0 and uniform w, for cfg.T steps that each consume
    per_step samples; returns one RunTrace per seed.

    step(theta, eta, w) takes the (S, n), (S, m) and (S, m) states of the
    S seeds and returns per-seed (losses, direction, lr, eta_log, eta_eff,
    eta_next, gram_w): theta moves by -lr * direction, eta becomes eta_next,
    and the preference step is w <- project(w - beta (gram_w + rho w)). The
    trace logs eta_log and the surrogate is taken at the pre-step theta and
    the dual scalars eta_eff. A seed whose update goes non-finite ends its trace
    with that step's row and keeps its last finite state; the others run on.
    """
    m = problem.num_objectives
    if m != ctx.num_objectives:
        raise ValueError(f"problem has {m} objectives, context expects {ctx.num_objectives}")
    n_seeds, steps = len(cfg.seeds), cfg.T
    theta = np.zeros((n_seeds, problem.dimension))
    eta = np.zeros((n_seeds, m))
    w = np.tile(uniform_preference(m), (n_seeds, 1))
    wall_ms = np.zeros(steps)
    log = {name: np.zeros((n_seeds, steps, m)) for name in ("losses", "w", "eta")}
    log.update(balanced_grad=np.zeros((n_seeds, steps)), surrogate_stat=np.zeros((n_seeds, steps)))
    live = np.ones(n_seeds, dtype=bool)
    stepping = range(n_seeds)  # the live seeds
    diverged_at = [None] * n_seeds
    t0 = time.perf_counter()
    for t in range(steps):
        losses, direction, lr, eta_log, eta_eff, eta_next, gram_w = step(theta, eta, w)
        if t % SURROGATE_EVERY == 0:
            surrogate = _full_surrogate(problem, ctx, theta, eta_eff, w)
        wall_ms[t] = (time.perf_counter() - t0) * 1000.0
        log["losses"][:, t] = losses
        log["balanced_grad"][:, t] = _norms(direction)
        log["surrogate_stat"][:, t] = surrogate
        log["w"][:, t] = w
        log["eta"][:, t] = eta_log

        # divergence must be caught on the raw update, before the projection
        # chokes on non-finite input
        theta_next = theta - lr * direction
        w_pre = w - cfg.beta * (gram_w + cfg.rho * w)
        finite = np.isfinite(np.concatenate((theta_next, eta_next, w_pre), axis=1)).all(axis=1)
        if not (finite & live).all():  # a seed diverged now or before
            for s in np.flatnonzero(live & ~finite):
                diverged_at[s] = t
            live &= finite
            if not live.any():
                break
            theta_next = np.where(live[:, None], theta_next, theta)
            eta_next = np.where(live[:, None], eta_next, eta)
            stepping = np.flatnonzero(live)
        theta, eta = theta_next, eta_next
        for s in stepping:
            w[s] = project_simplex(w_pre[s])

    traces = []
    for s, stop in enumerate(diverged_at):
        rows = steps if stop is None else stop + 1
        traces.append(RunTrace(
            samples=per_step * np.arange(1, rows + 1, dtype=np.int64),
            wall_ms=wall_ms[:rows],
            **{name: arr[s, :rows] for name, arr in log.items()},
            diverged_at=stop,
        ))
    return traces


def run_double_loop(cfg: DoubleLoopConfig, problem, ctx: DualContext) -> list:
    """Double-loop iteration on L(theta, eta).

    Per outer step t: (a) each objective runs D single-sample SGD steps on
    its dual scalar, storing the trajectory eta_{t,0..D-1}; the inner state
    warm-starts from the previous outer step's final iterate; (b) indices
    d, dbar, dtilde are drawn independently and uniformly from {0..D-1},
    shared across objectives; (c) three mutually independent batches build
    Y_t at eta_{t,d}, Ybar_t at eta_{t,dbar}, Ytilde_t at eta_{t,dtilde};
    (d) theta step along Y_t w_t; (e) preference step
    w <- project(w - beta (Ybar^T Ytilde w + rho w)).

    Consumes exactly T*(m*D + 3*B*m) samples per seed.
    """
    m, big_n, n_seeds = problem.num_objectives, problem.num_samples, len(cfg.seeds)
    inner = _index_steps(cfg.seeds, (ROLE_INNER,), m, big_n, cfg.D, cfg.T)
    batches = _index_steps(cfg.seeds, (ROLE_Y, ROLE_YBAR, ROLE_YTILDE), m, big_n, cfg.B, cfg.T)
    triples = _index_steps(cfg.seeds, (ROLE_INDEX,), 1, cfg.D, 3, cfg.T)
    seed_ax, objectives = np.arange(n_seeds)[:, None, None], np.arange(m)

    def step(theta, eta, w):
        # (a) inner dual descent, one fresh sample per step per objective; the
        # final iterate warm-starts the next outer iteration
        losses = problem.sample_batch(theta, next(inner))[0].reshape(n_seeds * m, cfg.D)
        traj, last = inner_eta_descent(losses.tolist(), eta.ravel().tolist(), cfg.gamma, ctx.lam)
        traj, eta_next = np.reshape(traj, (n_seeds, m, cfg.D)), np.reshape(last, (n_seeds, m))

        # (b) trajectory indices, one triple per seed shared across objectives;
        # (c) the Y, Ybar and Ytilde batches at their dual scalars, as one
        # (S, 3m) block in that order
        etas = traj[seed_ax, objectives, next(triples)[:, 0, :, None]].reshape(n_seeds, 3 * m)
        values, grads, _ = batch_oracle(ctx.lam, *problem.sample_batch(theta, next(batches)), etas)
        y_mat, ybar_mat, ytil_mat = grads[..., :m], grads[..., m:2 * m], grads[..., 2 * m:]
        gram_w = _matvec(ybar_mat.swapaxes(-1, -2) @ ytil_mat, w)
        eta_y = etas[:, :m]
        return values[:, :m], _matvec(y_mat, w), cfg.alpha, eta_y, eta_y, eta_next, gram_w

    return _mgda_loop(cfg, problem, ctx, samples_per_step("double_loop", cfg, m), step)


def run_double_clip(cfg: DoubleClipConfig, problem, ctx: DualContext) -> list:
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
    m = problem.num_objectives
    scale = ctx.eta_scale
    zbat = _index_steps(cfg.seeds, (ROLE_Z,), m, problem.num_samples, cfg.N2, cfg.T)
    xbat = _index_steps(cfg.seeds, (ROLE_X,), m, problem.num_samples, cfg.N1, cfg.T)

    def step(theta, eta, w):
        # eta block at eta_t: grad_eta of every objective, from the losses only
        z_losses = problem.sample_batch(theta, next(zbat))[0]
        u = chi_weights(ctx.lam, z_losses, scale * eta, out=z_losses)
        z_vec = scale * (1.0 - np.mean(0.5 * u, axis=-1))
        zw = z_vec * w
        mu = _clip(cfg.f1, cfg.f2, _norms(zw))
        eta_next = eta - (cfg.gamma * mu)[:, None] * zw

        # theta block at the fresh dual iterate
        eta_eff = scale * eta_next
        loss_log, x_mat, _ = batch_oracle(ctx.lam, *problem.sample_batch(theta, next(xbat)), eta_eff)
        xw = _matvec(x_mat, w)
        alpha = _clip(cfg.c1, cfg.c2, _norms(xw))
        gram_w = (alpha[:, None] * _matvec(x_mat.swapaxes(-1, -2), xw)
                  + mu[:, None] * (z_vec * z_vec * w))
        return loss_log, xw, (cfg.gamma * alpha)[:, None], eta_next, eta_eff, eta_next, gram_w

    return _mgda_loop(cfg, problem, ctx, samples_per_step("double_clip", cfg, m), step)


def _run_joint_baseline(cfg: BaselineConfig, problem, ctx, solver) -> list:
    m = problem.num_objectives
    roles = (ROLE_JOINT_A, ROLE_JOINT_B) if solver == "modo" else (ROLE_JOINT_A,)
    batches = _index_steps(cfg.seeds, roles, m, problem.num_samples, cfg.B, cfg.T)

    def step(theta, eta, w):
        # one oracle call for batch A and, with double sampling, batch B; jb
        # and gb are ja and ga (the same arrays) when there is no batch B
        values, grads, egrads = batch_oracle(
            ctx.lam, *problem.sample_batch(theta, next(batches)), np.tile(eta, len(roles)))
        ja, jb, ga, gb = grads[..., :m], grads[..., -m:], egrads[:, :m], egrads[:, -m:]
        # joint (theta, eta) step; the eta block of the jacobian is diagonal
        gram_w = _matvec(ja.swapaxes(-1, -2) @ jb, w) + (ga * gb) * w
        return values[:, :m], _matvec(ja, w), cfg.lr, eta, eta, eta - cfg.lr * (ga * w), gram_w

    return _mgda_loop(cfg, problem, ctx, samples_per_step(solver, cfg, m), step)


def run_stochastic_mgda(cfg: BaselineConfig, problem, ctx: DualContext) -> list:
    """Joint-SGD baseline; one shared batch feeds both the parameter step
    and the preference gram estimator (the latter is biased by design)."""
    return _run_joint_baseline(cfg, problem, ctx, "mgda")


def run_modo(cfg: BaselineConfig, problem, ctx: DualContext) -> list:
    """Double-sampling baseline: like run_stochastic_mgda, but the
    preference gram uses a second, independent batch (unbiased product);
    consumes twice the samples per iteration."""
    return _run_joint_baseline(cfg, problem, ctx, "modo")


# solver name -> (run function, config with the defaults of a config block);
# the config schema and the CLI both read this table
SOLVERS = {
    "double_loop": (run_double_loop, DoubleLoopConfig()),
    "double_clip": (run_double_clip, DoubleClipConfig()),
    "mgda": (run_stochastic_mgda, BaselineConfig(rho=0.0)),
    "modo": (run_modo, BaselineConfig()),
}
