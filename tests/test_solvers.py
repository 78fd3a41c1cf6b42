"""Solver iterations: determinism, invariants, accounting, divergence."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmoo.dual import (
    SMOOTHNESS_M,
    DualContext,
    ObjectiveJacobian,
    conjugate_deriv,
    grad_eta,
    grad_theta,
)
from drmoo.metrics import surrogate_stationarity
from drmoo.problems import (
    LOSS_SQUARED,
    LinearSpec,
    MultiTaskProblem,
    estimate_lipschitz,
    gen_linear,
)
from drmoo.solvers import (
    DRAW_CHUNK,
    ROLE_INDEX,
    ROLE_Y,
    BaselineConfig,
    DoubleClipConfig,
    DoubleLoopConfig,
    SolverDivergence,
    _full_surrogate,
    _index_steps,
    inner_eta_descent,
    make_stream,
    run_double_clip,
    run_double_loop,
    run_modo,
    run_stochastic_mgda,
)


def _problem(seed=11, samples=120, dimension=4):
    return gen_linear(LinearSpec(dimension=dimension, samples=samples, seed=seed))


def _ctx(problem, lam=1.0):
    return DualContext(
        lam=lam,
        lipschitz_g=estimate_lipschitz(problem),
        num_objectives=problem.num_objectives,
    )


def _dl_cfg(**kw):
    base = dict(alpha=1e-4, beta=1e-4, gamma=5e-3, rho=1e-5, T=25, D=5, B=16, seed=0)
    base.update(kw)
    return DoubleLoopConfig(**base)


def _dc_cfg(**kw):
    base = dict(gamma=1e-2, beta=1e-3, rho=1e-5, c1=0.5, c2=0.1, f1=0.5, f2=0.1,
                N1=16, N2=16, T=25, seed=0)
    base.update(kw)
    return DoubleClipConfig(**base)


def _bl_cfg(**kw):
    base = dict(lr=1e-4, beta=1e-4, rho=1e-5, T=25, B=16, seed=0)
    base.update(kw)
    return BaselineConfig(**base)


ALL_SOLVERS = [
    (run_double_loop, _dl_cfg),
    (run_double_clip, _dc_cfg),
    (run_stochastic_mgda, _bl_cfg),
    (run_modo, _bl_cfg),
]


class _ThetaRecorder:
    """Problem proxy capturing every theta handed to the stacked sampler."""

    def __init__(self, inner):
        self.inner = inner
        self.thetas = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def sample_batch(self, theta, idx=None):
        self.thetas.append(np.array(theta, copy=True))
        return self.inner.sample_batch(theta, idx)


# --- config validation -------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="step sizes"):
        _dl_cfg(alpha=0.0)
    with pytest.raises(ValueError, match="rho"):
        _dl_cfg(rho=-1.0)
    with pytest.raises(ValueError, match=">= 1"):
        _dl_cfg(D=0)
    with pytest.raises(ValueError, match="clip constants"):
        _dc_cfg(c2=0.0)
    with pytest.raises(ValueError, match="N1, N2 and T"):
        _dc_cfg(N2=0)
    with pytest.raises(ValueError, match="step sizes"):
        _bl_cfg(lr=-1.0)


@given(
    make=st.sampled_from([_dl_cfg, _dc_cfg, _bl_cfg]),
    data=st.data(),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_config_rejects_nonfinite_floats(make, data, bad):
    floats = [f.name for f in dataclasses.fields(make()) if f.type is float]
    name = data.draw(st.sampled_from(floats))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make(**{name: bad})


def test_solver_rejects_objective_mismatch():
    problem = _problem()
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=2)
    with pytest.raises(ValueError, match="context expects 2"):
        run_double_loop(_dl_cfg(), problem, ctx)


# --- trace structure and determinism -----------------------------------------


@pytest.mark.parametrize("run,make_cfg", ALL_SOLVERS)
def test_trace_shape_and_counters(run, make_cfg):
    problem = _problem()
    tr = run(make_cfg(), problem, _ctx(problem))
    assert len(tr) == 25
    assert tr.num_objectives == 3
    assert np.array_equal(tr.iterations, np.arange(25))
    assert np.all(np.diff(tr.samples) > 0)  # strictly increasing
    assert np.all(np.diff(tr.wall_ms) >= 0)
    assert np.all(np.isfinite(tr.losses))
    assert np.all(np.isfinite(tr.balanced_grad))


@pytest.mark.parametrize("run,make_cfg", ALL_SOLVERS)
def test_bit_identical_reruns(run, make_cfg):
    problem = _problem()
    ctx = _ctx(problem)
    a = run(make_cfg(seed=5), problem, ctx)
    b = run(make_cfg(seed=5), problem, ctx)
    c = run(make_cfg(seed=6), problem, ctx)
    for field in ("samples", "losses", "balanced_grad", "surrogate_stat", "w", "eta"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert not np.array_equal(a.losses, c.losses)


@pytest.mark.parametrize("run,make_cfg", ALL_SOLVERS)
def test_w_stays_on_simplex(run, make_cfg):
    problem = _problem()
    tr = run(make_cfg(), problem, _ctx(problem))
    assert np.all(tr.w >= -1e-12)
    assert np.abs(tr.w.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("run,make_cfg", ALL_SOLVERS)
def test_single_objective_keeps_w_at_one(run, make_cfg):
    base = _problem()
    problem = MultiTaskProblem(base.features, base.labels[:1], LOSS_SQUARED)
    ctx = DualContext(
        lam=1.0, lipschitz_g=estimate_lipschitz(problem), num_objectives=1
    )
    tr = run(make_cfg(), problem, ctx)
    assert np.array_equal(tr.w, np.ones((25, 1)))


# --- sample accounting -------------------------------------------------------


def test_sample_accounting_double_loop():
    problem = _problem()
    cfg = _dl_cfg(T=12, D=7, B=9)
    tr = run_double_loop(cfg, problem, _ctx(problem))
    per_iter = 3 * cfg.D + 3 * cfg.B * 3  # m*D inner singles + three B-batches
    assert np.array_equal(tr.samples, per_iter * np.arange(1, 13))


def test_sample_accounting_double_clip():
    problem = _problem()
    cfg = _dc_cfg(T=12, N1=10, N2=6)
    tr = run_double_clip(cfg, problem, _ctx(problem))
    per_iter = (cfg.N1 + cfg.N2) * 3
    assert np.array_equal(tr.samples, per_iter * np.arange(1, 13))


def test_sample_accounting_baselines():
    problem = _problem()
    ctx = _ctx(problem)
    cfg = _bl_cfg(T=12, B=9)
    single = run_stochastic_mgda(cfg, problem, ctx)
    double = run_modo(cfg, problem, ctx)
    assert np.array_equal(single.samples, 27 * np.arange(1, 13))
    # double sampling costs exactly twice per iteration
    assert np.array_equal(double.samples, 2 * single.samples)


# --- clipping ----------------------------------------------------------------


def test_clip_rule_reconstructed_from_diagnostics():
    problem = _problem()
    cfg = _dc_cfg(T=40)
    tr = run_double_clip(cfg, problem, _ctx(problem))
    xw = tr.diagnostics["xw_norm"]
    zw = tr.diagnostics["zw_norm"]
    want_alpha = np.where(xw == 0.0, cfg.c1, np.minimum(cfg.c1, cfg.c2 / np.maximum(xw, 1e-300)))
    want_mu = np.where(zw == 0.0, cfg.f1, np.minimum(cfg.f1, cfg.f2 / np.maximum(zw, 1e-300)))
    assert np.array_equal(tr.diagnostics["alpha_t"], want_alpha)
    assert np.array_equal(tr.diagnostics["mu_t"], want_mu)
    assert np.all(tr.diagnostics["theta_step"] <= cfg.gamma * cfg.c2 + 1e-12)
    assert np.all(tr.diagnostics["eta_step"] <= cfg.gamma * cfg.f2 + 1e-12)


def test_clip_eta_steps_bounded_in_trace():
    # consecutive recorded dual iterates differ by at most gamma*f2 (the
    # recorded eta is the post-update iterate; the run starts from zero)
    problem = _problem()
    cfg = _dc_cfg(T=40)
    tr = run_double_clip(cfg, problem, _ctx(problem))
    steps = np.diff(np.vstack([np.zeros(3), tr.eta]), axis=0)
    assert np.linalg.norm(steps, axis=1).max() <= cfg.gamma * cfg.f2 + 1e-12


def test_zero_gradient_problem_freezes_double_clip():
    # all-zero features and labels: X = Z = 0, so alpha = c1, mu = f1 and
    # nothing moves (the x/0 = +inf convention picks the cap)
    problem = MultiTaskProblem(np.zeros((8, 2)), np.zeros((2, 8)), LOSS_SQUARED)
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=2)
    cfg = _dc_cfg(T=10)
    tr = run_double_clip(cfg, problem, ctx)
    assert np.all(tr.diagnostics["alpha_t"] == cfg.c1)
    assert np.all(tr.diagnostics["mu_t"] == cfg.f1)
    assert np.array_equal(tr.eta, np.zeros((10, 2)))
    assert np.array_equal(tr.w, np.full((10, 2), 0.5))
    assert np.all(tr.balanced_grad == 0.0)


# --- constant-loss behavior of the double loop -------------------------------


def test_constant_losses_freeze_theta_and_pull_eta():
    # zero features with unit labels: every loss is exactly 1, gradients
    # vanish. theta must stay put, the inner loop must pull eta toward the
    # dual minimizer (the constant), and w must stay uniform.
    c = 1.0
    problem = MultiTaskProblem(np.zeros((8, 2)), np.full((2, 8), np.sqrt(c)), LOSS_SQUARED)
    recorder = _ThetaRecorder(problem)
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=2)
    cfg = _dl_cfg(T=80, D=10, gamma=0.1)
    tr = run_double_loop(cfg, recorder, ctx)
    # one stacked sample for the inner loop and one per Y, Ybar, Ytilde batch
    assert len(recorder.thetas) == 4 * cfg.T
    assert all(np.array_equal(t, np.zeros(2)) for t in recorder.thetas)
    assert np.array_equal(tr.w, np.full((80, 2), 0.5))
    # recorded eta is a point on the inner trajectory; late rows sit at c
    assert np.abs(tr.eta[-5:] - c).max() <= 1e-6
    # dual value at the minimizer of a constant batch is the constant
    assert np.abs(tr.losses[-5:] - c).max() <= 1e-6


# --- inner dual descent ------------------------------------------------------


def test_full_batch_eta_descent_converges(small_linear):
    # |grad_eta| is nonincreasing under eta <- eta - gamma*grad at any
    # gamma <= lambda/M (the gradient is (M/lambda)-Lipschitz in eta)
    lam = 1.0
    ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=3)
    gamma = lam / SMOOTHNESS_M  # the largest safe step
    losses = small_linear.per_sample(0, np.zeros(small_linear.dimension))[0]
    eta = 0.0
    last = abs(grad_eta(ctx, losses, eta))
    for step in range(500):
        g = grad_eta(ctx, losses, eta)
        assert abs(g) <= last + 1e-12
        last = abs(g)
        if last <= 1e-3:
            break
        eta -= gamma * g
    assert last <= 1e-3
    assert step < 500


def _scalar_inner_loop(ctx, lvec, eta, gamma):
    """The per-step numpy-scalar loop inner_eta_descent replaced; its reference."""
    traj = np.empty(lvec.shape[0])
    e = eta
    for d in range(lvec.shape[0]):
        traj[d] = e
        v = 1.0 - conjugate_deriv((lvec[d] - e) / ctx.lam)
        e -= gamma * v
    return traj, e


@settings(deadline=None, max_examples=200)
@given(
    batches=st.lists(
        st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30), min_size=1, max_size=3
    ),
    eta=st.floats(-20.0, 20.0),
    lam=st.floats(0.05, 10.0),
    gamma=st.floats(1e-4, 2.0),
)
def test_inner_eta_descent_matches_scalar_loop(batches, eta, lam, gamma):
    # same arithmetic, so equality is exact, including across warm starts
    ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=1)
    ref_eta, got_eta = np.zeros(1), np.zeros(1)
    ref_eta[0] = got_eta[0] = eta
    for losses in batches:
        lvec = np.array(losses)
        ref_traj, ref_eta[0] = _scalar_inner_loop(ctx, lvec, ref_eta[0], gamma)
        got_traj, got_eta[0] = inner_eta_descent(lvec.tolist(), float(got_eta[0]), gamma, lam)
        assert np.array_equal(np.array(got_traj), ref_traj)
        assert np.array_equal(got_eta, ref_eta)


# --- full-batch stationarity surrogate ---------------------------------------


@settings(deadline=None, max_examples=60)
@given(
    theta=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    eta=st.lists(st.floats(-5.0, 30.0), min_size=3, max_size=3),
    w=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda v: sum(v) > 0),
)
def test_full_surrogate_matches_reference(theta, eta, w):
    problem = _problem()
    ctx = DualContext(lam=1.0, lipschitz_g=3.0, num_objectives=3)
    theta, eta = np.array(theta), np.array(eta)
    w = np.array(w) / sum(w)
    cols, egr = [], []
    for i in range(3):
        losses, grads = problem.per_sample(i, theta)
        cols.append(grad_theta(ctx, grads, losses, eta[i]))
        egr.append(grad_eta(ctx, losses, eta[i]))
    ref = surrogate_stationarity(ObjectiveJacobian(np.column_stack(cols), np.array(egr)), w, 3.0)
    got = _full_surrogate(problem, ctx, theta, eta, w)
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12 * abs(ref))


# --- divergence --------------------------------------------------------------


def _huge_label_problem():
    # labels of 1e200 overflow every squared loss to inf
    problem = _problem()
    return MultiTaskProblem(problem.features, np.full_like(problem.labels, 1e200), LOSS_SQUARED)


CLIP_DIAGNOSTICS = {"alpha_t", "mu_t", "theta_step", "eta_step", "xw_norm", "zw_norm"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "run, cfg, make_problem",
    [
        (run_double_loop, _dl_cfg(alpha=1e6, T=50), _problem),
        (run_double_clip, _dc_cfg(T=50), _huge_label_problem),
        (run_stochastic_mgda, _bl_cfg(lr=1e6, T=50), _problem),
        (run_modo, _bl_cfg(lr=1e6, T=50), _problem),
    ],
    ids=["double_loop", "double_clip", "mgda", "modo"],
)
def test_divergence_carries_partial_trace(run, cfg, make_problem):
    # overflow warnings during the blow-up are the divergence mechanism itself
    with pytest.raises(SolverDivergence, match="divergence at iteration") as ei:
        run(cfg, make_problem(), _ctx(_problem()))
    exc = ei.value
    assert 0 <= exc.iteration < 50
    partial = exc.partial_trace
    assert len(partial) == exc.iteration + 1
    assert np.all(np.diff(partial.samples) > 0)
    assert set(partial.diagnostics) == (CLIP_DIAGNOSTICS if run is run_double_clip else set())
    for values in partial.diagnostics.values():
        assert len(values) == exc.iteration + 1


# --- rng streams -------------------------------------------------------------


@pytest.mark.parametrize(
    "role, high, size",
    [(ROLE_Y, n, s) for n in (200, 4898, 6000) for s in (1, 3, 20, 255, 256)]
    + [(ROLE_INDEX, 20, 3)],  # the double loop's trajectory-index triple
)
def test_block_draws_equal_per_step_draws(role, high, size):
    # numpy does not promise that integers(0, N, size=(c, s)) gives the values
    # of c successive integers(0, N, size=s) calls; every trace relies on it.
    # 2 full chunks and a short one, so reads cross chunk boundaries.
    steps = 2 * DRAW_CHUNK + 7
    block = make_stream(3, role, 1).integers(0, high, size=(steps, size))
    got = np.array(list(_index_steps(3, role, 2, high, size, steps)))
    streams = [make_stream(3, role, i) for i in range(2)]
    per_step = np.array([
        [rng.integers(0, high, size=size) for rng in streams] for _ in range(steps)
    ])
    assert np.array_equal(block, per_step[:, 1])
    assert np.array_equal(got, per_step)


def test_make_stream_determinism_and_role_separation():
    a = make_stream(3, 1, 0).integers(0, 1000, 8)
    b = make_stream(3, 1, 0).integers(0, 1000, 8)
    assert np.array_equal(a, b)
    other_role = make_stream(3, 2, 0).integers(0, 1000, 8)
    other_obj = make_stream(3, 1, 1).integers(0, 1000, 8)
    other_seed = make_stream(4, 1, 0).integers(0, 1000, 8)
    assert not np.array_equal(a, other_role)
    assert not np.array_equal(a, other_obj)
    assert not np.array_equal(a, other_seed)
