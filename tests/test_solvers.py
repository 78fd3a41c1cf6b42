"""Solver iterations: determinism, invariants, accounting, divergence."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmoo import solvers
from drmoo.checks import simplex_projection_oracle
from drmoo.dual import (
    SMOOTHNESS_M,
    DualContext,
    ObjectiveJacobian,
    conjugate_deriv,
    dual_value,
    grad_eta,
    grad_theta,
    rescaled_grads,
)
from drmoo.metrics import surrogate_stationarity
from drmoo.problems import (
    LOSS_BCE,
    LOSS_SQUARED,
    LinearSpec,
    MultiTaskProblem,
    ToySpec,
    estimate_lipschitz,
    gen_linear,
    toy_problem,
)
from drmoo.simplex import uniform_preference
from drmoo.solvers import (
    DRAW_CHUNK,
    ROLE_INDEX,
    ROLE_INNER,
    ROLE_JOINT_A,
    ROLE_JOINT_B,
    ROLE_X,
    ROLE_Y,
    ROLE_Z,
    BaselineConfig,
    DoubleClipConfig,
    DoubleLoopConfig,
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
    base = dict(alpha=1e-4, beta=1e-4, gamma=5e-3, rho=1e-5, T=25, D=5, B=16, seeds=(0,))
    base.update(kw)
    return DoubleLoopConfig(**base)


def _dc_cfg(**kw):
    base = dict(gamma=1e-2, beta=1e-3, rho=1e-5, c1=0.5, c2=0.1, f1=0.5, f2=0.1,
                N1=16, N2=16, T=25, seeds=(0,))
    base.update(kw)
    return DoubleClipConfig(**base)


def _bl_cfg(**kw):
    base = dict(lr=1e-4, beta=1e-4, rho=1e-5, T=25, B=16, seeds=(0,))
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
    with pytest.raises(ValueError, match="^alpha must be positive, got 0.0$"):
        _dl_cfg(alpha=0.0)
    with pytest.raises(ValueError, match="^rho must be nonnegative, got -1.0$"):
        _dl_cfg(rho=-1.0)
    with pytest.raises(ValueError, match="^D must be >= 1, got 0$"):
        _dl_cfg(D=0)
    with pytest.raises(ValueError, match="^c2 must be positive, got 0.0$"):
        _dc_cfg(c2=0.0)
    with pytest.raises(ValueError, match="^N2 must be >= 1, got 0$"):
        _dc_cfg(N2=0)
    with pytest.raises(ValueError, match="^lr must be positive, got -1.0$"):
        _bl_cfg(lr=-1.0)


@given(
    make=st.sampled_from([_dl_cfg, _dc_cfg, _bl_cfg]),
    data=st.data(),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_config_rejects_nonfinite_floats(make, data, bad):
    # the one range rule, on any field of any config: a float is finite and
    # positive, except that rho may be 0; an int is >= 1
    floats = [f.name for f in dataclasses.fields(make()) if f.type is float]
    name = data.draw(st.sampled_from(floats))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        make(**{name: bad})
    low = data.draw(st.floats(max_value=0.0, allow_nan=False, allow_infinity=False))
    if name == "rho" and low == 0:
        assert make(rho=low).rho == 0
    else:
        rule = "nonnegative" if name == "rho" else "positive"
        with pytest.raises(ValueError, match=f"^{name} must be {rule}, got "):
            make(**{name: low})
    assert make(rho=0.0).rho == 0
    with pytest.raises(ValueError, match="^rho must be nonnegative, got "):
        make(rho=-data.draw(st.floats(min_value=5e-324, allow_infinity=False)))
    ints = [f.name for f in dataclasses.fields(make()) if f.type is int]
    name = data.draw(st.sampled_from(ints))
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got "):
        make(**{name: data.draw(st.integers(max_value=0))})


def test_solver_rejects_objective_mismatch():
    problem = _problem()
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=2)
    with pytest.raises(ValueError, match="context expects 2"):
        run_double_loop(_dl_cfg(), problem, ctx)


# --- trace structure and determinism -----------------------------------------


@pytest.mark.parametrize("run,make_cfg", ALL_SOLVERS)
def test_trace_shape_and_counters(run, make_cfg):
    problem = _problem()
    tr, = run(make_cfg(), problem, _ctx(problem))
    assert len(tr) == 25
    assert tr.num_objectives == 3
    assert np.all(np.diff(tr.samples) > 0)  # strictly increasing
    assert np.all(np.diff(tr.wall_ms) >= 0)
    assert np.all(np.isfinite(tr.losses))
    assert np.all(np.isfinite(tr.balanced_grad))


@pytest.mark.parametrize("run,make_cfg", ALL_SOLVERS)
def test_bit_identical_reruns(run, make_cfg):
    problem = _problem()
    ctx = _ctx(problem)
    a, = run(make_cfg(seeds=(5,)), problem, ctx)
    b, = run(make_cfg(seeds=(5,)), problem, ctx)
    c, = run(make_cfg(seeds=(6,)), problem, ctx)
    for field in ("samples", "losses", "balanced_grad", "surrogate_stat", "w", "eta"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert not np.array_equal(a.losses, c.losses)


@pytest.mark.parametrize("run,make_cfg", ALL_SOLVERS)
def test_w_stays_on_simplex(run, make_cfg):
    problem = _problem()
    tr, = run(make_cfg(), problem, _ctx(problem))
    assert np.all(tr.w >= -1e-12)
    assert np.abs(tr.w.sum(axis=1) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("run,make_cfg", ALL_SOLVERS)
def test_single_objective_keeps_w_at_one(run, make_cfg):
    base = _problem()
    problem = MultiTaskProblem(base.features, base.labels[:1], LOSS_SQUARED)
    ctx = DualContext(
        lam=1.0, lipschitz_g=estimate_lipschitz(problem), num_objectives=1
    )
    tr, = run(make_cfg(), problem, ctx)
    assert np.array_equal(tr.w, np.ones((25, 1)))


# --- sample accounting -------------------------------------------------------


def test_sample_accounting_double_loop():
    problem = _problem()
    cfg = _dl_cfg(T=12, D=7, B=9)
    tr, = run_double_loop(cfg, problem, _ctx(problem))
    per_iter = 3 * cfg.D + 3 * cfg.B * 3  # m*D inner singles + three B-batches
    assert np.array_equal(tr.samples, per_iter * np.arange(1, 13))


def test_sample_accounting_double_clip():
    problem = _problem()
    cfg = _dc_cfg(T=12, N1=10, N2=6)
    tr, = run_double_clip(cfg, problem, _ctx(problem))
    per_iter = (cfg.N1 + cfg.N2) * 3
    assert np.array_equal(tr.samples, per_iter * np.arange(1, 13))


def test_sample_accounting_baselines():
    problem = _problem()
    ctx = _ctx(problem)
    cfg = _bl_cfg(T=12, B=9)
    single, = run_stochastic_mgda(cfg, problem, ctx)
    double, = run_modo(cfg, problem, ctx)
    assert np.array_equal(single.samples, 27 * np.arange(1, 13))
    # double sampling costs exactly twice per iteration
    assert np.array_equal(double.samples, 2 * single.samples)


# --- clipping ----------------------------------------------------------------


def test_clip_rule_reconstructed_from_diagnostics():
    problem = _problem()
    cfg = _dc_cfg(T=40)
    tr, = run_double_clip(cfg, problem, _ctx(problem))
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
    tr, = run_double_clip(cfg, problem, _ctx(problem))
    steps = np.diff(np.vstack([np.zeros(3), tr.eta]), axis=0)
    assert np.linalg.norm(steps, axis=1).max() <= cfg.gamma * cfg.f2 + 1e-12


def test_zero_gradient_problem_freezes_double_clip():
    # all-zero features and labels: X = Z = 0, so alpha = c1, mu = f1 and
    # nothing moves (the x/0 = +inf convention picks the cap)
    problem = MultiTaskProblem(np.zeros((8, 2)), np.zeros((2, 8)), LOSS_SQUARED)
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=2)
    cfg = _dc_cfg(T=10)
    tr, = run_double_clip(cfg, problem, ctx)
    assert np.all(tr.diagnostics["alpha_t"] == cfg.c1)
    assert np.all(tr.diagnostics["mu_t"] == cfg.f1)
    assert np.array_equal(tr.eta, np.zeros((10, 2)))
    assert np.array_equal(tr.w, np.full((10, 2), 0.5))
    assert np.all(tr.balanced_grad == 0.0)


def test_double_clip_step_is_rescaled_grads():
    # one double_clip step redone from dual.rescaled_grads, the reference
    # parameterization, on the step's own Z and X batches
    problem = _problem()
    ctx = _ctx(problem)
    cfg = _dc_cfg(T=1, N1=16, N2=24, seeds=(3,))
    tr, = run_double_clip(cfg, problem, ctx)
    m, big_n = problem.num_objectives, problem.num_samples
    theta, w = np.zeros(problem.dimension), uniform_preference(m)
    z_idx, = next(_index_steps(cfg.seeds, (ROLE_Z,), m, big_n, cfg.N2, 1))
    x_idx, = next(_index_steps(cfg.seeds, (ROLE_X,), m, big_n, cfg.N1, 1))
    z_batches = [problem.per_sample(i, theta, z_idx[i]) for i in range(m)]
    zw = rescaled_grads(ctx, z_batches, theta, np.zeros(m)).eta_grads * w
    zw_norm = np.linalg.norm(zw)
    eta = -cfg.gamma * min(cfg.f1, cfg.f2 / zw_norm) * zw
    x_batches = [problem.per_sample(i, theta, x_idx[i]) for i in range(m)]
    xw_norm = np.linalg.norm(rescaled_grads(ctx, x_batches, theta, eta).theta_grads @ w)
    np.testing.assert_allclose(tr.diagnostics["zw_norm"], [zw_norm], rtol=1e-12, atol=0)
    np.testing.assert_allclose(tr.eta[0], eta, rtol=1e-12, atol=0)
    np.testing.assert_allclose(tr.diagnostics["xw_norm"], [xw_norm], rtol=1e-12, atol=0)


@pytest.mark.parametrize("run, roles", [
    (run_stochastic_mgda, (ROLE_JOINT_A,)),
    (run_modo, (ROLE_JOINT_A, ROLE_JOINT_B)),
])
def test_baseline_step_is_the_reference_oracle(run, roles):
    # the first step of mgda and modo redone from dual.grad_theta, grad_eta
    # and dual_value on its own A (and B) batches; T = 2 so that the trace's
    # second row and the sampler's second theta show the step's result
    problem = _problem()
    recorder = _ThetaRecorder(problem)
    ctx = _ctx(problem)
    cfg = _bl_cfg(T=2, B=16, lr=1e-2, beta=1e-3, seeds=(3,))
    tr, = run(cfg, recorder, ctx)
    m, big_n = problem.num_objectives, problem.num_samples
    theta, eta, w = np.zeros(problem.dimension), np.zeros(m), uniform_preference(m)
    idx, = next(_index_steps(cfg.seeds, roles, m, big_n, cfg.B, 1))
    a, b = idx[:m], idx[-m:]  # b is a for mgda
    assert len(idx) == len(roles) * m

    def oracle(batch):
        evals = [problem.per_sample(i, theta, batch[i]) for i in range(m)]
        jac = np.column_stack([grad_theta(ctx, g, l, eta[i]) for i, (l, g) in enumerate(evals)])
        egr = np.array([grad_eta(ctx, l, eta[i]) for i, (l, _) in enumerate(evals)])
        return [dual_value(ctx, l, eta[i]) for i, (l, _) in enumerate(evals)], jac, egr

    def next_w(ja, ga, jb, gb):
        gram = ja.T @ jb + np.diag(ga * gb)
        return simplex_projection_oracle(w - cfg.beta * (gram @ w + cfg.rho * w))

    losses, ja, ga = oracle(a)
    _, jb, gb = oracle(b)
    np.testing.assert_allclose(tr.losses[0], losses, rtol=1e-12, atol=0)
    theta_next = recorder.thetas[1][0]
    np.testing.assert_allclose(theta_next, theta - cfg.lr * (ja @ w), rtol=1e-12, atol=0)
    np.testing.assert_allclose(tr.eta[1], eta - cfg.lr * (ga * w), rtol=1e-12, atol=0)
    np.testing.assert_allclose(tr.w[1], next_w(ja, ga, jb, gb), rtol=1e-12, atol=0)
    # modo's gram is A^T B, which a second read of A (mgda's A^T A) misses
    if run is run_modo:
        assert np.abs(tr.w[1] - next_w(ja, ga, ja, ga)).max() > 1e-9


def test_double_loop_step_uses_the_unbiased_gram_estimator():
    # two double_loop steps redone from dual.grad_eta, grad_theta and
    # dual_value: the inner eta descent on single samples, then Y, Ybar and
    # Ytilde column by column; the preference step must use Ybar^T Ytilde
    problem = _problem()
    recorder = _ThetaRecorder(problem)
    ctx = _ctx(problem)
    cfg = _dl_cfg(T=2, D=5, B=16, alpha=1e-2, beta=1e-3, seeds=(3,))
    tr, = run_double_loop(cfg, recorder, ctx)
    m, big_n = problem.num_objectives, problem.num_samples
    inner = _index_steps(cfg.seeds, (ROLE_INNER,), m, big_n, cfg.D, cfg.T)
    triples = _index_steps(cfg.seeds, (ROLE_INDEX,), 1, cfg.D, 3, cfg.T)
    # the Y, Ybar and Ytilde stream keys, spelled out so that a swap of the
    # role constants shows
    batches = _index_steps(cfg.seeds, (1, 2, 3), m, big_n, cfg.B, cfg.T)
    theta, eta, w = np.zeros(problem.dimension), np.zeros(m), uniform_preference(m)

    def jacobian(idx, etas):
        evals = [problem.per_sample(i, theta, idx[i]) for i in range(m)]
        jac = np.column_stack([grad_theta(ctx, g, l, etas[i]) for i, (l, g) in enumerate(evals)])
        return [dual_value(ctx, l, etas[i]) for i, (l, _) in enumerate(evals)], jac

    for t in range(cfg.T):
        inner_idx, = next(inner)
        traj = np.zeros((m, cfg.D))
        for i in range(m):
            for k in range(cfg.D):
                traj[i, k] = eta[i]
                loss = problem.per_sample(i, theta, inner_idx[i, k:k + 1])[0]
                eta[i] -= cfg.gamma * grad_eta(ctx, loss, eta[i])
        (d, dbar, dtil), = next(triples)[0]
        idx, = next(batches)
        losses, y = jacobian(idx[:m], traj[:, d])
        _, ybar = jacobian(idx[m:2 * m], traj[:, dbar])
        _, ytil = jacobian(idx[2 * m:], traj[:, dtil])
        np.testing.assert_allclose(tr.eta[t], traj[:, d], rtol=1e-12, atol=0)
        np.testing.assert_allclose(tr.losses[t], losses, rtol=1e-12, atol=0)
        np.testing.assert_allclose(recorder.thetas[2 * t][0], theta, rtol=1e-12, atol=0)
        theta = theta - cfg.alpha * (y @ w)
        if t + 1 < cfg.T:
            unbiased = simplex_projection_oracle(w - cfg.beta * (ybar.T @ ytil @ w + cfg.rho * w))
            np.testing.assert_allclose(tr.w[t + 1], unbiased, rtol=1e-12, atol=0)
            # one batch on both sides (Ybar^T Ybar) gives a different step
            biased = simplex_projection_oracle(w - cfg.beta * (ybar.T @ ybar @ w + cfg.rho * w))
            assert np.abs(tr.w[t + 1] - biased).max() > 1e-9
            w = unbiased


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
    tr, = run_double_loop(cfg, recorder, ctx)
    # one stacked sample for the inner loop and one for the Y, Ybar and
    # Ytilde batches together
    assert len(recorder.thetas) == 2 * cfg.T
    assert all(np.array_equal(t, np.zeros((1, 2))) for t in recorder.thetas)
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
    calls=st.lists(
        st.lists(st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=30),
                 min_size=6, max_size=6),
        min_size=1, max_size=3,
    ),
    etas=st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=6),
    lam=st.floats(0.05, 10.0),
    gamma=st.floats(1e-4, 2.0),
)
def test_inner_eta_descent_matches_scalar_loop(calls, etas, lam, gamma):
    # one call steps every lane, each of its own length; same arithmetic, so
    # equality is exact, including across warm starts
    ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=1)
    ref_etas = np.array(etas)
    for lanes in calls:
        lanes = lanes[:len(etas)]
        got_trajs, etas = inner_eta_descent(lanes, etas, gamma, lam)
        assert len(got_trajs) == len(etas) == len(lanes)
        for k, losses in enumerate(lanes):
            ref_traj, ref_etas[k] = _scalar_inner_loop(ctx, np.array(losses), ref_etas[k], gamma)
            assert np.array_equal(np.array(got_trajs[k]), ref_traj)
        assert np.array_equal(np.array(etas), ref_etas)


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
    got, = _full_surrogate(problem, ctx, theta[None], eta[None], w[None])
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12 * abs(ref))


SURROGATE_PROBLEMS = {
    "squared": _problem,
    "logistic": lambda: _logistic(3),
    "offset-toy": lambda: toy_problem(ToySpec(), num_draws=50, seed=2),
}


@pytest.mark.parametrize("kind", SURROGATE_PROBLEMS)
def test_full_surrogate_seeds_match_reference_and_solo_calls(kind):
    problem = SURROGATE_PROBLEMS[kind]()
    m, n = problem.num_objectives, problem.dimension
    ctx = DualContext(lam=0.7, lipschitz_g=3.0, num_objectives=m)
    g = np.random.default_rng(5)
    theta, eta, w = g.normal(0, 1, (3, n)), g.normal(1, 2, (3, m)), g.dirichlet(np.ones(m), 3)
    stored = [a for a in (problem.features, problem.labels, problem.offsets) if a is not None]
    before = [a.copy() for a in stored]
    got = _full_surrogate(problem, ctx, theta, eta, w)
    assert len(got) == 3
    for s in range(3):
        cols, egr = [], []
        for i in range(m):
            losses, grads = problem.per_sample(i, theta[s])
            cols.append(grad_theta(ctx, grads, losses, eta[s, i]))
            egr.append(grad_eta(ctx, losses, eta[s, i]))
        jac = ObjectiveJacobian(np.column_stack(cols), np.array(egr))
        assert got[s] == pytest.approx(surrogate_stationarity(jac, w[s], 3.0), rel=1e-12, abs=0)
        # a seed's value does not depend on the seeds beside it
        solo, = _full_surrogate(problem, ctx, theta[s:s + 1], eta[s:s + 1], w[s:s + 1])
        assert solo == got[s]
    # the evaluation's own arrays are overwritten, never the problem's
    assert len(stored) == (3 if kind == "offset-toy" else 2)
    assert all(np.array_equal(a, b) for a, b in zip(stored, before))


# --- divergence --------------------------------------------------------------


def _huge_label_problem():
    # labels of 1e200 overflow every squared loss to inf
    problem = _problem()
    return MultiTaskProblem(problem.features, np.full_like(problem.labels, 1e200), LOSS_SQUARED)


def _one_huge_label_problem():
    # one overflowing row: a seed diverges at the first step whose draws hit it
    problem = _problem()
    labels = problem.labels.copy()
    labels[0, 7] = 1e200
    return MultiTaskProblem(problem.features, labels, LOSS_SQUARED)


CLIP_DIAGNOSTICS = {"alpha_t", "mu_t", "theta_step", "eta_step", "xw_norm", "zw_norm"}
SIX_SEEDS = (0, 1, 2, 3, 4, 5)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_trace(got, want):
    """Every field but wall_ms equal bit for bit (nan payloads and signed
    zeros included)."""
    assert got.diverged_at == want.diverged_at
    assert got.diagnostics.keys() == want.diagnostics.keys()
    for name, values in want.diagnostics.items():
        assert _same_bits(got.diagnostics[name], values), name
    for f in dataclasses.fields(got):
        if f.name not in ("wall_ms", "diagnostics", "diverged_at"):
            assert _same_bits(getattr(got, f.name), getattr(want, f.name)), f.name


@pytest.mark.parametrize(
    "run, cfg, make_problem",
    [
        (run_double_loop, _dl_cfg(alpha=1e6, T=50), _problem),
        (run_double_clip, _dc_cfg(T=50), _huge_label_problem),
        (run_stochastic_mgda, _bl_cfg(lr=1e6, T=50), _problem),
        (run_modo, _bl_cfg(lr=1e6, T=50), _problem),
        (run_double_loop, _dl_cfg(D=1, B=1, seeds=SIX_SEEDS), _one_huge_label_problem),
        (run_double_clip, _dc_cfg(N1=1, N2=1, seeds=SIX_SEEDS), _one_huge_label_problem),
        (run_stochastic_mgda, _bl_cfg(B=3, seeds=SIX_SEEDS), _one_huge_label_problem),
        (run_modo, _bl_cfg(B=1, seeds=SIX_SEEDS), _one_huge_label_problem),
    ],
    ids=["double_loop", "double_clip", "mgda", "modo",
         "double_loop-seeds", "double_clip-seeds", "mgda-seeds", "modo-seeds"],
)
def test_divergence_carries_partial_trace(run, cfg, make_problem):
    problem, ctx = make_problem(), _ctx(_problem())
    traces = run(cfg, problem, ctx)
    assert len(traces) == len(cfg.seeds)
    for seed, partial in zip(cfg.seeds, traces):
        # in lockstep each seed keeps the trace of its solo run
        solo, = run(dataclasses.replace(cfg, seeds=(seed,)), problem, ctx)
        _assert_same_trace(partial, solo)
        if partial.diverged_at is None:
            assert len(partial) == cfg.T
            continue
        assert 0 <= partial.diverged_at < cfg.T
        assert len(partial) == partial.diverged_at + 1
        assert np.all(np.diff(partial.samples) > 0)
        assert set(partial.diagnostics) == (CLIP_DIAGNOSTICS if run is run_double_clip else set())
        for values in partial.diagnostics.values():
            assert len(values) == partial.diverged_at + 1
    stops = [tr.diverged_at for tr in traces]
    if len(traces) == 1:
        assert stops[0] is not None
    else:
        # seeds diverge at different iterations while another runs to T
        assert len(set(stops) - {None}) >= 2 and None in stops


# --- seed lockstep -----------------------------------------------------------


def _logistic(m):
    problem = _problem()
    labels = (problem.labels[:m] > np.median(problem.labels[:m], axis=1, keepdims=True))
    return MultiTaskProblem(problem.features, labels.astype(float), LOSS_BCE)


LOCKSTEP_PROBLEMS = {
    "squared-m3": _problem,
    "squared-m1": lambda: MultiTaskProblem(
        _problem().features, _problem().labels[:1], LOSS_SQUARED),
    "logistic-m3": lambda: _logistic(3),
    "logistic-m1": lambda: _logistic(1),
}


@pytest.mark.parametrize("kind", LOCKSTEP_PROBLEMS)
@pytest.mark.parametrize("run,make_cfg", ALL_SOLVERS)
def test_lockstep_seeds_equal_solo_runs(run, make_cfg, kind):
    problem = LOCKSTEP_PROBLEMS[kind]()
    ctx = _ctx(problem)
    solo = [run(make_cfg(seeds=(seed,)), problem, ctx)[0] for seed in (3, 0, 2)]
    for groups in (((3, 0, 2),), ((3,), (0, 2))):
        got = [tr for group in groups for tr in run(make_cfg(seeds=group), problem, ctx)]
        assert len(got) == 3
        for tr, want in zip(got, solo):
            assert tr.diverged_at is None
            _assert_same_trace(tr, want)


@pytest.mark.parametrize("run,make_cfg", ALL_SOLVERS)
def test_one_oracle_call_per_step_for_all_seeds(run, make_cfg, monkeypatch):
    shapes = []

    def counted(ctx, losses, slopes, rows, etas):
        shapes.append(etas.shape)
        return oracle(ctx, losses, slopes, rows, etas)

    oracle = solvers.batch_oracle
    monkeypatch.setattr(solvers, "batch_oracle", counted)
    problem = _problem()
    cfg = make_cfg(seeds=(4, 1, 7))
    assert len(run(cfg, problem, _ctx(problem))) == 3
    # one per step; the surrogate contracts its own full evaluation
    assert len(shapes) == cfg.T
    assert all(shape[0] == 3 for shape in shapes)


# --- rng streams -------------------------------------------------------------


@pytest.mark.parametrize(
    "role, high, size, budget",
    [pytest.param(ROLE_Y, n, s, None, id=f"{ROLE_Y}-{n}-{s}")
     for n in (200, 4898, 6000) for s in (1, 3, 20, 255, 256)]
    # the double loop's trajectory-index triple
    + [pytest.param(ROLE_INDEX, 20, 3, None, id=f"{ROLE_INDEX}-20-3")]
    # an element budget under one step's block cuts the chunk to one step
    + [pytest.param(ROLE_Y, 6000, 20, 1, id="budget-1")],
)
def test_block_draws_equal_per_step_draws(role, high, size, budget, monkeypatch):
    # numpy does not promise that integers(0, N, size=(c, s)) gives the values
    # of c successive integers(0, N, size=s) calls; every trace relies on it.
    # 2 full chunks and a short one, so reads cross chunk boundaries.
    if budget is not None:
        monkeypatch.setattr(solvers, "DRAW_ELEMENTS", budget)
    steps = 2 * DRAW_CHUNK + 7
    block = make_stream(3, role, 1).integers(0, high, size=(steps, size))
    # two seeds and two roles of two objectives: row r*m + i of seed s is
    # stream (seeds[s], roles[r], i)
    seeds, roles = (3, 8), (role, role + 1)
    got = np.array(list(_index_steps(seeds, roles, 2, high, size, steps)))
    streams = [make_stream(s, r, i) for s in seeds for r in roles for i in range(2)]
    per_step = np.array([
        [rng.integers(0, high, size=size) for rng in streams] for _ in range(steps)
    ]).reshape(steps, 2, 4, size)
    assert np.array_equal(block, per_step[:, 0, 1])
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
