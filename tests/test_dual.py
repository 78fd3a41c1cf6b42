"""Dual objective: conjugate, value, gradients, exact minimizer, phi oracle."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmoo.checks import dual_min_bisect
from drmoo.dual import (
    SMOOTHNESS_M,
    DualContext,
    _sorted_dual_min,
    batch_oracle,
    conjugate_deriv,
    conjugate_value,
    dual_value,
    exact_dual_min,
    grad_eta,
    grad_theta,
    phi_oracle,
    rescaled_grads,
)
from drmoo.problems import (
    LOSS_SQUARED,
    LinearSpec,
    MultiTaskProblem,
    ToySpec,
    gen_linear,
    load_wine_tasks,
    synthesize_wine_csv,
    toy_problem,
)

from conftest import rng

CTX1 = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=1)

finite_floats = st.floats(-50.0, 50.0, allow_nan=False)


# --- conjugate ---------------------------------------------------------------


def test_conjugate_spot_values():
    assert conjugate_value(0.0) == 0.0
    assert conjugate_value(-2.0) == -1.0  # the kink
    assert conjugate_value(2.0) == 3.0
    assert conjugate_deriv(0.0) == 1.0
    assert conjugate_deriv(-3.0) == 0.0  # below the kink
    assert conjugate_deriv(2.0) == 2.0


def test_conjugate_vectorized_shape():
    t = np.array([-3.0, -2.0, 0.0, 2.0])
    v = conjugate_value(t)
    assert v.shape == t.shape
    assert np.allclose(v, [-1.0, -1.0, 0.0, 3.0])
    assert isinstance(conjugate_value(1.0), float)


@given(finite_floats, finite_floats)
def test_conjugate_deriv_nondecreasing_and_half_lipschitz(a, b):
    da, db = conjugate_deriv(a), conjugate_deriv(b)
    assert da >= 0.0
    if a <= b:
        assert da <= db
    assert abs(da - db) <= SMOOTHNESS_M * abs(a - b) + 1e-12


# --- context -----------------------------------------------------------------


def test_context_validation():
    with pytest.raises(ValueError, match="lambda must be positive"):
        DualContext(lam=0.0, lipschitz_g=1.0, num_objectives=1)
    with pytest.raises(ValueError, match="lipschitz_g must be positive"):
        DualContext(lam=1.0, lipschitz_g=-1.0, num_objectives=1)
    with pytest.raises(ValueError, match="num_objectives"):
        DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=0)


@given(
    field=st.sampled_from(["lam", "lipschitz_g"]),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_context_rejects_nonfinite(field, bad):
    kwargs = {"lam": 1.0, "lipschitz_g": 1.0, "num_objectives": 2, field: bad}
    with pytest.raises(ValueError, match="must be positive and finite"):
        DualContext(**kwargs)


def test_eta_scale():
    ctx = DualContext(lam=1.0, lipschitz_g=2.0, num_objectives=4)
    assert ctx.eta_scale == 4.0  # G * sqrt(m)


# --- dual value and gradients ------------------------------------------------


def test_dual_value_examples():
    assert dual_value(CTX1, [1.0], 1.0) == 1.0  # f*(0) = 0, only eta remains
    assert dual_value(CTX1, [1.0], 0.0) == 1.25  # f*(1) = 0.25*9 - 1
    # mean of f*(-1) = -0.75 and f*(1) = 1.25 is 0.25
    assert dual_value(CTX1, [0.0, 2.0], 1.0) == 1.25


def test_dual_value_rejects_bad_batches():
    with pytest.raises(ValueError, match="empty batch"):
        dual_value(CTX1, [], 0.0)
    with pytest.raises(ValueError, match="1-d batch"):
        dual_value(CTX1, [[1.0, 2.0]], 0.0)


@given(st.lists(finite_floats, min_size=1, max_size=20), st.data())
def test_nonfinite_losses_rejected_with_index(losses, data):
    positions = data.draw(
        st.sets(st.integers(0, len(losses) - 1), min_size=1), label="positions"
    )
    for j in positions:
        losses[j] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    pattern = rf"non-finite loss at index {min(positions)}:"
    grads = np.ones((len(losses), 2))
    for call in (
        lambda: exact_dual_min(CTX1, losses),
        lambda: dual_value(CTX1, losses, 0.0),
        lambda: grad_eta(CTX1, losses, 0.0),
        lambda: grad_theta(CTX1, grads, losses, 0.0),
    ):
        with pytest.raises(ValueError, match=pattern):
            call()


def test_grad_eta_examples():
    assert grad_eta(CTX1, [1.0], 1.0) == 0.0
    assert grad_eta(CTX1, [1.0], 0.0) == -0.5  # 1 - f*'(1) = 1 - 1.5
    assert grad_eta(CTX1, [-5.0], 0.0) == 1.0  # weight dead below the kink
    with pytest.raises(ValueError, match="empty batch"):
        grad_eta(CTX1, [], 0.0)


def test_grad_theta_examples():
    # ell = eta: weight f*'(0) = 1, gradient passes through
    g = np.array([[3.0, -1.0]])
    assert np.array_equal(grad_theta(CTX1, g, [0.5], 0.5), g[0])
    # ell = eta - 2*lambda sits at the kink: weight 0
    assert np.array_equal(grad_theta(CTX1, g, [-2.0], 0.0), [0.0, 0.0])
    # weights f*'(0) = 1 and f*'(2) = 2, halved by the batch mean
    out = grad_theta(CTX1, np.eye(2), [0.0, 2.0], 0.0)
    assert np.array_equal(out, [0.5, 1.0])


def test_grad_theta_shape_mismatch():
    with pytest.raises(ValueError, match="does not match"):
        grad_theta(CTX1, np.ones((3, 2)), [0.0, 1.0], 0.0)
    with pytest.raises(ValueError, match="empty batch"):
        grad_theta(CTX1, np.ones((0, 2)), [], 0.0)


@given(
    st.lists(finite_floats, min_size=1, max_size=8),
    finite_floats,
    finite_floats,
)
def test_grad_eta_nondecreasing_in_eta(losses, e1, e2):
    lo, hi = min(e1, e2), max(e1, e2)
    assert grad_eta(CTX1, losses, lo) <= grad_eta(CTX1, losses, hi) + 1e-12


@given(
    st.lists(finite_floats, min_size=1, max_size=8),
    finite_floats,
    finite_floats,
)
def test_dual_value_convex_in_eta(losses, e1, e2):
    mid = dual_value(CTX1, losses, 0.5 * (e1 + e2))
    ends = 0.5 * (dual_value(CTX1, losses, e1) + dual_value(CTX1, losses, e2))
    assert mid <= ends + 1e-9 * max(1.0, abs(ends))


def test_gradients_match_finite_differences(small_linear):
    # heavier kink-avoiding sweeps live in the check suite; this is a smoke pass
    g = rng(31)
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=3)
    h = 1e-6
    for _ in range(10):
        i = int(g.integers(3))
        idx = g.integers(0, small_linear.num_samples, size=16)
        theta = g.normal(0, 0.5, small_linear.dimension)
        eta = float(g.normal(0, 1))
        losses, grads = small_linear.per_sample(i, theta, idx)
        if not np.all(np.abs(losses - eta + 2.0) > 0.1):
            continue  # too close to the conjugate kink for clean FD
        fd = (dual_value(ctx, losses, eta + h) - dual_value(ctx, losses, eta - h)) / (2 * h)
        assert grad_eta(ctx, losses, eta) == pytest.approx(fd, rel=1e-5, abs=1e-7)
        gt = grad_theta(ctx, grads, losses, eta)
        k = int(g.integers(small_linear.dimension))
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        fd = (
            dual_value(ctx, small_linear.per_sample(i, tp, idx)[0], eta)
            - dual_value(ctx, small_linear.per_sample(i, tm, idx)[0], eta)
        ) / (2 * h)
        assert gt[k] == pytest.approx(fd, rel=1e-5, abs=1e-7)


# --- rescaled gradients ------------------------------------------------------


def _one_sample_batches(m, n, value, grad_rng):
    out = []
    for _ in range(m):
        out.append((np.array([value]), grad_rng.normal(0, 1, (1, n))))
    return out


def test_rescaled_equals_plain_when_scale_is_one():
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=1)
    assert ctx.eta_scale == 1.0
    g = rng(41)
    batches = [(g.normal(0, 1, 5), g.normal(0, 1, (5, 3)))]
    theta = np.zeros(3)
    eta = np.array([0.7])
    theta_grads, eta_grads = rescaled_grads(ctx, batches, theta, eta)
    losses, grads = batches[0]
    assert np.array_equal(theta_grads[:, 0], grad_theta(ctx, grads, losses, 0.7))
    assert eta_grads[0] == grad_eta(ctx, losses, 0.7)


def test_rescaled_zero_eta_matches_unshifted_columns():
    ctx = DualContext(lam=1.0, lipschitz_g=3.0, num_objectives=2)
    g = rng(42)
    batches = [(g.normal(0, 1, 4), g.normal(0, 1, (4, 3))) for _ in range(2)]
    theta_grads, _ = rescaled_grads(ctx, batches, np.zeros(3), np.zeros(2))
    for i, (losses, grads) in enumerate(batches):
        assert np.array_equal(theta_grads[:, i], grad_theta(ctx, grads, losses, 0.0))


def test_rescaled_eta_entry_vanishes_at_matched_loss():
    # G=2, m=4: single sample with loss = G*sqrt(m)*eta makes the inner
    # eta-gradient zero, and the chain-rule factor multiplies zero
    ctx = DualContext(lam=1.0, lipschitz_g=2.0, num_objectives=4)
    eta = np.array([0.3, -0.2, 1.0, 0.0])
    g = rng(43)
    batches = [
        (np.array([ctx.eta_scale * eta[i]]), g.normal(0, 1, (1, 2))) for i in range(4)
    ]
    _, eta_grads = rescaled_grads(ctx, batches, np.zeros(2), eta)
    assert np.array_equal(eta_grads, np.zeros(4))


def test_rescaled_validation():
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=2)
    g = rng(44)
    batches = [(g.normal(0, 1, 3), g.normal(0, 1, (3, 2)))]
    with pytest.raises(ValueError, match="expected 2 objective batches"):
        rescaled_grads(ctx, batches, np.zeros(2), np.zeros(2))
    batches = batches * 2
    with pytest.raises(ValueError, match="eta must have shape"):
        rescaled_grads(ctx, batches, np.zeros(2), np.zeros(3))
    bad = [(g.normal(0, 1, 3), g.normal(0, 1, (3, 5))) for _ in range(2)]
    with pytest.raises(ValueError, match="gradient dimension"):
        rescaled_grads(ctx, bad, np.zeros(2), np.zeros(2))


def test_rescaled_chain_rule_against_fd(small_linear):
    ctx = DualContext(lam=1.0, lipschitz_g=2.0, num_objectives=3)
    g = rng(45)
    theta = g.normal(0, 0.3, small_linear.dimension)
    eta = g.normal(0, 0.2, 3)
    batches = [small_linear.per_sample(i, theta) for i in range(3)]
    _, eta_grads = rescaled_grads(ctx, batches, theta, eta)
    h = 1e-6
    for i in range(3):
        losses = batches[i][0]
        up = dual_value(ctx, losses, ctx.eta_scale * (eta[i] + h))
        dn = dual_value(ctx, losses, ctx.eta_scale * (eta[i] - h))
        assert eta_grads[i] == pytest.approx((up - dn) / (2 * h), rel=1e-5)


# --- fused batch oracle ------------------------------------------------------

# Fixed before batch_oracle was written: it sums in another order than the
# reference functions, so agreement is to a few ulps of the reference norm.
ORACLE_RTOL = 1e-12


def assert_matches_reference(got, ref):
    ref = np.asarray(ref, dtype=float)
    np.testing.assert_allclose(
        got, ref, rtol=ORACLE_RTOL, atol=ORACLE_RTOL * float(np.linalg.norm(ref))
    )


@pytest.fixture(scope="module")
def oracle_problems(tmp_path_factory):
    wine_csv = synthesize_wine_csv(tmp_path_factory.mktemp("wine") / "w.csv", rows=80)
    return {
        "squared": gen_linear(LinearSpec(dimension=6, samples=200, seed=7)),
        "logistic": load_wine_tasks(wine_csv),
        # per-sample offsets shift the losses but not the slopes
        "toy": toy_problem(ToySpec(), num_draws=50, seed=3),
    }


@settings(deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(["squared", "logistic", "toy"]),
    lam=st.sampled_from([0.5, 1.0, 2.0]),
    data=st.data(),
)
def test_batch_oracle_matches_reference(oracle_problems, kind, lam, data):
    # all m objectives in one stacked call against the per-objective reference
    problem = oracle_problems[kind]
    m, n = problem.num_objectives, problem.dimension
    ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=m)
    theta = np.array(data.draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n),
                               label="theta"))
    if data.draw(st.booleans(), label="full batch"):
        idx = None
    else:  # per objective a few distinct rows, each possibly drawn many times
        b = data.draw(st.integers(1, 64), label="batch size")
        rows = st.lists(st.integers(0, problem.num_samples - 1), min_size=1, max_size=6)
        idx = np.array([
            data.draw(st.lists(st.sampled_from(data.draw(rows, label=f"rows {i}")),
                               min_size=b, max_size=b), label=f"batch {i}")
            for i in range(m)
        ])
    refs = [problem.per_sample(i, theta, None if idx is None else idx[i]) for i in range(m)]
    # (t + 2)_+ clamps sample j once eta >= l_j + 2*lambda: between the
    # smallest and largest of those the clamp holds for part of the batch
    clamp_at = data.draw(st.lists(st.floats(-0.25, 1.25), min_size=m, max_size=m),
                         label="clamp at")
    etas = np.empty(m)
    for i, (losses, _) in enumerate(refs):
        lo, hi = losses.min() + 2 * lam, losses.max() + 2 * lam
        etas[i] = lo + clamp_at[i] * (hi - lo)

    batch = problem.sample_batch(theta, idx)
    values, theta_grads, eta_grads = batch_oracle(ctx.lam, *batch, etas)
    assert (values.shape, theta_grads.shape, eta_grads.shape) == ((m,), (n, m), (m,))
    for i, (losses, grads) in enumerate(refs):
        assert np.array_equal(batch[0][i], losses)
        assert_matches_reference(values[i], dual_value(ctx, losses, etas[i]))
        assert_matches_reference(theta_grads[:, i], grad_theta(ctx, grads, losses, etas[i]))
        assert_matches_reference(eta_grads[i], grad_eta(ctx, losses, etas[i]))


# --- exact dual minimizer ----------------------------------------------------


def test_exact_dual_min_examples():
    assert exact_dual_min(CTX1, [3.25]) == pytest.approx(3.25, abs=1e-9)
    assert exact_dual_min(CTX1, [0.0, 2.0]) == pytest.approx(1.0, abs=1e-9)
    assert exact_dual_min(CTX1, [0.7, 0.7, 0.7]) == pytest.approx(0.7, abs=1e-9)


def test_exact_dual_min_gradient_and_probes():
    g = rng(51)
    for _ in range(25):
        lam = float(g.choice([0.5, 1.0, 2.0]))
        ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=1)
        losses = g.normal(0, 3, int(g.integers(1, 30)))
        eta_star = exact_dual_min(ctx, losses)
        assert abs(grad_eta(ctx, losses, eta_star)) <= 1e-10
        v_star = dual_value(ctx, losses, eta_star)
        for p in eta_star + g.normal(0, 2, 40):
            assert dual_value(ctx, losses, p) >= v_star - 1e-12


@settings(deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(["spread", "ties", "equal"]),
    size=st.integers(1, 300),
    lam=st.sampled_from([0.05, 0.5, 1.0, 2.0, 10.0]),
    magnitude=st.sampled_from([1e-3, 1.0, 1e3, 1e6]),
    data=st.data(),
)
def test_exact_dual_min_matches_bisection(kind, size, lam, magnitude, data):
    if kind == "spread":
        unit = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
    elif kind == "ties":  # values on a 0.1 grid: every value repeats
        tenths = st.integers(-10, 10).map(lambda v: v / 10)
        unit = data.draw(st.lists(tenths, min_size=size, max_size=size))
    else:
        unit = [data.draw(st.floats(-1.0, 1.0))] * size
    losses = magnitude * np.array(unit)
    ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=1)
    eta = exact_dual_min(ctx, losses)
    # 1e-10, or the float floor where no double is that stationary: one ulp of
    # eta moves grad_eta by up to ulp/(2*lambda), over 1e-10 near |eta| = 1e6
    # with lambda = 0.05
    stat = max(1e-10, float(np.spacing(abs(eta))) / lam)
    # grad_eta rises with slope >= 1/(2*lambda*B) through its root, so the
    # bisection point lies within 2*lambda*B*tol of it
    tol = min(stat, 0.25e-9 * (1.0 + abs(eta)) / (lam * size))
    ref = dual_min_bisect(ctx, losses, tol=tol)
    assert abs(grad_eta(ctx, losses, eta)) <= stat
    assert abs(grad_eta(ctx, losses, ref)) <= stat
    assert abs(eta - ref) <= 1e-9 * (1.0 + abs(eta))


def test_exact_dual_min_empty_batch():
    with pytest.raises(ValueError, match="empty batch"):
        exact_dual_min(CTX1, [])


@settings(deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(["spread", "ties", "constant"]),
    rows=st.integers(1, 6),
    size=st.integers(1, 60),
    lam=st.sampled_from([0.05, 1.0, 10.0]),
    data=st.data(),
)
def test_sorted_dual_min_block_equals_row_calls(kind, rows, size, lam, data):
    # robust_frontier's layout: rows sorted into C-ordered work buffers
    if kind == "spread":
        elems = st.floats(-1e3, 1e3, allow_nan=False)
    else:  # ties: values on a 0.1 grid, so every value repeats
        elems = st.integers(-10, 10).map(lambda v: v / 10)
    if kind == "constant":
        block = np.array([[data.draw(elems)] * size for _ in range(rows)])
    else:
        block = np.array(data.draw(st.lists(
            st.lists(elems, min_size=size, max_size=size), min_size=rows, max_size=rows)))
    ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=1)
    u = np.sort(block, axis=1)
    gap, eta = np.empty((2, rows, size))
    got = _sorted_dual_min(lam, u, gap, eta, np.empty((rows, size), dtype=bool))
    want = np.array([exact_dual_min(ctx, row) for row in block])
    assert got.shape == (rows,) and got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))  # bit for bit
    # a strided column view, as the frontier recomputation in benchmarks/ passes
    wide = np.zeros((2 * size, rows))
    wide[::2] = block.T
    strided = [exact_dual_min(ctx, wide[::2, i]) for i in range(rows)]
    assert np.array_equal(np.array(strided).view(np.uint64), want.view(np.uint64))


def test_exact_dual_min_rejects_blocks_and_bad_batches():
    block = np.zeros((3, 4))
    block[1, 2] = math.nan
    block[2, 0] = math.inf
    fortran = np.asfortranarray([[0.0, -math.inf], [math.nan, 0.0]])
    for losses in (np.empty((3, 0)), np.empty((0, 4)), block, fortran,
                   np.zeros((2, 2, 2)), np.zeros((2, 3))):
        shape = re.escape(str(losses.shape))
        with pytest.raises(ValueError, match=rf"^losses must be a 1-d batch, got shape {shape}$"):
            exact_dual_min(CTX1, losses)
    # the value oracle and the bisection reference reject a block the same way
    for call in (lambda: dual_value(CTX1, np.zeros((2, 3)), 0.0),
                 lambda: dual_min_bisect(CTX1, np.zeros((2, 3)))):
        with pytest.raises(ValueError, match=r"1-d batch, got shape \(2, 3\)"):
            call()


# --- phi oracle --------------------------------------------------------------


def test_phi_single_sample_equals_loss():
    # one sample per objective: eta* = ell, so phi = ell
    problem = MultiTaskProblem(np.array([[1.0]]), [[0.5], [-1.0]], LOSS_SQUARED)
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=2)
    theta = np.array([2.0])
    values, jac = phi_oracle(ctx, problem, theta)
    expected = [(2.0 - 0.5) ** 2, (2.0 + 1.0) ** 2]
    assert values == pytest.approx(expected, abs=1e-9)
    assert jac.shape == (1, 2)


def test_phi_constant_losses_give_mean_gradient():
    # identical rows and labels: constant losses, phi = c, column = the
    # shared per-sample gradient
    x = np.full((3, 1), 2.0)
    y = np.full(3, 1.0)
    problem = MultiTaskProblem(x, [y], LOSS_SQUARED)
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=1)
    values, jac = phi_oracle(ctx, problem, np.array([1.0]))
    assert values[0] == pytest.approx(1.0, abs=1e-9)  # (2*1 - 1)^2
    assert jac[:, 0] == pytest.approx([4.0], abs=1e-8)  # 2*(z - y)*x


def test_phi_two_sample_dual_value():
    # losses {0, 2} at theta=0: eta* = 1, phi = 1.25
    x = np.array([[0.0], [0.0]])
    y = np.array([0.0, math.sqrt(2.0)])
    problem = MultiTaskProblem(x, [y], LOSS_SQUARED)
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=1)
    values, _ = phi_oracle(ctx, problem, np.array([0.0]))
    assert values[0] == pytest.approx(1.25, abs=1e-9)


def test_phi_oracle_calls_the_1d_minimizer_per_objective(small_linear, monkeypatch):
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=3)
    theta = rng(5).normal(0, 1, small_linear.dimension)
    shapes = []

    def counted(c, losses):
        shapes.append(np.shape(losses))
        return exact_dual_min(c, losses)

    monkeypatch.setattr("drmoo.dual.exact_dual_min", counted)
    values, jac = phi_oracle(ctx, small_linear, theta)
    assert shapes == [(small_linear.num_samples,)] * 3
    for i in range(3):  # bit for bit the per-objective 1-d oracles
        losses, grads = small_linear.per_sample(i, theta)
        eta = exact_dual_min(ctx, losses)
        assert values[i] == dual_value(ctx, losses, eta)
        assert np.array_equal(jac[:, i], grad_theta(ctx, grads, losses, eta))


def test_phi_objective_count_mismatch(small_linear):
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=2)
    with pytest.raises(ValueError, match="3 objectives"):
        phi_oracle(ctx, small_linear, np.zeros(small_linear.dimension))


@settings(deadline=None, max_examples=40)
@given(st.lists(st.floats(-20.0, 20.0, allow_nan=False), min_size=1, max_size=30))
def test_exact_dual_min_is_global_over_a_grid(losses):
    eta_star = exact_dual_min(CTX1, losses)
    v_star = dual_value(CTX1, losses, eta_star)
    grid = np.linspace(min(losses) - 3.0, max(losses) + 3.0, 200)
    assert all(dual_value(CTX1, losses, e) >= v_star - 1e-9 for e in grid)
