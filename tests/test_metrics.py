"""Stationarity measures, Pareto filtering, and the robust toy frontier."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drmoo import metrics
from drmoo.checks import dual_min_bisect, pareto_brute_force
from drmoo.dual import DualContext, ObjectiveJacobian, dual_value, exact_dual_min, grad_eta
from drmoo.metrics import (
    FrontierPoint,
    balanced_grad_norm,
    pareto_filter,
    robust_frontier,
    surrogate_stationarity,
    window_means,
)
from drmoo.problems import ToySpec, perturbation_ensemble, toy_objectives

from conftest import rng


# --- balanced gradient and surrogate -----------------------------------------


def test_balanced_grad_norm_examples():
    jac = ObjectiveJacobian(np.eye(2), np.zeros(2))
    assert balanced_grad_norm(jac, [1.0, 0.0]) == 1.0
    assert balanced_grad_norm(jac, [0.5, 0.5]) == pytest.approx(np.sqrt(0.5))
    zero = ObjectiveJacobian(np.zeros((4, 3)), np.zeros(3))
    assert balanced_grad_norm(zero, [0.2, 0.3, 0.5]) == 0.0


def test_balanced_grad_norm_dimension_mismatch():
    jac = ObjectiveJacobian(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="does not match"):
        balanced_grad_norm(jac, [1.0, 0.0, 0.0])


def test_surrogate_examples():
    # zero eta-gradients: reduces to the balanced norm
    jac = ObjectiveJacobian(np.eye(2), np.zeros(2))
    assert surrogate_stationarity(jac, [0.5, 0.5], 2.0) == balanced_grad_norm(
        jac, [0.5, 0.5]
    )
    # zero theta block: G * sum w |eta grads| remains
    jac = ObjectiveJacobian(np.zeros((3, 2)), np.array([1.0, -1.0]))
    assert surrogate_stationarity(jac, [0.5, 0.5], 2.0) == 2.0
    zero = ObjectiveJacobian(np.zeros((3, 2)), np.zeros(2))
    assert surrogate_stationarity(zero, [0.5, 0.5], 2.0) == 0.0


def test_surrogate_validation():
    jac = ObjectiveJacobian(np.eye(2), np.zeros(2))
    with pytest.raises(ValueError, match="G must be positive"):
        surrogate_stationarity(jac, [0.5, 0.5], 0.0)
    with pytest.raises(ValueError, match="do not match"):
        surrogate_stationarity(jac, [1.0, 0.0, 0.0], 1.0)


def test_surrogate_equals_balanced_at_exact_minimizer(small_linear):
    # at eta* the eta-gradients vanish, so the two measures coincide
    from drmoo.dual import grad_theta

    ctx = DualContext(lam=1.0, lipschitz_g=5.0, num_objectives=3)
    theta = rng(91).normal(0, 0.3, small_linear.dimension)
    evals = [small_linear.per_sample(i, theta) for i in range(3)]
    cols, egr = [], []
    for losses, grads in evals:
        # the closed form is stationary to rounding, so G * |grad_eta| stays
        # below the comparison tol
        eta_star = exact_dual_min(ctx, losses)
        cols.append(grad_theta(ctx, grads, losses, eta_star))
        egr.append(grad_eta(ctx, losses, eta_star))
    jac = ObjectiveJacobian(np.column_stack(cols), np.array(egr))
    w = np.array([0.2, 0.3, 0.5])
    assert surrogate_stationarity(jac, w, 5.0) == pytest.approx(
        balanced_grad_norm(jac, w), abs=1e-10
    )


# --- pareto filter -----------------------------------------------------------


def _pts(values):
    return [FrontierPoint(float(k), tuple(v)) for k, v in enumerate(values)]


def test_pareto_examples():
    got = pareto_filter(_pts([(1, 2), (2, 1), (2, 2)]))
    assert [p.values for p in got] == [(1, 2), (2, 1)]
    single = _pts([(3, 4)])
    assert pareto_filter(single) == single
    dup = pareto_filter(_pts([(1, 1), (1, 1)]))
    assert len(dup) == 1 and dup[0].values == (1, 1)
    assert pareto_filter([]) == []


def test_pareto_preserves_input_order():
    got = pareto_filter(_pts([(2, 1), (5, 5), (1, 2), (0, 3)]))
    assert [p.values for p in got] == [(2, 1), (1, 2), (0, 3)]


def test_pareto_rejects_mixed_arity():
    pts = [FrontierPoint(0.0, (1.0, 2.0)), FrontierPoint(1.0, (1.0, 2.0, 3.0))]
    with pytest.raises(ValueError, match="mix"):
        pareto_filter(pts)


def test_frontier_point_rejects_nonfinite():
    with pytest.raises(ValueError, match="non-finite"):
        FrontierPoint(0.0, (1.0, np.inf))
    with pytest.raises(ValueError, match="missing"):
        FrontierPoint(0.0, ())


@settings(deadline=None, max_examples=80)
@given(
    st.lists(
        st.tuples(
            st.integers(-3, 3).map(float), st.integers(-3, 3).map(float)
        ),
        min_size=1,
        max_size=40,
    )
)
def test_pareto_matches_brute_force_and_is_antichain(values):
    pts = _pts(values)  # small integer coords force plenty of ties
    got = pareto_filter(pts)
    want = pareto_brute_force(pts)
    assert [p.values for p in got] == [p.values for p in want]
    # idempotent and an antichain under dominance
    assert pareto_filter(got) == got
    for p in got:
        for q in got:
            if p is q:
                continue
            assert not (
                all(a <= b for a, b in zip(q.values, p.values))
                and any(a < b for a, b in zip(q.values, p.values))
            )


@settings(deadline=None, max_examples=20)
@given(
    size=st.integers(1, 800),
    m=st.sampled_from([2, 3, 4]),
    decimals=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=800, m=2, decimals=1, seed=0)
@example(size=800, m=3, decimals=2, seed=1)
@example(size=800, m=4, decimals=2, seed=2)
def test_pareto_matches_brute_force_at_scale(size, m, decimals, seed):
    values = np.round(rng(seed).normal(0, 1, (size, m)), decimals)  # tie-heavy
    pts = _pts(values)
    got = pareto_filter(pts)
    # the same points in input order: each point's theta is its input index
    assert got == pareto_brute_force(pts)
    assert pareto_filter(got) == got


@pytest.mark.parametrize("budget", [1, 50])
def test_pareto_filter_row_chunks_match_brute_force(monkeypatch, budget):
    # budget 1 takes one row per chunk; 50 takes several rows of a small set,
    # with a partial last chunk
    monkeypatch.setattr(metrics, "CHUNK_ELEMENTS", budget)
    g = rng(11)
    for _ in range(100):
        shape = (int(g.integers(1, 60)), int(g.integers(2, 5)))
        pts = _pts(np.round(g.normal(0, 1, shape), 1))
        assert pareto_filter(pts) == pareto_brute_force(pts)


def test_pareto_two_objectives_signed_zeros_and_repeats():
    # -0.0 == 0.0, so (-0.0, 1) repeats (0.0, 1): the first occurrence stays,
    # with its own sign, and later repeats of any point go
    values = [(-0.0, 1.0), (1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (1.0, 0.0),
              (0.5, 0.5), (-0.0, 2.0), (0.0, 1.0), (1.0, -0.0)]
    pts = _pts(values)
    got = pareto_filter(pts)
    assert got == [pts[0], pts[1], pts[3]]
    assert np.signbit(got[0].values[0])
    assert got == pareto_brute_force(pts)
    flipped = _pts([(0.0, 1.0), (-0.0, 1.0)])
    assert pareto_filter(flipped) == flipped[:1]
    assert not np.signbit(pareto_filter(flipped)[0].values[0])


# --- robust frontier ---------------------------------------------------------


def _frontiers(*args, **kwargs):
    """robust_frontier's (theta, values) array pairs as FrontierPoint lists."""
    return [[FrontierPoint(t, tuple(v)) for t, v in zip(theta.tolist(), values.tolist())]
            for theta, values in robust_frontier(*args, **kwargs)]


def test_robust_frontier_returns_theta_and_value_arrays():
    grid = np.linspace(-1.0, 3.0, 41)
    for theta, values in robust_frontier(ToySpec(grid=tuple(grid)), num_draws=20):
        assert theta.dtype == values.dtype == np.float64
        assert theta.ndim == 1 and values.shape == (theta.size, 2)
        assert np.isin(theta, grid).all() and (np.diff(theta) > 0).all()  # grid order


def test_robust_frontier_zero_std_coincides_with_nominal():
    spec = ToySpec(perturbation_std=0.0, grid=tuple(np.linspace(-1, 3, 41)))
    nominal, robust = _frontiers(spec, num_draws=20)
    assert [p.theta for p in nominal] == [p.theta for p in robust]
    for a, b in zip(nominal, robust):
        assert a.values == pytest.approx(b.values, abs=1e-9)


def test_robust_frontier_two_point_grid():
    spec = ToySpec(perturbation_std=0.0, grid=(0.0, 2.0))
    nominal, _ = _frontiers(spec, num_draws=5)
    # each grid point minimizes one objective, so both survive
    assert [p.theta for p in nominal] == [0.0, 2.0]


def test_robust_frontier_perturbation_changes_the_set():
    spec = ToySpec(perturbation_std=0.5, grid=tuple(np.linspace(-1, 3, 81)))
    nominal, robust = _frontiers(spec, num_draws=100, seed=0)
    nom = {p.values for p in nominal}
    rob = {p.values for p in robust}
    assert nom != rob


def test_robust_frontier_matches_bisection_and_brute_force():
    grid = np.linspace(-1.0, 3.0, 401)
    spec = ToySpec(perturbation_std=0.5, grid=tuple(grid))
    nominal, robust = _frontiers(spec, num_draws=200, lam=1.0, seed=0)

    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=2)
    specs = perturbation_ensemble(spec, 200, 0)
    draws = [np.stack([toy_objectives(s, grid)[k] for s in specs]) for k in (0, 1)]
    cloud = []
    for j, theta in enumerate(grid):
        values = [dual_value(ctx, d[:, j], dual_min_bisect(ctx, d[:, j])) for d in draws]
        cloud.append(FrontierPoint(float(theta), tuple(values)))
    want = pareto_brute_force(cloud)
    assert [p.theta for p in robust] == [p.theta for p in want]
    for got, ref in zip(robust, want):
        assert got.values == pytest.approx(ref.values, rel=1e-12, abs=0.0)
    assert nominal == pareto_brute_force(
        [FrontierPoint(float(t), toy_objectives(spec, float(t))) for t in grid]
    )


@pytest.mark.parametrize(
    "points, draws, budget",
    [
        (401, 200, None),  # 401 rows of 200 per objective: 40 a chunk, the 11th one row
        (41, 30, 100),  # three rows per chunk, the last one partial
        (41, 30, 16),  # a budget under one row: one row per chunk
    ],
)
def test_robust_frontier_equals_the_row_by_row_values(monkeypatch, points, draws, budget):
    if budget is not None:
        monkeypatch.setattr(metrics, "CHUNK_ELEMENTS", budget)
    grid = np.linspace(-1.0, 3.0, points)
    spec = ToySpec(perturbation_std=0.5, grid=tuple(grid))
    nominal, robust = _frontiers(spec, num_draws=draws, lam=1.0, seed=3)

    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=2)
    specs = perturbation_ensemble(spec, draws, 3)
    rows = [np.stack([toy_objectives(s, grid)[k] for s in specs]).T for k in (0, 1)]
    cloud = [
        FrontierPoint(float(theta), tuple(
            dual_value(ctx, r[j], exact_dual_min(ctx, r[j])) for r in rows))
        for j, theta in enumerate(grid)
    ]
    assert robust == pareto_brute_force(cloud)  # exact values, not approx
    assert nominal == pareto_brute_force(
        [FrontierPoint(float(t), toy_objectives(spec, float(t))) for t in grid]
    )


@pytest.mark.parametrize("std", [0.0, 0.5])
@pytest.mark.parametrize("points", [41, 401])
@pytest.mark.parametrize("seed", [0, 5])
def test_robust_frontier_is_the_brute_force_frontier_of_the_full_clouds(std, points, seed):
    # every grid point becomes a FrontierPoint here, one row at a time, and
    # the independent O(k^2) filter picks the frontier of each whole cloud
    grid = np.linspace(-1.0, 3.0, points)
    spec = ToySpec(perturbation_std=std, grid=tuple(grid))
    nominal, robust = _frontiers(spec, num_draws=50, lam=1.0, seed=seed)

    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=2)
    specs = perturbation_ensemble(spec, 50, seed)
    nominal_cloud, robust_cloud = [], []
    for t in grid.tolist():
        nominal_cloud.append(FrontierPoint(t, toy_objectives(spec, t)))
        rows = [np.array([toy_objectives(s, t)[k] for s in specs]) for k in (0, 1)]
        robust_cloud.append(FrontierPoint(t, tuple(
            dual_value(ctx, r, exact_dual_min(ctx, r)) for r in rows)))
    assert nominal == pareto_brute_force(nominal_cloud)  # theta and exact values
    assert robust == pareto_brute_force(robust_cloud)


# --- trend windows -----------------------------------------------------------


def test_window_means():
    series = np.concatenate([np.full(20, 10.0), np.zeros(30), np.full(20, 2.0)])
    init, final = window_means(series)
    assert init == 10.0
    assert final == 2.0
    # shorter than a window: both means collapse to the global mean
    init, final = window_means([1.0, 3.0])
    assert init == final == 2.0
    init, final = window_means([5.0])
    assert init == final == 5.0
    with pytest.raises(ValueError, match="empty"):
        window_means([])
