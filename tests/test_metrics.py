"""Stationarity measures, Pareto filtering, and the robust toy frontier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmoo.checks import pareto_brute_force
from drmoo.dual import DualContext, ObjectiveJacobian, exact_dual_min, grad_eta
from drmoo.metrics import (
    FrontierPoint,
    balanced_grad_norm,
    pareto_filter,
    robust_frontier,
    surrogate_stationarity,
    window_means,
)
from drmoo.problems import ToySpec

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
        # tol tight enough that G * |grad_eta| stays below the comparison tol
        eta_star = exact_dual_min(ctx, losses, tol=1e-12)
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


# --- robust frontier ---------------------------------------------------------


def test_robust_frontier_zero_std_coincides_with_nominal():
    spec = ToySpec(grid=tuple(np.linspace(-1, 3, 41)))
    nominal, robust = robust_frontier(spec, perturbation_std=0.0, num_draws=20)
    assert [p.theta for p in nominal] == [p.theta for p in robust]
    for a, b in zip(nominal, robust):
        assert a.values == pytest.approx(b.values, abs=1e-9)


def test_robust_frontier_two_point_grid():
    spec = ToySpec(grid=(0.0, 2.0))
    nominal, _ = robust_frontier(spec, perturbation_std=0.0, num_draws=5)
    # each grid point minimizes one objective, so both survive
    assert [p.theta for p in nominal] == [0.0, 2.0]


def test_robust_frontier_perturbation_changes_the_set():
    spec = ToySpec(grid=tuple(np.linspace(-1, 3, 81)))
    nominal, robust = robust_frontier(spec, perturbation_std=0.5, num_draws=100, seed=0)
    nom = {p.values for p in nominal}
    rob = {p.values for p in robust}
    assert nom != rob


def test_robust_frontier_validation():
    spec = ToySpec()
    with pytest.raises(ValueError, match="nonnegative"):
        robust_frontier(spec, perturbation_std=-1.0)
    with pytest.raises(ValueError, match="grid"):
        robust_frontier(spec, grid=[])


# --- trend windows -----------------------------------------------------------


def test_window_means():
    series = np.concatenate([np.full(20, 10.0), np.zeros(30), np.full(20, 2.0)])
    init, final = window_means(series)
    assert init == 10.0
    assert final == 2.0
    # shorter than a window: both means collapse to the global mean
    init, final = window_means([1.0, 3.0], window=20)
    assert init == final == 2.0
    init, final = window_means([5.0], window=3)
    assert init == final == 5.0
    with pytest.raises(ValueError, match="empty"):
        window_means([])
