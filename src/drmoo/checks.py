"""Self-contained invariant suite behind the `check` CLI subcommand.

Every check is a deterministic, seeded numeric verification of one library
property: oracle equivalences, finite-difference gradient fidelity, the
semi-smoothness and stationarity-surrogate inequalities, the clipping caps,
and trace reproducibility. Each returns a CheckResult with an observed
worst-case tolerance so failures are diagnosable from the report alone.

The finite-difference check accepts an injectable eta-gradient so the
`--self-test` mode can verify that a deliberately sign-flipped gradient is
caught (a mutation smoke test of the harness itself).
"""

import copy
import itertools
from dataclasses import dataclass

import numpy as np

from . import dual, metrics, problems, simplex, solvers, trace


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rng(seed):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def _linear_problem(seed=0, samples=400, dimension=6):
    return problems.gen_linear(
        problems.LinearSpec(dimension=dimension, samples=samples, seed=seed)
    )


def _logistic_problem():
    rng = _rng(0)
    x = rng.standard_normal((300, 5))
    feats = np.column_stack([x, np.ones(300)])
    probs = 1.0 / (1.0 + np.exp(-x @ rng.standard_normal(5)))
    labels = [(rng.random(300) < probs).astype(float) for _ in range(2)]
    return problems.MultiTaskProblem(feats, labels, problems.LOSS_BCE)


def simplex_projection_oracle(v):
    """Exhaustive active-set QP solution of min ||w - v||^2 over the simplex.

    Tries every nonempty support set: on support S the stationary point is
    w_i = v_i - tau_S with tau_S = (sum_S v_i - 1)/|S|; feasibility requires
    w >= 0 on S and the KKT condition v_i - tau_S <= 0 off S. Exponential in
    m, usable only for small m; exists purely to cross-check the
    sort-threshold projection.
    """
    v = np.asarray(v, dtype=float)
    m = v.size
    best, best_d = None, np.inf
    for r in range(1, m + 1):
        for s_set in itertools.combinations(range(m), r):
            tau = (v[list(s_set)].sum() - 1.0) / r
            w = np.zeros(m)
            w[list(s_set)] = v[list(s_set)] - tau
            if np.any(w[list(s_set)] < -1e-12):
                continue
            off = [i for i in range(m) if i not in s_set]
            if off and np.any(v[off] - tau > 1e-12):
                continue
            d = float(np.sum((w - v) ** 2))
            if d < best_d:
                best, best_d = w, d
    return best


def pareto_brute_force(points):
    """O(k^2) pure-python non-dominated filter used as the test oracle."""
    uniq = []
    seen = set()
    for p in points:
        if p.values not in seen:
            seen.add(p.values)
            uniq.append(p)
    keep = []
    for p in uniq:
        dominated = False
        for q in uniq:
            if q is p:
                continue
            if all(a <= b for a, b in zip(q.values, p.values)) and any(
                a < b for a, b in zip(q.values, p.values)
            ):
                dominated = True
                break
        if not dominated:
            keep.append(p)
    return keep


def dual_min_bisect(ctx, losses, tol=1e-10):
    """The minimizer eta* of dual_value over eta, to |grad_eta| <= tol, by
    bisection: the independent oracle for the closed-form exact_dual_min.

    grad_eta is nondecreasing in eta, so a sign bracket plus bisection is
    exact. The bracket [min(l) - 2*lambda, max(l) + 2*lambda] holds the root
    for the chi-square conjugate, in floats too: its ends round to at most
    min(l) and at least max(l), so every t = (l - eta)/lambda is >= 0 at the
    left end (grad <= 0) and <= 0 at the right end (grad >= 0).
    """
    losses = dual._as_batch(losses)
    lo = float(losses.min()) - 2.0 * ctx.lam
    hi = float(losses.max()) + 2.0 * ctx.lam
    if not dual.grad_eta(ctx, losses, lo) <= 0.0 <= dual.grad_eta(ctx, losses, hi):
        raise RuntimeError("dual minimizer bracket failed")

    mid = 0.5 * (lo + hi)
    for _ in range(500):
        g = dual.grad_eta(ctx, losses, mid)
        if abs(g) <= tol:
            return mid
        if g < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    if abs(dual.grad_eta(ctx, losses, mid)) <= tol:
        return mid
    raise RuntimeError("dual minimizer bisection did not converge")


def check_conjugate() -> CheckResult:
    spots = [
        (dual.conjugate_value(0.0), 0.0),
        (dual.conjugate_value(-2.0), -1.0),
        (dual.conjugate_value(2.0), 3.0),
        (dual.conjugate_deriv(0.0), 1.0),
        (dual.conjugate_deriv(-3.0), 0.0),
        (dual.conjugate_deriv(2.0), 2.0),
    ]
    worst = max(abs(a - b) for a, b in spots)
    rng = _rng(11)
    a = rng.normal(0, 5, 1000)
    b = rng.normal(0, 5, 1000)
    lip = np.abs(dual.conjugate_deriv(a) - dual.conjugate_deriv(b))
    slack = float((dual.SMOOTHNESS_M * np.abs(a - b) - lip).min())
    nonneg = float(dual.conjugate_deriv(rng.normal(0, 5, 1000)).min())
    ok = worst == 0.0 and slack >= -1e-12 and nonneg >= 0.0
    return CheckResult(
        "conjugate-values-and-smoothness", ok,
        f"spot err {worst:.1e}, Lipschitz slack {slack:.1e}, min deriv {nonneg:.1e}",
    )


def check_simplex_oracle() -> CheckResult:
    rng = _rng(12)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 6))
        v = rng.normal(0, 2, m)
        worst = max(worst, float(np.abs(
            simplex.project_simplex(v) - simplex_projection_oracle(v)).max()))
    return CheckResult("simplex-projection-oracle", worst <= 1e-8, f"max dev {worst:.2e}")


def check_simplex_idempotent() -> CheckResult:
    rng = _rng(13)
    worst = 0.0
    for _ in range(200):
        v = rng.normal(0, 3, int(rng.integers(1, 9)))
        w = simplex.project_simplex(v)
        simplex.validate_preference(w)
        worst = max(worst, float(np.abs(simplex.project_simplex(w) - w).max()))
    return CheckResult("simplex-idempotence", worst <= 1e-12, f"max dev {worst:.2e}")


def check_dual_minimizer() -> CheckResult:
    rng = _rng(14)
    worst_g, worst_gap, worst_dev = 0.0, np.inf, 0.0
    for _ in range(50):
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        ctx = dual.DualContext(lam=lam, lipschitz_g=1.0, num_objectives=1)
        losses = rng.normal(0, 3, int(rng.integers(1, 51)))
        eta_star = dual.exact_dual_min(ctx, losses)
        # grad_eta's slope through the root is >= 1/(2*lam*B), so this tol puts
        # the bisection point within 2*lam*B*tol <= 2e-10 of the root
        eta_ref = dual_min_bisect(ctx, losses, tol=1e-12)
        worst_dev = max(worst_dev, abs(eta_star - eta_ref) / (1.0 + abs(eta_star)))
        worst_g = max(worst_g, abs(dual.grad_eta(ctx, losses, eta_star)))
        v_star = dual.dual_value(ctx, losses, eta_star)
        probes = eta_star + rng.normal(0, 2, 100)
        gap = min(dual.dual_value(ctx, losses, p) for p in probes) - v_star
        worst_gap = min(worst_gap, gap)
    ok = worst_dev <= 1e-9 and worst_g <= 1e-10 and worst_gap >= -1e-12
    return CheckResult(
        "dual-minimizer-optimality", ok,
        f"max rel dev from bisection {worst_dev:.2e}, max |grad| {worst_g:.2e}, "
        f"min probe gap {worst_gap:.2e}",
    )


def _fd_check(problem, seed, grad_eta_fn):
    """Worst relative FD error of (grad_theta, grad_eta) on a fixed batch."""
    rng = _rng(seed)
    ctx = dual.DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=problem.num_objectives)
    n = problem.dimension
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        i = int(rng.integers(problem.num_objectives))
        idx = rng.integers(0, problem.num_samples, size=32)
        for _ in range(200):
            theta = rng.normal(0, 0.5, n)
            eta = float(rng.normal(0, 1))
            losses, grads = problem.per_sample(i, theta, idx)
            if np.all(np.abs((losses - eta) / ctx.lam + 2.0) > 0.1):
                break
        else:
            continue
        g_eta = grad_eta_fn(ctx, losses, eta)
        fd_eta = (
            dual.dual_value(ctx, losses, eta + h) - dual.dual_value(ctx, losses, eta - h)
        ) / (2 * h)
        worst = max(worst, abs(g_eta - fd_eta) / max(1.0, abs(fd_eta)))
        g_theta = dual.grad_theta(ctx, grads, losses, eta)
        for k in range(n):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd = (
                dual.dual_value(ctx, problem.per_sample(i, tp, idx)[0], eta)
                - dual.dual_value(ctx, problem.per_sample(i, tm, idx)[0], eta)
            ) / (2 * h)
            worst = max(worst, abs(g_theta[k] - fd) / max(1.0, abs(fd)))
    return worst


def check_gradient_fd_linear(grad_eta_fn=None) -> CheckResult:
    worst = _fd_check(_linear_problem(), 15, grad_eta_fn or dual.grad_eta)
    return CheckResult("gradient-fd-linear", worst <= 1e-5, f"max rel err {worst:.2e}")


def check_gradient_fd_logistic() -> CheckResult:
    worst = _fd_check(_logistic_problem(), 16, dual.grad_eta)
    return CheckResult("gradient-fd-logistic", worst <= 1e-5, f"max rel err {worst:.2e}")


def check_rescaled_fd() -> CheckResult:
    problem = _linear_problem(seed=1)
    rng = _rng(17)
    m, n = problem.num_objectives, problem.dimension
    ctx = dual.DualContext(lam=1.0, lipschitz_g=2.0, num_objectives=m)
    scale = ctx.eta_scale
    h = 1e-6
    worst = 0.0
    for _ in range(20):
        idx = [rng.integers(0, problem.num_samples, size=32) for i in range(m)]
        theta = rng.normal(0, 0.5, n)
        eta = rng.normal(0, 0.3, m)
        batches = [problem.per_sample(i, theta, idx[i]) for i in range(m)]
        theta_grads, eta_grads = dual.rescaled_grads(ctx, batches, theta, eta)
        for i in range(m):
            losses = batches[i][0]
            up = dual.dual_value(ctx, losses, scale * (eta[i] + h))
            dn = dual.dual_value(ctx, losses, scale * (eta[i] - h))
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(eta_grads[i] - fd) / max(1.0, abs(fd)))
        k = int(rng.integers(n))
        tp, tm = theta.copy(), theta.copy()
        tp[k] += h
        tm[k] -= h
        for i in range(m):
            up = dual.dual_value(ctx, problem.per_sample(i, tp, idx[i])[0], scale * eta[i])
            dn = dual.dual_value(ctx, problem.per_sample(i, tm, idx[i])[0], scale * eta[i])
            fd = (up - dn) / (2 * h)
            worst = max(worst, abs(theta_grads[k, i] - fd) / max(1.0, abs(fd)))
    return CheckResult("rescaled-gradient-fd", worst <= 1e-5, f"max rel err {worst:.2e}")


def box_constants(problem, radius):
    """Analytic per-sample G and L for squared error on the box |theta|_inf <= radius.

    |x.theta - y| <= ||x||_1 * radius + |y| =: r, so ||grad|| <= 2 r ||x||
    and the per-sample Hessian 2 x x^T has norm 2 ||x||^2.
    """
    x = problem.features
    norms = np.linalg.norm(x, axis=1)
    r = np.abs(x).sum(axis=1) * radius + np.abs(problem.labels)  # (m, N)
    return float((2.0 * r * norms).max()), float((2.0 * norms ** 2).max())


def check_semi_smoothness() -> CheckResult:
    problem = _linear_problem(seed=2, samples=200, dimension=4)
    radius = 1.5
    g, l = box_constants(problem, radius)
    ctx = dual.DualContext(lam=1.0, lipschitz_g=g, num_objectives=3)
    l0 = g * g * dual.SMOOTHNESS_M / ctx.lam + l
    rng = _rng(18)
    slack = np.inf
    for _ in range(100):
        t1 = rng.uniform(-radius, radius, problem.dimension)
        t2 = rng.uniform(-radius, radius, problem.dimension)
        for i in range(problem.num_objectives):
            losses1, grads1 = problem.per_sample(i, t1)
            eta_star = dual.exact_dual_min(ctx, losses1)
            phi_grad = dual.grad_theta(ctx, grads1, losses1, eta_star)
            losses2, grads2 = problem.per_sample(i, t2)
            moved = dual.grad_theta(ctx, grads2, losses2, eta_star)
            lhs = float(np.linalg.norm(phi_grad - moved))
            slack = min(slack, l0 * float(np.linalg.norm(t1 - t2)) - lhs)
    return CheckResult("dual-gradient-semi-smoothness", slack >= -1e-8, f"min slack {slack:.2e}")


def check_stationarity_chain(trials=100) -> CheckResult:
    problem = _linear_problem(seed=3, samples=200, dimension=4)
    m = problem.num_objectives
    rng = _rng(19)
    slack_upper = slack_lower = np.inf
    for _ in range(trials):
        theta = rng.normal(0, 0.5, problem.dimension)
        eta = rng.normal(0, 1.0, m)
        w = simplex.project_simplex(rng.normal(0, 1, m))
        evals = [problem.per_sample(i, theta) for i in range(m)]
        # G must dominate the per-sample gradients at this theta for the
        # surrogate to be a certified upper bound
        g_here = problems.estimate_lipschitz(problem, theta)
        ctx = dual.DualContext(lam=1.0, lipschitz_g=g_here, num_objectives=m)
        cols = np.column_stack([
            dual.grad_theta(ctx, gr, lo, eta[i]) for i, (lo, gr) in enumerate(evals)
        ])
        egr = np.array([dual.grad_eta(ctx, lo, eta[i]) for i, (lo, _) in enumerate(evals)])
        sur = metrics.surrogate_stationarity(cols, egr, w, g_here)
        _, phi_jac = dual.phi_oracle(ctx, problem, theta)
        slack_upper = min(slack_upper, sur - float(np.linalg.norm(phi_jac @ w)))
        # stacked rescaled-gradient norm at the matching rescaled dual point
        r_theta, r_eta = dual.rescaled_grads(ctx, evals, theta, eta / ctx.eta_scale)
        stacked = np.sqrt(
            float(np.linalg.norm(r_theta @ w)) ** 2 + float(np.sum((r_eta * w) ** 2))
        )
        rhs = float(np.linalg.norm(cols @ w)) + g_here * float(np.linalg.norm(egr * w))
        slack_lower = min(slack_lower, np.sqrt(2.0) * stacked - rhs)
    ok = slack_upper >= -1e-8 and slack_lower >= -1e-8
    return CheckResult(
        "stationarity-surrogate-chain", ok,
        f"upper slack {slack_upper:.2e}, rescaled slack {slack_lower:.2e}",
    )


def check_gradient_coupling(trials=200) -> CheckResult:
    problem = _linear_problem(seed=4, samples=200, dimension=4)
    m = problem.num_objectives
    rng = _rng(20)
    slack = np.inf
    for _ in range(trials):
        theta = rng.normal(0, 0.4, problem.dimension)
        eta = rng.normal(0, 0.5, m)
        evals = [problem.per_sample(i, theta) for i in range(m)]
        g_here = problems.estimate_lipschitz(problem, theta)
        ctx = dual.DualContext(lam=1.0, lipschitz_g=g_here, num_objectives=m)
        theta_grads, eta_grads = dual.rescaled_grads(ctx, evals, theta, eta)
        for i in range(m):
            slack = min(
                slack, g_here + abs(eta_grads[i]) - float(np.linalg.norm(theta_grads[:, i]))
            )
    return CheckResult("rescaled-gradient-coupling", slack >= -1e-8, f"min slack {slack:.2e}")


def check_bias_bound() -> CheckResult:
    """|grad_theta(theta, eta) - phi'(theta)| <= G * |grad_eta(theta, eta)|."""
    problem = _linear_problem(seed=5, samples=200, dimension=4)
    m = problem.num_objectives
    ctx = dual.DualContext(
        lam=1.0, lipschitz_g=problems.estimate_lipschitz(problem), num_objectives=m
    )
    rng = _rng(21)
    slack = np.inf
    for _ in range(100):
        theta = rng.normal(0, 0.4, problem.dimension)
        eta = rng.normal(0, 1.0, m)
        g_here = problems.estimate_lipschitz(problem, theta)
        _, phi_jac = dual.phi_oracle(ctx, problem, theta)
        for i in range(m):
            losses, grads = problem.per_sample(i, theta)
            bias = float(np.linalg.norm(
                dual.grad_theta(ctx, grads, losses, eta[i]) - phi_jac[:, i]))
            slack = min(slack, g_here * abs(dual.grad_eta(ctx, losses, eta[i])) - bias)
    return CheckResult("theta-gradient-bias-bound", slack >= -1e-8, f"min slack {slack:.2e}")


def check_pareto_oracle() -> CheckResult:
    rng = _rng(22)
    for _ in range(200):
        k, m = int(rng.integers(1, 40)), int(rng.integers(2, 5))
        vals = np.round(rng.normal(0, 1, (k, m)), 2)  # rounding forces ties
        pts = [metrics.FrontierPoint(float(j), tuple(vals[j])) for j in range(k)]
        if metrics.pareto_filter(pts) != pareto_brute_force(pts):
            return CheckResult("pareto-filter-oracle", False, "mismatch against brute force")
    return CheckResult("pareto-filter-oracle", True, "200 random sets agree")


def check_clip_caps() -> CheckResult:
    """double_clip's steps, measured from outside, obey both branches of its
    clipped mins, ||d theta_t|| <= gamma min(c2, c1 ||X_t w_t||) and ||d eta_t||
    <= gamma min(f2, f1 ||Z_t o w_t||), and every w is on the simplex. A tap on
    sample_batch copies theta_t and the Z losses as sampled, which dual.grad_eta
    turns into Z_t; ||X_t w_t|| is balanced_grad."""
    problem = _linear_problem(seed=6, samples=200, dimension=4)
    m = problem.num_objectives
    ctx = dual.DualContext(lam=1.0, lipschitz_g=problems.estimate_lipschitz(problem),
                           num_objectives=m)
    cfg = solvers.DoubleClipConfig(gamma=1e-2, beta=1e-2, rho=1e-5, c1=0.5, c2=0.1,
                                   f1=0.5, f2=0.1, N1=32, N2=32, T=60, seeds=(0,))
    tap, taken = copy.copy(problem), []

    def sample_batch(theta, idx=None):
        batch = problem.sample_batch(theta, idx)
        taken.append((theta[0].copy(), batch[0][0].copy()))
        return batch

    tap.sample_batch = sample_batch
    tr, = solvers.run_double_clip(cfg, tap, ctx)
    thetas, z_losses = zip(*taken[::2])  # each step samples its Z batch first
    etas, s = np.vstack([np.zeros(m), tr.eta]), ctx.eta_scale  # tr.eta[t] is eta_{t+1}
    zw = [np.linalg.norm([s * dual.grad_eta(ctx, z[i], s * eta[i]) * w[i] for i in range(m)])
          for z, eta, w in zip(z_losses, etas, tr.w)]
    dtheta = np.linalg.norm(np.diff(thetas, axis=0), axis=1)
    deta = np.linalg.norm(np.diff(etas, axis=0), axis=1)
    worst = max(
        float((dtheta - cfg.gamma * np.minimum(cfg.c2, cfg.c1 * tr.balanced_grad[:-1])).max()),
        float((deta - cfg.gamma * np.minimum(cfg.f2, cfg.f1 * np.array(zw))).max()),
    )
    on_simplex = all(
        abs(tr.w[t].sum() - 1.0) <= 1e-12 and tr.w[t].min() >= -1e-12 for t in range(len(tr))
    )
    ok = worst <= 1e-12 and on_simplex
    return CheckResult("clip-step-caps", ok, f"max cap excess {worst:.2e}, simplex {on_simplex}")


def check_trace_reproducibility() -> CheckResult:
    import tempfile
    from pathlib import Path

    problem = _linear_problem(seed=7, samples=100, dimension=3)
    ctx = dual.DualContext(
        lam=1.0, lipschitz_g=problems.estimate_lipschitz(problem), num_objectives=3
    )
    cfg = solvers.DoubleLoopConfig(alpha=1e-4, beta=1e-4, gamma=5e-3, rho=1e-5,
                                   T=30, D=5, B=16, seeds=(3,))
    with tempfile.TemporaryDirectory() as td:
        paths = [Path(td) / f"r{k}.csv" for k in range(2)]
        for p in paths:
            trace.write_trace(solvers.run_double_loop(cfg, problem, ctx)[0], p)
        a = trace.read_trace(paths[0])
        b = trace.read_trace(paths[1])
    same = all(np.array_equal(a[k], b[k]) for k in a if k != "wall_ms")
    return CheckResult("trace-reproducibility", same, "all columns identical (wall_ms exempt)")


def run_checks():
    """The full suite, each check at its own fixed seeds and sizes (the
    mutation self-test calls check_gradient_fd_linear on its own)."""
    return [
        check_conjugate(),
        check_simplex_oracle(),
        check_simplex_idempotent(),
        check_dual_minimizer(),
        check_gradient_fd_linear(),
        check_gradient_fd_logistic(),
        check_rescaled_fd(),
        check_semi_smoothness(),
        check_stationarity_chain(),
        check_gradient_coupling(),
        check_bias_bound(),
        check_pareto_oracle(),
        check_clip_caps(),
        check_trace_reproducibility(),
    ]
