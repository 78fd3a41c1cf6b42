"""End-to-end acceptance gate.

Eleven numbered criteria, each printing exactly one PASS/FAIL line with the
observed worst-case figures and runtime, then asserting. Where a stated
runtime budget applies it is enforced, not just reported. The checks module
supplies only the independent oracles (exhaustive simplex QP, brute-force
Pareto filter, analytic box constants); problem instances and tolerances are
restated here so a regression in the library cannot hide behind a matching
regression in its own check suite.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from drmoo.checks import (
    box_constants,
    check_gradient_coupling,
    check_stationarity_chain,
    pareto_brute_force,
    simplex_projection_oracle,
)
from drmoo.cli import run_experiment
from drmoo.config import load_preset, parse_config
from drmoo.dual import (
    SMOOTHNESS_M,
    DualContext,
    dual_value,
    exact_dual_min,
    grad_eta,
    grad_theta,
)
from drmoo.metrics import FrontierPoint, pareto_filter, robust_frontier
from drmoo.problems import (
    LOSS_BCE,
    LOSS_SQUARED,
    LinearSpec,
    MultiTaskProblem,
    ToySpec,
    estimate_lipschitz,
    gen_linear,
    resolve_wine_path,
    synthesize_wine_csv,
)
from drmoo.simplex import project_simplex, validate_preference
from drmoo.solvers import DoubleClipConfig, run_double_clip


def _report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _quiet(*_args, **_kwargs):
    pass


# --- 1: simplex projection against the exhaustive QP oracle ------------------


def test_criterion_01_simplex_projection():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        v = rng.normal(0.0, 3.0, m) * float(rng.choice([0.1, 1.0, 10.0]))
        dev = float(np.abs(project_simplex(v) - simplex_projection_oracle(v)).max())
        worst = max(worst, dev)
    el = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-8 and el < 1.0,
        f"1000 projections (m<=5) vs exhaustive QP, max dev {worst:.2e} "
        f"(tol 1e-8), {el:.2f}s (budget 1s)",
    )


# --- 2: closed dual minimizer is stationary and globally minimal -------------


def test_criterion_02_dual_minimizer():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    lams = [0.5, 1.0, 2.0]
    worst_grad, worst_gap = 0.0, np.inf
    for k in range(200):
        ctx = DualContext(lam=lams[k % 3], lipschitz_g=1.0, num_objectives=1)
        losses = rng.normal(0.0, 3.0, int(rng.integers(1, 51)))
        eta_star = exact_dual_min(ctx, losses)
        worst_grad = max(worst_grad, abs(grad_eta(ctx, losses, eta_star)))
        v_star = dual_value(ctx, losses, eta_star)
        probes = eta_star + rng.normal(0.0, 2.0, 100)
        gap = min(dual_value(ctx, losses, p) for p in probes) - v_star
        worst_gap = min(worst_gap, gap)
    el = time.perf_counter() - t0
    _report(
        2,
        worst_grad <= 1e-10 and worst_gap >= -1e-12 and el < 1.0,
        f"200 vectors (sizes 1-50, lambda in {{0.5,1,2}}): max |grad_eta| "
        f"{worst_grad:.2e} (tol 1e-10), min gap to 100 probes {worst_gap:.2e}, "
        f"{el:.2f}s (budget 1s)",
    )


# --- 3: analytic gradients match central finite differences ------------------


def _logistic_instance(seed=0, samples=300, dimension=5):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((samples, dimension))
    feats = np.column_stack([x, np.ones(samples)])
    probs = 1.0 / (1.0 + np.exp(-x @ rng.standard_normal(dimension)))
    labels = [(rng.random(samples) < probs).astype(float) for _ in range(2)]
    return MultiTaskProblem(feats, labels, LOSS_BCE)


def _fd_sweep(problem, seed, points=100, h=1e-6):
    """Worst relative FD error over `points` kink-avoiding (theta, eta)."""
    rng = np.random.default_rng(seed)
    ctx = DualContext(lam=1.0, lipschitz_g=1.0, num_objectives=problem.num_objectives)
    n = problem.dimension
    worst = 0.0
    accepted = 0
    while accepted < points:
        i = int(rng.integers(problem.num_objectives))
        idx = rng.integers(0, problem.num_samples, size=32)
        for _ in range(200):
            theta = rng.normal(0.0, 0.5, n)
            eta = float(rng.normal(0.0, 1.0))
            losses, grads = problem.per_sample(i, theta, idx)
            # keep clear of the conjugate kink at (loss - eta)/lam = -2
            if np.all(np.abs((losses - eta) / ctx.lam + 2.0) > 0.1):
                break
        else:
            continue
        accepted += 1
        fd = (dual_value(ctx, losses, eta + h) - dual_value(ctx, losses, eta - h)) / (2 * h)
        worst = max(worst, abs(grad_eta(ctx, losses, eta) - fd) / max(1.0, abs(fd)))
        g_theta = grad_theta(ctx, grads, losses, eta)
        for k in range(n):
            tp, tm = theta.copy(), theta.copy()
            tp[k] += h
            tm[k] -= h
            fd = (
                dual_value(ctx, problem.per_sample(i, tp, idx)[0], eta)
                - dual_value(ctx, problem.per_sample(i, tm, idx)[0], eta)
            ) / (2 * h)
            worst = max(worst, abs(g_theta[k] - fd) / max(1.0, abs(fd)))
    return worst


def test_criterion_03_finite_difference_gradients():
    t0 = time.perf_counter()
    worst_lin = _fd_sweep(gen_linear(LinearSpec(dimension=6, samples=400, seed=0)), 103)
    worst_log = _fd_sweep(_logistic_instance(), 203)
    el = time.perf_counter() - t0
    _report(
        3,
        max(worst_lin, worst_log) <= 1e-5 and el < 5.0,
        f"100 kink-avoiding points per problem: max rel err linear "
        f"{worst_lin:.2e}, logistic {worst_log:.2e} (tol 1e-5), "
        f"{el:.2f}s (budget 5s)",
    )


# --- 4: semi-smoothness constant of the dual gradient ------------------------


def test_criterion_04_semi_smoothness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    feats = [rng.standard_normal((150, 4)) for _ in range(2)]
    labels = [rng.normal(0.0, 2.0, 150) for _ in range(2)]
    # each task has its own rows, so each is a one-objective problem
    tasks = [MultiTaskProblem(x, [y], LOSS_SQUARED) for x, y in zip(feats, labels)]
    radius = 1.5
    g, lip = np.max([box_constants(task, radius) for task in tasks], axis=0)
    ctx = DualContext(lam=1.0, lipschitz_g=g, num_objectives=2)
    l0 = g * g * SMOOTHNESS_M / ctx.lam + lip
    slack = np.inf
    for _ in range(500):
        t1 = rng.uniform(-radius, radius, 4)
        t2 = rng.uniform(-radius, radius, 4)
        dist = float(np.linalg.norm(t1 - t2))
        for task in tasks:
            losses1, grads1 = task.per_sample(0, t1)
            eta_star = exact_dual_min(ctx, losses1)
            losses2, grads2 = task.per_sample(0, t2)
            moved = (
                grad_theta(ctx, grads1, losses1, eta_star)
                - grad_theta(ctx, grads2, losses2, eta_star)
            )
            slack = min(slack, l0 * dist - float(np.linalg.norm(moved)))
    el = time.perf_counter() - t0
    _report(
        4,
        slack >= -1e-8 and el < 5.0,
        f"2-task quadratic on |theta|<= {radius}, analytic G={g:.2f} L={lip:.2f}, "
        f"L0=G^2 M/lambda + L: min slack over 500 pairs {slack:.2e} "
        f"(tol -1e-8), {el:.2f}s (budget 5s)",
    )


# --- 5: stationarity surrogate chain -----------------------------------------


def test_criterion_05_stationarity_chain():
    t0 = time.perf_counter()
    res = check_stationarity_chain(trials=500)
    el = time.perf_counter() - t0
    _report(
        5,
        res.passed and el < 5.0,
        f"500 random (theta, eta, w): {res.detail}, {el:.2f}s (budget 5s)",
    )


# --- 6: rescaled parameter gradient bounded via the eta gradient -------------


def test_criterion_06_gradient_coupling():
    t0 = time.perf_counter()
    res = check_gradient_coupling(trials=500)
    el = time.perf_counter() - t0
    _report(
        6,
        res.passed and el < 5.0,
        f"500 points, empirical G: {res.detail}, {el:.2f}s (budget 5s)",
    )


# --- 7: synthetic regression benchmark ---------------------------------------


def _summary_rows(outdir):
    lines = (Path(outdir) / "summary.csv").read_text().splitlines()
    rows = {}
    for line in lines[1:]:
        f = line.split(",")
        rows[f[0]] = {
            "seeds": f[3], "status": f[4],
            "init": float(f[5]), "final": float(f[6]),
        }
    return rows


def test_criterion_07_linear_regression_benchmark(tmp_path):
    t0 = time.perf_counter()
    runs = parse_config(load_preset("linear_e1_all"))
    for cfg in runs:
        cfg.output_dir = str(tmp_path / "linear")
    run_experiment(runs, echo=_quiet)
    rows = _summary_rows(tmp_path / "linear")
    el = time.perf_counter() - t0

    ok = all(r["seeds"] == "0 1 2 3 4" and r["status"] == "ok" for r in rows.values())
    ratios = {}
    for name in ("doubleloop", "doubleclip"):
        ratios[name] = rows[name]["final"] / rows[name]["init"]
        ok = ok and ratios[name] <= 0.10
        ok = ok and rows[name]["final"] <= rows["mgda"]["final"]
    ok = ok and el < 60.0
    _report(
        7,
        ok,
        "published hyperparameters, 5 seeds: final/init balanced-gradient "
        f"ratio double_loop {ratios['doubleloop']:.3f}, double_clip "
        f"{ratios['doubleclip']:.3f} (need <= 0.10), finals "
        f"{rows['doubleloop']['final']:.3f}/{rows['doubleclip']['final']:.3f} vs "
        f"mgda {rows['mgda']['final']:.3f}, {el:.1f}s (budget 60s)",
    )


# --- 8: wine quality benchmark -----------------------------------------------


def test_criterion_08_wine_benchmark(tmp_path):
    t0 = time.perf_counter()
    runs = parse_config(load_preset("wine_e2_doubleloop"))
    runs += parse_config(load_preset("wine_e2_doubleclip"))
    dl, dc = runs[0].params, runs[1].params
    assert (dl["T"], dl["D"]) == (1000, 15)
    assert (dl["gamma"], dl["alpha"], dl["beta"], dl["rho"]) == (5e-3, 1e-3, 6e-4, 1e-6)
    assert (dc["T"], dc["gamma"], dc["rho"]) == (1000, 1e-2, 1e-5)
    assert (dc["c1"], dc["f1"], dc["c2"], dc["f2"]) == (0.5, 0.5, 0.1, 0.1)

    real = resolve_wine_path(None)
    if real is None:
        wine = str(synthesize_wine_csv(tmp_path / "wine.csv", seed=0))
        source = "synthesized stand-in dataset"
    else:
        wine, source = str(real), f"dataset at {real}"
    outdir = tmp_path / "wine_runs"
    for cfg in runs:
        cfg.wine_path = wine
        cfg.output_dir = str(outdir)
    run_experiment(runs, echo=_quiet)
    rows = _summary_rows(outdir)

    finite = True
    from drmoo.trace import read_trace

    for name in ("doubleloop", "doubleclip"):
        for seed in (0, 1, 2):
            cols = read_trace(outdir / f"{name}_seed{seed}.csv")
            finite = finite and all(np.isfinite(v).all() for v in cols.values())
    el = time.perf_counter() - t0

    ok = finite
    for name in ("doubleloop", "doubleclip"):
        ok = ok and rows[name]["status"] == "ok" and rows[name]["seeds"] == "0 1 2"
        ok = ok and rows[name]["final"] < rows[name]["init"]
    ok = ok and el < 60.0
    _report(
        8,
        ok,
        f"{source}, T=1000, 3 seeds: traces finite, balanced gradient "
        f"double_loop {rows['doubleloop']['init']:.3f}->{rows['doubleloop']['final']:.3f}, "
        f"double_clip {rows['doubleclip']['init']:.3f}->{rows['doubleclip']['final']:.3f}, "
        f"{el:.1f}s (budget 60s)",
    )


# --- 9: double-clip step caps observed from outside --------------------------


class _ThetaTap:
    """Forwards to a problem while recording each theta handed to sampling."""

    def __init__(self, inner):
        self._inner = inner
        self.thetas = []

    def sample_batch(self, theta, idx=None):
        self.thetas.append(np.array(theta, copy=True))
        return self._inner.sample_batch(theta, idx)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_criterion_09_double_clip_step_caps():
    problem = gen_linear(LinearSpec(dimension=4, samples=120, seed=11))
    tap = _ThetaTap(problem)
    ctx = DualContext(
        lam=1.0, lipschitz_g=estimate_lipschitz(problem), num_objectives=3
    )
    cfg = DoubleClipConfig(gamma=1e-2, beta=5e-4, rho=1e-5, c1=0.5, c2=0.1,
                           f1=0.5, f2=0.1, N1=16, N2=16, T=80, seeds=(5,))
    tr, = run_double_clip(cfg, tap, ctx)

    m = problem.num_objectives
    # one stacked sample for the Z block and one for the X block per step
    assert len(tap.thetas) == 2 * cfg.T
    groups = [tap.thetas[2 * t: 2 * (t + 1)] for t in range(cfg.T)]
    same_within = all(np.array_equal(g[0], gk) for g in groups for gk in g)
    observed = np.array([g[0][0] for g in groups])  # (T, n) thetas entering each step
    dtheta = np.linalg.norm(np.diff(observed, axis=0), axis=1)
    deta = np.linalg.norm(np.diff(np.vstack([np.zeros(m), tr.eta]), axis=0), axis=1)
    worst_theta = float((dtheta - cfg.gamma * cfg.c2).max())
    worst_eta = float((deta - cfg.gamma * cfg.f2).max())
    on_simplex = True
    try:
        for t in range(len(tr)):
            validate_preference(tr.w[t], tol=1e-12)
    except ValueError:
        on_simplex = False
    ok = same_within and worst_theta <= 1e-12 and worst_eta <= 1e-12 and on_simplex
    _report(
        9,
        ok,
        f"80 iterations observed via sampling proxy: max ||dtheta|| excess over "
        f"gamma*c2 {worst_theta:.1e}, max ||deta|| excess over gamma*f2 "
        f"{worst_eta:.1e} (tol 1e-12), every w on the simplex: {on_simplex}",
    )


# --- 10: Pareto filter oracle and the toy frontier shift ---------------------


def test_criterion_10_pareto_and_toy_frontier():
    t0 = time.perf_counter()
    rng = np.random.default_rng(110)
    mismatches = 0
    for _ in range(1000):
        k = int(rng.integers(1, 40))
        m = int(rng.integers(2, 5))
        vals = np.round(rng.normal(0.0, 1.0, (k, m)), 2)  # rounding forces ties
        pts = [FrontierPoint(float(j), tuple(vals[j])) for j in range(k)]
        got = [p.values for p in pareto_filter(pts)]
        want = [p.values for p in pareto_brute_force(pts)]
        mismatches += got != want
    def same(nom, rob, tol):
        # membership by theta, values to within tol: the closed-form dual
        # minimizer gives a constant sample set back exactly, but the
        # criterion asks only for agreement to rounding, not bitwise
        (nom_theta, nom_values), (rob_theta, rob_values) = nom, rob
        if not np.array_equal(nom_theta, rob_theta):
            return False
        return bool((np.abs(nom_values - rob_values) <= tol).all())

    grid = np.linspace(-1.0, 3.0, 81)
    nom0, rob0 = robust_frontier(
        ToySpec(perturbation_std=0.0, grid=tuple(grid)), num_draws=50, lam=1.0, seed=0
    )
    coincide = same(nom0, rob0, 1e-9)
    nom5, rob5 = robust_frontier(
        ToySpec(perturbation_std=0.5, grid=tuple(grid)), num_draws=100, lam=1.0, seed=0
    )
    differ = not same(nom5, rob5, 1e-6)
    el = time.perf_counter() - t0
    _report(
        10,
        mismatches == 0 and coincide and differ,
        f"1000 random sets vs brute force: {mismatches} mismatches; toy frontier "
        f"std=0 coincides: {coincide}, std=0.5 differs: {differ}, {el:.1f}s",
    )


# --- 11: byte-level reproducibility of written traces ------------------------


REPRO_CFG = """
[run.dl]
problem = linear
solver = double_loop
seeds = 0,1
data_seed = 1
T = 40
D = 5
B = 16
[run.dc]
problem = linear
solver = double_clip
seeds = 0,1
data_seed = 1
T = 40
B = 16
[run.mgda]
problem = linear
solver = mgda
seeds = 0,1
data_seed = 1
T = 40
B = 16
[run.modo]
problem = linear
solver = modo
seeds = 0,1
data_seed = 1
T = 40
B = 16
"""


def _strip_wall(text):
    out = []
    for line in text.splitlines():
        f = line.split(",")
        del f[2]  # wall_ms, the only measured (non-deterministic) column
        out.append(",".join(f))
    return "\n".join(out)


def test_criterion_11_trace_reproducibility(tmp_path):
    t0 = time.perf_counter()
    names = []
    for tag in ("a", "b"):
        runs = parse_config(REPRO_CFG)
        for cfg in runs:
            cfg.output_dir = str(tmp_path / tag)
        run_experiment(runs, echo=_quiet)
        names = sorted(p.name for p in (tmp_path / tag).glob("*_seed*.csv"))
    assert len(names) == 8
    identical = all(
        _strip_wall((tmp_path / "a" / n).read_text())
        == _strip_wall((tmp_path / "b" / n).read_text())
        for n in names
    )
    summaries_equal = (
        (tmp_path / "a" / "summary.csv").read_bytes()
        == (tmp_path / "b" / "summary.csv").read_bytes()
    )
    el = time.perf_counter() - t0
    _report(
        11,
        identical and summaries_equal,
        f"two runs of 4 solvers x 2 seeds: all 8 trace CSVs byte-identical "
        f"outside the wall_ms column, summaries byte-identical, {el:.1f}s",
    )
