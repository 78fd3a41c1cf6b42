"""Output checks and failure accounting for one workload invocation.

Run workloads (``drmoo run``): an operation is one (block, seed) job. A job
fails when its block's summary status is not ``ok``, its block's final-20
balanced-gradient mean is not below the initial-20 mean, its trace holds a
non-finite value or has the wrong length, or its final ``samples`` differs
from the solver's closed form. With ``strict_ratio`` the double-loop and
double-clip blocks must also reach final/init <= 0.10 (acceptance criterion
7 of the linear preset).

Frontier workload (``drmoo pareto-toy``): the one operation fails when either
frontier is empty, the SVG is missing, or the CSV differs from the frontier
that ``pareto_2d`` (a sort-and-sweep filter, independent of the program's
vectorized one) keeps from the recomputed point clouds.
"""

import csv
import math
from dataclasses import dataclass, field

STRICT_RATIO = 0.10
STRICT_SOLVERS = ("double_loop", "double_clip")
VALUE_RTOL = 1e-9


@dataclass
class Outcome:
    """attempted/failed operations, samples consumed, and why ops failed."""

    attempted: int = 0
    failed: int = 0
    samples: int = 0
    problems: list = field(default_factory=list)

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.samples += other.samples
        self.problems += other.problems


def expected_samples(cfg, m):
    """Final ``samples`` of one job, by the solver's closed form."""
    p = cfg.params
    if cfg.solver == "double_loop":
        per_iter = m * (p["D"] + 3 * p["B"])
    elif cfg.solver == "double_clip":
        per_iter = m * (p["N1"] + p["N2"])
    else:
        per_iter = (2 if cfg.solver == "modo" else 1) * m * p["B"]
    return p["T"] * per_iter


def read_csv_rows(path):
    """(header, rows of strings) of a comma-separated file."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path}: empty file")
    return rows[0], rows[1:]


def check_trace(path, cfg, m):
    """(problem or None, final samples) of one job's trace CSV."""
    try:
        header, rows = read_csv_rows(path)
        values = [float(v) for row in rows for v in row]
        samples = int(rows[-1][header.index("samples")]) if rows else 0
    except (ValueError, IndexError) as exc:
        return f"{path.name}: unreadable ({exc})", 0
    if len(rows) != cfg.params["T"]:
        return f"{path.name}: {len(rows)} rows, expected {cfg.params['T']}", 0
    if not all(math.isfinite(v) for v in values):
        return f"{path.name}: non-finite value", 0
    want = expected_samples(cfg, m)
    if samples != want:
        return f"{path.name}: final samples {samples}, closed form {want}", samples
    return None, samples


def check_run(outdir, blocks, m, strict_ratio=False):
    """Outcome of one ``drmoo run`` invocation whose artifacts are in outdir."""
    out = Outcome()
    summary = {}
    if (outdir / "summary.csv").is_file():
        header, rows = read_csv_rows(outdir / "summary.csv")
        summary = {row[0]: dict(zip(header, row)) for row in rows}
    for cfg in blocks:
        row = summary.get(cfg.name)
        block_problem = None
        if row is None:
            block_problem = f"{cfg.name}: no summary row"
        elif row["status"] != "ok":
            block_problem = f"{cfg.name}: status {row['status']}"
        else:
            init, final = float(row["init20_mean"]), float(row["final20_mean"])
            if not final < init:
                block_problem = f"{cfg.name}: final20 {final} not below init20 {init}"
            elif strict_ratio and cfg.solver in STRICT_SOLVERS and final / init > STRICT_RATIO:
                block_problem = f"{cfg.name}: final/init {final / init:.3f} > {STRICT_RATIO}"
        for seed in cfg.seeds:
            out.attempted += 1
            path = outdir / f"{cfg.name}_seed{seed}.csv"
            problem = block_problem
            if path.is_file():
                trace_problem, samples = check_trace(path, cfg, m)
                out.samples += samples
                problem = problem or trace_problem
            else:
                problem = problem or f"{path.name}: missing"
            if problem:
                out.failed += 1
                out.problems.append(problem)
    return out


def pareto_2d(points):
    """Non-dominated subset of two-objective points, input order preserved,
    with the program's semantics: exact duplicates collapse to their first
    occurrence, and q dominates p when q <= p in both values and q != p.

    After sorting by (f1, f2), every point that could dominate p comes
    before it, so p is kept when its f2 is below every earlier f2. O(k log k),
    where the brute-force oracle is O(k^2).
    """
    first = {}
    for p in points:
        first.setdefault(p.values, p)
    uniq = list(first.values())
    best_f2, keep = math.inf, set()
    for p in sorted(uniq, key=lambda q: q.values):
        if p.values[1] < best_f2:
            keep.add(p.values)
            best_f2 = p.values[1]
    return [p for p in uniq if p.values in keep]


def toy_frontiers(std, draws, lam, grid, seed):
    """The expected frontier rows, recomputed from the program's public value
    functions and filtered by pareto_2d."""
    import numpy as np
    from drmoo.dual import DualContext, dual_value, exact_dual_min
    from drmoo.metrics import FrontierPoint
    from drmoo.problems import ToySpec, perturbation_ensemble, toy_objectives

    base = ToySpec(perturbation_std=std, grid=tuple(grid))
    specs = perturbation_ensemble(base, draws, seed)
    ctx = DualContext(lam=lam, lipschitz_g=1.0, num_objectives=2)
    draws_k = [np.stack([toy_objectives(s, grid)[k] for s in specs]) for k in (0, 1)]
    nominal, robust = [], []
    for j, theta in enumerate(grid):
        nominal.append(FrontierPoint(float(theta), toy_objectives(base, float(theta))))
        values = []
        for d in draws_k:
            column = d[:, j]
            values.append(dual_value(ctx, column, exact_dual_min(ctx, column)))
        robust.append(FrontierPoint(float(theta), tuple(values)))
    return [
        (tag, p.theta, p.values[0], p.values[1])
        for tag, cloud in (("nominal", nominal), ("robust", robust))
        for p in pareto_2d(cloud)
    ]


def same_frontier(got, expected, rel=VALUE_RTOL):
    """Same points (frontier tag and theta exactly) with values within rel.

    The tolerance lets the program evaluate the dual minimizer another way
    (vectorized, closed form) than the recomputation here does."""
    return len(got) == len(expected) and all(
        g[:2] == e[:2] and all(math.isclose(a, b, rel_tol=rel, abs_tol=rel)
                               for a, b in zip(g[2:], e[2:]))
        for g, e in zip(got, expected)
    )


def toy_problem(csv_path, svg_path, expected):
    """Why one ``drmoo pareto-toy`` invocation failed, or None."""
    if not csv_path.is_file() or not svg_path.is_file() or svg_path.stat().st_size == 0:
        return "frontier CSV or SVG missing"
    try:
        header, rows = read_csv_rows(csv_path)
        got = [(r[0], float(r[1]), float(r[2]), float(r[3])) for r in rows]
    except (ValueError, IndexError) as exc:
        return f"unreadable frontier CSV ({exc})"
    if header != ["frontier", "theta", "f1", "f2"]:
        return f"unexpected header {header}"
    tags = {r[0] for r in got}
    if tags != {"nominal", "robust"}:
        return f"empty frontier: CSV has {sorted(tags)}"
    if not same_frontier(got, expected):
        return f"CSV ({len(got)} rows) differs from the brute-force frontier ({len(expected)} rows)"
    return None


def check_toy(csv_path, svg_path, expected):
    """Outcome of one ``drmoo pareto-toy`` invocation (one operation)."""
    problem = toy_problem(csv_path, svg_path, expected)
    return Outcome(attempted=1, failed=int(problem is not None),
                   problems=[problem] if problem else [])
