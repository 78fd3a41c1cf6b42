"""The drmoo names that the benchmark harness under benchmarks/ binds.

benchmarks/spans.py patches functions where drmoo's own code looks them up,
and benchmarks/verify.py recomputes each job's sample count from a run
block's params. Both are read here, unchanged, so a change to drmoo that
breaks them fails these tests rather than only the benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from drmoo import cli, dual, metrics, solvers
from drmoo.config import build_solver_config, load_preset, parse_config
from drmoo.solvers import samples_per_step

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def bench(monkeypatch):
    """Import benchmarks/ modules without writing bytecode beside them."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import spans
    import verify

    return spans, verify


def _bindings():
    """{(namespace, name): object} of every name spans.install may patch."""
    namespaces = {"cli": vars(cli), "cli._SOLVER_FNS": cli._SOLVER_FNS,
                  "solvers": vars(solvers), "metrics": vars(metrics), "dual": vars(dual)}
    return {(ns, k): v for ns, names in namespaces.items() for k, v in names.items()}


def _changed(before):
    now = _bindings()
    return {key for key, v in before.items() if now.get(key) is not v}


def test_span_install_patches_and_restores_every_name(bench):
    spans, _ = bench
    before = _bindings()
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        patched = _changed(before)
    finally:
        tracer.restore()
    assert {("cli", "run_experiment"), ("cli._SOLVER_FNS", "mgda"),
            ("solvers", "project_simplex"), ("dual", "grad_eta"),
            ("metrics", "exact_dual_min")} <= patched
    assert _changed(before) == set()  # each patched name is the original object again


@pytest.mark.parametrize("preset", ["linear_e1_all", "wine_e2_all"])
def test_verify_sample_counts_match_the_solver_configs(bench, preset):
    _, verify = bench
    runs = parse_config(load_preset(preset))
    assert runs
    for cfg in runs:
        solver_cfg = build_solver_config(cfg, cfg.seeds)
        want = solver_cfg.T * samples_per_step(cfg.solver, solver_cfg, 3)
        assert verify.expected_samples(cfg, 3) == want, cfg.name


def test_verify_accepts_a_pareto_toy_run(bench, tmp_path):
    # verify.toy_frontiers recomputes the frontier through exact_dual_min on
    # column views, so this runs the benchmark's toy output check in tier-1
    _, verify = bench
    out_csv, out_svg = tmp_path / "toy.csv", tmp_path / "toy.svg"
    assert cli.main(["pareto-toy", "--grid=-1:3:41", "--draws=30", "--std=0.5", "--lambda=1.0",
                     "--seed=3", f"--out-csv={out_csv}", f"--out-svg={out_svg}"]) == 0
    expected = verify.toy_frontiers(0.5, 30, 1.0, np.linspace(-1.0, 3.0, 41), 3)
    assert verify.toy_problem(out_csv, out_svg, expected) is None
