"""The drmoo names that the benchmark harness under benchmarks/ binds.

benchmarks/spans.py patches functions where drmoo's own code looks them up,
and benchmarks/verify.py recomputes each job's sample count from a run
block's params. Both are read here, unchanged, so a change to drmoo that
breaks them fails these tests rather than only the benchmark run.
"""

import sys
from pathlib import Path

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
