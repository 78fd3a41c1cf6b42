"""Tests of the benchmark's own code: python3 -m pytest benchmarks"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402
from drmoo import cli, dual, solvers  # noqa: E402
from drmoo.config import parse_config  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

TINY_RUN = """
output_dir = {out}

[run.dl]
problem = linear
solver = double_loop
seeds = 0,1
data_seed = 32
lambda = 2.0
T = 100
B = 16
D = 5
gamma = 5e-3
alpha = 5e-3
beta = 5e-5

[run.dc]
problem = linear
solver = double_clip
seeds = 0
data_seed = 32
lambda = 2.0
T = 100
B = 16
"""


def span(sid, start, end, parent=0, name="x", job=0, extra=0):
    return (sid, name, start, end, parent, job, extra)


def test_self_time_subtracts_union_of_children():
    tree = [
        span(1, 0, 100),
        span(2, 10, 30, parent=1),
        span(3, 20, 50, parent=1),  # overlaps 2 (a pool thread): union is 10..50
        span(4, 25, 35, parent=3),
        span(5, 90, 120, parent=1),  # runs past its parent: only 90..100 counts
    ]
    own = spans.self_times(tree)
    assert own == {1: 100 - 40 - 10, 2: 20, 3: 30 - 10, 4: 10, 5: 30}


def test_covered_merges_touching_and_nested_intervals():
    assert spans.covered((0, 10), []) == 0
    assert spans.covered((0, 10), [(0, 5), (5, 10)]) == 10
    assert spans.covered((0, 10), [(2, 8), (3, 4)]) == 6
    assert spans.covered((0, 10), [(-5, 2), (12, 15)]) == 2


def test_metric_names_match_benchmark_json():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in bench["end_to_end"]}
    layer = {m["name"] for m in bench["per_layer"]}
    reported = set(spans.layer_metrics([])) | {"process.cpu_util", "spans.overhead_frac"}
    assert e2e == set(run.END_TO_END_UNITS)
    assert layer == reported
    for name in e2e | layer | {w["name"] for w in bench["workloads"]}:
        assert NAME_RE.fullmatch(name), name
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    for metric in bench["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"], metric
    for metric in bench["end_to_end"]:
        assert run.END_TO_END_UNITS[metric["name"]] == metric["unit"], metric


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny")
    text = TINY_RUN.format(out=out)
    cfg = out / "tiny.cfg"
    cfg.write_text(text)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert cli.main(["run", str(cfg)]) == 0
    finally:
        tracer.restore()
    return out, parse_config(text), tracer.spans


def test_clean_run_passes_checks(tiny_run):
    out, blocks, _ = tiny_run
    outcome = verify.check_run(out, blocks, m=3)
    assert (outcome.attempted, outcome.failed) == (3, 0), outcome.problems
    assert outcome.samples == 2 * 100 * 3 * (5 + 3 * 16) + 100 * 3 * 32


def _planted(tiny_run, tmp_path, edit):
    out, blocks, _ = tiny_run
    for f in out.glob("*.csv"):
        (tmp_path / f.name).write_text(f.read_text())
    path = tmp_path / "dl_seed1.csv"
    lines = path.read_text().splitlines()
    lines[-1] = edit(lines[-1].split(","))
    path.write_text("\n".join(lines) + "\n")
    return verify.check_run(tmp_path, blocks, m=3)


def test_planted_nan_is_a_failed_job(tiny_run, tmp_path):
    outcome = _planted(tiny_run, tmp_path, lambda f: ",".join(f[:-1] + ["nan"]))
    assert (outcome.attempted, outcome.failed) == (3, 1)
    assert "non-finite" in outcome.problems[0]


def test_planted_sample_count_off_by_one_is_a_failed_job(tiny_run, tmp_path):
    outcome = _planted(
        tiny_run, tmp_path, lambda f: ",".join([f[0], str(int(f[1]) + 1)] + f[2:])
    )
    assert (outcome.attempted, outcome.failed) == (3, 1)
    assert "closed form" in outcome.problems[0]


def test_failed_block_status_fails_each_of_its_jobs(tiny_run, tmp_path):
    out, blocks, _ = tiny_run
    for f in out.glob("*.csv"):
        (tmp_path / f.name).write_text(f.read_text().replace(",ok,", ",diverged@3,", 1))
    outcome = verify.check_run(tmp_path, blocks, m=3)
    assert (outcome.attempted, outcome.failed) == (3, 2)


def test_traced_run_counts_and_restores(tiny_run):
    _, _, recorded = tiny_run
    got = spans.layer_metrics(recorded)
    assert got["solvers.double_loop.us_per_iter"] > 0
    assert got["dual.conjugate_deriv.calls"] == 2 * 100 * 3 * 5
    assert got["problems.sample_batch.calls"] == 2 * 100 * 3 * 3 + 100 * 3 * 2
    assert got["simplex.project.calls"] == 3 * 100
    assert got["metrics.surrogate.calls"] == 3 * 100 // solvers.SURROGATE_EVERY
    assert got["trace.write.calls"] == 3
    assert got["dual.exact_dual_min.calls"] == 0
    assert got["cli.mean_concurrency"] > 0.5
    assert cli.run_experiment.__module__ == "drmoo.cli"
    assert not hasattr(solvers.conjugate_deriv, "__wrapped__")
    assert not hasattr(dual.grad_eta, "__wrapped__") and dual.grad_eta.__name__ == "grad_eta"


def test_toy_frontier_check_and_trace(tmp_path):
    grid = "--grid=-1:3:41"
    csv_path, svg_path = tmp_path / "toy.csv", tmp_path / "toy.svg"
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert cli.main(["pareto-toy", grid, "--draws=20", f"--out-csv={csv_path}",
                         f"--out-svg={svg_path}"]) == 0
    finally:
        tracer.restore()
    got = spans.layer_metrics(tracer.spans)
    assert got["dual.exact_dual_min.calls"] == 2 * 41
    assert got["dual.exact_dual_min.grad_eta_per_call"] > 2
    assert got["metrics.pareto_filter.points_in"] == 2 * 41
    assert got["simplex.project.calls"] == 0
    assert all(got[f"solvers.{s}.us_per_iter"] == 0 for s in spans.SOLVERS)

    expected = verify.toy_frontiers(0.5, 20, 1.0, np.linspace(-1, 3, 41), 0)
    assert verify.check_toy(csv_path, svg_path, expected).failed == 0
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:-1]) + "\n")  # drop one robust point
    assert verify.check_toy(csv_path, svg_path, expected).failed == 1


def test_pareto_2d_matches_the_brute_force_oracle():
    from drmoo.checks import pareto_brute_force
    from drmoo.metrics import FrontierPoint

    rng = np.random.default_rng(1)
    for _ in range(200):
        # small integer values, so ties and exact duplicates are common
        values = rng.integers(0, 6, size=(int(rng.integers(1, 30)), 2)).astype(float)
        points = [FrontierPoint(float(i), tuple(v)) for i, v in enumerate(values)]
        assert verify.pareto_2d(points) == pareto_brute_force(points)


def test_host_clock_scales_by_the_median_gauge(monkeypatch):
    lengths = []
    gauges = iter([0.04, 0.06, 0.10, 0.05])

    def fake_gauge(seconds):
        lengths.append(seconds)
        return next(gauges)

    monkeypatch.setattr(run, "gauge", fake_gauge)
    clock = run.HostClock()
    clock.tick(0.1)
    clock.tick(20.0)
    assert clock.scale() == pytest.approx(run.REF_UNIT_S / 0.06)
    clock.tick(1.0)
    assert clock.scale() == pytest.approx(run.REF_UNIT_S / 0.055)
    assert lengths == [run.GAUGE_MIN_S, run.GAUGE_MIN_S, 20.0 * run.GAUGE_SHARE, run.GAUGE_MIN_S]

    plain = run.HostClock(gauged=False)
    plain.tick(3.0)
    assert (plain.scale(), plain.gauges, len(lengths)) == (1.0, [], 4)


def test_refuses_a_directory_without_drmoo_source(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "toy_frontier", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
