"""Command line behavior: exit codes, artifacts on disk, SVG emission."""

import os
import re
import time
from concurrent.futures import ProcessPoolExecutor, wait
from pathlib import Path

import numpy as np
import pytest

from drmoo import cli
from drmoo.checks import CheckResult
from drmoo.config import build_solver_config, parse_config
from drmoo.metrics import window_means
from drmoo.problems import WINE_ENV
from drmoo.solvers import SolverDivergence
from drmoo.svg import emit_svg_plot, emit_svg_scatter
from drmoo.trace import atomic_open, read_trace, write_trace


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


TOY_CFG = """
output_dir = out
[run.t1]
problem = toy
solver = double_clip
seeds = 0,1
toy_draws = 40
T = 6
B = 8
"""


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


# --- run ---------------------------------------------------------------------


def test_run_writes_traces_and_summary(workdir, capsys):
    _write(workdir / "exp.cfg", TOY_CFG)
    assert cli.main(["run", "exp.cfg"]) == 0
    out = capsys.readouterr().out
    assert "t1_seed0.csv" in out and "[ok]" in out

    for seed in (0, 1):
        cols = read_trace(workdir / "out" / f"t1_seed{seed}.csv")
        assert cols["iter"].shape == (6,)
        # double clip consumes (N1 + N2) * m samples per iteration
        assert cols["samples"][-1] == 6 * (8 + 8) * 2

    summary = (workdir / "out" / "summary.csv").read_text().splitlines()
    assert summary[0] == cli.SUMMARY_HEADER
    fields = summary[1].split(",")
    assert fields[:5] == ["t1", "toy", "double_clip", "0 1", "ok"]
    assert float(fields[5]) > 0 and fields[8] == str(6 * 16 * 2)


def test_rerun_is_reproducible_modulo_wall_clock(workdir):
    _write(workdir / "exp.cfg", TOY_CFG)
    assert cli.main(["run", "exp.cfg"]) == 0
    first = read_trace(workdir / "out" / "t1_seed0.csv")
    summary1 = (workdir / "out" / "summary.csv").read_bytes()

    assert cli.main(["run", "exp.cfg"]) == 0
    second = read_trace(workdir / "out" / "t1_seed0.csv")
    for name in first:
        if name == "wall_ms":
            continue
        assert np.array_equal(first[name], second[name]), name
    assert (workdir / "out" / "summary.csv").read_bytes() == summary1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_run_records_divergence_without_failing(workdir, capsys):
    _write(
        workdir / "bad.cfg",
        "[run.blowup]\nproblem = toy\nsolver = mgda\nlr = 1e9\nT = 60\nB = 8\n",
    )
    assert cli.main(["run", "bad.cfg"]) == 0
    assert re.search(r"diverged@\d+", capsys.readouterr().out)
    summary = (workdir / "runs" / "summary.csv").read_text().splitlines()[1]
    assert re.search(r"seed0:diverged@\d+", summary)
    # the partial trace is still on disk and nonempty
    assert len(read_trace(workdir / "runs" / "blowup_seed0.csv")["iter"]) >= 1


def test_run_keeps_other_jobs_when_one_raises(workdir, capsys, monkeypatch):
    def broken(cfg, problem, ctx):
        raise RuntimeError("planted failure")

    monkeypatch.setitem(cli._SOLVER_FNS, "mgda", broken)
    _write(
        workdir / "exp.cfg",
        TOY_CFG + "[run.bad]\nproblem = toy\nsolver = mgda\ntoy_draws = 40\nT = 6\nB = 8\n",
    )
    assert cli.main(["run", "exp.cfg"]) == 1
    captured = capsys.readouterr()
    assert "planted failure" in captured.err and "Traceback" in captured.err
    assert "bad_seed0.csv  [error:RuntimeError]" in captured.out
    for seed in (0, 1):
        assert len(read_trace(workdir / "out" / f"t1_seed{seed}.csv")["iter"]) == 6
    assert not (workdir / "out" / "bad_seed0.csv").exists()
    rows = (workdir / "out" / "summary.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[:5] == ["t1", "toy", "double_clip", "0 1", "ok"]
    assert rows[1].split(",")[:5] == ["bad", "toy", "mgda", "0", "seed0:error:RuntimeError"]


POOL_CFG = TOY_CFG + """
[run.m]
problem = toy
solver = mgda
seeds = 3,0,2
toy_draws = 30
T = 25
B = 4

[run.lin]
problem = linear
solver = double_loop
seeds = 1,0
T = 12
D = 3
B = 16

[run.blowup]
problem = toy
solver = modo
lr = 1e9
T = 60
B = 8
"""


def _pool_runs():
    runs = parse_config(POOL_CFG)
    runs[2].output_dir = "lin"  # a second summary
    return runs


def _serial_reference(runs, outdir):
    """The jobs of runs one after another in this process, with the summary
    rows built here; returns {output_dir: summary text}."""
    summaries = {}
    for cfg in runs:
        problem = cli._build_problem(cfg)
        ctx = cli._make_context(cfg, problem)
        inits, finals, samples, bad = [], [], [0], []
        for seed in cfg.seeds:
            try:
                tr = cli._SOLVER_FNS[cfg.solver](build_solver_config(cfg, seed), problem, ctx)
            except SolverDivergence as exc:
                tr = exc.partial_trace
                bad.append(f"seed{seed}:diverged@{exc.iteration}")
            write_trace(tr, outdir / cfg.output_dir / f"{cfg.name}_seed{seed}.csv")
            init, final = window_means(tr.balanced_grad)
            inits.append(init)
            finals.append(final)
            samples.append(int(tr.samples[-1]))
        stats = (np.mean(inits), np.mean(finals), np.std(finals))
        row = [cfg.name, cfg.problem, cfg.solver, " ".join(map(str, cfg.seeds)),
               ";".join(bad) or "ok", *map(cli._fmt, stats), str(max(samples))]
        summaries.setdefault(cfg.output_dir, [cli.SUMMARY_HEADER]).append(",".join(row))
    return {d: "\n".join(rows) + "\n" for d, rows in summaries.items()}


def _without_wall_ms(path):
    return [line.split(",")[:2] + line.split(",")[3:] for line in path.read_text().splitlines()]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_pool_output_matches_serial_reference(workdir):
    echoed = []
    assert cli.run_experiment(_pool_runs(), echo=echoed.append) == 0
    ref = workdir / "ref"
    summaries = _serial_reference(_pool_runs(), ref)

    assert sorted(summaries) == ["lin", "out"]
    for outdir, text in summaries.items():
        assert (workdir / outdir / "summary.csv").read_text() == text
    assert "seed0:diverged@" in summaries["out"]
    traces = sorted(p.relative_to(ref) for p in ref.rglob("*.csv"))
    assert len(traces) == 2 + 3 + 2 + 1
    assert sorted(p.relative_to(workdir) for p in workdir.glob("*/*.csv")) == sorted(
        traces + [Path("out/summary.csv"), Path("lin/summary.csv")]
    )
    for rel in traces:
        assert _without_wall_ms(workdir / rel) == _without_wall_ms(ref / rel), rel
    # echoed in config order, then the summaries
    jobs = [f"{d}/{n}_seed{s}.csv" for d, n, seeds in
            (("out", "t1", "01"), ("out", "m", "302"), ("lin", "lin", "10"), ("out", "blowup", "0"))
            for s in seeds]
    assert [line.split()[0] for line in echoed] == jobs + ["out/summary.csv", "lin/summary.csv"]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two concurrent workers")
def test_run_survives_a_worker_that_dies_mid_write(workdir, capsys, monkeypatch):
    marker = workdir / "writing"

    def stalled_write(trace, path):
        if Path(path).name != "slow_seed0.csv":
            return write_trace(trace, path)
        with atomic_open(path) as fh:
            fh.write("iter,")
            fh.flush()
            marker.touch()
            time.sleep(60)  # ended by the SIGTERM of the broken pool

    def dies(cfg, problem, ctx):
        deadline = time.monotonic() + 60
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        os._exit(3)

    monkeypatch.setattr(cli, "write_trace", stalled_write)
    monkeypatch.setitem(cli._SOLVER_FNS, "mgda", dies)
    cfg = (
        "output_dir = out\n"
        "[run.slow]\nproblem = toy\nsolver = double_clip\ntoy_draws = 40\nT = 6\nB = 8\n"
        "[run.dies]\nproblem = toy\nsolver = mgda\ntoy_draws = 40\nT = 6\nB = 8\n"
        + TOY_CFG.replace("output_dir = out\n", "")
    )
    _write(workdir / "exp.cfg", cfg)
    t0 = time.monotonic()
    assert cli.main(["run", "exp.cfg"]) == 1
    assert time.monotonic() - t0 < 30
    captured = capsys.readouterr()
    assert "out/dies_seed0.csv  [error:BrokenProcessPool]" in captured.out
    assert "BrokenProcessPool" in captured.err
    rows = {r.split(",")[0]: r.split(",")[4]
            for r in (workdir / "out" / "summary.csv").read_text().splitlines()[1:]}
    assert rows["dies"] == "seed0:error:BrokenProcessPool"
    assert rows["slow"] == "seed0:error:BrokenProcessPool"
    # every other job either finished with a complete trace or is an error
    for seed in (0, 1):
        trace = workdir / "out" / f"t1_seed{seed}.csv"
        if f"seed{seed}:error:" not in rows["t1"]:
            assert len(read_trace(trace)["iter"]) == 6
    assert not (workdir / "out" / "slow_seed0.csv").exists()
    assert not (workdir / "out" / "dies_seed0.csv").exists()
    assert not [p for p in workdir.rglob("*") if p.name.endswith(".tmp")]


def test_run_records_jobs_queued_after_a_worker_died(workdir, capsys, monkeypatch):
    class OneJobAtATime(ProcessPoolExecutor):
        # each job ends before the next is queued, so the pool is already
        # broken when the jobs after the dying one are submitted
        def submit(self, fn, *args):
            fut = super().submit(fn, *args)
            wait([fut], timeout=60)
            return fut

    monkeypatch.setattr(cli, "ProcessPoolExecutor", OneJobAtATime)
    monkeypatch.setitem(cli._SOLVER_FNS, "mgda", lambda *a: os._exit(3))
    dies = "\n[run.dies]\nproblem = toy\nsolver = mgda\ntoy_draws = 40\nT = 6\nB = 8\n"
    cfg = TOY_CFG.replace("\n[run.t1]", dies + "[run.t1]") + "seeds = 0,1,2\n"
    cfg = cfg.replace("seeds = 0,1\n", "")
    _write(workdir / "exp.cfg", cfg)
    assert cli.main(["run", "exp.cfg"]) == 1
    assert "[error:BrokenProcessPool]" in capsys.readouterr().out
    rows = (workdir / "out" / "summary.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[:5] == ["dies", "toy", "mgda", "0", "seed0:error:BrokenProcessPool"]
    assert rows[1].split(",")[4] == ";".join(f"seed{s}:error:BrokenProcessPool" for s in (0, 1, 2))
    assert list((workdir / "out").iterdir()) == [workdir / "out" / "summary.csv"]


def test_run_unknown_config_or_preset(workdir, capsys):
    assert cli.main(["run", "spaghetti"]) == 1
    err = capsys.readouterr().err
    assert "no config file or preset named 'spaghetti'" in err
    assert "linear_e1_all" in err


def test_run_bad_config_file(workdir, capsys):
    _write(workdir / "bad.cfg", "[run.a]\nproblem = toy\n")
    assert cli.main(["run", "bad.cfg"]) == 1
    assert "missing required keys: solver" in capsys.readouterr().err


def test_run_wine_without_dataset(workdir, capsys, monkeypatch):
    monkeypatch.delenv(WINE_ENV, raising=False)
    _write(workdir / "w.cfg", "[run.w]\nproblem = wine\nsolver = mgda\nT = 2\n")
    assert cli.main(["run", "w.cfg"]) == 1
    assert "wine dataset not found" in capsys.readouterr().err


# --- gen-data ----------------------------------------------------------------


def test_gen_data_layout(workdir, capsys):
    assert cli.main(["gen-data", "3", "d.csv"]) == 0
    lines = (workdir / "d.csv").read_text().splitlines()
    assert lines[0] == ",".join(
        [f"x{j}" for j in range(1, 11)] + [f"y{i}" for i in range(1, 4)]
    )
    assert len(lines) == 1 + 6000
    assert len(lines[1].split(",")) == 13
    assert "wrote" in capsys.readouterr().out


# --- pareto-toy --------------------------------------------------------------


def test_pareto_toy_artifacts(workdir, capsys):
    rc = cli.main(
        ["pareto-toy", "--std", "0.5", "--draws", "20", "--grid", "0:2:41",
         "--seed", "1", "--out-csv", "p.csv", "--out-svg", "p.svg"]
    )
    assert rc == 0
    lines = (workdir / "p.csv").read_text().splitlines()
    assert lines[0] == "frontier,theta,f1,f2"
    tags = {line.split(",")[0] for line in lines[1:]}
    assert tags == {"nominal", "robust"}
    svg = (workdir / "p.svg").read_text()
    assert svg.startswith("<svg") and "robust" in svg
    assert "frontier" in capsys.readouterr().out


def test_pareto_toy_defaults_without_running():
    args = cli.build_parser().parse_args(["pareto-toy"])
    assert (args.std, args.draws, args.grid) == (0.5, 200, "-1:3:401")
    assert (args.lam, args.seed) == (1.0, 0)
    assert (args.out_csv, args.out_svg) == ("pareto_toy.csv", "pareto_toy.svg")


@pytest.mark.parametrize("grid", ["0-2-5", "2:0:5", "0:2:0", "a:b:c"])
def test_pareto_toy_rejects_bad_grid(workdir, capsys, grid):
    assert cli.main(["pareto-toy", f"--grid={grid}"]) == 1
    assert "grid" in capsys.readouterr().err


# --- check -------------------------------------------------------------------


def test_check_reports_and_exit_codes(capsys, monkeypatch):
    results = [
        CheckResult("alpha", True, "fine"),
        CheckResult("beta", False, "off by 1"),
    ]
    monkeypatch.setattr("drmoo.checks.run_checks", lambda: results)
    assert cli.main(["check"]) == 2
    out = capsys.readouterr().out
    assert "PASS  alpha: fine" in out
    assert "FAIL  beta: off by 1" in out
    assert "1/2 properties hold" in out

    monkeypatch.setattr("drmoo.checks.run_checks", lambda: results[:1])
    assert cli.main(["check"]) == 0
    assert "1/1 properties hold" in capsys.readouterr().out


def test_check_self_test_catches_planted_bug(capsys):
    assert cli.main(["check", "--self-test"]) == 0
    assert "self-test ok" in capsys.readouterr().out


# --- plot --------------------------------------------------------------------


def _run_toy(workdir):
    _write(workdir / "exp.cfg", TOY_CFG)
    assert cli.main(["run", "exp.cfg"]) == 0
    return workdir / "out" / "t1_seed0.csv", workdir / "out" / "t1_seed1.csv"


def test_plot_from_traces(workdir, capsys):
    t0, t1 = _run_toy(workdir)
    capsys.readouterr()
    assert cli.main(["plot", "balanced_grad", "cmp.svg", str(t0), str(t1)]) == 0
    svg = (workdir / "cmp.svg").read_text()
    assert svg.count("<polyline") == 2
    assert "t1_seed0" in svg and "t1_seed1" in svg
    assert "wrote cmp.svg" in capsys.readouterr().out


def test_plot_unknown_column(workdir, capsys):
    t0, _ = _run_toy(workdir)
    capsys.readouterr()
    assert cli.main(["plot", "bogus", "cmp.svg", str(t0)]) == 1
    assert "unknown column: 'bogus'" in capsys.readouterr().err


def test_plot_missing_file(workdir, capsys):
    assert cli.main(["plot", "balanced_grad", "cmp.svg", "nope.csv"]) == 1
    assert capsys.readouterr().err.startswith("error:")


# --- usage errors ------------------------------------------------------------


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["gen-data"], ["run"]])
def test_usage_errors_exit_one(capsys, argv):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


# --- svg emission ------------------------------------------------------------


def _constant_trace(path, value, rows=5):
    header = "iter,samples,wall_ms,loss_1,balanced_grad,surrogate_stat,w_1,eta_1"
    lines = [header]
    for t in range(rows):
        lines.append(f"{t},{10 * (t + 1)},1.0,0.5,{value},{value},1.0,0.0")
    path.write_text("\n".join(lines) + "\n")
    return path


def test_svg_constant_series_is_horizontal(tmp_path):
    tr = _constant_trace(tmp_path / "flat.csv", 0.25)
    out = emit_svg_plot([tr], "balanced_grad", tmp_path / "p.svg")
    svg = out.read_text()
    pts = re.search(r'<polyline points="([^"]+)"', svg).group(1)
    ys = {pair.split(",")[1] for pair in pts.split()}
    assert len(ys) == 1
    assert "flat" in svg  # legend carries the file stem


def test_svg_plot_requires_traces(tmp_path):
    with pytest.raises(ValueError, match="no traces"):
        emit_svg_plot([], "balanced_grad", tmp_path / "p.svg")


def test_svg_scatter_counts_and_errors(tmp_path):
    out = emit_svg_scatter([[(0.0, 1.0), (1.0, 0.0)], [(2.0, 2.0)]],
                           ["nominal", "robust"], tmp_path / "s.svg")
    svg = out.read_text()
    # 3 data points plus one legend marker per set
    assert svg.count("<circle") == 5
    with pytest.raises(ValueError, match="matching nonempty"):
        emit_svg_scatter([[(0.0, 0.0)]], ["a", "b"], tmp_path / "s.svg")
    with pytest.raises(ValueError, match="no points"):
        emit_svg_scatter([[], []], ["a", "b"], tmp_path / "s.svg")
