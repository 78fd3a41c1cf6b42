"""Command line behavior: exit codes, artifacts on disk, SVG emission."""

import re

import numpy as np
import pytest

from drmoo import cli
from drmoo.checks import CheckResult
from drmoo.problems import WINE_ENV
from drmoo.svg import emit_svg_plot, emit_svg_scatter
from drmoo.trace import read_trace


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
