"""Command line behavior: exit codes, artifacts on disk, SVG emission."""

import os
import re
import signal
import subprocess
import sys
import time
import types
import warnings
from concurrent.futures import ProcessPoolExecutor, wait
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmoo import checks, cli, dual, metrics, problems, simplex
from drmoo.checks import CheckResult
from drmoo.config import build_solver_config, parse_config
from drmoo.dual import DualContext
from drmoo.metrics import window_means
from drmoo.problems import (
    WINE_DEFAULT_PATH,
    WINE_ENV,
    estimate_lipschitz,
    resolve_wine_path,
    synthesize_wine_csv,
    toy_problem,
)
from drmoo.svg import HEIGHT, WIDTH, emit_svg_plot, emit_svg_scatter
from drmoo.trace import read_trace, write_trace


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
        ctx = DualContext(cfg.lam, estimate_lipschitz(problem), problem.num_objectives)
        inits, finals, samples, bad = [], [], [0], []
        for seed in cfg.seeds:
            tr, = cli._SOLVER_FNS[cfg.solver](build_solver_config(cfg, (seed,)), problem, ctx)
            if tr.diverged_at is not None:
                bad.append(f"seed{seed}:diverged@{tr.diverged_at}")
            write_trace(tr, outdir / cfg.output_dir / f"{cfg.name}_seed{seed}.csv")
            init, final = window_means(tr.balanced_grad)
            inits.append(init)
            finals.append(final)
            samples.append(int(tr.samples[-1]))
        with np.errstate(invalid="ignore"):  # as in run_experiment
            stats = (np.mean(inits), np.mean(finals), np.std(finals))
        row = [cfg.name, cfg.problem, cfg.solver, " ".join(map(str, cfg.seeds)),
               ";".join(bad) or "ok", *(format(v, ".17g") for v in stats), str(max(samples))]
        summaries.setdefault(cfg.output_dir, [cli.SUMMARY_HEADER]).append(",".join(row))
    return {d: "\n".join(rows) + "\n" for d, rows in summaries.items()}


def _without_wall_ms(path):
    return [line.split(",")[:2] + line.split(",")[3:] for line in path.read_text().splitlines()]


ONE_BLOCK_CFG = """
output_dir = one
[run.dl]
problem = linear
solver = double_loop
seeds = 4,0,3,1,2
T = 12
D = 3
B = 16
alpha = 0.06
"""


def test_pool_output_matches_serial_reference(workdir, monkeypatch):
    # two CPUs: four blocks run one job each, submitted by the samples they
    # consume (seeds x T x samples per step): lin 2*12*153, blowup 60*32,
    # m 3*25*8, t1 2*6*32
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    submitted = []
    submit = cli._submit
    monkeypatch.setattr(cli, "_submit",
                        lambda pool, job: submitted.append((job[0], job[1].seeds))
                        or submit(pool, job))
    echoed = []
    assert cli.run_experiment(_pool_runs(), echo=echoed.append) == 0
    assert submitted == [(2, (1, 0)), (3, (0,)), (1, (3, 0, 2)), (0, (0, 1))]
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

    # five seeds of one block: two lockstep groups, 4,0,3 and 1,2, whose
    # files equal running each seed alone; alpha = 0.06 diverges three
    # seeds, at two different iterations, while the other two run on
    submitted.clear()
    echoed.clear()
    assert cli.run_experiment(parse_config(ONE_BLOCK_CFG), echo=echoed.append) == 0
    assert submitted == [(0, (4, 0, 3)), (0, (1, 2))]
    summaries = _serial_reference(parse_config(ONE_BLOCK_CFG), ref)
    assert (workdir / "one" / "summary.csv").read_text() == summaries["one"]
    status = summaries["one"].splitlines()[1].split(",")[4]
    assert len(set(re.findall(r"diverged@(\d+)", status))) == 2
    assert status.count("diverged@") == 3
    for seed in (4, 0, 3, 1, 2):
        rel = Path("one") / f"dl_seed{seed}.csv"
        assert _without_wall_ms(workdir / rel) == _without_wall_ms(ref / rel), rel
    assert [line.split()[0] for line in echoed] == [
        f"one/dl_seed{s}.csv" for s in (4, 0, 3, 1, 2)] + ["one/summary.csv"]


def test_each_distinct_problem_is_built_once(workdir, monkeypatch):
    built, estimated = [], []

    def counted(fn, log):
        return lambda arg: log.append(arg) or fn(arg)

    monkeypatch.setattr(cli, "gen_linear", counted(cli.gen_linear, built))
    monkeypatch.setattr(cli, "load_wine_tasks", counted(cli.load_wine_tasks, built))
    monkeypatch.setattr(cli, "toy_problem",
                        lambda spec, **kw: built.append("toy") or toy_problem(spec, **kw))
    monkeypatch.setattr(cli, "estimate_lipschitz", counted(cli.estimate_lipschitz, estimated))
    synthesize_wine_csv(workdir / "w.csv", rows=60)
    block = "[run.{}]\nproblem = {}\nsolver = mgda\nT = 3\nB = 4\n"
    text = "output_dir = out\nwine_path = w.csv\n" + "".join([
        block.format("lin_a", "linear"),
        block.format("lin_b", "linear") + "lambda = 2.0\n",
        block.format("lin_seed1", "linear") + "data_seed = 1\n",
        block.format("wine_a", "wine"),
        block.format("wine_b", "wine") + "g = 3.0\n",
        block.format("wine_c", "wine"),
        block.format("toy_a", "toy") + "toy_draws = 20\n",
        block.format("toy_b", "toy") + "toy_draws = 20\nlambda = 2.0\n",
    ])
    assert cli.run_experiment(parse_config(text), echo=lambda line: None) == 0
    # two linear data seeds, one wine file and one toy pair, in config order;
    # one g = auto estimate per problem, whatever lambda its blocks use
    assert [getattr(a, "seed", a) for a in built] == [0, 1, Path("w.csv"), "toy"]
    assert len({id(p) for p in estimated}) == len(estimated) == 4
    summary = (workdir / "out" / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[4] for row in summary] == ["ok"] * 8


def test_jobs_start_longest_first_and_report_in_config_order(workdir, monkeypatch):
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    submitted = []
    submit = cli._submit
    monkeypatch.setattr(cli, "_submit",
                        lambda pool, job: submitted.append((job[0], job[1].seeds))
                        or submit(pool, job))
    # samples per job on the toy pair (m = 2): mgda 2*B per step, modo 4*B
    block = "[run.{}]\nproblem = toy\nsolver = {}\ntoy_draws = 20\nT = {}\nB = 4\n"
    text = "output_dir = out\n" + "".join([
        block.format("short", "mgda", 5),  # 40
        block.format("tie_a", "mgda", 10),  # 80
        block.format("long", "modo", 10),  # 160
        block.format("tie_b", "modo", 5),  # 80
    ])
    echoed = []
    assert cli.run_experiment(parse_config(text), echo=echoed.append) == 0
    # ties keep config order
    assert submitted == [(2, (0,)), (1, (0,)), (3, (0,)), (0, (0,))]
    assert echoed == [f"out/{name}_seed0.csv  [ok]" for name in ("short", "tie_a", "long", "tie_b")
                      ] + ["out/summary.csv  [4 run(s)]"]
    rows = (workdir / "out" / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["short", "tie_a", "long", "tie_b"]


# the independent references that tests and `drmoo check` compare the fast
# layers against; `drmoo run` and `drmoo pareto-toy` must call none of them
REFERENCES = (
    dual.conjugate_value, dual.conjugate_deriv, dual.dual_value, dual.grad_eta,
    dual.grad_theta, dual.rescaled_grads, dual.phi_oracle, dual.exact_dual_min,
    metrics.surrogate_stationarity, metrics.balanced_grad_norm, metrics.pareto_filter,
    problems.perturb_toy, problems.perturbation_ensemble, simplex.validate_preference,
)


def test_the_run_path_calls_no_reference_function(workdir, monkeypatch):
    def planted(name):
        def raises(*args, **kwargs):
            raise AssertionError(f"run path called reference {name}")
        return raises

    names = {fn: fn.__name__ for fn in REFERENCES}
    patched = set()
    for modname, module in list(sys.modules.items()):
        if modname.split(".")[0] != "drmoo":
            continue
        for attr, value in list(vars(module).items()):
            if isinstance(value, types.FunctionType) and value in names:
                monkeypatch.setattr(module, attr, planted(names[value]))
                patched.add(f"{modname}.{attr}")
    monkeypatch.setattr(problems.MultiTaskProblem, "per_sample", planted("per_sample"))
    # the re-exports are patched too, not only the defining modules
    assert {"drmoo.cli.grad_eta", "drmoo.solvers.dual_value", "drmoo.solvers.grad_theta",
            "drmoo.solvers.surrogate_stationarity", "drmoo.metrics.exact_dual_min",
            "drmoo.metrics.perturbation_ensemble"} <= patched

    synthesize_wine_csv(workdir / "w.csv", rows=60)
    block = "[run.{0}_{1}]\nproblem = {0}\nsolver = {1}\nseeds = 0,1\nT = 3\n"
    text = "output_dir = out\nwine_path = w.csv\n" + "".join(
        block.format(problem, solver) + ("toy_draws = 20\n" if problem == "toy" else "")
        for problem in ("linear", "wine", "toy") for solver in cli.SOLVERS)
    runs = parse_config(text)
    assert len(runs) == 12
    assert cli.run_experiment(runs, echo=lambda line: None) == 0
    for cfg in runs:
        for seed in (0, 1):
            assert len(read_trace(workdir / "out" / f"{cfg.name}_seed{seed}.csv")["iter"]) == 3
    assert cli.main(["pareto-toy", "--grid=-1:3:41", "--draws=20",
                     "--out-csv=toy.csv", "--out-svg=toy.svg"]) == 0
    assert (workdir / "toy.csv").exists() and (workdir / "toy.svg").exists()


def test_a_group_that_raises_marks_each_of_its_seeds(workdir, capsys, monkeypatch):
    def broken(cfg, problem, ctx):
        raise RuntimeError(f"planted failure in group {cfg.seeds}")

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setitem(cli._SOLVER_FNS, "mgda", broken)
    _write(workdir / "exp.cfg", "[run.bad]\nproblem = toy\nsolver = mgda\nseeds = 0,1,2\nT = 6\n")
    assert cli.main(["run", "exp.cfg"]) == 1
    captured = capsys.readouterr()
    # one traceback per group
    assert captured.err.count("Traceback") == 2
    assert "group (0, 1)" in captured.err and "group (2,)" in captured.err
    for seed in (0, 1, 2):
        assert f"bad_seed{seed}.csv  [error:RuntimeError]" in captured.out
    row = (workdir / "runs" / "summary.csv").read_text().splitlines()[1].split(",")
    assert row[4] == ";".join(f"seed{s}:error:RuntimeError" for s in (0, 1, 2))
    assert not list((workdir / "runs").glob("bad_seed*.csv"))


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two concurrent workers")
def test_run_survives_a_worker_that_dies_beside_a_running_job(workdir, capsys, monkeypatch):
    marker = workdir / "computing"

    def stalls(cfg, problem, ctx):
        marker.touch()
        time.sleep(60)  # ended by the SIGTERM of the broken pool

    def dies(cfg, problem, ctx):
        deadline = time.monotonic() + 60
        while not marker.exists() and time.monotonic() < deadline:
            time.sleep(0.005)
        os._exit(3)

    monkeypatch.setitem(cli._SOLVER_FNS, "modo", stalls)
    monkeypatch.setitem(cli._SOLVER_FNS, "mgda", dies)
    cfg = (
        "output_dir = out\n"
        "[run.slow]\nproblem = toy\nsolver = modo\ntoy_draws = 40\nT = 6\nB = 8\n"
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


def test_a_failed_trace_write_marks_its_block(workdir, capsys, monkeypatch):
    def refuses(trace, path):
        if Path(path).name.startswith("bad_"):
            raise PermissionError(f"planted: cannot write {path}")
        return write_trace(trace, path)

    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0, 1})  # one job per block
    monkeypatch.setattr(cli, "write_trace", refuses)
    bad = "[run.bad]\nproblem = toy\nsolver = mgda\nseeds = 0,1\ntoy_draws = 40\nT = 6\nB = 8\n"
    _write(workdir / "exp.cfg", TOY_CFG + bad)
    assert cli.main(["run", "exp.cfg"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["PermissionError: planted: cannot write out/bad_seed0.csv"]
    for seed in (0, 1):
        assert f"out/bad_seed{seed}.csv  [error:PermissionError]" in captured.out
        assert len(read_trace(workdir / "out" / f"t1_seed{seed}.csv")["iter"]) == 6
    assert not list((workdir / "out").glob("bad_seed*.csv"))
    rows = (workdir / "out" / "summary.csv").read_text().splitlines()[1:]
    assert rows[0].split(",")[:5] == ["t1", "toy", "double_clip", "0 1", "ok"]
    assert rows[1].split(",")[:5] == [
        "bad", "toy", "mgda", "0 1", "seed0:error:PermissionError;seed1:error:PermissionError"]


@pytest.mark.parametrize("signum, status, line", [
    (signal.SIGINT, 130, "error: interrupted\n"),
    (signal.SIGTERM, 143, "error: terminated\n"),
], ids=["SIGINT", "SIGTERM"])
def test_a_signal_to_the_run_ends_it_in_one_line(workdir, signum, status, line):
    # quick draws the most samples, so it is submitted first and ends at once;
    # slow's 200,000 one-sample steps are still running when the signal comes
    _write(workdir / "exp.cfg", (
        "output_dir = out\n"
        "[run.quick]\nproblem = toy\nsolver = mgda\ntoy_draws = 20\nT = 5\nB = 100000\n"
        "[run.slow]\nproblem = toy\nsolver = mgda\ntoy_draws = 20\nT = 200000\nB = 1\n"))
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "drmoo", "run", "exp.cfg"], env=dict(os.environ, PYTHONPATH=path),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
        # a shell may start the tests with SIGINT ignored, which exec keeps
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 60
        while not (workdir / "out" / "quick_seed0.csv").exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        os.killpg(proc.pid, signum)  # the run's process group: the parent and its workers
        t0 = time.monotonic()
        out, err = proc.communicate(timeout=60)
        assert time.monotonic() - t0 < 10  # slow is stopped, not waited for
        assert (proc.returncode, out, err) == (status, "", line)
        with pytest.raises(ProcessLookupError):  # no worker outlives the run
            os.killpg(proc.pid, 0)
    finally:  # nothing of the run outlives the test
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    assert len(read_trace(workdir / "out" / "quick_seed0.csv")["iter"]) == 5
    assert sorted(p.name for p in workdir.rglob("*")) == ["exp.cfg", "out", "quick_seed0.csv"]


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
    # T = 100 makes the dying job the costliest, so it is submitted first
    dies = "\n[run.dies]\nproblem = toy\nsolver = mgda\ntoy_draws = 40\nT = 100\nB = 8\n"
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
    assert capsys.readouterr().err == (
        "error: [run.w]: wine dataset not found; set wine_path in the config, export "
        f"{WINE_ENV}, or place the CSV at data/winequality-white.csv\n")


def _bad_byte_on_line(path, lineno):
    """Put a Latin-1 degree sign, not UTF-8, inside line lineno of path."""
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1][:2] + b"\xb0" + lines[lineno - 1][2:]
    path.write_bytes(b"".join(lines))


def test_a_wine_block_without_wine_path_reads_the_default_file(workdir, monkeypatch):
    monkeypatch.delenv(WINE_ENV, raising=False)
    (workdir / "data").mkdir()
    synthesize_wine_csv(workdir / WINE_DEFAULT_PATH, rows=60)
    assert resolve_wine_path() == WINE_DEFAULT_PATH
    block = "[run.w]\nproblem = wine\nsolver = mgda\nT = 2\nseeds = 0\n"
    _write(workdir / "exp.cfg", "output_dir = out\n" + block)
    assert cli.main(["run", "exp.cfg"]) == 0
    # the same run as with the path given
    _write(workdir / "given.cfg", f"output_dir = given\nwine_path = {WINE_DEFAULT_PATH}\n" + block)
    assert cli.main(["run", "given.cfg"]) == 0
    got, given = (read_trace(workdir / d / "w_seed0.csv") for d in ("out", "given"))
    assert len(got["iter"]) == 2
    assert all(np.array_equal(got[k], given[k]) for k in got if k != "wall_ms")


# each file is over 8 KiB with the bad byte past its first 8 KiB, except the
# config, so the line comes from the byte's offset in the file, not the chunk
@pytest.mark.parametrize("kind, lineno", [("config", 7), ("wine", 250), ("trace", 380)])
def test_a_byte_that_is_not_utf8_fails_with_its_line(workdir, capsys, kind, lineno):
    argv = ["run", "exp.cfg"]
    if kind == "config":
        bad = _write(workdir / "exp.cfg", TOY_CFG)
    elif kind == "wine":
        _write(workdir / "exp.cfg", "wine_path = w.csv\n[run.w]\nproblem = wine\nsolver = mgda\n")
        bad = synthesize_wine_csv(workdir / "w.csv", rows=300)
    else:
        bad = _constant_trace(workdir / "t.csv", 1.0, rows=400)
        argv = ["plot", "balanced_grad", "p.svg", "t.csv"]
    assert bad.stat().st_size > 8192 or kind == "config"
    _bad_byte_on_line(bad, lineno)
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert f"{bad.name}:{lineno}: not valid UTF-8" in err
    assert not (workdir / "out").exists() and not (workdir / "p.svg").exists()


# the first line is a global key, or a section header
@pytest.mark.parametrize("text", [TOY_CFG.lstrip(),
                                  TOY_CFG.replace("output_dir = out\n", "").lstrip()])
def test_run_skips_a_byte_order_mark(workdir, text):
    (workdir / "exp.cfg").write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert cli.main(["run", "exp.cfg"]) == 0
    outdir = "out" if "output_dir" in text else "runs"
    assert len(read_trace(workdir / outdir / "t1_seed1.csv")["iter"]) == 6


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


def test_pareto_toy_overflowing_std_is_one_error_line(workdir, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["pareto-toy", "--std=1e200", "--out-csv=p.csv", "--out-svg=p.svg"]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert re.fullmatch(r"error: toy losses overflow at perturbation std 1e\+200 .*\n", err)
    assert list(workdir.iterdir()) == []  # no CSV, no SVG


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


def test_check_runs_the_real_suite(capsys):
    assert cli.main(["check"]) == 0
    assert capsys.readouterr().out.endswith("\n14/14 properties hold\n")


def test_check_self_test_catches_planted_bug(capsys):
    assert cli.main(["check", "--self-test"]) == 0
    assert "self-test ok" in capsys.readouterr().out


def test_importing_the_cli_leaves_the_check_suite_out():
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, drmoo.cli; print('drmoo.checks' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


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
    # a non-finite iter is refused the same way, naming its file, before any SVG
    for value in ("nan", "inf"):
        trace = _constant_trace(workdir / "a.csv", 0.25, rows=2)
        trace.write_text(trace.read_text().replace("\n1,", f"\n{value},"))
        assert cli.main(["plot", "balanced_grad", "p.svg", str(trace)]) == 1
        assert capsys.readouterr().err == f"error: non-finite iter (file {trace})\n"
        assert not (workdir / "p.svg").exists()


def test_plot_missing_file(workdir, capsys):
    assert cli.main(["plot", "balanced_grad", "cmp.svg", "nope.csv"]) == 1
    assert capsys.readouterr().err.startswith("error:")


# --- usage errors ------------------------------------------------------------


@pytest.mark.parametrize("argv", [[], ["frobnicate"], ["gen-data"], ["run"]])
def test_usage_errors_exit_one(capsys, argv):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv, path",
    [
        (["gen-data", "0", "/"], "/"),  # no name to build a temp file from
        (["gen-data", "0", "."], "."),
        (["gen-data", "0", "d"], "d"),  # an existing directory
        # neither file of a pareto-toy pair is written when either path is bad
        (["pareto-toy", "--grid=0:2:5", "--draws=5", "--out-csv=d", "--out-svg=p.svg"], "d"),
        (["pareto-toy", "--grid=0:2:5", "--draws=5", "--out-csv=p.csv", "--out-svg=d"], "d"),
    ],
)
def test_an_output_path_that_is_a_directory_is_one_error_line(workdir, capsys, argv, path):
    (workdir / "d").mkdir()
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: output path {path!r} is a directory\n"
    assert list(workdir.rglob("*")) == [workdir / "d"]  # no temp file, no other artifact


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


def test_svg_plot_draws_non_finite_values_on_the_canvas(tmp_path):
    # a diverged run's partial trace holds inf; a browser drops a polyline
    # with a non-finite coordinate. The least positive value 5e-324 has a
    # half that rounds to 0, which has no log.
    diverged = _constant_trace(tmp_path / "diverged.csv", 0.25)
    tiny = _constant_trace(tmp_path / "tiny.csv", 5e-324, rows=2)
    for tr, row, values in ((diverged, 3, ("inf", "nan")), (tiny, 2, ("0.001",))):
        lines = tr.read_text().splitlines()
        old = lines[1].split(",")[4]
        for k, value in enumerate(values):
            lines[row + k] = lines[row + k].replace(old, value)
        tr.write_text("\n".join(lines) + "\n")
        svg = emit_svg_plot([tr], "balanced_grad", tmp_path / "p.svg").read_text()
        assert "inf" not in svg.lower() and "nan" not in svg.lower()
        pts = re.search(r'<polyline points="([^"]+)"', svg).group(1).split()
        assert len(pts) == len(lines) - 1
        for pair in pts:
            x, y = (float(c) for c in pair.split(","))
            assert 0 <= x <= WIDTH and 0 <= y <= HEIGHT


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
    with pytest.raises(ValueError):  # three values per point
        emit_svg_scatter([[(0.0, 1.0, 2.0), (1.0, 0.0, 2.0)]], ["a"], tmp_path / "s.svg")


@pytest.mark.parametrize(
    "argv",
    [
        ["pareto-toy", "--lambda", "-1"],
        ["pareto-toy", "--draws", "0"],
        ["pareto-toy", "--std", "nan"],
        ["pareto-toy", "--std", "-1"],
        ["gen-data", "-1", "out.csv"],
        ["pareto-toy", "--grid=0:inf:3"],
        ["pareto-toy", "--grid=-inf:0:3"],
        ["pareto-toy", "--grid=-1e308:1e308:5"],  # finite endpoints, infinite span
        ["pareto-toy", "--grid=0:1:100000000000000000000"],  # more points than numpy indexes
        ["pareto-toy", "--lambda", "0"],
        ["pareto-toy", "--lambda", "nan"],
        ["pareto-toy", "--lambda", "inf"],
    ],
)
def test_bad_arguments_exit_1_with_one_error_line(workdir, capsys, recwarn, argv):
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    if "--lambda" in argv:
        assert err.startswith(f"error: lambda must be positive and finite, got {float(argv[-1])}")
    assert [str(w.message) for w in recwarn] == []  # no warning printed beside it
    assert "Traceback" not in err
    assert list(workdir.iterdir()) == []  # no CSV, no SVG, no temp file


def _planted(exc):
    def raise_planted(*args, **kwargs):
        raise exc("planted")
    return raise_planted


# each subcommand's library call raises; main alone turns it into one line
@pytest.mark.parametrize("exc", [ValueError, OSError])
@pytest.mark.parametrize(
    "argv, namespace, attr",
    [
        (["run", "linear_e1_all"], cli, "parse_config"),
        (["gen-data", "0", "d.csv"], cli, "gen_linear"),
        (["pareto-toy"], cli, "robust_frontier"),
        (["plot", "balanced_grad", "p.svg", "t.csv"], cli, "emit_svg_plot"),
        (["check"], checks, "run_checks"),
    ],
)
def test_every_subcommand_reports_an_error_in_one_line(workdir, capsys, monkeypatch,
                                                       argv, namespace, attr, exc):
    monkeypatch.setattr(namespace, attr, _planted(exc))
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert err == "error: planted\n"
    assert "Traceback" not in out
    assert list(workdir.iterdir()) == []  # no trace, summary, CSV or SVG


def test_run_reports_an_unreadable_wine_file_under_its_block(workdir, capsys):
    (workdir / "w.csv").mkdir()
    _write(workdir / "exp.cfg", "wine_path = w.csv\n[run.w]\nproblem = wine\nsolver = mgda\n")
    assert cli.main(["run", "exp.cfg"]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \[run\.w\]: \[Errno \d+\] Is a directory: 'w\.csv'\n", err)
    assert sorted(workdir.iterdir()) == [workdir / "exp.cfg", workdir / "w.csv"]


@pytest.mark.parametrize(
    "solver, key, value, want",
    [
        # common keys: their own line
        ("mgda", "lambda", "-1", r"line 9: key 'lambda' must be positive, got '-1'"),
        ("mgda", "toy_std", "-1", r"line 9: key 'toy_std' must be nonnegative, got '-1'"),
        ("mgda", "toy_draws", "0", r"line 9: key 'toy_draws' must be positive, got '0'"),
        ("mgda", "data_seed", "-1", r"line 9: key 'data_seed' must be nonnegative, got '-1'"),
        ("mgda", "seeds", "0,-1", r"line 9: key 'seeds' must be nonnegative, got '0,-1'"),
        ("mgda", "seeds", "0,1,0", r"line 9: key 'seeds' repeats seed 0"),
        # solver fields: the solver dataclass's check, at the block's line
        ("mgda", "B", "0", r"line 6: \[run\.bad\]: B must be >= 1, got 0$"),
        ("double_clip", "B", "0", r"line 6: \[run\.bad\]: N1 must be >= 1, got 0$"),
        ("mgda", "lr", "-1", r"line 6: \[run\.bad\]: lr must be positive, got -1.0$"),
        ("double_clip", "c1", "0", r"line 6: \[run\.bad\]: c1 must be positive, got 0.0$"),
        ("double_loop", "D", "0", r"line 6: \[run\.bad\]: D must be >= 1, got 0$"),
        ("double_clip", "N1", "0", r"line 6: \[run\.bad\]: N1 must be >= 1, got 0$"),
        ("modo", "rho", "-1", r"line 6: \[run\.bad\]: rho must be nonnegative, got -1.0$"),
    ],
)
def test_bad_block_values_fail_before_any_job(workdir, capsys, solver, key, value, want):
    text = (
        "output_dir = out\n[run.ok]\nproblem = toy\nsolver = mgda\nT = 3\n"
        f"[run.bad]\nproblem = toy\nsolver = {solver}\n{key} = {value}\n"
    )
    _write(workdir / "exp.cfg", text)
    assert cli.main(["run", "exp.cfg"]) == 1
    err = capsys.readouterr().err
    assert re.match("error: " + want, err) and err.count("\n") == 1
    assert list(workdir.iterdir()) == [workdir / "exp.cfg"]  # no trace, no summary


def _no_estimate(problem):
    raise ValueError("all per-sample gradients vanish; cannot estimate G")


@pytest.mark.parametrize(
    "estimate, want",
    [
        # toy_std = 1e200 overflows the g = auto estimate to inf
        (estimate_lipschitz, r"lipschitz_g must be positive and finite, got inf"),
        (_no_estimate, r"all per-sample gradients vanish"),
    ],
)
def test_bad_g_estimate_fails_before_any_job(workdir, capsys, monkeypatch, estimate, want):
    monkeypatch.setattr(cli, "estimate_lipschitz", estimate)
    _write(workdir / "exp.cfg",
           "output_dir = out\n[run.a]\nproblem = toy\nsolver = mgda\ntoy_std = 1e200\nT = 5\n")
    assert cli.main(["run", "exp.cfg"]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: \[run\.a\]: " + want, err) and err.count("\n") == 1
    assert list(workdir.iterdir()) == [workdir / "exp.cfg"]  # no trace, no summary


def test_overflowing_toy_build_fails_before_any_job(workdir, capfd):
    # perturbation draws of std 1e308 overflow the toy build itself
    _write(workdir / "exp.cfg",
           "output_dir = out\n[run.a]\nproblem = toy\nsolver = mgda\ntoy_std = 1e308\ng = 1\n")
    assert cli.main(["run", "exp.cfg"]) == 1
    err = capfd.readouterr().err
    assert err == "error: [run.a]: problem build: overflow encountered in multiply\n"
    assert list(workdir.iterdir()) == [workdir / "exp.cfg"]  # no trace, no summary


def test_overflowing_g_diverges_at_the_first_step_quietly(workdir, capfd):
    # G sqrt(2) passes DualContext, but the first step's G-scaled products do not
    # stay finite; only the divergence check reports it, on no stream but the summary
    _write(workdir / "exp.cfg",
           "[run.a]\nproblem = toy\nsolver = double_clip\ng = 1e308\nT = 5\nN1 = 4\nN2 = 4\n")
    assert cli.main(["run", "exp.cfg"]) == 0
    assert capfd.readouterr().err == ""
    summary = (workdir / "runs" / "summary.csv").read_text().splitlines()[1]
    assert "seed0:diverged@0" in summary.split(",")


def test_overflowing_eta_scale_fails_before_any_job(workdir, capsys):
    # g itself is finite, but g * sqrt(2) for the toy pair is not
    _write(workdir / "exp.cfg",
           "output_dir = out\n[run.ok]\nproblem = toy\nsolver = mgda\nT = 3\n"
           "[run.a]\nproblem = toy\nsolver = double_clip\ng = 1.5e308\nT = 5\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", "exp.cfg"]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: \[run\.a\]: lipschitz_g \* sqrt\(m\) overflows, "
                        r"got lipschitz_g = 1\.5e\+308\n", err)
    assert list(workdir.iterdir()) == [workdir / "exp.cfg"]  # no trace, no summary


STEP_KEYS = {"double_loop": ("alpha", "beta", "gamma"), "double_clip": ("gamma", "beta"),
             "mgda": ("lr", "beta"), "modo": ("lr", "beta")}


@st.composite
def _extreme_run(draw):
    """(problem, solver, key, value) with one key at an extreme finite value."""
    problem = draw(st.sampled_from(["toy", "linear", "wine"]))
    solver = draw(st.sampled_from(sorted(STEP_KEYS)))
    keys = [st.tuples(st.sampled_from(("lambda", "g", "rho") + STEP_KEYS[solver]),
                      st.sampled_from(["5e-324", "1e-308", "1e+308"]))]
    if problem != "wine":  # the wine problem reads no data_seed
        keys.append(st.just(("data_seed", str(2**64))))
    if problem == "toy":
        keys.append(st.just(("toy_std", "1e150")))
    return (problem, solver, *draw(st.one_of(keys)))


@settings(deadline=None, max_examples=20)
@given(run=_extreme_run(), seed=st.integers(0, 3), steps=st.integers(1, 3),
       draws=st.integers(1, 5))
def test_run_at_extreme_finite_values_exits_cleanly(tmp_path_factory, run, seed, steps, draws):
    # drmoo run end to end in its own process: one seed, so one worker
    problem, solver, key, value = run
    workdir = tmp_path_factory.mktemp("extreme")
    block = f"[run.x]\nproblem = {problem}\nsolver = {solver}\nseeds = {seed}\nT = {steps}\n"
    if problem == "toy":
        block += f"toy_draws = {draws}\n"
    if problem == "wine":
        synthesize_wine_csv(workdir / "w.csv", rows=60)
    _write(workdir / "exp.cfg", f"output_dir = out\nwine_path = w.csv\n{block}{key} = {value}\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "drmoo", "run", "exp.cfg"], cwd=workdir,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr, proc.stderr
    out = workdir / "out"
    files = {p.name for p in out.iterdir()} if out.exists() else set()
    assert files <= {"summary.csv", f"x_seed{seed}.csv"}  # no temp file left
    if f"x_seed{seed}.csv" in files:
        text = (out / f"x_seed{seed}.csv").read_text()
        lines = text.splitlines()
        assert text.endswith("\n") and lines[0].startswith("iter,samples,wall_ms,")
        assert [line.split(",")[0] for line in lines[1:]] == [str(t) for t in range(len(lines) - 1)]
        assert 1 <= len(lines) - 1 <= steps
        assert {line.count(",") for line in lines} == {lines[0].count(",")}
    if "summary.csv" in files:
        text = (out / "summary.csv").read_text()
        header, row = text.splitlines()
        assert text.endswith("\n") and header == cli.SUMMARY_HEADER
        assert row.count(",") == header.count(",") and row.startswith(f"x,{problem},{solver},")
