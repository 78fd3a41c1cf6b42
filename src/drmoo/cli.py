"""Command line front end: run experiments, generate data, plot, and check.

Subcommands:
    run <config>      execute every run block of a config file (a path or a
                      packaged preset name) in worker processes; the parent
                      process writes one trace CSV per (run, seed) and a
                      summary CSV per output directory
    gen-data <seed> <out.csv>   write the synthetic regression instance
    pareto-toy        nominal vs. robust frontier of the toy pair (CSV + SVG)
    check             numeric invariant suite; --self-test verifies the
                      suite itself catches an injected gradient bug
    plot <metric> <out.svg> <traces...>   log-scale comparison plot

Exit codes: 0 success, 1 config, argument or I/O error or a run that raised,
2 invariant check failure, 130 SIGINT, 143 SIGTERM.

main is the one error boundary: a ValueError (ConfigError is one) or OSError
from any subcommand becomes one `error: ...` line and exit status 1, and
SIGINT or SIGTERM one `error: interrupted` or `error: terminated` line, so the
subcommands only raise. run_experiment prefixes a block's build failure with
its `[run.NAME]:`.
"""

import argparse
import multiprocessing
import os
import signal
import sys
import traceback
from concurrent.futures import Future, ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from .config import (
    PROBLEMS,
    ConfigError,
    build_solver_config,
    load_preset,
    parse_config,
    preset_names,
)
from .dual import DualContext, grad_eta
from .metrics import robust_frontier, window_means
from .problems import (
    WINE_DEFAULT_PATH,
    WINE_ENV,
    LinearSpec,
    ToySpec,
    estimate_lipschitz,
    gen_linear,
    load_wine_tasks,
    resolve_wine_path,
    toy_problem,
)
from .solvers import SOLVERS, samples_per_step
from .svg import emit_svg_plot, emit_svg_scatter
from .trace import atomic_open, read_lines, write_trace

_SOLVER_FNS = {name: run for name, (run, _) in SOLVERS.items()}

SUMMARY_HEADER = (
    "run,problem,solver,seeds,status,init20_mean,final20_mean,final20_std,samples_per_seed"
)


class _Parser(argparse.ArgumentParser):
    """Usage errors become ConfigError so they exit with status 1, leaving
    status 2 to mean an invariant check failed."""

    def error(self, message):
        raise ConfigError(message)


def _build_problem(cfg):
    if cfg.problem == "linear":
        return gen_linear(LinearSpec(seed=cfg.data_seed))
    if cfg.problem == "wine":
        path = resolve_wine_path(cfg.wine_path)
        if path is None:
            raise ConfigError(
                "wine dataset not found; set wine_path in the config, export "
                f"{WINE_ENV}, or place the CSV at {WINE_DEFAULT_PATH.as_posix()}"
            )
        return load_wine_tasks(path)
    return toy_problem(
        ToySpec(perturbation_std=cfg.toy_std), num_draws=cfg.toy_draws, seed=cfg.data_seed
    )


# (cfg, problem, ctx) per run block; each worker receives the parent's
# list through fork, so problems are never pickled
_blocks = ()


class _Terminated(KeyboardInterrupt):
    """SIGTERM, raised in main's thread as SIGINT raises KeyboardInterrupt."""


def _raise_terminated(signum, frame):
    raise _Terminated


def _init_worker(blocks):
    """A worker leaves SIGINT to the parent, which ends it, and dies quietly
    on SIGTERM."""
    global _blocks
    _blocks = blocks
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _trace_path(cfg, seed) -> Path:
    return Path(cfg.output_dir) / f"{cfg.name}_seed{seed}.csv"


def _failed(status, text, count):
    """Results of count seeds that failed with status, text on the first."""
    return [(status, text if k == 0 else "", None, None) for k in range(count)]


def _run_job(block, solver_cfg):
    """Run one (block, solver config) job in a worker, writing nothing: the
    group's traces, or (error:<type>, traceback text) if the solver raised."""
    cfg, problem, ctx = _blocks[block]
    try:
        return _SOLVER_FNS[cfg.solver](solver_cfg, problem, ctx)
    except Exception as exc:  # one failed job must not lose the others
        return f"error:{type(exc).__name__}", traceback.format_exc()


def _submit(pool, job) -> Future:
    """pool.submit(_run_job, *job), or a future holding the error when a
    worker died before this job was queued."""
    try:
        return pool.submit(_run_job, *job)
    except BrokenProcessPool as exc:
        fut = Future()
        fut.set_exception(exc)
        return fut


def run_experiment(runs, echo=print) -> int:
    """Execute parsed run blocks and write their artifacts.

    Blocks that agree on the fields their problem reads (config.PROBLEMS)
    share one problem and its g = auto estimate, each built once. A job is
    one group of a block's seeds, carried as its solver config (built once,
    here), which a worker's solver runs in lockstep: each block's seeds are cut
    into ceil(CPUs / blocks) contiguous groups, so a config of fewer blocks
    than CPUs still keeps every CPU busy. The jobs run in a pool of
    forked worker processes, one per CPU this process may use (at most one
    per job), submitted in decreasing order of the samples they consume
    (ties in config order), so no long job is left to start last. Workers
    only compute; this process writes every artifact. As each job finishes,
    it writes one trace CSV per seed under the block's output_dir, whose
    wall_ms is the group's clock, and keeps only each seed's status, window
    means and final samples; then one summary.csv per output_dir aggregates
    the first/last-20-iteration balanced-gradient windows across seeds.
    Results are echoed and summarized in config order, whatever the start or
    finish order, and every trace is the same as from running each seed
    alone. Solver divergence is recorded per seed in the summary status
    column (its partial trace still gets written) and does not fail the
    invocation. Any other exception in a job goes to stderr with its
    traceback and is recorded as error:<type> for each seed of its group,
    and the other jobs still run; so is a failed trace write (one line on
    stderr). A worker that dies records each seed of its job, and of every
    job the broken pool could not finish, as error:BrokenProcessPool.
    Config trouble, a g = auto estimate that is not positive and finite
    included, and a problem build that fails on bad input, I/O or overflow
    raise ConfigError, prefixed with the block's [run.NAME], before any job
    starts. Returns the process exit status: 0, or 1 when a job raised.

    The pool forks, so workers inherit the problems without pickling and see
    the module state of the caller (a monkeypatched solver table, say); the
    caller should not hold other threads at that point.
    """
    # every problem is built before any job runs
    problems, estimates, blocks = {}, {}, []
    for cfg in runs:
        key = (cfg.problem, *(getattr(cfg, f) for f in PROBLEMS[cfg.problem]))
        try:  # numpy raises, not warns; an estimate that overflows is an infinite G
            with np.errstate(all="raise", under="ignore"):
                if key not in problems:
                    problems[key] = _build_problem(cfg)
                if cfg.g == "auto" and key not in estimates:
                    try:
                        estimates[key] = estimate_lipschitz(problems[key])
                    except FloatingPointError:
                        estimates[key] = np.inf
            g = estimates[key] if cfg.g == "auto" else float(cfg.g)
            ctx = DualContext(cfg.lam, g, problems[key].num_objectives)
        except FloatingPointError as exc:
            raise ConfigError(f"[run.{cfg.name}]: problem build: {exc}") from None
        except (ValueError, OSError) as exc:
            raise ConfigError(f"[run.{cfg.name}]: {exc}") from None
        blocks.append((cfg, problems[key], ctx))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cpus = cpus or 1
    groups = -(-cpus // len(blocks))
    jobs = [(b, build_solver_config(cfg, map(int, group))) for b, (cfg, _, _) in enumerate(blocks)
            for group in np.array_split(cfg.seeds, min(groups, len(cfg.seeds)))]
    sizes = []  # the samples each job consumes
    for b, solver_cfg in jobs:
        cfg, problem, _ = blocks[b]
        per_step = samples_per_step(cfg.solver, solver_cfg, problem.num_objectives)
        sizes.append(len(solver_cfg.seeds) * solver_cfg.T * per_step)
    pool = ProcessPoolExecutor(
        max_workers=min(cpus, len(jobs)),
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(blocks,),
    )
    done = {}  # job index -> per-seed (status, stderr text, window means, final samples)
    try:
        # largest first (a stable sort), so no long job is left to start last
        order = sorted(range(len(jobs)), key=lambda j: -sizes[j])
        futures = {_submit(pool, jobs[j]): j for j in order}
        for fut in as_completed(futures):  # each job's traces are written as it ends
            j = futures.pop(fut)  # so a job's traces live only this iteration
            b, group = jobs[j][0], jobs[j][1].seeds
            try:
                out = fut.result()
                if isinstance(out, tuple):  # the solver raised
                    done[j] = _failed(*out, len(group))
                    continue
                for seed, tr in zip(group, out):
                    write_trace(tr, _trace_path(blocks[b][0], seed))
                done[j] = [("ok" if tr.diverged_at is None else f"diverged@{tr.diverged_at}", "",
                            window_means(tr.balanced_grad), int(tr.samples[-1])) for tr in out]
            except Exception as exc:  # a trace write failed or the job's worker died
                # one line: a broken pool raises one exception object for every
                # pending job, and its traceback grows with each raise
                line = "".join(traceback.format_exception_only(exc))
                done[j] = _failed(f"error:{type(exc).__name__}", line, len(group))
    except KeyboardInterrupt:  # so shutdown waits for no running job
        for proc in multiprocessing.active_children():
            proc.terminate()
        raise
    finally:
        pool.shutdown(cancel_futures=True)

    by_dir = {}
    exit_status = 0
    results = (r for j in range(len(jobs)) for r in done[j])  # config and seed order
    for cfg, _, _ in blocks:
        inits, finals, samples, bad = [], [], [0], []
        for seed in cfg.seeds:
            status, tb, means, last = next(results)
            if tb:
                sys.stderr.write(tb)
            if status.startswith("error:"):
                exit_status = 1
            if status != "ok":
                bad.append(f"seed{seed}:{status}")
            if means is not None:
                inits.append(means[0])
                finals.append(means[1])
                samples.append(last)
            echo(f"{_trace_path(cfg, seed)}  [{status}]")
        with np.errstate(invalid="ignore"):  # the spread of an inf window is nan
            stats = (np.mean(inits), np.mean(finals), np.std(finals)) if finals else (np.nan,) * 3
        row = [cfg.name, cfg.problem, cfg.solver, " ".join(str(s) for s in cfg.seeds),
               ";".join(bad) or "ok", *("%.17g" % s for s in stats), str(max(samples))]
        by_dir.setdefault(cfg.output_dir, []).append(",".join(row))

    for outdir, rows in by_dir.items():
        spath = Path(outdir) / "summary.csv"
        with atomic_open(spath) as fh:
            fh.write(SUMMARY_HEADER + "\n" + "\n".join(rows) + "\n")
        echo(f"{spath}  [{len(rows)} run(s)]")
    return exit_status


def cmd_run(args) -> int:
    path = Path(args.config)
    if path.is_file():
        text = "".join(read_lines(path))
    else:
        try:
            text = load_preset(args.config)
        except ConfigError:
            raise ConfigError(
                f"no config file or preset named {args.config!r}; "
                f"presets: {', '.join(preset_names())}"
            ) from None
    return run_experiment(parse_config(text))


def cmd_gen_data(args) -> int:
    problem = gen_linear(LinearSpec(seed=args.seed))
    x, y = problem.features, problem.labels.T
    out = Path(args.out)
    header = [f"x{j + 1}" for j in range(x.shape[1])]
    header += [f"y{i + 1}" for i in range(problem.num_objectives)]
    row = ",".join(["%.17g"] * len(header)) + "\n"
    with atomic_open(out) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row % tuple(r.tolist()) for r in np.column_stack((x, y)))
    print(f"wrote {out} ({x.shape[0]} rows)")
    return 0


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise ConfigError(f"grid must look like lo:hi:count, got {text!r}") from None
    if not np.isfinite((lo, hi, hi - lo)).all():
        raise ConfigError(f"grid endpoints and their span must be finite, got {text!r}")
    if count < 1 or not lo < hi:
        raise ConfigError(f"grid needs lo < hi and count >= 1, got {text!r}")
    return np.linspace(lo, hi, count)


def cmd_pareto_toy(args) -> int:
    grid = _parse_grid(args.grid)
    frontiers = robust_frontier(
        ToySpec(perturbation_std=args.std, grid=tuple(grid)),
        num_draws=args.draws,
        lam=args.lam,
        seed=args.seed,
    )
    tags = ("nominal", "robust")
    out_csv = Path(args.out_csv)
    body = "".join((f"{tag},%.17g,%.17g,%.17g\n" * len(theta))
                   % tuple(np.column_stack((theta, values)).ravel().tolist())
                   for tag, (theta, values) in zip(tags, frontiers))
    with atomic_open(out_csv) as fh:  # a failed SVG write removes the CSV's temp file too
        fh.write("frontier,theta,f1,f2\n" + body)
        emit_svg_scatter([values for _, values in frontiers], tags, args.out_svg)
    nominal, robust = (len(theta) for theta, _ in frontiers)
    print(f"nominal frontier {nominal} points, robust {robust}; "
          f"wrote {out_csv} and {args.out_svg}")
    return 0


def cmd_check(args) -> int:
    from . import checks  # imported here: no other subcommand pays for compiling it

    if args.self_test:
        # a deliberately sign-flipped eta gradient must trip the FD check
        def flipped(ctx, losses, eta):
            return -grad_eta(ctx, losses, eta)

        res = checks.check_gradient_fd_linear(grad_eta_fn=flipped)
        if res.passed:
            print("self-test FAILED: injected sign flip went undetected")
            return 2
        print(f"self-test ok: injected sign flip caught ({res.detail})")
        return 0
    results = checks.run_checks()
    failures = 0
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} properties hold")
    return 2 if failures else 0


def cmd_plot(args) -> int:
    emit_svg_plot(args.traces, args.metric, args.out)
    print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="drmoo",
        description="distributionally robust multi-objective optimization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("run", help="execute a config file or packaged preset")
    p.add_argument("config", help=f"config path or preset name ({', '.join(preset_names())})")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("gen-data", help="write the synthetic regression instance as CSV")
    p.add_argument("seed", type=int)
    p.add_argument("out", help="output CSV path (columns x1..x10, y1..y3)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pareto-toy", help="nominal vs. robust toy frontier")
    p.add_argument("--std", type=float, default=0.5, help="perturbation std (default 0.5)")
    p.add_argument("--draws", type=int, default=200, help="perturbation draws (default 200)")
    p.add_argument(
        "--grid",
        default="-1:3:401",
        help='theta grid "lo:hi:count"; pass as --grid=-1:3:401 when lo is negative',
    )
    p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="dual regularization")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-csv", default="pareto_toy.csv")
    p.add_argument("--out-svg", default="pareto_toy.svg")
    p.set_defaults(func=cmd_pareto_toy)

    p = sub.add_parser("check", help="run the numeric invariant suite")
    p.add_argument(
        "--self-test",
        action="store_true",
        help="verify the suite catches an injected gradient sign flip",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("plot", help="log-scale metric plot from trace CSVs")
    p.add_argument("metric", help="trace column, e.g. balanced_grad")
    p.add_argument("out", help="output SVG path")
    p.add_argument("traces", nargs="+", help="trace CSV paths")
    p.set_defaults(func=cmd_plot)
    return parser


def main(argv=None) -> int:
    """The one error boundary: a ValueError or OSError from parsing argv or
    from any subcommand prints `error: <message>` and returns 1; SIGINT
    prints `error: interrupted` and returns 130, SIGTERM `error: terminated`
    and 143."""
    parser = build_parser()
    previous = signal.signal(signal.SIGTERM, _raise_terminated)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except _Terminated:
        print("error: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 128 + signal.SIGINT
    finally:
        signal.signal(signal.SIGTERM, previous)
