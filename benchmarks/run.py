"""drmoo benchmark: the two paper presets and a dense toy frontier.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. Workloads (see BENCHMARK.json for why each is there):

* ``linear_e1``: ``drmoo run`` on the ``linear_e1_all`` preset (synthetic
  three-task regression, 4 solvers x 5 seeds).
* ``wine_e2``: ``drmoo run`` on ``wine_e2_all`` (logistic tasks, 4 solvers x
  3 seeds) over the stand-in CSV from ``synthesize_wine_csv``, passed
  explicitly, so neither ``$DRMOO_WINE_PATH`` nor ``data/`` can change it.
* ``toy_frontier``: ``drmoo pareto-toy`` on a 2001-point grid.

Seed 0 reproduces the presets exactly (linear data seed 32 and solver seeds
0-4, wine stand-in seed 0 and solver seeds 0-2, toy seed 0). Seed s shifts
the data seed by s and each block's solver seeds by s times their count.

Each invocation is one fresh interpreter (worker.py) calling
``drmoo.cli.main``; all artifacts go to a fresh directory under
``.bench_runs/`` in the checkout, removed at the end. Invocations run one
after another until the next one would end past ``--seconds`` (at least
two untraced, or one untraced/traced pair with ``--trace 1``). Outputs are
checked after each invocation, outside its timed region.

``--trace 0`` reports the end-to-end metrics (medians over invocations):
  wall_s        seconds from calling main(argv) to its return, every
                artifact written (the imports before it are set-up)
  setup_s       median of 5 fresh set-ups: imports, config parse, problem
                build, g = auto estimate
  samples_per_s oracle samples per wall second: the sum of the traces' final
                ``samples`` for the runs; grid points x 2 objectives x draws
                (the loss samples the dual minimizer reads) for the frontier
  peak_rss_mb   peak resident memory of the invocation's process
  ok_frac       1 - failed/attempted operations (never 0 unless all fail)

The shared host's speed drifts by tens of percent over minutes, through
time the hypervisor steals from the VM's CPUs and through contention for
the cores, so the times are corrected for the host:

* ``toy_frontier`` runs on one core: its wall_s and samples_per_s are at the
  reference host speed (HostClock), its raw seconds scaled by how long fixed
  reference work took, gauged on one core between its timed steps;
* the presets keep both cores busy through the program's job pool, which a
  one-core gauge does not describe (scaling widened their spread): their
  wall seconds are taken less the share of the machine's busy time that the
  hypervisor stole over them (``/proc/stat``);
* setup_s, mostly imports, which did not follow the gauge either, is taken
  less the stolen share on every workload.

The raw seconds, gauges and stolen shares are in the environment record.

``--trace 1`` alternates untraced and traced invocations and reports the
per-layer metrics of spans.layer_metrics, plus process.cpu_util (CPU over
wall seconds of the untraced invocations) and spans.overhead_frac (traced
over untraced median wall time, minus 1); these are raw, not scaled.

The last line of stdout is the result JSON; the line before it is the
environment record. Exit status is 0 when a result was printed, 2 when the
checkout holds no drmoo source.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import spans as spanlib
import verify

HERE = Path(__file__).resolve().parent
INVOKE_TIMEOUT_S = 150
SETUP_REPEATS = 5
# reference work and the host-speed scale of toy_frontier's wall time (HostClock)
REF_ITERS = 2000
REF_UNIT_S = 0.05  # one reference_work() call at the reference speed
GAUGE_MIN_S = 0.3  # shortest gauge, and the gauge's share of the step it follows
GAUGE_SHARE = 0.1
_REF_SMALL = np.linspace(0.0, 1.0, 200)
_REF_BATCH = np.random.default_rng(0).standard_normal((256, 10))
_REF_WEIGHTS = np.linspace(-1.0, 1.0, 10)
MIN_INVOCATIONS = 2
TOY_GRID = "-1:3:2001"
TOY = {"std": 0.5, "draws": 200, "lam": 1.0}
WORKLOADS = ("linear_e1", "wine_e2", "toy_frontier")
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "samples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
NUM_OBJECTIVES = 3  # both run presets: three tasks


class Workload:
    """Inputs of one workload for one seed, and the checks of its outputs."""

    def __init__(self, name, seed, tmp):
        self.name, self.seed = name, seed
        # the presets keep both cores busy through the program's job pool
        self.one_core = name == "toy_frontier"
        if name == "toy_frontier":
            lo, hi, count = TOY_GRID.split(":")
            self.grid_points = int(count)
            grid = np.linspace(float(lo), float(hi), self.grid_points)
            self.expected_frontier = verify.toy_frontiers(
                TOY["std"], TOY["draws"], TOY["lam"], grid, seed)
            return
        from drmoo.config import load_preset, parse_config

        text = load_preset("linear_e1_all" if name == "linear_e1" else "wine_e2_all")
        header = []
        if name == "wine_e2":
            from drmoo.problems import synthesize_wine_csv

            header.append(f"wine_path = {synthesize_wine_csv(tmp / 'wine.csv', seed=seed)}")
        body = []
        for ln in text.splitlines():
            key, _, value = (part.strip() for part in ln.partition("="))
            if key == "output_dir":
                continue
            if key == "seeds":
                seeds = [int(s) for s in value.split(",")]
                ln = "seeds = " + ",".join(str(s + seed * len(seeds)) for s in seeds)
            elif key == "data_seed":
                ln = f"data_seed = {int(value) + seed}"
            body.append(ln)
        self.body = "\n".join(body) + "\n"
        self.header = header
        self.blocks = parse_config("\n".join(header) + "\n" + self.body)
        self.config = tmp / "setup.cfg"
        self.config.write_text(self._config_text(tmp / "setup_out"), encoding="utf-8")

    def _config_text(self, outdir):
        return "\n".join(self.header + [f"output_dir = {outdir}"]) + "\n" + self.body

    def provenance(self):
        if self.name == "wine_e2":
            return {"wine_csv": "synthesized stand-in (drmoo.problems.synthesize_wine_csv)",
                    "wine_csv_seed": self.seed}
        return {}

    def setup_spec(self):
        if self.name == "toy_frontier":
            return {"toy": {"std": TOY["std"], "draws": TOY["draws"], "seed": self.seed}}
        return {"config": str(self.config)}

    def argv(self, outdir):
        outdir.mkdir(parents=True)
        if self.name == "toy_frontier":
            return ["pareto-toy", f"--std={TOY['std']}", f"--draws={TOY['draws']}",
                    f"--grid={TOY_GRID}", f"--lambda={TOY['lam']}", f"--seed={self.seed}",
                    f"--out-csv={outdir / 'toy.csv'}", f"--out-svg={outdir / 'toy.svg'}"]
        cfg = outdir / "run.cfg"
        cfg.write_text(self._config_text(outdir / "out"), encoding="utf-8")
        return ["run", str(cfg)]

    def check(self, outdir):
        if self.name != "toy_frontier":
            return verify.check_run(outdir / "out", self.blocks, NUM_OBJECTIVES,
                                    strict_ratio=self.name == "linear_e1" and self.seed == 0)
        out = verify.check_toy(outdir / "toy.csv", outdir / "toy.svg", self.expected_frontier)
        out.samples = self.grid_points * 2 * TOY["draws"]
        return out


def run_worker(spec, tmp, log):
    """Run worker.py on spec in a fresh interpreter; its report, or None."""
    spec_path = tmp / "spec.json"
    spec = dict(spec, src=str(Path.cwd() / "src"), report=str(tmp / "report.json"))
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    report = tmp / "report.json"
    report.unlink(missing_ok=True)
    with open(log, "ab") as out:
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                stdout=out, stderr=subprocess.STDOUT)
        try:
            code = proc.wait(timeout=INVOKE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None
        finally:  # also on SIGTERM, which main() turns into SystemExit
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not report.is_file():
        return None
    return json.loads(report.read_text(encoding="utf-8"))


def invoke(work, k, tmp, log, trace):
    """One invocation plus its checks: (report or None, Outcome, spans path)."""
    outdir = tmp / f"inv{k}"
    spans = tmp / f"spans{k}.csv"
    spec = {"mode": "invoke", "argv": work.argv(outdir), "trace": trace, "spans": str(spans)}
    report = run_worker(spec, tmp, log)
    outcome = work.check(outdir)
    if report is None or report["status"] != 0:
        outcome = verify.Outcome(attempted=outcome.attempted, failed=outcome.attempted,
                                 problems=[f"invocation {k} failed, see {log.name}"])
    shutil.rmtree(outdir)
    return report, outcome, spans


def reference_work():
    """Fixed work of the kinds the program does, in the benchmark's own code:
    a scalar loop over small-array numpy calls (as in the inner eta loop and
    the dual minimizer's bisection) and a 256 x 10 batch product with a
    logistic kernel (as in the batch oracle)."""
    acc = 0.0
    for i in range(REF_ITERS):
        r = np.maximum(_REF_SMALL - 0.5 + 1e-6 * i, 0.0)
        g = float(r.mean()) - 0.1
        acc += g * g if g > 0.0 else -g
        acc += float(np.logaddexp(0.0, _REF_BATCH @ _REF_WEIGHTS + 1e-6 * i).mean())
    return acc


def gauge(seconds):
    """Seconds per reference_work() call, over at least ``seconds`` of calls."""
    calls, t0 = 0, time.perf_counter()
    while True:
        reference_work()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return elapsed / calls


class HostClock:
    """Converts the seconds of one run to seconds at the reference speed.

    The host's speed drifts by tens of percent over seconds to minutes (a
    shared machine), and the program's timings drift with it. The reference
    work is gauged at the start and after every timed step; a run's times
    are scaled by REF_UNIT_S over the median gauge of that run, which cancels
    the drift slower than a run. A change to the program is not scaled away,
    because the reference work runs none of its code.

    The gauge runs on one core, so it describes only a workload that does;
    a HostClock that is not ``gauged`` never gauges and scales by 1.
    """

    def __init__(self, gauged=True):
        self.gauges = [gauge(GAUGE_MIN_S)] if gauged else []

    def tick(self, step_s):
        """Gauge the host after a step of step_s seconds."""
        if self.gauges:
            self.gauges.append(gauge(max(GAUGE_MIN_S, GAUGE_SHARE * step_s)))

    def scale(self):
        """Reference seconds per measured second over the run so far."""
        return REF_UNIT_S / statistics.median(self.gauges) if self.gauges else 1.0


def unstolen(report, key):
    """A worker's report[key] seconds less the share of the machine's busy
    time that the hypervisor stole over them."""
    busy, stolen = report["ticks"]
    return report[key] * busy / (busy + stolen) if busy + stolen else report[key]


def measure(work, tmp, seconds, trace):
    """Metrics, the summed Outcome and the raw timings of one run."""
    log = tmp / "worker.log"
    total = verify.Outcome()
    metrics = {}
    clock = HostClock(gauged=work.one_core and not trace)
    raw = {"wall_s": []}
    setups = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            probe = run_worker(dict(work.setup_spec(), mode="setup"), tmp, log)
            if probe is None:
                break
            setups.append(probe)
            clock.tick(probe["setup_s"])
        setup_ok = len(setups) == SETUP_REPEATS
        if not setup_ok:
            total.problems.append("set-up probe failed")
            total.failed += 1
            total.attempted += 1

    plain, traced, layers, k = [], [], [], 0
    t_start = time.perf_counter()
    for step in itertools.count():
        t0 = time.perf_counter()
        for with_trace in ((False, True) if trace else (False,)):
            report, outcome, spans = invoke(work, k, tmp, log, with_trace)
            k += 1
            total.add(outcome)
            if report is None:
                continue
            if not with_trace:
                raw["wall_s"].append(report["wall_s"])
                plain.append((report, outcome))
                clock.tick(report["wall_s"])
                continue
            traced.append(report)
            layers.append(spanlib.layer_metrics(spanlib.read_spans(spans)))
            spans.unlink()
        now = time.perf_counter()
        # stop before a step that would end past the measuring window
        if step + 1 >= (1 if trace else MIN_INVOCATIONS) and now - t_start + (now - t0) > seconds:
            break

    raw["setup_s"] = [p["setup_s"] for p in setups]
    raw["gauge_s"] = clock.gauges
    raw["stolen_share"] = [s / (b + s) if b + s else 0.0
                           for b, s in (r["ticks"] for r, _ in plain)]
    if not plain:
        return metrics, total, raw
    wall = statistics.median(raw["wall_s"])
    if trace:
        metrics = spanlib.median_metrics(layers) if layers else {}
        metrics["process.cpu_util"] = statistics.median(r["cpu_s"] / r["wall_s"]
                                                        for r, _ in plain)
        if traced:
            metrics["spans.overhead_frac"] = (
                statistics.median(r["wall_s"] for r in traced) / wall - 1.0)
        return metrics, total, raw
    scale = clock.scale()
    walls = [r["wall_s"] * scale if work.one_core else unstolen(r, "wall_s") for r, _ in plain]
    if setup_ok:
        metrics["setup_s"] = statistics.median(unstolen(p, "setup_s") for p in setups)
    metrics["wall_s"] = statistics.median(walls)
    metrics["samples_per_s"] = statistics.median(o.samples / w for (_, o), w in zip(plain, walls))
    metrics["peak_rss_mb"] = statistics.median(r["maxrss_kb"] / 1024.0 for r, _ in plain)
    metrics["ok_frac"] = 1.0 - total.failed / total.attempted
    return metrics, total, raw


def environment(seed, work):
    """Machine, library and input record printed with every result."""
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = None  # a checkout without git metadata
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": commit,
        "workload": work.name,
        "workload_seed": seed,
        **work.provenance(),
    }


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[1]
    if last.endswith("_s") or last == "s":
        return "s"
    if last == "us_per_iter":
        return "us"
    if last == "bytes":
        return "B"
    if last in ("calls", "rows", "points_in"):
        return "count"
    return "ratio"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    src = Path.cwd() / "src"
    if not (src / "drmoo" / "__init__.py").is_file():
        print(f"error: no drmoo source under {src}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    runs = Path.cwd() / ".bench_runs"
    runs.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs))
    try:
        work = Workload(args.workload, args.seed, tmp)
        metrics, outcome, raw = measure(work, tmp, args.seconds, bool(args.trace))
        env = dict(environment(args.seed, work), ref_unit_s=REF_UNIT_S,
                   **{f"raw_{k}": v for k, v in raw.items()})
    finally:
        shutil.rmtree(tmp)
        try:
            runs.rmdir()
        except OSError:
            pass  # another run's directory is still there
    for problem in outcome.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    units = {k: END_TO_END_UNITS.get(k) or unit_of(k) for k in metrics}
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
