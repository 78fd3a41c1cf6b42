"""Span recording around drmoo's public functions, and the per-layer figures.

A Tracer wraps each layer's public functions in the namespace where the
caller looks them up (``drmoo.cli``, ``drmoo.solvers``, ``drmoo.metrics``,
``drmoo.dual``), so the program itself is unchanged. Every wrapped call
records one span: id, name, start, end, parent span and job id. Spans stay in
memory until ``dump`` writes them once, when the invocation has finished.

A job is one solver call (one (block, seed) pair of ``drmoo run``) plus the
trace write that follows it on the same thread. Spans opened on a pool thread
with nothing open on that thread take the enclosing ``run_experiment`` span
as their parent, so the self time of ``run_experiment`` is what its jobs do
not cover.

The self time of a span is its duration minus the part of that interval the
union of its child spans covers.
"""

import csv
import itertools
import statistics
import threading
import time
from pathlib import Path

SOLVERS = ("double_loop", "double_clip", "mgda", "modo")
# spans whose summed self time is the batch oracle: dual value and the two
# gradients, each evaluated on one batch
ORACLE = ("dual.dual_value", "dual.grad_theta", "dual.grad_eta")
BUILDS = ("problems.gen_linear", "problems.load_wine_tasks", "problems.perturbation_ensemble")
SPAN_FIELDS = ("id", "name", "start_ns", "end_ns", "parent", "job", "extra")


def _get(namespace, attr):
    return namespace[attr] if isinstance(namespace, dict) else getattr(namespace, attr)


def _set(namespace, attr, value):
    if isinstance(namespace, dict):
        namespace[attr] = value
    else:
        setattr(namespace, attr, value)


class Tracer:
    """In-memory span recorder; safe to call from several threads."""

    def __init__(self):
        self.spans = []  # tuples in SPAN_FIELDS order
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._adopter = 0  # id of the open span that adopts pool-thread roots
        self._grad_eta_count = 0
        self._undo = []

    def _stack(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack = []
            loc.job = 0
            loc.surrogate_start = None
        return loc.stack

    def wrap(self, name, fn, extra=None, job_root=False, adopt=False):
        """fn wrapped to record one span per call.

        extra(args, result) -> int gives a count stored with the span (rows,
        bytes, points); job_root starts a new job on the calling thread;
        adopt makes the span the parent of spans opened on other threads.
        """
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            loc = tracer._local
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer._adopter
            if job_root:
                loc.job = sid
            if adopt:
                tracer._adopter = sid
            stack.append(sid)
            result, count = None, 0
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                if adopt:
                    tracer._adopter = 0
                if extra is not None and result is not None:
                    count = extra(args, result)
                tracer.spans.append((sid, name, t0, t1, parent, loc.job, count))
            return result

        traced.__wrapped__ = fn
        return traced

    def replace(self, namespace, attr, new):
        """Set namespace.attr (a key, for a dict) to new until restore()."""
        self._undo.append((namespace, attr, _get(namespace, attr)))
        _set(namespace, attr, new)

    def patch(self, namespace, attr, name, **kw):
        """Replace namespace.attr by its traced version until restore()."""
        self.replace(namespace, attr, self.wrap(name, _get(namespace, attr), **kw))

    def restore(self):
        for namespace, attr, original in reversed(self._undo):
            _set(namespace, attr, original)
        self._undo.clear()

    def count_grad_eta(self, fn):
        """fn wrapped to count calls without recording spans."""

        def counted(*args, **kwargs):
            self._grad_eta_count += 1
            return fn(*args, **kwargs)

        return counted

    def take_grad_eta_count(self):
        n, self._grad_eta_count = self._grad_eta_count, 0
        return n

    def surrogate_begin(self):
        """Open the stationarity-surrogate interval at a full_eval call."""
        self._stack()
        self._local.surrogate_start = time.perf_counter_ns()

    def surrogate_end(self):
        """Close it when surrogate_stationarity returns; records one span."""
        stack = self._stack()
        loc = self._local
        if loc.surrogate_start is None:
            return
        parent = stack[-1] if stack else self._adopter
        self.spans.append(
            (next(self._ids), "metrics.surrogate", loc.surrogate_start,
             time.perf_counter_ns(), parent, loc.job, 0)
        )
        loc.surrogate_start = None

    def dump(self, path):
        """Write every span recorded so far as CSV."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(SPAN_FIELDS)
            out.writerows(self.spans)


class ProblemTap:
    """Forwards to a MultiTaskProblem, tracing the three sampling entry points.

    sample_batch and full_eval reach per_sample on the wrapped problem, not
    through this proxy, so problems.per_sample counts only direct callers
    (the double-loop inner eta loop and estimate_lipschitz).
    """

    def __init__(self, tracer, inner):
        self._inner = inner
        self.sample_batch = tracer.wrap(
            "problems.sample_batch", inner.sample_batch, extra=lambda a, r: len(r[0])
        )
        self.per_sample = tracer.wrap("problems.per_sample", inner.per_sample)
        full_eval = tracer.wrap("problems.full_eval", inner.full_eval)

        def traced_full_eval(theta):
            tracer.surrogate_begin()
            return full_eval(theta)

        self.full_eval = traced_full_eval

    def __getattr__(self, name):
        return getattr(self._inner, name)


def install(tracer):
    """Wrap every layer's public functions where drmoo's own code calls them."""
    from drmoo import cli, dual, metrics, solvers

    def tap_problem(name, fn):
        traced = tracer.wrap(name, fn)
        return lambda *args, **kwargs: ProblemTap(tracer, traced(*args, **kwargs))

    # cli -> config, problems, solvers, trace, metrics, svg
    tracer.patch(cli, "parse_config", "config.parse_config")
    tracer.patch(cli, "build_solver_config", "config.build_solver_config")
    tracer.patch(cli, "run_experiment", "cli.run_experiment", adopt=True)
    for attr in ("gen_linear", "load_wine_tasks"):
        tracer.replace(cli, attr, tap_problem(f"problems.{attr}", getattr(cli, attr)))
    tracer.patch(cli, "estimate_lipschitz", "problems.estimate_lipschitz")
    tracer.patch(cli, "write_trace", "trace.write_trace",
                 extra=lambda a, path: Path(path).stat().st_size)
    tracer.patch(cli, "robust_frontier", "metrics.robust_frontier")
    tracer.patch(cli, "emit_svg_scatter", "svg.emit_svg_scatter")
    for solver in SOLVERS:
        tracer.patch(cli._SOLVER_FNS, solver, f"solvers.{solver}", job_root=True,
                     extra=lambda a, trace: len(trace))

    # solvers -> dual, metrics, simplex
    for name in ("dual.conjugate_deriv",) + ORACLE:
        tracer.patch(solvers, name.split(".")[1], name)
    surrogate = tracer.wrap("metrics.surrogate_stationarity", solvers.surrogate_stationarity)

    def traced_surrogate(*args, **kwargs):
        try:
            return surrogate(*args, **kwargs)
        finally:
            tracer.surrogate_end()

    tracer.replace(solvers, "surrogate_stationarity", traced_surrogate)
    tracer.patch(solvers, "project_simplex", "simplex.project_simplex")

    # metrics -> dual, problems; the minimizer's grad_eta calls are counted,
    # not spanned, so exact_dual_min's self time is the whole minimizer
    tracer.patch(metrics, "exact_dual_min", "dual.exact_dual_min",
                 extra=lambda a, r: tracer.take_grad_eta_count())
    tracer.patch(metrics, "dual_value", "dual.dual_value")
    tracer.patch(metrics, "perturbation_ensemble", "problems.perturbation_ensemble")
    tracer.patch(metrics, "pareto_filter", "metrics.pareto_filter",
                 extra=lambda a, r: len(a[0]))
    tracer.replace(dual, "grad_eta", tracer.count_grad_eta(dual.grad_eta))


def read_spans(path):
    """Spans written by Tracer.dump, as tuples of ints except the name."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        if tuple(next(rows)) != SPAN_FIELDS:
            raise ValueError(f"{path}: not a span file")
        return [(int(i), n, int(s), int(e), int(p), int(j), int(x))
                for i, n, s, e, p, j, x in rows]


def covered(interval, children):
    """Length of the part of interval covered by the union of children."""
    lo, hi = interval
    total, reach = 0, lo
    for s, e in sorted(children):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans):
    """{span id: self time in ns}: duration minus what its children cover."""
    children = {}
    for sid, _, s, e, parent, _, _ in spans:
        children.setdefault(parent, []).append((s, e))
    return {sid: (e - s) - covered((s, e), children.get(sid, ()))
            for sid, _, s, e, _, _, _ in spans}


def layer_metrics(spans):
    """The per-layer figures of one traced invocation, in seconds and counts.

    Every name is reported, with 0 where a layer never ran.
    """
    own = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(*names):
        return sum(own[s[0]] for n in names for s in by_name.get(n, ())) / 1e9

    def total_s(*names):
        return sum(s[3] - s[2] for n in names for s in by_name.get(n, ())) / 1e9

    def extra(name):
        return sum(s[6] for s in by_name.get(name, ()))

    out = {
        "problems.sample_batch.calls": calls("problems.sample_batch"),
        "problems.sample_batch.rows": extra("problems.sample_batch"),
        "problems.sample_batch.self_s": self_s("problems.sample_batch"),
        "problems.per_sample.calls": calls("problems.per_sample"),
        "problems.per_sample.self_s": self_s("problems.per_sample"),
        "problems.build_s": total_s(*BUILDS),
        "dual.oracle.calls": sum(calls(n) for n in ORACLE),
        "dual.oracle.self_s": self_s(*ORACLE),
        "dual.conjugate_deriv.calls": calls("dual.conjugate_deriv"),
        "dual.conjugate_deriv.self_s": self_s("dual.conjugate_deriv"),
        "dual.exact_dual_min.calls": calls("dual.exact_dual_min"),
        "dual.exact_dual_min.self_s": self_s("dual.exact_dual_min"),
        "dual.exact_dual_min.grad_eta_per_call": (
            extra("dual.exact_dual_min") / calls("dual.exact_dual_min")
            if calls("dual.exact_dual_min") else 0.0
        ),
        "metrics.surrogate.calls": calls("metrics.surrogate"),
        "metrics.surrogate.s": total_s("metrics.surrogate"),
        "metrics.pareto_filter.points_in": extra("metrics.pareto_filter"),
        "metrics.pareto_filter.self_s": self_s("metrics.pareto_filter"),
        "simplex.project.calls": calls("simplex.project_simplex"),
        "simplex.project.self_s": self_s("simplex.project_simplex"),
        "trace.write.calls": calls("trace.write_trace"),
        "trace.write.self_s": self_s("trace.write_trace"),
        "trace.write.bytes": extra("trace.write_trace"),
        "config.self_s": self_s("config.parse_config", "config.build_solver_config"),
        "svg.emit.self_s": self_s("svg.emit_svg_scatter"),
    }
    for solver in SOLVERS:
        name = f"solvers.{solver}"
        iters = extra(name)
        out[f"{name}.us_per_iter"] = total_s(name) * 1e6 / iters if iters else 0.0
        out[f"{name}.self_s"] = self_s(name)
    run_s = total_s("cli.run_experiment")
    jobs = {}
    for _, _, s, e, _, job, _ in spans:
        if job:
            lo, hi = jobs.get(job, (s, e))
            jobs[job] = (min(lo, s), max(hi, e))
    job_s = sum(e - s for s, e in jobs.values()) / 1e9
    out["cli.mean_concurrency"] = job_s / run_s if run_s > 0 else 0.0
    return out


def median_metrics(samples):
    """Per-name median over several dicts with the same keys."""
    return {k: statistics.median(d[k] for d in samples) for k in samples[0]}
