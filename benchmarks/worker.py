"""One measured step of the benchmark, in a fresh interpreter.

    python3 benchmarks/worker.py SPEC.json

SPEC names a mode:

* ``setup``: import ``drmoo.cli`` and run the program's set-up through its
  public functions (config parse, problem build, the ``g = auto`` estimate),
  then report the elapsed seconds from the first line of this file, and the
  machine's busy and stolen clock ticks over them.
* ``invoke``: call ``drmoo.cli.main(argv)`` once, optionally with every
  layer traced (see spans.py), then report the wall and CPU seconds of that
  call, the machine's busy and stolen clock ticks over it, and peak RSS. A
  traced invocation writes its spans after ``main`` returns.

The report is a JSON file at SPEC["report"]; anything ``main`` prints goes to
this process's stdout, which the caller redirects.
"""

import time

T0 = time.perf_counter()


def ticks():
    """(busy, stolen) clock ticks of all the machine's CPUs so far, from
    /proc/stat; stolen ticks are time the hypervisor gave a CPU that had work
    to another guest. (0, 0) where /proc/stat is missing."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            user, nice, system, _, _, irq, softirq, steal = map(int, fh.readline().split()[1:9])
    except (OSError, ValueError):
        return 0, 0
    return user + nice + system + irq + softirq, steal


TICKS0 = ticks()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def setup(spec):
    import drmoo.cli  # noqa: F401  the import a user of the command pays
    from drmoo.config import parse_config
    from drmoo.problems import (
        LinearSpec,
        ToySpec,
        estimate_lipschitz,
        gen_linear,
        load_wine_tasks,
        perturbation_ensemble,
    )

    toy = spec.get("toy")
    if toy:
        perturbation_ensemble(ToySpec(perturbation_std=toy["std"]), toy["draws"], toy["seed"])
        return
    for cfg in parse_config(Path(spec["config"]).read_text(encoding="utf-8")):
        if cfg.problem == "linear":
            problem = gen_linear(LinearSpec(seed=cfg.data_seed))
        else:
            problem = load_wine_tasks(cfg.wine_path)
        if cfg.g == "auto":
            estimate_lipschitz(problem)


def _cpu_s():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def invoke(spec):
    from drmoo import cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    cpu0, ticks0 = _cpu_s(), ticks()
    start = time.perf_counter()
    status = cli.main(spec["argv"])
    end = time.perf_counter()
    cpu, ticks1 = _cpu_s() - cpu0, ticks()
    if tracer is not None:
        tracer.dump(spec["spans"])
    return {
        "status": status,
        "wall_s": end - start,
        "cpu_s": cpu,
        "ticks": [b - a for a, b in zip(ticks0, ticks1)],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def main():
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, spec["src"])
    if spec["mode"] == "setup":
        setup(spec)
        report = {"setup_s": time.perf_counter() - T0,
                  "ticks": [b - a for a, b in zip(TICKS0, ticks())]}
    else:
        report = invoke(spec)
    Path(spec["report"]).write_text(json.dumps(report), encoding="utf-8")


if __name__ == "__main__":
    main()
