"""CSV serialization of solver traces.

Stable schema: iter,samples,wall_ms,loss_1..loss_m,balanced_grad,
surrogate_stat,w_1..w_m,eta_1..eta_m. Reals are written with 17 significant
digits so a read-write round trip is exact in double precision.

Every artifact the package writes goes through atomic_open, so a file on
disk is either complete or absent.
"""

import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def trace_header(m: int):
    return (
        ["iter", "samples", "wall_ms"]
        + [f"loss_{i + 1}" for i in range(m)]
        + ["balanced_grad", "surrogate_stat"]
        + [f"w_{i + 1}" for i in range(m)]
        + [f"eta_{i + 1}" for i in range(m)]
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@contextmanager
def atomic_open(path):
    """Open path for writing text through a temp file in the same directory.

    The temp file replaces path only when the block exits normally; if the
    block raises, the temp file is removed and path is left untouched.
    Missing parent directories are created.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_trace(trace, path) -> Path:
    """Write a solvers.RunTrace as CSV (schema above); returns the path."""
    path = Path(path)
    m = trace.num_objectives
    with atomic_open(path) as fh:
        fh.write(",".join(trace_header(m)) + "\n")
        for t in range(len(trace)):
            row = [str(int(trace.iterations[t])), str(int(trace.samples[t])), _fmt(trace.wall_ms[t])]
            row += [_fmt(v) for v in trace.losses[t]]
            row += [_fmt(trace.balanced_grad[t]), _fmt(trace.surrogate_stat[t])]
            row += [_fmt(v) for v in trace.w[t]]
            row += [_fmt(v) for v in trace.eta[t]]
            fh.write(",".join(row) + "\n")
    return path


def read_trace(path):
    """Columns of a trace CSV as an ordered {name: array} dict."""
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if not header or header[0] != "iter":
            raise ValueError(f"{path}: not a trace CSV (header starts with {header[:1]})")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}"
                )
            rows.append([float(v) for v in parts])
    data = np.asarray(rows) if rows else np.empty((0, len(header)))
    return {name: data[:, j] for j, name in enumerate(header)}
