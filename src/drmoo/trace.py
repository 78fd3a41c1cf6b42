"""CSV serialization of solver traces.

Stable schema: iter,samples,wall_ms,loss_1..loss_m,balanced_grad,
surrogate_stat,w_1..w_m,eta_1..eta_m. Reals are written with 17 significant
digits so a read-write round trip is exact in double precision.

Every artifact the package writes goes through atomic_open, so a file on
disk is either complete or absent, and every text file it reads (config,
trace, wine CSV) goes through read_lines.
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


@contextmanager
def atomic_open(path):
    """Open path for writing text through a temp file in the same directory.

    The temp file replaces path only when the block exits normally; if the
    block raises, the temp file is removed and path is left untouched.
    Missing parent directories are created. A path that names a directory
    ('/', '.', an existing directory) raises IsADirectoryError naming it.
    """
    path = Path(path)
    if path.name in ("", "..") or path.is_dir():
        raise IsADirectoryError(f"output path {str(path)!r} is a directory")
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_lines(path):
    """readlines() of path decoded as UTF-8, a leading byte-order mark
    skipped. A byte that is not UTF-8 raises ValueError naming its line,
    counted from the file's start (the decode error's offset counts from the
    failed chunk) with text-mode line ends: \\n, \\r\\n or \\r."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        data = data[:exc.start]
    raise ValueError(f"{path}:{len((data + b'.').splitlines())}: not valid UTF-8")


def write_trace(trace, path) -> Path:
    """Write a solvers.RunTrace as CSV (schema above), numbering its rows
    0..T-1 in the iter column; returns the path.

    Each row is one %-format of its two integers and its reals."""
    path = Path(path)
    m = trace.num_objectives
    row = "%d,%d" + ",%.17g" * (3 * m + 3) + "\n"
    reals = np.column_stack((trace.wall_ms, trace.losses, trace.balanced_grad,
                             trace.surrogate_stat, trace.w, trace.eta)).tolist()
    with atomic_open(path) as fh:
        fh.write(",".join(trace_header(m)) + "\n")
        fh.writelines(row % (i, n, *r) for i, (n, r) in
                      enumerate(zip(trace.samples.tolist(), reals)))
    return path


def read_trace(path):
    """Columns of a trace CSV, read by read_lines, as an ordered {name: array} dict."""
    path = Path(path)
    lines = read_lines(path)
    header = lines[0].strip().split(",") if lines else [""]
    if header[0] != "iter":
        raise ValueError(f"{path}: not a trace CSV (header starts with {header[:1]})")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(parts)}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed numeric row") from None
    data = np.asarray(rows) if rows else np.empty((0, len(header)))
    return {name: data[:, j] for j, name in enumerate(header)}
