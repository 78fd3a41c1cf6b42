"""Regenerate the golden files that tests/test_golden.py compares.

    PYTHONPATH=src python tests/golden/regen.py

Writes beside this script:
- pareto_toy.csv and pareto_toy.svg from one `drmoo pareto-toy` run on a
  small grid, and pareto_toy.json with that run's arguments and the numpy
  version that made them; the toy's bits depend on numpy's square, sort,
  cumsum and mean;
- runs/: the traces, without their wall_ms column, and summary.csv of
  `drmoo run runs.cfg` (every solver on every problem, T = 30, two lockstep
  seeds, the wine blocks on the stand-in that synthesize_wine_csv(seed=0)
  writes) and check.txt, the stdout of `drmoo check`;
- runs.json: fingerprint(), the numerical environment that made runs/,
  since the run bits also depend on numpy's exp/log1p and matmul kernels,
  and under "writers" the sha256 and size of the CSVs that `drmoo gen-data 0`
  and synthesize_wine_csv(seed=0) write (writer_pins), whose bits depend on
  the same kernels.

It prints one line per file it writes: "identical", or for a CSV each
changed column with its largest relative change, or for another file the
count of changed lines. Run it only for a change that means to move these
bytes, and state the largest relative change per column in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from drmoo import cli
from drmoo.problems import synthesize_wine_csv

HERE = Path(__file__).resolve().parent
ARGV = ["pareto-toy", "--grid=-1:3:201", "--draws=50", "--seed=3", "--std=0.5", "--lambda=1"]


def fingerprint():
    """numpy's version, its BLAS and the SIMD features it dispatches to here."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints its config
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu_features": config.get("SIMD Extensions", {}).get("found")}


def _drop_wall_ms(text):
    """A CSV's text without its wall_ms column, the one that is not deterministic."""
    rows = [line.split(",") for line in text.splitlines()]
    if "wall_ms" not in rows[0]:
        return text
    j = rows[0].index("wall_ms")
    return "".join(",".join(r[:j] + r[j + 1:]) + "\n" for r in rows)


def golden_runs(cwd):
    """{file name: text} of `drmoo run runs.cfg`, traces without wall_ms, and
    of `drmoo check`, run in cwd, which must be the working directory: the
    config's output_dir and wine_path are relative to it."""
    cwd = Path(cwd)
    synthesize_wine_csv(cwd / "wine.csv", seed=0)
    for argv in (["run", str(HERE / "runs.cfg")], ["check"]):
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            status = cli.main(argv)
        if status:
            raise RuntimeError(f"drmoo {argv[0]} exited {status}")
    texts = {p.name: _drop_wall_ms(p.read_text(encoding="utf-8"))
             for p in sorted((cwd / "out").iterdir())}
    texts["check.txt"] = stdout.getvalue()
    return texts


def writer_pins(cwd):
    """{writer: {"sha256", "size"}} of the CSVs that `drmoo gen-data 0` and
    synthesize_wine_csv(seed=0) write into cwd."""
    cwd = Path(cwd)
    with contextlib.redirect_stdout(io.StringIO()):
        status = cli.main(["gen-data", "0", str(cwd / "gen_data.csv")])
    if status:
        raise RuntimeError(f"drmoo gen-data exited {status}")
    paths = {"gen-data 0": cwd / "gen_data.csv",
             "synthesize_wine_csv(seed=0)": synthesize_wine_csv(cwd / "stand_in.csv", seed=0)}
    return {name: {"sha256": hashlib.sha256(p.read_bytes()).hexdigest(), "size": p.stat().st_size}
            for name, p in paths.items()}


def _relative_change(old, new):
    """|new - old| / |old| of two CSV cells: 0 for equal text or equal values,
    inf for a changed cell that is not a number or whose old value is 0."""
    if old == new:
        return 0.0
    try:
        o, n = float(old), float(new)
    except ValueError:
        return math.inf
    if o == n or (math.isnan(o) and math.isnan(n)):
        return 0.0
    return abs(n - o) / abs(o) if o else math.inf


def describe_change(name, old, new):
    """How the text new of file name differs from its text old (None when
    the file is new): "identical", each changed column of a CSV with the same
    header and row count and its largest relative change, or else the count
    of changed lines."""
    if old == new:
        return "identical"
    if old is None:
        return "new file"
    a, b = old.splitlines(), new.splitlines()
    if name.endswith(".csv") and len(a) == len(b) and a and a[0] == b[0]:
        worst = {}
        for x, y in zip(a[1:], b[1:]):
            for col, o, n in zip(a[0].split(","), x.split(","), y.split(",")):
                if (r := _relative_change(o, n)) > 0.0:
                    worst[col] = max(worst.get(col, 0.0), r)
        if worst:
            return ", ".join(f"{col} {r:.3g}" for col, r in worst.items())
    changed = sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
    return f"{changed} of {len(b)} lines changed"


def first_difference(name, got, want):
    """None when got and want have the same lines; else where they first
    differ: the file, the line number and, for a CSV, each differing column
    with its golden and its new value."""
    g, w = got.splitlines(), want.splitlines()
    if g == w:
        return None
    i = next((i for i, (x, y) in enumerate(zip(g, w)) if x != y), min(len(g), len(w)))
    if i == min(len(g), len(w)):
        return f"{name}: {len(g)} lines, golden has {len(w)}"
    if name.endswith(".csv") and i > 0:
        cols = [f"{col} {o} -> {n}"
                for col, o, n in zip(w[0].split(","), w[i].split(","), g[i].split(",")) if o != n]
        if cols:
            return f"{name} line {i + 1}: " + "; ".join(cols)
    return f"{name} line {i + 1}: golden {w[i]!r}, got {g[i]!r}"


def _golden_texts():
    """{path relative to this directory: text} of every file that main writes."""
    paths = [HERE / f"pareto_toy.{ext}" for ext in ("csv", "svg", "json")] + [HERE / "runs.json"]
    paths += sorted((HERE / "runs").glob("*"))
    return {p.relative_to(HERE).as_posix(): p.read_text(encoding="utf-8")
            for p in paths if p.is_file()}


def main():
    before = _golden_texts()
    status = cli.main([*ARGV, f"--out-csv={HERE / 'pareto_toy.csv'}",
                       f"--out-svg={HERE / 'pareto_toy.svg'}"])
    if status:
        raise SystemExit(status)
    meta = {"argv": ARGV, "numpy": np.__version__}
    (HERE / "pareto_toy.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        texts = golden_runs(tmp)
        pins = writer_pins(tmp)
    shutil.rmtree(HERE / "runs", ignore_errors=True)
    (HERE / "runs").mkdir()
    for name, text in texts.items():
        (HERE / "runs" / name).write_text(text, encoding="utf-8", newline="")
    recorded = {**fingerprint(), "writers": pins}
    (HERE / "runs.json").write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    after = _golden_texts()
    for name in sorted(before.keys() | after.keys()):
        change = describe_change(name, before.get(name), after[name]) if name in after else "removed"
        print(f"{name}: {change}")


if __name__ == "__main__":
    main()
