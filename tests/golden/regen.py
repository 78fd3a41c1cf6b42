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

Run it only for a change that means to move these bytes, and state the
largest relative change per column in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
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


def main():
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


if __name__ == "__main__":
    main()
