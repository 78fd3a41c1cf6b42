"""Regenerate the golden pareto-toy files that tests/test_golden.py compares.

    PYTHONPATH=src python tests/golden/regen.py

Writes pareto_toy.csv and pareto_toy.svg beside this script from one
`drmoo pareto-toy` run on a small grid, and pareto_toy.json with that run's
arguments and the numpy version that made the files; the toy's bits depend
on numpy's square, sort, cumsum and mean. Run it only for a change that
means to move these bytes, and state the largest relative change per column
in CHANGES.md.
"""

import json
from pathlib import Path

import numpy as np

from drmoo import cli

HERE = Path(__file__).resolve().parent
ARGV = ["pareto-toy", "--grid=-1:3:201", "--draws=50", "--seed=3", "--std=0.5", "--lambda=1"]


def main():
    status = cli.main([*ARGV, f"--out-csv={HERE / 'pareto_toy.csv'}",
                       f"--out-svg={HERE / 'pareto_toy.svg'}"])
    if status:
        raise SystemExit(status)
    meta = {"argv": ARGV, "numpy": np.__version__}
    (HERE / "pareto_toy.json").write_text(json.dumps(meta, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
