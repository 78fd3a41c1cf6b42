"""The scripts under demos/ run end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, svg",
    [
        ("dual_objective_tour.py", [], None),
        ("toy_frontier.py", ["--draws", "50", "--out", "toy.svg"], "toy.svg"),
        ("linear_benchmark.py", ["--outdir", "linear"], "linear/balanced_grad.svg"),
    ],
)
def test_demo_runs(tmp_path, script, args, svg):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        cwd=tmp_path,  # every output lands in tmp_path
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if svg is not None:
        assert (tmp_path / svg).is_file()
