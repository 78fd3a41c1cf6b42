"""The pareto-toy CSV and SVG against stored golden files, byte for byte.

tests/golden/regen.py wrote the files and recorded the run's arguments and
numpy version in pareto_toy.json. With another numpy the bytes may move in
the last digit, so the CSV is then compared at a relative tolerance and the
test says that the byte check did not run.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from drmoo import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
RTOL = 1e-12


def test_pareto_toy_matches_the_golden_files(tmp_path, capsys):
    meta = json.loads((GOLDEN / "pareto_toy.json").read_text(encoding="utf-8"))
    out = {ext: tmp_path / f"pareto_toy.{ext}" for ext in ("csv", "svg")}
    assert cli.main([*meta["argv"], f"--out-csv={out['csv']}", f"--out-svg={out['svg']}"]) == 0
    capsys.readouterr()
    if meta["numpy"] == np.__version__:
        for ext, path in out.items():
            assert path.read_bytes() == (GOLDEN / f"pareto_toy.{ext}").read_bytes(), ext
        return
    got, want = (p.read_text(encoding="utf-8").splitlines()
                 for p in (out["csv"], GOLDEN / "pareto_toy.csv"))
    assert len(got) == len(want) and got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        (g_tag, *g_vals), (w_tag, *w_vals) = g.split(","), w.split(",")
        assert g_tag == w_tag
        np.testing.assert_allclose(np.array(g_vals, dtype=float),
                                   np.array(w_vals, dtype=float), rtol=RTOL, atol=0)
    pytest.skip(f"byte check did not run: golden files are from numpy {meta['numpy']}, "
                f"this is numpy {np.__version__}; the CSV agrees to rtol {RTOL}")
