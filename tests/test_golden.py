"""The pareto-toy CSV and SVG, short runs of every solver on every problem
with the `drmoo check` output, and the CSVs of `drmoo gen-data` and the wine
stand-in, against stored golden files, byte for byte.

tests/golden/regen.py wrote the files. It recorded the toy run's arguments
and numpy version in pareto_toy.json, and the numerical environment of the
runs (numpy, BLAS, dispatched SIMD features) in runs.json, beside the
sha256 and size of the two data writers' CSVs. In another environment the
bytes may move in the last digit, so the numbers are then compared at a
relative tolerance and the test says that the byte check did not run; the
writers' hashes are not compared there.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from drmoo import cli
from golden.regen import fingerprint, first_difference, golden_runs, writer_pins

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


def _close(got, want):
    """A real within RTOL of its golden value; any other cell equal."""
    try:
        return bool(np.isclose(float(got), float(want), rtol=RTOL, atol=0, equal_nan=True))
    except ValueError:
        return got == want


def _recorded_fingerprint():
    """runs.json without its writer pins: the environment that made the golden runs."""
    recorded = json.loads((GOLDEN / "runs.json").read_text(encoding="utf-8"))
    recorded.pop("writers")
    return recorded


def test_runs_match_the_golden_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    got = golden_runs(tmp_path)
    capsys.readouterr()
    want = {p.name: p.read_text(encoding="utf-8") for p in (GOLDEN / "runs").iterdir()}
    assert sorted(got) == sorted(want)
    recorded = _recorded_fingerprint()
    if recorded == fingerprint():
        for name in sorted(want):  # every trace column but wall_ms, which regen drops
            difference = first_difference(name, got[name], want[name])
            assert difference is None, difference
        return
    for name in sorted(want):
        pairs = list(zip(got[name].splitlines(), want[name].splitlines()))
        assert len(pairs) == len(want[name].splitlines()) == len(got[name].splitlines()), name
        for g, w in pairs:
            if name == "check.txt":  # its figures have 2-3 digits, which a last-bit move can round
                assert g.split(":")[0] == w.split(":")[0], name
                continue
            g, w = g.split(","), w.split(",")
            assert len(g) == len(w) and all(map(_close, g, w)), (name, g, w)
    pytest.skip(f"byte check did not run: golden runs are from {recorded}, this is "
                f"{fingerprint()}; the runs agree to rtol {RTOL} and the checks' verdicts match")


def test_data_writers_match_the_pinned_bytes(tmp_path):
    pins = json.loads((GOLDEN / "runs.json").read_text(encoding="utf-8"))["writers"]
    got = writer_pins(tmp_path)
    recorded = _recorded_fingerprint()
    if recorded == fingerprint():
        assert got == pins
        return
    pytest.skip(f"byte check did not run: writer pins are from {recorded}, this is "
                f"{fingerprint()}")
