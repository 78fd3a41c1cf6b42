"""Trace CSV round trips and experiment config parsing."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from drmoo.config import (
    ConfigError,
    ExperimentConfig,
    build_solver_config,
    load_preset,
    parse_config,
    preset_names,
)
from drmoo.solvers import (
    BaselineConfig,
    DoubleClipConfig,
    DoubleLoopConfig,
    RunTrace,
)
from drmoo.trace import (
    atomic_open,
    read_lines,
    read_trace,
    trace_header,
    write_trace,
)


# --- trace CSV ---------------------------------------------------------------


def _toy_trace(rows=4, m=3, seed=5):
    r = np.random.default_rng(seed)
    # awkward doubles on purpose: 17 significant digits must survive the trip
    losses = r.standard_normal((rows, m)) / 3.0
    losses[0, 0] = 1.0 / 3.0
    losses[-1, -1] = 1e-17
    return RunTrace(
        samples=np.cumsum(r.integers(10, 99, rows)),
        wall_ms=np.cumsum(r.random(rows)),
        losses=losses,
        balanced_grad=np.abs(r.standard_normal(rows)),
        surrogate_stat=np.abs(r.standard_normal(rows)),
        w=np.full((rows, m), 1.0 / m),
        eta=r.standard_normal((rows, m)) * 0.01,
    )


def test_trace_header_layout():
    assert trace_header(2) == [
        "iter", "samples", "wall_ms",
        "loss_1", "loss_2",
        "balanced_grad", "surrogate_stat",
        "w_1", "w_2",
        "eta_1", "eta_2",
    ]


def test_write_read_round_trip_is_exact(tmp_path):
    tr = _toy_trace()
    path = write_trace(tr, tmp_path / "a.csv")
    cols = read_trace(path)
    assert list(cols) == trace_header(3)
    assert np.array_equal(cols["iter"], np.arange(len(tr)))
    assert np.array_equal(cols["samples"], tr.samples)
    assert np.array_equal(cols["wall_ms"], tr.wall_ms)
    for j in range(3):
        assert np.array_equal(cols[f"loss_{j + 1}"], tr.losses[:, j])
        assert np.array_equal(cols[f"w_{j + 1}"], tr.w[:, j])
        assert np.array_equal(cols[f"eta_{j + 1}"], tr.eta[:, j])
    assert np.array_equal(cols["balanced_grad"], tr.balanced_grad)
    assert np.array_equal(cols["surrogate_stat"], tr.surrogate_stat)


REALS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1 / 3]
)


@given(rows=st.integers(1, 4), m=st.integers(1, 4), data=st.data())
def test_trace_rows_read_as_fmt_of_each_value(tmp_path_factory, rows, m, data):
    # write_trace formats a whole row at once; each field must be the text
    # format(v, ".17g") gives that value, signed zeros, subnormals, inf and nan included
    def reals(*shape):
        n = int(np.prod(shape))
        return np.array(data.draw(st.lists(REALS, min_size=n, max_size=n))).reshape(shape)

    tr = RunTrace(
        samples=np.array(data.draw(st.lists(st.integers(0, 2**62), min_size=rows, max_size=rows))),
        wall_ms=reals(rows), losses=reals(rows, m), balanced_grad=reals(rows),
        surrogate_stat=reals(rows), w=reals(rows, m), eta=reals(rows, m),
    )
    lines = write_trace(tr, tmp_path_factory.mktemp("rows") / "t.csv").read_text().split("\n")
    assert lines[0] == ",".join(trace_header(m)) and lines[-1] == ""
    for t, line in enumerate(lines[1:-1]):
        values = [tr.wall_ms[t], *tr.losses[t], tr.balanced_grad[t], tr.surrogate_stat[t],
                  *tr.w[t], *tr.eta[t]]
        fields = [str(t), str(int(tr.samples[t])), *(format(v, ".17g") for v in values)]
        assert line == ",".join(fields)
    assert len(lines) == rows + 2


def test_write_twice_same_bytes(tmp_path):
    tr = _toy_trace()
    a = write_trace(tr, tmp_path / "a.csv").read_bytes()
    b = write_trace(tr, tmp_path / "b.csv").read_bytes()
    assert a == b


def test_write_creates_parent_dirs(tmp_path):
    path = write_trace(_toy_trace(rows=1), tmp_path / "deep" / "er" / "t.csv")
    assert path.is_file()


def test_atomic_open_leaves_nothing_when_the_writer_raises(tmp_path):
    target = tmp_path / "out" / "t.csv"
    with pytest.raises(RuntimeError, match="mid-write"):
        with atomic_open(target) as fh:
            fh.write("iter,samples\n0,")
            raise RuntimeError("mid-write")
    assert not target.exists()
    assert list(target.parent.iterdir()) == []
    # an existing file keeps its old, complete content
    target.write_text("old\n")
    with pytest.raises(RuntimeError):
        with atomic_open(target) as fh:
            fh.write("new")
            raise RuntimeError("mid-write")
    assert target.read_text() == "old\n"
    assert list(target.parent.iterdir()) == [target]
    with atomic_open(target) as fh:
        fh.write("new\n")
    assert target.read_text() == "new\n"
    assert list(target.parent.iterdir()) == [target]


def test_read_rejects_foreign_csv(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("time,value\n0,1\n")
    with pytest.raises(ValueError, match="not a trace CSV"):
        read_trace(path)


def test_read_reports_short_row_with_line_number(tmp_path):
    tr = _toy_trace(rows=2, m=2)
    path = write_trace(tr, tmp_path / "t.csv")
    lines = path.read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:5])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"t\.csv:3: expected 11 fields, got 5"):
        read_trace(path)


def test_read_reports_a_non_numeric_cell_with_line_number(tmp_path):
    path = write_trace(_toy_trace(rows=3, m=2), tmp_path / "t.csv")
    lines = path.read_text().splitlines()
    cells = lines[2].split(",")
    cells[1] = "x"
    lines[2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"t\.csv:3: malformed numeric row$"):
        read_trace(path)


def test_read_skips_a_byte_order_mark(tmp_path):
    path = write_trace(_toy_trace(), tmp_path / "t.csv")
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    want, got = read_trace(path), read_trace(bom)
    assert list(got) == list(want)
    assert all(np.array_equal(got[k], want[k]) for k in want)


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_a_byte_that_is_not_utf8_is_reported_at_its_line(tmp_path, newline):
    path = tmp_path / "t.csv"
    path.write_bytes(newline.join([b"iter,samples", b"0,1", b"1,\xff2", b"2,3", b""]))
    with pytest.raises(ValueError, match=r"t\.csv:3: not valid UTF-8$"):
        read_trace(path)
    with pytest.raises(ValueError, match=r"t\.csv:3: not valid UTF-8$"):
        read_lines(path)


def test_read_skips_blank_lines_and_handles_empty_body(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(",".join(trace_header(1)) + "\n\n")
    cols = read_trace(path)
    assert all(v.shape == (0,) for v in cols.values())


# --- config parsing ----------------------------------------------------------


MINIMAL = """
[run.base]
problem = linear
solver = mgda
"""


def test_minimal_block_gets_defaults():
    (cfg,) = parse_config(MINIMAL)
    assert isinstance(cfg, ExperimentConfig)
    assert (cfg.name, cfg.problem, cfg.solver) == ("base", "linear", "mgda")
    assert cfg.seeds == [0]
    assert cfg.lam == 1.0
    assert cfg.g == "auto"
    assert cfg.data_seed == 0
    assert cfg.output_dir == "runs"
    assert cfg.wine_path is None
    assert cfg.params == {"T": 600, "B": 256, "lr": 1e-5, "beta": 1e-5, "rho": 0.0}


def test_overrides_comments_and_globals():
    text = """
    output_dir = out/here   # trailing comment
    wine_path = data/wine.csv

    [run.a]
    problem = linear
    solver = double_loop
    seeds = 0, 1,2
    lambda = 2.0
    g = 4.5
    data_seed = 7
    alpha = 1e-3   # inline too
    D = 15
    """
    (cfg,) = parse_config(text)
    assert cfg.output_dir == "out/here"
    assert cfg.wine_path == "data/wine.csv"
    assert cfg.seeds == [0, 1, 2]
    assert cfg.lam == 2.0
    assert cfg.g == 4.5
    assert cfg.data_seed == 7
    assert cfg.params["alpha"] == 1e-3
    assert cfg.params["D"] == 15
    # untouched keys keep the solver defaults
    assert cfg.params["beta"] == 5e-5


def test_double_clip_batch_defaults_flow_into_n1_n2():
    text = "[run.a]\nproblem = toy\nsolver = double_clip\nB = 64\n"
    (cfg,) = parse_config(text)
    assert cfg.params["N1"] == 64 and cfg.params["N2"] == 64
    (cfg2,) = parse_config(text + "N1 = 8\n")
    assert cfg2.params["N1"] == 8 and cfg2.params["N2"] == 64


def test_multiple_blocks_in_order():
    text = MINIMAL + "\n[run.second]\nproblem = toy\nsolver = modo\n"
    names = [c.name for c in parse_config(text)]
    assert names == ["base", "second"]


@pytest.mark.parametrize(
    "text, pattern",
    [
        ("[run.a]\nproblem = linear\n", r"line 1: \[run\.a\] is missing required keys: solver"),
        ("[run.a]\nseeds = 0\n", r"missing required keys: problem, solver"),
        ("[run.a]\nproblem = cake\nsolver = mgda\n", r"line 2: unknown problem 'cake'; choose from"),
        ("[run.a]\nproblem = toy\nsolver = sgd\n", r"line 3: unknown solver 'sgd'; choose from"),
        ("[run.a]\nproblem = toy\nsolver = mgda\nD = 3\n", r"line 4: unknown key 'D' for solver 'mgda'"),
        ("[run.a]\nproblem = linear\nsolver = mgda\ntoy_std = 0.3\n",
         r"line 4: unknown key 'toy_std' for solver 'mgda' and problem 'linear' \(allowed: "),
        ("[run.a]\nproblem = wine\nsolver = mgda\ndata_seed = 1\n",
         r"line 4: unknown key 'data_seed' for solver 'mgda' and problem 'wine' \(allowed: "
         r"\['B', 'T', 'beta', 'g', 'lambda', 'lr', 'problem', 'rho', 'seeds', 'solver'\]\)$"),
        ("[run.a]\nproblem = toy\nsolver = mgda\nT = 3.5\n", r"key 'T' expects an integer, got '3.5'"),
        ("[run.a]\nproblem = toy\nsolver = mgda\nlr = fast\n", r"key 'lr' expects a real number, got 'fast'"),
        ("[run.a]\nproblem = toy\nsolver = mgda\nseeds = 0;1\n", r"key 'seeds' expects comma-separated integers"),
        ("[run.a]\nproblem = toy\nsolver = mgda\nseeds = ,\n", r"key 'seeds' is empty"),
        ("[run.a]\nproblem = toy\nsolver = mgda\ng = big\n", r"key 'g' expects 'auto' or a positive real"),
        ("[run.a]\nproblem = toy\nsolver = mgda\ng = -1\n", r"key 'g' must be positive"),
        ("[run.a]\nproblem = toy\nsolver = mgda\nT = 5\nT = 6\n", r"line 5: duplicate key 'T' in \[run\.a\]"),
        (MINIMAL + "[run.base]\nproblem = toy\nsolver = mgda\n", r"duplicate run name 'base'"),
        ("[block]\n", r"malformed section header '\[block\]'"),
        ("[run.a]\nproblem = toy\nsolver = mgda\njust words\n", r"expected 'key = value', got 'just words'"),
        ("[run.a]\nproblem = toy\nsolver = mgda\n= 3\n", r"line 4: empty key"),
        ("alpha = 1\n" + MINIMAL, r"unknown global key 'alpha'"),
        ("", r"config defines no \[run\.NAME\] sections"),
        ("output_dir = runs\n", r"config defines no \[run\.NAME\] sections"),
        ("output_dir = a\noutput_dir = b\n" + MINIMAL, r"line 2: duplicate global key 'output_dir'"),
    ],
)
def test_parse_errors(text, pattern):
    with pytest.raises(ConfigError, match=pattern):
        parse_config(text)


@given(
    solver_key=st.sampled_from([
        ("mgda", "lr"), ("modo", "beta"), ("double_loop", "alpha"), ("double_loop", "rho"),
        ("double_clip", "c1"), ("double_clip", "f2"), ("mgda", "lambda"), ("modo", "toy_std"),
        ("mgda", "g"),
    ]),
    raw=st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "+INF", "1e999"]),
)
def test_parse_rejects_nonfinite_reals_with_line_number(solver_key, raw):
    solver, key = solver_key
    text = f"[run.a]\nproblem = toy\nsolver = {solver}\n{key} = {raw}\n"
    with pytest.raises(ConfigError, match=f"line 4: key '{key}' must be (positive and )?finite"):
        parse_config(text)


def test_build_solver_config_maps_every_solver():
    text = """
    [run.dl]
    problem = linear
    solver = double_loop
    [run.dc]
    problem = linear
    solver = double_clip
    [run.g]
    problem = linear
    solver = mgda
    [run.m]
    problem = linear
    solver = modo
    """
    dl, dc, g, m = (build_solver_config(c, seeds=[9, 2]) for c in parse_config(text))
    assert isinstance(dl, DoubleLoopConfig)
    assert (dl.T, dl.D, dl.B, dl.seeds) == (600, 20, 256, (9, 2))
    assert (dl.alpha, dl.beta, dl.gamma, dl.rho) == (5e-5, 5e-5, 5e-3, 1e-5)
    assert isinstance(dc, DoubleClipConfig)
    assert (dc.c1, dc.c2, dc.f1, dc.f2) == (0.5, 0.1, 0.5, 0.1)
    assert (dc.N1, dc.N2, dc.seeds) == (256, 256, (9, 2))
    assert isinstance(g, BaselineConfig) and g.rho == 0.0
    assert isinstance(m, BaselineConfig) and m.rho == 1e-5
    assert g.lr == m.lr == 1e-5


# --- packaged presets --------------------------------------------------------


def test_preset_inventory():
    assert preset_names() == [
        "linear_e1_all",
        "linear_e1_doubleclip",
        "linear_e1_doubleloop",
        "linear_e1_mgda",
        "linear_e1_modo",
        "wine_e2_all",
        "wine_e2_doubleclip",
        "wine_e2_doubleloop",
    ]


def test_unknown_preset():
    with pytest.raises(ConfigError, match="unknown preset 'nope'; available:"):
        load_preset("nope")


def test_linear_regression_presets_parse():
    cfgs = {c.name: c for c in parse_config(load_preset("linear_e1_all"))}
    assert set(cfgs) == {"doubleloop", "doubleclip", "mgda", "modo"}
    for c in cfgs.values():
        assert c.problem == "linear"
        assert c.seeds == [0, 1, 2, 3, 4]
        assert c.lam == 2.0
        assert c.data_seed == 32
    dl = cfgs["doubleloop"].params
    assert (dl["T"], dl["D"], dl["B"]) == (600, 20, 256)
    assert (dl["alpha"], dl["beta"], dl["gamma"], dl["rho"]) == (5e-5, 5e-5, 5e-3, 1e-5)
    dc = cfgs["doubleclip"].params
    assert (dc["gamma"], dc["beta"], dc["rho"]) == (1e-2, 5e-4, 1e-5)
    assert (dc["c1"], dc["c2"], dc["f1"], dc["f2"]) == (0.5, 0.1, 0.5, 0.1)
    assert cfgs["mgda"].params["rho"] == 0.0
    assert cfgs["modo"].params["rho"] == 1e-5

    (single,) = parse_config(load_preset("linear_e1_doubleloop"))
    assert single.solver == "double_loop" and single.params == dl


def test_wine_presets_parse():
    cfgs = {c.name: c for c in parse_config(load_preset("wine_e2_all"))}
    assert set(cfgs) == {"doubleloop", "doubleclip", "mgda", "modo"}
    for c in cfgs.values():
        assert c.problem == "wine"
        assert c.seeds == [0, 1, 2]
        assert c.params["T"] == 1000
    dl = cfgs["doubleloop"].params
    assert (dl["D"], dl["gamma"], dl["alpha"], dl["beta"], dl["rho"]) == (15, 5e-3, 1e-3, 6e-4, 1e-6)
    dc = cfgs["doubleclip"].params
    assert (dc["gamma"], dc["c1"], dc["c2"]) == (1e-2, 0.5, 0.1)
