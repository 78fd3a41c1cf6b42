"""Problem instances: linear generator, wine loader, toy pair, sampling."""

import csv
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drmoo import problems
from drmoo.problems import (
    LOSS_BCE,
    LOSS_SQUARED,
    LinearSpec,
    MultiTaskProblem,
    ToySpec,
    estimate_lipschitz,
    gen_linear,
    load_wine_tasks,
    perturb_toy,
    perturbation_draws,
    perturbation_ensemble,
    quantile_threshold,
    logistic,
    resolve_wine_path,
    synthesize_wine_csv,
    toy_objectives,
    toy_problem,
    WINE_COLUMNS,
    WINE_THRESHOLDS,
)

from conftest import rng


# --- construction and evaluation --------------------------------------------


def test_problem_validation():
    with pytest.raises(ValueError, match="unknown loss kind"):
        MultiTaskProblem(np.ones((2, 1)), [np.ones(2)], "hinge")
    with pytest.raises(ValueError, match=r"need \(N, n\) features with N >= 1"):
        MultiTaskProblem(np.ones((0, 1)), np.ones((1, 0)), LOSS_SQUARED)
    with pytest.raises(ValueError, match=r"need \(N, n\) features"):
        MultiTaskProblem(np.ones(2), [np.ones(2)], LOSS_SQUARED)
    with pytest.raises(ValueError, match=r"need \(m, N\) labels, m >= 1, N = 2; got \(1, 3\)"):
        MultiTaskProblem(np.ones((2, 1)), [np.ones(3)], LOSS_SQUARED)
    with pytest.raises(ValueError, match=r"N = 2; got \(2,\)"):
        MultiTaskProblem(np.ones((2, 1)), np.ones(2), LOSS_SQUARED)
    with pytest.raises(ValueError, match=r"N = 2; got \(0, 2\)"):
        MultiTaskProblem(np.ones((2, 1)), np.ones((0, 2)), LOSS_SQUARED)
    with pytest.raises(ValueError, match="offset shape"):
        MultiTaskProblem(np.ones((2, 1)), [np.ones(2)], LOSS_SQUARED, offsets=[np.ones(3)])


def test_squared_error_values_and_gradients():
    # loss (x.theta - y)^2 with no 1/2 factor; gradient 2(x.theta - y)x
    p = MultiTaskProblem(np.array([[2.0, 0.0]]), [np.array([1.0])], LOSS_SQUARED)
    losses, grads = p.per_sample(0, np.array([1.0, 5.0]))
    assert losses == pytest.approx([1.0])
    assert grads[0] == pytest.approx([4.0, 0.0])


def test_logistic_single_sample_example():
    # x = 0 with bias 1, y = 1, theta = 0: loss ln 2, gradient -0.5 * x
    p = MultiTaskProblem(np.array([[0.0, 1.0]]), [np.array([1.0])], LOSS_BCE)
    losses, grads = p.per_sample(0, np.zeros(2))
    assert losses[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert grads[0] == pytest.approx([0.0, -0.5], abs=1e-12)


def _sigmoid_reference(z: float) -> float:
    if z >= -700.0:
        return 1.0 / (1.0 + math.exp(-z))
    return math.exp(z)  # e^z / (1 + e^z) equals e^z to far below one ulp here


def _softplus_reference(z: float) -> float:
    # log(1 + e^z), written as z + log(1 + e^-z) above 0 so exp cannot overflow
    if z > 0.0:
        return z + math.log1p(math.exp(-z))
    return math.log1p(math.exp(z))


def _logistic_quietly(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return logistic(z)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
def test_sigmoid_matches_python_float_reference(zs):
    z = np.array(zs)
    _, got = _logistic_quietly(z)
    ref = np.array([_sigmoid_reference(v) for v in zs])
    assert got.shape == z.shape
    assert np.all((got >= 0.0) & (got <= 1.0))
    # three roundings in each formula plus exp's own: a few eps apart at most
    np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(float).eps, atol=1e-300)


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
def test_softplus_matches_python_float_reference(zs):
    z = np.array(zs)
    got, _ = _logistic_quietly(z)
    ref = np.array([_softplus_reference(v) for v in zs])
    assert got.shape == z.shape
    assert np.all(got >= 0.0)
    np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(float).eps, atol=1e-300)


# the last sits 3 ulp from logaddexp: for z just above ln 2^-6, e^z is in the
# binade above its log1p, so one ulp of exp is two of the softplus
_EDGES = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, -4.158679640877374]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGES),
                min_size=1, max_size=40))
def test_softplus_within_three_ulp_of_logaddexp(zs):
    z = np.array(zs + _EDGES)
    got, _ = _logistic_quietly(z)
    ref = np.logaddexp(0.0, z)
    assert np.all(got >= 0.0) and np.all(ref >= 0.0)
    # nonnegative doubles order like their bit patterns: ulps apart = ints apart
    ulps = np.abs(got.view(np.int64) - ref.view(np.int64))
    assert np.all(ulps <= 3), z[ulps > 3]


def test_sigmoid_extremes_raise_no_warning():
    z = np.array([-1e3, -745.2, -709.8, -1.0, -0.0, 0.0, 1.0, 36.8, 709.8, 1e3])
    _, got = _logistic_quietly(z)
    assert got[0] == 0.0 and got[-1] == 1.0
    assert got[4] == got[5] == 0.5
    assert np.all(np.diff(got) >= 0.0)


def test_per_sample_gradients_match_finite_differences(small_linear, small_logistic):
    g = rng(71)
    h = 1e-6
    for problem in (small_linear, small_logistic):
        for _ in range(10):
            i = int(g.integers(problem.num_objectives))
            j = int(g.integers(problem.num_samples))
            theta = g.normal(0, 0.5, problem.dimension)
            _, grads = problem.per_sample(i, theta, np.array([j]))
            for k in range(problem.dimension):
                tp, tm = theta.copy(), theta.copy()
                tp[k] += h
                tm[k] -= h
                fd = (
                    problem.per_sample(i, tp, np.array([j]))[0][0]
                    - problem.per_sample(i, tm, np.array([j]))[0][0]
                ) / (2 * h)
                assert grads[0, k] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_logistic_loss_is_convex_along_segments(small_logistic):
    g = rng(72)
    for _ in range(25):
        a = g.normal(0, 1, small_logistic.dimension)
        b = g.normal(0, 1, small_logistic.dimension)
        mid = small_logistic.per_sample(0, 0.5 * (a + b))[0]
        ends = 0.5 * (
            small_logistic.per_sample(0, a)[0] + small_logistic.per_sample(0, b)[0]
        )
        assert np.all(mid <= ends + 1e-10)


def test_offsets_shift_losses_not_gradients():
    x = np.array([[1.0], [1.0]])
    y = np.array([0.0, 0.0])
    plain = MultiTaskProblem(x, [y], LOSS_SQUARED)
    shifted = MultiTaskProblem(x, [y], LOSS_SQUARED, offsets=[np.array([1.0, -2.0])])
    theta = np.array([3.0])
    l0, g0 = plain.per_sample(0, theta)
    l1, g1 = shifted.per_sample(0, theta)
    assert l1 == pytest.approx(l0 + [1.0, -2.0])
    assert np.array_equal(g0, g1)


def test_sample_batch_with_replacement_and_full_batch(small_linear):
    theta = rng(4).normal(0, 0.5, small_linear.dimension)
    losses, slopes, rows = small_linear.full_eval(theta)
    assert rows is small_linear.features  # the full batch is not copied
    assert losses.shape == slopes.shape == (3, 200)
    for i in range(3):
        ref_losses, ref_grads = small_linear.per_sample(i, theta)
        assert np.array_equal(losses[i], ref_losses)
        assert np.array_equal(slopes[i][:, None] * rows, ref_grads)

    # each objective gathers its own rows; 500 draws exceed the dataset, so
    # rows repeat (drawn with replacement)
    idx = rng(5).integers(0, small_linear.num_samples, size=(3, 500))
    losses, slopes, rows = small_linear.sample_batch(theta, idx)
    assert losses.shape == slopes.shape == (3, 500)
    assert rows.shape == (3, 500, small_linear.dimension)
    for i in range(3):
        ref_losses, ref_grads = small_linear.per_sample(i, theta, idx[i])
        assert np.array_equal(rows[i], small_linear.features[idx[i]])
        assert np.array_equal(losses[i], ref_losses)
        assert np.array_equal(slopes[i][:, None] * rows[i], ref_grads)


def test_stacked_sample_batch_matches_per_sample(small_logistic):
    # S = 2 seeds, each with k = 3 roles of m = 2 objectives: row r*m + i of
    # seed s is objective i's batch, offset into its own labels
    p, g = small_logistic, rng(6)
    m, n = p.num_objectives, p.dimension
    theta = g.normal(0, 1.5, (2, n))
    idx = g.integers(0, p.num_samples, size=(2, 3 * m, 40))
    losses, slopes, rows = p.sample_batch(theta, idx)
    assert losses.shape == slopes.shape == (2, 3 * m, 40)
    assert rows.shape == (2, 3 * m, 40, n)
    for s in range(2):
        for r in range(3 * m):
            ref_losses, ref_grads = p.per_sample(r % m, theta[s], idx[s, r])
            assert np.array_equal(losses[s, r], ref_losses), (s, r)
            assert np.array_equal(slopes[s, r][:, None] * rows[s, r], ref_grads), (s, r)


def test_estimate_lipschitz(small_linear):
    g = estimate_lipschitz(small_linear)
    norms = []
    for i in range(3):
        _, grads = small_linear.per_sample(i, np.zeros(small_linear.dimension))
        norms.append(np.linalg.norm(grads, axis=1).max())
    assert g == pytest.approx(max(norms))
    zero = MultiTaskProblem(np.zeros((2, 1)), [np.zeros(2)], LOSS_SQUARED)
    with pytest.raises(ValueError, match="vanish"):
        estimate_lipschitz(zero)


# --- synthetic linear regression ---------------------------------------------


def test_gen_linear_shapes():
    p = gen_linear(LinearSpec(seed=1))
    assert p.num_objectives == 3
    assert p.dimension == 10
    assert p.features.shape == (6000, 10)
    assert p.labels.shape == (3, 6000)
    assert p.loss_kind == LOSS_SQUARED
    assert p.meta["true_params"].shape == (3, 10)


def test_gen_linear_noise_variances_within_ten_percent():
    p = gen_linear(LinearSpec(seed=0))
    anchors = p.meta["true_params"]
    for i, var in enumerate((0.04, 0.36, 0.25)):
        eps = p.labels[i] - p.features @ anchors[i]
        assert abs(eps.var() - var) <= 0.1 * var


def test_gen_linear_bit_reproducible():
    a = gen_linear(LinearSpec(seed=9))
    b = gen_linear(LinearSpec(seed=9))
    c = gen_linear(LinearSpec(seed=10))
    assert np.array_equal(a.features, b.features)
    assert all(np.array_equal(a.labels[i], b.labels[i]) for i in range(3))
    assert not np.array_equal(a.labels[0], c.labels[0])


def test_gen_linear_follows_its_documented_draw_order():
    # one PCG64 stream: X, theta1*, theta2*, theta3*, then the three noise
    # vectors, with the task laws written out here rather than imported
    n, big_n = 4, 50
    p = gen_linear(LinearSpec(dimension=n, samples=big_n, seed=3))
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    x = rng.standard_normal((big_n, n))
    t1 = rng.standard_normal(n)
    t2 = -0.2 * t1 + 0.2 * rng.standard_normal(n)
    t3 = 0.5 * t1 + 0.5 * rng.standard_normal(n)
    anchors = np.stack([t1, t2, t3])
    labels = [x @ anchors[i] + std * rng.standard_normal(big_n)
              for i, std in enumerate((0.2, 0.6, 0.5))]
    assert np.array_equal(p.features, x)
    assert np.array_equal(p.meta["true_params"], anchors)
    assert np.array_equal(p.labels, np.stack(labels))


def test_linear_spec_validation():
    with pytest.raises(ValueError):
        LinearSpec(dimension=0)


# --- wine loader -------------------------------------------------------------


def _write_wine(tmp_path, rows, header=None):
    path = tmp_path / "wine.csv"
    cols = header if header is not None else ";".join(f'"{c}"' for c in WINE_COLUMNS)
    path.write_text(cols + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def _wine_row(quality, sugar=5.0, alcohol=10.0, filler=1.0):
    vals = {c: filler for c in WINE_COLUMNS}
    vals["quality"] = quality
    vals["residual sugar"] = sugar
    vals["alcohol"] = alcohol
    return ";".join(str(vals[c]) for c in WINE_COLUMNS)


def test_quantile_threshold_conventions():
    assert quantile_threshold([3, 5, 6, 8], 0.0) == 3.0  # everything labelled 1
    assert quantile_threshold([3, 5, 6, 8], 1.0) == 8.0  # only the max
    # median convention: smallest value with CDF >= 0.5
    assert quantile_threshold([3, 5, 6, 8], 0.5) == 5.0
    assert quantile_threshold([2, 2, 2, 9], 0.5) == 2.0  # ties count together


def test_wine_labels_on_crafted_rows(tmp_path):
    qualities = [3, 5, 6, 8]
    path = _write_wine(tmp_path, [_wine_row(q, sugar=q, alcohol=q) for q in qualities])
    p = load_wine_tasks(path)
    assert p.num_objectives == 3
    # quality at quantile 0.5 cuts at 5: labels 1(q >= 5)
    assert np.array_equal(p.labels[0], [0.0, 1.0, 1.0, 1.0])
    # residual sugar at 0.8 cuts at 8 (CDF at 6 is only 0.75)
    assert np.array_equal(p.labels[1], [0.0, 0.0, 0.0, 1.0])
    # alcohol at 0.1 cuts at the minimum: all 1
    assert np.array_equal(p.labels[2], [1.0, 1.0, 1.0, 1.0])


def test_wine_features_are_standardized_with_bias(tmp_path):
    g = rng(82)
    rows = [
        ";".join(f"{v:.3f}" for v in g.uniform(1, 10, len(WINE_COLUMNS)))
        for _ in range(40)
    ]
    p = load_wine_tasks(_write_wine(tmp_path, rows))
    # 12 columns - 3 label sources + 1 bias
    assert p.dimension == 10
    feats = p.features
    assert np.array_equal(feats[:, -1], np.ones(40))  # bias column
    assert np.abs(feats[:, :-1].mean(axis=0)).max() <= 1e-10
    assert feats[:, :-1].std(axis=0) == pytest.approx(np.ones(9), abs=1e-10)
    # label sources must not leak into the features
    assert set(p.meta["feature_names"]) & {"quality", "residual sugar", "alcohol"} == set()
    assert p.loss_kind == LOSS_BCE


def test_wine_loader_errors_carry_line_numbers(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wine_tasks(tmp_path / "nope.csv")

    path = _write_wine(tmp_path, [_wine_row(5), "1;2;3"])
    with pytest.raises(ValueError, match=r"wine\.csv:3: expected 12 fields"):
        load_wine_tasks(path)

    bad = _wine_row(5).replace("10.0", "ten")
    path = _write_wine(tmp_path, [bad])
    with pytest.raises(ValueError, match=r"wine\.csv:2: malformed numeric row"):
        load_wine_tasks(path)

    no_alcohol = ";".join(f'"{c}"' if c != "alcohol" else '"vintage"' for c in WINE_COLUMNS)
    path = _write_wine(tmp_path, [_wine_row(5)], header=no_alcohol)
    with pytest.raises(ValueError, match=r"wine\.csv:1: missing column 'alcohol'"):
        load_wine_tasks(path)

    (tmp_path / "empty.csv").write_text("", encoding="utf-8")
    with pytest.raises(ValueError, match="empty file"):
        load_wine_tasks(tmp_path / "empty.csv")

    header_only = tmp_path / "header.csv"
    header_only.write_text(";".join(f'"{c}"' for c in WINE_COLUMNS) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no data rows"):
        load_wine_tasks(header_only)


_NONFINITE_CELLS = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "+INF", "1e999"]


@settings(max_examples=60)
@given(
    rows=st.integers(1, 6),
    data=st.data(),
    cell=st.sampled_from(_NONFINITE_CELLS),
)
def test_wine_loader_rejects_nonfinite_cells(tmp_path_factory, rows, data, cell):
    r = data.draw(st.integers(0, rows - 1))
    c = data.draw(st.integers(0, len(WINE_COLUMNS) - 1))
    lines = [_wine_row(q) for q in range(3, 3 + rows)]
    fields = lines[r].split(";")
    fields[c] = cell
    lines[r] = ";".join(fields)
    path = _write_wine(tmp_path_factory.mktemp("wine"), lines)
    line = r + 2
    with pytest.raises(ValueError, match=rf"wine\.csv:{line}: non-finite value '{re.escape(cell)}' "
                                         rf"in column '{re.escape(WINE_COLUMNS[c])}'"):
        load_wine_tasks(path)


def _reference_load_wine(path):
    """The loader as it was before the one-pass numpy read: csv.reader and one
    float() per cell. An oracle for load_wine_tasks that shares none of its
    parsing."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=";")
        try:
            header = [h.strip().strip('"') for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}:1: empty file") from None
        for name in WINE_THRESHOLDS:
            if name not in header:
                raise ValueError(f"{path}:1: missing column {name!r}; file has {header}")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                vals = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed numeric row") from None
            if not all(map(math.isfinite, vals)):
                j = next(j for j, v in enumerate(vals) if not math.isfinite(v))
                raise ValueError(
                    f"{path}:{lineno}: non-finite value {row[j]!r} in column {header[j]!r}"
                )
            rows.append(vals)
    if not rows:
        raise ValueError(f"{path}:2: no data rows")
    data = np.asarray(rows)
    col = {name: data[:, j] for j, name in enumerate(header)}
    labels = []
    for name, s in WINE_THRESHOLDS.items():
        v = quantile_threshold(col[name], s)
        labels.append((col[name] >= v).astype(float))
    feature_names = [h for h in header if h not in WINE_THRESHOLDS]
    feats = np.column_stack([col[h] for h in feature_names])
    mu = feats.mean(axis=0)
    sd = feats.std(axis=0)
    sd[sd == 0.0] = 1.0
    feats = (feats - mu) / sd
    feats = np.column_stack([feats, np.ones(feats.shape[0])])
    return feats, labels, {"feature_names": feature_names + ["bias"]}


@st.composite
def _wine_cell(draw):
    """One finite value in one of the spellings a wine CSV may use."""
    v = draw(st.floats(-500.0, 500.0, allow_nan=False, allow_infinity=False))
    style = draw(st.sampled_from(["int", "fixed", "exp", "repr"]))
    text = {"int": str(int(v)), "fixed": f"{v:.4f}", "exp": f"{v:.6e}", "repr": repr(v)}[style]
    if not text.startswith("-") and draw(st.booleans()):
        text = "+" + text
    pad = st.sampled_from(["", " ", "\t", " \t "])
    text = draw(pad) + text + draw(pad)
    return f'"{text}"' if draw(st.booleans()) else text


@st.composite
def _wine_body(draw, min_rows=1):
    """Data lines (each row with 0-2 blank lines before it) and a line ending."""
    rows = draw(st.lists(st.lists(_wine_cell(), min_size=12, max_size=12),
                         min_size=min_rows, max_size=6))
    lines = []
    for row in rows:
        lines += [""] * draw(st.integers(0, 2)) + [";".join(row)]
    return lines, draw(st.sampled_from(["\n", "\r\n", "\r"]))


def _write_wine_lines(tmp_path, lines, newline):
    path = tmp_path / "wine.csv"
    header = ";".join(f'"{c}"' for c in WINE_COLUMNS)
    path.write_bytes(newline.join([header] + lines + [""]).encode("utf-8"))
    return path


@settings(max_examples=80, deadline=None)
@given(body=_wine_body())
def test_wine_loader_matches_the_csv_float_reference(tmp_path_factory, body):
    path = _write_wine_lines(tmp_path_factory.mktemp("wine"), *body)
    feats, labels, meta = _reference_load_wine(path)
    p = load_wine_tasks(path)
    assert np.array_equal(p.features, feats)
    assert all(np.array_equal(a, b) for a, b in zip(p.labels, labels, strict=True))
    assert p.meta == meta


_BAD_LINES = {
    "short row": "1;2;3",
    "non-numeric cell": ";".join(["1"] * 11 + ["ten"]),
    "empty cell": ";".join(["1"] * 5 + [""] + ["1"] * 6),
    "trailing separator": ";".join(["1"] * 12) + ";",
    "whitespace-only line": " \t ",
    **{f"non-finite {c}": ";".join(["1"] * 7 + [c] + ["1"] * 4) for c in _NONFINITE_CELLS},
}


@settings(max_examples=80, deadline=None)
@given(body=_wine_body(min_rows=0), data=st.data(), kind=st.sampled_from(sorted(_BAD_LINES)))
def test_wine_loader_errors_match_the_reference(tmp_path_factory, body, data, kind):
    lines, newline = body
    at = data.draw(st.integers(0, len(lines)))
    lines = lines[:at] + [_BAD_LINES[kind]] + lines[at:]
    path = _write_wine_lines(tmp_path_factory.mktemp("wine"), lines, newline)
    with pytest.raises(ValueError) as want:
        _reference_load_wine(path)
    assert str(want.value).startswith(f"{path}:{at + 2}: ")
    with pytest.raises(ValueError) as got:
        load_wine_tasks(path)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("body", ["", "\n", "\n\n\n", "\r\n\r\n"])
def test_wine_loader_without_data_rows_raises_no_warning(tmp_path, body):
    path = tmp_path / "wine.csv"
    path.write_bytes((";".join(WINE_COLUMNS) + "\n" + body).encode("utf-8"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            load_wine_tasks(path)
    assert str(err.value) == f"{path}:2: no data rows"


@pytest.mark.parametrize("cell", ["1_0", "\u0661"])
def test_wine_loader_refuses_cells_only_float_reads(tmp_path, cell):
    # float() reads digit-group underscores and non-ASCII digits; the
    # one-pass read does not, so such a cell is malformed at its line
    lines = [_wine_row(5), _wine_row(6).replace("10.0", cell, 1), _wine_row(7)]
    path = _write_wine(tmp_path, lines)
    _reference_load_wine(path)  # the old loader took it
    with pytest.raises(ValueError) as err:
        load_wine_tasks(path)
    assert str(err.value) == f"{path}:3: malformed numeric row"


def test_wine_loader_skips_a_byte_order_mark(tmp_path):
    rows = [_wine_row(q, sugar=q, alcohol=q) for q in (3, 5, 6, 8)]
    plain = load_wine_tasks(_write_wine(tmp_path, rows))
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "wine.csv").read_bytes())
    p = load_wine_tasks(bom)
    assert p.meta["feature_names"][0] == "fixed acidity"
    assert p.meta == plain.meta and np.array_equal(p.features, plain.features)
    # a BOM before a label column must not hide it: quality moved first
    moved = [";".join(reversed(r.rsplit(";", 1))) for r in rows]
    header = ";".join(("quality",) + WINE_COLUMNS[:-1])
    bom.write_bytes(b"\xef\xbb\xbf" + _write_wine(tmp_path, moved, header).read_bytes())
    q = load_wine_tasks(bom)
    assert np.array_equal(q.labels[0], plain.labels[0])


def test_synthesize_wine_csv_leaves_nothing_when_the_write_fails(tmp_path, monkeypatch):
    # a column with no generated values makes the first data row raise
    # after the header is already written
    monkeypatch.setattr(problems, "WINE_COLUMNS", WINE_COLUMNS + ("vintage",))
    with pytest.raises(KeyError, match="vintage"):
        synthesize_wine_csv(tmp_path / "data" / "wine.csv", rows=5)
    assert list((tmp_path / "data").iterdir()) == []


def test_synthesized_wine_is_deterministic_and_loadable(tmp_path):
    a = synthesize_wine_csv(tmp_path / "a.csv", seed=4, rows=60)
    b = synthesize_wine_csv(tmp_path / "b.csv", seed=4, rows=60)
    assert a.read_bytes() == b.read_bytes()
    p = load_wine_tasks(a)
    assert p.num_objectives == 3
    assert p.num_samples == 60
    # the quantile cut must be nondegenerate on every task
    for y in p.labels:
        assert 0.0 < y.mean() < 1.0


def test_resolve_wine_path(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DRMOO_WINE_PATH", raising=False)
    assert resolve_wine_path() is None
    explicit = tmp_path / "x.csv"
    assert resolve_wine_path(explicit) == explicit
    monkeypatch.setenv("DRMOO_WINE_PATH", str(tmp_path / "env.csv"))
    assert resolve_wine_path() == tmp_path / "env.csv"
    assert resolve_wine_path(explicit) == explicit  # explicit wins over env


# --- toy pair ----------------------------------------------------------------


def test_toy_objective_examples():
    spec = ToySpec()
    assert toy_objectives(spec, 0.0) == (0.0, 4.0)
    assert toy_objectives(spec, 2.0) == (4.0, 0.0)
    assert toy_objectives(spec, 1.0) == (1.0, 1.0)
    f1, f2 = toy_objectives(spec, np.array([0.0, 2.0]))
    assert np.array_equal(f1, [0.0, 4.0])
    assert np.array_equal(f2, [4.0, 0.0])


def test_toy_spec_defaults_and_validation():
    spec = ToySpec()
    assert len(spec.grid) == 401
    assert spec.grid[0] == -1.0 and spec.grid[-1] == 3.0
    with pytest.raises(ValueError):
        ToySpec(perturbation_std=-0.5)
    with pytest.raises(ValueError):
        ToySpec(grid=())


def test_perturb_toy_zero_std_is_identity():
    spec = ToySpec(perturbation_std=0.0)
    assert perturb_toy(spec, 123) == spec


def test_perturb_toy_distinct_seeds_and_determinism():
    spec = ToySpec(perturbation_std=0.5)
    a = perturb_toy(spec, 1)
    b = perturb_toy(spec, 2)
    assert a != b
    assert perturb_toy(spec, 1) == a
    ens = perturbation_ensemble(spec, 5, seed=3)
    assert len(ens) == 5
    assert perturbation_ensemble(spec, 5, seed=3) == ens
    with pytest.raises(ValueError):
        perturbation_ensemble(spec, 0, seed=3)


def test_perturb_toy_empirical_std():
    spec = ToySpec(perturbation_std=0.5)
    shifts = np.array([perturb_toy(spec, s).x1 for s in range(10000)])
    assert abs(shifts.std() - 0.5) <= 0.025  # within 5%


@pytest.mark.parametrize("std", [0.0, 0.5, 1e3])
@pytest.mark.parametrize("seed", [0, 3, 12345, 2**63])
def test_perturbation_draws_are_the_ensemble_bit_for_bit(std, seed):
    spec = ToySpec(x1=-0.3, x2=2.0, b1=0.0, b2=0.75, perturbation_std=std)
    for draws in (1, 37):
        want = np.array([(s.x1, s.b1, s.x2, s.b2)
                         for s in perturbation_ensemble(spec, draws, seed)])
        got = perturbation_draws(spec, draws, seed)
        assert got.shape == (draws, 4) and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()  # every bit, the sign of a zero included
    with pytest.raises(ValueError, match="at least one draw"):
        perturbation_draws(spec, 0, seed)


def test_toy_problem_wraps_ensemble_as_squared_error():
    spec = ToySpec(perturbation_std=0.5)
    p = toy_problem(spec, num_draws=50, seed=2)
    assert p.num_objectives == 2
    assert p.dimension == 1
    assert p.num_samples == 50
    specs = perturbation_ensemble(spec, 50, seed=2)
    assert np.array_equal(p.labels, [[s.x1 for s in specs], [s.x2 for s in specs]])
    assert np.array_equal(p.offsets, [[s.b1 for s in specs], [s.b2 for s in specs]])
    theta = np.array([0.4])
    losses, grads = p.per_sample(0, theta)
    want = np.array([(0.4 - s.x1) ** 2 + s.b1 for s in specs])
    assert losses == pytest.approx(want, abs=1e-12)
    assert grads[:, 0] == pytest.approx([2.0 * (0.4 - s.x1) for s in specs], abs=1e-12)
