"""Problem instances: linear generator, wine loader, toy pair, sampling."""

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
    perturbation_ensemble,
    quantile_threshold,
    resolve_wine_path,
    sigmoid,
    synthesize_wine_csv,
    toy_objectives,
    toy_problem,
    WINE_COLUMNS,
)

from conftest import rng


# --- construction and evaluation --------------------------------------------


def test_problem_validation():
    with pytest.raises(ValueError, match="unknown loss kind"):
        MultiTaskProblem([np.ones((2, 1))], [np.ones(2)], "hinge")
    with pytest.raises(ValueError, match="nonempty"):
        MultiTaskProblem([], [], LOSS_SQUARED)
    with pytest.raises(ValueError, match="disagree on parameter dimension"):
        MultiTaskProblem(
            [np.ones((2, 1)), np.ones((2, 2))], [np.ones(2), np.ones(2)], LOSS_SQUARED
        )
    with pytest.raises(ValueError, match="matching labels"):
        MultiTaskProblem([np.ones((2, 1))], [np.ones(3)], LOSS_SQUARED)
    with pytest.raises(ValueError, match="offset shape"):
        MultiTaskProblem(
            [np.ones((2, 1))], [np.ones(2)], LOSS_SQUARED, offsets=[np.ones(3)]
        )


def test_squared_error_values_and_gradients():
    # loss (x.theta - y)^2 with no 1/2 factor; gradient 2(x.theta - y)x
    p = MultiTaskProblem([np.array([[2.0, 0.0]])], [np.array([1.0])], LOSS_SQUARED)
    losses, grads = p.per_sample(0, np.array([1.0, 5.0]))
    assert losses == pytest.approx([1.0])
    assert grads[0] == pytest.approx([4.0, 0.0])


def test_logistic_single_sample_example():
    # x = 0 with bias 1, y = 1, theta = 0: loss ln 2, gradient -0.5 * x
    p = MultiTaskProblem([np.array([[0.0, 1.0]])], [np.array([1.0])], LOSS_BCE)
    losses, grads = p.per_sample(0, np.zeros(2))
    assert losses[0] == pytest.approx(math.log(2.0), abs=1e-12)
    assert grads[0] == pytest.approx([0.0, -0.5], abs=1e-12)


def _sigmoid_reference(z: float) -> float:
    if z >= -700.0:
        return 1.0 / (1.0 + math.exp(-z))
    return math.exp(z)  # e^z / (1 + e^z) equals e^z to far below one ulp here


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40))
def test_sigmoid_matches_python_float_reference(zs):
    z = np.array(zs)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(z)
    ref = np.array([_sigmoid_reference(v) for v in zs])
    assert got.shape == z.shape
    assert np.all((got >= 0.0) & (got <= 1.0))
    # three roundings in each formula plus exp's own: a few eps apart at most
    np.testing.assert_allclose(got, ref, rtol=4 * np.finfo(float).eps, atol=1e-300)


def test_sigmoid_extremes_raise_no_warning():
    z = np.array([-1e3, -745.2, -709.8, -1.0, -0.0, 0.0, 1.0, 36.8, 709.8, 1e3])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(z)
    assert got[0] == 0.0 and got[-1] == 1.0
    assert got[4] == got[5] == 0.5
    assert np.all(np.diff(got) >= 0.0)


def test_per_sample_gradients_match_finite_differences(small_linear, small_logistic):
    g = rng(71)
    h = 1e-6
    for problem in (small_linear, small_logistic):
        for _ in range(10):
            i = int(g.integers(problem.num_objectives))
            j = int(g.integers(problem.size(i)))
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
    plain = MultiTaskProblem([x], [y], LOSS_SQUARED)
    shifted = MultiTaskProblem([x], [y], LOSS_SQUARED, offsets=[np.array([1.0, -2.0])])
    theta = np.array([3.0])
    l0, g0 = plain.per_sample(0, theta)
    l1, g1 = shifted.per_sample(0, theta)
    assert l1 == pytest.approx(l0 + [1.0, -2.0])
    assert np.array_equal(g0, g1)


def test_sample_batch_with_replacement_and_full_batch(small_linear):
    theta = np.zeros(small_linear.dimension)
    losses, slopes, rows = small_linear.sample_batch(0, theta, 0, None, full_batch=True)
    ref_losses, ref_grads = small_linear.per_sample(0, theta)
    assert np.array_equal(losses, ref_losses)
    assert rows is small_linear.features[0]  # the full batch is not copied
    assert np.array_equal(slopes[:, None] * rows, ref_grads)

    with pytest.raises(ValueError, match="batch size"):
        small_linear.sample_batch(0, theta, 0, rng(0))

    a = small_linear.sample_batch(0, theta, 500, rng(5))[0]
    b = small_linear.sample_batch(0, theta, 500, rng(5))[0]
    assert np.array_equal(a, b)  # same stream, same draw
    assert a.shape == (500,)  # larger than the dataset: with replacement


def test_estimate_lipschitz(small_linear):
    g = estimate_lipschitz(small_linear)
    norms = []
    for i in range(3):
        _, grads = small_linear.per_sample(i, np.zeros(small_linear.dimension))
        norms.append(np.linalg.norm(grads, axis=1).max())
    assert g == pytest.approx(max(norms))
    zero = MultiTaskProblem([np.zeros((2, 1))], [np.zeros(2)], LOSS_SQUARED)
    with pytest.raises(ValueError, match="vanish"):
        estimate_lipschitz(zero)


# --- synthetic linear regression ---------------------------------------------


def test_gen_linear_shapes():
    p = gen_linear(LinearSpec(seed=1))
    assert p.num_objectives == 3
    assert p.dimension == 10
    assert all(p.features[i].shape == (6000, 10) for i in range(3))
    assert all(p.labels[i].shape == (6000,) for i in range(3))
    assert p.loss_kind == LOSS_SQUARED
    assert p.meta["true_params"].shape == (3, 10)


def test_gen_linear_noise_variances_within_ten_percent():
    p = gen_linear(LinearSpec(seed=0))
    anchors = p.meta["true_params"]
    for i, var in enumerate((0.04, 0.36, 0.25)):
        eps = p.labels[i] - p.features[i] @ anchors[i]
        assert abs(eps.var() - var) <= 0.1 * var


def test_gen_linear_bit_reproducible():
    a = gen_linear(LinearSpec(seed=9))
    b = gen_linear(LinearSpec(seed=9))
    c = gen_linear(LinearSpec(seed=10))
    assert np.array_equal(a.features[0], b.features[0])
    assert all(np.array_equal(a.labels[i], b.labels[i]) for i in range(3))
    assert not np.array_equal(a.labels[0], c.labels[0])


def test_gen_linear_zero_noise_equal_anchors():
    # all anchors equal and no noise: losses vanish exactly at theta*
    spec = LinearSpec(
        dimension=4,
        samples=50,
        anchor_scales=(1.0, 1.0),
        anchor_stds=(0.0, 0.0),
        noise_stds=(0.0, 0.0, 0.0),
        seed=3,
    )
    p = gen_linear(spec)
    theta_star = p.meta["true_params"][0]
    assert np.array_equal(p.meta["true_params"][1], theta_star)
    for i in range(3):
        losses, grads = p.per_sample(i, theta_star)
        assert np.abs(losses).max() <= 1e-22
        assert np.abs(grads).max() <= 1e-10


def test_linear_spec_validation():
    with pytest.raises(ValueError):
        LinearSpec(dimension=0)
    with pytest.raises(ValueError):
        LinearSpec(noise_stds=(0.1, 0.1))
    with pytest.raises(ValueError):
        LinearSpec(anchor_stds=(-0.1, 0.2))


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
    feats = p.features[0]
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

    path = _write_wine(tmp_path, [_wine_row(5)])
    with pytest.raises(ValueError, match=r"wine\.csv:1: unknown column 'vintage'"):
        load_wine_tasks(path, thresholds={"vintage": 0.5})

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
    assert p.size(0) == 60
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


def test_toy_problem_wraps_ensemble_as_squared_error():
    spec = ToySpec(perturbation_std=0.5)
    p = toy_problem(spec, num_draws=50, seed=2)
    assert p.num_objectives == 2
    assert p.dimension == 1
    assert p.size(0) == 50
    specs = perturbation_ensemble(spec, 50, seed=2)
    theta = np.array([0.4])
    losses, grads = p.per_sample(0, theta)
    want = np.array([(0.4 - s.x1) ** 2 + s.b1 for s in specs])
    assert losses == pytest.approx(want, abs=1e-12)
    assert grads[:, 0] == pytest.approx([2.0 * (0.4 - s.x1) for s in specs], abs=1e-12)
