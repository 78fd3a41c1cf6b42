"""Simplex projection against the exhaustive active-set oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drmoo.checks import simplex_projection_oracle
from drmoo.simplex import project_simplex, uniform_preference, validate_preference

from conftest import rng

vectors = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=8
).map(np.array)


def test_projection_examples():
    assert np.array_equal(project_simplex([0.5, 0.5]), [0.5, 0.5])
    assert np.array_equal(project_simplex([2.0, 0.0]), [1.0, 0.0])
    # tau = 0.2 moves both coordinates onto the simplex
    assert project_simplex([0.6, 0.8]) == pytest.approx([0.4, 0.6], abs=1e-12)


def test_projection_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        project_simplex([])
    with pytest.raises(ValueError):
        project_simplex([np.nan, 0.5])


def test_uniform_preference():
    assert np.array_equal(uniform_preference(1), [1.0])
    assert np.array_equal(uniform_preference(4), [0.25] * 4)
    w = uniform_preference(3)
    assert w.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        uniform_preference(0)


def test_validate_preference_flags_violations():
    validate_preference(np.array([0.3, 0.7]))
    with pytest.raises(ValueError):
        validate_preference(np.array([0.5, 0.6]))
    with pytest.raises(ValueError):
        validate_preference(np.array([-0.1, 1.1]))
    for not_a_vector in ([], [[0.5, 0.5]]):
        with pytest.raises(ValueError, match="nonempty 1-d vector"):
            validate_preference(not_a_vector)


@given(vectors)
def test_projection_lands_on_simplex(v):
    w = project_simplex(v)
    assert w.min() >= 0.0
    assert abs(w.sum() - 1.0) <= 1e-12


@given(vectors)
def test_projection_idempotent(v):
    w = project_simplex(v)
    assert np.abs(project_simplex(w) - w).max() <= 1e-12


@given(vectors)
def test_projection_preserves_order(v):
    w = project_simplex(v)
    order = np.argsort(v)
    assert np.all(np.diff(w[order]) >= -1e-12)


def test_projection_matches_active_set_oracle():
    # the 1000-vector sweep runs in the acceptance suite; a seeded sample here
    g = rng(61)
    for _ in range(300):
        v = g.normal(0, 2, int(g.integers(1, 6)))
        got = project_simplex(v)
        want = simplex_projection_oracle(v)
        assert np.abs(got - want).max() <= 1e-8


def test_projection_on_far_away_points():
    # strongly negative inputs collapse to the largest coordinate's vertex
    assert np.array_equal(project_simplex([-50.0, -51.0]), [1.0, 0.0])
    w = project_simplex(np.full(5, 100.0))
    assert w == pytest.approx([0.2] * 5, abs=1e-12)


def test_long_vectors_match_active_set_oracle():
    g = rng(62)
    for _ in range(10):
        v = g.normal(0, 2, int(g.integers(9, 12)))
        assert np.abs(project_simplex(v) - simplex_projection_oracle(v)).max() <= 1e-8


def _numpy_projection(v):
    """The sort-and-threshold projection in numpy operations, which
    project_simplex ran before it moved to Python floats."""
    u = np.sort(v, kind="stable")[::-1]
    css = np.cumsum(u)
    cand = np.nonzero(u - (css - 1.0) / np.arange(1, v.size + 1) > 0.0)[0]
    if cand.size == 0:  # the large-magnitude fallback
        with np.errstate(over="ignore"):
            return _numpy_projection(np.maximum(v - u[0], -2.0))
    tau = (css[cand[-1]] - 1.0) / (cand[-1] + 1.0)
    return np.maximum(v - tau, 0.0)


entries = st.one_of(
    st.floats(-10.0, 10.0, allow_nan=False),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]),  # ties and signed zeros
    # around 2^53 u_1 - 1 rounds back to u_1, which takes the fallback
    st.sampled_from([2.0**53, 2.0**53 + 2.0, 2.0**54, -(2.0**53), 1e18]),
)


@settings(max_examples=500, deadline=None)
@given(st.lists(entries, min_size=1, max_size=12).map(np.array))
@example(np.array([1.0, -0.0]))  # -0.0 - tau with tau = 0.0: numpy clamps to +0.0
@example(np.array([0.5, -0.0, 0.5]))
def test_float_projection_is_bit_identical_to_numpy_path(v):
    assert project_simplex(v).tobytes() == _numpy_projection(v).tobytes()


def test_float_projection_examples():
    assert np.array_equal(project_simplex([7.0]), [1.0])
    assert np.array_equal(project_simplex([2.0**54, 2.0**54]), [0.5, 0.5])  # fallback
    assert np.array_equal(project_simplex([0.0, -0.0]), [0.5, 0.5])
