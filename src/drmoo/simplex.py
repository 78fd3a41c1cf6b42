"""Probability simplex domain of preference vectors.

Preference vectors w live on the simplex {w : w >= 0, sum w = 1}; every
solver iteration ends with a Euclidean projection back onto it.
"""

import math

import numpy as np


def project_simplex(v) -> np.ndarray:
    """Euclidean projection of v onto the probability simplex.

    Sort-and-threshold method: sort descending, find the largest j with
    u_j - (sum_{i<=j} u_i - 1)/j > 0, subtract that threshold, clamp at 0.
    O(m log m), exact, idempotent. It runs in Python floats: for the handful
    of objectives a solver has, a few scalar operations cost less than
    numpy's per-call overhead.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("cannot project an empty vector onto the simplex")
    vals = v.tolist()
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"cannot project a non-finite vector: {v}")
    css, tau = 0.0, None
    for j, x in enumerate(sorted(vals, reverse=True), start=1):
        css += x
        if x - (css - 1.0) / j > 0.0:
            tau = (css - 1.0) / j
    if tau is not None:  # +0.0 wherever x <= tau, as np.maximum(v - tau, 0.0) gives
        return np.array([x - tau if x > tau else 0.0 for x in vals])
    # j=1 qualifies (u_1 - (u_1 - 1)/1 = 1 > 0) except when |u_1| is so large
    # that u_1 - 1 rounds back to u_1 (magnitudes around 2^53 and beyond):
    # shift by the max (projection is invariant along the all-ones direction)
    # and clamp. The threshold root satisfies tau >= max(v) - 1, so entries
    # more than 1 below the max project to 0 regardless and the clamp at -2 is
    # exact; after the shift the max is 0 and the candidate set is nonempty
    with np.errstate(over="ignore"):  # the clamp absorbs -inf
        return project_simplex(np.maximum(v - v.max(), -2.0))


def uniform_preference(m: int) -> np.ndarray:
    """The barycenter [1/m, ..., 1/m]; the default w_0."""
    if m < 1:
        raise ValueError(f"need at least one objective, got m={m}")
    return np.full(m, 1.0 / m)


def validate_preference(w, tol: float = 1e-12) -> np.ndarray:
    """Assert w is on the simplex (entries >= 0, sum within tol of 1)."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValueError("preference vector must be a nonempty 1-d vector")
    if np.any(w < -tol):
        raise ValueError(f"preference vector has negative entries: {w}")
    s = float(w.sum())
    if abs(s - 1.0) > tol:
        raise ValueError(f"preference vector sums to {s}, not 1")
    return w
