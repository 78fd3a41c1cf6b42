"""Multi-task problem instances.

Three families share one interface:

  * synthetic multi-task linear regression (squared-error loss),
  * multi-task logistic regression over the UCI white-wine CSV, with
    binary labels cut at per-task quantile thresholds,
  * a 1-d bi-objective toy problem whose "dataset" is an ensemble of
    Gaussian perturbations of two parabola anchors.

A MultiTaskProblem owns one feature array that its objectives share, plus
per-objective labels, and evaluates the losses and loss gradients of every
objective at once on given row indices; the caller draws the indices from
its own RNG streams, so a job's draws do not depend on which process runs it
or on what runs beside it. Instances are immutable after construction, which
lets `drmoo run` share them with its forked workers instead of pickling them.

The logistic loss and its slope come from one exp per sample (see logistic);
numpy is the only dependency.
"""

import csv
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .trace import atomic_open, read_lines

LOSS_SQUARED = "squared_error"
LOSS_BCE = "binary_cross_entropy"

WINE_ENV = "DRMOO_WINE_PATH"
WINE_DEFAULT_PATH = Path("data") / "winequality-white.csv"

# canonical UCI winequality-white header, semicolon separated
WINE_COLUMNS = (
    "fixed acidity",
    "volatile acidity",
    "citric acid",
    "residual sugar",
    "chlorides",
    "free sulfur dioxide",
    "total sulfur dioxide",
    "density",
    "pH",
    "sulphates",
    "alcohol",
    "quality",
)

WINE_THRESHOLDS = {"quality": 0.5, "residual sugar": 0.8, "alcohol": 0.1}


def logistic(z):
    """Elementwise (log(1 + e^z), 1/(1 + e^-z)): the softplus and the sigmoid,
    from one exp that only ever sees -|z|, so neither overflows."""
    e = np.exp(-np.abs(z))
    return np.maximum(z, 0.0) + np.log1p(e), np.where(z >= 0, 1.0, e) / (1.0 + e)


class MultiTaskProblem:
    """m objectives over one dataset with a shared parameter.

    features: (N, n) array, the rows every objective sees.
    labels: (m, N) array, row i holds objective i's labels.
    offsets: optional (m, N) per-sample additive loss constants; they shift
    loss values (and hence the dual weighting) but never the loss
    gradients. Zero when omitted.
    """

    def __init__(self, features, labels, loss_kind, offsets=None, meta=None):
        if loss_kind not in (LOSS_SQUARED, LOSS_BCE):
            raise ValueError(f"unknown loss kind: {loss_kind!r}")
        x = self.features = np.asarray(features, dtype=float)
        y = self.labels = np.asarray(labels, dtype=float)
        self.offsets = None if offsets is None else np.asarray(offsets, dtype=float)
        if x.ndim != 2 or x.shape[0] == 0:
            raise ValueError(f"need (N, n) features with N >= 1, got shape {x.shape}")
        if y.ndim != 2 or y.shape[0] == 0 or y.shape[1:] != x.shape[:1]:
            raise ValueError(f"need (m, N) labels, m >= 1, N = {x.shape[0]}; got {y.shape}")
        if self.offsets is not None and self.offsets.shape != y.shape:
            raise ValueError(f"offset shape {self.offsets.shape} != label shape {y.shape}")
        # objective i's label of row r sits at flat index r + _row0[i]
        self._row0 = np.arange(y.shape[0])[:, None] * y.shape[1]
        self.loss_kind = loss_kind
        self.meta = dict(meta) if meta else {}

    @property
    def num_objectives(self) -> int:
        return self.labels.shape[0]

    @property
    def dimension(self) -> int:
        return self.features.shape[1]

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    def per_sample(self, i, theta, idx=None):
        """Per-sample losses and loss gradients of objective i at theta.

        idx selects dataset rows (any integer index array); None means the
        full dataset in order. Returns (losses (B,), grads (B, n)). The
        independent reference for sample_batch.
        """
        x, y = self.features, self.labels[i]
        off = None if self.offsets is None else self.offsets[i]
        if idx is not None:
            x, y = x[idx], y[idx]
            off = None if off is None else off[idx]
        theta = np.asarray(theta, dtype=float)
        z = x @ theta  # (B,)
        if self.loss_kind == LOSS_SQUARED:
            r = z - y
            losses = r * r
            grads = (2.0 * r)[:, None] * x
        else:
            # logistic loss with logits z: log(1 + e^z) - y*z
            softplus, sigmoid = logistic(z)
            losses = softplus - y * z
            grads = (sigmoid - y)[:, None] * x
        if off is not None:
            losses = losses + off
        return losses, grads

    def sample_batch(self, theta, idx=None):
        """(losses, slopes, rows) at theta from one gather and one matmul.

        theta is (n,) or an (S, n) stack, one parameter per seed. idx is a
        (k*m, B) integer array, or an (S, k*m, B) block with one per seed,
        whose row r*m + i picks objective i's batch for the k-th of k
        estimators; None means the full dataset. losses and slopes are
        (..., k*m, B), with an (S, m, N) pair for a stacked full batch; rows
        are the gathered (..., k*m, B, n) rows, or for the full batch the
        stored (N, n) features themselves (no copy), which every objective
        shares. Sample j of row i has loss gradient slopes[..., i, j] times
        its row; offsets shift losses, never slopes. Both are fresh arrays.
        """
        x, y, off = self.features, self.labels, self.offsets
        if idx is not None:
            flat = (idx.reshape(-1, len(y), idx.shape[-1]) + self._row0).reshape(idx.shape)
            x, y = x.take(idx, axis=0), y.take(flat)
            off = None if off is None else off.take(flat)
        z = (x @ theta[..., None, :, None])[..., 0]
        if self.loss_kind == LOSS_SQUARED:
            r = z - y
            losses, slopes = r * r, 2.0 * r
        else:
            softplus, sigmoid = logistic(z)
            losses, slopes = softplus - y * z, sigmoid - y
        if off is not None:
            losses = losses + off
        return losses, slopes, x

    full_eval = sample_batch  # full_eval(theta): the metric-only full batch


def estimate_lipschitz(problem: MultiTaskProblem, theta=None) -> float:
    """Empirical loss Lipschitz bound G: the max per-sample gradient norm (slope
    times row) in sample_batch's full batch at theta (default theta = 0)."""
    if theta is None:
        theta = np.zeros(problem.dimension)
    _, slopes, rows = problem.sample_batch(theta)
    g = 0.0
    for s in slopes:
        grads = s[:, None] * rows
        g = max(g, float(np.sqrt((grads * grads).sum(axis=1)).max()))
    if g <= 0.0:
        raise ValueError("all per-sample gradients vanish; cannot estimate G")
    return g


# ---------------------------------------------------------------------------
# synthetic multi-task linear regression


# gen_linear's task laws (see LinearSpec)
ANCHOR_SCALES = (-0.2, 0.5)
ANCHOR_STDS = (0.2, 0.5)
NOISE_STDS = (0.2, 0.6, 0.5)


@dataclass(frozen=True)
class LinearSpec:
    """Three linear tasks with correlated ground-truth parameters.

    Task anchors: theta1* ~ N(0, I); theta2* and theta3* are drawn around
    ANCHOR_SCALES[k] * theta1* with componentwise std ANCHOR_STDS[k]. Labels
    are y^i = X theta^{i,*} + eps^i with noise std NOISE_STDS[i].
    """

    dimension: int = 10
    samples: int = 6000
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 1 or self.samples < 1:
            raise ValueError("dimension and samples must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


def gen_linear(spec: LinearSpec) -> MultiTaskProblem:
    """Generate the three-task regression instance; bit-reproducible per seed.

    Draw order (one PCG64 stream): X, theta1*, theta2*, theta3*, then the
    three noise vectors. Loss is (x.theta - y)^2 with no 1/2 factor. The
    anchors are stored in meta["true_params"] as a (3, n) array.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    n, big_n = spec.dimension, spec.samples
    x = rng.standard_normal((big_n, n))
    t1 = rng.standard_normal(n)
    t2 = ANCHOR_SCALES[0] * t1 + ANCHOR_STDS[0] * rng.standard_normal(n)
    t3 = ANCHOR_SCALES[1] * t1 + ANCHOR_STDS[1] * rng.standard_normal(n)
    anchors = np.stack([t1, t2, t3])
    labels = [x @ anchors[i] + NOISE_STDS[i] * rng.standard_normal(big_n) for i in range(3)]
    return MultiTaskProblem(x, labels, LOSS_SQUARED, meta={"true_params": anchors, "spec": spec})


# ---------------------------------------------------------------------------
# UCI white-wine logistic tasks


def quantile_threshold(values, s: float) -> float:
    """Smallest value v with empirical CDF(v) >= s; labels are 1(raw >= v).

    s=0 makes every label 1 (v is the column minimum); s=1 leaves 1 only at
    the maximum and its ties. cdf[-1] is exactly 1.0, so every s <= 1 finds
    an entry.
    """
    values = np.asarray(values, dtype=float)
    uniq, counts = np.unique(values, return_counts=True)  # ascending
    cdf = np.cumsum(counts) / values.size
    return float(uniq[np.searchsorted(cdf, s)])


def _raise_wine_row_error(path, header):
    """Raise the first fault in the wine CSV's data rows, with its line number:
    the row-by-row csv and float() read, which load_wine_tasks runs only to say
    where its one-pass read failed. Cells that float() takes but that read does
    not ('1_0', non-ASCII digits) count as malformed."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh, delimiter=";"), start=1):
            if lineno == 1 or not row:  # the header, or a blank line
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}"
                )
            try:
                if any("_" in v or not v.strip().isascii() for v in row):
                    raise ValueError
                vals = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed numeric row") from None
            if not all(map(math.isfinite, vals)):
                j = next(j for j, v in enumerate(vals) if not math.isfinite(v))
                raise ValueError(
                    f"{path}:{lineno}: non-finite value {row[j]!r} in column {header[j]!r}"
                )
    raise ValueError(f"{path}:2: no data rows")


def load_wine_tasks(path) -> MultiTaskProblem:
    """Three binary tasks over the winequality-white CSV.

    The file is semicolon-separated with the canonical UCI header. Each task
    thresholds one source column at its WINE_THRESHOLDS quantile (quality
    0.5, residual sugar 0.8, alcohol 0.1) and labels rows by
    1(raw >= threshold value). The three source columns are excluded from the
    features to avoid label leakage; the remaining nine columns are z-scored
    and a constant bias feature is appended. Loss is the logistic loss.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"wine CSV not found: {path}")
    lines = read_lines(path)  # \r and \r\n reach loadtxt as \n
    if not lines:
        raise ValueError(f"{path}:1: empty file")
    header = [h.strip().strip('"') for h in next(csv.reader(lines[:1], delimiter=";"))]
    for name in WINE_THRESHOLDS:
        if name not in header:
            raise ValueError(f"{path}:1: missing column {name!r}; file has {header}")
    lines = [line for line in lines[1:] if line != "\n"]
    data = None
    try:
        if lines:  # loadtxt warns when there are none
            data = np.loadtxt(lines, delimiter=";", quotechar='"', comments=None, ndmin=2)
    except ValueError:
        pass
    if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
        _raise_wine_row_error(path, header)
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
    feats = np.column_stack([feats, np.ones(feats.shape[0])])  # bias column
    return MultiTaskProblem(
        feats, labels, LOSS_BCE, meta={"feature_names": feature_names + ["bias"]}
    )


def resolve_wine_path(explicit=None):
    """Locate the wine CSV: explicit arg, then $DRMOO_WINE_PATH, then
    ./data/winequality-white.csv. Returns None when nothing exists."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(WINE_ENV)
    if env:
        return Path(env)
    if WINE_DEFAULT_PATH.exists():
        return WINE_DEFAULT_PATH
    return None


def synthesize_wine_csv(path, seed: int = 0, rows: int = 4898) -> Path:
    """Write a deterministic stand-in CSV with the wine schema.

    For environments without the real dataset: same header, plausible value
    ranges, and mild correlations (alcohol vs. density vs. residual sugar,
    quality loosely tracking alcohol) so the quantile labelling is
    nondegenerate. Not the UCI data; do not use it to compare against
    published numbers.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    alcohol = np.clip(rng.normal(10.5, 1.2, rows), 8.0, 14.2)
    sugar = np.clip(rng.lognormal(1.3, 0.8, rows), 0.6, 65.0)
    density = np.clip(
        0.9940 - 0.0009 * (alcohol - 10.5) + 0.0004 * np.log1p(sugar)
        + rng.normal(0.0, 0.0008, rows),
        0.987,
        1.04,
    )
    quality = np.clip(
        np.rint(5.8 + 0.35 * (alcohol - 10.5) + rng.normal(0.0, 0.8, rows)), 3, 9
    )
    cols = {
        "fixed acidity": np.clip(rng.normal(6.85, 0.84, rows), 3.8, 14.2),
        "volatile acidity": np.clip(rng.normal(0.28, 0.10, rows), 0.08, 1.1),
        "citric acid": np.clip(rng.normal(0.33, 0.12, rows), 0.0, 1.66),
        "residual sugar": sugar,
        "chlorides": np.clip(rng.normal(0.046, 0.02, rows), 0.009, 0.35),
        "free sulfur dioxide": np.clip(rng.normal(35.3, 17.0, rows), 2.0, 289.0),
        "total sulfur dioxide": np.clip(rng.normal(138.4, 42.5, rows), 9.0, 440.0),
        "density": density,
        "pH": np.clip(rng.normal(3.19, 0.15, rows), 2.7, 3.9),
        "sulphates": np.clip(rng.normal(0.49, 0.11, rows), 0.22, 1.08),
        "alcohol": alcohol,
        "quality": quality,
    }
    row = ";".join("%d" if c == "quality" else "%.4f" for c in WINE_COLUMNS) + "\n"
    path = Path(path)
    with atomic_open(path) as fh:
        fh.write(";".join(f'"{c}"' for c in WINE_COLUMNS) + "\n")
        table = np.column_stack([cols[c] for c in WINE_COLUMNS])
        fh.writelines(row % tuple(r.tolist()) for r in table)  # a row's floats at a time
    return path


# ---------------------------------------------------------------------------
# toy bi-objective perturbation example


@dataclass(frozen=True)
class ToySpec:
    """Two 1-d parabolas f1 = (theta - x1)^2 + b1, f2 = (theta - x2)^2 + b2.

    perturbation_std is the scale of Gaussian shifts applied to all four
    constants by perturb_toy; grid is the theta sample set for frontier
    computations, by default 401 evenly spaced points on [-1, 3].
    """

    x1: float = 0.0
    x2: float = 2.0
    b1: float = 0.0
    b2: float = 0.0
    perturbation_std: float = 0.5
    grid: tuple = tuple(np.linspace(-1.0, 3.0, 401))

    def __post_init__(self):
        if not 0 <= self.perturbation_std < math.inf:
            raise ValueError(
                f"perturbation std must be nonnegative and finite, got {self.perturbation_std}"
            )
        if len(self.grid) == 0:
            raise ValueError("grid must be nonempty")


def toy_objectives(spec: ToySpec, theta):
    """(f1, f2) at theta; theta may be a scalar or an array."""
    theta = np.asarray(theta, dtype=float)
    f1 = np.square(theta - spec.x1) + spec.b1
    f2 = np.square(theta - spec.x2) + spec.b2
    if f1.ndim == 0:
        return f1.item(), f2.item()
    return f1, f2


def perturb_toy(spec: ToySpec, seed: int) -> ToySpec:
    """Shift x1, x2, b1, b2 by independent N(0, std^2) draws; deterministic
    per seed. std and grid carry over unchanged."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    dx1, dx2, db1, db2 = spec.perturbation_std * rng.standard_normal(4)
    return replace(spec, x1=spec.x1 + dx1, x2=spec.x2 + dx2, b1=spec.b1 + db1, b2=spec.b2 + db2)


def perturbation_ensemble(spec: ToySpec, num_draws: int, seed: int):
    """num_draws independently perturbed copies of spec, deterministic; the
    reference for perturbation_draws."""
    if num_draws < 1:
        raise ValueError(f"need at least one draw, got {num_draws}")
    child = np.random.SeedSequence(seed).generate_state(num_draws, dtype=np.uint64)
    return [perturb_toy(spec, int(s)) for s in child]


def perturbation_draws(spec: ToySpec, num_draws: int, seed: int) -> np.ndarray:
    """The constants of perturbation_ensemble(spec, num_draws, seed) as a
    (num_draws, 4) array of rows (x1, b1, x2, b2), bit for bit: one PCG64
    stream per draw, seeded and shifted as perturb_toy does, and no ToySpec."""
    if num_draws < 1:
        raise ValueError(f"need at least one draw, got {num_draws}")
    child = np.random.SeedSequence(seed).generate_state(num_draws, dtype=np.uint64).tolist()
    gen, bits = np.random.Generator, np.random.PCG64  # PCG64(s) seeds from SeedSequence(s)
    shifts = np.array([gen(bits(s)).standard_normal(4) for s in child])  # dx1, dx2, db1, db2
    base = np.array([spec.x1, spec.b1, spec.x2, spec.b2])
    return base + spec.perturbation_std * shifts[:, [0, 2, 1, 3]]


def toy_problem(spec: ToySpec, num_draws: int, seed: int) -> MultiTaskProblem:
    """The toy pair as a 2-objective, 1-parameter MultiTaskProblem.

    Each objective's dataset is the perturbation ensemble: sample j of
    objective 1 has loss (theta - x1_j)^2 + b1_j, which is squared error
    with unit feature, label x1_j, and additive offset b1_j.
    """
    draws = perturbation_draws(spec, num_draws, seed).T  # rows x1, b1, x2, b2
    return MultiTaskProblem(
        np.ones((num_draws, 1)), draws[[0, 2]], LOSS_SQUARED, offsets=draws[[1, 3]],
        meta={"spec": spec},
    )
