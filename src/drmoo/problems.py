"""Multi-task problem instances.

Three families share one interface:

  * synthetic multi-task linear regression (squared-error loss),
  * multi-task logistic regression over the UCI white-wine CSV, with
    binary labels cut at per-task quantile thresholds,
  * a 1-d bi-objective toy problem whose "dataset" is an ensemble of
    Gaussian perturbations of two parabola anchors.

A MultiTaskProblem owns per-objective datasets and evaluates per-sample
losses and loss gradients at a given parameter vector; all sampling takes an
explicit RNG stream, so a job's draws do not depend on which process runs it
or on what runs beside it. Instances are immutable after construction, which
lets `drmoo run` share them with its forked workers instead of pickling them.

The logistic loss uses this module's own overflow-free sigmoid; numpy is the
only dependency.
"""

import csv
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .trace import atomic_open

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


def sigmoid(z):
    """Elementwise logistic function 1/(1+e^-z), without overflow: exp only
    ever sees -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class MultiTaskProblem:
    """m objectives over per-objective datasets with a shared parameter.

    features: list of (N_i, n) arrays (tasks may share the same array).
    labels: list of (N_i,) arrays.
    offsets: optional list of (N_i,) per-sample additive loss constants;
    they shift loss values (and hence the dual weighting) but never the
    loss gradients. Zero when omitted.
    """

    def __init__(self, features, labels, loss_kind, offsets=None, meta=None):
        if loss_kind not in (LOSS_SQUARED, LOSS_BCE):
            raise ValueError(f"unknown loss kind: {loss_kind!r}")
        if len(features) != len(labels) or len(features) == 0:
            raise ValueError("need matching, nonempty feature and label lists")
        self.features = [np.asarray(x, dtype=float) for x in features]
        self.labels = [np.asarray(y, dtype=float) for y in labels]
        dims = {x.shape[1] for x in self.features}
        if len(dims) != 1:
            raise ValueError(f"objectives disagree on parameter dimension: {sorted(dims)}")
        for i, (x, y) in enumerate(zip(self.features, self.labels)):
            if x.shape[0] != y.shape[0] or x.shape[0] == 0:
                raise ValueError(f"objective {i}: need N >= 1 rows with matching labels")
        if offsets is None:
            self.offsets = [None] * len(self.features)
        else:
            self.offsets = [None if o is None else np.asarray(o, dtype=float) for o in offsets]
            for i, o in enumerate(self.offsets):
                if o is not None and o.shape != self.labels[i].shape:
                    raise ValueError(f"objective {i}: offset shape mismatch")
        self.loss_kind = loss_kind
        self.meta = dict(meta) if meta else {}

    @property
    def num_objectives(self) -> int:
        return len(self.features)

    @property
    def dimension(self) -> int:
        return self.features[0].shape[1]

    def size(self, i: int) -> int:
        return self.features[i].shape[0]

    def per_sample(self, i, theta, idx=None):
        """Per-sample losses and loss gradients of objective i at theta.

        idx selects dataset rows (any integer index array); None means the
        full dataset in order. Returns (losses (B,), grads (B, n)).
        """
        x = self.features[i]
        y = self.labels[i]
        off = self.offsets[i]
        if idx is not None:
            x = x[idx]
            y = y[idx]
            off = None if off is None else off[idx]
        theta = np.asarray(theta, dtype=float)
        z = x @ theta  # (B,)
        if self.loss_kind == LOSS_SQUARED:
            r = z - y
            losses = r * r
            grads = (2.0 * r)[:, None] * x
        else:
            # logistic loss with logits z: log(1 + e^z) - y*z
            losses = np.logaddexp(0.0, z) - y * z
            grads = (sigmoid(z) - y)[:, None] * x
        if off is not None:
            losses = losses + off
        return losses, grads

    def evaluate(self, i, theta, idx=None):
        """(losses, slopes, rows) of objective i at theta; rows as in per_sample,
        the stored feature array itself (no copy) when idx is None. Sample j's
        loss gradient is slopes[j] * rows[j]; offsets shift losses, never slopes.
        per_sample is the independent reference.
        """
        x, y, off = self.features[i], self.labels[i], self.offsets[i]
        if idx is not None:
            x, y = x.take(idx, axis=0), y[idx]
            off = None if off is None else off[idx]
        z = x @ np.asarray(theta, dtype=float)
        if self.loss_kind == LOSS_SQUARED:
            r = z - y
            losses, slopes = r * r, 2.0 * r
        else:
            losses, slopes = np.logaddexp(0.0, z) - y * z, sigmoid(z) - y
        if off is not None:
            losses = losses + off
        return losses, slopes, x

    def sample_batch(self, i, theta, batch_size, rng, full_batch=False):
        """Draw a batch uniformly with replacement and evaluate it at theta,
        as evaluate's (losses, slopes, rows); full_batch=True ignores
        batch_size and rng and evaluates the whole dataset in order
        (deterministic full pass).
        """
        if full_batch:
            return self.evaluate(i, theta)
        if batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {batch_size}")
        return self.evaluate(i, theta, rng.integers(0, self.size(i), size=batch_size))

    def full_eval(self, theta):
        """[(losses, slopes, rows)] over the full dataset, one per objective."""
        return [self.evaluate(i, theta) for i in range(self.num_objectives)]


def estimate_lipschitz(problem: MultiTaskProblem, theta=None) -> float:
    """Empirical loss Lipschitz bound G: the max per-sample gradient norm
    over every objective's full dataset at theta (default theta = 0)."""
    if theta is None:
        theta = np.zeros(problem.dimension)
    g = 0.0
    for i in range(problem.num_objectives):
        _, grads = problem.per_sample(i, theta)
        g = max(g, float(np.sqrt((grads * grads).sum(axis=1)).max()))
    if g <= 0.0:
        raise ValueError("all per-sample gradients vanish; cannot estimate G")
    return g


# ---------------------------------------------------------------------------
# synthetic multi-task linear regression


@dataclass(frozen=True)
class LinearSpec:
    """Three linear tasks with correlated ground-truth parameters.

    Task anchors: theta1* ~ N(0, I); theta2* and theta3* are drawn around
    anchor_scales[k] * theta1* with componentwise std anchor_stds[k]. Labels
    are y^i = X theta^{i,*} + eps^i with noise std noise_stds[i].
    """

    dimension: int = 10
    samples: int = 6000
    anchor_scales: tuple = (-0.2, 0.5)
    anchor_stds: tuple = (0.2, 0.5)
    noise_stds: tuple = (0.2, 0.6, 0.5)
    seed: int = 0

    def __post_init__(self):
        if self.dimension < 1 or self.samples < 1:
            raise ValueError("dimension and samples must be positive")
        if len(self.anchor_scales) != 2 or len(self.anchor_stds) != 2:
            raise ValueError("anchor laws are given for tasks 2 and 3 only")
        if len(self.noise_stds) != 3:
            raise ValueError("need one noise std per task")
        if any(s < 0 for s in self.anchor_stds) or any(s < 0 for s in self.noise_stds):
            raise ValueError("stds must be nonnegative")


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
    t2 = spec.anchor_scales[0] * t1 + spec.anchor_stds[0] * rng.standard_normal(n)
    t3 = spec.anchor_scales[1] * t1 + spec.anchor_stds[1] * rng.standard_normal(n)
    anchors = np.stack([t1, t2, t3])
    labels = [
        x @ anchors[i] + spec.noise_stds[i] * rng.standard_normal(big_n) for i in range(3)
    ]
    return MultiTaskProblem(
        [x, x, x], labels, LOSS_SQUARED, meta={"true_params": anchors, "spec": spec}
    )


# ---------------------------------------------------------------------------
# UCI white-wine logistic tasks


def quantile_threshold(values, s: float) -> float:
    """Smallest value v with empirical CDF(v) >= s; labels are 1(raw >= v).

    s=0 makes every label 1 (v is the column minimum); s=1 leaves 1 only at
    the maximum and its ties.
    """
    values = np.asarray(values, dtype=float)
    uniq, counts = np.unique(values, return_counts=True)  # ascending
    cdf = np.cumsum(counts) / values.size
    k = int(np.searchsorted(cdf, s))
    if k >= uniq.size:
        k = uniq.size - 1
    return float(uniq[k])


def load_wine_tasks(path, thresholds=None) -> MultiTaskProblem:
    """Three binary tasks over the winequality-white CSV.

    The file is semicolon-separated with the canonical UCI header. Each task
    thresholds one source column (quality 0.5, residual sugar 0.8, alcohol
    0.1 by default) at its empirical quantile and labels rows by
    1(raw >= threshold value). The three source columns are excluded from the
    features to avoid label leakage; the remaining nine columns are z-scored
    and a constant bias feature is appended. Loss is the logistic loss.
    """
    if thresholds is None:
        thresholds = dict(WINE_THRESHOLDS)
    else:
        # accept underscore spellings of the column names
        thresholds = {k.replace("_", " "): v for k, v in thresholds.items()}
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"wine CSV not found: {path}")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh, delimiter=";")
        try:
            header = [h.strip().strip('"') for h in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}:1: empty file") from None
        for name in thresholds:
            if name not in header:
                raise ValueError(
                    f"{path}:1: unknown column {name!r}; file has {header}"
                )
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
    data = np.asarray(rows)  # (N, len(header))
    col = {name: data[:, j] for j, name in enumerate(header)}

    labels = []
    for name, s in thresholds.items():
        v = quantile_threshold(col[name], s)
        labels.append((col[name] >= v).astype(float))

    feature_names = [h for h in header if h not in thresholds]
    feats = np.column_stack([col[h] for h in feature_names])
    mu = feats.mean(axis=0)
    sd = feats.std(axis=0)
    sd[sd == 0.0] = 1.0
    feats = (feats - mu) / sd
    feats = np.column_stack([feats, np.ones(feats.shape[0])])  # bias column
    return MultiTaskProblem(
        [feats] * len(labels),
        labels,
        LOSS_BCE,
        meta={"feature_names": feature_names + ["bias"], "thresholds": dict(thresholds)},
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
    path = Path(path)
    with atomic_open(path) as fh:
        fh.write(";".join(f'"{c}"' for c in WINE_COLUMNS) + "\n")
        for j in range(rows):
            vals = []
            for c in WINE_COLUMNS:
                v = cols[c][j]
                vals.append(str(int(v)) if c == "quality" else f"{v:.4f}")
            fh.write(";".join(vals) + "\n")
    return path


# ---------------------------------------------------------------------------
# toy bi-objective perturbation example


def _default_grid():
    return tuple(np.linspace(-1.0, 3.0, 401))


@dataclass(frozen=True)
class ToySpec:
    """Two 1-d parabolas f1 = (theta - x1)^2 + b1, f2 = (theta - x2)^2 + b2.

    perturbation_std is the scale of Gaussian shifts applied to all four
    constants by perturb_toy; grid is the default theta sample set for
    frontier computations.
    """

    x1: float = 0.0
    x2: float = 2.0
    b1: float = 0.0
    b2: float = 0.0
    perturbation_std: float = 0.5
    grid: tuple = None

    def __post_init__(self):
        if not 0 <= self.perturbation_std < math.inf:
            raise ValueError(
                f"perturbation std must be nonnegative and finite, got {self.perturbation_std}"
            )
        if self.grid is None:
            object.__setattr__(self, "grid", _default_grid())
        elif len(self.grid) == 0:
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
    """num_draws independently perturbed copies of spec, deterministic."""
    if num_draws < 1:
        raise ValueError(f"need at least one draw, got {num_draws}")
    child = np.random.SeedSequence(seed).generate_state(num_draws, dtype=np.uint64)
    return [perturb_toy(spec, int(s)) for s in child]


def toy_problem(spec: ToySpec, num_draws: int = 200, seed: int = 0) -> MultiTaskProblem:
    """The toy pair as a 2-objective, 1-parameter MultiTaskProblem.

    Each objective's dataset is the perturbation ensemble: sample j of
    objective 1 has loss (theta - x1_j)^2 + b1_j, which is squared error
    with unit feature, label x1_j, and additive offset b1_j.
    """
    specs = perturbation_ensemble(spec, num_draws, seed)
    ones = np.ones((num_draws, 1))
    labels = [
        np.array([s.x1 for s in specs]),
        np.array([s.x2 for s in specs]),
    ]
    offsets = [
        np.array([s.b1 for s in specs]),
        np.array([s.b2 for s in specs]),
    ]
    return MultiTaskProblem(
        [ones, ones], labels, LOSS_SQUARED, offsets=offsets, meta={"spec": spec}
    )
