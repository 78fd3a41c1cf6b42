"""Shared fixtures: small problem instances that keep the suite fast."""

import numpy as np
import pytest

from drmoo.problems import LinearSpec, MultiTaskProblem, gen_linear, LOSS_BCE


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


@pytest.fixture
def small_linear() -> MultiTaskProblem:
    # 3 tasks, 6 dims, 200 rows: big enough for batch sampling, cheap enough
    # to full_eval in a loop
    return gen_linear(LinearSpec(dimension=6, samples=200, seed=7))


@pytest.fixture
def small_logistic() -> MultiTaskProblem:
    g = rng(23)
    x = np.column_stack([g.standard_normal((150, 4)), np.ones(150)])
    probs = 1.0 / (1.0 + np.exp(-x[:, :4] @ g.standard_normal(4)))
    labels = [(g.random(150) < probs).astype(float) for _ in range(2)]
    return MultiTaskProblem(x, labels, LOSS_BCE)


class SamplerRecorder:
    """Problem proxy recording each theta handed to the stacked sampler and a
    copy of the losses it returned (the solvers overwrite those in place)."""

    def __init__(self, inner):
        self.inner = inner
        self.thetas, self.losses = [], []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def sample_batch(self, theta, idx=None):
        self.thetas.append(np.array(theta, copy=True))
        batch = self.inner.sample_batch(theta, idx)
        self.losses.append(batch[0].copy())
        return batch
