"""Stub selectors and a designed scenario for ensemble-benefit tests.

Each half-space stub is perfect on one side of feature 0 and
uninformative (flat scores) on the other, so no single member wins
everywhere but a score-averaging ensemble can recover the per-instance
best almost always. The stubs register into the selector registry so
approach strings like ``voting[mean]{halfpos,halfneg,noisy}`` resolve;
tests must use the context manager so teardown restores the registry.
"""

from __future__ import annotations

import contextlib
import zlib

import numpy as np

from metaselect import selectors
from metaselect.scenario import ScenarioSpec
from metaselect.selectors import Selector, dummy_scores


class _HalfSpaceStub(Selector):
    side = 1.0
    favored = 1

    def _fit(self, scenario, train_indices):
        pass

    def scores_batch(self, x):
        x = np.asarray(x, dtype=np.float64)
        # uninformative side: constant, so mean aggregation sees 0.5
        out = np.full((x.shape[0], self.n_algorithms_), 0.5)
        out[x[:, 0] * self.side > 0] = dummy_scores(self.n_algorithms_, self.favored)
        return out


class PositiveHalfStub(_HalfSpaceStub):
    side, favored = 1.0, 1


class NegativeHalfStub(_HalfSpaceStub):
    side, favored = -1.0, 2


class NoiseStub(Selector):
    """Pseudo-random scores, stable per (fit entropy, feature vector)."""

    def _fit(self, scenario, train_indices):
        self._key = int(self._seed_sequence().generate_state(1)[0])

    def scores_batch(self, x):
        x = np.asarray(x, dtype=np.float64)
        return np.stack(
            [
                np.random.default_rng([self._key, zlib.crc32(row.tobytes())]).random(
                    self.n_algorithms_
                )
                for row in x
            ]
        )


STUB_REGISTRY = {
    "halfpos": (PositiveHalfStub, {}),
    "halfneg": (NegativeHalfStub, {}),
    "noisy": (NoiseStub, {}),
}


@contextlib.contextmanager
def registered_stubs():
    selectors._REGISTRY.update(STUB_REGISTRY)
    try:
        yield
    finally:
        for name in STUB_REGISTRY:
            selectors._REGISTRY.pop(name, None)


def complementary_scenario(seed: int, n: int = 200) -> ScenarioSpec:
    """Three algorithms: one steady mid-range, two fast ones that are
    each excellent on one half-space of feature 0 and nearly time out on
    the other. The wrong-side runs still solve, so an occasional misvote
    costs ~95s rather than the 10x penalty; what separates a good
    portfolio from a bad one is how often it finds the fast side."""
    rng = np.random.default_rng([seed, 0xC0FFEE])
    f0 = rng.uniform(-1.0, 1.0, size=n)
    f0 = np.where(np.abs(f0) < 1e-3, 1e-3, f0)  # keep the split strict
    features = np.column_stack([f0, rng.normal(size=n)])
    cutoff = 100.0
    fast = rng.uniform(0.5, 2.0, size=n)
    slow = rng.uniform(90.0, 99.0, size=n)
    steady = rng.uniform(45.0, 55.0, size=n)
    pos = f0 > 0
    runtimes = np.column_stack(
        [steady, np.where(pos, fast, slow), np.where(pos, slow, fast)]
    )
    solved = np.ones((n, 3), dtype=bool)
    return ScenarioSpec.create(
        name=f"complementary-{seed}",
        instances=[f"i{j:03d}" for j in range(n)],
        algorithms=["steady", "posfast", "negfast"],
        cutoff=cutoff,
        runtimes=runtimes,
        solved=solved,
        features=features,
        folds=(np.arange(n) % 5) + 1,
    )
