"""Random scenario generation for tests and benchmarks.

Two planted structures are available:

* ``feature_sign``: the best algorithm is a deterministic function of the
  signs of the leading features, so feature-based selectors can in
  principle recover it,
* ``uniform``: runtimes are independent of the features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .scenario import ScenarioSpec

RULES = ("feature_sign", "uniform")


@dataclass(frozen=True)
class SyntheticConfig:
    n_instances: int = 60
    n_algorithms: int = 3
    n_features: int = 4
    n_folds: int = 5
    cutoff: float = 100.0
    rule: str = "feature_sign"
    unsolved_rate: float = 0.1
    feature_cost: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_instances < 1:
            raise InvalidConfig("n_instances must be at least 1")
        if self.n_algorithms < 2:
            raise InvalidConfig("n_algorithms must be at least 2")
        if self.n_features < 1:
            raise InvalidConfig("n_features must be at least 1")
        if not 1 <= self.n_folds <= self.n_instances:
            raise InvalidConfig("n_folds must be in [1, n_instances]")
        if not 0 < self.cutoff < math.inf:
            raise InvalidConfig(f"cutoff must be positive and finite, got {self.cutoff}")
        if self.rule not in RULES:
            raise InvalidConfig(f"unknown rule {self.rule!r}, expected one of {RULES}")
        if not 0.0 <= self.unsolved_rate <= 1.0:
            raise InvalidConfig("unsolved_rate must be in [0, 1]")
        if not 0 <= self.feature_cost < math.inf:
            raise InvalidConfig(
                f"feature_cost must be nonnegative and finite, got {self.feature_cost}"
            )
        if self.seed < 0:
            raise InvalidConfig(f"seed must be nonnegative, got {self.seed}")


def _planted_best(features: np.ndarray, n_algorithms: int) -> np.ndarray:
    """Map sign bits of the leading features to an algorithm index."""
    n_bits = max(1, math.ceil(math.log2(n_algorithms)))
    n_bits = min(n_bits, features.shape[1])
    bits = (features[:, :n_bits] > 0).astype(np.int64)
    codes = np.zeros(features.shape[0], dtype=np.int64)
    for j in range(n_bits):
        codes = codes * 2 + bits[:, j]
    return codes % n_algorithms


def generate_synthetic(config: SyntheticConfig) -> ScenarioSpec:
    config.validate()
    rng = np.random.default_rng(config.seed)
    n, k, cutoff = config.n_instances, config.n_algorithms, config.cutoff

    features = rng.normal(0.0, 1.0, size=(n, config.n_features))

    if config.rule == "feature_sign":
        best = _planted_best(features, k)
    else:
        best = rng.integers(0, k, size=n)

    # Winner lands well under the cutoff; the rest are a noisy multiple of
    # it and may time out.
    base = rng.uniform(1.0, 0.3 * cutoff, size=n)
    runtimes = base[:, None] * 4.0 + rng.uniform(0.0, 0.5 * cutoff, size=(n, k))
    runtimes[np.arange(n), best] = base
    # Independent extra timeouts to keep unsolved cells plausible.
    extra = rng.random(size=(n, k)) < config.unsolved_rate
    extra[np.arange(n), best] = False
    runtimes[extra] = cutoff + 1.0

    solved = runtimes <= cutoff
    runtimes = np.where(solved, runtimes, cutoff)

    folds = (np.arange(n) % config.n_folds) + 1
    width = max(1, len(str(n - 1)))
    instances = [f"inst_{i:0{width}d}" for i in range(n)]
    algorithms = [f"algo_{a}" for a in range(k)]

    return ScenarioSpec.create(
        name=f"synthetic_{config.rule}_{config.seed}",
        instances=instances,
        algorithms=algorithms,
        cutoff=cutoff,
        runtimes=runtimes,
        solved=solved,
        features=features,
        feature_costs=np.full(n, float(config.feature_cost)),
        folds=folds,
    )
