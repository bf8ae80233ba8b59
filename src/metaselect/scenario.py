"""In-memory scenario model shared by loaders, selectors and metrics.

A scenario is a rectangular view of one benchmark: an ordered instance
list, an ordered algorithm list, one canonical run record per
(instance, algorithm) cell, per-instance feature vectors, per-instance
feature computation costs, a runtime cutoff and a cross-validation fold
assignment. All arrays are frozen after construction so a scenario can
be shared across threads and approaches without copying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InconsistentScenario, UnknownAlgorithm, UnknownInstance

PENALTY_FACTOR = 10.0


class RunRecord(NamedTuple):
    runtime: float
    solved: bool


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ScenarioSpec:
    """One algorithm-selection scenario.

    `runtimes[i, a]` holds the canonical runtime of algorithm `a` on
    instance `i`: the recorded runtime for solved runs, exactly the
    cutoff for unsolved ones. `features` may contain NaN for missing
    values; imputation is a selector concern. `folds` holds 1-based
    fold ids.
    """

    name: str
    instances: tuple[str, ...]
    algorithms: tuple[str, ...]
    cutoff: float
    runtimes: np.ndarray      # (n, K) float64
    solved: np.ndarray        # (n, K) bool
    features: np.ndarray      # (n, d) float64, NaN = missing
    feature_costs: np.ndarray  # (n,) float64
    folds: np.ndarray         # (n,) int64
    _instance_index: dict = field(repr=False, compare=False, default=None)
    _algorithm_index: dict = field(repr=False, compare=False, default=None)

    @classmethod
    def create(
        cls,
        name: str,
        instances,
        algorithms,
        cutoff: float,
        runtimes,
        solved,
        features,
        feature_costs=None,
        folds=None,
        validate: bool = True,
    ) -> "ScenarioSpec":
        instances = tuple(str(i) for i in instances)
        algorithms = tuple(str(a) for a in algorithms)
        n, k = len(instances), len(algorithms)
        runtimes = np.asarray(runtimes, dtype=np.float64).reshape(n, k)
        solved = np.asarray(solved, dtype=bool).reshape(n, k)
        features = np.asarray(features, dtype=np.float64).reshape(n, -1)
        if feature_costs is None:
            feature_costs = np.zeros(n)
        feature_costs = np.asarray(feature_costs, dtype=np.float64).reshape(n)
        if folds is None:
            folds = np.ones(n, dtype=np.int64)
        folds = np.asarray(folds, dtype=np.int64).reshape(n)

        if validate:
            if cutoff <= 0:
                raise InconsistentScenario(f"cutoff must be positive, got {cutoff}")
            if len(set(instances)) != n:
                raise InconsistentScenario("duplicate instance ids")
            if len(set(algorithms)) != k:
                raise InconsistentScenario("duplicate algorithm ids")
            if np.any(runtimes < 0):
                raise InconsistentScenario("negative runtime")
            bad = solved & (runtimes > cutoff)
            if np.any(bad):
                raise InconsistentScenario("solved run with runtime above cutoff")
            off = ~solved & (runtimes != cutoff)
            if np.any(off):
                raise InconsistentScenario("unsolved run not canonicalized to cutoff")
            if np.any(feature_costs < 0):
                raise InconsistentScenario("negative feature cost")

        spec = cls(
            name=name,
            instances=instances,
            algorithms=algorithms,
            cutoff=float(cutoff),
            runtimes=_frozen(runtimes),
            solved=_frozen(solved),
            features=_frozen(features),
            feature_costs=_frozen(feature_costs),
            folds=_frozen(folds),
        )
        object.__setattr__(spec, "_instance_index", {s: i for i, s in enumerate(instances)})
        object.__setattr__(spec, "_algorithm_index", {s: i for i, s in enumerate(algorithms)})
        return spec

    # -- shape ---------------------------------------------------------------

    @property
    def n_instances(self) -> int:
        return len(self.instances)

    @property
    def n_algorithms(self) -> int:
        return len(self.algorithms)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    # -- lookups -------------------------------------------------------------

    def instance_index(self, instance_id: str) -> int:
        try:
            return self._instance_index[instance_id]
        except KeyError:
            raise UnknownInstance(instance_id) from None

    def algorithm_index(self, algorithm_id: str) -> int:
        try:
            return self._algorithm_index[algorithm_id]
        except KeyError:
            raise UnknownAlgorithm(algorithm_id) from None

    def run(self, instance_id: str, algorithm_id: str) -> RunRecord:
        i = self.instance_index(instance_id)
        a = self.algorithm_index(algorithm_id)
        return RunRecord(float(self.runtimes[i, a]), bool(self.solved[i, a]))

    # -- derived views -------------------------------------------------------

    def pr10_matrix(self) -> np.ndarray:
        """Per-cell penalized runtime: runtime if solved, 10x cutoff else."""
        return np.where(self.solved, self.runtimes, PENALTY_FACTOR * self.cutoff)

    def fold_ids(self) -> list[int]:
        return sorted(set(int(f) for f in self.folds))

    def fold_split(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train_indices, test_indices) for one held-out fold."""
        test = np.flatnonzero(self.folds == fold)
        train = np.flatnonzero(self.folds != fold)
        return train, test

    def with_features(self, features, name: str | None = None) -> "ScenarioSpec":
        """Same runs and folds, different feature matrix.

        Used to hand a selector a derived feature space (for instance one
        augmented with other selectors' scores) while keeping every
        performance number intact.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != self.n_instances:
            raise InconsistentScenario("replacement features must be (n_instances, d)")
        spec = ScenarioSpec(
            name=name or self.name,
            instances=self.instances,
            algorithms=self.algorithms,
            cutoff=self.cutoff,
            runtimes=self.runtimes,
            solved=self.solved,
            features=_frozen(features),
            feature_costs=self.feature_costs,
            folds=self.folds,
        )
        object.__setattr__(spec, "_instance_index", self._instance_index)
        object.__setattr__(spec, "_algorithm_index", self._algorithm_index)
        return spec
