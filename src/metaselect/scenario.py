"""In-memory scenario model shared by loaders, selectors and metrics.

A scenario is a rectangular view of one benchmark: an ordered instance
list, an ordered algorithm list, one canonical runtime and solved flag
per (instance, algorithm) cell, per-instance feature vectors,
per-instance feature computation costs, a runtime cutoff and a
cross-validation fold assignment. All arrays are frozen after
construction so a scenario can be shared across threads and approaches
without copying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InconsistentScenario

PENALTY_FACTOR = 10.0


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
    _pr10: np.ndarray = field(repr=False, compare=False, default=None)

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
            if not 0 < cutoff < math.inf:
                raise InconsistentScenario(f"cutoff must be positive and finite, got {cutoff}")
            if len(set(instances)) != n:
                raise InconsistentScenario("duplicate instance ids")
            if len(set(algorithms)) != k:
                raise InconsistentScenario("duplicate algorithm ids")
            if np.any(np.isnan(runtimes)):  # NaN passes every comparison below
                raise InconsistentScenario("NaN runtime")
            if np.any(runtimes < 0):
                raise InconsistentScenario("negative runtime")
            bad = solved & (runtimes > cutoff)
            if np.any(bad):
                raise InconsistentScenario("solved run with runtime above cutoff")
            off = ~solved & (runtimes != cutoff)
            if np.any(off):
                raise InconsistentScenario("unsolved run not canonicalized to cutoff")
            if not np.all((feature_costs >= 0) & (feature_costs < math.inf)):
                raise InconsistentScenario("feature cost negative, infinite or NaN")

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
        pr10 = np.where(spec.solved, spec.runtimes, PENALTY_FACTOR * spec.cutoff)
        object.__setattr__(spec, "_pr10", _frozen(pr10))
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

    # -- derived views -------------------------------------------------------

    def pr10_matrix(self) -> np.ndarray:
        """Per-cell penalized runtime: runtime if solved, 10x cutoff else.
        Computed once per scenario and frozen like the other arrays."""
        return self._pr10

    def fold_ids(self) -> list[int]:
        return sorted(set(int(f) for f in self.folds))

    def fold_split(self, fold: int) -> tuple[np.ndarray, np.ndarray]:
        """(train_indices, test_indices) for one held-out fold."""
        test = np.flatnonzero(self.folds == fold)
        train = np.flatnonzero(self.folds != fold)
        return train, test

    def with_features(self, features) -> "ScenarioSpec":
        """Same runs and folds, different feature matrix.

        Used to hand a selector a derived feature space (for instance one
        augmented with other selectors' scores) while keeping every
        performance number intact.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != self.n_instances:
            raise InconsistentScenario("replacement features must be (n_instances, d)")
        return replace(self, features=_frozen(features))
