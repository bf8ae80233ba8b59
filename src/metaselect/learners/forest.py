"""Random forests over array-encoded trees.

Trees are grown on bootstrap resamples with per-node random feature
subsets. Node storage is flat arrays (feature, threshold, child ids), so
prediction is a batched descent through the `tree_apply` kernel. All
randomness is drawn at numpy level from a per-tree generator; the
kernels are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DegenerateData
from . import _kernels


@dataclass
class _Tree:
    feature: np.ndarray  # -1 marks a leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    payload: np.ndarray  # per-node value row (regression: width 1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _kernels.tree_apply(self.feature, self.threshold, self.left, self.right, x)


class _TreeGrower:
    def __init__(self, x, y, w, mtry, min_leaf, max_depth, rng, classification, n_classes):
        self.x, self.y, self.w = x, y, w
        self.labels = y.astype(np.int64) if classification else None
        self.mtry, self.min_leaf = mtry, min_leaf
        self.max_depth = max_depth if max_depth is not None else -1
        self.rng = rng
        self.classification = classification
        self.n_classes = n_classes
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.payload: list[np.ndarray] = []

    def _leaf_payload(self, rows) -> np.ndarray:
        w = self.w[rows]
        total = w.sum()
        if self.classification:
            hist = np.bincount(self.labels[rows], weights=w, minlength=self.n_classes)
            if total > 0:
                hist = hist / total
            else:
                hist[:] = 1.0 / self.n_classes
            return hist
        if total > 0:
            value = float((w * self.y[rows]).sum() / total)
        else:
            value = float(self.y[rows].mean())
        return np.array([value])

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.payload.append(None)
        return len(self.feature) - 1

    def _find_split(self, rows):
        """Best split of a node as (feature, pos, the node's rows sorted
        by that feature, their sorted values), or None when no candidate
        feature can split it.

        All candidates are scored in one kernel call. The first candidate
        with the lowest score wins, so ties go to the earlier draw; a NaN
        score never wins.
        """
        d = self.x.shape[1]
        candidates = self.rng.choice(d, size=min(self.mtry, d), replace=False)
        order = self.x[rows[:, None], candidates].argsort(axis=0, kind="stable")
        sorted_rows = rows[order]
        sorted_values = self.x[sorted_rows, candidates]
        sorted_w = self.w[sorted_rows]
        if self.classification:
            scores, positions = _kernels.best_split_cls(
                sorted_values, self.labels[sorted_rows], sorted_w, self.n_classes, self.min_leaf
            )
        else:
            scores, positions = _kernels.best_split_reg(
                sorted_values, self.y[sorted_rows], sorted_w, self.min_leaf
            )
        scores = np.where(np.isnan(scores), np.inf, scores)
        j = int(scores.argmin())
        if scores[j] == np.inf:
            return None
        return int(candidates[j]), int(positions[j]), sorted_rows[:, j], sorted_values[:, j]

    def grow(self, rows) -> int:
        node = self._new_node()
        stack = [(node, rows, 0)]
        while stack:
            nid, node_rows, depth = stack.pop()
            split = None
            if not (
                node_rows.size < 2 * self.min_leaf
                or (self.max_depth >= 0 and depth >= self.max_depth)
                or (self.y[node_rows] == self.y[node_rows[0]]).all()
            ):
                split = self._find_split(node_rows)
            if split is None:
                self.payload[nid] = self._leaf_payload(node_rows)
                continue
            f, pos, sorted_rows, values = split
            thr = values[pos - 1] + (values[pos] - values[pos - 1]) / 2.0
            if thr >= values[pos]:
                thr = values[pos - 1]  # midpoint rounded into the right block
            self.feature[nid] = f
            self.threshold[nid] = float(thr)
            left_id = self._new_node()
            right_id = self._new_node()
            self.left[nid] = left_id
            self.right[nid] = right_id
            stack.append((right_id, sorted_rows[pos:], depth + 1))
            stack.append((left_id, sorted_rows[:pos], depth + 1))
        return node

    def finish(self) -> _Tree:
        width = self.n_classes if self.classification else 1
        payload = np.zeros((len(self.feature), width))
        for i, row in enumerate(self.payload):
            if row is not None:
                payload[i] = row
        return _Tree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            payload=payload,
        )


@dataclass
class _BaseForest:
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    mtry: int | None = None
    seed: int = 0
    bootstrap: bool = True
    trees_: list = field(default_factory=list, repr=False)

    _classification = False
    _n_classes = 0

    def _fit_arrays(self, x, y, sample_weight):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise DegenerateData("forest needs a nonempty 2-d feature matrix")
        if not np.isfinite(x).all():
            raise DegenerateData("forest features must be finite after imputation")
        n, d = x.shape
        y = np.ascontiguousarray(y, dtype=np.float64)
        if y.shape != (n,):
            raise DegenerateData("target length does not match feature rows")
        w = (
            np.ones(n)
            if sample_weight is None
            else np.ascontiguousarray(sample_weight, dtype=np.float64)
        )
        if w.shape != (n,) or (w < 0).any():
            raise DegenerateData("sample weights must be nonnegative, one per row")
        mtry = self.mtry if self.mtry is not None else max(1, math.ceil(math.sqrt(d)))

        self.trees_ = []
        root = (
            self.seed
            if isinstance(self.seed, np.random.SeedSequence)
            else np.random.SeedSequence(self.seed)
        )
        streams = root.spawn(self.n_trees)
        for stream in streams:
            rng = np.random.default_rng(stream)
            rows = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            grower = _TreeGrower(
                x,
                y,
                w,
                mtry,
                self.min_leaf,
                self.max_depth,
                rng,
                self._classification,
                self._n_classes,
            )
            grower.grow(np.asarray(rows, dtype=np.int64))
            self.trees_.append(grower.finish())
        return self

    def _accumulate(self, x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if not self.trees_:
            raise DegenerateData("forest used before fit")
        width = self.trees_[0].payload.shape[1]
        acc = np.zeros((x.shape[0], width))
        for tree in self.trees_:
            acc = acc + tree.payload[tree.apply(x)]
        return acc / len(self.trees_)


class ForestRegressor(_BaseForest):
    def __init__(self, n_trees=100, max_depth=None, min_leaf=5, mtry=None, seed=0, bootstrap=True):
        super().__init__(n_trees, max_depth, min_leaf, mtry, seed, bootstrap)

    def fit(self, x, y, sample_weight=None):
        return self._fit_arrays(x, y, sample_weight)

    def predict(self, x):
        return self._accumulate(x)[:, 0]


class ForestClassifier(_BaseForest):
    def __init__(
        self,
        n_trees=100,
        max_depth=None,
        min_leaf=1,
        mtry=None,
        seed=0,
        bootstrap=True,
        n_classes=None,
    ):
        super().__init__(n_trees, max_depth, min_leaf, mtry, seed, bootstrap)
        self.n_classes = n_classes

    def fit(self, x, y, sample_weight=None):
        labels = np.asarray(y, dtype=np.int64)
        if labels.size and labels.min() < 0:
            raise DegenerateData("class labels must be nonnegative integers")
        inferred = int(labels.max()) + 1 if labels.size else 0
        self._n_classes = self.n_classes if self.n_classes is not None else inferred
        if labels.size and inferred > self._n_classes:
            raise DegenerateData("label outside declared class range")
        self._classification = True
        return self._fit_arrays(x, labels, sample_weight)

    def predict_proba(self, x):
        return self._accumulate(x)

    def predict(self, x):
        return np.argmax(self.predict_proba(x), axis=1)
