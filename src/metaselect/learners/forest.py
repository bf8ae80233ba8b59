"""Random forests over array-encoded trees.

Trees are grown on bootstrap resamples with per-node random feature
subsets. Node storage is flat arrays (feature, threshold, child ids), so
prediction is a batched descent through the `tree_apply` kernel. All
randomness is drawn at numpy level from a per-tree generator; the
kernels are pure functions.

The trees of one fit grow in lockstep (`_Grower`): each step takes the
next node that needs a split search from every unfinished tree and
scores all their candidate features together. The pending nodes are
sorted by size and cut into split-kernel calls, each padded to its
largest node; a call ends before its padding would pass SPLIT_PAD_ROWS
rows, which keeps the wasted cells small without giving nodes of
similar sizes a call each, or before it would hold SPLIT_CELLS cells,
which bounds the kernel's temporaries. Each tree keeps its own
generator and depth-first order, and a node's candidates are sorted
stably in the node's row order, so a tree is bit for bit the tree grown
alone, whatever else shares its kernel calls.
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


SPLIT_PAD_ROWS = 512  # padding rows one split-kernel call may take on
SPLIT_CELLS = 1 << 18  # rows x candidates (x classes) of one call, unless it is one node


class _GrowingTree:
    """One tree under construction: its generator, its DFS stack of
    (node id, rows, depth) and its flat node arrays."""

    def __init__(self, rng, rows):
        self.rng = rng
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.payload: list[np.ndarray] = []
        self.stack = [(self._new_node(), rows, 0)]

    def _new_node(self) -> int:
        self.feature.append(-1)
        self.threshold.append(0.0)
        self.left.append(-1)
        self.right.append(-1)
        self.payload.append(None)
        return len(self.feature) - 1

    def split(self, nid, feature, threshold, rows, pos, depth):
        """Make node `nid` internal; its children's rows are `rows`
        (sorted by `feature`) before and after `pos`."""
        self.feature[nid] = feature
        self.threshold[nid] = threshold
        left_id = self._new_node()
        right_id = self._new_node()
        self.left[nid] = left_id
        self.right[nid] = right_id
        self.stack.append((right_id, rows[pos:], depth + 1))
        self.stack.append((left_id, rows[:pos], depth + 1))

    def finish(self, width) -> _Tree:
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


class _Grower:
    """Grows the trees of one forest fit in lockstep.

    Each step advances every unfinished tree along its own DFS: it pops
    nodes and makes leaves of them until it reaches one that needs a
    split search, and draws that node's candidate features from the
    tree's own generator. The nodes so collected are then searched
    together, a few split-kernel calls per step. A tree's draws and
    node order are those of growing it alone, so its splits are too.
    """

    def __init__(self, x, y, w, mtry, min_leaf, max_depth, classification, n_classes):
        n, d = x.shape
        # row n pads the columns of a batched search: +inf sorts last,
        # and its zero weight and target leave every prefix sum exact
        self.x = np.vstack([x, np.full((1, d), np.inf)])
        self.y = np.append(y, 0.0)
        self.w = np.append(w, 0.0)
        self.labels = self.y.astype(np.int64) if classification else None
        self.n_features = d
        self.n_candidates = min(mtry, d)
        self.min_leaf = min_leaf
        self.max_depth = max_depth if max_depth is not None else -1
        self.classification = classification
        self.n_classes = n_classes

    def grow(self, trees: list[_GrowingTree]) -> None:
        while True:
            pending = [node for node in map(self._next_search, trees) if node is not None]
            if not pending:
                return
            pending.sort(key=lambda node: -node[2].size)
            for group in self._groups(pending):
                self._search(group)

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

    def _next_search(self, tree):
        """The tree's next node that needs a search, as (tree, node id,
        rows, depth, candidates), making leaves on the way; None once
        the tree is finished."""
        while tree.stack:
            nid, rows, depth = tree.stack.pop()
            if (
                rows.size < 2 * self.min_leaf
                or (self.max_depth >= 0 and depth >= self.max_depth)
                or (self.y[rows] == self.y[rows[0]]).all()
            ):
                tree.payload[nid] = self._leaf_payload(rows)
                continue
            candidates = tree.rng.choice(self.n_features, size=self.n_candidates, replace=False)
            return tree, nid, rows, depth, candidates
        return None

    def _groups(self, pending):
        """Split nodes sorted by decreasing size into kernel calls: a
        call ends before its padding would pass SPLIT_PAD_ROWS rows, or
        its cells SPLIT_CELLS."""
        row_cells = self.n_candidates * (self.n_classes if self.classification else 1)
        group, padding = [], 0
        for node in pending:
            size = node[2].size
            if group:
                top = group[0][2].size
                if (
                    padding + top - size > SPLIT_PAD_ROWS
                    or top * row_cells * (len(group) + 1) > SPLIT_CELLS
                ):
                    yield group
                    group, padding = [], 0
                else:
                    padding += top - size
            group.append(node)
        yield group

    def _search(self, group):
        """Score every candidate of the group's nodes in one kernel call,
        then split each node on its first lowest-scoring candidate or
        make it a leaf."""
        m = self.n_candidates
        sizes = [node[2].size for node in group]
        width = len(group) * m
        index = np.full((sizes[0], len(group)), self.x.shape[0] - 1)
        for g, node in enumerate(group):
            index[: sizes[g], g] = node[2]
        candidates = np.array([node[4] for node in group])
        values = self.x[index[:, :, None], candidates].reshape(sizes[0], width)
        # each column's stable order, as flat cells of values; index has
        # one column per node, so cell // m is the same row's cell there
        cells = values.argsort(axis=0, kind="stable") * width + np.arange(width)
        values = values.take(cells)
        rows = index.take(cells // m)
        weights = self.w.take(rows)
        column_sizes = np.array(sizes).repeat(m)
        if self.classification:
            scores, positions = _kernels.best_split_cls(
                values, self.labels.take(rows), weights, self.n_classes, self.min_leaf, column_sizes
            )
        else:
            scores, positions = _kernels.best_split_reg(
                values, self.y.take(rows), weights, self.min_leaf, column_sizes
            )
        # per node, the first lowest score among its candidates; NaN never wins
        scores = np.where(np.isnan(scores), np.inf, scores)
        cols = np.arange(0, width, m) + scores.reshape(len(group), m).argmin(axis=1)
        found = scores[cols] < np.inf
        cols = cols[found]
        pos = positions[cols]
        below = values[pos - 1, cols]
        above = values[pos, cols]
        thresholds = below + (above - below) / 2.0
        # a midpoint rounded into the right block falls back to the left value
        thresholds = np.where(thresholds >= above, below, thresholds)
        splits = zip(
            cols.tolist(), candidates.ravel()[cols].tolist(), thresholds.tolist(), pos.tolist()
        )
        for (tree, nid, node_rows, depth, _), size, ok in zip(group, sizes, found.tolist()):
            if not ok:
                tree.payload[nid] = self._leaf_payload(node_rows)
                continue
            col, feature, threshold, at = next(splits)
            tree.split(nid, feature, threshold, rows[:size, col].copy(), at, depth)


@dataclass
class _BaseForest:
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    mtry: int | None = None
    seed: int = 0
    bootstrap: bool = True
    trees_: list = field(default_factory=list, repr=False)
    n_features_: int = field(default=0, repr=False)

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
        if w.shape != (n,) or not np.isfinite(w).all() or (w < 0).any():
            raise DegenerateData("sample weights must be finite and nonnegative, one per row")
        mtry = self.mtry if self.mtry is not None else max(1, math.ceil(math.sqrt(d)))

        root = (
            self.seed
            if isinstance(self.seed, np.random.SeedSequence)
            else np.random.SeedSequence(self.seed)
        )
        trees = []
        for stream in root.spawn(self.n_trees):
            rng = np.random.default_rng(stream)
            rows = rng.integers(0, n, size=n) if self.bootstrap else np.arange(n)
            trees.append(_GrowingTree(rng, np.asarray(rows, dtype=np.int64)))
        _Grower(
            x, y, w, mtry, self.min_leaf, self.max_depth, self._classification, self._n_classes
        ).grow(trees)
        width = self._n_classes if self._classification else 1
        self.trees_ = [tree.finish(width) for tree in trees]
        self.n_features_ = d
        return self

    def _accumulate(self, x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if not self.trees_:
            raise DegenerateData("forest used before fit")
        if x.ndim != 2 or x.shape[1] != self.n_features_:
            raise DegenerateData(
                f"forest needs rows of {self.n_features_} features, got shape {x.shape}"
            )
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
