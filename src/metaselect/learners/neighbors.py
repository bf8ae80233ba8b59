"""Exact k-nearest-neighbour lookup over a fixed training matrix.

An index keeps each distinct training row once. A bootstrap resample
repeats about a third of its rows, so `fit` stores the distinct rows
and, only when some row repeats, the map from every original row to
its distinct one. A query computes distances to the distinct rows and
expands them to one column per original row with that map, so a row's
id stays its original position and ties still go to the lower id. The
expanded distances are the very numbers a query against every row
would compute, so answers do not change by a bit. Rows are distinct by
value, so a row holding 0.0 where another holds -0.0 is kept once; (q -
0.0)² and (q + 0.0)² are the same number for every q.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateData, KTooLarge
from . import _kernels


class KnnIndex:
    """Brute-force euclidean index; ties resolve to the lower row id.

    A query returns exactly the first k columns of a stable argsort of
    each row's distances: nearest first, equal distances in ascending
    row id, also where a tie straddles the k-th place. It gets there
    without sorting a whole row: `np.partition` finds the k-th smallest
    distance, every point at or below it is a candidate, and only the
    candidates are sorted, by (distance, row id). So the answer for k
    is the first k columns of the answer for any larger k.
    """

    def __init__(self):
        self.points_ = None  # the distinct training rows
        self.inverse_ = None  # original row -> distinct row, None if all distinct

    def fit(self, x: np.ndarray) -> "KnnIndex":
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise DegenerateData("knn index needs a nonempty 2-d matrix")
        if not np.isfinite(x).all():
            raise DegenerateData("knn index requires finite features")
        points, inverse = np.unique(x, axis=0, return_inverse=True)
        if points.shape[0] < x.shape[0]:
            self.points_, self.inverse_ = points, inverse.reshape(-1)
        else:
            self.points_, self.inverse_ = x, None
        return self

    @property
    def n_points(self) -> int:
        if self.points_ is None:
            raise DegenerateData("knn index used before fit")
        return self.points_.shape[0] if self.inverse_ is None else self.inverse_.shape[0]

    def same_content(self, other: "KnnIndex") -> bool:
        """True when both indexes hold bit-identical rows in the same order."""
        if other is self:
            return True
        return (
            self.points_.shape == other.points_.shape
            and np.array_equal(self.points_.view(np.uint64), other.points_.view(np.uint64))
            and (self.inverse_ is None) == (other.inverse_ is None)
            and (self.inverse_ is None or np.array_equal(self.inverse_, other.inverse_))
        )

    def query(self, x: np.ndarray, k: int) -> np.ndarray:
        """Row ids of the k nearest points per query row, nearest first."""
        if self.points_ is None:
            raise DegenerateData("knn index used before fit")
        if k < 1 or k > self.n_points:
            raise KTooLarge(f"k={k} outside [1, {self.n_points}]")
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.points_.shape[1]:
            raise DegenerateData(
                f"knn query needs rows of {self.points_.shape[1]} features, got shape {x.shape}"
            )
        if not np.isfinite(x).all():
            raise DegenerateData("knn query requires finite features")
        dists = _kernels.pairwise_sq_dists(x, self.points_)
        if self.inverse_ is not None:
            dists = dists.take(self.inverse_, axis=1)
        kth = np.partition(dists, k - 1, axis=1)[:, k - 1, None]
        # nonzero is row-major: candidates come out by query, then row id
        queries, ids = np.nonzero(dists <= kth)
        order = np.lexsort((dists[queries, ids], queries))
        counts = np.bincount(queries, minlength=dists.shape[0])
        starts = counts.cumsum() - counts
        return ids[order][starts[:, None] + np.arange(k)]
