"""Exact k-nearest-neighbour lookup over a fixed training matrix."""

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
    candidates are sorted, by (distance, row id).
    """

    def __init__(self):
        self.points_ = None

    def fit(self, x: np.ndarray) -> "KnnIndex":
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise DegenerateData("knn index needs a nonempty 2-d matrix")
        if not np.isfinite(x).all():
            raise DegenerateData("knn index requires finite features")
        self.points_ = x
        return self

    @property
    def n_points(self) -> int:
        if self.points_ is None:
            raise DegenerateData("knn index used before fit")
        return self.points_.shape[0]

    def query(self, x: np.ndarray, k: int) -> np.ndarray:
        """Row ids of the k nearest points per query row, nearest first."""
        if self.points_ is None:
            raise DegenerateData("knn index used before fit")
        if k < 1 or k > self.n_points:
            raise KTooLarge(f"k={k} outside [1, {self.n_points}]")
        x = np.ascontiguousarray(x, dtype=np.float64)
        if not np.isfinite(x).all():
            raise DegenerateData("knn query requires finite features")
        dists = _kernels.pairwise_sq_dists(x, self.points_)
        kth = np.partition(dists, k - 1, axis=1)[:, k - 1, None]
        # nonzero is row-major: candidates come out by query, then row id
        queries, ids = np.nonzero(dists <= kth)
        order = np.lexsort((dists[queries, ids], queries))
        counts = np.bincount(queries, minlength=dists.shape[0])
        starts = counts.cumsum() - counts
        return ids[order][starts[:, None] + np.arange(k)]
