"""Lloyd's k-means with k-means++ seeding.

Randomness (seeding, empty-cluster handling order) lives at numpy level;
the per-iteration assignment and accumulation go through the numeric
kernels. Empty clusters are reseeded to the point currently farthest
from its own centroid, taken from a cluster with more than one member,
so every cluster keeps a member through the iterations and every
centroid is a mean of points. The final nearest-centroid assignment
sends a tie to the lower cluster, so a cluster whose centroid equals a
lower one's ends without members.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateData, KTooLarge
from . import _kernels

MAX_ITERATIONS = 100


@dataclass
class KMeansModel:
    centroids: np.ndarray
    assignments: np.ndarray
    train_distances: np.ndarray  # euclidean, each point to its centroid
    inertia_history: list[float]

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    def nearest(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest-centroid index per query row (first wins on ties) and
        the euclidean distance to that centroid."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.centroids.shape[1]:
            raise DegenerateData(
                f"kmeans query needs rows of {self.centroids.shape[1]} features, "
                f"got shape {x.shape}"
            )
        return _nearest(x, self.centroids)


def _nearest(x: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    dists = _kernels.pairwise_sq_dists(x, centroids)
    closest = np.argmin(dists, axis=1)
    return closest, np.sqrt(dists[np.arange(x.shape[0]), closest])


def _plus_plus_init(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = x[first]
    closest = _kernels.pairwise_sq_dists(x, centroids[:1])[:, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            pick = int(rng.integers(0, n))  # all points coincide with a centroid
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[j] = x[pick]
        new_d = _kernels.pairwise_sq_dists(x, centroids[j : j + 1])[:, 0]
        closest = np.minimum(closest, new_d)
    return centroids


def fit_kmeans(x: np.ndarray, k: int, seed: int = 0) -> KMeansModel:
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DegenerateData("kmeans needs a nonempty 2-d matrix")
    if not np.isfinite(x).all():
        raise DegenerateData("kmeans requires finite features")
    n = x.shape[0]
    if k < 1 or k > n:
        raise KTooLarge(f"k={k} outside [1, {n}]")

    rng = np.random.default_rng(seed)
    centroids = _plus_plus_init(x, k, rng)
    assignments = np.zeros(n, dtype=np.int64)
    inertia_history: list[float] = []

    for _ in range(MAX_ITERATIONS):
        dists = _kernels.pairwise_sq_dists(x, centroids)
        new_assign = np.argmin(dists, axis=1).astype(np.int64)
        inertia_history.append(float(dists[np.arange(n), new_assign].sum()))
        sums, counts = _kernels.kmeans_accumulate(x, new_assign, k)
        empty = counts == 0
        if empty.any():
            # hand each empty cluster the point farthest from its centroid
            # among those whose cluster keeps another member, so that no
            # donor is left empty; a moved point is then alone in its
            # cluster and is not taken twice
            point_d = dists[np.arange(n), new_assign]
            for cluster in np.nonzero(empty)[0]:
                far = int(np.argmax(np.where(counts[new_assign] > 1, point_d, -1.0)))
                sums[new_assign[far]] -= x[far]
                counts[new_assign[far]] -= 1
                new_assign[far] = cluster
                sums[cluster] = x[far]
                counts[cluster] = 1
        converged = len(inertia_history) > 1 and np.array_equal(new_assign, assignments)
        assignments = new_assign
        centroids = sums / counts[:, None]
        if converged:
            break

    assignments, train_distances = _nearest(x, centroids)
    return KMeansModel(
        centroids=centroids,
        assignments=assignments,
        train_distances=train_distances,
        inertia_history=inertia_history,
    )
