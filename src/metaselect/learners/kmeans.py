"""Lloyd's k-means with k-means++ seeding.

Randomness (seeding, empty-cluster handling order) lives at numpy level;
the per-iteration assignment and accumulation go through the numeric
kernels. Empty clusters are reseeded to the point currently farthest
from its own centroid, taken from a cluster with more than one member,
so every cluster keeps a member through the iterations and every
centroid is a mean of points. The final nearest-centroid assignment
sends a tie to the lower cluster, so a cluster whose centroid equals a
lower one's ends without members.

Each assignment, in a Lloyd step, at the end of a fit and in
`KMeansModel.nearest`, is the argmin and the min of each row of
`_kernels.pairwise_sq_dists(x, centroids)`, bit for bit, without that
matrix: it is `neighbors.nearest` with k = 1 and the centroids as the
points, so a tie goes to the lower cluster (the proof is in
`neighbors`). A fit computes its rows' squared norms for it once, for
every assignment. The inertia and the empty-cluster reseeding read
these per-row distances. k-means++ seeding needs every point's
distance to each new centroid and takes it from
`_kernels.pairwise_sq_dists`, one centroid at a time; each column of
that kernel is the same bits alone as in the full matrix. So the
seeding's running minimum, with the first centroid that reached it
(a later one only where it is strictly closer), is already the first
Lloyd step's assignment, and that step does not compute it again.
Nor does the end of a fit: when the last Lloyd step reseeded no
cluster and left the centroids bitwise unchanged, its assignment is
the final one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateData, KTooLarge
from . import _kernels
from .neighbors import nearest, squared_norms

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
        closest, sq_dists = _nearest_sq(x, squared_norms(x), self.centroids)
        return closest, np.sqrt(sq_dists)


def _nearest_sq(
    x: np.ndarray, x_norms: np.ndarray, centroids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest centroid per row of `x`, whose `squared_norms` are
    `x_norms`, and the exact squared distance to it: `nearest` at k = 1."""
    closest, sq_dists = nearest(x, x_norms, centroids, squared_norms(centroids), 1)
    return closest[:, 0], sq_dists[:, 0]


def _plus_plus_init(
    x: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k-means++ centroids, and each row's nearest of them (the first on
    ties) with the exact squared distance to it."""
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(0, n))
    centroids[0] = x[first]
    closest = _kernels.pairwise_sq_dists(x, centroids[:1])[:, 0]
    nearest_centroid = np.zeros(n, dtype=np.int64)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            pick = int(rng.integers(0, n))  # all points coincide with a centroid
        else:
            pick = int(rng.choice(n, p=closest / total))
        centroids[j] = x[pick]
        new_d = _kernels.pairwise_sq_dists(x, centroids[j : j + 1])[:, 0]
        nearest_centroid[new_d < closest] = j
        closest = np.minimum(closest, new_d)
    return centroids, nearest_centroid, closest


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
    centroids, new_assign, point_d = _plus_plus_init(x, k, rng)
    x_norms = squared_norms(x)  # once for every assignment of the fit
    assignments = np.zeros(n, dtype=np.int64)
    inertia_history: list[float] = []

    for _ in range(MAX_ITERATIONS):
        if inertia_history:
            new_assign, point_d = _nearest_sq(x, x_norms, centroids)
        inertia_history.append(float(point_d.sum()))
        sums, counts = _kernels.kmeans_accumulate(x, new_assign, k)
        empty = counts == 0
        reseeded = empty.any()
        if reseeded:
            # hand each empty cluster the point farthest from its centroid
            # among those whose cluster keeps another member, so that no
            # donor is left empty; a moved point is then alone in its
            # cluster and is not taken twice
            for cluster in np.nonzero(empty)[0]:
                far = int(np.argmax(np.where(counts[new_assign] > 1, point_d, -1.0)))
                sums[new_assign[far]] -= x[far]
                counts[new_assign[far]] -= 1
                new_assign[far] = cluster
                sums[cluster] = x[far]
                counts[cluster] = 1
        converged = len(inertia_history) > 1 and np.array_equal(new_assign, assignments)
        assignments = new_assign
        previous, centroids = centroids, sums / counts[:, None]
        if converged:
            break

    if reseeded or not np.array_equal(previous.view(np.int64), centroids.view(np.int64)):
        assignments, point_d = _nearest_sq(x, x_norms, centroids)
    return KMeansModel(
        centroids=centroids,
        assignments=assignments,
        train_distances=np.sqrt(point_d),
        inertia_history=inertia_history,
    )
