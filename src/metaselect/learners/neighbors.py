"""Exact k-nearest-neighbour lookup over a fixed training matrix.

An index keeps each training row once. A bootstrap resample repeats
about a third of its rows, so `fit` takes each row's training id (the
scenario row it was taken from) and groups the rows by id with one
`np.unique` over those ids. Rows of equal id are equal, so it stores the
first row of each id as one point and, only when some id repeats, the
map from every original row to its point; every point is some row's.
A query ranks the points and expands that to one column per original
row with that map, so a row's id stays its original position and ties
still go to the lower id. Rows of different ids stay different points
even where they are equal by value, as a row holding 0.0 and another
holding -0.0 in its place are; they tie, and the tie goes to the lower
row as it would without the map. The points are kept in ascending id
order. No answer depends on that order: a query reports original row
ids, computes each candidate's exact distance for its own pair, and
orders by (distance, row id), and the margin below holds for the points
in any order.

One routine, `nearest`, answers every exact nearest-neighbour search:
a kNN query, a block of query rows at a time, and each k-means
assignment, with k = 1 and the centroids as the points. It computes
the GEMM form

    G = ((-2 · q·p) + ‖p‖²) + ‖q‖²

with one matrix product and three in-place passes over its result,
takes as candidates the points whose G lies within twice a rigorous
per-row margin of the row's k-th smallest G (`candidate_mask`),
computes the exact distances of the candidates only
(`_kernels.gathered_sq_dists`, of which `_kernels.pairwise_sq_dists`
is the all-pairs case), and orders each row's candidates by (exact
distance, id) with one stable argsort per row of a +inf-padded
(rows × most candidates) matrix (`first_k_by_distance`), unless every
row has a single candidate, as k = 1 nearly always gives. The answer is
exactly what ranking every exact distance would give, as shown below.
A kNN query goes in blocks of about QUERY_BLOCK_CELLS GEMM cells, so
its scratch memory does not grow with its row count.

The margin. Notation as in `_kernels`: u = 2**-53, γ_n = n·u/(1 - n·u).
For rows q and p of d features let s_q = ‖q‖², s_p = ‖p‖², t = q·p and
D = s_q + s_p - 2t their true squared distance. The product A = fl(t)
and the squared norms qq = fl(s_q) and pp = fl(s_p) are inner products
of length d computed by BLAS and einsum in an order we do not know. In
every order, with or without fused multiply-adds, a term passes through
at most d roundings, so (Higham, *Accuracy and Stability of Numerical
Algorithms*, (3.5))

    |A - t| <= γ_d Σ_j |q_j p_j| <= γ_d (s_q + s_p) / 2,
    |qq - s_q| <= γ_d s_q,   |pp - s_p| <= γ_d s_p,

using |q_j p_j| <= (q_j² + p_j²)/2. Scaling by -2 is exact, and
G = (-2A + pp)(1 + δ1)(1 + δ2) + qq(1 + δ2). With E = -2A + pp + qq,

    |G - E| <= γ_2 (2|A| + pp + qq) <= 2γ_2 (1 + γ_d)(s_q + s_p),
    |E - D| <= 2|A - t| + |pp - s_p| + |qq - s_q| <= 2γ_d (s_q + s_p),

and γ_2 + γ_d + γ_2γ_d <= γ_{d+2} (Higham, Lemma 3.3), so
|G - D| <= 2γ_{d+2}(s_q + s_p). The exact kernel's distance lies
within 2γ_{d+2}(s_q + s_p) of D too (see `_kernels`), so the two forms
differ by at most 4γ_{d+2}(s_q + s_p).

A query bounds that gap for a whole row by

    m = fl(fl(r · v) + a),   v = fl(qq + max_p pp),
    r = 4γ_{d+3},            a = (4d + 4) · 2**-1074.

r >= 4γ_{d+2}(1 + 1/(d + 2)), while v >= (1 - γ_d)(1 - u)(s_q + s_p)
for every point p and rounding r·v and adding a lose at most a factor
(1 - u)² more; (1 - γ_d)(1 - u)³ > 1/(1 + 1/(d + 2)) holds for every d
below 10**7, and it absorbs the few ulps of computing r itself. a covers
gradual underflow: each product of the two forms and of the norms may
also be off by 2**-1075 in absolute terms (a sum whose result is
subnormal is exact). That is d products in the kernel, d in A, whose
error is doubled, and d in each norm: 2.5d units of 2**-1074, at most
3d after the factors (1 + γ) of the later additions, plus under one
unit each for the roundings of v and r·v.

The candidates. Let g_k be the k-th smallest G of a row and e_k its
k-th smallest exact distance. The k points with the smallest G have
exact distances at most g_k + m, so e_k <= g_k + m. A point whose exact
distance is at most e_k then has G <= e_k + m <= g_k + 2m, and since
rounding is monotone and G is a float, G <= fl(g_k + 2m). So the
candidates {p : G_p <= fl(g_k + 2m)} hold every point at or below the
k-th exact distance, and at least k points, and their first k by (exact
distance, row id) are the first k of all points in that order.

Overflow. If v <= max/4 (max the largest float64), then s_q + s_p is
below max/4 up to a factor 1 + (d + 1)u, every intermediate of both
forms is at most 3(1 + γ_{d+2})(s_q + s_p) < max, and G, m and the
exact distances are finite. A row whose v exceeds max/4, which includes
every row whose G or margin is not finite (squares overflow from about
1e154, and then inf - inf is NaN), takes every column as a candidate, so
its answer is the exact kernel's ranking of the whole row.
"""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateData, KTooLarge
from . import _kernels

QUERY_BLOCK_CELLS = 65536  # GEMM cells per block of query rows: 512 KiB of float64
_UNIT_ROUNDOFF = 2.0**-53
_SUBNORMAL = 2.0**-1074  # the smallest positive float64
_MAX_SCALE = np.finfo(np.float64).max / 4  # rows above it take every column


def _margin_terms(d: int) -> tuple[float, float]:
    """(r, a) of the margin r·(‖q‖² + max‖p‖²) + a for d features."""
    n = d + 3
    return 4.0 * n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF), (4 * d + 4) * _SUBNORMAL


def squared_norms(points: np.ndarray) -> np.ndarray:
    """‖p‖² of each row, in any summation order; inf where it overflows."""
    with np.errstate(over="ignore"):
        return np.einsum("ij,ij->i", points, points)


def candidate_mask(q, sq_rows, points, sq_norms, k, columns=None):
    """Boolean (len(q), n) mask of each query row's candidates: the
    points whose GEMM value lies within twice the margin of the row's
    k-th smallest GEMM value, every point for a row whose scale the
    margin does not cover. `sq_rows` and `sq_norms` are `squared_norms`
    of `q` and of `points`; with `columns`, column j stands for point
    `columns[j]` and n is its length. The margin and the proof are in
    the module docstring. At k = 1 the row minimum is the outer-axis
    minimum of the transposed copy, which numpy takes elementwise
    instead of one short row at a time: a minimum is the same number in
    any order, but for a tie of 0.0 and -0.0, and adding the positive
    margin makes the two equal."""
    relative, absolute = _margin_terms(q.shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        approx = q @ points.T
        approx *= -2.0
        approx += sq_norms
        approx += sq_rows[:, None]
        if columns is not None:
            approx = approx.take(columns, axis=1)
        if k == 1:
            kth = approx.T.copy().min(axis=0)
        else:
            kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
        scale = sq_rows + sq_norms.max()
        margin = relative * scale + absolute
        mask = approx <= (kth + 2.0 * margin)[:, None]
    mask[~(scale <= _MAX_SCALE)] = True
    return mask


def first_k_by_distance(counts, dists, k):
    """Positions in `dists` of each row's first k entries by (distance,
    position), shape (len(counts), k). `dists` holds the entries of
    each row in turn, `counts[i]` of them for row i, and every row has
    at least k. Each row's entries go into one +inf-padded row of a
    (rows, most entries) matrix, which one stable argsort per row
    orders; the padding sorts after every entry of its row, an
    infinite distance included, so it never reaches the first k."""
    starts = counts.cumsum() - counts
    padded = np.full((counts.size, counts.max()), np.inf)
    padded[np.arange(padded.shape[1]) < counts[:, None]] = dists
    order = np.argsort(padded, axis=1, kind="stable")[:, :k]
    return starts[:, None] + order


def nearest(q, sq_q, points, sq_points, k, inverse=None):
    """(ids, sq_dists), each of shape (len(q), k): each query row's first
    k ids by (exact squared distance, id) and those distances, bit for
    bit the first k columns of a stable argsort of
    `_kernels.pairwise_sq_dists(q, points)` and its entries there.
    `sq_q` and `sq_points` are `squared_norms` of `q` and of `points`.
    With `inverse`, id j stands for point `inverse[j]`, as if `points`
    were `points[inverse]`. There must be at least k ids."""
    mask = candidate_mask(q, sq_q, points, sq_points, k, inverse)
    rows, ids = np.divmod(np.flatnonzero(mask), mask.shape[1])  # by query row, then id
    dists = _kernels.gathered_sq_dists(q, points, rows, ids if inverse is None else inverse[ids])
    if rows.size == q.shape[0]:  # a single candidate per row: its nearest
        return ids[:, None], dists[:, None]
    first = first_k_by_distance(np.bincount(rows, minlength=q.shape[0]), dists, k)
    return ids[first], dists[first]


class KnnIndex:
    """Brute-force euclidean index; ties resolve to the lower row id.

    A query is `nearest` over blocks of its rows: exactly the first k
    columns of a stable argsort of each row's exact distances
    (`_kernels.pairwise_sq_dists`), equal distances in ascending row
    id, so the answer for k is the first k columns of that for any
    larger k.
    """

    def __init__(self):
        self.points_ = None  # one training row per distinct id
        self.inverse_ = None  # original row -> its point, None if every id is distinct
        self.sq_norms_ = None  # squared norm of each point, in any summation order

    def fit(self, x: np.ndarray, ids) -> "KnnIndex":
        """Index the rows of `x`, whose training ids are `ids`, one int
        per row; rows of equal id must be equal. With no repeated id,
        `points_` is `x` and `inverse_` is None. Otherwise `points_` holds
        the first row of each id, in ascending id order, and `inverse_`
        maps every row of `x` to its point."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise DegenerateData("knn index needs a nonempty 2-d matrix")
        if not np.isfinite(x).all():
            raise DegenerateData("knn index requires finite features")
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != x.shape[:1]:
            raise DegenerateData(f"knn index needs one id per row, got shape {ids.shape}")
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        if first.size < x.shape[0]:
            self.points_, self.inverse_ = x[first], inverse
        else:
            self.points_, self.inverse_ = x, None
        self.sq_norms_ = squared_norms(self.points_)
        return self

    @property
    def n_points(self) -> int:
        if self.points_ is None:
            raise DegenerateData("knn index used before fit")
        return self.points_.shape[0] if self.inverse_ is None else self.inverse_.shape[0]

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
        if x.shape[0] == 0:
            return np.empty((0, k), dtype=np.int64)
        rows = max(1, QUERY_BLOCK_CELLS // self.n_points)
        blocks = (x[lo : lo + rows] for lo in range(0, x.shape[0], rows))
        return np.concatenate(
            [nearest(q, squared_norms(q), self.points_, self.sq_norms_, k, self.inverse_)[0]
             for q in blocks]
        )
