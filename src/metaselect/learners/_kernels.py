"""Numeric hot loops of the learners, in plain numpy.

Callers guarantee finite inputs; missing values are imputed upstream.
The learners call every kernel through this module at call time, so a
wrapper bound to a kernel's name here sees each call.

The split kernels score the candidate features of several tree nodes
at once: each column of their (rows x columns) inputs is one candidate
feature of one node, sorted ascending, and `sizes` gives each column's
real length. Shorter columns are padded at the bottom with +inf values
of zero weight and zero target, so the padding sorts last and adding
its +0.0 terms leaves every prefix sum exact; the last row still holds
each column's totals. Prefix sums run along axis 0, which accumulates
each column sequentially from the first row, and a column's split
window ends `min_leaf` rows before its own length, so every column's
result is bit for bit what the same search on that column alone would
give. One node is the case where every column has full length. In
the Gini kernel, integer-valued weights that total less than 2**26 per
column make every prefix sum, square and sum over classes an exact
integer in any order of the rows, so a run of equal samples merged into
one row weighted by the run's length scores every value boundary to the
same bits. A column's values are only compared with their neighbours,
for equality, so any values that sort alike serve, such as the forest
grower's per-feature ranks with a padding rank above them all.

`gathered_sq_dists` computes the squared euclidean distances of a list
of (row of `a`, row of `b`) pairs. It takes the pairs in chunks of
about GATHER_CELLS (pair, feature) cells, so a chunk's scratch stays in
L2 cache: it gathers the chunk's rows of both inputs, subtracts and
squares in place, and adds the features with one `np.add.reduce` over
axis 0 of the chunk's C-contiguous (features, pairs) transpose. numpy
reduces the outer axis of a C-contiguous array row by row, adding each
row into the running sums with an elementwise loop along the
contiguous axis, so every pair's distance is ((d0² + d1²) + d2²) + ...
in column order, which is also what adding the squares to a zero one
feature at a time gives, since 0 + d0² is d0² (a square is never
-0.0). A reduction over the contiguous axis instead, or over a single
pair, whose pair axis numpy drops, would run numpy's pairwise
summation, which adds in another order from 8 features on; so a chunk
never holds one pair alone. `pairwise_sq_dists` is the all-pairs case,
every pair of a row of `a` and a row of `b` in row-major order,
reshaped to the (len(a), len(b)) matrix; k-means++ seeding asks it for
every point's distance to a new centroid. A kNN query and the k-means
assignment rank on a cheaper approximation and gather the pairs of
their few candidates only. So every exact distance comes from the one
reduction, and a distance is the same bits whichever form computes it.

Error of these distances (Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., §2.2 and §3.1). Let u = 2**-53 be the unit
roundoff of float64 and γ_n = n·u / (1 - n·u). Barring overflow and
underflow each operation is fl(x ∘ y) = (x ∘ y)(1 + δ) with |δ| <= u,
and a product of n factors (1 + δ_i)^(±1) is 1 + θ_n with |θ_n| <= γ_n
(Lemma 3.1). Over d features the kernel adds d squares to a zero; 0 + s
is exact, so each square passes through at most d - 1 additions, after
one rounding in the difference (squared, so twice) and one in the
square: d + 2 roundings in all. Every term is nonnegative, so with
D = Σ_j (q_j - p_j)² the true squared distance of rows q and p,

    |fl(D) - D| <= γ_{d+2} · D <= 2γ_{d+2} · (‖q‖² + ‖p‖²),

the last step by (q_j - p_j)² <= 2(q_j² + p_j²). With gradual
underflow a product can also be off by up to 2**-1075 in absolute
terms (an addition whose result is subnormal is exact), which adds at
most d · 2**-1075 · (1 + γ_{d-1}) more.

The k-means accumulation sums every (cluster, column) cell in one
`np.bincount` over flattened bins; bincount adds each bin's terms in
input order, which is the row order a per-column call would use.
"""

from __future__ import annotations

import numpy as np

USING_NUMBA = False  # one numpy implementation per kernel; kept for result stamps

GATHER_CELLS = 16384  # (pair, feature) cells per gathered chunk: 128 KiB of scratch each

# ---------------------------------------------------------------- splits


def _no_split(m):
    return np.full(m, np.inf), np.full(m, -1, dtype=np.int64)


def _split_window(n, min_leaf):
    """Prefix rows [lo, hi) whose split positions (row + 1) leave at
    least `min_leaf` rows, and at least one row, on either side of an
    n-row column; empty when the column is too short to split."""
    edge = max(min_leaf, 1)
    return edge - 1, n - edge


def _pick_best(score, values, wl, wr, lo, hi, sizes):
    """Per column: the first lowest score among valid split positions,
    which end as far before the column's own size as `hi` does before n.
    Overwrites the invalid positions of `score` with +inf."""
    ends = np.asarray(sizes) + (hi - values.shape[0])
    valid = values[lo + 1 : hi + 1] != values[lo:hi]
    valid &= wl > 0.0
    valid &= wr > 0.0
    valid &= np.arange(lo, hi)[:, None] < ends
    np.copyto(score, np.inf, where=~valid)
    best = score.argmin(axis=0)
    best_pos = np.where(valid.any(axis=0), best + lo + 1, -1)
    return score[best, np.arange(score.shape[1])], best_pos


def best_split_reg(values, targets, weights, min_leaf, sizes):
    """Best weighted-SSE split of each column.

    `values`, `targets` and `weights` have shape (n, m). Column j holds
    one candidate feature of some node: its first `sizes[j]` rows are
    the node's values in ascending order, with targets and weights in
    the same row order; rows below are padding, +inf values with zero
    weight and target. Returns (score, pos), each of shape (m,): the
    first pos rows of a column go left. A column with no position that
    satisfies the leaf-size and distinct-value constraints gets
    (inf, -1).
    """
    n, m = values.shape
    lo, hi = _split_window(n, min_leaf)
    if hi <= lo:
        return _no_split(m)
    cw = weights.cumsum(axis=0)
    cwy = weights * targets
    cwyy = cwy * targets
    cwy.cumsum(axis=0, out=cwy)
    cwyy.cumsum(axis=0, out=cwyy)
    wl, wyl, wyyl = cw[lo:hi], cwy[lo:hi], cwyy[lo:hi]
    wr = cw[-1] - wl
    wyr = cwy[-1] - wyl
    # (wyyl - wyl * wyl / wl) + (wyyr - wyr * wyr / wr), in place; wyyr
    # takes wyyl's place once the left term is done
    with np.errstate(divide="ignore", invalid="ignore"):
        np.multiply(wyl, wyl, out=wyl)
        wyl /= wl
        np.subtract(wyyl, wyl, out=wyl)
        wyyr = np.subtract(cwyy[-1], wyyl, out=wyyl)
        np.multiply(wyr, wyr, out=wyr)
        wyr /= wr
        np.subtract(wyyr, wyr, out=wyr)
        wyl += wyr
    return _pick_best(wyl, values, wl, wr, lo, hi, sizes)


def best_split_cls(values, labels, weights, n_classes, min_leaf, sizes):
    """Best weighted-Gini split of each column, same contract as
    best_split_reg; `labels` holds class ids in [0, n_classes), 0 in
    padding rows."""
    n, m = values.shape
    lo, hi = _split_window(n, min_leaf)
    if hi <= lo:
        return _no_split(m)
    cw = weights.cumsum(axis=0)
    wl = cw[lo:hi]
    wr = cw[-1] - wl
    # per-class prefix sums, shape (n_classes, n, m): each class's 0/1
    # indicator times the weights, in place
    prefix = np.empty((n_classes, n, m))
    np.equal(labels, np.arange(n_classes)[:, None, None], out=prefix)
    prefix *= weights
    prefix.cumsum(axis=1, out=prefix)
    left = prefix[:, lo:hi]
    right = prefix[:, -1:] - left
    # squares summed over classes in class order, in place; a sum
    # reduction is pairwise from 8 classes on and could round
    # differently, and an accumulate over the class axis pays its fixed
    # cost once per (row, column) lane
    np.multiply(left, left, out=left)
    np.multiply(right, right, out=right)
    sum_left, sum_right = left[0], right[0]
    for k in range(1, n_classes):
        sum_left += left[k]
        sum_right += right[k]
    # (wl - sum_left / wl) + (wr - sum_right / wr), in place
    with np.errstate(divide="ignore", invalid="ignore"):
        sum_left /= wl
        np.subtract(wl, sum_left, out=sum_left)
        sum_right /= wr
        np.subtract(wr, sum_right, out=sum_right)
        sum_left += sum_right
    return _pick_best(sum_left, values, wl, wr, lo, hi, sizes)


# ------------------------------------------------------------- distances


def pairwise_sq_dists(a, b):
    """Squared euclidean distances, shape (len(a), len(b)): every pair
    of `gathered_sq_dists`, row by row of `a`."""
    n_a, n_b = len(a), len(b)
    rows_a, rows_b = np.repeat(np.arange(n_a), n_b), np.tile(np.arange(n_b), n_a)
    return gathered_sq_dists(a, b, rows_a, rows_b).reshape(n_a, n_b)


def gathered_sq_dists(a, b, rows_a, rows_b):
    """Squared euclidean distances of the pairs (a[rows_a[i]], b[rows_b[i]]),
    shape (len(rows_a),)."""
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"feature counts differ: {a.shape[1]} and {b.shape[1]}")
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    n = len(rows_a)
    if n == 1:  # one pair alone would be summed pairwise: reduce it twice
        rows_a, rows_b = np.repeat(rows_a, 2), np.repeat(rows_b, 2)
    out = np.empty(len(rows_a))
    chunks = max(1, -(-out.size // max(2, GATHER_CELLS // max(a.shape[1], 1))))
    bounds = [out.size * i // chunks for i in range(chunks + 1)]  # 2 pairs or more each
    for lo, hi in zip(bounds, bounds[1:]):
        diff = a[rows_a[lo:hi]]
        diff -= b[rows_b[lo:hi]]
        diff *= diff
        np.add.reduce(np.ascontiguousarray(diff.T), axis=0, out=out[lo:hi])
    return out[:n]


# ---------------------------------------------------------------- kmeans


def kmeans_accumulate(x, assign, k):
    """Per-cluster coordinate sums and member counts."""
    d = x.shape[1]
    bins = (assign[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(bins, weights=x.ravel(), minlength=k * d)
    # an empty `bins` comes back as integers
    sums = sums.astype(np.float64, copy=False).reshape(k, d)
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    return sums, counts


# ------------------------------------------------------------ tree apply


def tree_apply(feature, threshold, left, right, x, roots=(0,)):
    """Leaf reached by each row from each root, shape (len(roots), len(x));
    internal nodes have feature >= 0. All (root, row) pairs descend
    together, one level per pass."""
    n, d = x.shape
    roots = np.asarray(roots, dtype=np.int64)
    node = np.repeat(roots, n)
    row_start = np.tile(np.arange(n) * d, roots.size)  # of each pair's row in x.ravel()
    cells = x.ravel()
    active = np.nonzero(feature[node] >= 0)[0]
    while active.size:
        current = node[active]
        go_left = cells[row_start[active] + feature[current]] <= threshold[current]
        node[active] = np.where(go_left, left[current], right[current])
        active = active[feature[node[active]] >= 0]
    return node.reshape(roots.size, n)
