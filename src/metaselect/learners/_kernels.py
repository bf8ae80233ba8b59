"""Numeric hot loops of the learners, in plain numpy.

Callers guarantee finite inputs; missing values are imputed upstream.
The learners call every kernel through this module at call time, so a
wrapper bound to a kernel's name here sees each call.

The split kernels score all candidate features of a tree node at once:
each column of their (rows x candidates) inputs is one feature, sorted
ascending. Prefix sums run along axis 0, which accumulates each column
sequentially from the first row, so every column's result is bit for
bit what the same search on that column alone would give.

The distance kernel walks the rows of `a` in blocks of about
BLOCK_CELLS output cells, so that a block of output and one scratch
buffer of the same size stay in L2 cache. Inside a block it adds the
squared differences feature by feature, in column order, into the
zeroed block, so every distance is (((0 + d0²) + d1²) + ...) in that
order and bit for bit what a whole-matrix pass per feature gives. No
(len(a), len(b), d) temporary is ever built. The difference of a
column of `a` and a row of `b` is a broadcast that numpy's ufunc loop
copies through buffers of `np.getbufsize()` elements; the kernel
shrinks them to UFUNC_BUFFER elements, so that they stay in L1 cache,
and restores the caller's size on return. Buffering moves values, it
does not change the arithmetic.
"""

from __future__ import annotations

import numpy as np

USING_NUMBA = False  # one numpy implementation per kernel; kept for result stamps

BLOCK_CELLS = 32768  # cells per distance block: block and scratch are 256 KiB each
UFUNC_BUFFER = 1024  # elements per ufunc buffer in the distance kernel: 8 KiB

# ---------------------------------------------------------------- splits


def _no_split(m):
    return np.full(m, np.inf), np.full(m, -1, dtype=np.int64)


def _split_window(n, min_leaf):
    """Prefix rows [lo, hi) whose split positions (row + 1) leave at
    least `min_leaf` rows, and at least one row, on either side; empty
    when the node is too small to split."""
    edge = max(min_leaf, 1)
    return edge - 1, n - edge


def _pick_best(score, values, wl, wr, lo, hi):
    """Per column: the first lowest score among valid split positions."""
    valid = (values[lo + 1 : hi + 1] != values[lo:hi]) & (wl > 0.0) & (wr > 0.0)
    score = np.where(valid, score, np.inf)
    best = score.argmin(axis=0)
    cols = np.arange(score.shape[1])
    found = valid.any(axis=0)
    best_score = np.where(found, score[best, cols], np.inf)
    best_pos = np.where(found, best + lo + 1, -1)
    return best_score, best_pos


def best_split_reg(values, targets, weights, min_leaf):
    """Best weighted-SSE split of each column of a node.

    `values`, `targets` and `weights` have shape (n, m); each column of
    `values` is ascending and the other two follow its row order.
    Returns (score, pos), each of shape (m,): the first pos rows of a
    column go left. A column with no position that satisfies the
    leaf-size and distinct-value constraints gets (inf, -1).
    """
    n, m = values.shape
    lo, hi = _split_window(n, min_leaf)
    if hi <= lo:
        return _no_split(m)
    wy = weights * targets
    cw = weights.cumsum(axis=0)
    cwy = wy.cumsum(axis=0)
    cwyy = (wy * targets).cumsum(axis=0)
    wl, wyl, wyyl = cw[lo:hi], cwy[lo:hi], cwyy[lo:hi]
    wr = cw[-1] - wl
    wyr = cwy[-1] - wyl
    wyyr = cwyy[-1] - wyyl
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (wyyl - wyl * wyl / wl) + (wyyr - wyr * wyr / wr)
    return _pick_best(score, values, wl, wr, lo, hi)


def best_split_cls(values, labels, weights, n_classes, min_leaf):
    """Best weighted-Gini split of each column, same contract as
    best_split_reg; `labels` holds class ids in [0, n_classes)."""
    n, m = values.shape
    lo, hi = _split_window(n, min_leaf)
    if hi <= lo:
        return _no_split(m)
    cw = weights.cumsum(axis=0)
    wl = cw[lo:hi]
    wr = cw[-1] - wl
    # per-class prefix sums, shape (n, m, n_classes)
    onehot = (labels[..., None] == np.arange(n_classes)) * weights[..., None]
    prefix = onehot.cumsum(axis=0)
    left = prefix[lo:hi]
    right = prefix[-1] - left
    # squares summed over classes in order by an accumulate, not a
    # reduction, whose pairwise summation could round differently
    sq_left = (left * left).cumsum(axis=-1)[..., -1]
    sq_right = (right * right).cumsum(axis=-1)[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (wl - sq_left / wl) + (wr - sq_right / wr)
    return _pick_best(score, values, wl, wr, lo, hi)


# ------------------------------------------------------------- distances


def pairwise_sq_dists(a, b):
    """Squared euclidean distances, shape (len(a), len(b))."""
    n_a, n_b = a.shape[0], b.shape[0]
    out = np.zeros((n_a, n_b))
    at = np.ascontiguousarray(a.T, dtype=np.float64)
    bt = np.ascontiguousarray(b.T, dtype=np.float64)
    rows = max(1, BLOCK_CELLS // max(n_b, 1))
    scratch = np.empty((min(rows, n_a), n_b))
    previous = np.setbufsize(UFUNC_BUFFER)
    try:
        for lo in range(0, n_a, rows):
            block = out[lo : lo + rows]
            diff = scratch[: block.shape[0]]
            for a_col, b_col in zip(at[:, lo : lo + rows, None], bt):
                np.subtract(a_col, b_col, out=diff)
                np.multiply(diff, diff, out=diff)
                np.add(block, diff, out=block)
    finally:
        np.setbufsize(previous)
    return out


# ---------------------------------------------------------------- kmeans


def kmeans_accumulate(x, assign, k):
    """Per-cluster coordinate sums and member counts."""
    d = x.shape[1]
    sums = np.zeros((k, d))
    for col in range(d):
        sums[:, col] = np.bincount(assign, weights=x[:, col], minlength=k)
    counts = np.bincount(assign, minlength=k).astype(np.float64)
    return sums, counts


# ------------------------------------------------------------ tree apply


def tree_apply(feature, threshold, left, right, x):
    """Leaf index reached by each row; internal nodes have feature >= 0."""
    n = x.shape[0]
    node = np.zeros(n, dtype=np.int64)
    active = np.nonzero(feature[node] >= 0)[0]
    while active.size:
        current = node[active]
        go_left = x[active, feature[current]] <= threshold[current]
        node[active] = np.where(go_left, left[current], right[current])
        active = active[feature[node[active]] >= 0]
    return node
