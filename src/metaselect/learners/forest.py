"""Random forests over array-encoded trees.

Trees are grown on bootstrap resamples with per-node random feature
subsets. Node storage is flat arrays (feature, threshold, child ids). A
fit keeps all its trees' nodes in one set of arrays, tree after tree,
child ids shifted by each tree's offset (`trees_` gives each tree back
on its own), so a prediction is one `tree_apply` call: every
(tree, row) pair starts at its tree's root and all pairs descend one
level per pass. The leaves' payloads are then added tree after tree,
starting from +0.0, so the sum rounds as a loop over the trees does.
All randomness is drawn at numpy level from a per-tree generator; the
kernels are pure functions.

`fit_forests` checks each fit, a forest with its rows of a feature
matrix, its targets and weights, and `fit` is its one-forest case. Fits
of one shape (feature count, mtry, min_leaf, max_depth, classification
and class count) grow together in one `_Grower`, whether one call or
several calls of one `grow_together()` scope brought them. There
`mtry=None` counts as ceil(sqrt(feature count)), and an mtry above the
feature count as that count. The grower stacks the group's distinct
matrices once. Each growth lays its own trees' root samples end to end,
then one padding sample, so a node's rows are sample ids: one id reads
a sample's feature row, target and weight, and the nodes of different
trees share every gather. A tree's root samples are the rows its
bootstrap drew, in draw order, each with its fit's weight. A
classifier's targets are its int64 labels, the one array of them that
the split search and the payloads read.

A classifier fit with min_leaf 1, every weight 1 and fewer than 2**26
rows collapses: a tree's root samples are the distinct rows of its
bootstrap, each weighted by its multiplicity, not every drawn row. With
integer weights below 2**26 every class prefix sum, square, sum over
classes and leaf histogram is an exact integer below 2**53 in any
order, so every value boundary scores the same bits, the first lowest
split is the same boundary and reads the same threshold (values of one
rank are equal, and a midpoint from -0.0 rounds as one from 0.0), a
child is a leaf exactly when it is one in the expanded tree (with
min_leaf 1 a one-row child is one training row, so pure) and every
payload is the same ratio of integers. Node ids and candidate draws do
not change, so a collapsed tree is bit for bit the tree grown on its
duplicates. A regressor, a fit with any other weight or a min_leaf
above 1 grows on its drawn rows, duplicates and all. Either way a
node's rows keep their order and each sample its feature row, target
and weight, whatever else shares the growth, so every stable sort,
prefix sum, threshold and payload reads the bits it reads when the tree
grows alone.

A group's trees grow in growths of at most GROW_SAMPLES root samples
(trees x root rows), tree after tree, and a tree bigger than that
grows alone. A tree's generator and bootstrap are made when its
growth starts, and its leaves get their payloads when it ends, so a
tree's samples, rows, stack and generator live only while its growth
runs, and what a fit holds at once does not grow with its tree count.

Outside a `grow_together()` scope a call grows its fits at once.
Inside one, `fit_forests` checks its fits at once, so a bad fit raises
where it is called, and queues them; their forests have no trees until
the scope exits, and predicting one raises DegenerateData. Leaving the
scope grows the queued fits. A scope left by an exception grows
nothing. A scope inside another queues and grows its own fits.

The trees of one growth grow in lockstep: each step takes the next
node that needs a split search from every unfinished tree and scores
all their candidate features together. The pending nodes are sorted by
size and cut into split-kernel calls, each padded to its largest node;
a call ends before its padding would pass SPLIT_PAD_ROWS rows, which
keeps the wasted cells small without giving nodes of similar sizes a
call each, or before it would hold SPLIT_CELLS cells, which bounds the
kernel's temporaries. Each tree keeps its own generator and depth-first
order, and a node's candidates are sorted stably in the node's row
order, so a tree is bit for bit the tree grown alone, whatever else
shares its growth and its kernel calls. The search sorts each
feature's dense ranks, not its values: equal values share a rank, so
the stable order is the same, and 16-bit ranks sort by radix; ranks of
stacked matrices order each matrix's rows as its own ranks do.
Thresholds are read from the values.

A searched node's candidates are the next `rng.choice(d, mtry,
replace=False)` of its tree's generator, drawn DRAW_BLOCK nodes at a
time. Unless d > 10 000 and mtry > d // 50, numpy's choice is Floyd's
sample of mtry bounded integers followed by a shuffle that draws
mtry - 1 more, so one `integers` call with all the bounds of a block
reads the generator as the block's choice calls do, and the Floyd and
shuffle steps then run on every refilled tree's rows at once. Once its
bootstrap is drawn, a tree's generator serves only these draws, so the
sets left in its block after its last searched node change nothing.

A split settles at once which of its children are leaves: those too
small to split (fewer than 2 * min_leaf rows), at max_depth, or pure,
which the winning column's sorted targets show. Only the other children
go on their tree's stack, so every node popped from it is searched;
node ids and the order of the generator's draws are those of a grower
that tests each node when it pops it. Leaves, and the nodes no
candidate could split, keep their rows until their growth ends, and
then get their payloads in one batched pass.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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


def _stack(trees) -> tuple[_Tree, np.ndarray]:
    """All nodes of `trees` in one `_Tree`, tree after tree, with child
    ids shifted to match, and the id of each tree's root in it. A leaf's
    children (-1) are shifted too; a descent never reads them."""
    sizes = [tree.feature.size for tree in trees]
    roots = np.cumsum([0] + sizes[:-1])
    shift = np.repeat(roots, sizes)

    def joined(name):
        return np.concatenate([getattr(tree, name) for tree in trees])

    return _Tree(
        joined("feature"), joined("threshold"), joined("left") + shift, joined("right") + shift,
        joined("payload"),
    ), roots


SPLIT_PAD_ROWS = 512  # padding rows one split-kernel call may take on
SPLIT_CELLS = 1 << 18  # rows x candidates (x classes) of one call, unless it is one node
DRAW_BLOCK = 64  # candidate sets a tree draws at once
FLOYD_MAX_FEATURES = 10_000  # above it numpy's choice may shuffle the tail instead
GROW_SAMPLES = 1 << 17  # root samples (trees x root rows) of one growth, unless it is one tree


class _GrowingTree:
    """One tree under construction: its generator, its block of next
    candidate sets (one per row, row `drawn` next), its DFS stack of
    (node id, rows, depth) of the nodes that need a split search, its
    flat node arrays and its leaves' (node id, payload) pairs."""

    def __init__(self, rng):
        self.rng = rng
        self.draws: np.ndarray | list = []
        self.drawn = 0
        self.feature = [-1]
        self.threshold = [0.0]
        self.left = [-1]
        self.right = [-1]
        self.leaves: list = []
        self.stack: list = []

    def split(self, nid, feature, threshold) -> int:
        """Make node `nid` internal; returns its left child's id, the
        right one's is the next."""
        left_id = len(self.feature)
        self.feature[nid] = feature
        self.threshold[nid] = threshold
        self.left[nid] = left_id
        self.right[nid] = left_id + 1
        self.feature += (-1, -1)
        self.threshold += (0.0, 0.0)
        self.left += (-1, -1)
        self.right += (-1, -1)
        return left_id

    def finish(self, width) -> _Tree:
        payload = np.zeros((len(self.feature), width))
        ids, rows = zip(*self.leaves)
        payload[list(ids)] = rows
        return _Tree(
            feature=np.asarray(self.feature, dtype=np.int64),
            threshold=np.asarray(self.threshold, dtype=np.float64),
            left=np.asarray(self.left, dtype=np.int64),
            right=np.asarray(self.right, dtype=np.int64),
            payload=payload,
        )


def _dense_ranks(x) -> np.ndarray:
    """Each value's rank among the distinct values of its column, plus a
    last row of ranks above them all. Equal values, -0.0 and 0.0 among
    them, share a rank, so a stable sort of ranks orders rows as a
    stable sort of the values does; ranks below 2**15 sort by radix."""
    n, d = x.shape
    order = x.argsort(axis=0, kind="stable")
    ordered = np.take_along_axis(x, order, axis=0)
    dense = np.zeros((n, d), dtype=np.int64)
    np.cumsum(ordered[1:] != ordered[:-1], axis=0, out=dense[1:])
    ranks = np.empty((n + 1, d), dtype=np.int16 if n < 2**15 else np.int64)
    np.put_along_axis(ranks[:n], order, dense, axis=0)
    ranks[n] = n
    return ranks


def _segment_sums(values, sizes) -> np.ndarray:
    """Sums of consecutive segments of each row of `values`, shape
    (len(values), len(sizes)), each bit for bit `segment.sum()`: numpy
    sums each row of a C-contiguous matrix as it sums that row alone,
    so the segments of one size are summed as the rows of one matrix."""
    starts = np.cumsum(sizes) - sizes
    out = np.empty((values.shape[0], sizes.size))
    for size in np.unique(sizes).tolist():
        which = np.flatnonzero(sizes == size)
        out[:, which] = values.take(starts[which, None] + np.arange(size), axis=1).sum(axis=2)
    return out


def _refill(trees, d, m):
    """Give each tree its next DRAW_BLOCK candidate sets, bit for bit
    DRAW_BLOCK calls of `tree.rng.choice(d, m, replace=False)`.

    There numpy draws Floyd's sample, m integers with draw k in
    [0, d - m + k], where d - m + k replaces a draw already taken,
    then shuffles it: for i from m - 1 down to 1 it swaps place i
    with a draw in [0, i]. One `integers` call per tree draws the
    bounds of a whole block, and both steps run on every refilled
    tree's rows at once."""
    if not trees:
        return
    if d > FLOYD_MAX_FEATURES and m > d // 50:  # numpy's tail-shuffle path
        for tree in trees:
            tree.draws = [tree.rng.choice(d, m, replace=False) for _ in range(DRAW_BLOCK)]
            tree.drawn = 0
        return
    highs = np.tile(np.r_[d - m : d, m - 1 : 0 : -1], DRAW_BLOCK)
    raw = np.concatenate([tree.rng.integers(0, highs, endpoint=True) for tree in trees])
    raw = raw.reshape(-1, 2 * m - 1)
    draws, swaps = raw[:, :m], raw[:, m:]
    rows = np.arange(len(raw))
    taken = np.zeros((len(raw), d), dtype=bool)
    for k in range(m):
        pick = draws[:, k]
        pick[taken[rows, pick]] = d - m + k
        taken[rows, pick] = True
    for t, i in enumerate(range(m - 1, 0, -1)):
        j = swaps[:, t]
        held = draws[rows, j]
        draws[rows, j] = draws[:, i]
        draws[:, i] = held
    for tree, block in zip(trees, np.split(draws, len(trees))):
        tree.draws = block
        tree.drawn = 0


class _Grower:
    """Grows trees of one `_Fit` shape in lockstep, one growth per
    `grow` call. A node's rows are sample ids into the growth's sample
    arrays: sample i is feature row `feature_rows[i]` of `x` with target
    `y[i]` and weight `w[i]`.

    Each step refills the candidate block of every tree that has used
    its block up (`_refill`: numpy's own Floyd-and-shuffle stream, so a
    block holds the sets one `rng.choice` call per node would draw),
    pops the next node of every unfinished tree, gives it its tree's
    next set and searches the nodes so collected together, a few
    split-kernel calls per step. The sets left in a finished tree's
    block are never read, and nothing reads its generator after them.
    A tree's draws and node order are those of growing it alone, so its
    splits are too.
    """

    def __init__(self, x, shape):
        self.x = x
        self.ranks = _dense_ranks(x)
        self.n_features, self.n_candidates, self.min_leaf, max_depth = shape[:4]
        self.classification, self.n_classes = shape[4:]
        self.max_depth = max_depth if max_depth is not None else -1

    def grow(self, roots) -> None:
        """Grow each (tree, matrix rows, targets, weights of its root
        samples) to the end, and give its leaves their payloads. The
        roots' samples are laid end to end, then the padding sample,
        and each tree is rooted at its own range of them."""
        trees, *pieces = zip(*roots)
        ends = np.cumsum([rows.size for rows in pieces[0]]).tolist()
        # the last sample pads the columns of a batched search: its
        # feature row ranks above every value, and its zero weight and
        # target leave every prefix sum exact
        self.feature_rows, self.y, self.w = (
            np.concatenate([*parts, [pad]]) for parts, pad in zip(pieces, (self.x.shape[0], 0, 0.0))
        )
        del roots, pieces  # the caller's list was a temporary: drop each tree's pieces
        self.pad = self.w.size - 1
        # every leaf of the growth as (tree, node id), its size, and its rows in blocks
        self.leaves, self.leaf_sizes, self.leaf_rows = [], [], []
        for tree, start, end in zip(trees, [0, *ends], ends):
            rows = np.arange(start, end)
            if (
                rows.size < 2 * self.min_leaf
                or self.max_depth == 0
                or (self.y[start:end] == self.y[start]).all()
            ):
                self._add_leaves([(tree, 0)], [rows])
            else:
                tree.stack.append((0, rows, 0))
        trees = [tree for tree in trees if tree.stack]
        while trees:
            used_up = [tree for tree in trees if tree.drawn == len(tree.draws)]
            _refill(used_up, self.n_features, self.n_candidates)
            pending = [self._draw(tree) for tree in trees]
            pending.sort(key=lambda node: -node[2].size)
            for group in self._groups(pending):
                self._search(group)
            trees = [tree for tree in trees if tree.stack]
        self._settle()

    def _draw(self, tree):
        """The tree's next node as (tree, node id, rows, depth, candidates)."""
        nid, rows, depth = tree.stack.pop()
        candidates = tree.draws[tree.drawn]
        tree.drawn += 1
        return tree, nid, rows, depth, candidates

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
        make it a leaf, and settle which children are leaves."""
        m = self.n_candidates
        sizes = [node[2].size for node in group]
        width = len(group) * m
        index = np.full((sizes[0], len(group)), self.pad)
        for g, node in enumerate(group):
            index[: sizes[g], g] = node[2]
        candidates = np.array([node[4] for node in group])
        values = self.ranks[self.feature_rows.take(index)[:, :, None], candidates]
        values = values.reshape(sizes[0], width)
        # each column's stable order, as flat cells of values; index has
        # one column per node, so cell // m is the same row's cell there
        cells = values.argsort(axis=0, kind="stable")
        cells *= width
        cells += np.arange(width)
        values = values.take(cells)
        cells //= m
        rows = index.take(cells)
        del cells
        weights = self.w.take(rows)
        column_sizes = np.array(sizes).repeat(m)
        targets = self.y.take(rows)
        if self.classification:
            scores, positions = _kernels.best_split_cls(
                values, targets, weights, self.n_classes, self.min_leaf, column_sizes
            )
        else:
            scores, positions = _kernels.best_split_reg(
                values, targets, weights, self.min_leaf, column_sizes
            )
        # per node, the first lowest score among its candidates; NaN never wins
        scores = np.where(np.isnan(scores), np.inf, scores)
        cols = np.arange(0, width, m) + scores.reshape(len(group), m).argmin(axis=1)
        found = scores[cols] < np.inf
        leaves = [node[:2] for node, ok in zip(group, found.tolist()) if not ok]
        leaf_rows = [node[2] for node, ok in zip(group, found.tolist()) if not ok]
        split = [node for node, ok in zip(group, found.tolist()) if ok]
        if split:
            cols = cols[found]
            pos = positions[cols]
            features = candidates.ravel()[cols]
            below = self.x[self.feature_rows.take(rows[pos - 1, cols]), features]
            above = self.x[self.feature_rows.take(rows[pos, cols]), features]
            thresholds = below + (above - below) / 2.0
            # a midpoint rounded into the right block falls back to the left value
            thresholds = np.where(thresholds >= above, below, thresholds)
            sizes = column_sizes[cols]
            left_leaf, right_leaf = self._leaf_children(targets.T[cols], sizes, pos, split)
            children = zip(
                split,
                cols.tolist(),
                features.tolist(),
                thresholds.tolist(),
                pos.tolist(),
                sizes.tolist(),
                left_leaf.tolist(),
                right_leaf.tolist(),
            )
            for node, col, feature, threshold, at, size, left_is_leaf, right_is_leaf in children:
                tree, nid, _, depth, _ = node
                left_id = tree.split(nid, feature, threshold)
                node_rows = rows[:size, col]
                if right_is_leaf:
                    leaves.append((tree, left_id + 1))
                    leaf_rows.append(node_rows[at:])
                else:
                    tree.stack.append((left_id + 1, node_rows[at:].copy(), depth + 1))
                if left_is_leaf:
                    leaves.append((tree, left_id))
                    leaf_rows.append(node_rows[:at])
                else:
                    tree.stack.append((left_id, node_rows[:at].copy(), depth + 1))
        if leaves:
            self._add_leaves(leaves, leaf_rows)

    def _add_leaves(self, leaves, rows):
        """Note the leaves (tree, node id) and their rows, copied into one block."""
        self.leaves += leaves
        self.leaf_sizes += [r.size for r in rows]
        self.leaf_rows.append(np.concatenate(rows))

    def _leaf_children(self, targets, sizes, pos, nodes):
        """Which children of the split nodes are leaves, as (left, right)
        flags: too few rows, at max_depth, or every target equal to the
        first, which holds where their least equals their greatest (NaN
        equals nothing). Row j of `targets` holds node j's targets in
        its children's row order, the first pos[j] on the left."""
        starts = np.arange(0, targets.size, targets.shape[1])
        # each node's left child, right child and padding, end to end
        bounds = (np.array([0 * pos, pos, sizes]) + starts).T.ravel()
        if bounds[-1] == targets.size:
            bounds = bounds[:-1]
        flat = targets.ravel()
        pure = np.minimum.reduceat(flat, bounds) == np.maximum.reduceat(flat, bounds)
        left_leaf = (pos < 2 * self.min_leaf) | pure[0::3]
        right_leaf = (sizes - pos < 2 * self.min_leaf) | pure[1::3]
        if self.max_depth >= 0:
            deep = np.array([node[3] for node in nodes]) + 1 >= self.max_depth
            left_leaf |= deep
            right_leaf |= deep
        return left_leaf, right_leaf

    def _settle(self):
        """Give every leaf of the growth its payload, and drop its rows."""
        leaves, sizes, rows = self.leaves, self.leaf_sizes, self.leaf_rows
        self.leaves = self.leaf_sizes = self.leaf_rows = None
        if not leaves:
            return
        payloads = _leaf_payloads(
            np.concatenate(rows),
            np.array(sizes),
            self.y,
            self.w,
            self.n_classes if self.classification else 0,
        )
        for (tree, nid), row in zip(leaves, payloads):
            tree.leaves.append((nid, row))


def _leaf_payloads(samples, sizes, y, w, n_classes=0) -> np.ndarray:
    """The payload of each leaf, whose samples are the next `sizes[i]`
    of `samples`, ids into a growth's targets `y` and weights `w`: with
    `n_classes`, its class histogram of the int64 labels `y` weighted by
    `w` over its total weight (uniform when that is zero); without, its
    mean target weighted by `w` (the plain mean when the weights sum to
    zero). Bit for bit the payload computed for one leaf at a time. With
    integer weights the histogram and total are exact integers, so
    equal samples merged into one weighted by their count, as a
    collapsed tree's are, give the same class payload bits."""
    w, y = w.take(samples), y.take(samples)
    if n_classes:
        bins = np.arange(sizes.size).repeat(sizes) * n_classes + y
        hist = np.bincount(bins, weights=w, minlength=sizes.size * n_classes)
        total = _segment_sums(w[None], sizes).reshape(-1, 1)
        payload = np.full((sizes.size, n_classes), 1.0 / n_classes)
        np.divide(hist.reshape(-1, n_classes), total, out=payload, where=total > 0)
        return payload
    total, weighted, plain = _segment_sums(np.stack([w, w * y, y]), sizes)
    payload = plain / sizes
    np.divide(weighted, total, out=payload, where=total > 0)
    return payload[:, None]


# The queue of the innermost open `grow_together` scope, or None outside every scope.
_GROW_QUEUE = contextvars.ContextVar("metaselect_grow_together", default=None)


@contextlib.contextmanager
def grow_together():
    """Queue every `fit_forests` call of the block, and grow the queued
    fits when the block exits, those of one shape together.

    The calls check their fits at once and raise as they would outside
    the block; a queued forest has no trees until the block exits. A
    block left by an exception grows nothing, and the queue is dropped.
    A block inside another queues and grows its own fits.
    """
    queue = []
    token = _GROW_QUEUE.set(queue)
    try:
        yield
    finally:
        _GROW_QUEUE.reset(token)
    _grow(queue)


class _Fit(NamedTuple):
    """A checked fit: its growth shape (feature count, mtry, min_leaf,
    max_depth, classification, class count), its matrix and forest, and
    the matrix rows, targets, weights and tree seeds it grows on, and
    whether its trees collapse onto their distinct bootstrap rows."""

    shape: tuple
    x: np.ndarray
    forest: _BaseForest
    rows: np.ndarray
    y: np.ndarray
    w: np.ndarray
    seeds: list
    collapse: bool


def fit_forests(x, fits) -> None:
    """Fit each (forest, rows, y, sample_weight) of `fits` on the rows
    `rows` of `x` (every row when None), targets `y` and weights
    `sample_weight`, one per row. Each fit is checked now, and grown
    by `_grow` at once or, inside a `grow_together()` scope, when the
    scope exits. Targets must be finite, and a classifier's labels
    nonnegative integers.

    Every forest ends bit for bit as `forest.fit(x[rows], y,
    sample_weight)` leaves it, whatever grows beside it. The forests of
    one call may differ in class, growth parameters, tree count and
    seed; fits of one shape grow together, whether one call or several
    calls of one scope brought them. Whether a fit's trees collapse onto
    their distinct bootstrap rows (see the module docstring) is decided
    here, from the fit alone; each growth then lays out the root samples
    of its own trees only, so what grows beside a fit never moves them.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise DegenerateData("forest needs a nonempty 2-d feature matrix")
    if not np.isfinite(x).all():
        raise DegenerateData("forest features must be finite after imputation")
    n, d = x.shape
    records = []
    for forest, rows, y, sample_weight in fits:
        if forest.n_trees < 1:
            raise DegenerateData("forest needs at least one tree")
        if forest.mtry is not None and forest.mtry < 1:
            raise DegenerateData("forest needs mtry of at least one feature")
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            raise DegenerateData("forest needs at least one row")
        if rows.ndim != 1 or rows.min() < 0 or rows.max() >= n:
            raise DegenerateData("forest rows must index the feature matrix")
        y = np.ascontiguousarray(forest._targets(y))
        if y.shape != rows.shape:
            raise DegenerateData("target length does not match feature rows")
        w = np.ones(rows.size) if sample_weight is None else sample_weight
        w = np.ascontiguousarray(w, dtype=np.float64)
        if w.shape != rows.shape or not np.isfinite(w).all() or (w < 0).any():
            raise DegenerateData("sample weights must be finite and nonnegative, one per row")
        mtry = min(d, forest.mtry if forest.mtry is not None else math.ceil(math.sqrt(d)))
        shape = (d, mtry, forest.min_leaf, forest.max_depth, forest._classification,
                 forest._n_classes)
        seed = forest.seed
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        collapse = (
            forest._classification and forest.min_leaf == 1 and rows.size < 2**26 and (w == 1).all()
        )
        records.append(_Fit(shape, x, forest, rows, y, w, root.spawn(forest.n_trees), collapse))
    queue = _GROW_QUEUE.get()
    if queue is None:
        _grow(records)
        return
    for record in records:
        record.forest.nodes_ = record.forest.roots_ = None  # no trees until the scope grows them
    queue += records


def _grow(records) -> None:
    """Grow every `_Fit` of `records`, the fits of one shape together:
    their distinct matrices stacked once, and their trees grown tree
    after tree in growths of at most GROW_SAMPLES root samples (trees x
    root rows); a bigger tree grows alone. A forest gets its trees when
    its last one has grown."""
    groups = {}
    for record in records:
        groups.setdefault(record.shape, []).append(record)
    for shape, fits in groups.items():
        matrices = list({id(fit.x): fit.x for fit in fits}.values())
        ends = np.cumsum([m.shape[0] for m in matrices]).tolist()
        starts = {id(m): end - m.shape[0] for m, end in zip(matrices, ends)}
        grower = _Grower(np.concatenate(matrices) if len(matrices) > 1 else matrices[0], shape)
        grown = [[] for _ in fits]
        # every (fit, tree seed), the first last, so that pop() takes them in order
        trees = [(i, seed) for i, fit in enumerate(fits) for seed in fit.seeds][::-1]
        while trees:
            growth, samples = [], 0
            while trees and (not growth or samples + fits[trees[-1][0]].rows.size <= GROW_SAMPLES):
                i, seed = trees.pop()
                samples += fits[i].rows.size
                growth.append((i, _GrowingTree(np.random.default_rng(seed))))
            # a temporary list, so the grower alone holds each tree's root samples
            grower.grow([
                (tree, *_root_samples(fits[i], tree.rng, starts[id(fits[i].x)]))
                for i, tree in growth
            ])
            for i, tree in growth:
                grown[i].append(tree.finish(grower.n_classes if grower.classification else 1))
                if len(grown[i]) == len(fits[i].seeds):
                    forest = fits[i].forest
                    forest.nodes_, forest.roots_ = _stack(grown[i])
                    forest.n_features_ = grower.n_features
                    grown[i] = None
            del tree  # its candidate block is a view of its whole growth's draws


def _root_samples(fit, rng, start):
    """A tree's bootstrap of `fit`, drawn from its generator, as the
    (stacked matrix rows, targets, weights) of its root samples: the
    drawn rows with the fit's weights or, when the fit collapses, its
    distinct rows weighted by how often they were drawn. `start` is the
    first row of the fit's matrix in the stacked one."""
    n = fit.rows.size
    drawn = rng.integers(0, n, size=n)
    if fit.collapse:
        counts = np.bincount(drawn, minlength=n)
        drawn = np.flatnonzero(counts)
        w = counts[drawn].astype(np.float64)
    else:
        w = fit.w.take(drawn)
    return fit.rows.take(drawn) + start, fit.y.take(drawn), w


@dataclass
class _BaseForest:
    n_trees: int = 100
    max_depth: int | None = None
    min_leaf: int = 1
    mtry: int | None = None
    seed: int = 0
    nodes_: _Tree | None = field(default=None, repr=False)  # every tree's nodes, see _stack
    roots_: np.ndarray | None = field(default=None, repr=False)  # each tree's root in nodes_
    n_features_: int = field(default=0, repr=False)

    _classification = False
    _n_classes = 0

    @property
    def trees_(self) -> list[_Tree]:
        """Each tree on its own, node ids from 0: views of `nodes_` but
        for the child ids, which are shifted back."""
        if self.nodes_ is None:
            return []
        nodes = self.nodes_
        ends = [*self.roots_[1:], nodes.feature.size]
        return [
            _Tree(nodes.feature[a:b], nodes.threshold[a:b], nodes.left[a:b] - a,
                  nodes.right[a:b] - a, nodes.payload[a:b])
            for a, b in zip(self.roots_, ends)
        ]

    def _targets(self, y):
        y = np.asarray(y, dtype=np.float64)
        if not np.isfinite(y).all():
            raise DegenerateData("forest targets must be finite")
        return y

    def _accumulate(self, x):
        x = np.ascontiguousarray(x, dtype=np.float64)
        if self.nodes_ is None:
            raise DegenerateData("forest used before fit")
        if x.ndim != 2 or x.shape[1] != self.n_features_:
            raise DegenerateData(
                f"forest needs rows of {self.n_features_} features, got shape {x.shape}"
            )
        nodes = self.nodes_
        leaves = _kernels.tree_apply(
            nodes.feature, nodes.threshold, nodes.left, nodes.right, x, self.roots_
        )
        acc = np.zeros((x.shape[0], nodes.payload.shape[1]))
        for tree_leaves in leaves:  # in tree order, from +0.0
            acc += nodes.payload[tree_leaves]
        return acc / len(leaves)


class ForestRegressor(_BaseForest):
    def __init__(self, n_trees=100, max_depth=None, min_leaf=5, mtry=None, seed=0):
        super().__init__(n_trees, max_depth, min_leaf, mtry, seed)

    def fit(self, x, y, sample_weight=None):
        fit_forests(x, [(self, None, y, sample_weight)])
        return self

    def predict(self, x):
        return self._accumulate(x)[:, 0]


class ForestClassifier(_BaseForest):
    _classification = True

    def __init__(self, n_trees=100, max_depth=None, min_leaf=1, mtry=None, seed=0, n_classes=None):
        super().__init__(n_trees, max_depth, min_leaf, mtry, seed)
        self.n_classes = n_classes

    def _targets(self, y):
        labels = super()._targets(y)
        if (labels < 0).any() or (labels != np.floor(labels)).any():
            raise DegenerateData("class labels must be nonnegative integers")
        inferred = int(labels.max()) + 1 if labels.size else 0
        self._n_classes = self.n_classes if self.n_classes is not None else inferred
        if labels.size and inferred > self._n_classes:
            raise DegenerateData("label outside declared class range")
        return labels.astype(np.int64)

    def fit(self, x, y, sample_weight=None):
        fit_forests(x, [(self, None, y, sample_weight)])
        return self

    def predict_proba(self, x):
        return self._accumulate(x)

    def predict(self, x):
        return np.argmax(self.predict_proba(x), axis=1)
