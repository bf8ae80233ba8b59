"""Time each numeric kernel, the voting engine and the forest grower.

Run as ``PYTHONPATH=src python3 benchmarks/bench_kernels.py``. Each
kernel is called once untimed, then timed over ``--repeats`` calls, and
the best call is reported. The split kernels get the candidate columns
of several tree nodes at once, as the forest grower passes them: 8
candidate features of each of 8 nodes of 1000 down to 300 rows, each
column sorted and padded below its node's rows with +inf values of
zero weight. The all-pairs distance kernel gets 800 rows of 50
features against one centroid, the one shape any code asks of it: a
k-means++ seeding step in a 5-fold run on 1000 instances. The k-means
accumulation sums those 800 rows into 10 clusters.
k-means fits 800 rows of 50 features into 10 and into 4 clusters
(seeding and every Lloyd step), and the 10-cluster model finds the
nearest centroid of 800 fresh rows, as ISAC's prediction does. Three kNN
queries at k = 16 rank 800 training rows against an index of themselves
(a self-query, as stacking makes), 200 test rows against an index of
800 distinct rows, and 200 test rows against an index of an 800-row
bootstrap resample, which keeps only its distinct rows; two kNN index
fits build an index of those 800 rows and of a bootstrap resample of
them, each grouping its rows by their training ids. A 5-tree, 5-class forest fit on
240 rows of 10 features (a training fold of a 300-instance scenario)
predicts its 60 test rows, all trees in one descent. The voting engine scores
every member subset with `borda`: 3 members on 800 instances over 10
algorithms (7 subsets, the exhaustive voting search of that 5-fold run),
and the 15-member gate on 200 instances (32767 subsets). One tree's
candidate draws for 64 nodes, 8 of 50 features each, are timed as the
grower makes them, one block, and as one `Generator.choice` call per
node, which draws the same sets. The grower
fits two 100-tree forests, the paper's forest size: a 5-class forest on
240 rows by 10 features (a training fold of a 300-instance scenario)
and a weighted binary one on 1000 rows by 50 features (one pair of a
pairwise selector at ASlib size); a fit is timed at most FIT_REPEATS
times and not called untimed first. Three selector fits have the shape
of an ASlib scenario: one training fold (900 rows) of a synthetic
scenario of 1000 instances, 31 algorithms and 50 features with 30 %
extra timeouts, fit by `pairwise(trees=2)` (465 two-tree forests),
`peralgo(trees=10)` (31 ten-tree forests) and `multiclass(trees=20)`
(one 20-tree, 31-class forest, whose unweighted trees grow on their
distinct bootstrap rows weighted by multiplicity); they are timed like the
forest fits, and one more, untimed fit under `tracemalloc` reports
their split-kernel calls and the peak of the memory the fit allocates. The other inputs
resemble a mid-sized scenario, not the tiny fixtures the tests use.
Every case draws its inputs from its own generator, seeded from
``--seed`` and the case's label (an ASlib case: its selector spec), so
adding, removing or reordering cases changes no other case's inputs.
"""

import argparse
import time
import tracemalloc
import zlib
from collections import deque

import numpy as np

from metaselect.aggregation import subset_choices
from metaselect.ensembles import MAX_EXHAUSTIVE_MEMBERS
from metaselect.learners import ForestClassifier, KnnIndex, _kernels, fit_kmeans
from metaselect.learners.forest import DRAW_BLOCK, _GrowingTree, _refill
from metaselect.selectors import make_selector
from metaselect.synthetic import SyntheticConfig, generate_synthetic

NODE_ROWS, NODE_CANDIDATES, N_CLASSES, MIN_LEAF = 1000, 8, 4, 5
NODE_SIZES = np.linspace(NODE_ROWS, 300, 8).astype(int)  # rows of each node of a call
FIT_TREES, FIT_REPEATS = 100, 3
FIT_SHAPES = ((240, 10, 5, False), (1000, 50, 2, True))  # (rows, features, classes, weighted)
DIST_SHAPES = ((800, 1, 50),)  # (n_a, n_b, d)
KMEANS_SHAPE = (800, 50, 10)  # (rows, features, clusters)
KNN_SHAPE = (200, 800, 50, 16)  # (test queries, training rows, features, k)
PREDICT_SHAPE = (5, 240, 60, 10, 5)  # (trees, training rows, test rows, features, classes)
ENGINE_SHAPES = ((3, 800, 10), (MAX_EXHAUSTIVE_MEMBERS, 200, 10))  # (members, n, K)
ASLIB_SHAPE = (1000, 31, 50, 10)  # (instances, algorithms, features, folds)
ASLIB_FITS = ("pairwise(trees=2)", "peralgo(trees=10)", "multiclass(trees=20)")
DRAW_SHAPE = (DRAW_BLOCK, 50, 8)  # (nodes, features, candidates per node)


def node_columns(rng):
    """Sorted, padded candidate columns of several nodes, their weights
    and the real length of each column."""
    sizes = np.repeat(NODE_SIZES, NODE_CANDIDATES)
    padding = np.arange(NODE_ROWS)[:, None] >= sizes
    values = np.round(rng.normal(size=padding.shape), 2)
    values = np.sort(np.where(padding, np.inf, values), axis=0)
    weights = np.where(padding, 0.0, rng.uniform(0.1, 2.0, size=padding.shape))
    return values, weights, padding, sizes


def all_borda_subsets(scores):
    deque(subset_choices("borda", scores), maxlen=0)


def case_seed(seed: int, label: str) -> int:
    """Seed of one case's inputs, from the run's seed and the case's label,
    so adding or removing a case leaves every other case's inputs as they
    were."""
    return zlib.crc32(f"{seed}/{label}".encode())


def case_rng(seed: int, label: str) -> np.random.Generator:
    """The generator of one case's inputs."""
    return np.random.default_rng(case_seed(seed, label))


def bench_cases(seed):
    """(label, function, arguments) of every timed call."""
    rng = case_rng(seed, label := "best_split_reg")
    values, weights, padding, sizes = node_columns(rng)
    targets = np.where(padding, 0.0, rng.normal(size=values.shape))
    yield label, _kernels.best_split_reg, (values, targets, weights, MIN_LEAF, sizes)
    rng = case_rng(seed, label := "best_split_cls")
    values, weights, padding, sizes = node_columns(rng)
    labels = np.where(padding, 0, rng.integers(0, N_CLASSES, size=values.shape))
    yield label, _kernels.best_split_cls, (
        values, labels, weights, N_CLASSES, MIN_LEAF, sizes)
    for n_a, n_b, d in DIST_SHAPES:
        rng = case_rng(seed, label := f"pairwise_sq_dists {n_a}x{n_b}x{d}")
        yield label, _kernels.pairwise_sq_dists, (
            rng.normal(size=(n_a, d)), rng.normal(size=(n_b, d)))
    rng = case_rng(seed, label := "kmeans_accumulate 20000x16 k=32")
    x = rng.normal(size=(20000, 16))
    assign = rng.integers(0, 32, size=20000).astype(np.int64)
    yield label, _kernels.kmeans_accumulate, (x, assign, 32)
    n, d, k = KMEANS_SHAPE
    rng = case_rng(seed, label := f"kmeans_accumulate {n}x{d} k={k}")
    x = rng.normal(size=(n, d))
    yield label, _kernels.kmeans_accumulate, (x, rng.integers(0, k, size=n).astype(np.int64), k)
    n_q, n, d, k = KNN_SHAPE
    rng = case_rng(seed, label := f"knn query {n}x{n}x{d} self k={k}")
    rows = rng.normal(size=(n, d))
    yield label, KnnIndex().fit(rows, np.arange(n)).query, (rows, k)
    rng = case_rng(seed, label := f"knn query {n_q}x{n}x{d} distinct k={k}")
    index = KnnIndex().fit(rng.normal(size=(n, d)), np.arange(n))
    yield label, index.query, (rng.normal(size=(n_q, d)), k)
    rng = case_rng(seed, label := f"knn query {n_q}x{n}x{d} bootstrap k={k}")
    rows, sample = rng.normal(size=(n, d)), rng.integers(0, n, size=n)
    index = KnnIndex().fit(rows[sample], sample)
    yield label, index.query, (rng.normal(size=(n_q, d)), k)
    rng = case_rng(seed, label := f"knn fit {n}x{d} distinct")
    yield label, KnnIndex().fit, (rng.normal(size=(n, d)), np.arange(n))
    rng = case_rng(seed, label := f"knn fit {n}x{d} bootstrap")
    rows, sample = rng.normal(size=(n, d)), rng.integers(0, n, size=n)
    yield label, KnnIndex().fit, (rows[sample], sample)
    trees, n, n_test, d, k = PREDICT_SHAPE
    rng = case_rng(seed, label := f"forest predict {trees}x{n}x{d} test={n_test}")
    forest = ForestClassifier(n_trees=trees, n_classes=k, seed=0).fit(
        rng.normal(size=(n, d)), rng.integers(0, k, size=n))
    yield label, forest.predict_proba, (rng.normal(size=(n_test, d)),)
    rng = case_rng(seed, label := "tree_apply")
    yield label, _kernels.tree_apply, full_tree(depth=12) + (rng.normal(size=(20000, 16)),)
    for m, n, k in ENGINE_SHAPES:
        rng = case_rng(seed, label := f"subset_choices borda {m}x{n}x{k}")
        yield label, all_borda_subsets, (rng.normal(size=(m, n, k)),)
    n, d, k = KMEANS_SHAPE
    for clusters in (k, 4):
        rng = case_rng(seed, label := f"kmeans fit {n}x{d} k={clusters}")
        yield label, fit_kmeans, (rng.normal(size=(n, d)), clusters, 0)
    rng = case_rng(seed, label := f"kmeans nearest {n}x{d} k={k}")
    yield label, fit_kmeans(rng.normal(size=(n, d)), k, 0).nearest, (rng.normal(size=(n, d)),)


def choice_draws(rng, nodes, d, m):
    for _ in range(nodes):
        rng.choice(d, m, replace=False)


def fit_cases(seed):
    """(label, function, arguments) of every timed forest fit."""
    for n, d, k, weighted in FIT_SHAPES:
        label = f"forest fit {FIT_TREES}x{n}x{d} k={k}" + (" weighted" if weighted else "")
        rng = case_rng(seed, label)
        x = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        w = rng.uniform(0.1, 2.0, size=n) if weighted else None
        forest = ForestClassifier(n_trees=FIT_TREES, n_classes=k, seed=0)
        yield label, forest.fit, (x, y, w)


def aslib_cases(seed):
    """(label, function, arguments) of the ASlib-shaped selector fits,
    each on the training rows of fold 1 of its own scenario, seeded from
    the selector spec."""
    n, k, d, folds = ASLIB_SHAPE
    for spec in ASLIB_FITS:
        scenario = generate_synthetic(SyntheticConfig(
            n_instances=n, n_algorithms=k, n_features=d, n_folds=folds, unsolved_rate=0.3,
            seed=case_seed(seed, spec)))
        train, _ = scenario.fold_split(1)
        yield f"{spec} fit {train.size}x{k}x{d}", make_selector(spec, 0).fit, (scenario, train)


def split_calls_and_peak(fn, args):
    """Split-kernel calls made by fn(*args), and the peak in MB of the
    memory it allocates, as `tracemalloc` traces it."""
    calls = 0
    originals = {name: getattr(_kernels, name) for name in ("best_split_reg", "best_split_cls")}

    def counted(kernel):
        def call(*a):
            nonlocal calls
            calls += 1
            return kernel(*a)
        return call

    try:
        for name, kernel in originals.items():
            setattr(_kernels, name, counted(kernel))
        tracemalloc.start()
        fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        for name, kernel in originals.items():
            setattr(_kernels, name, kernel)
    return calls, peak / 2**20


def full_tree(depth):
    """A complete binary tree: internal nodes split random features at 0."""
    n_internal = 2**depth - 1
    n_nodes = 2 ** (depth + 1) - 1
    feature = np.full(n_nodes, -1, dtype=np.int64)
    threshold = np.zeros(n_nodes)
    left = np.full(n_nodes, -1, dtype=np.int64)
    right = np.full(n_nodes, -1, dtype=np.int64)
    feature[:n_internal] = np.arange(n_internal) % 16
    left[:n_internal] = 2 * np.arange(n_internal) + 1
    right[:n_internal] = 2 * np.arange(n_internal) + 2
    return feature, threshold, left, right


def best_of(fn, args, repeats, warm=True):
    if warm:
        fn(*args)
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn(*args)
        timings.append(time.perf_counter() - started)
    return min(timings)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=20,
                        help="timed calls per kernel; best-of is reported")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    header = f"{'case':<36}{'ms':>10}"
    print(header)
    print("-" * len(header))
    for label, fn, inputs in bench_cases(args.seed):
        ms = best_of(fn, inputs, args.repeats) * 1e3
        print(f"{label:<36}{ms:>10.3f}")
    nodes, d, m = DRAW_SHAPE
    label = f"candidate draws {nodes}x{d} m={m}"
    draws = case_rng(args.seed, label)
    block_ms = best_of(_refill, ([_GrowingTree(draws)], d, m), args.repeats) * 1e3
    choice_ms = best_of(choice_draws, (draws, nodes, d, m), args.repeats) * 1e3
    print(f"{label:<36}{block_ms:>10.3f}  per-node choice {choice_ms:.3f} ms")
    for label, fn, inputs in fit_cases(args.seed):
        ms = best_of(fn, inputs, min(args.repeats, FIT_REPEATS), warm=False) * 1e3
        print(f"{label:<36}{ms:>10.3f}")
    for label, fn, inputs in aslib_cases(args.seed):
        ms = best_of(fn, inputs, min(args.repeats, FIT_REPEATS), warm=False) * 1e3
        calls, peak_mb = split_calls_and_peak(fn, inputs)
        print(f"{label:<36}{ms:>10.3f}  split-kernel calls {calls}  traced peak {peak_mb:.1f} MB")


if __name__ == "__main__":
    main()
