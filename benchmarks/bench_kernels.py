"""Time each numeric kernel and the voting engine.

Run as ``PYTHONPATH=src python3 benchmarks/bench_kernels.py``. Each
kernel is called once untimed, then timed over ``--repeats`` calls, and
the best call is reported. The split kernels get one tree node's
candidate columns, as the forest grower passes them: 1000 rows by 8
candidate features, each column sorted. The distance kernel gets the
shapes a 5-fold run on 1000 instances with 50 features sends it: 800
training rows against themselves and 200 test rows against them (kNN),
and 800 rows against 10 centroids (k-means). The voting engine scores
every member subset with `borda`: 3 members on 800 instances over 10
algorithms (7 subsets, the exhaustive voting search of that 5-fold run),
and the 15-member gate on 200 instances (32767 subsets). The other
inputs resemble a mid-sized scenario, not the tiny fixtures the tests
use.
"""

import argparse
import time
from collections import deque

import numpy as np

from metaselect.aggregation import subset_choices
from metaselect.ensembles import MAX_EXHAUSTIVE_MEMBERS
from metaselect.learners import _kernels

NODE_ROWS, NODE_CANDIDATES, N_CLASSES, MIN_LEAF = 1000, 8, 4, 5
DIST_SHAPES = ((800, 800, 50), (200, 800, 50), (800, 10, 50))  # (n_a, n_b, d)
ENGINE_SHAPES = ((3, 800, 10), (MAX_EXHAUSTIVE_MEMBERS, 200, 10))  # (members, n, K)


def node_columns(rng):
    shape = (NODE_ROWS, NODE_CANDIDATES)
    values = np.sort(np.round(rng.normal(size=shape), 2), axis=0)
    return values, rng.uniform(0.1, 2.0, size=shape)


def all_borda_subsets(scores):
    deque(subset_choices("borda", scores), maxlen=0)


def bench_cases(rng):
    """(label, function, arguments) of every timed call."""
    values, weights = node_columns(rng)
    yield "best_split_reg", _kernels.best_split_reg, (
        values, rng.normal(size=values.shape), weights, MIN_LEAF)
    values, weights = node_columns(rng)
    labels = rng.integers(0, N_CLASSES, size=values.shape)
    yield "best_split_cls", _kernels.best_split_cls, (
        values, labels, weights, N_CLASSES, MIN_LEAF)
    for n_a, n_b, d in DIST_SHAPES:
        yield f"pairwise_sq_dists {n_a}x{n_b}x{d}", _kernels.pairwise_sq_dists, (
            rng.normal(size=(n_a, d)), rng.normal(size=(n_b, d)))
    x = rng.normal(size=(20000, 16))
    assign = rng.integers(0, 32, size=20000).astype(np.int64)
    yield "kmeans_accumulate", _kernels.kmeans_accumulate, (x, assign, 32)
    yield "tree_apply", _kernels.tree_apply, full_tree(depth=12) + (rng.normal(size=(20000, 16)),)
    for m, n, k in ENGINE_SHAPES:
        yield f"subset_choices borda {m}x{n}x{k}", all_borda_subsets, (
            rng.normal(size=(m, n, k)),)


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


def best_of(fn, args, repeats):
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

    rng = np.random.default_rng(args.seed)
    header = f"{'kernel':<36}{'ms':>10}"
    print(header)
    print("-" * len(header))
    for label, fn, inputs in bench_cases(rng):
        ms = best_of(fn, inputs, args.repeats) * 1e3
        print(f"{label:<36}{ms:>10.3f}")


if __name__ == "__main__":
    main()
