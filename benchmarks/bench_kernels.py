"""Time each numeric kernel.

Run as ``PYTHONPATH=src python3 benchmarks/bench_kernels.py``. Each
kernel is called once untimed, then timed over ``--repeats`` calls, and
the best call is reported. The split kernels get one tree node's
candidate columns, as the forest grower passes them: 1000 rows by 8
candidate features, each column sorted. The other inputs resemble a
mid-sized scenario, not the tiny fixtures the tests use.
"""

import argparse
import time

import numpy as np

from metaselect.learners import _kernels

NODE_ROWS, NODE_CANDIDATES, N_CLASSES, MIN_LEAF = 1000, 8, 4, 5


def node_columns(rng):
    shape = (NODE_ROWS, NODE_CANDIDATES)
    values = np.sort(np.round(rng.normal(size=shape), 2), axis=0)
    return values, rng.uniform(0.1, 2.0, size=shape)


def bench_inputs(name, rng):
    if name == "best_split_reg":
        values, weights = node_columns(rng)
        return (values, rng.normal(size=values.shape), weights, MIN_LEAF)
    if name == "best_split_cls":
        values, weights = node_columns(rng)
        labels = rng.integers(0, N_CLASSES, size=values.shape)
        return (values, labels, weights, N_CLASSES, MIN_LEAF)
    if name == "pairwise_sq_dists":
        return (rng.normal(size=(400, 32)), rng.normal(size=(300, 32)))
    if name == "kmeans_accumulate":
        x = rng.normal(size=(20000, 16))
        assign = rng.integers(0, 32, size=20000).astype(np.int64)
        return (x, assign, 32)
    if name == "tree_apply":
        return full_tree(depth=12) + (rng.normal(size=(20000, 16)),)
    raise SystemExit(f"no benchmark inputs for kernel {name!r}")


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


KERNELS = (
    "best_split_reg",
    "best_split_cls",
    "pairwise_sq_dists",
    "kmeans_accumulate",
    "tree_apply",
)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=20,
                        help="timed calls per kernel; best-of is reported")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    header = f"{'kernel':<22}{'ms':>10}"
    print(header)
    print("-" * len(header))
    for name in KERNELS:
        ms = best_of(getattr(_kernels, name), bench_inputs(name, rng), args.repeats) * 1e3
        print(f"{name:<22}{ms:>10.3f}")


if __name__ == "__main__":
    main()
