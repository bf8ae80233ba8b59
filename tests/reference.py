"""An independent exact squared-distance reference for kernel tests.

`ref_pairwise_sq_dists` adds one feature column's squared differences
at a time over the whole matrix, so every entry is
(((0 + d0²) + d1²) + ...) in column order: the summation order that
`_kernels` promises, reached without its gathering, chunking or
reduction. Tests that hold the kernels, the kNN query or k-means to
exact distances compare with it, not with the kernels themselves.
"""

import numpy as np


def ref_pairwise_sq_dists(a, b):
    """Whole-matrix passes, one feature column at a time."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        diff = a[:, j, None] - b[None, :, j]
        out = out + diff * diff
    return out
