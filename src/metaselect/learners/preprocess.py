"""Feature conditioning shared by all selectors.

Median imputation for missing values, then standardization. Columns
with no observed values impute to 0; zero-variance columns pass through
standardization unscaled rather than dividing by zero.
"""

from __future__ import annotations

import numpy as np

from ..errors import AllColumnsDropped, DegenerateData


class Preprocessor:
    def __init__(self):
        self.medians_ = None
        self.means_ = None
        self.scales_ = None

    def fit(self, x: np.ndarray) -> "Preprocessor":
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] == 0:
            raise DegenerateData("preprocessor needs a nonempty 2-d matrix")
        medians = column_medians(x)
        medians = np.where(np.isnan(medians), 0.0, medians)
        filled = np.where(np.isnan(x), medians[None, :], x)
        means = filled.mean(axis=0)
        scales = filled.std(axis=0)
        scales = np.where(scales <= 0.0, 1.0, scales)
        self.medians_, self.means_, self.scales_ = medians, means, scales
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self.medians_ is None:
            raise DegenerateData("preprocessor used before fit")
        x = np.asarray(x, dtype=np.float64)
        z = np.where(np.isnan(x), self.medians_[None, :], x)  # a fresh array, scaled in place
        z -= self.means_[None, :]
        z /= self.scales_[None, :]
        return z

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)


def column_medians(x: np.ndarray) -> np.ndarray:
    """Median of the non-NaN values of each column, NaN where there are
    none: `np.nanmedian(x, axis=0)` bit for bit, from one sort.

    numpy averages the middle pair (or the middle value alone) with a
    sum that starts from +0.0, so a zero median is +0.0 whatever the
    signs of the zeros; adding +0.0 does the same here. One exception:
    below 600 rows numpy adds a lone middle value to itself, which
    overflows to inf when it exceeds half the largest float; this
    returns the value itself there.
    """
    n = x.shape[0]
    ascending = np.sort(x, axis=0)  # NaN last
    counts = n - np.isnan(x).sum(axis=0)
    cols = np.arange(x.shape[1])
    low = ascending[np.maximum(counts - 1, 0) // 2, cols]
    high = ascending[np.minimum(counts // 2, n - 1), cols]
    with np.errstate(invalid="ignore", over="ignore"):
        medians = np.where(counts % 2 == 1, low + 0.0, (low + high + 0.0) / 2.0)
    return np.where(counts > 0, medians, np.nan)


def fit_variance_threshold(x: np.ndarray, threshold: float) -> np.ndarray:
    """Mask of columns whose population variance exceeds `threshold`.

    Raises AllColumnsDropped when nothing survives, since downstream
    models cannot run on a zero-width matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    keep = x.var(axis=0) > threshold
    if not keep.any():
        raise AllColumnsDropped(
            f"variance threshold {threshold} removed all {x.shape[1]} columns"
        )
    return keep
