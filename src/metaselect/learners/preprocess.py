"""Feature conditioning shared by all selectors.

Median imputation for missing values, then standardization. Columns
with no observed values impute to 0; zero-variance columns pass through
standardization unscaled rather than dividing by zero.
"""

from __future__ import annotations

import warnings

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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # all-NaN columns
            medians = np.nanmedian(x, axis=0)
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
        filled = np.where(np.isnan(x), self.medians_[None, :], x)
        return (filled - self.means_[None, :]) / self.scales_[None, :]

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        return self.fit(x).transform(x)


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
