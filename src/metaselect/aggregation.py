"""Combining several selectors' opinions on one instance.

Every selector emits a score vector over the algorithms, lower meaning
better. An aggregation turns a stack of such vectors (one row per
member) into a single combined vector; the joint choice is its argmin,
with ties going to the lowest algorithm index. Four schemes:

* majority: one vote per member for its top pick,
* weighted majority: votes weighted per member,
* mean: average of per-member min-max normalized scores,
* borda: sum of per-member midranks.

Vote-based schemes return negated vote counts so that argmin-with-
first-wins matches argmax over votes exactly.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyEnsemble, InvalidConfig

WEIGHT_FLOOR = 1e-6


def ranks_from_scores(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions.

    scores (0, 1, 1, 1) rank as (1, 3, 3, 3): the tied block occupies
    positions 2..4 and each member gets their average.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.shape[0]
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def minmax_normalize(scores: np.ndarray) -> np.ndarray:
    """Map to [0, 1]; a constant vector maps to all 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    lo, hi = scores.min(), scores.max()
    if hi == lo:
        return np.full(scores.shape, 0.5)
    return (scores - lo) / (hi - lo)


def _check_rows(score_rows: np.ndarray) -> np.ndarray:
    rows = np.asarray(score_rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] == 0:
        raise InvalidConfig("aggregation needs a (members, algorithms) matrix")
    if rows.shape[0] == 0:
        raise EmptyEnsemble("aggregation needs at least one member score row")
    return rows


def _vote_counts(score_rows: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    rows = _check_rows(score_rows)
    if weights is None:
        weights = np.ones(rows.shape[0])
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (rows.shape[0],):
        raise InvalidConfig("one weight per member required")
    votes = np.zeros(rows.shape[1])
    picks = np.argmin(rows, axis=1)
    np.add.at(votes, picks, weights)
    return votes


def agg_majority(score_rows: np.ndarray, weights=None) -> np.ndarray:
    return -_vote_counts(score_rows, None)


def agg_weighted_majority(score_rows: np.ndarray, weights=None) -> np.ndarray:
    return -_vote_counts(score_rows, weights)


def agg_mean(score_rows: np.ndarray, weights=None) -> np.ndarray:
    rows = _check_rows(score_rows)
    normalized = np.stack([minmax_normalize(row) for row in rows])
    return normalized.mean(axis=0)


def agg_borda(score_rows: np.ndarray, weights=None) -> np.ndarray:
    rows = _check_rows(score_rows)
    return np.stack([ranks_from_scores(row) for row in rows]).sum(axis=0)


AGGREGATIONS = {
    "maj": agg_majority,
    "wmaj": agg_weighted_majority,
    "mean": agg_mean,
    "borda": agg_borda,
}


def combine_scores(name: str, score_rows: np.ndarray, weights=None) -> np.ndarray:
    try:
        fn = AGGREGATIONS[name]
    except KeyError:
        raise InvalidConfig(
            f"unknown aggregation {name!r}, expected one of {sorted(AGGREGATIONS)}"
        ) from None
    return fn(score_rows, weights)


def weight_from_npar10(value: float) -> float:
    """Member weight for weighted majority: inverse of train nPAR10.

    Clamped below so near-oracle members do not dominate with huge or
    infinite weights.
    """
    return 1.0 / max(WEIGHT_FLOOR, value)
