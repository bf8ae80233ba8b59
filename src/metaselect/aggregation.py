"""Combining several selectors' opinions, for one instance or a batch.

Every selector emits a score vector over the algorithms, lower meaning
better. An aggregation turns the members' scores into one combined
vector per instance; the joint choice is its argmin, with ties going to
the lowest algorithm index. Four schemes:

* majority: one vote per member for its top pick,
* weighted majority: votes weighted per member,
* mean: average of per-member min-max normalized scores; the scaling
  runs over the algorithms, so `mean` depends on the algorithm set: one
  algorithm that always times out stretches every member's range and
  can move a vote,
* borda: sum of per-member midranks.

All four are one additive engine over an (M, n, K) tensor of M members'
scores on n instances over K algorithms. A scheme first maps every
(member, instance) row to a term: a one-hot vote of 1 (`maj`) or of the
member's weight (`wmaj`) at the row's argmin, the row's midranks
(`borda`), or the row min-max normalized, a constant row giving 0.5
(`mean`). A subset of members then combines by adding its terms to
zeros in ascending member order and finishing the sum: vote schemes
negate it, so that argmin-with-first-wins matches argmax over votes
exactly, and `mean` divides it by the subset size. An (M, K) matrix is
the one-instance case of the same code. Voting, bagging and boosting
(`wmaj` over its round alphas) all vote by one `combine_scores` call.

`subset_choices` scores every nonempty member subset at once. It walks
the subsets depth-first, each one's sum being its parent's plus the
term of its highest member, so a subset's sum is bit-identical to the
one `combine_scores` computes for it alone, and at most M partial
(n, K) sums are alive at any time. `VotingEnsemble.composition_par10`
turns them into PAR10 for voting's exhaustive search and for each sweep
of `runner.run_config`, a `VotingEnsemble` per fold whose members are
the fold's shared fits (see `selectors`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .errors import EmptyEnsemble, InvalidConfig

WEIGHT_FLOOR = 1e-6


def _midranks(scores: np.ndarray) -> np.ndarray:
    """Midranks along the last axis; NaN ranks after every number and
    ties with nothing."""
    k = scores.shape[-1]
    order = np.argsort(scores, axis=-1, kind="stable")
    ordered = np.take_along_axis(scores, order, axis=-1)
    positions = np.arange(k)
    starts = np.ones(scores.shape, dtype=bool)
    starts[..., 1:] = ordered[..., 1:] != ordered[..., :-1]
    ends = np.ones(scores.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, positions, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, positions, k - 1)[..., ::-1], axis=-1)[..., ::-1]
    ranks = np.empty(scores.shape)
    np.put_along_axis(ranks, order, (first + last) / 2.0 + 1.0, axis=-1)
    return ranks


def _minmax(scores: np.ndarray) -> np.ndarray:
    """Min-max normalization along the last axis; constant rows give 0.5."""
    lo = scores.min(axis=-1, keepdims=True)
    hi = scores.max(axis=-1, keepdims=True)
    flat = hi == lo
    out = (scores - lo) / np.where(flat, 1.0, hi - lo)
    out[np.broadcast_to(flat, out.shape)] = 0.5
    return out


def ranks_from_scores(scores: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing the mean of their positions.

    scores (0, 1, 1, 1) rank as (1, 3, 3, 3): the tied block occupies
    positions 2..4 and each member gets their average.
    """
    return _midranks(np.asarray(scores, dtype=np.float64))


def _votes(rows: np.ndarray, weights) -> np.ndarray:
    if weights is None:
        weights = np.ones(rows.shape[0])
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (rows.shape[0],):
        raise InvalidConfig("one weight per member required")
    picks = np.argmin(rows, axis=-1)[..., None]
    terms = np.zeros(rows.shape)
    column = weights.reshape((-1,) + (1,) * (rows.ndim - 1))
    np.put_along_axis(terms, picks, np.broadcast_to(column, picks.shape), axis=-1)
    return terms


def _negate(total: np.ndarray, size: int) -> np.ndarray:
    return -total


def _average(total: np.ndarray, size: int) -> np.ndarray:
    return total / size


def _as_is(total: np.ndarray, size: int) -> np.ndarray:
    return total


# name -> (per-member terms of the (M, ..., K) scores, finish of a
# subset's summed terms given its size)
AGGREGATIONS = {
    "maj": (lambda rows, weights: _votes(rows, None), _negate),
    "wmaj": (_votes, _negate),
    "mean": (lambda rows, weights: _minmax(rows), _average),
    "borda": (lambda rows, weights: _midranks(rows), _as_is),
}


def _member_terms(name: str, score_rows: np.ndarray, weights=None) -> np.ndarray:
    """Per-member terms of an (M, K) or (M, n, K) score array."""
    try:
        transform, _ = AGGREGATIONS[name]
    except KeyError:
        raise InvalidConfig(
            f"unknown aggregation {name!r}, expected one of {sorted(AGGREGATIONS)}"
        ) from None
    rows = np.asarray(score_rows, dtype=np.float64)
    if rows.ndim not in (2, 3) or rows.shape[-1] == 0:
        raise InvalidConfig("aggregation needs a (members, [instances,] algorithms) array")
    if rows.shape[0] == 0:
        raise EmptyEnsemble("aggregation needs at least one member score row")
    return transform(rows, weights)


def combine_scores(name: str, score_rows: np.ndarray, weights=None) -> np.ndarray:
    """Combined scores of all members: (K,) for an (M, K) matrix, (n, K)
    for an (M, n, K) tensor."""
    terms = _member_terms(name, score_rows, weights)
    total = np.zeros(terms.shape[1:])
    for term in terms:
        total += term
    return AGGREGATIONS[name][1](total, terms.shape[0])


def subset_choices(
    name: str, score_rows: np.ndarray, weights=None
) -> Iterator[tuple[tuple[int, ...], np.ndarray]]:
    """Yield (members, choices) for every nonempty subset of the M
    members of an (M, n, K) tensor, depth-first: (0,), (0, 1),
    (0, 1, 2), ..., (0, 2), (1,), ... `choices` is the (n,) argmin of
    the subset's combined scores, exactly as `combine_scores` gives
    them for that subset alone."""
    terms = _member_terms(name, score_rows, weights)
    return _subsets_below((), np.zeros(terms.shape[1:]), terms, AGGREGATIONS[name][1])


def _subsets_below(members, total, terms, finish):
    """Subsets extending `members` (whose summed terms are `total`) by
    higher members, depth-first."""
    for top in range(members[-1] + 1 if members else 0, terms.shape[0]):
        subset = members + (top,)
        subtotal = total + terms[top]
        yield subset, np.argmin(finish(subtotal, len(subset)), axis=-1)
        yield from _subsets_below(subset, subtotal, terms, finish)


def weight_from_npar10(value: float) -> float:
    """Member weight for weighted majority: inverse of train nPAR10.

    Clamped below so near-oracle members do not dominate with huge or
    infinite weights.
    """
    return 1.0 / max(WEIGHT_FLOOR, value)
