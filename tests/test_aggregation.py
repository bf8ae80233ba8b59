"""Aggregation schemes against independent brute-force evaluators.

The reference implementations below are deliberately naive: explicit
python loops over members and algorithms, ranks by counting, votes by
tallying into a dict. Anything the vectorized versions get wrong shows
up as a disagreement here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metaselect.aggregation import (
    AGGREGATIONS,
    agg_borda,
    agg_majority,
    agg_mean,
    agg_weighted_majority,
    combine_scores,
    minmax_normalize,
    ranks_from_scores,
    weight_from_npar10,
)
from metaselect.errors import EmptyEnsemble, InvalidConfig


# -- naive references ------------------------------------------------------


def ref_ranks(scores):
    scores = list(scores)
    out = []
    for s in scores:
        less = sum(1 for t in scores if t < s)
        equal = sum(1 for t in scores if t == s)
        # tied block occupies positions less+1 .. less+equal
        out.append(less + (equal + 1) / 2.0)
    return np.array(out)


def ref_choice(name, rows, weights=None):
    rows = np.asarray(rows, dtype=float)
    m, k = rows.shape
    if name in ("maj", "wmaj"):
        w = np.ones(m) if (name == "maj" or weights is None) else np.asarray(weights)
        tally = {}
        for i in range(m):
            pick = min(range(k), key=lambda a: (rows[i, a], a))
            tally[pick] = tally.get(pick, 0.0) + w[i]
        best = max(tally.values())
        return min(a for a, v in tally.items() if v == best)
    if name == "mean":
        per_member = []
        for i in range(m):
            lo, hi = rows[i].min(), rows[i].max()
            if hi == lo:
                per_member.append(np.full(k, 0.5))
            else:
                per_member.append((rows[i] - lo) / (hi - lo))
        combined = np.mean(per_member, axis=0)
        return min(range(k), key=lambda a: (combined[a], a))
    if name == "borda":
        combined = np.sum([ref_ranks(rows[i]) for i in range(m)], axis=0)
        return min(range(k), key=lambda a: (combined[a], a))
    raise AssertionError(name)


# -- fixed cases -----------------------------------------------------------


def test_midrank_documented_case():
    np.testing.assert_array_equal(
        ranks_from_scores(np.array([0.0, 1.0, 1.0, 1.0])), [1.0, 3.0, 3.0, 3.0]
    )


def test_ranks_all_tied():
    np.testing.assert_array_equal(
        ranks_from_scores(np.array([2.0, 2.0, 2.0])), [2.0, 2.0, 2.0]
    )


@pytest.mark.parametrize(
    "scores",
    [
        [0.0, 1.0, 1.0, 1.0],
        [2.0, 2.0, 2.0],
        [3.5, -1.0, 0.25, 7.0, 2.0],
        [1.0, 0.0, 2.0, 0.0, 1.0, 2.0, 2.0, 0.0],
    ],
)
def test_ranks_match_scipy_rankdata(scores):
    stats = pytest.importorskip("scipy.stats")
    np.testing.assert_array_equal(
        ranks_from_scores(np.array(scores)), stats.rankdata(scores, method="average")
    )


def test_minmax_constant_maps_to_half():
    np.testing.assert_array_equal(minmax_normalize(np.array([3.0, 3.0])), [0.5, 0.5])


def test_vote_schemes_return_negated_counts():
    rows = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(agg_majority(rows), [-2.0, -1.0])
    np.testing.assert_array_equal(
        agg_weighted_majority(rows, np.array([1.0, 1.0, 5.0])), [-2.0, -5.0]
    )


def test_majority_ignores_weights_argument():
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(
        agg_majority(rows, np.array([100.0, 1.0, 1.0])), agg_majority(rows)
    )


def test_borda_prefers_consistent_runner_up():
    # member picks differ but algorithm 1 is never worse than second
    rows = np.array([[0.0, 0.5, 1.0], [1.0, 0.5, 0.0], [1.0, 0.0, 0.5]])
    assert int(np.argmin(combine_scores("borda", rows))) == 1


def test_empty_rows_raise():
    with pytest.raises(EmptyEnsemble):
        agg_mean(np.empty((0, 3)))
    with pytest.raises(InvalidConfig):
        agg_mean(np.empty((2, 0)))
    with pytest.raises(InvalidConfig):
        combine_scores("nope", np.zeros((1, 2)))
    with pytest.raises(InvalidConfig):
        agg_weighted_majority(np.zeros((2, 2)), np.ones(3))


def test_weight_floor_caps_inverse():
    assert weight_from_npar10(0.5) == 2.0
    assert weight_from_npar10(0.0) == 1e6
    assert weight_from_npar10(-1.0) == 1e6


# -- randomized equivalence ------------------------------------------------


@pytest.mark.parametrize("name", sorted(AGGREGATIONS))
def test_matches_naive_reference_on_random_instances(name):
    rng = np.random.default_rng(17)
    for _ in range(300):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        # mix continuous scores with heavily tied small-integer scores
        if rng.random() < 0.5:
            rows = rng.normal(size=(m, k))
        else:
            rows = rng.integers(0, 3, size=(m, k)).astype(float)
        weights = rng.uniform(0.5, 3.0, size=m)
        assert int(np.argmin(combine_scores(name, rows, weights))) == ref_choice(name, rows, weights)


@settings(max_examples=150, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(1, 5)),
        elements=st.floats(-100, 100, allow_nan=False),
    )
)
def test_borda_rank_sums_are_conserved(rows):
    combined = agg_borda(rows)
    m, k = rows.shape
    # each member hands out ranks summing to k(k+1)/2
    assert combined.sum() == pytest.approx(m * k * (k + 1) / 2)


@settings(max_examples=150, deadline=None)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(1, 5), st.integers(2, 5)),
        # integer grid with power-of-two scales keeps all arithmetic
        # exact, so this is a true invariance rather than an approximate
        # one that rounding could flip on near-ties
        elements=st.integers(-50, 50).map(float),
    ),
    st.sampled_from([0.25, 0.5, 2.0, 4.0]),
)
def test_choices_invariant_under_positive_scaling(rows, scale):
    for name in AGGREGATIONS:
        assert int(np.argmin(combine_scores(name, rows))) == int(
            np.argmin(combine_scores(name, rows * scale))
        )
