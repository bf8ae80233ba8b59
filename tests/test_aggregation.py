"""Aggregation schemes against independent brute-force evaluators.

The reference implementations below are deliberately naive: explicit
python loops over members and algorithms, ranks by counting, votes by
tallying into a dict. Anything the vectorized versions get wrong shows
up as a disagreement here.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metaselect.aggregation import (
    AGGREGATIONS,
    combine_scores,
    ranks_from_scores,
    subset_choices,
    weight_from_npar10,
)
from metaselect.ensembles import MAX_EXHAUSTIVE_MEMBERS
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
    np.testing.assert_array_equal(combine_scores("mean", np.array([[3.0, 3.0]])), [0.5, 0.5])


def test_vote_schemes_return_negated_counts():
    rows = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_array_equal(combine_scores("maj", rows), [-2.0, -1.0])
    np.testing.assert_array_equal(
        combine_scores("wmaj", rows, np.array([1.0, 1.0, 5.0])), [-2.0, -5.0]
    )


def test_majority_ignores_weights_argument():
    rows = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(
        combine_scores("maj", rows, np.array([100.0, 1.0, 1.0])), combine_scores("maj", rows)
    )


def test_borda_prefers_consistent_runner_up():
    # member picks differ but algorithm 1 is never worse than second
    rows = np.array([[0.0, 0.5, 1.0], [1.0, 0.5, 0.0], [1.0, 0.0, 0.5]])
    assert int(np.argmin(combine_scores("borda", rows))) == 1


def test_empty_rows_raise():
    with pytest.raises(EmptyEnsemble):
        combine_scores("mean", np.empty((0, 3)))
    with pytest.raises(InvalidConfig):
        combine_scores("mean", np.empty((2, 0)))
    with pytest.raises(InvalidConfig):
        combine_scores("nope", np.zeros((1, 2)))
    with pytest.raises(InvalidConfig):
        combine_scores("wmaj", np.zeros((2, 2)), np.ones(3))


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
    combined = combine_scores("borda", rows)
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


# -- the subset engine against a per-instance reference ----------------------


def first_min(values):
    return min(range(len(values)), key=lambda a: (values[a], a))


def ref_term(name, row, weight):
    """One member's term on one instance, from definitions."""
    if name in ("maj", "wmaj"):
        pick = first_min(row)
        vote = 1.0 if name == "maj" else weight
        return [vote if a == pick else 0.0 for a in range(len(row))]
    if name == "borda":
        return list(ref_ranks(row))
    lo, hi = min(row), max(row)
    return [0.5 if hi == lo else (x - lo) / (hi - lo) for x in row]


def ref_terms(name, scores, weights):
    """terms[m][i]: member m's term on instance i."""
    return [
        [ref_term(name, list(scores[m, i]), float(weights[m])) for i in range(scores.shape[1])]
        for m in range(scores.shape[0])
    ]


def ref_combined(name, terms, subset):
    """(n, K) combined scores of `subset`: terms summed from zeros in
    ascending member order, then negated (votes) or averaged (mean)."""
    out = []
    for i in range(len(terms[0])):
        total = [0.0] * len(terms[0][i])
        for m in subset:
            total = [t + v for t, v in zip(total, terms[m][i])]
        if name in ("maj", "wmaj"):
            total = [-t for t in total]
        elif name == "mean":
            total = [t / len(subset) for t in total]
        out.append(total)
    return np.array(out)


def all_subsets(m):
    return {s for size in range(1, m + 1) for s in itertools.combinations(range(m), size)}


@st.composite
def score_tensors(draw, max_members=5):
    m = draw(st.integers(1, max_members))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 5))
    if draw(st.booleans()):
        # few distinct values: ties inside rows and constant rows
        elements = st.integers(0, 2).map(float)
    else:
        elements = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
    scores = draw(arrays(np.float64, (m, n, k), elements=elements))
    for member, instance in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)))):
        scores[member, instance] = scores[member, instance, 0]
    weights = draw(arrays(np.float64, m, elements=st.floats(1e-6, 1e6)))
    return scores, weights


@settings(max_examples=80, deadline=None)
@given(score_tensors())
def test_engine_matches_per_instance_reference_on_every_subset(case):
    scores, weights = case
    for name in AGGREGATIONS:
        terms = ref_terms(name, scores, weights)
        seen = []
        for subset, choices in subset_choices(name, scores, weights):
            seen.append(subset)
            expected = ref_combined(name, terms, subset)
            combined = combine_scores(name, scores[list(subset)], weights[list(subset)])
            assert np.array_equal(combined, expected), (name, subset)
            assert choices.tolist() == [first_min(list(row)) for row in expected], (name, subset)
        assert len(seen) == len(set(seen))
        assert set(seen) == all_subsets(scores.shape[0])
        # the one-instance form is the same code as the batch
        for i in range(scores.shape[1]):
            assert np.array_equal(
                combine_scores(name, scores[:, i], weights), combine_scores(name, scores, weights)[i]
            )


def test_subsets_add_their_members_in_ascending_order():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 from the lowest member up
    # and 0.6 from the highest down; the last member's term is tuned so
    # that the two orders pick different algorithms
    full = (0, 1, 2, 3)
    votes = np.array([[[0.0, 1.0]], [[0.0, 1.0]], [[0.0, 1.0]], [[1.0, 0.0]]])
    weights = np.array([0.1, 0.2, 0.3, 0.6000000000000001])
    assert combine_scores("wmaj", votes, weights)[0].tolist() == [-0.6000000000000001] * 2
    assert dict(subset_choices("wmaj", votes, weights))[full].tolist() == [0]
    # min-max terms equal the rows: each row spans exactly [0, 1]
    rows = np.array(
        [[[0.1, 0.0, 1.0]], [[0.2, 0.0, 1.0]], [[0.3, 0.0, 1.0]], [[0.0, 0.6, 1.0]]]
    )
    assert combine_scores("mean", rows)[0].tolist() == [0.6000000000000001 / 4, 0.6 / 4, 1.0]
    assert dict(subset_choices("mean", rows))[full].tolist() == [1]


def test_engine_matches_reference_at_the_member_gate():
    m = MAX_EXHAUSTIVE_MEMBERS
    rng = np.random.default_rng(5)
    scores = rng.integers(0, 3, size=(m, 1, 2)).astype(float)
    weights = rng.uniform(0.1, 10.0, size=m)
    for name in AGGREGATIONS:
        terms = ref_terms(name, scores, weights)
        seen = set()
        for subset, choices in subset_choices(name, scores, weights):
            seen.add(subset)
            expected = ref_combined(name, terms, subset)
            assert choices.tolist() == [first_min(list(expected[0]))], (name, subset)
        assert len(seen) == 2**m - 1


def test_engine_keeps_at_most_one_partial_sum_per_member():
    m, n, k = MAX_EXHAUSTIVE_MEMBERS, 64, 4
    scores = np.random.default_rng(2).normal(size=(m, n, k))
    cell = n * k * 8
    tracemalloc.start()
    try:
        count = sum(1 for _ in subset_choices("mean", scores))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 2**m - 1
    # the input terms plus M partial sums and a few temporaries; one
    # array over all 2^M subsets would need 2^M * n * k * 8 bytes
    assert peak < (2 * m + 8) * cell + 64 * 1024
