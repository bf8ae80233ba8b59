"""Exactness of the GEMM prefilter of the nearest-neighbour search.

`neighbors.nearest`, the search behind `KnnIndex.query` and every
k-means assignment, ranks on ‖q‖² + ‖p‖² - 2q·p, keeps the points within
a rounding margin of each row's k-th value and recomputes only those
exactly. These tests hold it to the first k columns of a stable argsort
of exact distances (`reference.ref_pairwise_sq_dists`) on inputs where
the two forms round differently: continuous data, ties across the k-th
place, large offsets with a small spread, magnitudes where squares
overflow, and bootstrap indexes with duplicate rows. An index must also
group its rows by their training ids, as `np.unique(ids)` does. The
gathered kernel must give the reference's bits on both sides of its
chunk size, and the per-row ranking of candidates the order of a
lexsort. BLAS may sum the matrix product in another order under another
thread count; CI runs this module once more with OPENBLAS_NUM_THREADS=1,
and every answer must stay the same.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import ref_pairwise_sq_dists

from metaselect.errors import DegenerateData
from metaselect.learners import KnnIndex, _kernels
from metaselect.learners.neighbors import (
    QUERY_BLOCK_CELLS,
    first_k_by_distance,
    nearest,
    squared_norms,
)

KINDS = ("continuous", "grid", "offset", "huge", "bootstrap")


def _rows(kind, rng, n, d):
    if kind == "continuous":
        return rng.normal(size=(n, d))
    if kind in ("grid", "bootstrap"):
        # {0..3}-valued: many equal distances, also across the k-th place
        return rng.integers(0, 4, size=(n, d)).astype(np.float64)
    if kind == "offset":
        # |q|² and |p|² near 5e7 per row, distances near 1e-5: the GEMM
        # form cancels most of its digits and the margin must cover it
        return 1e3 + 1e-3 * rng.normal(size=(n, d))
    # squares overflow from about 1e154; scales on both sides of that
    return rng.normal(size=(n, d)) * 10.0 ** rng.uniform(150, 162, size=(n, 1))


def _stable_argsort_answer(x, rows, k):
    with np.errstate(over="ignore"):
        dists = ref_pairwise_sq_dists(x, rows)
    return np.argsort(dists, axis=1, kind="stable")[:, :k]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(KINDS),
    st.integers(1, 40),
    st.integers(0, 12),
    st.integers(0, 6),
    st.integers(0, 2**31 - 1),
)
@example("offset", 40, 12, 6, 0)
@example("huge", 30, 5, 3, 1)
@example("bootstrap", 25, 8, 2, 2)
@example("grid", 40, 12, 1, 3)
@example("continuous", 1, 1, 0, 4)  # one point, no features
def test_query_equals_a_stable_argsort_of_exact_distances(kind, n, n_queries, d, seed):
    rng = np.random.default_rng(seed)
    rows, ids = _rows(kind, rng, n, d), np.arange(n)
    if kind == "bootstrap":
        ids = rng.integers(0, n, size=n)
        rows = rows[ids]
    # queries: fresh rows of the same kind, and some training rows
    x = np.vstack([_rows(kind, rng, n_queries, d), rows[: n_queries // 2]])
    index = KnnIndex().fit(rows, ids)
    for k in {1, int(rng.integers(1, n + 1)), n}:
        with np.errstate(over="ignore"):
            got = index.query(x, k)
        np.testing.assert_array_equal(got, _stable_argsort_answer(x, rows, k))


SIGNED_GRID = np.array([0.0, -0.0, 1.0, -1.0])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 10), st.integers(1, 8), st.integers(1, 4),
    st.booleans(), st.integers(0, 2**31 - 1),
)
@example(6, 5, 2, True, 0)
@example(1, 1, 1, False, 1)
def test_nearest_equals_a_stable_argsort_of_the_exact_kernel(n, n_queries, d, mapped, seed):
    rng = np.random.default_rng(seed)
    base = SIGNED_GRID[rng.integers(0, 4, size=(n, d))]
    flipped = np.where(base == 0.0, -base, base)  # equal by value, other zero signs
    points = np.vstack([base, flipped])[rng.integers(0, 2 * n, size=n)]
    q = np.vstack([SIGNED_GRID[rng.integers(0, 4, size=(n_queries, d))], flipped[:2]])
    inverse = rng.integers(0, n, size=n + 3) if mapped else None
    want_dists = _kernels.pairwise_sq_dists(q, points if inverse is None else points[inverse])
    order = np.argsort(want_dists, axis=1, kind="stable")
    for k in range(1, want_dists.shape[1] + 1):
        ids, sq_dists = nearest(q, squared_norms(q), points, squared_norms(points), k, inverse)
        np.testing.assert_array_equal(ids, order[:, :k])
        want = np.take_along_axis(want_dists, order[:, :k], axis=1)
        np.testing.assert_array_equal(sq_dists.view(np.uint64), want.view(np.uint64))


def test_nearest_sends_a_tie_to_the_lower_centroid():
    # centroids 0 and 2 coincide, 1 and 3 are equal by value; the last
    # query row lies midway between centroids 0 and 1
    centroids = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0], [-0.0, 0.0]])
    q = np.array([[1.0, 2.0], [-0.0, -0.0], [0.9, 1.9], [0.5, 1.0]])
    ids, sq_dists = nearest(q, squared_norms(q), centroids, squared_norms(centroids), 1)
    np.testing.assert_array_equal(ids[:, 0], [0, 1, 0, 0])
    want = _kernels.pairwise_sq_dists(q, centroids)[np.arange(4), ids[:, 0]]
    np.testing.assert_array_equal(sq_dists[:, 0].view(np.uint64), want.view(np.uint64))


ROW_KINDS = ("signed zeros", "single row", "all equal", "zero width", "magnitudes")
SIGNED_ZERO_GRID = st.sampled_from([0.0, -0.0, 1.0, -1.0])
MAGNITUDES = st.builds(
    lambda sign, exponent: sign * 10.0**exponent,
    st.sampled_from([-1.0, 1.0]),
    st.floats(-300.0, 300.0),
)


@st.composite
def index_rows(draw):
    """Rows drawn with repeats from a few base rows of one kind, and
    their ids: the distinct id of the base row each was drawn from."""
    kind = draw(st.sampled_from(ROW_KINDS))
    d = 0 if kind == "zero width" else draw(st.integers(1, 4))
    n_base = 1 if kind in ("single row", "all equal") else draw(st.integers(1, 8))
    elements = MAGNITUDES if kind == "magnitudes" else SIGNED_ZERO_GRID
    base = draw(arrays(np.float64, (n_base, d), elements=elements))
    base_ids = np.array(draw(st.lists(
        st.integers(0, 2**40), min_size=n_base, max_size=n_base, unique=True)))
    if kind == "single row":
        return base, base_ids
    drawn = draw(st.lists(st.integers(0, n_base - 1), min_size=1, max_size=16))
    return base[drawn], base_ids[drawn]


@settings(max_examples=200, deadline=None)
@given(index_rows())
@example((np.zeros((1, 0)), np.array([0])))
@example((np.zeros((3, 0)), np.array([4, 2, 4])))
# equal by value, other ids: two points that tie, the lower row first
@example((np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]]), np.array([0, 1, 0])))
def test_an_index_groups_rows_by_id(rows_and_ids):
    rows, ids = rows_and_ids
    index = KnnIndex().fit(rows, ids)
    distinct = np.unique(ids).size
    inverse = np.arange(len(rows)) if index.inverse_ is None else index.inverse_
    assert index.points_.shape[0] == distinct
    # one point per distinct id: rows share a point exactly when they share an id
    assert len(set(zip(inverse.tolist(), ids.tolist()))) == distinct
    np.testing.assert_array_equal(index.points_[inverse], rows)
    x = np.vstack([rows, -rows[::-1]])
    for k in {1, len(rows) // 2 + 1, len(rows)}:
        with np.errstate(over="ignore"):
            got = index.query(x, k)
        np.testing.assert_array_equal(got, _stable_argsort_answer(x, rows, k))


def test_an_index_needs_one_id_per_row():
    for ids in (np.arange(3), np.arange(5), np.zeros((4, 1), dtype=np.int64)):
        with pytest.raises(DegenerateData):
            KnnIndex().fit(np.zeros((4, 2)), ids)


@pytest.mark.parametrize("kind", KINDS)
def test_several_row_blocks_answer_like_one(kind):
    # more query rows than one block holds, and a ragged last block
    rng = np.random.default_rng(7)
    n = 400
    rows, ids = _rows(kind, rng, n, 5), np.arange(n)
    if kind == "bootstrap":
        ids = rng.integers(0, n, size=n)
        rows = rows[ids]
    per_block = QUERY_BLOCK_CELLS // n
    x = _rows(kind, rng, 2 * per_block + 7, 5)
    with np.errstate(over="ignore"):
        got = KnnIndex().fit(rows, ids).query(x, 16)
    np.testing.assert_array_equal(got, _stable_argsort_answer(x, rows, 16))


def test_continuous_rows_recompute_only_k_distances(monkeypatch):
    # the margin is far below the gaps between distinct continuous
    # distances, so no row should need more than its k candidates
    rng = np.random.default_rng(3)
    rows, x = rng.normal(size=(300, 20)), rng.normal(size=(50, 20))
    pairs = []
    gathered = _kernels.gathered_sq_dists

    def counting(a, b, rows_a, rows_b):
        pairs.append(len(rows_a))
        return gathered(a, b, rows_a, rows_b)

    monkeypatch.setattr(_kernels, "gathered_sq_dists", counting)
    got = KnnIndex().fit(rows, np.arange(300)).query(x, 8)
    np.testing.assert_array_equal(got, _stable_argsort_answer(x, rows, 8))
    assert sum(pairs) == 50 * 8


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 30), st.integers(1, 30), st.integers(0, 8),
    st.integers(0, 60), st.integers(0, 2**31 - 1),
)
def test_gathered_pairs_equal_the_matrix_kernel_bit_for_bit(n_a, n_b, d, n_pairs, seed):
    rng = np.random.default_rng(seed)
    # columns of mixed scale, so that another summation order rounds differently
    scale = 10.0 ** rng.integers(-3, 4, size=d)
    a = rng.normal(size=(n_a, d)) * scale
    b = rng.normal(size=(n_b, d)) * scale
    b[0] = a[0]  # an exact zero distance
    rows_a = rng.integers(0, n_a, size=n_pairs)
    rows_b = rng.integers(0, n_b, size=n_pairs)
    got = _kernels.gathered_sq_dists(a, b, rows_a, rows_b)
    want = ref_pairwise_sq_dists(a, b)[rows_a, rows_b]
    assert got.shape == (n_pairs,)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_gathered_pairs_reject_unequal_feature_counts():
    with pytest.raises(ValueError):
        _kernels.gathered_sq_dists(np.zeros((4, 3)), np.zeros((2, 2)), [0], [0])


@pytest.mark.parametrize("d", [0, 1, 7, 50])
def test_gathered_pairs_equal_the_matrix_kernel_across_chunk_boundaries(d):
    rng = np.random.default_rng(d)
    scale = 10.0 ** rng.integers(-3, 4, size=d)
    a, b = rng.normal(size=(40, d)) * scale, rng.normal(size=(30, d)) * scale
    want = ref_pairwise_sq_dists(a, b)
    chunk = _kernels.GATHER_CELLS // max(d, 1)
    for n_pairs in (1, 2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        rows_a = rng.integers(0, 40, size=n_pairs)
        rows_b = rng.integers(0, 30, size=n_pairs)
        got = _kernels.gathered_sq_dists(a, b, rows_a, rows_b)
        assert got.shape == (n_pairs,)
        np.testing.assert_array_equal(got.view(np.uint64), want[rows_a, rows_b].view(np.uint64))


@pytest.mark.parametrize("as_rows", [list, np.int32, np.uint16, np.int64])
def test_gathered_pairs_take_any_integer_row_list(as_rows):
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(12, 20)), rng.normal(size=(9, 20))
    want = ref_pairwise_sq_dists(a, b)
    for n_pairs in (0, 1, 5):
        rows_a, rows_b = rng.integers(0, 9, size=n_pairs), rng.integers(0, 9, size=n_pairs)
        if as_rows is list:
            got = _kernels.gathered_sq_dists(a, b, rows_a.tolist(), rows_b.tolist())
        else:
            got = _kernels.gathered_sq_dists(a, b, rows_a.astype(as_rows), rows_b.astype(as_rows))
        np.testing.assert_array_equal(got.view(np.uint64), want[rows_a, rows_b].view(np.uint64))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(1, 6), st.integers(0, 12), st.integers(0, 2**31 - 1))
@example(1, 1, 0, 0)  # one entry
@example(5, 3, 9, 1)
def test_padded_ranking_equals_lexsort_order(n_rows, k, extra, seed):
    rng = np.random.default_rng(seed)
    # every row has k or more entries, up to k + extra; few distinct
    # distances, so ties straddle the k-th place, and some infinite ones
    counts = rng.integers(k, k + extra + 1, size=n_rows)
    rows = np.repeat(np.arange(n_rows), counts)
    dists = rng.choice([0.0, 1.0, 2.0, 2.5, np.inf], size=rows.size)
    got = first_k_by_distance(counts, dists, k)
    starts = counts.cumsum() - counts
    order = np.lexsort((np.arange(rows.size), dists, rows))  # by row, distance, position
    want = np.stack([order[s : s + k] for s in starts])
    np.testing.assert_array_equal(got, want)
