"""Learner internals: kernels, forests, knn, kmeans, preprocessing.

The split kernels are checked bit for bit against a one-feature
reference search and the distance kernel against a column-by-column
one; pinned digests hold every tree a seeded forest grows, so a change
to the grower cannot shift a split unnoticed.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from metaselect.errors import AllColumnsDropped, DegenerateData, KTooLarge
from metaselect.learners import (
    ForestClassifier,
    ForestRegressor,
    KnnIndex,
    Preprocessor,
    fit_kmeans,
)
from metaselect.learners import _kernels
from metaselect.learners.forest import _TreeGrower
from metaselect.learners.preprocess import fit_variance_threshold


def _ref_best_split_reg(values, targets, weights, min_leaf):
    """One presorted feature: the split search the kernel vectorizes."""
    n = values.shape[0]
    if n < 2 * min_leaf:
        return np.inf, -1
    cw = np.cumsum(weights)
    cwy = np.cumsum(weights * targets)
    cwyy = np.cumsum(weights * targets * targets)
    pos = np.arange(1, n)
    wl, wyl, wyyl = cw[:-1], cwy[:-1], cwyy[:-1]
    wr, wyr, wyyr = cw[-1] - wl, cwy[-1] - wyl, cwyy[-1] - wyyl
    valid = (
        (pos >= min_leaf)
        & (pos <= n - min_leaf)
        & (values[1:] != values[:-1])
        & (wl > 0.0)
        & (wr > 0.0)
    )
    if not valid.any():
        return np.inf, -1
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (wyyl - wyl * wyl / wl) + (wyyr - wyr * wyr / wr)
    score = np.where(valid, score, np.inf)
    best = int(np.argmin(score))
    return float(score[best]), int(pos[best])


def _ref_best_split_cls(values, labels, weights, n_classes, min_leaf):
    n = values.shape[0]
    if n < 2 * min_leaf:
        return np.inf, -1
    onehot = (labels[:, None] == np.arange(n_classes)[None, :]) * weights[:, None]
    class_prefix = np.cumsum(onehot, axis=0)
    cw = np.cumsum(weights)
    pos = np.arange(1, n)
    wl = cw[:-1]
    wr = cw[-1] - wl
    left = class_prefix[:-1]
    sq_left = np.zeros(n - 1)
    sq_right = np.zeros(n - 1)
    for k in range(n_classes):
        sq_left = sq_left + left[:, k] * left[:, k]
        rk = class_prefix[-1, k] - left[:, k]
        sq_right = sq_right + rk * rk
    valid = (
        (pos >= min_leaf)
        & (pos <= n - min_leaf)
        & (values[1:] != values[:-1])
        & (wl > 0.0)
        & (wr > 0.0)
    )
    if not valid.any():
        return np.inf, -1
    with np.errstate(divide="ignore", invalid="ignore"):
        score = (wl - sq_left / wl) + (wr - sq_right / wr)
    score = np.where(valid, score, np.inf)
    best = int(np.argmin(score))
    return float(score[best]), int(pos[best])


@st.composite
def _node_columns(draw):
    """A node's presorted candidate columns: few distinct values, so
    ties are common, and weights that are often zero."""
    n = draw(st.integers(1, 14))
    m = draw(st.integers(1, 4))
    shape = (n, m)
    values = draw(arrays(np.float64, shape, elements=st.sampled_from([-1.0, 0.0, 0.5, 2.0])))
    targets = draw(arrays(np.float64, shape, elements=st.floats(-8.0, 8.0, width=32)))
    weights = draw(arrays(np.float64, shape, elements=st.sampled_from([0.0, 0.1, 0.3, 1.0, 2.7])))
    n_classes = draw(st.integers(1, 5))
    labels = draw(arrays(np.int64, shape, elements=st.integers(0, n_classes - 1)))
    if m > 1 and draw(st.booleans()):  # equal best scores in two columns
        for a in (values, targets, weights, labels):
            a[:, -1] = a[:, 0]
    if draw(st.booleans()):  # a column no position can split
        values[:, 0] = values[0, 0]
    values.sort(axis=0)
    min_leaf = draw(st.integers(1, 4))
    return values, targets, weights, labels, n_classes, min_leaf


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=300, deadline=None)
@given(_node_columns())
def test_split_kernels_match_the_one_feature_search(node):
    values, targets, weights, labels, n_classes, min_leaf = node
    reg = _kernels.best_split_reg(values, targets, weights, min_leaf)
    cls = _kernels.best_split_cls(values, labels, weights, n_classes, min_leaf)
    for j in range(values.shape[1]):
        cols = values[:, j], targets[:, j], weights[:, j]
        ref_score, ref_pos = _ref_best_split_reg(*cols, min_leaf)
        assert _same_bits(reg[0][j], ref_score) and reg[1][j] == ref_pos
        ref_score, ref_pos = _ref_best_split_cls(
            values[:, j], labels[:, j], weights[:, j], n_classes, min_leaf
        )
        assert _same_bits(cls[0][j], ref_score) and cls[1][j] == ref_pos


@pytest.mark.parametrize("classification", [False, True])
def test_equal_best_scores_go_to_the_earlier_candidate(classification):
    # two identical features score identically; the first one drawn wins
    rng = np.random.default_rng(8)
    col = np.round(rng.normal(size=30), 1)
    x = np.column_stack([col, col, col])
    y = (col > 0).astype(np.float64)
    for seed in range(6):
        grower = _TreeGrower(
            x, y, np.ones(30), 2, 1, None, np.random.default_rng(seed), classification, 2
        )
        drawn = np.random.default_rng(seed).choice(3, size=2, replace=False)
        feature, *_ = grower._find_split(np.arange(30))
        assert feature == drawn[0]


def test_pairwise_sq_dists_match_scipy_cdist():
    distance = pytest.importorskip("scipy.spatial.distance")
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(7, 4)), rng.normal(scale=3.0, size=(5, 4))
    b[0] = a[2]  # an exact zero distance
    np.testing.assert_allclose(
        _kernels.pairwise_sq_dists(a, b), distance.cdist(a, b, "sqeuclidean"), rtol=1e-12
    )


def _ref_pairwise_sq_dists(a, b):
    """Whole-matrix passes, one feature column at a time."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        diff = a[:, j, None] - b[None, :, j]
        out = out + diff * diff
    return out


_BLOCK = _kernels.BLOCK_CELLS
_DIST_SHAPES = [  # (n_a, n_b, d)
    (3 * (_BLOCK // 100) + 7, 100, 3),  # several row blocks, a ragged last one
    (3, _BLOCK + 5, 2),  # n_b larger than a block
    (1, 40, 5),
    (40, 1, 5),
    (1, 1, 3),
    (25, 30, 0),
]


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(
        st.sampled_from(_DIST_SHAPES),
        st.tuples(st.integers(0, 50), st.integers(0, 50), st.integers(0, 8)),
    ),
    st.integers(0, 2**31 - 1),
)
def test_pairwise_sq_dists_match_the_column_reference(shape, seed):
    n_a, n_b, d = shape
    rng = np.random.default_rng(seed)
    # columns of mixed scale, so that a changed summation order rounds differently
    scale = 10.0 ** rng.integers(-3, 4, size=d)
    a = rng.normal(size=(n_a, d)) * scale
    b = rng.normal(size=(n_b, d)) * scale
    if n_a > 1:
        a[-1] = a[0]  # duplicated rows
    if n_a and n_b:
        b[-1] = a[0]
    got = _kernels.pairwise_sq_dists(a, b)
    want = _ref_pairwise_sq_dists(a, b)
    assert got.shape == (n_a, n_b)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_pairwise_sq_dists_restore_the_ufunc_buffer_size():
    with np.errstate():
        np.setbufsize(4096)
        _kernels.pairwise_sq_dists(np.ones((3, 2)), np.zeros((4, 2)))
        assert np.getbufsize() == 4096


def _forest_digest(model):
    digest = hashlib.sha256()
    for tree in model.trees_:
        for arr in (tree.feature, tree.threshold, tree.left, tree.right, tree.payload):
            digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def test_seeded_regressor_trees_are_pinned():
    rng = np.random.default_rng(11)
    x = np.round(rng.normal(size=(120, 6)), 1)
    y = x[:, 0] - 2.0 * x[:, 1] + rng.normal(scale=0.3, size=120)
    model = ForestRegressor(n_trees=12, min_leaf=2, seed=21).fit(x, y)
    assert sum(tree.feature.size for tree in model.trees_) == 1100
    assert _forest_digest(model) == (
        "ce3647b9a7b362fb546d0b80b6426cc75eae815bd1940e55a9284c068f7808ec"
    )


def test_weighted_classifier_trees_are_pinned():
    # duplicated rows (some with conflicting labels), a constant feature
    # and zero weights exercise every tie rule of the split search
    rng = np.random.default_rng(12)
    base = np.round(rng.normal(size=(45, 5)), 1)
    base[:, 2] = 1.5
    x = np.vstack([base, base])
    y = np.concatenate([(base[:, 0] > 0) + (base[:, 1] > 0.5), rng.integers(0, 3, size=45)])
    w = rng.uniform(0.0, 2.0, size=90)
    w[::7] = 0.0
    model = ForestClassifier(n_trees=12, mtry=3, seed=5, n_classes=3).fit(x, y, w)
    assert sum(tree.feature.size for tree in model.trees_) == 734
    assert _forest_digest(model) == (
        "45e3100bb1d22acd8be1122d89e5c080ca15fb690d812eaefd7a22f2fe8f5101"
    )


class TestForest:
    def test_regressor_learns_a_linear_signal(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(200, 2))
        y = 3.0 * x[:, 0]
        model = ForestRegressor(n_trees=30, seed=1).fit(x, y)
        grid = np.array([[-0.8, 0.0], [0.8, 0.0]])
        lo, hi = model.predict(grid)
        assert lo < -1.0 < 1.0 < hi

    def test_classifier_separates_clusters(self):
        rng = np.random.default_rng(1)
        x = np.vstack([rng.normal(-2, 0.3, size=(50, 2)), rng.normal(2, 0.3, size=(50, 2))])
        y = np.repeat([0, 1], 50)
        model = ForestClassifier(n_trees=15, seed=2, n_classes=2).fit(x, y)
        assert model.predict(np.array([[-2.0, -2.0]])) == 0
        assert model.predict(np.array([[2.0, 2.0]])) == 1

    def test_same_seed_is_bit_identical(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        q = rng.normal(size=(10, 3))
        a = ForestRegressor(n_trees=12, seed=7).fit(x, y).predict(q)
        b = ForestRegressor(n_trees=12, seed=7).fit(x, y).predict(q)
        c = ForestRegressor(n_trees=12, seed=8).fit(x, y).predict(q)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sample_weights_steer_the_fit(self):
        # two contradictory blobs at the same x location; upweighting one
        # side must pull predictions toward it
        x = np.zeros((20, 1))
        y = np.repeat([0.0, 10.0], 10)
        w_low = np.repeat([10.0, 0.1], 10)
        w_high = np.repeat([0.1, 10.0], 10)
        lo = ForestRegressor(n_trees=10, seed=0).fit(x, y, w_low).predict(np.zeros((1, 1)))[0]
        hi = ForestRegressor(n_trees=10, seed=0).fit(x, y, w_high).predict(np.zeros((1, 1)))[0]
        assert lo < 2.0 and hi > 8.0

    def test_degenerate_inputs_raise(self):
        with pytest.raises(DegenerateData):
            ForestRegressor(n_trees=2).fit(np.empty((0, 2)), np.empty(0))
        with pytest.raises(DegenerateData):
            ForestRegressor(n_trees=2).fit(np.array([[np.nan, 1.0]]), np.array([1.0]))
        with pytest.raises(DegenerateData):
            ForestRegressor(n_trees=2).fit(
                np.ones((3, 1)), np.ones(3), sample_weight=np.array([1.0, -1.0, 1.0])
            )


class TestKnn:
    def test_k_bounds(self):
        index = KnnIndex().fit(np.zeros((4, 2)))
        with pytest.raises(KTooLarge):
            index.query(np.zeros(2), 5)
        with pytest.raises(KTooLarge):
            index.query(np.zeros(2), 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_self_query_returns_self(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(12, 3))
        # distinct rows with probability 1 under a continuous draw
        index = KnnIndex().fit(pts)
        for i in range(len(pts)):
            assert index.query(pts[i : i + 1], 1)[0, 0] == i

    def test_a_tie_at_the_kth_place_goes_to_the_lower_row_id(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        index = KnnIndex().fit(pts)
        origin = np.zeros((1, 2))
        np.testing.assert_array_equal(index.query(origin, 1), [[2]])
        np.testing.assert_array_equal(index.query(origin, 3), [[2, 0, 1]])
        np.testing.assert_array_equal(index.query(origin, 5), [[2, 0, 1, 3, 4]])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 40), st.integers(0, 12))
    def test_query_equals_a_stable_argsort(self, seed, n_points, n_queries):
        rng = np.random.default_rng(seed)
        # a 3 x 3 grid of positions: equal distances, also at the k-th place
        pts = rng.integers(-1, 2, size=(n_points, 2)).astype(np.float64)
        x = rng.integers(-1, 2, size=(n_queries, 2)).astype(np.float64)
        order = np.argsort(_kernels.pairwise_sq_dists(x, pts), axis=1, kind="stable")
        index = KnnIndex().fit(pts)
        for k in {1, int(rng.integers(1, n_points + 1)), n_points}:
            np.testing.assert_array_equal(index.query(x, k), order[:, :k])

    def test_query_rejects_nonfinite_features(self):
        index = KnnIndex().fit(np.zeros((4, 2)))
        with pytest.raises(DegenerateData):
            index.query(np.array([[0.0, np.nan]]), 1)


class TestKmeans:
    def test_k_bounds(self):
        with pytest.raises(KTooLarge):
            fit_kmeans(np.zeros((3, 2)), 4)

    def test_inertia_never_increases(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(100, 2))
        model = fit_kmeans(x, 4, seed=1)
        hist = model.inertia_history
        assert all(b <= a + 1e-9 for a, b in zip(hist, hist[1:]))

    def test_nearest_matches_training_assignment(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(50, 2))
        model = fit_kmeans(x, 3, seed=2)
        clusters, distances = model.nearest(x)
        np.testing.assert_array_equal(clusters, model.assignments)
        np.testing.assert_array_equal(distances, model.train_distances)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 2))
        a = fit_kmeans(x, 3, seed=9)
        b = fit_kmeans(x, 3, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)


class TestPreprocessor:
    def test_imputes_median_then_standardizes(self):
        x = np.array([[1.0, 5.0], [3.0, np.nan], [np.nan, 9.0]])
        out = Preprocessor().fit_transform(x)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-12)

    def test_all_nan_column_becomes_zero(self):
        x = np.array([[1.0, np.nan], [2.0, np.nan]])
        out = Preprocessor().fit_transform(x)
        np.testing.assert_array_equal(out[:, 1], [0.0, 0.0])

    def test_constant_column_passes_through_unscaled(self):
        x = np.array([[7.0], [7.0], [7.0]])
        out = Preprocessor().fit_transform(x)
        np.testing.assert_array_equal(out, np.zeros((3, 1)))

    def test_transform_before_fit_raises(self):
        with pytest.raises(DegenerateData):
            Preprocessor().transform(np.zeros((1, 2)))

    def test_single_row_query_keeps_shape(self):
        pre = Preprocessor().fit(np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert pre.transform(np.array([[1.0, 2.0]])).shape == (1, 2)


def test_variance_threshold_keeps_informative_columns():
    rng = np.random.default_rng(7)
    x = np.column_stack([rng.normal(size=30), np.full(30, 2.0)])
    keep = fit_variance_threshold(x, 0.16)
    assert keep.tolist() == [True, False]
    with pytest.raises(AllColumnsDropped):
        fit_variance_threshold(np.full((10, 2), 3.0), 0.16)
