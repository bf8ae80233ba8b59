"""Learner internals: kernels, forests, knn, kmeans, preprocessing.

The split kernels are checked bit for bit against a one-feature
reference search, on one node's columns and on padded columns of
several nodes, and the Gini kernel on columns whose equal samples are
merged into rows weighted by their count; the distance kernel against
the column-by-column one of `reference` across its chunk edges and the
k-means accumulation against per-column bincounts; pinned digests hold
every tree a seeded forest grows, so a change to the grower cannot
shift a split unnoticed. Forests grown together by
`fit_forests` are compared with each forest grown alone, the batched
leaf payloads with a one-leaf-at-a-time reference and the block draw of
candidate features with numpy's own `Generator.choice`, bit for bit.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from reference import ref_pairwise_sq_dists

from metaselect.errors import AllColumnsDropped, DegenerateData, KTooLarge
from metaselect.learners import (
    ForestClassifier,
    ForestRegressor,
    KnnIndex,
    Preprocessor,
    fit_forests,
    fit_kmeans,
    grow_together,
)
from metaselect.learners import KMeansModel, _kernels
from metaselect.learners import forest as forest_module
from metaselect.learners import kmeans as kmeans_module
from metaselect.learners.forest import _GrowingTree, _leaf_payloads, _refill
from metaselect.learners.kmeans import _nearest_sq
from metaselect.learners.neighbors import squared_norms
from metaselect.learners.preprocess import column_medians, fit_variance_threshold


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
    """Presorted candidate columns: few distinct values, so ties are
    common, and weights that are often zero. Either one node's columns,
    all of full length, or columns of several nodes of
    mixed real lengths, padded below with +inf values of zero weight,
    target and label, as the grower batches them."""
    n = draw(st.integers(1, 14))
    m = draw(st.integers(1, 6))
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
    if n > 1 and draw(st.booleans()):  # a duplicated row
        for a in (values, targets, weights, labels):
            a[1] = a[0]
    sizes = np.full(m, n)
    if draw(st.booleans()):
        sizes = np.array(draw(st.lists(st.integers(1, n), min_size=m, max_size=m)))
        padding = np.arange(n)[:, None] >= sizes
        values[padding] = np.inf
        targets[padding] = weights[padding] = labels[padding] = 0
    min_leaf = draw(st.integers(1, 4))
    return values, targets, weights, labels, n_classes, min_leaf, sizes


def _same_bits(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@settings(max_examples=500, deadline=None)
@given(_node_columns())
def test_split_kernels_match_the_one_feature_search(node):
    values, targets, weights, labels, n_classes, min_leaf, sizes = node
    reg = _kernels.best_split_reg(values, targets, weights, min_leaf, sizes)
    cls = _kernels.best_split_cls(values, labels, weights, n_classes, min_leaf, sizes)
    for j in range(values.shape[1]):
        real = slice(0, sizes[j])
        cols = values[real, j], targets[real, j], weights[real, j]
        ref_score, ref_pos = _ref_best_split_reg(*cols, min_leaf)
        assert _same_bits(reg[0][j], ref_score) and reg[1][j] == ref_pos
        ref_score, ref_pos = _ref_best_split_cls(
            values[real, j], labels[real, j], weights[real, j], n_classes, min_leaf
        )
        assert _same_bits(cls[0][j], ref_score) and cls[1][j] == ref_pos


def _padded(columns):
    """(values, labels, weights) columns laid side by side, padded below
    as the grower pads them, and each column's real length."""
    sizes = np.array([column[0].size for column in columns])
    shape = (sizes.max(), len(columns))
    values, labels, weights = np.full(shape, np.inf), np.zeros(shape, np.int64), np.zeros(shape)
    for j, column in enumerate(columns):
        for out, a in zip((values, labels, weights), column):
            out[: a.size, j] = a
    return values, labels, weights, sizes


def _expanded_and_merged(rng, n_classes, runs):
    """Columns of several nodes, each the drawn rows of a few distinct
    samples (value, label) sorted stably by value, every row of weight
    1: with `runs` each sample's rows are one run, otherwise they mix
    with the other samples of their value. And the same columns with each
    sample's rows merged into one row weighted by their count, in
    another order among equal values."""
    expanded, merged = [], []
    for _ in range(rng.integers(1, 7)):
        k = rng.integers(1, 12)
        values = rng.choice([-1.0, 0.0, 0.5, 2.0, 3.0], size=k)
        labels = rng.integers(0, n_classes, size=k)
        counts = rng.integers(1, 5, size=k)
        drawn = np.repeat(np.arange(k), counts)
        if not runs:
            drawn = rng.permutation(drawn)
        drawn = drawn[np.argsort(values[drawn], kind="stable")]
        distinct = rng.permutation(k)
        distinct = distinct[np.argsort(values[distinct], kind="stable")]
        expanded.append((values[drawn], labels[drawn], np.ones(drawn.size)))
        merged.append((values[distinct], labels[distinct], counts[distinct].astype(np.float64)))
    return _padded(expanded), _padded(merged)


@pytest.mark.parametrize("runs", [True, False])
@pytest.mark.parametrize("n_classes", [1, 2, 5, 31])
def test_merging_equal_samples_into_weighted_rows_changes_no_split(n_classes, runs):
    # integer weights keep every Gini prefix sum exact in any row order,
    # so each value boundary scores the same bits on either form
    rng = np.random.default_rng(n_classes)
    for _ in range(40):
        (ev, el, ew, es), (mv, ml, mw, ms) = _expanded_and_merged(rng, n_classes, runs)
        e_score, e_pos = _kernels.best_split_cls(ev, el, ew, n_classes, 1, es)
        m_score, m_pos = _kernels.best_split_cls(mv, ml, mw, n_classes, 1, ms)
        assert e_score.tobytes() == m_score.tobytes()
        assert ((e_pos < 0) == (m_pos < 0)).all()
        cols = np.flatnonzero(e_pos >= 0)
        for side in (-1, 0):  # values[pos - 1] and values[pos]
            below_or_above = ev[e_pos[cols] + side, cols], mv[m_pos[cols] + side, cols]
            assert below_or_above[0].tobytes() == below_or_above[1].tobytes()


@pytest.mark.parametrize("classification", [False, True])
def test_equal_best_scores_go_to_the_earlier_candidate(classification):
    # two identical features score identically; the first one drawn wins
    rng = np.random.default_rng(8)
    col = np.round(rng.normal(size=30), 1)
    x = np.column_stack([col, col, col])
    y = (col > 0).astype(np.float64)
    model = ForestClassifier if classification else ForestRegressor
    for seed in range(6):
        tree = model(n_trees=1, min_leaf=1, mtry=2, seed=seed).fit(x, y).trees_[0]
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        rng.integers(0, 30, size=30)  # the tree's bootstrap is drawn first
        drawn = rng.choice(3, size=2, replace=False)
        assert tree.feature[0] == drawn[0]


def test_pairwise_sq_dists_match_scipy_cdist():
    distance = pytest.importorskip("scipy.spatial.distance")
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=(7, 4)), rng.normal(scale=3.0, size=(5, 4))
    b[0] = a[2]  # an exact zero distance
    np.testing.assert_allclose(
        _kernels.pairwise_sq_dists(a, b), distance.cdist(a, b, "sqeuclidean"), rtol=1e-12
    )


def _chunk(d):
    """Pairs per chunk of the gathered kernel at d features."""
    return _kernels.GATHER_CELLS // d


_DIST_SHAPES = [  # (n_a, n_b, d)
    (3 * (_chunk(3) // 100) + 7, 100, 3),  # several chunks, a ragged last one
    (3, _chunk(2) + 5, 2),  # one row of a spans more than a chunk
    (_chunk(2) + 5, 3, 2),
    (_chunk(8) // 32, 32, 8),  # exactly one chunk
    (_chunk(8) + 1, 1, 8),  # one pair more than a chunk
    (800, 1, 50),  # k-means++ seeding: every point against one centroid
    (800, 4, 6),
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
    want = ref_pairwise_sq_dists(a, b)
    assert got.shape == (n_a, n_b)
    assert got.flags.c_contiguous
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_pairwise_sq_dists_reject_unequal_feature_counts():
    with pytest.raises(ValueError):
        _kernels.pairwise_sq_dists(np.zeros((4, 3)), np.zeros((2, 2)))


def _ref_kmeans_accumulate(x, assign, k):
    """One bincount per column."""
    sums = np.zeros((k, x.shape[1]))
    for col in range(x.shape[1]):
        sums[:, col] = np.bincount(assign, weights=x[:, col], minlength=k)
    return sums, np.bincount(assign, minlength=k).astype(np.float64)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 60), st.integers(0, 7), st.integers(1, 12), st.integers(0, 2**31 - 1)
)
@example(9, 0, 3, 0)  # no features
@example(9, 4, 1, 0)  # one cluster
def test_kmeans_accumulate_matches_per_column_bincounts(n, d, k, seed):
    rng = np.random.default_rng(seed)
    # mixed scales, so that another summation order rounds differently
    x = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-6, 7, size=d)
    # a cluster range wider than the rows in use: some clusters stay empty
    assign = rng.integers(0, max(1, k // 2), size=n).astype(np.int64)
    sums, counts = _kernels.kmeans_accumulate(x, assign, k)
    want_sums, want_counts = _ref_kmeans_accumulate(x, assign, k)
    assert sums.shape == (k, d) and sums.dtype == np.float64
    np.testing.assert_array_equal(sums.view(np.uint64), want_sums.view(np.uint64))
    np.testing.assert_array_equal(counts, want_counts)
    assert counts.dtype == np.float64


def test_pairwise_sq_dists_restore_the_ufunc_buffer_size():
    with np.errstate():
        np.setbufsize(4096)
        _kernels.pairwise_sq_dists(np.ones((3, 2)), np.zeros((4, 2)))
        assert np.getbufsize() == 4096


def _forest_digest(model, n_trees=None):
    digest = hashlib.sha256()
    for tree in model.trees_[:n_trees]:
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


@pytest.mark.parametrize("min_leaf, weighted", [(1, False), (2, True)])
def test_labels_of_any_dtype_grow_the_same_classifier(min_leaf, weighted):
    # a classifier casts its labels to int64 once, on fit: float, int
    # and bool labels of equal value grow the same trees, whether they
    # collapse onto distinct bootstrap rows or not
    rng = np.random.default_rng(22)
    x = np.round(rng.normal(size=(80, 4)), 1)
    labels = x[:, 0] + rng.normal(scale=0.5, size=80) > 0
    w = rng.uniform(0.5, 2.0, size=80) if weighted else None
    forests = [
        ForestClassifier(n_trees=5, min_leaf=min_leaf, seed=3).fit(x, labels.astype(dtype), w)
        for dtype in (np.float64, np.int64, bool)
    ]
    assert len({_forest_digest(forest) for forest in forests}) == 1
    for forest in forests:
        predicted = forest.predict(x)
        assert predicted.dtype == np.int64
        np.testing.assert_array_equal(predicted, forests[0].predict(x))


def test_tied_feature_values_keep_their_row_order():
    # integer features: distinct rows tie on most split features, and the
    # order of tied rows decides every prefix sum of weighted targets
    rng = np.random.default_rng(13)
    x = np.round(rng.normal(scale=1.5, size=(150, 5)))
    y = x[:, 0] * x[:, 1] + rng.normal(scale=0.5, size=150)
    w = rng.uniform(0.2, 3.0, size=150)
    model = ForestRegressor(n_trees=10, min_leaf=1, seed=17).fit(x, y, w)
    assert sum(tree.feature.size for tree in model.trees_) == 1804
    assert _forest_digest(model) == (
        "5933e8df108e6557f02dcac63966de3db49465d5fc931c595af055a934ae8223"
    )


@pytest.mark.parametrize("classification", [False, True])
def test_one_descent_of_all_trees_predicts_like_a_loop_over_trees(classification):
    rng = np.random.default_rng(15)
    x = np.round(rng.normal(size=(150, 5)), 1)
    y = (x[:, 0] > 0) + (x[:, 1] > 0.5) if classification else x[:, 0] + rng.normal(size=150)
    model = (ForestClassifier if classification else ForestRegressor)(n_trees=7, seed=3).fit(x, y)
    q = np.vstack([x[:20], np.round(rng.normal(size=(30, 5)), 1)])
    # the reference: one descent per tree, payloads added in tree order
    want = np.zeros((len(q), model.trees_[0].payload.shape[1]))
    for tree in model.trees_:
        leaves = _kernels.tree_apply(tree.feature, tree.threshold, tree.left, tree.right, q)[0]
        want = want + tree.payload[leaves]
    want /= len(model.trees_)
    got = model.predict_proba(q) if classification else model.predict(q)[:, None]
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("classification", [False, True])
def test_a_tree_does_not_depend_on_the_trees_grown_beside_it(classification):
    # 40 trees search their nodes in wider, differently grouped kernel
    # calls than 3 trees do; the first 3 trees must not change
    rng = np.random.default_rng(14)
    x = np.round(rng.normal(size=(200, 6)), 1)
    y = (x[:, 0] > 0) + (x[:, 1] > 0.5) if classification else x[:, 0] + rng.normal(size=200)
    w = rng.uniform(0.0, 2.0, size=200)
    model = ForestClassifier if classification else ForestRegressor
    few = model(n_trees=3, min_leaf=2, seed=9).fit(x, y, w)
    many = model(n_trees=40, min_leaf=2, seed=9).fit(x, y, w)
    assert _forest_digest(many, n_trees=3) == _forest_digest(few)


def _joint_fits(classification):
    """Forests of one shape on one 70-row matrix: all rows, an ascending
    and a shuffled subset, weights with zeros, an all-pure target, all
    weights zero, a 12-row fit, and differing tree counts and seeds."""
    rng = np.random.default_rng(16)
    x = np.round(rng.normal(size=(70, 5)), 1)
    x[:, 3] = 0.5  # a constant feature

    def target(n):
        if classification:
            return rng.integers(0, 3, size=n)
        return np.round(x[:n, 0] - x[:n, 1] + rng.normal(scale=0.5, size=n), 1)

    subset = np.sort(rng.choice(70, size=40, replace=False))
    shuffled = rng.permutation(70)[:25]
    weights = rng.uniform(0.0, 2.0, size=40)
    weights[::4] = 0.0
    fits = [
        # (rows, y, sample_weight, n_trees, seed)
        (None, target(70), None, 3, 1),
        (subset, target(40), weights, 4, 2),
        (shuffled, target(25), rng.uniform(0.5, 1.5, size=25), 2, 3),
        (None, np.full(70, 2), None, 2, 4),  # every target equal
        (subset, target(40), np.zeros(40), 2, 5),  # every weight zero
        (subset[:12], target(12), None, 2, 6),
    ]
    return x, fits


@pytest.mark.parametrize(
    "model, params",
    [
        (ForestRegressor, {"min_leaf": 1}),
        (ForestRegressor, {"min_leaf": 3, "max_depth": 4}),
        (ForestRegressor, {"min_leaf": 2, "mtry": 2}),
        (ForestClassifier, {"min_leaf": 1, "n_classes": 3}),
        (ForestClassifier, {"min_leaf": 2, "max_depth": 3, "n_classes": 3}),
        (ForestClassifier, {"min_leaf": 1, "max_depth": 1, "n_classes": 4}),
    ],
)
def test_forests_grown_together_equal_forests_grown_alone(model, params):
    x, fits = _joint_fits(model is ForestClassifier)
    together = _joint_forests(model, params, fits)
    fit_forests(x, [(f, rows, y, w) for f, (rows, y, w, *_) in zip(together, fits)])
    for forest, (rows, y, w, n_trees, seed) in zip(together, fits):
        alone = model(n_trees=n_trees, seed=seed, **params)
        alone.fit(x if rows is None else x[rows], y, w)
        assert len(forest.trees_) == n_trees
        assert _forest_digest(forest) == _forest_digest(alone)


def test_forests_grown_together_reject_empty_and_outside_rows():
    x = np.zeros((4, 2))
    y = np.arange(4.0)
    with pytest.raises(DegenerateData, match="at least one row"):
        fit_forests(x, [(ForestRegressor(), np.array([], dtype=np.int64), y[:0], None)])
    with pytest.raises(DegenerateData, match="must index the feature matrix"):
        fit_forests(x, [(ForestRegressor(), np.array([0, 4]), y[:2], None)])


def test_forests_of_mixed_shapes_grow_in_one_call(monkeypatch):
    # a regressor, a classifier, two min_leaf values, and mtry=None next
    # to its resolved value ceil(sqrt(5)) = 3, with which it shares a growth
    x, fits = _joint_fits(classification=True)
    rows, labels, w, *_ = fits[1]
    specs = [
        (ForestRegressor, dict(n_trees=2, min_leaf=1, seed=1), x[rows, 0]),
        (ForestClassifier, dict(n_trees=3, min_leaf=2, n_classes=3, seed=2), labels),
        (ForestClassifier, dict(n_trees=2, min_leaf=1, n_classes=3, seed=3), labels),
        (ForestClassifier, dict(n_trees=4, min_leaf=1, n_classes=3, mtry=3, seed=4), labels),
    ]
    forests = [model(**kwargs) for model, kwargs, _ in specs]
    growths = _count_growths(monkeypatch)
    fit_forests(x, [(f, rows, y, w) for f, (*_, y) in zip(forests, specs)])
    assert growths == [2, 3, 2 + 4]
    for forest, (model, kwargs, y) in zip(forests, specs):
        alone = model(**kwargs).fit(x[rows], y, w)
        assert _forest_digest(forest) == _forest_digest(alone)


_SHAPES = [
    (ForestRegressor, {"min_leaf": 2}),
    (ForestClassifier, {"min_leaf": 1, "n_classes": 3}),
]


def _joint_forests(model, params, fits):
    return [model(n_trees=n_trees, seed=seed, **params) for *_, n_trees, seed in fits]


def _count_growths(monkeypatch, samples=None):
    """A list that gets one entry, the growth's tree count, per growth;
    `samples`, when given, gets the length of each growth's sample arrays."""
    growths = []
    grow = forest_module._Grower.grow

    def counted(self, roots):
        growths.append(len(roots))
        grow(self, roots)
        if samples is not None:
            samples.append(self.w.size)

    monkeypatch.setattr(forest_module._Grower, "grow", counted)
    return growths


@pytest.mark.parametrize("budget", [1, 70, 150])
@pytest.mark.parametrize("model, params", _SHAPES)
def test_a_fit_split_into_growths_equals_one_growth(monkeypatch, budget, model, params):
    # _joint_fits holds weights with zeros and a 12-row fit;
    # a budget of 1 grows every tree alone, 70 one 70-row tree or two
    # smaller ones at a time, 150 a few trees at a time
    x, fits = _joint_fits(model is ForestClassifier)
    one = _joint_forests(model, params, fits)
    fit_forests(x, [(f, rows, y, w) for f, (rows, y, w, *_) in zip(one, fits)])
    samples = []
    growths = _count_growths(monkeypatch, samples)
    monkeypatch.setattr(forest_module, "GROW_SAMPLES", budget)
    split = _joint_forests(model, params, fits)
    fit_forests(x, [(f, rows, y, w) for f, (rows, y, w, *_) in zip(split, fits)])
    assert sum(growths) == sum(fit[3] for fit in fits)
    assert len(growths) > 3
    if budget == 1:
        assert set(growths) == {1}
    for a, b in zip(split, one):
        assert _forest_digest(a) == _forest_digest(b)
    # a growth lays out its own trees' root samples and one padding
    # sample: an unweighted min_leaf 1 classifier tree's distinct
    # bootstrap ids, any other tree's drawn rows
    roots = []
    for rows, y, w, n_trees, seed in fits:
        n = y.size
        collapse = model is ForestClassifier and params["min_leaf"] == 1 and w is None
        for child in np.random.SeedSequence(seed).spawn(n_trees):
            drawn = np.random.default_rng(child).integers(0, n, size=n)
            roots.append(np.unique(drawn).size if collapse else n)
    ends = np.cumsum(growths)
    assert samples == [sum(roots[end - k : end]) + 1 for end, k in zip(ends, growths)]


@pytest.mark.parametrize("model, params", _SHAPES)
def test_fits_joined_in_one_scope_equal_fits_grown_alone(monkeypatch, model, params):
    # two calls on one matrix and one on another matrix of the same
    # width, plus a call of another shape, which grows on its own
    x, fits = _joint_fits(model is ForestClassifier)
    rng = np.random.default_rng(19)
    other = np.round(rng.normal(size=(30, 5)), 1)
    other_y = rng.integers(0, 3, size=30) if model is ForestClassifier else other[:, 0]
    kwargs = [dict(n_trees=n, seed=seed, **params) for *_, n, seed in fits]
    kwargs += [dict(n_trees=3, seed=8, **params), dict(n_trees=2, seed=9, **params, max_depth=2)]
    data = [(x, rows, y, w) for rows, y, w, *_ in fits] + [(other, None, other_y, None)] * 2
    forests = [model(**k) for k in kwargs]
    stacked = []

    class Recording(forest_module._Grower):
        def __init__(self, x, *args):
            stacked.append(x.shape[0])
            super().__init__(x, *args)

    monkeypatch.setattr(forest_module, "_Grower", Recording)
    with grow_together():
        for call in ([0, 1, 2, 3], [6], [4, 5], [7]):
            fit_forests(data[call[0]][0], [(forests[i], *data[i][1:]) for i in call])
        assert all(f.nodes_ is None for f in forests)
        assert stacked == []
    assert stacked == [70 + 30, 30]  # each matrix stacked once per shape
    for forest, k, (matrix, rows, y, w) in zip(forests, kwargs, data):
        alone = model(**k).fit(matrix if rows is None else matrix[rows], y, w)
        assert _forest_digest(forest) == _forest_digest(alone)


def test_a_queued_forest_cannot_predict_until_its_scope_exits():
    rng = np.random.default_rng(20)
    x = rng.normal(size=(40, 3))
    y = x[:, 0] + rng.normal(scale=0.1, size=40)
    fitted = ForestRegressor(n_trees=2, seed=1).fit(x, y)
    fresh = ForestRegressor(n_trees=2, seed=1)
    with grow_together():
        fresh.fit(x, y)
        fitted.fit(x, y)  # a refit drops the trees it had
        for forest in (fresh, fitted):
            with pytest.raises(DegenerateData):
                forest.predict(x)
        # a bad fit raises at its call, not when the scope exits
        with pytest.raises(DegenerateData):
            ForestRegressor().fit(np.full((4, 2), np.nan), y[:4])
    np.testing.assert_array_equal(fresh.predict(x), fitted.predict(x))


def test_a_scope_left_by_an_exception_grows_nothing(monkeypatch):
    growths = _count_growths(monkeypatch)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(40, 3))
    y = x[:, 0]
    dropped = ForestRegressor(n_trees=2, seed=1)
    with pytest.raises(KeyError):
        with grow_together():
            dropped.fit(x, y)
            raise KeyError("stop")
    assert growths == []
    assert dropped.nodes_ is None
    assert forest_module._GROW_QUEUE.get() is None
    # a later scope, and one inside it, grow only their own fits
    outer, inner = ForestRegressor(n_trees=2, seed=2), ForestRegressor(n_trees=2, seed=3)
    with grow_together():
        outer.fit(x, y)
        with grow_together():
            inner.fit(x, y)
        assert inner.nodes_ is not None and outer.nodes_ is None
    assert outer.nodes_ is not None and dropped.nodes_ is None
    assert growths == [2, 2]


def test_a_forest_of_no_trees_is_rejected_at_fit():
    # also no candidate features: before any tree grows, even on rows
    # that would split
    x = np.random.default_rng(0).normal(size=(30, 2))
    y = np.arange(30) % 2
    for model in (ForestRegressor, ForestClassifier):
        for params, features in (({"n_trees": 0}, x), ({"mtry": 0}, x), ({"mtry": -1}, x),
                                 ({}, x[:, :0])):
            with pytest.raises(DegenerateData):
                model(**params).fit(features, y)


@pytest.mark.parametrize(
    "model, bad",
    [(ForestRegressor, v) for v in (np.nan, np.inf, -np.inf)]
    + [(ForestClassifier, v) for v in (np.nan, np.inf, -np.inf, 1.5)],
)
def test_a_nonfinite_target_or_a_fractional_label_is_rejected_at_fit(model, bad):
    # before any cast or split search: no warning escapes
    x = np.random.default_rng(0).normal(size=(30, 2))
    y = (np.arange(30) % 2).astype(np.float64)
    y[7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateData):
            model(n_trees=2).fit(x, y)


def _choice_equivalence_cases():
    """(d, m) pairs around numpy's Floyd / tail-shuffle boundary."""
    for d in (1, 2, 10, 50, 9_999, 10_000, 10_001, 20_000):
        for m in sorted({1, 2, int(np.ceil(np.sqrt(d))), d // 50, d // 50 + 1, d}):
            if 1 <= m <= d:
                yield d, m


@pytest.mark.parametrize("d, m", list(_choice_equivalence_cases()))
def test_block_draws_equal_consecutive_choice_calls(monkeypatch, d, m):
    # two trees refilled together, twice: each block is the next
    # DRAW_BLOCK choice calls of the tree's generator, which ends in the
    # state those calls leave
    monkeypatch.setattr(forest_module, "DRAW_BLOCK", 3)
    trees = [_GrowingTree(np.random.default_rng(seed)) for seed in (0, 1)]
    references = [np.random.default_rng(seed) for seed in (0, 1)]
    for _ in range(2):
        _refill(trees, d, m)
        for tree, reference in zip(trees, references):
            want = [reference.choice(d, m, replace=False) for _ in range(3)]
            np.testing.assert_array_equal(np.asarray(tree.draws), want)
            assert tree.drawn == 0
            assert tree.rng.bit_generator.state == reference.bit_generator.state


@pytest.mark.parametrize("block", [1, 3])
def test_trees_do_not_depend_on_the_draw_block_size(monkeypatch, block):
    # a block of 1 refills before every node, a block of 3 in the middle
    # of a tree, and most trees end inside a block
    rng = np.random.default_rng(18)
    x = np.round(rng.normal(size=(120, 6)), 1)
    y = x[:, 0] - x[:, 1] + rng.normal(scale=0.3, size=120)
    labels = (x[:, 0] > 0) + (x[:, 2] > 0.5)
    w = rng.uniform(0.0, 2.0, size=120)

    def digests():
        regressor = ForestRegressor(n_trees=6, min_leaf=2, seed=4).fit(x, y)
        classifier = ForestClassifier(n_trees=6, mtry=2, seed=5, n_classes=3).fit(x, labels, w)
        return _forest_digest(regressor), _forest_digest(classifier)

    default = digests()
    monkeypatch.setattr(forest_module, "DRAW_BLOCK", block)
    assert digests() == default


def _leaf_payload(rows, y, w, n_classes):
    """One leaf's payload, computed alone: the reference for the batch."""
    w = w[rows]
    total = w.sum()
    if n_classes:
        hist = np.bincount(y[rows].astype(np.int64), weights=w, minlength=n_classes)
        if total > 0:
            return hist / total
        hist[:] = 1.0 / n_classes
        return hist
    if total > 0:
        return np.array([float((w * y[rows]).sum() / total)])
    return np.array([float(y[rows].mean())])


@st.composite
def _leaves(draw):
    """Samples of a few leaves, drawn with repeats from a pool of targets
    and weights; leaf sizes cross the lengths where numpy's pairwise sum
    changes shape (8, 128) and weights are often zero, signed zeros
    included."""
    n_classes = draw(st.sampled_from([0, 1, 2, 5]))
    pool = draw(st.integers(1, 40))
    if n_classes:
        y = draw(arrays(np.int64, pool, elements=st.integers(0, n_classes - 1)))
    else:
        y = draw(arrays(np.float64, pool, elements=st.floats(-1e6, 1e6, width=32)))
    w = draw(arrays(np.float64, pool, elements=st.sampled_from([0.0, -0.0, 0.1, 0.7, 1.0, 3e5])))
    lengths = st.sampled_from([1, 2, 5, 7, 8, 9, 16, 127, 128, 129, 300])
    sizes = draw(st.lists(lengths, min_size=1, max_size=8))
    samples = draw(arrays(np.int64, sum(sizes), elements=st.integers(0, pool - 1)))
    return samples, np.array(sizes), y, w, n_classes


@settings(max_examples=300, deadline=None)
@given(_leaves())
def test_batched_leaf_payloads_equal_one_leaf_at_a_time(leaves):
    samples, sizes, y, w, n_classes = leaves
    batch = _leaf_payloads(samples, sizes, y, w, n_classes)
    starts = np.cumsum(sizes) - sizes
    for row, start, size in zip(batch, starts, sizes):
        expected = _leaf_payload(samples[start : start + size], y, w, n_classes)
        assert row.tobytes() == expected.tobytes()


class TestForest:
    @pytest.mark.parametrize("model", [ForestRegressor, ForestClassifier])
    def test_prediction_rejects_another_feature_count(self, model):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 4))
        forest = model(n_trees=3, seed=0).fit(x, (x[:, 0] > 0).astype(np.int64))
        predicts = [forest.predict]
        if model is ForestClassifier:
            predicts.append(forest.predict_proba)
        for predict in predicts:
            for q in (np.zeros((2, 3)), np.zeros((2, 5)), np.zeros(4)):
                with pytest.raises(DegenerateData):
                    predict(q)

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


    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("model", [ForestRegressor, ForestClassifier])
    def test_nonfinite_sample_weights_raise(self, model, bad):
        w = np.ones(6)
        w[2] = bad
        with pytest.raises(DegenerateData):
            model(n_trees=2).fit(np.arange(6.0)[:, None], np.array([0, 1, 0, 1, 0, 1]), w)


class TestKnn:
    def test_k_bounds(self):
        index = KnnIndex().fit(np.zeros((4, 2)), np.arange(4))
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
        index = KnnIndex().fit(pts, np.arange(12))
        for i in range(len(pts)):
            assert index.query(pts[i : i + 1], 1)[0, 0] == i

    def test_a_tie_at_the_kth_place_goes_to_the_lower_row_id(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        index = KnnIndex().fit(pts, np.arange(5))
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
        order = np.argsort(ref_pairwise_sq_dists(x, pts), axis=1, kind="stable")
        index = KnnIndex().fit(pts, np.arange(n_points))
        for k in {1, int(rng.integers(1, n_points + 1)), n_points}:
            np.testing.assert_array_equal(index.query(x, k), order[:, :k])

    def test_query_rejects_nonfinite_features(self):
        index = KnnIndex().fit(np.zeros((4, 2)), np.arange(4))
        with pytest.raises(DegenerateData):
            index.query(np.array([[0.0, np.nan]]), 1)

    def test_query_rejects_another_feature_count(self):
        index = KnnIndex().fit(np.arange(20.0).reshape(4, 5), np.arange(4))
        for x in (np.zeros((2, 3)), np.zeros((2, 6)), np.zeros(5)):
            with pytest.raises(DegenerateData):
                index.query(x, 1)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 30), st.integers(1, 12))
    def test_a_bootstrap_index_answers_like_its_full_rows(self, seed, n_distinct, n_queries):
        rng = np.random.default_rng(seed)
        # grid positions, so that distances tie, also across the k-th place
        # (equal base rows keep their own ids, and stay apart)
        base = rng.integers(-1, 2, size=(n_distinct, 3)).astype(np.float64)
        ids = rng.integers(0, n_distinct, size=3 * n_distinct)
        rows = base[ids]
        x = rng.integers(-1, 2, size=(n_queries, 3)).astype(np.float64)
        order = np.argsort(ref_pairwise_sq_dists(x, rows), axis=1, kind="stable")
        index = KnnIndex().fit(rows, ids)
        assert index.n_points == rows.shape[0]
        assert index.inverse_ is not None  # 3n draws of at most n ids repeat
        assert index.points_.shape[0] == np.unique(ids).size
        with pytest.raises(KTooLarge):
            index.query(x, rows.shape[0] + 1)
        for k in {1, int(rng.integers(1, rows.shape[0] + 1)), rows.shape[0]}:
            np.testing.assert_array_equal(index.query(x, k), order[:, :k])

    def test_distinct_rows_are_kept_as_given(self):
        rows = np.arange(12.0).reshape(4, 3)
        index = KnnIndex().fit(rows, [7, 2, 5, 0])
        assert index.inverse_ is None
        np.testing.assert_array_equal(index.points_, rows)


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

    def test_nearest_rejects_another_feature_count(self):
        model = fit_kmeans(np.random.default_rng(5).normal(size=(20, 3)), 2, seed=0)
        for x in (np.zeros((2, 2)), np.zeros((2, 4)), np.zeros(3)):
            with pytest.raises(DegenerateData):
                model.nearest(x)

    def test_deterministic_under_seed(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(40, 2))
        a = fit_kmeans(x, 3, seed=9)
        b = fit_kmeans(x, 3, seed=9)
        np.testing.assert_array_equal(a.centroids, b.centroids)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 14), st.integers(1, 3), st.floats(0.0, 1.0), st.integers(0, 999))
    def test_reseeding_leaves_every_cluster_a_member(self, n, d, fraction, seed):
        rng = np.random.default_rng(seed)
        # few distinct rows, so that clusters empty and get reseeded
        x = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        _check_kmeans_model(fit_kmeans(x, 1 + int(fraction * (n - 1)), seed=seed))

    def test_a_one_member_cluster_does_not_donate_its_member(self):
        # an empty cluster used to take the only member of a one-member
        # cluster, which left that one empty and its centroid 0/0
        x = np.array([[1, 0], [1, 0], [1, 2], [1, 2], [0, 0], [2, 0], [1, 1],
                      [2, 2], [0, 0], [2, 2], [2, 2]], dtype=np.float64)
        _check_kmeans_model(fit_kmeans(x, 8, seed=93))


    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(("grid", "duplicated", "huge", "continuous")),
        st.integers(1, 40), st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**31 - 1),
    )
    @example("grid", 40, 12, 1, 0)  # d = 1
    @example("continuous", 30, 1, 4, 1)  # one centroid
    @example("huge", 25, 6, 3, 2)
    @example("duplicated", 40, 12, 2, 3)
    def test_nearest_centroid_equals_argmin_and_min_of_the_exact_kernel(
        self, kind, n, k, d, seed
    ):
        x, centroids = _nearest_inputs(kind, np.random.default_rng(seed), n, k, d)
        with np.errstate(over="ignore"):
            closest, sq_dists = _nearest_sq(x, squared_norms(x), centroids)
            want = ref_pairwise_sq_dists(x, centroids)
        want_closest = want.argmin(axis=1)
        np.testing.assert_array_equal(closest, want_closest)
        np.testing.assert_array_equal(
            sq_dists.view(np.uint64), want[np.arange(len(x)), want_closest].view(np.uint64)
        )

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(("grid", "continuous")), st.integers(1, 30),
        st.floats(0.0, 1.0), st.integers(1, 4), st.integers(0, 999),
    )
    @example("grid", 11, 0.7, 2, 93)
    def test_fit_equals_the_reference_lloyd_loop(self, kind, n, fraction, d, seed):
        rng = np.random.default_rng(seed)
        if kind == "grid":  # few distinct rows: ties, and empty clusters to reseed
            x = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        else:
            x = rng.normal(size=(n, d))
        _assert_same_model(fit_kmeans(x, 1 + int(fraction * (n - 1)), seed=seed),
                           _reference_fit_kmeans(x, 1 + int(fraction * (n - 1)), seed)[0])

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(("grid", "continuous")), st.integers(1, 30),
        st.floats(0.0, 1.0), st.integers(1, 4), st.integers(0, 999),
    )
    @example("grid", 11, 0.7, 2, 93)
    def test_seeding_returns_the_first_assignment(self, kind, n, fraction, d, seed):
        # the first Lloyd step takes its assignment from the seeding, so
        # that must be the argmin and min of the exact kernel, bit for bit
        rng = np.random.default_rng(seed)
        if kind == "grid":  # few distinct rows: ties among the centroids
            x = rng.integers(0, 3, size=(n, d)).astype(np.float64)
        else:
            x = rng.normal(size=(n, d))
        k = 1 + int(fraction * (n - 1))
        centroids, closest, sq_dists = kmeans_module._plus_plus_init(
            x, k, np.random.default_rng(seed))
        want = ref_pairwise_sq_dists(x, centroids)
        np.testing.assert_array_equal(closest, want.argmin(axis=1))
        np.testing.assert_array_equal(sq_dists.view(np.uint64), want.min(axis=1).view(np.uint64))

    def test_fit_equals_the_reference_lloyd_loop_through_a_reseed(self):
        x = np.array([[1, 0], [1, 0], [1, 2], [1, 2], [0, 0], [2, 0], [1, 1],
                      [2, 2], [0, 0], [2, 2], [2, 2]], dtype=np.float64)
        want, reseeds = _reference_fit_kmeans(x, 8, 93)
        assert reseeds > 0
        _assert_same_model(fit_kmeans(x, 8, seed=93), want)


def _nearest_inputs(kind, rng, n, k, d):
    """Rows and centroids on which the GEMM form and the exact kernel
    round differently or tie."""
    if kind == "grid":  # {0..3}-valued: many equal distances
        return (rng.integers(0, 4, size=(n, d)).astype(np.float64),
                rng.integers(0, 4, size=(k, d)).astype(np.float64))
    x = rng.normal(size=(n, d))
    if kind == "duplicated":  # centroids repeat, so every tie is exact
        centroids = rng.normal(size=(max(1, k // 2), d))[rng.integers(0, max(1, k // 2), size=k)]
        return np.vstack([x, centroids]), centroids
    centroids = rng.normal(size=(k, d))
    if kind == "huge":  # squares overflow from about 1e154: these rows take every candidate
        x *= 10.0 ** rng.uniform(150, 160, size=(n, 1))
    return x, centroids


def _reference_fit_kmeans(x, k, seed):
    """The Lloyd loop on the full exact distance matrix, and its count
    of reseeded clusters."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    n = x.shape[0]
    rng = np.random.default_rng(seed)
    centroids = kmeans_module._plus_plus_init(x, k, rng)[0]
    assignments = np.zeros(n, dtype=np.int64)
    inertia_history, reseeds = [], 0
    for _ in range(kmeans_module.MAX_ITERATIONS):
        dists = ref_pairwise_sq_dists(x, centroids)
        new_assign = np.argmin(dists, axis=1).astype(np.int64)
        inertia_history.append(float(dists[np.arange(n), new_assign].sum()))
        sums, counts = _kernels.kmeans_accumulate(x, new_assign, k)
        empty = counts == 0
        if empty.any():
            point_d = dists[np.arange(n), new_assign]
            for cluster in np.nonzero(empty)[0]:
                far = int(np.argmax(np.where(counts[new_assign] > 1, point_d, -1.0)))
                sums[new_assign[far]] -= x[far]
                counts[new_assign[far]] -= 1
                new_assign[far] = cluster
                sums[cluster] = x[far]
                counts[cluster] = 1
                reseeds += 1
        converged = len(inertia_history) > 1 and np.array_equal(new_assign, assignments)
        assignments = new_assign
        centroids = sums / counts[:, None]
        if converged:
            break
    dists = ref_pairwise_sq_dists(x, centroids)
    closest = np.argmin(dists, axis=1)
    model = KMeansModel(
        centroids=centroids,
        assignments=closest,
        train_distances=np.sqrt(dists[np.arange(n), closest]),
        inertia_history=inertia_history,
    )
    return model, reseeds


def _assert_same_model(got, want):
    for name in ("centroids", "assignments", "train_distances"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64), err_msg=name)
    assert got.inertia_history == want.inertia_history


def _check_kmeans_model(model):
    assert np.isfinite(model.centroids).all()
    assert np.isfinite(model.train_distances).all()
    # the final nearest-centroid assignment sends a tie to the lower
    # cluster, so a cluster without members shares a lower one's centroid
    members = np.bincount(model.assignments, minlength=model.n_clusters)
    for cluster in np.nonzero(members == 0)[0]:
        assert (model.centroids[:cluster] == model.centroids[cluster]).all(axis=1).any()


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


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([1, 2, 3, 8, 599, 600, 601, 1000]), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_column_medians_equal_nanmedian_bit_for_bit(n, d, seed):
    # numpy takes a masked-array path below 600 rows and a per-column one
    # from 600 on; signed zeros, infinities, NaN and all-NaN columns
    rng = np.random.default_rng(seed)
    special = [-0.0, 0.0, 1.0, -1.0, 2.5, -3.25, 1e300, np.inf, -np.inf, np.nan]
    x = rng.choice(special, size=(n, d))
    x = np.where(rng.random((n, d)) < rng.random(), rng.normal(size=(n, d)), x)
    x[:, 0] = rng.choice([np.nan, -0.0, 0.0])
    with warnings.catch_warnings():
        # all-NaN columns, and infinities in the preprocessor's scaling
        warnings.simplefilter("ignore", RuntimeWarning)
        want = np.nanmedian(x, axis=0)
        medians = Preprocessor().fit(x).medians_
    np.testing.assert_array_equal(column_medians(x).view(np.uint64), want.view(np.uint64))
    imputed = np.where(np.isnan(want), 0.0, want)
    np.testing.assert_array_equal(medians.view(np.uint64), imputed.view(np.uint64))


def test_variance_threshold_keeps_informative_columns():
    rng = np.random.default_rng(7)
    x = np.column_stack([rng.normal(size=30), np.full(30, 2.0)])
    keep = fit_variance_threshold(x, 0.16)
    assert keep.tolist() == [True, False]
    with pytest.raises(AllColumnsDropped):
        fit_variance_threshold(np.full((10, 2), 3.0), 0.16)
