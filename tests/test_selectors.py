import inspect
import warnings

import numpy as np
import pytest

from metaselect.errors import (
    DegenerateTraining,
    InvalidConfig,
    UnknownInstanceFeatures,
)
from metaselect import selectors
from metaselect.scenario import ScenarioSpec
from metaselect.selectors import (
    SELECTOR_NAMES,
    canonical_selector_spec,
    dummy_scores,
    isac_default_clusters,
    make_selector,
    parse_selector_spec,
)

ALL_SPECS = [
    "peralgo(trees=10)",
    "multiclass(trees=10)",
    "pairwise(trees=8)",
    "sunny(k=5)",
    "isac(clusters=3)",
    "sbs",
]


def hand_scenario(runtimes, features, cutoff=100.0, solved=None):
    runtimes = np.asarray(runtimes, dtype=float)
    n, k = runtimes.shape
    if solved is None:
        solved = runtimes < cutoff
    return ScenarioSpec.create(
        name="hand",
        instances=[f"i{j}" for j in range(n)],
        algorithms=[f"a{j}" for j in range(k)],
        cutoff=cutoff,
        runtimes=np.where(solved, runtimes, cutoff),
        solved=solved,
        features=features,
    )


# -- spec strings ----------------------------------------------------------


def test_registry_contents():
    assert SELECTOR_NAMES == ("isac", "multiclass", "pairwise", "peralgo", "sbs", "sunny")


@pytest.mark.parametrize(
    "raw,canonical",
    [
        ("sbs", "sbs"),
        ("SUNNY", "sunny"),
        ("peralgo()", "peralgo"),
        ("PerAlgo( trees = 20 )", "peralgo(trees=20)"),
        ("peralgo(minleaf=2, trees=20)", "peralgo(minleaf=2,trees=20)"),
        ("sunny(k=7)", "sunny(k=7)"),
    ],
)
def test_canonicalization(raw, canonical):
    assert canonical_selector_spec(raw) == canonical
    assert canonical_selector_spec(canonical) == canonical  # idempotent


@pytest.mark.parametrize(
    "raw",
    [
        "wat",
        "sunny(q=3)",
        "sunny(k=3,k=4)",
        "sunny(k=abc)",
        "sunny(3)",
        "péralgo",
    ],
)
def test_bad_specs_rejected(raw):
    with pytest.raises(InvalidConfig):
        parse_selector_spec(raw)


def test_parse_returns_typed_params():
    name, params = parse_selector_spec("PerAlgo(Trees=10, minleaf = 3,seed=2)")
    assert name == "peralgo"
    assert params == {"trees": 10, "minleaf": 3, "seed": 2}
    assert all(type(v) is int for v in params.values())
    # the keys are the constructor's keyword parameters, and `seed` for
    # the feature-based selectors
    for name in SELECTOR_NAMES:
        cls = selectors._REGISTRY[name]
        keys = set(inspect.signature(cls).parameters) - {"spec", "entropy"}
        if name != "sbs":
            keys.add("seed")
        for key in keys:
            assert parse_selector_spec(f"{name}({key}=1)") == (name, {key: 1})


FOREST_ATOMS = ("peralgo", "multiclass", "pairwise")
FEATURE_ATOMS = (*FOREST_ATOMS, "sunny", "isac")

# raw atom -> canonical string, or InvalidConfig
ATOM_TABLE = [
    # case, whitespace and parameter order
    ("sbs", "sbs"),
    ("SBS", "sbs"),
    (" sunny ", "sunny"),
    ("Sunny(K=7)", "sunny(k=7)"),
    ("sunny ( k = 7 )", "sunny(k=7)"),
    ("sunny(k=1 6)", "sunny(k=16)"),
    ("pera lgo(tr ees=3)", "peralgo(trees=3)"),
    ("sunny(\tk=7\n)", "sunny(k=7)"),
    ("peralgo(trees=3,depth=2)", "peralgo(depth=2,trees=3)"),
    (
        "PERALGO(seed=6,mtry=2,trees=3,minleaf=4,depth=5)",
        "peralgo(depth=5,minleaf=4,mtry=2,seed=6,trees=3)",
    ),
    ("multiclass(trees=+3)", "multiclass(trees=3)"),
    ("isac(clusters=02)", "isac(clusters=2)"),
    # empty and malformed bodies
    ("peralgo()", "peralgo"),
    ("sbs()", "sbs"),
    ("peralgo(,)", InvalidConfig),
    ("peralgo(trees=3,)", InvalidConfig),
    ("sunny(k=)", InvalidConfig),
    ("sunny(=3)", InvalidConfig),
    ("sunny(3)", InvalidConfig),
    ("sunny(k==3)", InvalidConfig),
    ("sunny(k=3", InvalidConfig),
    ("sunny(k=3))", InvalidConfig),
    ("sunny(k=3)x", InvalidConfig),
    ("sunny(k=(3))", InvalidConfig),
    ("sunny(k=1.5)", InvalidConfig),
    ("sunny(k=abc)", InvalidConfig),
    ("", InvalidConfig),
    ("(k=3)", InvalidConfig),
    ("oracle", InvalidConfig),
    ("voting{sbs}", InvalidConfig),
    # duplicate and unknown keys
    ("sunny(k=3,k=4)", InvalidConfig),
    ("sunny(k=3,K=4)", InvalidConfig),
    ("peralgo(seed=1,seed=1)", InvalidConfig),
    ("sunny(q=3)", InvalidConfig),
    ("sunny(trees=3)", InvalidConfig),
    ("isac(k=3)", InvalidConfig),
    ("peralgo(clusters=3)", InvalidConfig),
    ("sbs(trees=1)", InvalidConfig),
    # seed on each atom
    *[(f"{name}(seed=0)", f"{name}(seed=0)") for name in FEATURE_ATOMS],
    *[(f"{name}(seed=7)", f"{name}(seed=7)") for name in FEATURE_ATOMS],
    *[(f"{name}(seed=-1)", InvalidConfig) for name in FEATURE_ATOMS],
    ("sbs(seed=1)", InvalidConfig),
    # range rules: every atom value at least 1, seed at least 0
    ("sunny(k=1)", "sunny(k=1)"),
    ("sunny(k=0)", InvalidConfig),
    ("sunny(k=-2)", InvalidConfig),
    ("isac(clusters=1)", "isac(clusters=1)"),
    ("isac(clusters=0)", InvalidConfig),
    *[
        (f"{name}({key}={value})", f"{name}({key}={value})" if value >= 1 else InvalidConfig)
        for name in FOREST_ATOMS
        for key in ("trees", "mtry", "depth", "minleaf")
        for value in (1, 0, -7)
    ],
]


@pytest.mark.parametrize("raw,expected", ATOM_TABLE)
def test_atom_reader(raw, expected):
    if expected is InvalidConfig:
        with pytest.raises(InvalidConfig):
            canonical_selector_spec(raw)
    else:
        assert canonical_selector_spec(raw) == expected
        assert canonical_selector_spec(expected) == expected


# -- shared behaviour ------------------------------------------------------


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_fit_predict_shapes_and_determinism(toy, spec):
    train, test = toy.fold_split(1)
    xs = toy.features[test]
    a = make_selector(spec, 42).fit(toy, train)
    rows = a.scores_batch(xs)
    assert rows.shape == (len(test), toy.n_algorithms)
    choices = a.select_batch(xs)
    assert choices.min() >= 0 and choices.max() < toy.n_algorithms
    np.testing.assert_array_equal(choices, np.argmin(rows, axis=1))

    b = make_selector(spec, 42).fit(toy, train)
    np.testing.assert_array_equal(rows, b.scores_batch(xs))


@pytest.mark.parametrize("spec", ["peralgo(trees=10)", "multiclass(trees=10)"])
def test_global_seed_changes_the_model(toy, spec):
    train, test = toy.fold_split(1)
    xs = toy.features[test]
    a = make_selector(spec, 1).fit(toy, train).scores_batch(xs)
    b = make_selector(spec, 2).fit(toy, train).scores_batch(xs)
    assert not np.array_equal(a, b)


def test_explicit_seed_param_decouples_from_global(toy):
    train, test = toy.fold_split(1)
    xs = toy.features[test]
    base = make_selector("peralgo(trees=10)", 3).fit(toy, train).scores_batch(xs)
    reseeded = make_selector("peralgo(seed=9,trees=10)", 3).fit(toy, train).scores_batch(xs)
    assert not np.array_equal(base, reseeded)


def test_salt_decorrelates_copies(toy):
    train, test = toy.fold_split(1)
    xs = toy.features[test]
    plain = make_selector("multiclass(trees=10)", 0).fit(toy, train).scores_batch(xs)
    salted = make_selector("multiclass(trees=10)", 0, salt=(1,)).fit(toy, train).scores_batch(xs)
    assert not np.array_equal(plain, salted)


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_empty_training_set_raises(toy, spec):
    with pytest.raises(DegenerateTraining):
        make_selector(spec, 0).fit(toy, np.array([], dtype=int))


@pytest.mark.parametrize("spec", [s for s in ALL_SPECS if s != "sbs"])
def test_feature_based_selectors_need_a_vector(toy, spec):
    model = make_selector(spec, 0).fit(toy, toy.fold_split(1)[0])
    assert model.needs_features
    with pytest.raises(UnknownInstanceFeatures):
        model.select(None)


# -- per-family specifics --------------------------------------------------


def test_sbs_is_feature_free(toy):
    train, _ = toy.fold_split(1)
    model = make_selector("sbs", 0).fit(toy, train)
    assert not model.needs_features
    assert model.select() == model.algorithm_
    np.testing.assert_array_equal(
        model.scores(), dummy_scores(toy.n_algorithms, model.algorithm_)
    )
    assert model.scores_batch(np.zeros((4, 3))).shape == (4, toy.n_algorithms)


def test_sunny_scores_are_neighbor_means():
    sc = hand_scenario(
        runtimes=[[1.0, 9.0], [3.0, 7.0], [8.0, 2.0], [9.0, 1.0]],
        features=[[0.0], [1.0], [10.0], [11.0]],
    )
    model = make_selector("sunny(k=2)", 0).fit(sc, np.arange(4))
    # query near the first pair: neighbors are rows 0 and 1
    np.testing.assert_allclose(model.scores(np.array([0.4])), [2.0, 8.0])
    # query near the second pair
    np.testing.assert_allclose(model.scores(np.array([10.6])), [8.5, 1.5])


def test_sunny_clamps_k_to_training_size():
    sc = hand_scenario(
        runtimes=[[1.0, 9.0], [3.0, 7.0]], features=[[0.0], [1.0]]
    )
    model = make_selector("sunny(k=50)", 0).fit(sc, np.arange(2))
    assert model.k_effective_ == 2


def test_sunny_rejects_nonpositive_k():
    sc = hand_scenario(runtimes=[[1.0, 2.0]], features=[[0.0]])
    with pytest.raises(InvalidConfig):
        make_selector("sunny(k=0)", 0).fit(sc, np.arange(1))


def test_isac_far_query_falls_back_to_single_best():
    rng = np.random.default_rng(0)
    runtimes = np.tile([5.0, 1.0], (20, 1)) + rng.uniform(0, 0.1, size=(20, 2))
    sc = hand_scenario(runtimes=runtimes, features=rng.normal(size=(20, 2)))
    model = make_selector("isac(clusters=2)", 0).fit(sc, np.arange(20))
    assert model.fallback_ == 1
    far = model.scores(np.array([1e6, 1e6]))
    np.testing.assert_array_equal(far, dummy_scores(2, 1))


def test_isac_empty_cluster_backs_the_single_best():
    # coinciding centroids leave k-means clusters without members; each
    # such cluster takes the no-evidence row, not the mean of no rows
    x = np.array([[1, 0], [1, 0], [1, 2], [1, 2], [0, 0], [2, 0], [1, 1],
                  [2, 2], [0, 0], [2, 2], [2, 2]], dtype=np.float64)
    runtimes = np.random.default_rng(0).uniform(1.0, 50.0, size=(11, 3))
    sc = hand_scenario(runtimes=runtimes, features=x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = make_selector("isac(clusters=11)", 0).fit(sc, np.arange(11))
    members = np.bincount(model.model_.assignments, minlength=model.model_.n_clusters)
    assert (members == 0).any()
    assert np.isfinite(model.cluster_scores_).all()
    for cluster in np.nonzero(members == 0)[0]:
        np.testing.assert_array_equal(
            model.cluster_scores_[cluster], dummy_scores(3, model.fallback_)
        )


def test_isac_default_cluster_count():
    assert isac_default_clusters(8) == 2
    assert isac_default_clusters(50) == 5
    assert isac_default_clusters(5000) == 10


def test_pairwise_survives_fully_tied_pairs():
    # equal runtime columns: every misranking weight is zero
    sc = hand_scenario(
        runtimes=np.tile([4.0, 4.0], (6, 1)),
        features=np.arange(6, dtype=float)[:, None],
    )
    model = make_selector("pairwise(trees=5)", 0).fit(sc, np.arange(6))
    out = model.scores(np.array([2.5]))
    assert out.shape == (2,) and np.isfinite(out).all()


def test_repr_mentions_spec(toy):
    model = make_selector("sunny(k=3)", 0)
    assert "sunny(k=3)" in repr(model)


def test_registered_stub_atoms_take_no_seed():
    from stubs import registered_stubs

    with registered_stubs():
        assert canonical_selector_spec("HalfPos()") == "halfpos"
        with pytest.raises(InvalidConfig):
            canonical_selector_spec("halfpos(seed=1)")
    with pytest.raises(InvalidConfig):
        canonical_selector_spec("halfpos")
