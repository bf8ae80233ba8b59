"""The one scoring contract every model follows.

Selectors, ensembles and the meta level implement `_fit` and
`scores_batch` only; `Selector` derives `select_batch` from it. There
is no single-row path, so two properties of `scores_batch` carry the
contract: a row scores the same alone as inside any batch (`ass` and
`shared_scores` slice one batch's scores for row subsets), and a model
that is charged no feature cost does not read the feature values.
"""

import numpy as np
import pytest

from metaselect import ensembles, meta, selectors
from metaselect.approaches import build_approach
from metaselect.synthetic import SyntheticConfig, generate_synthetic

SPECS = [
    "peralgo(trees=5)",
    "multiclass(trees=5)",
    "pairwise(trees=3)",
    "sunny(k=5)",
    "isac(clusters=3)",
    "sbs",
    "voting[borda]{sunny(k=5),peralgo(trees=5)}",
    "voting[wmaj]{sunny(k=5),isac(clusters=3),sbs;search=exhaustive}",
    "voting[maj]{sbs}",
    "bagging[mean]{sunny(k=5);k=3}",
    "bagging[maj]{sbs;k=2}",
    "boosting{multiclass(trees=5);iters=3}",
    "boosting{sbs;iters=2}",
    "stacking{meta=sunny(k=5);bases=sunny(k=5),sbs}",
    "ass{meta=multiclass(trees=5);bases=sunny(k=5),sbs}",
    "ass{meta=sbs;bases=sbs,sunny}",
    "ass{meta=sbs;bases=sbs}",
]


@pytest.fixture(scope="module", params=SPECS)
def fitted(request, toy):
    train, test = toy.fold_split(1)
    return build_approach(request.param, 0).fit(toy, train), toy.features[test]


def test_single_and_batch_paths_agree(fitted):
    # one row scored alone is byte-equal to its row of the full batch
    model, xs = fitted
    full = model.scores_batch(xs)
    assert full.shape == (len(xs), model.n_algorithms_)
    np.testing.assert_array_equal(model.select_batch(xs), np.argmin(full, axis=1))
    for i in range(len(xs)):
        assert model.scores_batch(xs[i : i + 1]).tobytes() == full[i : i + 1].tobytes()


def test_missing_features_follow_needs_features(fitted):
    # a model charged no feature cost scores unrelated feature rows
    # exactly as the real ones: it never reads a feature value
    model, xs = fitted
    if not model.needs_features:
        unrelated = np.random.default_rng(0).normal(size=xs.shape) * 1e3
        assert model.scores_batch(unrelated).tobytes() == model.scores_batch(xs).tobytes()


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_models_implement_only_scores_batch():
    concrete = set(selectors._REGISTRY.values()) | {
        ensembles.VotingEnsemble,
        ensembles.BaggingEnsemble,
        ensembles.BoostingEnsemble,
        ensembles.StackingEnsemble,
        meta.AlgorithmSelectorSelector,
    }
    for cls in concrete:
        assert cls.scores_batch is not selectors.Selector.scores_batch, cls.__name__
    for cls in concrete | set(_subclasses(selectors.Selector)):
        own = {"scores", "select", "select_batch"} & set(vars(cls))
        assert not own, f"{cls.__name__} defines {sorted(own)}"


ATOM_SPECS = [
    "peralgo(trees=4)",
    "multiclass(trees=4)",
    "pairwise(trees=2)",
    "sunny",
    "isac",
    "sbs",
]


def test_atom_specs_cover_every_atom():
    assert {selectors.parse_selector_spec(spec)[0] for spec in ATOM_SPECS} == set(
        selectors.SELECTOR_NAMES
    )


@pytest.mark.parametrize("spec", ATOM_SPECS)
def test_atom_scores_do_not_depend_on_the_batch(spec):
    # a row's scores must not change with the rows scored beside it, so
    # that scores of a row subset can be sliced from the full batch's;
    # 480 training rows put 68 query rows in each block of the distance
    # kernel, so the batches below straddle block boundaries differently
    scenario = generate_synthetic(
        SyntheticConfig(n_instances=600, n_algorithms=4, n_features=6, seed=3)
    )
    train, _ = scenario.fold_split(0)
    model = selectors.make_selector(spec, 0).fit(scenario, train)
    x = scenario.features
    full = model.scores_batch(x)
    rng = np.random.default_rng(4)
    for mask in (rng.random(len(x)) < 0.5, np.arange(len(x)) >= 37, np.arange(len(x)) == 5):
        assert model.scores_batch(x[mask]).tobytes() == full[mask].tobytes()
