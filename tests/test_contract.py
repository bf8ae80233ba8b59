"""The one scoring contract every model follows.

Selectors, ensembles and the meta level implement `_fit` and
`scores_batch` only; `Selector` derives `scores`, `select` and
`select_batch` from it. Feature-free models accept a missing feature
vector, feature-based ones refuse it.
"""

import numpy as np
import pytest

from metaselect import ensembles, meta, selectors
from metaselect.approaches import build_approach
from metaselect.errors import UnknownInstanceFeatures
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
    model, xs = fitted
    for x in xs[:4]:
        batch_scores = model.scores_batch(x[None])
        assert batch_scores.shape == (1, model.n_algorithms_)
        np.testing.assert_array_equal(model.scores(x), batch_scores[0])
        assert model.select(x) == model.select_batch(x[None])[0]
        assert model.select(x) == int(np.argmin(batch_scores[0]))


def test_missing_features_follow_needs_features(fitted):
    model, xs = fitted
    if model.needs_features:
        with pytest.raises(UnknownInstanceFeatures):
            model.select(None)
        with pytest.raises(UnknownInstanceFeatures):
            model.scores()
    else:
        assert isinstance(model.select(), int)
        assert model.select() == model.select(xs[0])
        np.testing.assert_array_equal(model.scores(), model.scores(xs[0]))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_models_implement_only_scores_batch():
    concrete = {cls for cls, _ in selectors._REGISTRY.values()} | {
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
