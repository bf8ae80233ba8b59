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
        assert "scores_batch" in vars(cls), cls.__name__
    for cls in concrete | set(_subclasses(selectors.Selector)):
        own = {"scores", "select", "select_batch"} & set(vars(cls))
        assert not own, f"{cls.__name__} defines {sorted(own)}"
