import numpy as np
import pytest

from metaselect.errors import InvalidConfig
from metaselect.synthetic import RULES, SyntheticConfig, _planted_best, generate_synthetic


def test_defaults_generate_valid_scenario(make_synthetic):
    sc = make_synthetic()
    assert sc.n_instances == 60 and sc.n_algorithms == 3 and sc.n_features == 4
    assert sc.fold_ids() == [1, 2, 3, 4, 5]
    # create(validate=True) already ran; spot-check the invariants anyway
    assert np.all(sc.runtimes[~sc.solved] == sc.cutoff)
    assert np.all(sc.runtimes[sc.solved] <= sc.cutoff)


def test_same_seed_same_scenario(make_synthetic):
    a = make_synthetic(seed=11)
    b = make_synthetic(seed=11)
    np.testing.assert_array_equal(a.runtimes, b.runtimes)
    np.testing.assert_array_equal(a.features, b.features)
    assert a.name == b.name


def test_different_seeds_differ(make_synthetic):
    a = make_synthetic(seed=1)
    b = make_synthetic(seed=2)
    assert not np.array_equal(a.features, b.features)


def test_planted_rule_makes_winner_fastest(make_synthetic):
    sc = make_synthetic(n_instances=80, unsolved_rate=0.0, seed=3)
    best = _planted_best(sc.features, sc.n_algorithms)
    np.testing.assert_array_equal(np.argmin(sc.runtimes, axis=1), best)
    # the winner is always solved
    assert np.all(sc.solved[np.arange(sc.n_instances), best])


def test_feature_cost_applies_uniformly(make_synthetic):
    sc = make_synthetic(feature_cost=0.25)
    assert np.all(sc.feature_costs == 0.25)


def test_uniform_rule_accepted():
    assert "uniform" in RULES
    sc = generate_synthetic(SyntheticConfig(rule="uniform", n_instances=20, seed=5))
    assert sc.n_instances == 20


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_instances": 0},
        {"n_algorithms": 1},
        {"n_features": 0},
        {"n_folds": 0},
        {"n_folds": 61},
        {"cutoff": 0.0},
        {"rule": "magic"},
        {"unsolved_rate": 1.5},
        {"feature_cost": -0.1},
        {"cutoff": float("nan")},
        {"cutoff": float("inf")},
        {"feature_cost": float("nan")},
        {"feature_cost": float("inf")},
        {"seed": -1},
    ],
)
def test_bad_config_rejected(kwargs):
    with pytest.raises(InvalidConfig):
        SyntheticConfig(**kwargs).validate()


def test_negative_seed_rejected_before_generating():
    with pytest.raises(InvalidConfig, match="seed"):
        generate_synthetic(SyntheticConfig(seed=-1))
