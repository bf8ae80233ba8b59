import numpy as np
import pytest

from metaselect.errors import InconsistentScenario
from metaselect.scenario import PENALTY_FACTOR, ScenarioSpec


def small_scenario(**overrides):
    base = dict(
        name="hand",
        instances=["p", "q", "r"],
        algorithms=["a", "b"],
        cutoff=10.0,
        runtimes=[[1.0, 10.0], [10.0, 2.0], [3.0, 4.0]],
        solved=[[True, False], [False, True], [True, True]],
        features=[[0.0], [1.0], [2.0]],
        feature_costs=[0.5, 0.0, 0.25],
        folds=[1, 1, 2],
    )
    base.update(overrides)
    return ScenarioSpec.create(**base)


def test_pr10_matrix_penalizes_unsolved():
    sc = small_scenario()
    expected = np.array([[1.0, 100.0], [100.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(sc.pr10_matrix(), expected)
    assert PENALTY_FACTOR == 10.0


def test_pr10_matrix_is_a_view_of_frozen_truth():
    sc = small_scenario()
    m = sc.pr10_matrix()
    assert m is sc.pr10_matrix()  # computed once, at construction
    assert sc.with_features(np.zeros((3, 1))).pr10_matrix() is m
    with pytest.raises(ValueError):
        m[0, 0] = 99.0  # read-only, so scribbling on it cannot stick
    assert sc.pr10_matrix()[0, 0] == 1.0
    with pytest.raises(ValueError):
        sc.runtimes[0, 0] = 99.0


def test_fold_split_partitions():
    sc = small_scenario()
    assert sc.fold_ids() == [1, 2]
    train, test = sc.fold_split(2)
    assert train.tolist() == [0, 1] and test.tolist() == [2]


def test_with_features_swaps_matrix_only():
    sc = small_scenario()
    wide = sc.with_features(np.zeros((3, 5)))
    assert wide.n_features == 5
    np.testing.assert_array_equal(wide.runtimes, sc.runtimes)


@pytest.mark.parametrize(
    "overrides",
    [
        {"cutoff": -1.0},
        {"instances": ["p", "p", "r"]},
        {"algorithms": ["a", "a"]},
        {"runtimes": [[-1.0, 10.0], [10.0, 2.0], [3.0, 4.0]]},
        # solved run above cutoff
        {"runtimes": [[11.0, 10.0], [10.0, 2.0], [3.0, 4.0]]},
        # unsolved run not pinned to cutoff
        {"runtimes": [[1.0, 9.0], [10.0, 2.0], [3.0, 4.0]]},
        {"feature_costs": [-0.5, 0.0, 0.25]},
        # NaN runtime on a solved cell: it passes every comparison check
        {"runtimes": [[float("nan"), 10.0], [10.0, 2.0], [3.0, 4.0]]},
        {"cutoff": float("nan")},
        {"cutoff": float("inf")},
        {"feature_costs": [float("nan"), 0.0, 0.25]},
        {"feature_costs": [0.0, float("inf"), 0.25]},
    ],
)
def test_validation_rejects_inconsistencies(overrides):
    with pytest.raises(InconsistentScenario):
        small_scenario(**overrides)


def test_validate_false_skips_checks():
    sc = small_scenario(
        runtimes=[[1.0, 9.0], [10.0, 2.0], [3.0, 4.0]], validate=False
    )
    assert sc.runtimes[0, 1] == 9.0


def test_nan_features_stay_legal():
    sc = small_scenario(features=[[float("nan")], [1.0], [2.0]])
    assert np.isnan(sc.features[0, 0])

