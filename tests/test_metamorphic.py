"""Metamorphic relations of a whole run: a change of the scenario that
must not move any score."""

from dataclasses import replace

import numpy as np
import pytest

from metaselect.config import ExperimentConfig
from metaselect.report import report_to_dict
from metaselect.runner import run_experiment
from metaselect.scenario import ScenarioSpec

# Forest selectors are left out: adding an algorithm reseeds their
# pairs and forests, so their scores may move legitimately.
APPROACHES = (
    "oracle",
    "sbs",
    "sunny",
    "isac",
    "voting[maj]{sunny,isac}",
    "bagging{sunny;k=3}",
)


def with_timeout_algorithm(scenario: ScenarioSpec) -> ScenarioSpec:
    """`scenario` plus one last algorithm that times out on every instance."""
    n = scenario.n_instances
    return ScenarioSpec.create(
        name=scenario.name,
        instances=scenario.instances,
        algorithms=(*scenario.algorithms, "always_timeout"),
        cutoff=scenario.cutoff,
        runtimes=np.column_stack([scenario.runtimes, np.full(n, scenario.cutoff)]),
        solved=np.column_stack([scenario.solved, np.zeros(n, dtype=bool)]),
        features=scenario.features,
        feature_costs=scenario.feature_costs,
        folds=scenario.folds,
    )


@pytest.mark.parametrize("source", ["toy", "synthetic"])
def test_an_algorithm_that_always_times_out_changes_no_score(toy, make_synthetic, source):
    if source == "toy":
        scenario = toy
    else:
        scenario = make_synthetic(n_instances=40, n_algorithms=4, n_features=3, n_folds=4, seed=9)
    config = ExperimentConfig(approaches=APPROACHES, seed=5)
    before, _ = run_experiment(config, scenario)
    after, _ = run_experiment(config, with_timeout_algorithm(scenario))
    assert after.n_algorithms == before.n_algorithms + 1
    assert after.cells == before.cells
    assert after.baselines == before.baselines
    expected = report_to_dict(before)
    expected["scenario"]["n_algorithms"] += 1
    assert report_to_dict(after) == expected
    assert all(cell.error is None for cell in after.cells)


# Renaming moves no random stream, so forests, boosting, stacking and
# the meta level are covered too.
RENAMING_APPROACHES = (
    *APPROACHES,
    "multiclass(trees=5)",
    "peralgo(trees=5)",
    "pairwise(trees=3)",
    "boosting{multiclass(trees=5);iters=3}",
    "stacking{meta=multiclass(trees=5);bases=sunny,sbs}",
    "ass{meta=sbs;bases=sunny,isac,sbs}",
)


def renamed(scenario: ScenarioSpec) -> tuple[ScenarioSpec, dict[str, str]]:
    """`scenario` with every instance and algorithm renamed, the new
    names sorting in the reverse order of the old, and the algorithm
    renaming."""
    n, k = scenario.n_instances, len(scenario.algorithms)
    algorithms = {a: f"solver-{k - j:03d}" for j, a in enumerate(scenario.algorithms)}
    copy = ScenarioSpec.create(
        name=scenario.name,
        instances=[f"case-{n - i:05d}" for i in range(n)],
        algorithms=[algorithms[a] for a in scenario.algorithms],
        cutoff=scenario.cutoff,
        runtimes=scenario.runtimes,
        solved=scenario.solved,
        features=scenario.features,
        feature_costs=scenario.feature_costs,
        folds=scenario.folds,
    )
    return copy, algorithms


@pytest.mark.parametrize("source", ["toy", "synthetic"])
def test_renaming_every_instance_and_algorithm_changes_no_score(toy, make_synthetic, source):
    if source == "toy":
        scenario = toy
    else:
        scenario = make_synthetic(n_instances=40, feature_cost=2.0, seed=4)
    copy, algorithms = renamed(scenario)
    assert not set(copy.instances) & set(scenario.instances)
    config = ExperimentConfig(approaches=RENAMING_APPROACHES, seed=3)
    before, _ = run_experiment(config, scenario)
    after, _ = run_experiment(config, copy)
    assert after.cells == before.cells
    assert after.summary == before.summary
    assert after.baselines == tuple(
        replace(b, sbs_algorithm=algorithms[b.sbs_algorithm]) for b in before.baselines
    )
    assert all(cell.error is None for cell in after.cells)
