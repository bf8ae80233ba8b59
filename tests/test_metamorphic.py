"""Metamorphic relations of a whole run: a change of the scenario that
must not move any score; and of the forest grower: a change of the
sample weights that must not move any tree."""

from dataclasses import replace

import numpy as np
import pytest

from metaselect.config import ExperimentConfig
from metaselect.learners import ForestClassifier, ForestRegressor, fit_forests, grow_together
from metaselect.metrics import SelectionTrace, trace_par10
from metaselect.report import report_to_dict
from metaselect.runner import run_config, run_experiment
from metaselect.scenario import ScenarioSpec

# Forest selectors are left out: adding an algorithm reseeds their
# pairs and forests, so their scores may move legitimately. So is every
# `mean` aggregation: it min-max scales each member's scores over the
# algorithms, so an algorithm that always times out stretches the range
# and can move a vote.
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


def tie_free_scenario(seed, n=40, k=5, n_folds=4, cutoff=1000):
    """A scenario of integer runtimes, feature costs and penalties, so
    that every mean is exact in any order, with no tie for an oracle
    choice or for any fold's single best algorithm. About a third of
    the instances have one algorithm that times out."""
    rng = np.random.default_rng(seed)
    runtimes = np.stack([rng.choice(np.arange(1, cutoff), size=k, replace=False) for _ in range(n)])
    solved = np.ones((n, k), dtype=bool)
    timeouts = rng.random(n) < 1 / 3
    solved[timeouts, rng.integers(0, k, size=n)[timeouts]] = False
    scenario = ScenarioSpec.create(
        name="tie-free",
        instances=[f"case-{i:03d}" for i in range(n)],
        algorithms=[f"solver-{j}" for j in range(k)],
        cutoff=float(cutoff),
        runtimes=np.where(solved, runtimes, cutoff),
        solved=solved,
        features=rng.normal(size=(n, 3)),
        feature_costs=rng.integers(0, 20, size=n),
        folds=rng.permutation(np.arange(n) % n_folds) + 1,
    )
    pr10 = scenario.pr10_matrix()
    assert all(len(set(row)) == k for row in pr10.tolist())
    for fold in scenario.fold_ids():
        train, _ = scenario.fold_split(fold)
        assert len(set(pr10[train].sum(axis=0).tolist())) == k
    return scenario


def permuted(scenario: ScenarioSpec, algorithms=None, instances=None) -> ScenarioSpec:
    """`scenario` with its algorithms, or its instance rows together with
    their folds, in the given order of old positions."""
    a = slice(None) if algorithms is None else np.asarray(algorithms)
    i = slice(None) if instances is None else np.asarray(instances)
    return ScenarioSpec.create(
        name=scenario.name,
        instances=np.array(scenario.instances)[i],
        algorithms=np.array(scenario.algorithms)[a],
        cutoff=scenario.cutoff,
        runtimes=scenario.runtimes[i][:, a],
        solved=scenario.solved[i][:, a],
        features=scenario.features[i],
        feature_costs=scenario.feature_costs[i],
        folds=scenario.folds[i],
    )


def fixed_choice_par10s(scenario, choices, rows=None, algorithm_at=None):
    """Per fold, the PAR10, feature costs included, of choosing algorithm
    `choices[i]` on each test instance i of an original scenario, of
    which `scenario` may be a permuted copy: its row p is original
    instance `rows[p]`, and original algorithm a is its `algorithm_at[a]`."""
    values = []
    for fold in scenario.fold_ids():
        _, test = scenario.fold_split(fold)
        chosen = choices[test if rows is None else rows[test]]
        if algorithm_at is not None:
            chosen = algorithm_at[chosen]
        values.append(trace_par10(scenario, SelectionTrace(test, chosen)))
    return values


BASELINE_CONFIG = ExperimentConfig(approaches=("oracle", "sbs"), seed=0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permuting_the_algorithms_changes_no_baseline(seed):
    scenario = tie_free_scenario(seed)
    rng = np.random.default_rng(100 + seed)
    order = rng.permutation(scenario.n_algorithms)
    assert not np.array_equal(order, np.arange(scenario.n_algorithms))
    copy = permuted(scenario, algorithms=order)
    before, _ = run_experiment(BASELINE_CONFIG, scenario)
    after, _ = run_experiment(BASELINE_CONFIG, copy)
    assert after.cells == before.cells
    assert after.baselines == before.baselines  # each fold's oracle and SBS PAR10, SBS name
    choices = rng.integers(0, scenario.n_algorithms, size=scenario.n_instances)
    assert fixed_choice_par10s(copy, choices, algorithm_at=np.argsort(order)) == (
        fixed_choice_par10s(scenario, choices)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_permuting_the_instance_rows_with_their_folds_changes_no_baseline(seed):
    scenario = tie_free_scenario(seed)
    rng = np.random.default_rng(200 + seed)
    order = rng.permutation(scenario.n_instances)
    copy = permuted(scenario, instances=order)
    assert not np.array_equal(copy.folds, scenario.folds)
    before, _ = run_experiment(BASELINE_CONFIG, scenario)
    after, _ = run_experiment(BASELINE_CONFIG, copy)
    assert after.cells == before.cells
    assert after.baselines == before.baselines
    choices = rng.integers(0, scenario.n_algorithms, size=scenario.n_instances)
    assert fixed_choice_par10s(copy, choices, rows=order) == (
        fixed_choice_par10s(scenario, choices)
    )


# Every family over shared members: the fold memo hands each of them
# the same fits, scores and neighbour rankings of sunny, isac and
# multiclass, and ass's deployed bases are those fits too. Every
# feature-based fit on the fold's training rows, the bags' and ass's
# inner fits on theirs, shares one fitted preprocessor per row set.
MEMO_APPROACHES = (
    "oracle",
    "sbs",
    "sunny",
    "sunny(k=4)",
    "isac",
    "multiclass(trees=4)",
    "voting[maj]{sunny,isac,multiclass(trees=4);search=exhaustive}",
    "voting[wmaj]{sunny,isac,multiclass(trees=4);search=exhaustive}",
    "voting[borda]{sunny,isac,multiclass(trees=4);search=exhaustive}",
    "bagging{sunny;k=3}",
    "bagging[mean]{sunny;k=3}",
    "boosting{multiclass(trees=4);iters=3}",
    "stacking{meta=sunny;bases=sunny,isac}",
    "ass{meta=multiclass(trees=4);bases=sunny,isac,sbs}",
    "ass{meta=sunny;bases=sunny,isac}",
)
MEMO_SWEEP = (("sunny", "sunny(k=4)", "isac", "multiclass(trees=4)"), "borda")


def cells_by_key(report):
    return {(c.approach, c.fold): c for c in report.cells}


@pytest.mark.parametrize("source", ["toy", "tie-free"])
def test_the_fold_memo_changes_no_cell_and_no_sweep_row(toy, source):
    scenario = toy if source == "toy" else tie_free_scenario(3)

    def run(approaches, sweeps=()):
        config = ExperimentConfig(approaches=tuple(approaches), sweeps=sweeps, seed=2)
        report, _, sweep_reports = run_config(config, scenario)
        return report, sweep_reports

    full, (sweep,) = run(MEMO_APPROACHES, (MEMO_SWEEP,))
    assert all(c.error is None for c in full.cells) and not sweep.errors
    cells = cells_by_key(full)
    order = np.random.default_rng(7).permutation(len(MEMO_APPROACHES))
    shuffled, (shuffled_sweep,) = run([MEMO_APPROACHES[i] for i in order], (MEMO_SWEEP,))
    assert cells_by_key(shuffled) == cells
    assert shuffled_sweep == sweep
    for approach in full.approaches:
        alone, _ = run([approach])
        assert cells_by_key(alone) == {k: c for k, c in cells.items() if k[0] == approach}
    _, (sweep_alone,) = run((), (MEMO_SWEEP,))
    assert sweep_alone.rows == sweep.rows


def weight_scaling_fits(scale):
    """(forest, rows, y, weights) of forests of several shapes on one
    tie-heavy matrix, every weight times `scale`: a regressor, a
    weighted 2-class classifier, an unweighted one that shares its
    growths, unweighted 5- and 31-class classifiers and an unweighted
    classifier with min_leaf 3. The matrix has three integer values per
    column and every feature row twice, the copies labelled apart."""
    rng = np.random.default_rng(23)
    half = rng.integers(0, 3, size=(40, 5)).astype(np.float64)
    x = np.concatenate([half, half])
    n = x.shape[0]
    rows = np.sort(rng.choice(n, size=50, replace=False))
    ones = np.ones(n)
    specs = [
        (ForestRegressor, {"min_leaf": 1}, None, rng.normal(size=n), ones),
        (ForestClassifier, {"n_classes": 2}, None, rng.integers(0, 2, n), rng.uniform(0.5, 2, n)),
        (ForestClassifier, {"n_classes": 2}, rows, rng.integers(0, 2, rows.size), ones[rows]),
        (ForestClassifier, {"n_classes": 5}, None, rng.integers(0, 5, n), ones),
        (ForestClassifier, {"n_classes": 31}, rows, rng.integers(0, 31, rows.size), ones[rows]),
        (ForestClassifier, {"min_leaf": 3}, None, rng.integers(0, 4, n), ones),
    ]
    fits = [
        (model(n_trees=6, mtry=2, seed=seed, **params), fit_rows, y, w * scale)
        for seed, (model, params, fit_rows, y, w) in enumerate(specs)
    ]
    return x, fits


def forest_bits(forest):
    nodes = forest.nodes_
    arrays = (nodes.feature, nodes.threshold, nodes.left, nodes.right, nodes.payload, forest.roots_)
    return [a.tobytes() for a in arrays]


@pytest.mark.parametrize("together", ["one call", "one scope"])
def test_halving_every_sample_weight_changes_no_tree(together):
    # every prefix sum and payload ratio scales exactly by a power of
    # two; with weights 1 the unweighted min_leaf-1 classifiers grow on
    # their distinct bootstrap rows, with 0.5 on every drawn row
    grown = []
    for scale in (1.0, 0.5):
        x, fits = weight_scaling_fits(scale)
        if together == "one call":
            fit_forests(x, fits)
        else:
            with grow_together():
                for fit in fits:
                    fit_forests(x, [fit])
        grown.append([forest_bits(forest) for forest, *_ in fits])
    whole, halved = grown
    for i, (a, b) in enumerate(zip(whole, halved)):
        assert a == b, f"fit {i}"
