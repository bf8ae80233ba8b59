"""Selector-of-selectors: the derived scenario and the two-level model.

The brute-force check rebuilds the inner-CV performance matrix with an
independent loop (fresh fold assignment from the same entropy recipe,
fresh salted members) and demands cell-exact agreement.
"""

import zlib

import numpy as np
import pytest

from metaselect.config import ExperimentConfig
from metaselect.errors import DegenerateData, DegenerateTraining, EmptyEnsemble, InvalidConfig
from metaselect.meta import (
    DEFAULT_INNER_FOLDS,
    AlgorithmSelectorSelector,
    build_meta_scenario,
)
from metaselect.metrics import oracle_par10
from metaselect.report import canonical_json
from metaselect.runner import run_experiment
from metaselect.scenario import ScenarioSpec
from metaselect.selectors import MulticlassSelector, Selector, SunnySelector, make_selector

SPECS = ["sunny(k=5)", "sbs"]


def test_specs_are_canonicalized_and_required():
    sc = _tiny(12)
    meta = build_meta_scenario(sc, np.arange(12), ["SUNNY(k=5)", "sbs"])
    assert meta.scenario.algorithms == ("sunny(k=5)", "sbs")
    with pytest.raises(EmptyEnsemble):
        build_meta_scenario(sc, np.arange(12), [])
    with pytest.raises(InvalidConfig):
        build_meta_scenario(sc, np.arange(12), SPECS, inner_folds=1)
    with pytest.raises(DegenerateTraining):
        build_meta_scenario(sc, np.arange(2), SPECS, inner_folds=3)


def _tiny(n, seed=0):
    rng = np.random.default_rng(seed)
    runtimes = rng.uniform(1.0, 60.0, size=(n, 3))
    return ScenarioSpec.create(
        name="tiny",
        instances=[f"i{j}" for j in range(n)],
        algorithms=["a0", "a1", "a2"],
        cutoff=100.0,
        runtimes=runtimes,
        solved=np.ones((n, 3), dtype=bool),
        features=rng.normal(size=(n, 2)),
        feature_costs=rng.uniform(0.0, 0.5, size=n),
    )


def test_matrix_matches_independent_inner_cv(toy):
    train, _ = toy.fold_split(1)
    folds = 3
    meta = build_meta_scenario(toy, train, SPECS, inner_folds=folds, global_seed=9)

    # independent recomputation of the fold assignment and every cell
    entropy = [9, zlib.crc32(",".join(meta.scenario.algorithms).encode())]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    assignment = np.empty(train.size, dtype=np.int64)
    for pos, idx in enumerate(rng.permutation(train.size)):
        assignment[idx] = pos % folds

    pr10 = toy.pr10_matrix()
    for fold in range(folds):
        held = assignment == fold
        inner_train, inner_test = train[~held], train[held]
        for s, spec in enumerate(meta.scenario.algorithms):
            member = make_selector(spec, 9, salt=(fold,)).fit(toy, inner_train)
            expected = pr10[inner_test, member.select_batch(toy.features[inner_test])]
            if member.needs_features:
                expected = expected + toy.feature_costs[inner_test]
            np.testing.assert_array_equal(
                meta.scenario.runtimes[held, s], expected
            )


def test_an_inner_fold_failure_is_the_cell_error(toy, monkeypatch):
    # inner fold 1's multiclass member fails after fold 0's forests were
    # queued: the error is the ass cell's, and the queued forests are
    # dropped without touching any other cell
    spec = "ass{meta=sbs;bases=multiclass(trees=3),sunny}"
    config = ExperimentConfig(approaches=("multiclass(trees=3)", "sunny", spec), seed=7)
    clean, _ = run_experiment(config, scenario=toy)
    fit = MulticlassSelector._fit

    def failing(self, scenario, train_indices):
        if self._entropy[2:] == [1]:  # salted with inner fold 1
            raise DegenerateData("injected")
        return fit(self, scenario, train_indices)

    monkeypatch.setattr(MulticlassSelector, "_fit", failing)
    report, _ = run_experiment(config, scenario=toy)
    for cell, clean_cell in zip(report.cells, clean.cells):
        if cell.approach.startswith("ass"):
            assert cell.error == "DegenerateData: injected"
        else:
            assert cell == clean_cell


def test_meta_scenario_shape_and_bookkeeping(toy):
    train, _ = toy.fold_split(2)
    meta = build_meta_scenario(toy, train, SPECS)
    sc = meta.scenario
    assert sc.n_instances == train.size
    assert sc.n_algorithms == len(SPECS)
    assert sc.instances == tuple(toy.instances[i] for i in train)
    # every cell is marked solved: penalties live inside the values
    assert sc.solved.all()
    np.testing.assert_array_equal(sc.features, toy.features[train])
    np.testing.assert_array_equal(sc.feature_costs, toy.feature_costs[train])
    assert len(meta.deployed) == len(SPECS)
    for spec, member in zip(meta.scenario.algorithms, meta.deployed):
        assert member.spec == spec


def test_deployed_members_equal_unsalted_full_train_refits(toy):
    train, test = toy.fold_split(1)
    meta = build_meta_scenario(toy, train, ["sunny(k=5)"], global_seed=4)
    fresh = make_selector("sunny(k=5)", 4).fit(toy, train)
    xs = toy.features[test]
    np.testing.assert_array_equal(
        meta.deployed[0].scores_batch(xs), fresh.scores_batch(xs)
    )


def test_meta_oracle_is_row_minimum_mean(toy):
    train, _ = toy.fold_split(1)
    meta = build_meta_scenario(toy, train, SPECS, global_seed=1)
    idx = np.arange(meta.scenario.n_instances)
    assert oracle_par10(meta.scenario, idx) == pytest.approx(
        float(meta.scenario.runtimes.min(axis=1).mean()), abs=1e-12
    )


def test_complementary_selectors_give_meta_oracle_an_edge():
    # each stub is strong on one half-space only, so the per-instance
    # best selector strictly beats either column mean
    from stubs import complementary_scenario, registered_stubs

    sc = complementary_scenario(seed=5)
    with registered_stubs():
        meta = build_meta_scenario(sc, np.arange(sc.n_instances), ["halfpos", "halfneg"])
    matrix = meta.scenario.runtimes
    meta_oracle = oracle_par10(meta.scenario, np.arange(matrix.shape[0]))
    for s in range(matrix.shape[1]):
        assert meta_oracle < matrix[:, s].mean()


def test_fit_meta_learner_and_route(toy):
    train, test = toy.fold_split(3)
    meta = build_meta_scenario(toy, train, SPECS, global_seed=2)
    learner = make_selector("multiclass(trees=10)", 2).fit(meta.scenario, np.arange(train.size))
    picked = learner.select_batch(toy.features[test][:3])
    assert picked.shape == (3,) and ((0 <= picked) & (picked < len(SPECS))).all()


class TestAlgorithmSelectorSelector:
    def test_requires_bases(self):
        with pytest.raises(EmptyEnsemble):
            AlgorithmSelectorSelector("ass", 0, [], "sbs")

    def test_construction_rejects_fewer_than_two_inner_folds(self):
        with pytest.raises(InvalidConfig, match="inner_folds"):
            AlgorithmSelectorSelector("ass", 0, ["sbs"], "sbs", inner_folds=1)

    def test_singleton_routes_to_its_only_base(self, toy):
        train, test = toy.fold_split(1)
        xs = toy.features[test]
        model = AlgorithmSelectorSelector(
            "ass", 0, ["sunny(k=5)"], "multiclass(trees=10)"
        ).fit(toy, train)
        bare = make_selector("sunny(k=5)", 0).fit(toy, train)
        np.testing.assert_array_equal(model.select_batch(xs), bare.select_batch(xs))

    def test_batch_and_scalar_paths_agree(self, toy):
        train, test = toy.fold_split(2)
        xs = toy.features[test]
        model = AlgorithmSelectorSelector(
            "ass", 1, ["sunny(k=5)", "sbs"], "multiclass(trees=10)"
        ).fit(toy, train)
        batch = model.select_batch(xs)
        singles = np.array([model.select_batch(x[None])[0] for x in xs])
        np.testing.assert_array_equal(batch, singles)
        assert model.scores_batch(xs).shape == (len(test), toy.n_algorithms)

    def test_feature_free_throughout_is_feature_free(self, toy):
        train, _ = toy.fold_split(1)
        model = AlgorithmSelectorSelector("ass", 0, ["sbs"], "sbs").fit(toy, train)
        assert not model.needs_features
        assert model.select_batch(np.zeros((2, 0))).shape == (2,)  # reads no feature

    @pytest.mark.parametrize("meta_spec, base_specs", [("sunny", ["sbs"]), ("sbs", ["sbs", "sunny"])])
    def test_charged_when_the_meta_learner_or_a_base_reads_features(
        self, toy, meta_spec, base_specs
    ):
        train, _ = toy.fold_split(1)
        model = AlgorithmSelectorSelector("ass", 0, base_specs, meta_spec)
        assert model.needs_features  # not fitted yet
        assert model.fit(toy, train).needs_features

    def test_meta_sbs_picks_lowest_mean_selector_column(self, toy):
        train, test = toy.fold_split(1)
        model = AlgorithmSelectorSelector(
            "ass", 0, ["sunny(k=5)", "peralgo(trees=10)", "sbs"], "sbs"
        ).fit(toy, train)
        matrix = model.meta_scenario_.scenario.runtimes
        expected = int(np.argmin(matrix.mean(axis=0)))
        xs = toy.features[test]
        np.testing.assert_array_equal(model.meta_.select_batch(xs), np.full(len(test), expected))
        chosen = model.meta_scenario_.deployed[expected]
        np.testing.assert_array_equal(model.select_batch(xs), chosen.select_batch(xs))

    def test_refit_is_deterministic(self, toy):
        train, test = toy.fold_split(4)
        xs = toy.features[test]

        def build():
            return AlgorithmSelectorSelector(
                "ass", 5, ["sunny(k=5)", "multiclass(trees=10)"], "peralgo(trees=10)"
            ).fit(toy, train)

        np.testing.assert_array_equal(build().select_batch(xs), build().select_batch(xs))

    def test_default_inner_folds(self):
        assert DEFAULT_INNER_FOLDS == 3


class TestFaultInjection:
    """A failure on the `ass` path fails only the `ass` cells of its fold.

    Both `ass` approaches hold the fold's one deployed `sunny(k=4)` fit.
    On fold 2 the first routes test rows to it and the second routes
    every row to `sbs`, so it never scores that base."""

    FOLD = 2
    APPROACHES = (
        "oracle",
        "sbs",
        "sunny",
        "isac",
        "voting[maj]{sunny,isac}",
        "stacking{meta=sunny;bases=sunny,isac}",
        "ass{meta=sunny;bases=sunny(k=4),isac(clusters=2);inner=3}",
        "ass{meta=multiclass(trees=4);bases=sunny(k=4),sbs;inner=3}",
    )
    ASS = APPROACHES[-2:]

    def meta_fit_fails(self, monkeypatch, toy, exception):
        """Every meta learner fit on fold FOLD's `::selectors` scenario raises."""
        train, _ = toy.fold_split(self.FOLD)
        instances = tuple(toy.instances[i] for i in train)
        fit = Selector.fit
        attempts = []

        def failing(model, scenario, rows):
            if scenario.name == f"{toy.name}::selectors" and scenario.instances == instances:
                attempts.append(model.spec)
                raise exception("injected")
            return fit(model, scenario, rows)

        monkeypatch.setattr(Selector, "fit", failing)
        return attempts, set(self.ASS)

    def deployed_scores_fail(self, monkeypatch, toy, exception):
        """The deployed `sunny(k=4)` raises when it scores fold FOLD's test rows."""
        _, test = toy.fold_split(self.FOLD)
        batch = toy.features[test]
        scores = SunnySelector.scores_batch
        attempts = []

        def failing(model, x):
            if model.spec == "sunny(k=4)" and np.array_equal(x, batch, equal_nan=True):
                attempts.append(model.spec)
                raise exception("injected")
            return scores(model, x)

        monkeypatch.setattr(SunnySelector, "scores_batch", failing)
        return attempts, {self.ASS[0]}

    @pytest.mark.parametrize(
        "exception, recorded",
        [(DegenerateData, "DegenerateData: injected"), (ValueError, "internal: ValueError: injected")],
    )
    @pytest.mark.parametrize("inject", ["meta_fit_fails", "deployed_scores_fail"])
    def test_only_the_ass_cells_of_the_fold_fail(
        self, toy, monkeypatch, inject, exception, recorded
    ):
        config = ExperimentConfig(approaches=self.APPROACHES, seed=0)
        clean, _ = run_experiment(config, scenario=toy)
        assert all(c.error is None for c in clean.cells)
        attempts, failing = getattr(self, inject)(monkeypatch, toy, exception)
        report, _ = run_experiment(config, scenario=toy)
        assert attempts and len(attempts) == len(failing)
        assert {(c.approach, c.fold): c.error for c in report.cells if c.error} == {
            (a, self.FOLD): recorded for a in failing
        }
        assert [c for c in report.cells if c.error is None] == [
            c for c in clean.cells if (c.approach, c.fold) not in {(a, self.FOLD) for a in failing}
        ]
        rerun, _ = run_experiment(config, scenario=toy)
        assert canonical_json(rerun) == canonical_json(report)
