import math

import numpy as np
import pytest

from metaselect.aggregation import combine_scores, weight_from_npar10
from metaselect.approaches import build_approach
from metaselect.ensembles import (
    ALPHA_CAP,
    MAX_EXHAUSTIVE_MEMBERS,
    BaggingEnsemble,
    BoostingEnsemble,
    StackingEnsemble,
    VotingEnsemble,
    samme_alpha,
)
from metaselect.errors import (
    BoostingCollapsed,
    DegenerateTraining,
    EmptyEnsemble,
    InvalidConfig,
)
from metaselect.metrics import npar10, oracle_par10, single_best, fixed_algorithm_par10
from metaselect.scenario import ScenarioSpec
from metaselect.selectors import make_selector
from metaselect.synthetic import SyntheticConfig, generate_synthetic

MEMBER_SPECS = ["peralgo(trees=10)", "sunny(k=5)", "multiclass(trees=10)"]


def scenario_of(runtimes, features, cutoff=100.0, folds=None):
    runtimes = np.asarray(runtimes, dtype=float)
    n, k = runtimes.shape
    solved = runtimes < cutoff
    return ScenarioSpec.create(
        name="hand",
        instances=[f"i{j}" for j in range(n)],
        algorithms=[f"a{j}" for j in range(k)],
        cutoff=cutoff,
        runtimes=np.where(solved, runtimes, cutoff),
        solved=solved,
        features=features,
        folds=folds,
    )


# -- SAMME weight ----------------------------------------------------------


def test_samme_alpha_hand_value():
    assert samme_alpha(0.3, 3) == pytest.approx(math.log(7.0 / 3.0) + math.log(2.0), abs=1e-12)


def test_samme_alpha_zero_error_is_capped():
    assert samme_alpha(0.0, 3) == ALPHA_CAP + math.log(2.0)


@pytest.mark.parametrize("err,k", [(-0.1, 3), (1.0, 3), (1.5, 3), (0.3, 1)])
def test_samme_alpha_rejects_bad_inputs(err, k):
    with pytest.raises(InvalidConfig):
        samme_alpha(err, k)


# -- single-member identity ------------------------------------------------


@pytest.mark.parametrize("base", ["peralgo(trees=10)", "sunny(k=5)"])
def test_one_member_ensembles_equal_the_bare_selector(toy, base):
    train, test = toy.fold_split(2)
    xs = toy.features[test]
    bare = make_selector(base, 0).fit(toy, train).select_batch(xs)
    one_of_each = [
        VotingEnsemble("v", 0, [base]),
        BaggingEnsemble("b", 0, base, k=1),
        BoostingEnsemble("o", 0, base, iterations=1),
        StackingEnsemble("s", 0, [base], base, include_base_scores=False),
    ]
    for ensemble in one_of_each:
        got = ensemble.fit(toy, train).select_batch(xs)
        np.testing.assert_array_equal(got, bare)


# -- voting ----------------------------------------------------------------


class TestVoting:
    def test_constructor_rejects_bad_arguments(self):
        with pytest.raises(EmptyEnsemble):
            VotingEnsemble("v", 0, [])
        with pytest.raises(InvalidConfig):
            VotingEnsemble("v", 0, ["sbs"], aggregation="median")
        with pytest.raises(InvalidConfig):
            VotingEnsemble("v", 0, ["sbs"], search="greedy")
        too_many = ["sbs"] * (MAX_EXHAUSTIVE_MEMBERS + 1)
        with pytest.raises(InvalidConfig):
            VotingEnsemble("v", 0, too_many, search="exhaustive")
        # the gate only applies to exhaustive search
        VotingEnsemble("v", 0, too_many, search="all")

    def test_search_all_keeps_every_member(self, toy):
        train, _ = toy.fold_split(1)
        model = VotingEnsemble("v", 0, MEMBER_SPECS).fit(toy, train)
        assert model.active_ == (0, 1, 2)
        assert model.search_result_ is None

    def test_exhaustive_search_scores_every_subset(self, toy):
        train, _ = toy.fold_split(1)
        model = VotingEnsemble("v", 0, MEMBER_SPECS, search="exhaustive").fit(toy, train)
        result = model.search_result_
        assert len(result.masks) == 2 ** len(MEMBER_SPECS) - 1
        assert result.best_mask == model.active_
        best_value = min(result.train_par10)
        picked = result.train_par10[result.masks.index(result.best_mask)]
        assert picked == best_value
        # never worse on training data than the best single member
        singles = [
            v for m, v in zip(result.masks, result.train_par10) if len(m) == 1
        ]
        assert best_value <= min(singles)

    def test_exhaustive_tie_prefers_smaller_then_lexicographic(self, toy):
        # duplicate specs make every same-size subset tie exactly
        train, _ = toy.fold_split(1)
        model = VotingEnsemble(
            "v", 0, ["sbs", "sbs", "sbs"], search="exhaustive"
        ).fit(toy, train)
        assert model.active_ == (0,)

    def test_exhaustive_search_charges_features_iff_a_member_reads_them(self):
        # sbs reads no features, sunny and isac do: a subset is charged
        # the feature cost exactly when it holds sunny or isac
        scenario = generate_synthetic(
            SyntheticConfig(n_instances=80, n_algorithms=3, feature_cost=4.0, seed=5)
        )
        train, _ = scenario.fold_split(1)
        specs = ["sbs", "sunny(k=5)", "isac(clusters=3)"]
        model = VotingEnsemble("v", 0, specs, search="exhaustive").fit(scenario, train)
        costs = scenario.feature_costs[train]
        assert (costs > 0).all()
        reads = [m.needs_features for m in model.members_]
        assert reads == [False, True, True]

        picks = np.stack([m.select_batch(scenario.features[train]) for m in model.members_])
        pr10 = scenario.pr10_matrix()[train]
        expected_masks, expected = [], []
        for bits in range(1, 2 ** len(specs)):
            mask = tuple(i for i in range(len(specs)) if bits >> i & 1)
            votes = np.zeros(pr10.shape)
            for i in mask:
                votes[np.arange(train.size), picks[i]] += 1
            choices = np.argmax(votes, axis=1)  # first wins, like argmin of -votes
            values = pr10[np.arange(train.size), choices]
            if any(reads[i] for i in mask):
                values = values + costs
            expected_masks.append(mask)
            expected.append(float(values.mean()))
        result = model.search_result_
        assert result.masks == tuple(expected_masks)
        assert result.train_par10 == tuple(expected)
        sbs_alone = fixed_algorithm_par10(scenario, train, single_best(scenario, train))
        assert result.train_par10[0] == pytest.approx(sbs_alone, rel=1e-12)

    def test_wmaj_weights_match_inverse_train_npar10(self, toy):
        train, _ = toy.fold_split(3)
        model = VotingEnsemble("v", 7, MEMBER_SPECS, aggregation="wmaj").fit(toy, train)
        oracle = oracle_par10(toy, train)
        sbs_value = fixed_algorithm_par10(toy, train, single_best(toy, train))
        pr10 = toy.pr10_matrix()
        for member, weight in zip(model.members_, model.weights_):
            choices = member.select_batch(toy.features[train])
            value = float((pr10[train, choices] + toy.feature_costs[train]).mean())
            expected = weight_from_npar10(npar10(value, oracle, sbs_value))
            assert weight == pytest.approx(expected, rel=1e-12)

    def test_scores_batch_matches_member_recombination(self, toy):
        train, test = toy.fold_split(1)
        xs = toy.features[test]
        model = VotingEnsemble("v", 0, MEMBER_SPECS, aggregation="borda").fit(toy, train)
        rows = np.stack([m.scores_batch(xs) for m in model.members_])
        expected = np.stack(
            [combine_scores("borda", rows[:, i, :]) for i in range(len(test))]
        )
        np.testing.assert_array_equal(model.scores_batch(xs), expected)

    def test_wmaj_falls_back_to_maj_on_a_zero_train_gap(self):
        # algorithm 0 wins every training instance: oracle == sbs there,
        # while the stubs still disagree, so vote ties are exercised
        from stubs import registered_stubs

        rng = np.random.default_rng(3)
        sc = scenario_of(
            runtimes=np.tile([1.0, 5.0, 5.0], (30, 1)),
            features=rng.normal(size=(30, 2)),
        )
        train = np.arange(30)
        specs = ["halfpos", "halfneg", "noisy"]
        with registered_stubs():
            wmaj = VotingEnsemble("v", 0, specs, aggregation="wmaj").fit(sc, train)
            maj = VotingEnsemble("v", 0, specs, aggregation="maj").fit(sc, train)
        np.testing.assert_array_equal(wmaj.weights_, np.ones(len(specs)))
        np.testing.assert_array_equal(
            wmaj.scores_batch(sc.features), maj.scores_batch(sc.features)
        )

    def test_feature_free_members_make_a_feature_free_ensemble(self, toy):
        train, test = toy.fold_split(1)
        model = VotingEnsemble("v", 0, ["sbs"]).fit(toy, train)
        assert not model.needs_features
        xs = toy.features[test]
        bare = make_selector("sbs", 0).fit(toy, train)
        np.testing.assert_array_equal(model.select_batch(xs), bare.select_batch(xs))


# -- bagging ---------------------------------------------------------------


class TestBagging:
    def test_constructor_bounds(self):
        with pytest.raises(InvalidConfig):
            BaggingEnsemble("b", 0, "sbs", k=0)
        with pytest.raises(InvalidConfig):
            BaggingEnsemble("b", 0, "sbs", aggregation="nope")

    def test_k_members_on_distinct_bootstraps(self, toy):
        train, test = toy.fold_split(1)
        model = BaggingEnsemble("b", 0, "sunny(k=3)", k=6).fit(toy, train)
        assert len(model.members_) == 6
        for sample in model.bootstrap_indices_:
            assert sample.size == train.size
            assert set(sample) <= set(train)
        # bootstraps actually differ
        assert any(
            not np.array_equal(model.bootstrap_indices_[0], s)
            for s in model.bootstrap_indices_[1:]
        )

    def test_refit_is_deterministic(self, toy):
        train, test = toy.fold_split(2)
        xs = toy.features[test]
        a = BaggingEnsemble("b", 5, "multiclass(trees=10)", k=4).fit(toy, train)
        b = BaggingEnsemble("b", 5, "multiclass(trees=10)", k=4).fit(toy, train)
        np.testing.assert_array_equal(a.scores_batch(xs), b.scores_batch(xs))

    def test_bags_grown_together_equal_bags_fit_one_by_one(self, toy):
        train, test = toy.fold_split(1)
        model = build_approach("bagging{multiclass(trees=3);k=4}", 5).fit(toy, train)
        xs = toy.features[test]
        for j, (member, sample) in enumerate(zip(model.members_, model.bootstrap_indices_)):
            alone = make_selector("multiclass(trees=3)", 5, salt=(j,)).fit(toy, sample)
            for name in ("feature", "threshold", "left", "right", "payload"):
                np.testing.assert_array_equal(
                    getattr(member.model_.nodes_, name), getattr(alone.model_.nodes_, name)
                )
            np.testing.assert_array_equal(member.scores_batch(xs), alone.scores_batch(xs))

    def test_single_training_instance_collapses(self, toy):
        with pytest.raises(DegenerateTraining):
            BaggingEnsemble("b", 0, "sbs", k=3).fit(toy, np.array([4]))

    def test_wmaj_weights_are_per_member(self, toy):
        train, _ = toy.fold_split(1)
        model = BaggingEnsemble("b", 1, "sunny(k=3)", k=5, aggregation="wmaj").fit(toy, train)
        assert model.weights_.shape == (5,)
        assert (model.weights_ > 0).all()


# -- boosting --------------------------------------------------------------


class TestBoosting:
    def test_constructor_bounds(self):
        with pytest.raises(InvalidConfig):
            BoostingEnsemble("o", 0, "sbs", iterations=0)

    def test_rounds_accumulate_positive_alphas(self, toy):
        train, _ = toy.fold_split(1)
        model = BoostingEnsemble("o", 0, "multiclass(trees=10)", iterations=5).fit(toy, train)
        assert 1 <= len(model.members_) <= 5
        assert (model.alphas_ > 0).all()
        for weights in model.weight_history_:
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert (weights >= 0).all()

    def test_perfect_first_member_decides_alone(self):
        # sunny with k=1 memorizes the training set, so round one is
        # error-free and boosting stops with a single capped-alpha member
        rng = np.random.default_rng(0)
        sc = scenario_of(
            runtimes=np.column_stack([rng.uniform(1, 9, 12), rng.uniform(11, 19, 12)]),
            features=np.arange(12, dtype=float)[:, None],
        )
        model = BoostingEnsemble("o", 0, "sunny(k=1)", iterations=10).fit(sc, np.arange(12))
        assert len(model.members_) == 1
        assert model.alphas_[0] == ALPHA_CAP + math.log(1.0)
        assert model.weight_history_ == []

    def test_unlearnable_labels_collapse(self):
        # constant features with exactly balanced labels: every member
        # predicts one class, weighted error sits at 1 - 1/K, and the
        # attempt budget runs out
        n = 10
        runtimes = np.where(
            (np.arange(n) < n // 2)[:, None] == np.array([True, False])[None, :],
            2.0,
            8.0,
        )
        sc = scenario_of(runtimes=runtimes, features=np.zeros((n, 1)))
        with pytest.raises(BoostingCollapsed):
            BoostingEnsemble("o", 0, "multiclass(trees=5)", iterations=3).fit(
                sc, np.arange(n)
            )

    def test_scores_are_negated_weighted_votes(self, toy):
        train, test = toy.fold_split(4)
        xs = toy.features[test]
        model = BoostingEnsemble("o", 2, "multiclass(trees=10)", iterations=4).fit(toy, train)
        votes = np.zeros((len(test), toy.n_algorithms))
        for member, alpha in zip(model.members_, model.alphas_):
            votes[np.arange(len(test)), member.select_batch(xs)] += alpha
        np.testing.assert_array_equal(model.scores_batch(xs), -votes)

    def test_refit_is_deterministic(self, toy):
        train, test = toy.fold_split(5)
        xs = toy.features[test]
        a = BoostingEnsemble("o", 3, "multiclass(trees=10)", iterations=6).fit(toy, train)
        b = BoostingEnsemble("o", 3, "multiclass(trees=10)", iterations=6).fit(toy, train)
        np.testing.assert_array_equal(a.alphas_, b.alphas_)
        np.testing.assert_array_equal(a.scores_batch(xs), b.scores_batch(xs))


# -- stacking --------------------------------------------------------------


class TestStacking:
    def test_constructor_rejects_bad_arguments(self):
        with pytest.raises(EmptyEnsemble):
            StackingEnsemble("s", 0, [], "sbs")
        with pytest.raises(InvalidConfig):
            StackingEnsemble("s", 0, ["sbs"], "sbs", feature_selection="pca")
        with pytest.raises(InvalidConfig):
            StackingEnsemble("s", 0, ["sbs"], "sbs", split="random")
        with pytest.raises(InvalidConfig):
            StackingEnsemble("s", 0, ["sbs"], "sbs", split="disjoint", split_ratio=1.0)

    @pytest.mark.parametrize("threshold", [-0.1, math.inf, math.nan])
    def test_constructor_rejects_vt_thresholds_outside_zero_to_inf(self, threshold):
        with pytest.raises(InvalidConfig):
            StackingEnsemble("s", 0, ["sbs"], "sbs", feature_selection="vt", vt_threshold=threshold)
        # without vt the threshold is unused
        StackingEnsemble("s", 0, ["sbs"], "sbs", vt_threshold=threshold)

    def test_meta_features_are_base_features_plus_score_vectors(self, toy):
        train, _ = toy.fold_split(1)
        model = StackingEnsemble(
            "s", 0, ["peralgo(trees=10)", "sbs"], "multiclass(trees=10)"
        ).fit(toy, train)
        width = model._augment(toy.features[train]).shape[1]
        assert width == toy.n_features + 2 * toy.n_algorithms

    def test_ablated_meta_sees_only_raw_features(self, toy):
        train, _ = toy.fold_split(1)
        model = StackingEnsemble(
            "s", 0, ["peralgo(trees=10)"], "multiclass(trees=10)",
            include_base_scores=False,
        ).fit(toy, train)
        assert model._augment(toy.features[train]).shape[1] == toy.n_features

    def test_variance_filter_prunes_augmented_columns(self, toy):
        train, test = toy.fold_split(2)
        model = StackingEnsemble(
            "s", 0, ["sunny(k=5)", "sbs"], "multiclass(trees=10)",
            feature_selection="vt",
        ).fit(toy, train)
        assert model.mask_ is not None
        # the feature-free member contributes constant columns; at least
        # those must be gone
        assert model.mask_.sum() < model.mask_.size
        out = model.scores_batch(toy.features[test])
        assert np.isfinite(out).all()

    def test_disjoint_split_trains_bases_and_meta_apart(self, toy):
        train, test = toy.fold_split(3)
        model = StackingEnsemble(
            "s", 0, ["sunny(k=3)"], "multiclass(trees=10)",
            split="disjoint", split_ratio=0.7,
        ).fit(toy, train)
        choices = model.select_batch(toy.features[test])
        assert choices.shape == (len(test),)

    def test_refit_is_deterministic(self, toy):
        train, test = toy.fold_split(1)
        xs = toy.features[test]

        def build():
            return StackingEnsemble(
                "s", 4, ["peralgo(trees=10)", "sunny(k=5)"], "multiclass(trees=10)",
                split="disjoint",
            ).fit(toy, train)

        np.testing.assert_array_equal(build().scores_batch(xs), build().scores_batch(xs))

    def test_stacking_always_needs_features(self, toy):
        train, _ = toy.fold_split(1)
        model = StackingEnsemble("s", 0, ["sbs"], "sbs").fit(toy, train)
        assert model.needs_features
