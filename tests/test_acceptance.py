"""Acceptance gate: one test per criterion, each printing a PASS line.

Every expected number here is computed away from the library: matrix
fixtures carry hand-worked arithmetic, aggregation answers come from
brute-force loops, and the sweep is recomputed from raw member votes.
"""

import math
import time

import numpy as np
import pytest
from stubs import complementary_scenario, registered_stubs

from metaselect.config import ExperimentConfig
from metaselect.ensembles import (
    BaggingEnsemble,
    BoostingEnsemble,
    StackingEnsemble,
    VotingEnsemble,
    samme_alpha,
)
from metaselect.aggregation import combine_scores, ranks_from_scores
from metaselect.aslib import load_scenario
from metaselect.metrics import (
    as_oracle_par10,
    fixed_algorithm_par10,
    npar10,
    oracle_par10,
    single_best,
    trace_par10,
)
from metaselect.report import canonical_json
from metaselect.runner import run_experiment, selector_trace, sweep_voting
from metaselect.scenario import ScenarioSpec
from metaselect.selectors import make_selector
from metaselect.synthetic import SyntheticConfig, generate_synthetic

TOL = 1e-12


def hand_scenario(runtimes, solved, cutoff):
    runtimes = np.asarray(runtimes, dtype=float)
    n, m = runtimes.shape
    return ScenarioSpec.create(
        name="hand",
        instances=[f"i{j}" for j in range(n)],
        algorithms=[f"a{j}" for j in range(m)],
        cutoff=cutoff,
        runtimes=runtimes,
        solved=solved,
        features=np.zeros((n, 1)),
        folds=np.ones(n, dtype=int),
    )


T, F = True, False

# (runtimes, solved, cutoff, per-algorithm par10, oracle par10,
#  per-algorithm npar10) with all values worked out by hand
HAND_CASES = [
    ([[1, 9], [9, 1]], [[T, T], [T, T]], 10.0,
     [5.0, 5.0], 1.0, [1.0, 1.0]),
    ([[15, 30], [100, 15]], [[T, T], [F, T]], 100.0,
     [507.5, 22.5], 15.0, [197 / 3, 1.0]),
    ([[0.5, 0.25], [0.25, 0.75]], [[T, T], [T, T]], 1.0,
     [0.375, 0.5], 0.25, [1.0, 2.0]),
    ([[10, 20, 30], [20, 10, 40], [30, 40, 10]],
     [[T, T, T], [T, T, T], [T, T, T]], 50.0,
     [20.0, 70 / 3, 80 / 3], 10.0, [1.0, 4 / 3, 5 / 3]),
    ([[5, 20], [20, 5], [10, 10]], [[T, F], [F, T], [T, T]], 20.0,
     [215 / 3, 215 / 3], 20 / 3, [1.0, 1.0]),
    ([[1, 2], [2, 1], [50, 100], [100, 50]],
     [[T, T], [T, T], [T, F], [F, T]], 100.0,
     [263.25, 263.25], 25.5, [1.0, 1.0]),
    ([[3, 6, 9], [9, 3, 27]], [[T, T, T], [T, T, T]], 30.0,
     [6.0, 4.5, 18.0], 3.0, [2.0, 1.0, 10.0]),
    ([[10, 20], [30, 10], [100, 100], [1000, 500], [50, 60]],
     [[T, T], [T, T], [T, T], [F, T], [T, T]], 1000.0,
     [2038.0, 138.0], 134.0, [476.0, 1.0]),
    ([[1.5, 3], [3, 1.5], [6, 7.5]], [[T, T], [T, T], [T, F]], 7.5,
     [3.5, 26.5], 3.0, [1.0, 47.0]),
    ([[1, 2, 2], [2, 1, 2], [2, 2, 1]],
     [[T, F, F], [F, T, F], [F, F, T]], 2.0,
     [41 / 3, 41 / 3, 41 / 3], 1.0, [1.0, 1.0, 1.0]),
]


def test_criterion_1_metric_exactness():
    started = time.monotonic()
    assert len(HAND_CASES) == 10
    for runtimes, solved, cutoff, algo_par10, oracle_value, algo_npar10 in HAND_CASES:
        sc = hand_scenario(runtimes, solved, cutoff)
        idx = np.arange(sc.n_instances)
        expected_pr10 = np.where(np.array(solved), np.array(runtimes, dtype=float),
                                 10.0 * cutoff)
        np.testing.assert_array_equal(sc.pr10_matrix(), expected_pr10)
        assert abs(oracle_par10(sc, idx) - oracle_value) <= TOL
        for j, expected in enumerate(algo_par10):
            assert abs(fixed_algorithm_par10(sc, idx, j) - expected) <= TOL
        sbs = single_best(sc, idx)
        assert algo_par10[sbs] == min(algo_par10)
        sbs_value = fixed_algorithm_par10(sc, idx, sbs)
        assert npar10(oracle_par10(sc, idx), oracle_value, sbs_value) == 0.0
        assert npar10(sbs_value, oracle_value, sbs_value) == 1.0
        for j, expected in enumerate(algo_npar10):
            got = npar10(fixed_algorithm_par10(sc, idx, j), oracle_value, sbs_value)
            assert abs(got - expected) <= TOL
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    print(f"[PASS] criterion 1: 10 hand matrices exact to 1e-12 in {elapsed:.3f}s")


# -- criterion 2: brute-force aggregation ----------------------------------


def naive_ranks(scores):
    out = []
    for s in scores:
        less = sum(1 for t in scores if t < s)
        equal = sum(1 for t in scores if t == s)
        out.append(less + (equal + 1) / 2.0)
    return np.array(out)


def naive_scores(name, rows, weights=None):
    rows = np.asarray(rows, dtype=float)
    m, k = rows.shape
    if name in ("maj", "wmaj"):
        w = np.ones(m) if (name == "maj" or weights is None) else np.asarray(weights)
        votes = np.zeros(k)
        for i in range(m):
            votes[min(range(k), key=lambda a: (rows[i, a], a))] += w[i]
        return -votes
    if name == "mean":
        normalized = []
        for i in range(m):
            lo, hi = rows[i].min(), rows[i].max()
            normalized.append(np.full(k, 0.5) if hi == lo else (rows[i] - lo) / (hi - lo))
        total = normalized[0].copy()
        for row in normalized[1:]:
            total = total + row
        return total / m
    if name == "borda":
        return np.sum([naive_ranks(rows[i]) for i in range(m)], axis=0)
    raise AssertionError(name)


def test_criterion_2_aggregation_matches_exhaustive_evaluator():
    started = time.monotonic()
    np.testing.assert_array_equal(
        ranks_from_scores(np.array([0.0, 1.0, 1.0, 1.0])), [1.0, 3.0, 3.0, 3.0]
    )
    np.testing.assert_array_equal(
        combine_scores("borda", np.array([[0.0, 1.0, 1.0, 1.0]])), [1.0, 3.0, 3.0, 3.0]
    )
    rng = np.random.default_rng(20260822)
    for _ in range(1000):
        m = int(rng.integers(1, 6))
        k = int(rng.integers(1, 6))
        if rng.random() < 0.5:
            rows = rng.integers(0, 4, size=(m, k)).astype(float)  # force ties
        else:
            rows = rng.random((m, k))
        weights = rng.uniform(0.1, 5.0, size=m)
        for name in ("maj", "wmaj", "mean", "borda"):
            got = combine_scores(name, rows, weights if name == "wmaj" else None)
            want = naive_scores(name, rows, weights if name == "wmaj" else None)
            np.testing.assert_array_equal(got, want)
            assert int(np.argmin(got)) == min(
                range(k), key=lambda a: (want[a], a)
            )
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"[PASS] criterion 2: 1000 random draws equal brute force in {elapsed:.2f}s")


def test_criterion_3_samme_math():
    expected = math.log(7 / 3) + math.log(2)
    assert abs(samme_alpha(0.3, 3) - expected) <= 1e-9

    sc = generate_synthetic(
        SyntheticConfig(n_instances=50, n_algorithms=3, n_features=4,
                        n_folds=5, seed=13, unsolved_rate=0.15)
    )
    train, _ = sc.fold_split(1)
    model = BoostingEnsemble("boost", 0, "sunny(k=3)", iterations=20).fit(sc, train)
    assert len(model.alphas_) == 20
    assert len(model.weight_history_) == 20
    for w in model.weight_history_:
        assert w.shape == (train.size,)
        assert (w >= 0.0).all()
        assert abs(float(w.sum()) - 1.0) <= TOL
    print("[PASS] criterion 3: alpha(0.3, 3) = ln(7/3)+ln(2); 20 rounds stay normalized")


def test_criterion_4_single_member_identity(toy):
    train, test = toy.fold_split(1)
    xs = toy.features[test]
    checked = 0
    for base in ("peralgo", "multiclass", "pairwise", "sunny", "isac"):
        bare = make_selector(base, 0).fit(toy, train).select_batch(xs)
        ensembles = [
            VotingEnsemble("v", 0, [base]),
            BaggingEnsemble("b", 0, base, k=1),
            BoostingEnsemble("o", 0, base, iterations=1),
            StackingEnsemble("s", 0, [base], base, include_base_scores=False),
        ]
        for ensemble in ensembles:
            got = ensemble.fit(toy, train).select_batch(xs)
            np.testing.assert_array_equal(got, bare)
            checked += 1
    assert checked == 20
    print("[PASS] criterion 4: 1-member ensembles equal the bare selector "
          "(4 kinds x 5 selectors, exact)")


def test_criterion_5_oracle_ordering_on_random_scenarios():
    rules = ("feature_sign", "uniform")
    for seed in range(20):
        sc = generate_synthetic(
            SyntheticConfig(
                n_instances=30 + seed,
                n_algorithms=2 + seed % 4,
                n_features=2 + seed % 3,
                n_folds=3,
                seed=seed,
                rule=rules[seed % 2],
                unsolved_rate=(0.0, 0.1, 0.25)[seed % 3],
                feature_cost=(0.0, 0.3)[seed % 2],
            )
        )
        train, test = sc.fold_split(1)
        traces = [
            selector_trace(make_selector(spec, seed).fit(sc, train), sc, test)
            for spec in ("multiclass", "sunny", "sbs")
        ]
        oracle_value = oracle_par10(sc, test)
        as_oracle = as_oracle_par10(sc, traces)
        assert oracle_value <= as_oracle
        for trace in traces:
            assert as_oracle <= trace_par10(sc, trace)
    print("[PASS] criterion 5: oracle <= AS-oracle <= every selector trace "
          "on 20 random scenarios")


def test_criterion_6_voting_beats_sbas_on_complementary_family():
    started = time.monotonic()
    vote_spec = "voting[mean]{halfpos,halfneg,noisy;search=all}"
    approaches = ("oracle", "sbs", "halfpos", "halfneg", "noisy", vote_spec)
    wins = 0
    with registered_stubs():
        for seed in range(10):
            sc = complementary_scenario(seed, n=200)
            config = ExperimentConfig(approaches=approaches, seed=seed)
            report, _ = run_experiment(config, scenario=sc)
            vote_mean = next(
                s.mean_npar10 for s in report.summary if s.approach == vote_spec
            )
            sbas_mean = float(np.mean([
                (b.sbas_par10 - b.oracle_par10) / (b.sbs_par10 - b.oracle_par10)
                for b in report.baselines
            ]))
            if vote_mean < sbas_mean:
                wins += 1
    elapsed = time.monotonic() - started
    assert wins >= 8
    assert elapsed < 120.0
    print(f"[PASS] criterion 6: voting beat the SBAS on {wins}/10 seeds in {elapsed:.1f}s")


def test_criterion_7_sweep_completeness(toy):
    started = time.monotonic()
    members = ["multiclass", "pairwise", "peralgo", "sunny", "isac", "sunny(k=3)", "sbs"]
    sweep = sweep_voting(toy, members, aggregation="maj", global_seed=0)
    assert len(sweep.rows) == 127

    # recompute every composition from raw member votes
    pr10 = toy.pr10_matrix()
    masks = [r.members for r in sweep.rows]
    per_mask = {mask: [] for mask in masks}
    for fold in toy.fold_ids():
        train, test = toy.fold_split(fold)
        oracle_value = oracle_par10(toy, test)
        sbs_value = fixed_algorithm_par10(toy, test, single_best(toy, train))
        fitted = [make_selector(s, 0).fit(toy, train) for s in sweep.member_specs]
        votes = np.stack([m.select_batch(toy.features[test]) for m in fitted], axis=1)
        for mask in masks:
            choices = []
            for row in votes[:, list(mask)]:
                counts = {}
                for v in row:
                    counts[int(v)] = counts.get(int(v), 0) + 1
                best = max(counts.values())
                choices.append(min(a for a, c in counts.items() if c == best))
            values = pr10[test, np.array(choices)]
            if any(fitted[i].needs_features for i in mask):
                values = values + toy.feature_costs[test]
            per_mask[mask].append(npar10(float(values.mean()), oracle_value, sbs_value))
    recomputed = {mask: float(np.mean(vals)) for mask, vals in per_mask.items()}
    for row in sweep.rows:
        assert abs(row.mean_npar10 - recomputed[row.members]) <= TOL
    best = min(masks, key=lambda m: (recomputed[m], len(m), m))
    assert sweep.best_members == best
    assert sweep.best_spec == next(r.spec for r in sweep.rows if r.members == best)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(f"[PASS] criterion 7: 127 sweep rows match vote-level recomputation "
          f"in {elapsed:.1f}s")


def test_criterion_8_scenario_ingestion(toy, toy_tiny):
    for sc in (toy, toy_tiny):
        assert sc.n_instances > 0 and sc.n_algorithms > 0
        unsolved = ~sc.solved
        np.testing.assert_array_equal(sc.runtimes[unsolved],
                                      np.full(int(unsolved.sum()), sc.cutoff))
        assert (sc.runtimes <= sc.cutoff).all()
        assert sc.features.shape == (sc.n_instances, sc.n_features)
    print("[PASS] criterion 8: bundled scenarios load; unsolved => runtime = cutoff "
          "on every record")


def test_criterion_9_two_seed_42_runs_are_byte_identical(toy):
    approaches = (
        "oracle",
        "sbs",
        "peralgo",
        "multiclass",
        "pairwise",
        "sunny",
        "isac",
        "voting[wmaj]{multiclass,sunny,peralgo;search=exhaustive}",
        "bagging[maj]{sunny;k=5}",
        "boosting{multiclass;iters=5}",
        "stacking{meta=multiclass;bases=sunny,sbs;fs=none;split=shared}",
        "ass{meta=sbs;bases=sunny,sbs;inner=3}",
    )
    config = ExperimentConfig(approaches=approaches, seed=42)
    first, _ = run_experiment(config, scenario=toy)
    second, _ = run_experiment(config, scenario=toy)
    first_text = canonical_json(first)
    assert first_text == canonical_json(second)
    assert '"seed": 42' in first_text
    print("[PASS] criterion 9: two seed-42 runs serialize byte-identically")
