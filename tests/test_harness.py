"""End-to-end runner, report serialization, config loading, and the CLI."""

import contextlib
import csv
import io
import json
import shutil
import traceback
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import TOY_DIR, TOY_TINY_DIR

from metaselect import ensembles, meta, runner, selectors
from metaselect.cli import main
from metaselect.config import ExperimentConfig, config_from_mapping, load_config
from metaselect.errors import InvalidConfig, MetaselectError
from metaselect.metrics import fixed_algorithm_par10, oracle_par10, single_best
from metaselect.aggregation import ranks_from_scores
from metaselect.aslib import load_scenario, write_scenario
from metaselect.report import (
    baselines_csv,
    canonical_json,
    cells_csv,
    emit_report,
    markdown_summary,
    summary_csv,
    sweep_csv,
    sweep_json,
)
from metaselect.ensembles import (
    BaggingEnsemble,
    BoostingEnsemble,
    StackingEnsemble,
    VotingEnsemble,
)
from metaselect.learners import KnnIndex, _kernels
from metaselect.meta import AlgorithmSelectorSelector
from metaselect.runner import (
    internal_error_cells,
    is_plain_selector,
    run_config,
    run_experiment,
    sweep_voting,
)
from metaselect.scenario import ScenarioSpec
from metaselect.selectors import (
    IsacSelector,
    Selector,
    SunnySelector,
    canonical_selector_spec,
    fit_selector,
    make_selector,
    shared_fits,
    shared_neighbours,
    shared_scores,
)
from metaselect.synthetic import SyntheticConfig, generate_synthetic

TOY_APPROACHES = (
    "oracle",
    "sbs",
    "multiclass",
    "sunny(k=3)",
    "voting[maj]{multiclass,sunny;search=all}",
)

# one member over voting's exhaustive-search gate
OVER_GATE_EXHAUSTIVE = (
    "voting{" + ",".join(f"sunny(k={k})" for k in range(1, 17)) + ";search=exhaustive}"
)


def make_config(approaches, **overrides):
    base = dict(approaches=tuple(approaches), seed=7)
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def toy_run(toy):
    return run_experiment(make_config(TOY_APPROACHES), scenario=toy)


@pytest.fixture(scope="module")
def err_run():
    # 3 instances over 3 folds leaves 2 train rows, too few for the
    # meta level's 3 inner folds: every ass cell must fail cleanly
    scenario = generate_synthetic(
        SyntheticConfig(n_instances=3, n_folds=3, n_algorithms=2, seed=5)
    )
    approaches = ("oracle", "sbs", "peralgo", "ass{meta=sbs;bases=sbs}")
    return run_experiment(make_config(approaches), scenario=scenario)


class TestRunExperiment:
    def test_report_shape(self, toy, toy_run):
        report, _ = toy_run
        assert report.scenario_name == toy.name
        assert report.n_instances == toy.n_instances
        assert report.n_algorithms == toy.n_algorithms
        assert report.cutoff == toy.cutoff
        assert report.folds == tuple(toy.fold_ids())
        assert len(report.approaches) == len(TOY_APPROACHES)
        assert len(report.cells) == len(TOY_APPROACHES) * len(report.folds)
        assert len(report.baselines) == len(report.folds)
        assert len(report.summary) == len(TOY_APPROACHES)

    def test_oracle_row_is_exactly_zero(self, toy_run):
        report, _ = toy_run
        by_fold = {b.fold: b for b in report.baselines}
        cells = [c for c in report.cells if c.approach == "oracle"]
        assert len(cells) == len(report.folds)
        for cell in cells:
            assert cell.npar10 == 0.0
            assert cell.par10 == by_fold[cell.fold].oracle_par10
            assert cell.error is None

    def test_sbs_row_is_exactly_one(self, toy, toy_run):
        report, _ = toy_run
        by_fold = {b.fold: b for b in report.baselines}
        for cell in (c for c in report.cells if c.approach == "sbs"):
            assert cell.npar10 == 1.0
            assert cell.par10 == by_fold[cell.fold].sbs_par10
        for b in report.baselines:
            assert b.sbs_algorithm in toy.algorithms

    def test_baseline_ordering(self, toy_run):
        report, _ = toy_run
        plain = [a for a in report.approaches if is_plain_selector(a)]
        for b in report.baselines:
            assert b.oracle_par10 <= b.as_oracle_par10 <= b.sbas_par10
            assert b.sbas_selector in plain
            fold_cells = {
                c.approach: c.par10
                for c in report.cells
                if c.fold == b.fold and c.par10 is not None
            }
            # the per-instance best over plain traces lower-bounds each trace
            for spec in plain:
                assert b.as_oracle_par10 <= fold_cells[spec] + 1e-9

    def test_sbas_value_matches_its_own_cell(self, toy_run):
        report, _ = toy_run
        cell_par10 = {(c.approach, c.fold): c.par10 for c in report.cells}
        for b in report.baselines:
            assert b.sbas_par10 == cell_par10[(b.sbas_selector, b.fold)]

    def test_error_cells_record_the_failure(self, err_run):
        report, _ = err_run
        failed = [c for c in report.cells if c.approach.startswith("ass")]
        assert len(failed) == len(report.folds)
        for cell in failed:
            assert cell.par10 is None
            assert cell.npar10 is None
            assert cell.n_timeouts is None
            assert cell.n_test == 1
            assert cell.error.startswith("DegenerateTraining:")
        healthy = [c for c in report.cells if not c.approach.startswith("ass")]
        assert all(c.error is None for c in healthy)

    def test_failed_approach_summary_is_empty(self, err_run):
        report, _ = err_run
        row = next(s for s in report.summary if s.approach.startswith("ass"))
        assert row.n_folds_evaluated == 0
        assert row.mean_par10 is None
        assert row.mean_npar10 is None
        assert row.median_npar10 is None
        assert row.avg_rank is None
        assert row.wins is None and row.losses is None

    def test_no_plain_selectors_leaves_baselines_partial(self, make_synthetic):
        # the selector-level baselines need plain selector traces; a run
        # of only pseudo rows and ensembles cannot provide them
        scenario = make_synthetic(n_instances=12, n_folds=2, seed=3)
        approaches = ("oracle", "sbs", "voting[maj]{sunny;search=all}")
        report, _ = run_experiment(make_config(approaches), scenario=scenario)
        for b in report.baselines:
            assert b.as_oracle_par10 is None
            assert b.sbas_selector is None
            assert b.sbas_par10 is None
            assert b.oracle_par10 <= b.sbs_par10
        for s in report.summary:
            assert s.wins is None and s.losses is None

    def test_wins_losses_count_plain_rivals(self, toy_run):
        report, _ = toy_run
        plain_means = {
            s.approach: s.mean_npar10
            for s in report.summary
            if is_plain_selector(s.approach) and s.mean_npar10 is not None
        }
        for s in report.summary:
            if s.mean_npar10 is None:
                assert s.wins is None
                continue
            rivals = [v for p, v in plain_means.items() if p != s.approach]
            assert s.wins == sum(1 for v in rivals if v > s.mean_npar10)
            assert s.losses == sum(1 for v in rivals if v < s.mean_npar10)

    def test_avg_rank_is_the_mean_midrank(self, toy_run):
        report, _ = toy_run
        rank_sum = {a: 0.0 for a in report.approaches}
        seen = {a: 0 for a in report.approaches}
        for fold in report.folds:
            scored = [c for c in report.cells if c.fold == fold and c.par10 is not None]
            ranks = ranks_from_scores(np.array([c.par10 for c in scored]))
            for cell, rank in zip(scored, ranks):
                rank_sum[cell.approach] += float(rank)
                seen[cell.approach] += 1
        for s in report.summary:
            assert s.avg_rank == pytest.approx(rank_sum[s.approach] / seen[s.approach], abs=1e-12)

    def test_summary_stats_recompute(self, toy_run):
        report, _ = toy_run
        for s in report.summary:
            own = [c for c in report.cells if c.approach == s.approach]
            assert s.n_folds_evaluated == len(own)
            assert s.mean_par10 == pytest.approx(np.mean([c.par10 for c in own]), abs=1e-12)
            assert s.mean_npar10 == pytest.approx(np.mean([c.npar10 for c in own]), abs=1e-12)
            assert s.median_npar10 == pytest.approx(
                np.median([c.npar10 for c in own]), abs=1e-12
            )

    def test_fold_subset(self, toy):
        config = make_config(("oracle", "sbs", "sunny"), folds=(2, 4))
        report, _ = run_experiment(config, scenario=toy)
        assert report.folds == (2, 4)
        assert sorted({c.fold for c in report.cells}) == [2, 4]
        assert [b.fold for b in report.baselines] == [2, 4]

    def test_duplicate_folds_rejected(self, toy):
        config = make_config(("oracle", "sbs", "sunny"), folds=(1, 1))
        with pytest.raises(InvalidConfig, match="duplicate fold"):
            run_experiment(config, scenario=toy)

    def test_unknown_fold_rejected(self, toy):
        config = make_config(("oracle",), folds=(9,))
        with pytest.raises(InvalidConfig, match="folds"):
            run_experiment(config, scenario=toy)

    def test_a_one_fold_scenario_is_rejected_before_any_fit(self, monkeypatch):
        # holding out its only fold leaves no training rows for the SBS
        scenario = generate_synthetic(SyntheticConfig(n_instances=10, n_folds=1, seed=2))
        monkeypatch.setattr(runner, "_run_fold", _no_fold_may_run)
        config = make_config(("oracle", "sbs", "sunny"))
        with pytest.raises(InvalidConfig, match="at least two folds, scenario has 1"):
            run_experiment(config, scenario=scenario)
        with pytest.raises(InvalidConfig, match="at least two folds"):
            sweep_voting(scenario, ["sunny", "isac"], "maj")

    def test_config_still_validated_with_scenario_override(self, toy):
        config = ExperimentConfig(approaches=("oracle",), seed=-1)  # no source, a bad seed
        with pytest.raises(InvalidConfig, match="seed"):
            run_experiment(config, scenario=toy)

    def test_a_scenario_override_needs_no_source(self, toy):
        config = ExperimentConfig(approaches=("oracle", "sbs", "sunny"))
        report, _ = run_experiment(config, toy)
        assert report.approaches == ("oracle", "sbs", "sunny")
        assert all(cell.error is None for cell in report.cells)
        with pytest.raises(InvalidConfig, match="exactly one of scenario/synthetic"):
            run_config(config)

    def test_approaches_are_canonicalized(self, toy):
        config = make_config(("ORACLE", "Sunny ( k = 3 )"))
        report, _ = run_experiment(config, scenario=toy)
        assert report.approaches == ("oracle", "sunny(k=3)")

    def test_same_seed_reproduces_bytes(self, make_synthetic):
        scenario = make_synthetic(n_instances=24, n_folds=3, seed=11)
        config = make_config(("oracle", "sbs", "multiclass", "sunny"), seed=42)
        first, _ = run_experiment(config, scenario=scenario)
        second, _ = run_experiment(config, scenario=scenario)
        assert canonical_json(first) == canonical_json(second)

    def test_plain_cell_matches_direct_evaluation(self, toy, toy_run):
        from metaselect.metrics import score_trace
        from metaselect.runner import build_approach, selector_trace

        report, _ = toy_run
        fold = report.folds[0]
        train, test = toy.fold_split(fold)
        b = next(bl for bl in report.baselines if bl.fold == fold)
        model = build_approach("sunny(k=3)", 7)
        model.fit(toy, train)
        quality = score_trace(
            toy, selector_trace(model, toy, test), b.oracle_par10, b.sbs_par10
        )
        cell = next(
            c for c in report.cells if c.approach == "sunny(k=3)" and c.fold == fold
        )
        assert cell.par10 == quality.par10
        assert cell.npar10 == quality.npar10
        assert cell.n_timeouts == quality.n_timeouts

    def test_timings_sidecar(self, toy_run):
        report, _ = toy_run
        _, timings = toy_run
        fitted = {a for a in report.approaches if a not in ("oracle", "sbs")}
        assert set(timings) == fitted
        for spec, folds in timings.items():
            assert set(folds) == {str(f) for f in report.folds}
            for entry in folds.values():
                assert set(entry) == {"fit_seconds", "predict_seconds"}
                assert entry["fit_seconds"] >= 0.0
                assert entry["predict_seconds"] >= 0.0
        # wall-clock stays out of the reproducible report
        assert "seconds" not in canonical_json(report)


class TestConfigLoading:
    def test_yaml_round_trip(self, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            "scenario: scenarios/toy\n"
            "approaches: [oracle, sbs, 'sunny(k=3)']\n"
            "folds: [1, 2]\n"
            "seed: 9\n"
            "out: results/toy\n"
            "format: [json, csv]\n",
            encoding="utf-8",
        )
        config = load_config(cfg)
        assert config.scenario_path == "scenarios/toy"
        assert config.approaches == ("oracle", "sbs", "sunny(k=3)")
        assert config.folds == (1, 2)
        assert config.seed == 9
        assert config.out == "results/toy"
        assert config.formats == ("json", "csv")

    def test_json_is_accepted(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(
            json.dumps(
                {
                    "synthetic": {"n_instances": 20, "n_folds": 4},
                    "approaches": ["oracle", "multiclass"],
                }
            ),
            encoding="utf-8",
        )
        config = load_config(cfg)
        assert config.scenario_path is None
        assert config.synthetic.n_instances == 20
        assert config.formats == ("json",)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InvalidConfig, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_unparseable_text(self, tmp_path):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text("approaches: [unclosed\n", encoding="utf-8")
        with pytest.raises(InvalidConfig, match="not valid YAML"):
            load_config(cfg)

    @pytest.mark.parametrize(
        "mapping",
        [
            ["oracle"],  # not a mapping at all
            {"approaches": ["oracle"]},  # no data source
            {
                "approaches": ["oracle"],
                "scenario": "x",
                "synthetic": {"n_instances": 10},
            },  # both sources
            {"scenario": "x"},  # approaches missing
            {"scenario": "x", "approaches": "oracle"},  # not a list
            {"scenario": "x", "approaches": [1]},  # not strings
            {"scenario": "x", "approaches": ["orakle"]},  # bad grammar
            {"scenario": "x", "approaches": ["oracle"], "surprise": 1},
            {"scenario": "x", "approaches": ["oracle"], "folds": 3},
            {"scenario": "x", "approaches": ["oracle"], "folds": [1, True]},
            {"scenario": "x", "approaches": ["oracle"], "folds": []},
            {"scenario": "x", "approaches": ["oracle"], "seed": "7"},
            {"scenario": "x", "approaches": ["oracle"], "format": "xml"},
            {"approaches": ["oracle"], "synthetic": 5},
            {"approaches": ["oracle"], "synthetic": {"n_instanzes": 10}},
            {"approaches": ["oracle"], "scenario": 5},
            {"scenario": "x", "approaches": ["oracle"], "out": 7},
            {"scenario": "x", "approaches": ["oracle"], "format": 5},
            {"approaches": ["oracle"], "synthetic": {"n_instances": "x"}},
            {"approaches": ["oracle"], "synthetic": {"n_folds": 2.0}},
            {"approaches": ["oracle"], "synthetic": {"cutoff": True}},
            {"approaches": ["oracle"], "synthetic": {"rule": 3}},
            {"scenario": "x", "approaches": [OVER_GATE_EXHAUSTIVE]},
            {"approaches": ["oracle"], "synthetic": {"cutoff": float("nan")}},
            {"approaches": ["oracle"], "synthetic": {"feature_cost": float("nan")}},
            {"scenario": "x", "approaches": ["oracle"], "seed": -3},  # negative global seed
            {"approaches": ["oracle"], "synthetic": {"seed": -1}},
            {"scenario": "x", "approaches": ["peralgo(trees=2,seed=-1)"]},
            {"scenario": "x", "approaches": ["peralgo(depth=-7)"]},
            {"scenario": "x", "approaches": ["voting{sbs,pairwise(minleaf=-3)}"]},
        ],
    )
    def test_rejected_mappings(self, mapping):
        with pytest.raises(InvalidConfig):
            config_from_mapping(mapping)

    def test_format_accepts_bare_string(self):
        config = config_from_mapping(
            {"synthetic": {}, "approaches": ["oracle"], "format": "markdown"}
        )
        assert config.formats == ("markdown",)


class TestReportFormats:
    def test_canonical_json_is_stable(self, toy_run):
        report, _ = toy_run
        text = canonical_json(report)
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["schema"] == "metaselect-report-v1"
        assert data["scenario"]["name"] == report.scenario_name
        assert data["seed"] == 7
        cell_keys = [(c["approach"], c["fold"]) for c in data["cells"]]
        assert cell_keys == sorted(cell_keys)
        assert json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n" == text

    def test_cells_csv(self, toy_run):
        report, _ = toy_run
        rows = list(csv.reader(io.StringIO(cells_csv(report))))
        assert rows[0] == [
            "approach", "fold", "par10", "npar10", "n_timeouts", "n_test", "error",
        ]
        assert len(rows) == 1 + len(report.cells)
        oracle_rows = [r for r in rows[1:] if r[0] == "oracle"]
        assert all(r[3] == "0.0000" and r[6] == "" for r in oracle_rows)
        for r in rows[1:]:
            assert r[2] == f"{float(r[2]):.4f}"

    def test_error_cells_csv(self, err_run):
        report, _ = err_run
        rows = list(csv.reader(io.StringIO(cells_csv(report))))
        broken = [r for r in rows[1:] if r[0].startswith("ass")]
        assert broken
        for r in broken:
            assert r[2] == "" and r[3] == "" and r[4] == ""
            assert r[6].startswith("DegenerateTraining:")

    def test_summary_csv(self, toy_run):
        report, _ = toy_run
        rows = list(csv.reader(io.StringIO(summary_csv(report))))
        assert rows[0][:4] == ["approach", "n_folds_evaluated", "mean_par10", "mean_npar10"]
        names = [r[0] for r in rows[1:]]
        assert names == sorted(names)
        sbs_row = next(r for r in rows[1:] if r[0] == "sbs")
        assert sbs_row[3] == "1.0000"

    def test_baselines_csv(self, toy_run):
        report, _ = toy_run
        rows = list(csv.reader(io.StringIO(baselines_csv(report))))
        assert rows[0] == [
            "fold", "oracle_par10", "sbs_algorithm", "sbs_par10",
            "as_oracle_par10", "sbas_selector", "sbas_par10",
        ]
        folds = [int(r[0]) for r in rows[1:]]
        assert folds == sorted(folds)
        for r in rows[1:]:
            assert float(r[1]) <= float(r[4]) <= float(r[6])

    def test_markdown_layout(self, toy_run):
        report, _ = toy_run
        lines = markdown_summary(report).splitlines()
        assert lines[0] == "| Scenario | Approach | Mean nPAR10 | Median nPAR10 | Avg. Rank |"
        assert lines[1] == "| --- | --- | --- | --- | --- |"
        assert len(lines) == 2 + len(report.summary)
        for line in lines[2:]:
            assert len([c for c in line.split("|") if c.strip()]) == 5
        # the oracle is unbeatable, so its row carries the bold marker
        assert sum("**" in line for line in lines) == 1
        best = next(line for line in lines if "**" in line)
        assert "**oracle**" in best
        assert "0.0000 (" in best  # wins/losses annotation on the mean cell

    def test_markdown_failed_rows_sort_last(self, err_run):
        report, _ = err_run
        lines = markdown_summary(report).splitlines()
        assert lines[-1].split("|")[2].strip().startswith("ass")
        assert "| - | - | - |" in lines[-1].replace("  ", " ")

    def test_markdown_survives_multiple_failed_rows(self, make_synthetic):
        scenario = make_synthetic(n_instances=3, n_folds=3, seed=5)
        approaches = ("oracle", "ass{meta=sbs;bases=sbs}", "ass{meta=sbs;bases=peralgo}")
        report, _ = run_experiment(make_config(approaches), scenario=scenario)
        lines = markdown_summary(report).splitlines()
        assert len(lines) == 2 + 3

    def test_emit_report_writes_every_format(self, toy_run, tmp_path):
        report, timings = toy_run
        base = tmp_path / "results" / "toy"
        written = emit_report(report, base, ("json", "csv", "markdown"), timings=timings)
        names = sorted(p.name for p in written)
        assert names == [
            "toy.baselines.csv",
            "toy.cells.csv",
            "toy.json",
            "toy.md",
            "toy.summary.csv",
            "toy.timings.json",
        ]
        assert (tmp_path / "results" / "toy.json").read_text() == canonical_json(report)
        assert (tmp_path / "results" / "toy.md").read_text() == markdown_summary(report)
        sidecar = json.loads((tmp_path / "results" / "toy.timings.json").read_text())
        assert set(sidecar) == set(timings)

    def test_emit_report_unknown_format(self, toy_run, tmp_path):
        report, _ = toy_run
        with pytest.raises(InvalidConfig):
            emit_report(report, tmp_path / "x", ("xml",))


@pytest.fixture(scope="module")
def sweep(toy):
    return sweep_voting(
        toy, ["multiclass", "sunny(k=3)", "peralgo"], aggregation="maj", global_seed=3
    )


class TestSweepVoting:
    def test_every_nonempty_subset_in_mask_order(self, sweep):
        assert sweep.member_specs == ("multiclass", "sunny(k=3)", "peralgo")
        assert [r.members for r in sweep.rows] == [
            (0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2),
        ]

    def test_row_specs_are_canonical_voting_strings(self, sweep):
        from metaselect.approaches import canonical_approach_spec

        for row in sweep.rows:
            members = ",".join(sweep.member_specs[i] for i in row.members)
            assert row.spec == f"voting[maj]{{{members};search=all}}"
            assert canonical_approach_spec(row.spec) == row.spec

    def test_fold_values_average_to_the_row_mean(self, sweep, toy):
        for row in sweep.rows:
            assert len(row.fold_npar10) == len(toy.fold_ids())
            assert row.mean_npar10 == pytest.approx(np.mean(row.fold_npar10), abs=1e-12)

    def test_best_row_minimizes_mean_then_size(self, sweep):
        scored = [r for r in sweep.rows if r.mean_npar10 is not None]
        best = min(scored, key=lambda r: (r.mean_npar10, len(r.members), r.members))
        assert sweep.best_members == best.members
        assert sweep.best_spec == best.spec

    def test_singletons_match_plain_selector_runs(self, sweep, toy):
        config = make_config(("multiclass", "sunny(k=3)", "peralgo"), seed=3)
        report, _ = run_experiment(config, scenario=toy)
        means = {s.approach: s.mean_npar10 for s in report.summary}
        for i, spec in enumerate(sweep.member_specs):
            row = next(r for r in sweep.rows if r.members == (i,))
            assert row.mean_npar10 == pytest.approx(means[spec], abs=1e-12)

    def test_sweep_csv_layout(self, sweep, toy):
        rows = list(csv.reader(io.StringIO(sweep_csv(sweep))))
        fold_cols = [f"npar10_fold_{f}" for f in toy.fold_ids()]
        assert rows[0] == ["members", "size", "spec", "mean_par10", "mean_npar10"] + fold_cols
        assert len(rows) == 1 + 7
        assert rows[1][0] == "0" and rows[1][1] == "1"
        assert rows[-1][0] == "0+1+2" and rows[-1][1] == "3"

    @pytest.mark.parametrize(
        "members, agg",
        [
            (["multiclass", "multiclass"], "maj"),  # duplicates
            ([], "maj"),
            (["oracle"], "maj"),  # not a buildable selector
            (["voting[maj]{sbs}"], "maj"),  # members must be plain atoms
            (["multiclass"], "median"),  # unknown aggregation
            ([f"sunny(k={k})" for k in range(1, 17)], "maj"),  # over the gate
        ],
    )
    def test_rejected_sweeps(self, toy, members, agg):
        with pytest.raises(InvalidConfig):
            sweep_voting(toy, members, aggregation=agg)

    def test_sweep_over_duplicate_folds_is_rejected(self, toy):
        with pytest.raises(InvalidConfig, match="duplicate fold"):
            sweep_voting(toy, ["sbs"], folds=[1, 1])

    def test_sweep_over_no_folds_is_rejected(self, toy):
        with pytest.raises(InvalidConfig, match="at least one fold"):
            sweep_voting(toy, ["sbs"], folds=[])

    def test_checked_selector_spec(self):
        # sweep members go through the one atom reader, which knows no
        # oracle and no composite kind
        assert canonical_selector_spec(" SUNNY ( k = 7 ) ") == "sunny(k=7)"
        with pytest.raises(InvalidConfig):
            canonical_selector_spec("oracle")
        with pytest.raises(InvalidConfig):
            canonical_selector_spec("bagging{sunny;k=3}")

    def test_negative_global_seed_is_rejected(self, toy):
        with pytest.raises(InvalidConfig, match="seed"):
            sweep_voting(toy, ["peralgo(trees=2)"], global_seed=-2)


# -- degenerate training gap ------------------------------------------------


def one_winner_train_scenario() -> ScenarioSpec:
    """Algorithm 0 wins every instance of fold 2, so fold 1's training
    set has its single best equal to its oracle; fold 1 itself alternates
    winners, so its own test gap is positive."""
    n = 12
    fold1 = np.arange(n) < 6
    a1_wins = fold1 & (np.arange(n) % 2 == 1)
    return ScenarioSpec.create(
        name="one-winner",
        instances=[f"i{j:02d}" for j in range(n)],
        algorithms=["a0", "a1"],
        cutoff=100.0,
        runtimes=np.where(a1_wins[:, None], [5.0, 1.0], [1.0, 5.0]),
        solved=np.ones((n, 2), dtype=bool),
        features=np.arange(n, dtype=float)[:, None],
        folds=np.where(fold1, 1, 2),
    )


class TestDegenerateTrainGap:
    APPROACHES = (
        "sunny(k=2)",
        "stacking{meta=sunny(k=2);bases=sunny(k=2)}",
        "voting[wmaj]{sunny(k=2),isac(clusters=2)}",
        "bagging[wmaj]{sunny(k=2);k=3}",
        "voting[maj]{sunny(k=2),isac(clusters=2),sbs;search=exhaustive}",
    )

    def test_ensembles_score_the_fold_plain_selectors_score(self):
        sc = one_winner_train_scenario()
        train, _ = sc.fold_split(1)
        assert oracle_par10(sc, train) == fixed_algorithm_par10(
            sc, train, single_best(sc, train)
        )
        report, _ = run_experiment(make_config(self.APPROACHES), scenario=sc)
        fold1 = {c.approach: c for c in report.cells if c.fold == 1}
        assert len(fold1) == len(self.APPROACHES)
        for approach, cell in fold1.items():
            assert cell.error is None, (approach, cell.error)
            assert cell.npar10 is not None, approach

    def test_wmaj_sweep_completes(self):
        sweep = sweep_voting(
            one_winner_train_scenario(), ["sunny(k=2)", "isac(clusters=2)"], aggregation="wmaj"
        )
        assert [r.members for r in sweep.rows] == [(0,), (1,), (0, 1)]
        assert all(r.fold_npar10[0] is not None for r in sweep.rows)


# -- fits shared within a fold -------------------------------------------------

COMPOSITES = (
    VotingEnsemble,
    BaggingEnsemble,
    BoostingEnsemble,
    StackingEnsemble,
    AlgorithmSelectorSelector,
)


class TestSharedFits:
    APPROACHES = (
        "voting[maj]{sunny,multiclass}",
        "stacking{meta=sunny;bases=sunny}",
        "ass{meta=sbs;bases=sbs,sunny}",
        "boosting{multiclass;iters=2}",
        "boosting{sunny;iters=2}",
    )

    def fits_of_run(self, toy, monkeypatch, scoped=True):
        """(report, keys of the atom fits made on `toy`) of one run."""
        keys = []
        original = Selector.fit

        def counting_fit(model, scenario, rows):
            if scenario is toy and not isinstance(model, COMPOSITES):
                rows = np.asarray(rows, dtype=np.int64)
                keys.append((model.spec, tuple(model._entropy), rows.tobytes()))
            return original(model, scenario, rows)

        with monkeypatch.context() as patch:
            patch.setattr(Selector, "fit", counting_fit)
            if not scoped:
                patch.setattr(runner, "shared_fits", lambda scenario: contextlib.nullcontext())
            report, _ = run_experiment(make_config(self.APPROACHES), scenario=toy)
        assert all(c.error is None for c in report.cells)
        return report, keys

    def test_each_fit_runs_once_per_fold(self, toy, monkeypatch):
        report, keys = self.fits_of_run(toy, monkeypatch)
        unshared_report, unshared_keys = self.fits_of_run(toy, monkeypatch, scoped=False)
        assert canonical_json(report) == canonical_json(unshared_report)
        # the same fits, each made once instead of once per use
        assert max(Counter(keys).values()) == 1
        assert set(keys) == set(unshared_keys)
        assert len(unshared_keys) > len(keys)
        folds = len(toy.fold_ids())
        unsalted = Counter(spec for spec, entropy, _ in keys if len(entropy) == 2)
        # sunny: voting member, stacking base, ass deployed, boosting round one
        # multiclass: voting member, boosting round one; sbs: ass deployed
        assert unsalted == {"sunny": folds, "multiclass": folds, "sbs": folds}
        # salted fits stay separate: ass's inner fits (3 per fold, salted
        # by inner fold) plus the later rounds of boosting{sunny}
        salted_sunny = sum(1 for spec, entropy, _ in keys if spec == "sunny" and len(entropy) == 3)
        assert salted_sunny > 3 * folds

    def test_outside_a_scope_every_fit_is_fresh(self, toy):
        train, test = toy.fold_split(1)
        a = fit_selector("sunny", 0, toy, train)
        b = fit_selector("sunny", 0, toy, train)
        assert a is not b
        xs = toy.features[test]
        np.testing.assert_array_equal(a.scores_batch(xs), b.scores_batch(xs))

    def test_scope_shares_only_fits_on_its_own_scenario(self, toy):
        train, _ = toy.fold_split(1)
        copy = toy.with_features(toy.features.copy())
        with shared_fits(toy):
            first = fit_selector("sunny", 0, toy, train)
            assert fit_selector("sunny", 0, toy, train) is first
            assert fit_selector("sunny", 1, toy, train) is not first
            assert fit_selector("sunny", 0, toy, train[1:]) is not first
            on_copy = fit_selector("sunny", 0, copy, train)
            assert on_copy is not first
            assert fit_selector("sunny", 0, copy, train) is not on_copy
        assert fit_selector("sunny", 0, toy, train) is not first

    def test_a_failed_fit_is_attempted_once_and_keeps_no_frames(self, toy, broken_isac):
        train, _ = toy.fold_split(1)
        with shared_fits(toy):
            with pytest.raises(ValueError, match="boom") as first:
                fit_selector("isac", 0, toy, train)
            with pytest.raises(ValueError, match="boom") as again:
                fit_selector("isac", 0, toy, train)
            assert again.value is first.value
            assert broken_isac == ["isac"]
            frames = [f.f_code.co_name for f, _ in traceback.walk_tb(again.value.__traceback__)]
            assert "fit_selector" in frames and "broken_fit" not in frames
            with pytest.raises(ValueError):
                fit_selector("isac", 0, toy, train[1:])  # other rows: a fit of its own
            assert broken_isac == ["isac"] * 2
        with pytest.raises(ValueError):
            fit_selector("isac", 0, toy, train)  # the scope and its errors are gone
        assert broken_isac == ["isac"] * 3


class TestSharedScores:
    APPROACHES = (
        "sunny",
        "voting[wmaj]{sunny,isac}",
        "voting[borda]{sunny,isac;search=exhaustive}",
        "stacking{meta=sunny;bases=sunny,isac}",
    )

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count SunnySelector.scores_batch calls, patched on the class as
        the benchmark's tracer patches it."""
        calls = []
        original = SunnySelector.scores_batch

        def counting(model, x):
            calls.append(id(model))
            return original(model, x)

        monkeypatch.setattr(SunnySelector, "scores_batch", counting)
        return calls

    def test_a_hit_is_the_fresh_result_read_only(self, toy, counted):
        train, test = toy.fold_split(1)
        with shared_fits(toy):
            model = fit_selector("sunny", 0, toy, train)
            first = shared_scores(model, toy.features[test])
            again = shared_scores(model, toy.features[test].copy())
            assert again is first
            assert len(counted) == 1
            np.testing.assert_array_equal(first, model.scores_batch(toy.features[test]))
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0, 0] = 0.0

    def test_other_content_or_dtype_misses(self, toy, counted):
        train, test = toy.fold_split(1)
        x = toy.features[test]
        shifted = x.copy()
        shifted[0, 0] += 1.0
        with shared_fits(toy):
            model = fit_selector("sunny", 0, toy, train)
            first = shared_scores(model, x)
            assert shared_scores(model, shifted) is not first
            # equal bytes and shape, other dtype
            assert shared_scores(model, x.view(np.int64)) is not first
            assert shared_scores(model, x.astype(np.float32)) is not first
            assert shared_scores(model, x[:-1]) is not first
            assert len(counted) == 5
            assert shared_scores(model, x) is first

    def test_models_the_scope_does_not_hold_are_never_cached(self, toy, counted):
        train, test = toy.fold_split(1)
        x = toy.features[test]
        copy = toy.with_features(toy.features.copy())
        with shared_fits(toy):
            held = fit_selector("sunny", 0, toy, train)
            for model in (
                make_selector("sunny", 0).fit(toy, train),
                fit_selector("sunny", 0, copy, train),
            ):
                first = shared_scores(model, x)
                assert shared_scores(model, x) is not first
                assert first.flags.writeable
                np.testing.assert_array_equal(first, shared_scores(held, x))
        assert len(counted) == 5

    def test_nothing_is_cached_outside_or_after_a_scope(self, toy, counted):
        train, test = toy.fold_split(1)
        x = toy.features[test]
        outside = fit_selector("sunny", 0, toy, train)
        assert shared_scores(outside, x) is not shared_scores(outside, x)
        with shared_fits(toy):
            model = fit_selector("sunny", 0, toy, train)
            inside = shared_scores(model, x)
        after = shared_scores(model, x)
        assert after is not inside
        assert after.flags.writeable
        assert shared_scores(model, x) is not after
        assert len(counted) == 5

    def queries_of_run(self, toy, monkeypatch, cached=True):
        """(report, Counter of (kNN index, query rows)) of one run."""
        queries = Counter()
        indexes = []  # kept alive so that no two indexes share an id
        original = KnnIndex.query

        def counting_query(index, z, k):
            indexes.append(index)
            queries[(id(index), np.asarray(z).tobytes())] += 1
            return original(index, z, k)

        with monkeypatch.context() as patch:
            patch.setattr(KnnIndex, "query", counting_query)
            if not cached:
                for module in (selectors, ensembles, meta):
                    patch.setattr(module, "shared_scores", lambda model, x: model.scores_batch(x))
                patch.setattr(
                    selectors,
                    "shared_neighbours",
                    lambda model, z: model.index_.query(z, model.k_effective_),
                )
            report, _ = run_experiment(make_config(self.APPROACHES), scenario=toy)
        assert all(c.error is None for c in report.cells)
        return report, queries

    def test_each_model_scores_each_row_set_once_per_fold(self, toy, monkeypatch):
        report, queries = self.queries_of_run(toy, monkeypatch)
        uncached_report, uncached_queries = self.queries_of_run(toy, monkeypatch, cached=False)
        assert canonical_json(report) == canonical_json(uncached_report)
        assert max(queries.values()) == 1
        assert max(uncached_queries.values()) > 1
        assert sum(queries.values()) < sum(uncached_queries.values())



@pytest.fixture
def tripled():
    """A 60-instance scenario whose rows come in bit-identical triples, so
    every query's distances tie in threes and a tie straddles the 4th
    place; the first 48 rows (16 triples) train, the last 12 query."""
    base = generate_synthetic(SyntheticConfig(n_instances=60, n_algorithms=3, seed=5))
    return base.with_features(base.features[np.arange(60) // 3]), np.arange(48), np.arange(48, 60)


class TestSharedNeighbours:
    @pytest.fixture
    def queried(self, monkeypatch):
        """The k of every KnnIndex.query call."""
        ks = []
        original = KnnIndex.query

        def counting(index, z, k):
            ks.append(k)
            return original(index, z, k)

        monkeypatch.setattr(KnnIndex, "query", counting)
        return ks

    def test_a_prefix_of_a_wider_ranking_is_the_direct_query(self, tripled, queried):
        scenario, train, test = tripled
        with shared_fits(scenario):
            wide = fit_selector("sunny", 0, scenario, train)
            narrow = fit_selector("sunny(k=4)", 0, scenario, train)
            z = narrow.preprocessor_.transform(scenario.features[test])
            ranked = shared_neighbours(wide, z)
            hit = shared_neighbours(narrow, z)
            assert queried == [16]
            assert not hit.flags.writeable
            with pytest.raises(ValueError):
                hit[0, 0] = 0
        direct = narrow.index_.query(z, 4)
        train_z = wide.preprocessor_.transform(scenario.features[train])
        dists = np.sort(_kernels.pairwise_sq_dists(z, train_z), axis=1)
        assert (dists[:, 3] == dists[:, 4]).all()  # ties straddle the 4th place
        np.testing.assert_array_equal(hit, direct)
        np.testing.assert_array_equal(ranked[:, :4], direct)

    def test_a_wider_k_ranks_again(self, tripled, queried):
        scenario, train, test = tripled
        with shared_fits(scenario):
            narrow = fit_selector("sunny(k=4)", 0, scenario, train)
            wide = fit_selector("sunny", 0, scenario, train)
            z = narrow.preprocessor_.transform(scenario.features[test])
            first = shared_neighbours(narrow, z)
            ranked = shared_neighbours(wide, z)
            assert queried == [4, 16]
            np.testing.assert_array_equal(ranked, wide.index_.query(z, 16))
            np.testing.assert_array_equal(first, ranked[:, :4])
            # the wider ranking replaced the narrow one and serves both
            assert shared_neighbours(narrow, z).base is shared_neighbours(wide, z).base
            assert queried == [4, 16, 16]

    def test_unheld_models_and_calls_outside_a_scope_are_not_cached(self, tripled, queried):
        scenario, train, test = tripled
        x = scenario.features[test]
        outside = fit_selector("sunny", 0, scenario, train)
        z = outside.preprocessor_.transform(x)
        assert shared_neighbours(outside, z).flags.writeable
        with shared_fits(scenario):
            held = fit_selector("sunny", 0, scenario, train)
            shared_neighbours(held, z)
            unheld = make_selector("sunny", 0).fit(scenario, train)
            first = shared_neighbours(unheld, z)
            assert first.flags.writeable
            np.testing.assert_array_equal(first, shared_neighbours(held, z))
            shared_neighbours(unheld, z)
            shared_neighbours(outside, z)
        shared_neighbours(held, z)
        assert len(queried) == 6

    def test_other_index_rows_or_query_rows_miss(self, tripled, queried):
        scenario, train, test = tripled
        with shared_fits(scenario):
            model = fit_selector("sunny", 0, scenario, train)
            other = fit_selector("sunny", 0, scenario, train[:-1])
            z = model.preprocessor_.transform(scenario.features[test])
            shared_neighbours(model, z)
            shared_neighbours(other, z)
            shared_neighbours(model, z[:-1])
            shared_neighbours(model, z.astype(np.float32))
            assert len(queried) == 4
            shared_neighbours(model, z.copy())
            assert len(queried) == 4


# -- internal errors -----------------------------------------------------------


@pytest.fixture
def broken_isac(monkeypatch):
    """Make every isac fit raise a ValueError; returns the list of the
    specs whose fit was attempted."""
    attempts = []

    def broken_fit(self, scenario, train_indices):
        attempts.append(self.spec)
        raise ValueError("boom")

    monkeypatch.setattr(IsacSelector, "_fit", broken_fit)
    return attempts


class TestInternalErrors:
    def test_an_internal_error_fails_only_its_cells(self, toy, broken_isac):
        approaches = ("oracle", "sbs", "sunny", "isac", "voting[maj]{isac,sunny}")
        report, _ = run_experiment(make_config(approaches), scenario=toy)
        folds = len(toy.fold_ids())
        for cell in report.cells:
            if "isac" in cell.approach:
                assert cell.error == "internal: ValueError: boom"
                assert cell.par10 is None
            else:
                assert cell.error is None
                assert cell.par10 is not None
        assert len(internal_error_cells(report)) == 2 * folds
        # a failed fit fails once per fold: voting's isac member raises
        # the cell's error again instead of attempting the fit again
        assert broken_isac == ["isac"] * folds

    def test_library_errors_are_not_internal(self, err_run):
        report, _ = err_run
        assert any(c.error for c in report.cells)
        assert internal_error_cells(report) == []

    def test_evaluate_writes_reports_then_exits_2(self, tmp_path, broken_isac):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            f"scenario: {TOY_DIR}\napproaches: [oracle, sbs, sunny, isac]\n", encoding="utf-8"
        )
        base = tmp_path / "run"
        result = invoke("--out", str(base), "evaluate", str(cfg))
        assert result.exit_code == 2
        assert "error: isac, fold 1: internal: ValueError: boom" in stderr_of(result)
        cells = json.loads((tmp_path / "run.json").read_text())["cells"]
        assert {c["approach"] for c in cells if c["error"]} == {"isac"}

    def test_baselines_exits_2(self, tmp_path, broken_isac):
        base = tmp_path / "base"
        result = invoke("--out", str(base), "baselines", "--scenario", str(TOY_DIR))
        assert result.exit_code == 2
        assert (tmp_path / "base.json").exists()
        assert result.stdout.startswith("fold,")


def aslib_shaped(seed=0, n=90, k=31, d=8):
    """An ASlib-shaped scenario: 31 algorithms, about half of all runs
    timed out, five instances no algorithm solves, two constant feature
    columns, about 5 % `?` feature cells, and a one-instance fold."""
    rng = np.random.default_rng(seed)
    cutoff = 300.0
    solved = rng.random((n, k)) < 0.5
    solved[:5] = False
    runtimes = np.where(solved, np.round(rng.uniform(1.0, cutoff, size=(n, k)), 2), cutoff)
    features = rng.normal(size=(n, d))
    features[:, 0] = 1.0
    features[:, 1] = 0.0
    features[rng.random((n, d)) < 0.05] = np.nan
    folds = np.arange(n) % 4 + 1
    folds[-1] = 5
    return ScenarioSpec.create(
        name="aslib-shaped",
        instances=[f"inst-{i:03d}" for i in range(n)],
        algorithms=[f"algo-{j:02d}" for j in range(k)],
        cutoff=cutoff,
        runtimes=runtimes,
        solved=solved,
        features=features,
        feature_costs=np.round(rng.uniform(0.0, 3.0, size=n), 2),
        folds=folds,
    )


class TestAslibShapedStress:
    """Every family over a scenario shaped like an ASlib one scores, or
    fails with a typed error, and reruns byte-identically."""

    APPROACHES = (
        "oracle",
        "sbs",
        "peralgo(trees=2)",
        "multiclass(trees=3)",
        "pairwise(trees=1)",
        "sunny",
        "isac",
        "voting[maj]{sunny,isac,multiclass(trees=3)}",
        "voting[borda]{sunny,isac,multiclass(trees=3);search=exhaustive}",
        "bagging{sunny;k=3}",
        "boosting{multiclass(trees=3);iters=3}",
        "stacking{meta=sunny;bases=sunny,isac}",
        "stacking{meta=multiclass(trees=3);bases=sunny,isac;fs=vt(0.16);split=disjoint(0.7)}",
        "ass{meta=sunny;bases=sunny,isac,sbs}",
    )
    SWEEP = (("sunny", "isac", "multiclass(trees=3)"), "borda")

    def test_every_cell_scores_or_fails_typed_and_reruns_identically(self, tmp_path):
        scenario = load_scenario(write_scenario(aslib_shaped(), tmp_path / "aslib-shaped"))
        assert scenario.n_algorithms == 31
        assert 0.45 < 1 - scenario.solved.mean() < 0.55
        assert (~scenario.solved.any(axis=1)).sum() == 5
        assert np.isnan(scenario.features).any()
        assert (np.nanstd(scenario.features, axis=0) == 0).sum() == 2
        assert min(np.sum(scenario.folds == f) for f in scenario.fold_ids()) == 1
        config = make_config(self.APPROACHES, sweeps=(self.SWEEP,))

        report, _, (sweep,) = run_config(config, scenario)
        assert len(report.cells) == len(self.APPROACHES) * 5
        assert internal_error_cells(report) == []
        assert not any(text.startswith("internal:") for _, text in sweep.errors)
        assert all((c.error is None) == (c.par10 is not None) for c in report.cells)
        rerun, _, (rerun_sweep,) = run_config(config, scenario)
        assert canonical_json(rerun) == canonical_json(report)
        assert sweep_json(rerun_sweep) == sweep_json(sweep)


def _no_fold_may_run(*args, **kwargs):
    raise AssertionError("a fold ran")


def invoke(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


def stderr_of(result):
    try:
        return result.stderr
    except ValueError:
        return ""


class TestCli:
    def write_config(self, tmp_path, scenario_dir, extra=""):
        path = tmp_path / "exp.yaml"
        path.write_text(
            f"scenario: {scenario_dir}\napproaches: [oracle, sbs, sunny]\n{extra}",
            encoding="utf-8",
        )
        return path

    def test_evaluate_prints_markdown(self, tmp_path):
        cfg = self.write_config(tmp_path, TOY_DIR)
        result = invoke("evaluate", str(cfg))
        assert result.exit_code == 0
        assert result.stdout.startswith(
            "| Scenario | Approach | Mean nPAR10 | Median nPAR10 | Avg. Rank |"
        )
        assert "**oracle**" in result.output

    def test_evaluate_writes_requested_formats(self, tmp_path):
        cfg = self.write_config(tmp_path, TOY_DIR)
        base = tmp_path / "out" / "run"
        result = invoke("--out", str(base), "--format", "csv", "evaluate", str(cfg))
        assert result.exit_code == 0
        produced = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert produced == [
            "run.baselines.csv", "run.cells.csv", "run.summary.csv", "run.timings.json",
        ]
        assert "wrote" in stderr_of(result)

    def test_evaluate_seed_override_lands_in_report(self, tmp_path):
        cfg = self.write_config(tmp_path, TOY_DIR, extra="seed: 0\n")
        base = tmp_path / "report"
        result = invoke("--seed", "5", "--out", str(base), "evaluate", str(cfg))
        assert result.exit_code == 0
        assert json.loads((tmp_path / "report.json").read_text())["seed"] == 5

    def test_evaluate_negative_seed_override_exits_1_before_running(self, tmp_path):
        cfg = self.write_config(tmp_path, TOY_DIR)
        result = invoke("--seed", "-3", "evaluate", str(cfg))
        assert result.exit_code == 1
        assert stderr_of(result).startswith("error: seed must be nonnegative")
        assert result.stdout == ""

    def test_evaluate_missing_config_exits_1(self, tmp_path):
        result = invoke("evaluate", str(tmp_path / "absent.yaml"))
        assert result.exit_code == 1
        assert stderr_of(result).startswith("error:")

    def test_evaluate_bad_out_exits_1_before_running(self, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(f"scenario: {TOY_DIR}\napproaches: [oracle]\nout: 7\n", encoding="utf-8")
        result = invoke("evaluate", str(cfg))
        assert result.exit_code == 1
        assert stderr_of(result).startswith("error: out must be of type str")
        assert result.stdout == ""

    def test_evaluate_over_gate_exhaustive_voting_exits_1_before_running(self, tmp_path):
        # the voting constructor gates exhaustive search at 15 members;
        # config load applies the same rule, so no fold runs
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            f"scenario: {TOY_DIR}\napproaches: [oracle, '{OVER_GATE_EXHAUSTIVE}']\n",
            encoding="utf-8",
        )
        result = invoke("evaluate", str(cfg))
        assert result.exit_code == 1
        assert stderr_of(result).startswith("error: exhaustive search gated at 15 members")
        assert result.stdout == ""

    @pytest.mark.parametrize(
        "approach, message",
        [
            ("sunny(k=0)", "sunny(k=0): k must be positive"),
            ("isac(clusters=0)", "isac(clusters=0): clusters must be positive"),
            ("peralgo(trees=0)", "peralgo(trees=0): trees must be positive"),
            ("voting{sbs,pairwise(mtry=0)}", "pairwise(mtry=0): mtry must be positive"),
        ],
    )
    def test_evaluate_nonpositive_selector_value_exits_1_before_running(
        self, tmp_path, approach, message
    ):
        # the selector constructors check these values, and config load
        # builds every atom, so no fold runs
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            f"scenario: {TOY_DIR}\napproaches: [oracle, '{approach}']\n", encoding="utf-8"
        )
        result = invoke("evaluate", str(cfg))
        assert result.exit_code == 1
        assert stderr_of(result).startswith(f"error: {message}")
        assert result.stdout == ""

    def test_sweep_rejects_a_nonpositive_member_value(self):
        result = invoke("sweep-voting", "--scenario", str(TOY_DIR), "--member", "sunny(k=0)")
        assert result.exit_code == 1
        assert stderr_of(result).startswith("error: sunny(k=0): k must be positive")

    @pytest.mark.parametrize("command", ["sweep-voting", "baselines"])
    def test_duplicate_fold_option_exits_1(self, command):
        member = ["--member", "sbs"] if command == "sweep-voting" else []
        result = invoke(command, "--scenario", str(TOY_DIR), *member, "--folds", "1,1")
        assert result.exit_code == 1
        assert stderr_of(result).startswith("error: duplicate fold ids")

    def test_evaluate_bad_approach_exits_1(self, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(f"scenario: {TOY_DIR}\napproaches: [orakle]\n", encoding="utf-8")
        assert invoke("evaluate", str(cfg)).exit_code == 1

    def test_evaluate_synthetic_source(self, tmp_path):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            "synthetic: {n_instances: 20, n_folds: 4, seed: 1}\n"
            "approaches: [oracle, sbs, multiclass]\n",
            encoding="utf-8",
        )
        result = invoke("evaluate", str(cfg))
        assert result.exit_code == 0
        assert result.stdout.count("\n") == 2 + 3

    def test_sweep_voting_stdout_and_best(self):
        result = invoke(
            "sweep-voting", "--scenario", str(TOY_DIR),
            "--member", "multiclass", "--member", "sunny,peralgo",
        )
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows[0][:5] == ["members", "size", "spec", "mean_par10", "mean_npar10"]
        assert len(rows) == 1 + 7
        assert "best: voting[maj]{" in stderr_of(result)

    def test_sweep_voting_duplicate_member_exits_1(self):
        result = invoke(
            "sweep-voting", "--scenario", str(TOY_DIR),
            "--member", "sunny", "--member", "sunny",
        )
        assert result.exit_code == 1

    def test_sweep_voting_one_fold_scenario_exits_1(self, tmp_path):
        # a single-fold scenario would give every sweep member an empty
        # train set; it is rejected as a config error before any fit
        scenario = generate_synthetic(SyntheticConfig(n_instances=10, n_folds=1, seed=2))
        dest = tmp_path / "onefold"
        write_scenario(scenario, dest)
        result = invoke("sweep-voting", "--scenario", str(dest), "--member", "sunny")
        assert result.exit_code == 1
        assert stderr_of(result).startswith(
            "error: cross-validation needs at least two folds, scenario has 1"
        )

    def test_evaluate_one_fold_scenario_exits_1_and_writes_nothing(self, tmp_path):
        scenario = generate_synthetic(SyntheticConfig(n_instances=10, n_folds=1, seed=2))
        dest = tmp_path / "onefold"
        write_scenario(scenario, dest)
        cfg = self.write_config(tmp_path, dest)
        out = tmp_path / "out"
        result = invoke("--out", str(out / "run"), "evaluate", str(cfg))
        assert result.exit_code == 1
        assert stderr_of(result).startswith(
            "error: cross-validation needs at least two folds, scenario has 1"
        )
        assert result.stdout == ""
        assert not out.exists()

    def test_baselines_csv_on_stdout(self):
        result = invoke("baselines", "--scenario", str(TOY_DIR), "--folds", "1,2")
        assert result.exit_code == 0
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert rows[0][0] == "fold"
        assert [r[0] for r in rows[1:]] == ["1", "2"]
        for r in rows[1:]:
            assert float(r[1]) <= float(r[4]) <= float(r[6])

    def test_validate_scenario_reports_shape(self):
        result = invoke("validate-scenario", str(TOY_DIR))
        assert result.exit_code == 0
        assert "30 instances" in result.output
        assert "3 algorithms" in result.output

    def test_validate_scenario_rejects_junk_dir(self, tmp_path):
        result = invoke("validate-scenario", str(tmp_path))
        assert result.exit_code == 1
        assert stderr_of(result).startswith("error:")

    def test_validate_scenario_rejects_a_fractional_fold(self, tmp_path):
        dst = tmp_path / "tiny"
        shutil.copytree(TOY_TINY_DIR, dst)
        cv = dst / "cv.arff"
        cv.write_text(cv.read_text().replace("inst_a,1,1", "inst_a,1,2.5"))
        result = invoke("validate-scenario", str(dst))
        assert result.exit_code == 1
        assert "no integer fold" in stderr_of(result)

    def test_generate_synthetic_round_trips(self, tmp_path):
        from metaselect.aslib import load_scenario

        dest = tmp_path / "made"
        result = invoke(
            "--seed", "4", "generate-synthetic", "--instances", "30",
            "--folds", "3", "--dest", str(dest),
        )
        assert result.exit_code == 0
        scenario = load_scenario(dest)
        assert scenario.n_instances == 30
        assert tuple(scenario.fold_ids()) == (1, 2, 3)

    def test_generate_synthetic_is_seed_deterministic(self, tmp_path):
        from metaselect.aslib import load_scenario

        a, b = tmp_path / "a", tmp_path / "b"
        assert invoke("--seed", "4", "generate-synthetic", "--dest", str(a)).exit_code == 0
        assert invoke("--seed", "4", "generate-synthetic", "--dest", str(b)).exit_code == 0
        np.testing.assert_array_equal(
            load_scenario(a).features, load_scenario(b).features
        )

    def test_no_args_shows_usage(self):
        result = CliRunner().invoke(main, [])
        assert "Usage" in result.output
