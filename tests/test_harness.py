"""End-to-end runner, report serialization, config loading, and the CLI."""

import csv
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import TOY_DIR

from metaselect.cli import main
from metaselect.config import ExperimentConfig, config_from_mapping, load_config
from metaselect.errors import InvalidConfig, MetaselectError
from metaselect.metrics import fixed_algorithm_par10, oracle_par10, single_best
from metaselect.aggregation import ranks_from_scores
from metaselect.aslib import write_scenario
from metaselect.report import (
    baselines_csv,
    canonical_json,
    cells_csv,
    emit_report,
    markdown_summary,
    summary_csv,
    sweep_csv,
)
from metaselect.runner import (
    canonical_selector_spec_checked,
    is_plain_selector,
    run_experiment,
    sweep_voting,
)
from metaselect.scenario import ScenarioSpec
from metaselect.synthetic import SyntheticConfig, generate_synthetic

# a dummy synthetic block satisfies "exactly one source" when the
# scenario itself is passed to run_experiment directly
DUMMY_SOURCE = SyntheticConfig(n_instances=12, n_folds=2)

TOY_APPROACHES = (
    "oracle",
    "sbs",
    "multiclass",
    "sunny(k=3)",
    "voting[maj]{multiclass,sunny;search=all}",
)


def make_config(approaches, **overrides):
    base = dict(approaches=tuple(approaches), synthetic=DUMMY_SOURCE, seed=7)
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

    def test_unknown_fold_rejected(self, toy):
        config = make_config(("oracle",), folds=(9,))
        with pytest.raises(InvalidConfig, match="folds"):
            run_experiment(config, scenario=toy)

    def test_config_still_validated_with_scenario_override(self, toy):
        config = ExperimentConfig(approaches=("oracle",), seed=0)  # no source at all
        with pytest.raises(InvalidConfig):
            run_experiment(config, scenario=toy)

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

    def test_checked_selector_spec(self):
        assert canonical_selector_spec_checked(" SUNNY ( k = 7 ) ") == "sunny(k=7)"
        with pytest.raises(InvalidConfig):
            canonical_selector_spec_checked("oracle")
        with pytest.raises(InvalidConfig):
            canonical_selector_spec_checked("bagging{sunny;k=3}")


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

    def test_evaluate_missing_config_exits_1(self, tmp_path):
        result = invoke("evaluate", str(tmp_path / "absent.yaml"))
        assert result.exit_code == 1
        assert stderr_of(result).startswith("error:")

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

    def test_sweep_voting_runtime_failure_exits_2(self, tmp_path):
        # a single-fold scenario gives every sweep member an empty train
        # set; that failure is computational, not a config problem
        scenario = generate_synthetic(SyntheticConfig(n_instances=10, n_folds=1, seed=2))
        dest = tmp_path / "onefold"
        write_scenario(scenario, dest)
        result = invoke("sweep-voting", "--scenario", str(dest), "--member", "sunny")
        assert result.exit_code == 2
        assert stderr_of(result).startswith("error:")

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
