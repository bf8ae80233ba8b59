"""Voting sweeps listed in a config: one fold loop with the approach
cells, one validator for config load and `sweep_voting`, a failing
sweep fold recorded rather than fatal, and the CLI commands that build
such configs."""

import csv
import io
import json
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import TOY_DIR

from metaselect.cli import main
from metaselect.config import ExperimentConfig, config_from_mapping
from metaselect.ensembles import VotingEnsemble
from metaselect.errors import DegenerateData, InvalidConfig
from metaselect.report import canonical_json, sweep_csv, sweep_json, sweep_markdown
from metaselect.runner import run_config, run_experiment, sweep_voting
from metaselect.selectors import IsacSelector, Selector

MEMBERS = ("sunny", "isac", "multiclass(trees=5)")

# every sweep that `sweep_voting` rejects, as (members, aggregation)
REJECTED_SWEEPS = [
    (["multiclass", "multiclass"], "maj"),  # duplicates
    ([], "maj"),
    (["oracle"], "maj"),  # not a buildable selector
    (["voting[maj]{sbs}"], "maj"),  # members must be plain atoms
    (["multiclass"], "median"),  # unknown aggregation
    ([f"sunny(k={k})" for k in range(1, 17)], "maj"),  # over the gate
    (["sunny(k=0)"], "maj"),  # a value the atom's constructor rejects
]


def invoke(*args):
    return CliRunner().invoke(main, [str(a) for a in args], catch_exceptions=False)


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def toy_config(approaches=(), sweeps=(), **fields):
    return ExperimentConfig(
        approaches=approaches, sweeps=sweeps, scenario_path=str(TOY_DIR), **fields
    )


class TestSweepConfig:
    def test_sweeps_key_is_read(self):
        config = config_from_mapping(
            {
                "scenario": "fixtures/toy",
                "sweeps": [
                    {"members": ["sunny", "isac"], "aggregation": "borda"},
                    {"members": ["sbs"]},
                ],
            }
        )
        assert config.approaches == ()
        assert config.sweeps == ((("sunny", "isac"), "borda"), (("sbs",), "maj"))

    @pytest.mark.parametrize("members, aggregation", REJECTED_SWEEPS)
    def test_config_load_rejects_what_sweep_voting_rejects(self, toy, members, aggregation):
        with pytest.raises(InvalidConfig):
            sweep_voting(toy, members, aggregation=aggregation)
        document = {"scenario": "fixtures/toy", "approaches": ["sbs"],
                    "sweeps": [{"members": members, "aggregation": aggregation}]}
        with pytest.raises(InvalidConfig):
            config_from_mapping(document)

    @pytest.mark.parametrize(
        "sweeps",
        [
            "sunny",
            ["sunny"],
            [{"members": "sunny"}],
            [{"members": ["sunny"], "agg": "maj"}],
            [{"aggregation": "maj"}],
            [{"members": ["sunny"], "aggregation": 3}],
        ],
    )
    def test_malformed_sweeps_are_rejected(self, sweeps):
        with pytest.raises(InvalidConfig):
            config_from_mapping({"scenario": "fixtures/toy", "sweeps": sweeps})

    def test_a_config_scores_something(self):
        with pytest.raises(InvalidConfig, match="at least one approach or sweep"):
            config_from_mapping({"scenario": "fixtures/toy"})


class TestOneFoldLoop:
    def fits_of(self, toy, monkeypatch, config):
        """(report, sweeps, (spec, training rows) of every member fit) of
        one run; the sweeps' own `VotingEnsemble` fits are not counted."""
        fits = []
        original = Selector.fit

        def counting_fit(model, scenario, rows):
            if not isinstance(model, VotingEnsemble):
                fits.append((model.spec, np.asarray(rows, dtype=np.int64).tobytes()))
            return original(model, scenario, rows)

        monkeypatch.setattr(Selector, "fit", counting_fit)
        report, _, sweeps = run_config(config, toy)
        return report, sweeps, fits

    @pytest.mark.parametrize("aggregation", ["maj", "wmaj", "borda"])
    def test_members_scored_as_cells_are_trained_once_per_fold(
        self, toy, monkeypatch, aggregation
    ):
        config = toy_config(MEMBERS, sweeps=((MEMBERS, aggregation),), seed=3)
        report, (sweep,), fits = self.fits_of(toy, monkeypatch, config)
        assert all(cell.error is None for cell in report.cells)
        # three members, each trained once on each fold's training rows
        assert max(Counter(fits).values()) == 1
        assert len(fits) == len(MEMBERS) * len(toy.fold_ids())
        assert Counter(spec for spec, _ in fits) == {
            spec: len(toy.fold_ids()) for spec in MEMBERS
        }
        monkeypatch.undo()
        alone = sweep_voting(toy, MEMBERS, aggregation=aggregation, global_seed=3)
        assert sweep_json(sweep) == sweep_json(alone)
        without_sweep, _ = run_experiment(toy_config(MEMBERS, seed=3), toy)
        assert canonical_json(report) == canonical_json(without_sweep)

    def test_sweeps_keep_config_order_and_fold_subset(self, toy):
        sweeps = ((("sbs", "sunny"), "mean"), (("isac",), "maj"))
        _, _, reports = run_config(toy_config(sweeps=sweeps, folds=(2, 1)), toy)
        assert [(r.member_specs, r.aggregation) for r in reports] == list(sweeps)
        assert all(r.folds == (2, 1) for r in reports)
        alone = sweep_voting(toy, ["sbs", "sunny"], aggregation="mean", folds=[2, 1])
        assert sweep_json(reports[0]) == sweep_json(alone)

    def test_a_sweeps_only_run_has_baselines_and_no_cells(self, toy):
        report, _, _ = run_config(toy_config(sweeps=((("sunny",), "maj"),)), toy)
        assert report.cells == () and report.approaches == ()
        assert [b.fold for b in report.baselines] == toy.fold_ids()

    def test_sweep_voting_validates_like_a_config(self, toy):
        with pytest.raises(InvalidConfig, match="seed"):
            sweep_voting(toy, ["sunny"], global_seed=-1)
        with pytest.raises(InvalidConfig, match="not present"):
            sweep_voting(toy, ["sunny"], folds=[9])


FAILING_FOLD = 2
# (exception raised, error text recorded)
INJECTED = [
    (DegenerateData, "DegenerateData: injected"),
    (ValueError, "internal: ValueError: injected"),
]


def inject_isac_failure(monkeypatch, scenario, exception):
    """Make every ISAC fit on FAILING_FOLD's training rows raise; returns
    the list of the specs whose fit on those rows was attempted."""
    train, _ = scenario.fold_split(FAILING_FOLD)
    original = IsacSelector._fit
    attempts = []

    def failing_fit(model, scenario, train_indices):
        if np.array_equal(train_indices, train):
            attempts.append(model.spec)
            raise exception("injected")
        return original(model, scenario, train_indices)

    monkeypatch.setattr(IsacSelector, "_fit", failing_fit)
    return attempts


class TestSweepFailure:
    SWEEPS = ((("sunny", "isac"), "maj"), (("sunny", "sbs"), "borda"))

    @pytest.mark.parametrize("exception, recorded", INJECTED)
    def test_a_failing_member_leaves_its_fold_missing(
        self, toy, monkeypatch, exception, recorded
    ):
        config = toy_config(("sunny", "isac"), sweeps=self.SWEEPS)
        clean, _, (clean_sweep, clean_other) = run_config(config, toy)
        inject_isac_failure(monkeypatch, toy, exception)
        report, _, (sweep, other) = run_config(config, toy)
        # the cells score as in the clean run, but for the ISAC cell of that fold
        failed = ("isac", FAILING_FOLD)
        assert [c for c in report.cells if (c.approach, c.fold) != failed] == [
            c for c in clean.cells if (c.approach, c.fold) != failed
        ]
        (cell,) = [c for c in report.cells if (c.approach, c.fold) == failed]
        assert cell.par10 is None and cell.error == recorded
        # the sweep without ISAC is untouched, to the byte
        assert sweep_json(other) == sweep_json(clean_other)
        assert sweep.errors == ((FAILING_FOLD, recorded),)
        assert json.loads(sweep_json(sweep))["errors"] == [
            {"fold": FAILING_FOLD, "error": recorded}
        ]
        at = toy.fold_ids().index(FAILING_FOLD)
        for row, clean_row in zip(sweep.rows, clean_sweep.rows, strict=True):
            assert row.members == clean_row.members
            assert row.fold_npar10[at] is None
            assert row.fold_npar10[:at] + row.fold_npar10[at + 1 :] == (
                clean_row.fold_npar10[:at] + clean_row.fold_npar10[at + 1 :]
            )
        # a clean sweep reports no errors entry in any format
        assert "errors" not in json.loads(sweep_json(clean_sweep))
        assert "error" not in sweep_csv(clean_sweep) + sweep_markdown(clean_sweep)

    def test_a_sweep_failing_on_every_fold_still_reports(self, toy, monkeypatch):
        def failing_fit(model, scenario, train_indices):
            raise DegenerateData("injected")

        monkeypatch.setattr(IsacSelector, "_fit", failing_fit)
        _, _, (sweep,) = run_config(toy_config(sweeps=((("isac",), "maj"),)), toy)
        assert [fold for fold, _ in sweep.errors] == toy.fold_ids()
        (row,) = sweep.rows
        assert row.mean_par10 is None and row.mean_npar10 is None
        assert set(row.fold_npar10) == {None}
        # nothing scored, so no composition is named best
        assert sweep.best_members is None and sweep.best_spec is None
        assert json.loads(sweep_json(sweep))["best"] is None
        assert "**" not in sweep_markdown(sweep)
        result = invoke("sweep-voting", "--scenario", TOY_DIR, "--member", "isac")
        assert result.exit_code == 2
        assert "best:" not in result.stderr
        assert result.stderr.count("DegenerateData: injected") == len(toy.fold_ids())

    def test_evaluate_and_sweep_voting_exit_2_after_writing(self, toy, monkeypatch, tmp_path):
        inject_isac_failure(monkeypatch, toy, DegenerateData)
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            f"scenario: {TOY_DIR}\n"
            "approaches: [sunny, isac]\n"
            "sweeps:\n"
            "  - {members: [sunny, isac]}\n",
            encoding="utf-8",
        )
        result = invoke("--out", tmp_path / "run", "evaluate", cfg)
        assert result.exit_code == 2
        assert f"error: sweep 1, fold {FAILING_FOLD}: DegenerateData: injected" in result.stderr
        assert read_json(tmp_path / "run.json")["approaches"] == ["sunny", "isac"]
        assert read_json(tmp_path / "run.sweep1.json")["errors"] == [
            {"fold": FAILING_FOLD, "error": "DegenerateData: injected"}
        ]
        result = invoke(
            "--out", tmp_path / "alone", "sweep-voting", "--scenario", TOY_DIR,
            "--member", "sunny,isac",
        )
        assert result.exit_code == 2
        assert "best: voting[maj]{" in result.stderr  # the other folds still score
        assert f"error: sweep 1, fold {FAILING_FOLD}: DegenerateData: injected" in result.stderr
        assert (tmp_path / "alone.json").read_bytes() == (tmp_path / "run.sweep1.json").read_bytes()


class TestFaultInjection:
    """One failing member fit, shared by a cell, a voting member, a
    stacking base, an `ass` deployed base and a sweep member."""

    APPROACHES = (
        "oracle",
        "sbs",
        "sunny",
        "isac",
        "voting[maj]{sunny,isac}",
        "stacking{meta=sunny;bases=sunny,isac}",
        "ass{meta=sunny;bases=sunny,isac}",
    )

    @pytest.mark.parametrize("exception, recorded", INJECTED)
    def test_every_layer_fails_on_one_attempt_with_one_error(
        self, toy, monkeypatch, exception, recorded
    ):
        config = toy_config(self.APPROACHES, sweeps=((("sunny", "isac"), "maj"),))
        clean, _, (clean_sweep,) = run_config(config, toy)
        assert all(c.error is None for c in clean.cells)
        attempts = inject_isac_failure(monkeypatch, toy, exception)
        report, _, (sweep,) = run_config(config, toy)
        assert attempts == ["isac"]
        # on the injected fold every approach holding isac fails alike
        failed = {(a, FAILING_FOLD) for a in report.approaches if "isac" in a}
        assert len(failed) == 4
        assert {(c.approach, c.fold): c.error for c in report.cells if c.error} == dict.fromkeys(
            failed, recorded
        )
        assert sweep.errors == ((FAILING_FOLD, recorded),)
        # every other cell and sweep fold equals the clean run's
        assert [c for c in report.cells if (c.approach, c.fold) not in failed] == [
            c for c in clean.cells if (c.approach, c.fold) not in failed
        ]
        at = toy.fold_ids().index(FAILING_FOLD)
        for row, clean_row in zip(sweep.rows, clean_sweep.rows, strict=True):
            assert row.fold_npar10[:at] + row.fold_npar10[at + 1 :] == (
                clean_row.fold_npar10[:at] + clean_row.fold_npar10[at + 1 :]
            )
        rerun, _, (rerun_sweep,) = run_config(config, toy)
        assert attempts == ["isac", "isac"]
        assert canonical_json(rerun) == canonical_json(report)
        assert sweep_json(rerun_sweep) == sweep_json(sweep)


class TestCli:
    def test_evaluate_writes_each_sweep_as_sweep_voting_does(self, tmp_path):
        formats = ["--format", "json", "--format", "csv", "--format", "markdown"]
        command = invoke(
            "--out", tmp_path / "alone", *formats, "sweep-voting", "--scenario", TOY_DIR,
            "--member", "sunny", "--member", "multiclass(trees=5),isac", "--agg", "borda",
        )
        assert command.exit_code == 0
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(
            f"scenario: {TOY_DIR}\n"
            "approaches: [sunny]\n"
            "sweeps:\n"
            "  - {members: [sbs]}\n"
            "  - {members: [sunny, 'multiclass(trees=5)', isac], aggregation: borda}\n",
            encoding="utf-8",
        )
        result = invoke("--out", tmp_path / "run", *formats, "evaluate", cfg)
        assert result.exit_code == 0
        for suffix in (".json", ".csv", ".md"):
            alone = (tmp_path / f"alone{suffix}").read_bytes()
            assert (tmp_path / f"run.sweep2{suffix}").read_bytes() == alone
            assert (tmp_path / f"run.sweep1{suffix}").exists()
        assert read_json(tmp_path / "run.json")["approaches"] == ["sunny"]

    def test_sweep_member_with_two_keys(self):
        result = invoke(
            "sweep-voting", "--scenario", TOY_DIR,
            "--member", "peralgo(trees=2,depth=3)", "--member", "sunny",
        )
        assert result.exit_code == 0, result.output
        rows = list(csv.reader(io.StringIO(result.stdout)))
        assert [row[2] for row in rows[1:]] == [
            "voting[maj]{peralgo(depth=3,trees=2);search=all}",
            "voting[maj]{sunny;search=all}",
            "voting[maj]{peralgo(depth=3,trees=2),sunny;search=all}",
        ]

    def test_baselines_selector_with_two_keys(self, tmp_path):
        result = invoke(
            "--out", tmp_path / "b", "baselines", "--scenario", TOY_DIR,
            "--selector", "peralgo(trees=2,depth=3),sunny",
        )
        assert result.exit_code == 0, result.output
        written = read_json(tmp_path / "b.json")
        assert written["approaches"] == ["oracle", "sbs", "peralgo(depth=3,trees=2)", "sunny"]

    @pytest.mark.parametrize("command", ["sweep-voting", "baselines"])
    def test_unreadable_folds_exit_1(self, command):
        member = ["--member", "sbs"] if command == "sweep-voting" else []
        result = invoke(command, "--scenario", TOY_DIR, *member, "--folds", "1,x")
        assert result.exit_code == 1
        assert result.stderr.startswith("error: --folds takes comma-separated fold ids")
