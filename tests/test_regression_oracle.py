"""Regression oracle: sha256 pins of canonical reports and report files.

A change that keeps scores must leave both reports byte-identical; a
change that alters scores on purpose re-pins them and says so. The toy
pin is the README quick-start, the same digest as the `toy` entry of
`perfbench/digests.json`. The synthetic run is small but exercises
every approach kind: the five feature-based atoms, `sbs`, every voting
aggregation (one with the exhaustive search), wmaj bagging, boosting,
stacking with variance-threshold selection on a disjoint split, and
`ass` over a feature-free base, with a nonzero feature cost so that
feature charging shows in the scores.

The file pins hold every byte that `emit_report` and `emit_sweep`
write in every format: the quick-start report, a report whose failing
cells and missing plain selectors leave nullable fields empty, and a
voting sweep on `fixtures/toy` under two aggregations.
"""

import hashlib

import pytest
from click.testing import CliRunner
from conftest import TOY_DIR

from metaselect.aslib import load_scenario
from metaselect.cli import main
from metaselect.config import ExperimentConfig
from metaselect.report import FORMATS, canonical_json, emit_report, emit_sweep
from metaselect.runner import run_experiment, sweep_voting
from metaselect.synthetic import SyntheticConfig, generate_synthetic

TOY_QUICK_START = (
    "oracle",
    "sbs",
    "sunny",
    "multiclass",
    "voting[maj]{multiclass,sunny;search=all}",
)
TOY_DIGEST = "8c6510e05dd32c7d1e7a9f73648670d7b6f47385bf779eea29854cebaa01d810"

SYNTHETIC = SyntheticConfig(
    n_instances=80, n_algorithms=4, n_features=6, n_folds=4, feature_cost=0.5, seed=3
)
SYNTHETIC_APPROACHES = (
    "oracle",
    "sbs",
    "peralgo(trees=3)",
    "multiclass(trees=3)",
    "pairwise(trees=2)",
    "sunny(k=5)",
    "isac",
    "voting[maj]{sunny(k=5),isac,multiclass(trees=3)}",
    "voting[wmaj]{sunny(k=5),isac}",
    "voting[mean]{sunny(k=5),peralgo(trees=3)}",
    "voting[borda]{sunny(k=5),isac,multiclass(trees=3);search=exhaustive}",
    "bagging[wmaj]{sunny(k=5);k=3}",
    "boosting{multiclass(trees=3);iters=3}",
    "stacking{meta=sunny(k=5);bases=sunny(k=5),isac;fs=vt(0.16);split=disjoint(0.7)}",
    "ass{meta=multiclass(trees=3);bases=sbs,sunny(k=5)}",
)
SYNTHETIC_DIGEST = "11d05b919fcab27a80f2b67ad4e2646777d31b1e8b54f49528466da067f24a34"


def report_digest(config: ExperimentConfig) -> str:
    report, _ = run_experiment(config)
    assert all(cell.error is None for cell in report.cells)
    return hashlib.sha256(canonical_json(report).encode("utf-8")).hexdigest()


def test_toy_quick_start_report_is_pinned():
    config = ExperimentConfig(
        approaches=TOY_QUICK_START, scenario_path=str(TOY_DIR), seed=42
    )
    assert report_digest(config) == TOY_DIGEST


def test_synthetic_report_over_every_approach_kind_is_pinned():
    config = ExperimentConfig(approaches=SYNTHETIC_APPROACHES, synthetic=SYNTHETIC, seed=5)
    assert report_digest(config) == SYNTHETIC_DIGEST


TOY_FILE_DIGESTS = {
    "toy.json": TOY_DIGEST,
    "toy.cells.csv": "e8ea730d17c000f655b2c4183bfec731ac2de123241ddf73419e4259a2f1f2df",
    "toy.summary.csv": "94ddf33fcd33f6a91c603253d8384d3095c1798167a84870e65647563fc63fc1",
    "toy.baselines.csv": "e2630a020fb9470dd34c2bc94cffeff050fd55923b78b92582d72bb31825f0f7",
    "toy.md": "4d1aca39ac101ab1c1579f4cabcce6b8fa6eaf184b9085f026ef89e5674d42f3",
}

# 3 instances over 3 folds leave 2 train rows, too few for the meta
# level's 3 inner folds, so every `ass` cell fails; with no plain
# selector in the run, every fold's AS-oracle and SBAS stay empty
FAILING = SyntheticConfig(n_instances=3, n_folds=3, n_algorithms=2, seed=5)
FAILING_APPROACHES = ("oracle", "sbs", "ass{meta=sbs;bases=sbs}")
FAILING_FILE_DIGESTS = {
    "failing.json": "14d24af326a6a45115121c7dbc3cb7d3159339a64133b5244b4cdb1ab904665a",
    "failing.cells.csv": "85867f314a1dc41c2de2448ac4085f1211cd7c3fcfaddc96d696751c94d9b470",
    "failing.summary.csv": "47b4ca9ad2a55dceec9dca44574eafd88de14ddee9d10f9c9fb11b8af6af11c5",
    "failing.baselines.csv": "ff04d486bdb25fba29a2390da37dcb95fc180945b522f02615fe9f677dbe09f3",
    "failing.md": "b1edd6b861207a66ad142c11129a023f18deeffd7203e8befec0fabb6945be08",
}

SWEEP_MEMBERS = ("sunny", "multiclass", "isac", "sbs")
SWEEP_FILE_DIGESTS = {
    "maj": {
        "sweep.json": "426cd4789995beaa3b8dcb6116416cbbe5f7a9b7a89a1781891a63691687ecff",
        "sweep.csv": "040e27b63e5de37093b2f841e9c92fc4aa42644bc841bf4f753c504431f4b0d5",
        "sweep.md": "62e123b3e09ae79cf3474f5f8d09d3263d03cbf615add5e27c6815aef1e58e90",
    },
    "borda": {
        "sweep.json": "57254574dd3b27d3e66ffc83d112c44d63ce90e8067462dc4fa27d3863e14514",
        "sweep.csv": "bc5ecbc50c48cb1919afc0c28cf0f070ef7612d2ce2ed32be48dd6ba145943bb",
        "sweep.md": "cda66f24e28ac853a2585523a6ca213c66c2b108cf8c222de4838e9527008e51",
    },
}


def file_digests(paths) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def test_toy_quick_start_report_files_are_pinned(tmp_path):
    config = ExperimentConfig(
        approaches=TOY_QUICK_START, scenario_path=str(TOY_DIR), seed=42
    )
    report, _ = run_experiment(config)
    assert file_digests(emit_report(report, tmp_path / "toy", FORMATS)) == TOY_FILE_DIGESTS


def test_report_files_with_empty_fields_are_pinned(tmp_path):
    config = ExperimentConfig(approaches=FAILING_APPROACHES, synthetic=FAILING, seed=7)
    report, _ = run_experiment(config, scenario=generate_synthetic(FAILING))
    failed = [c for c in report.cells if c.error is not None]
    assert failed and all(c.npar10 is None and c.n_timeouts is None for c in failed)
    assert all(b.sbas_selector is None and b.sbas_par10 is None for b in report.baselines)
    written = emit_report(report, tmp_path / "failing", FORMATS)
    assert file_digests(written) == FAILING_FILE_DIGESTS


@pytest.mark.parametrize("aggregation", sorted(SWEEP_FILE_DIGESTS))
def test_sweep_files_are_pinned(tmp_path, aggregation):
    sweep = sweep_voting(
        load_scenario(TOY_DIR), SWEEP_MEMBERS, aggregation=aggregation, global_seed=0
    )
    written = emit_sweep(sweep, tmp_path / "sweep", FORMATS)
    assert file_digests(written) == SWEEP_FILE_DIGESTS[aggregation]


def test_sweep_voting_command_writes_every_sweep_file(tmp_path):
    formats = [arg for fmt in FORMATS for arg in ("--format", fmt)]
    members = [arg for member in SWEEP_MEMBERS for arg in ("--member", member)]
    result = CliRunner().invoke(
        main,
        ["--out", str(tmp_path / "sweep"), *formats, "sweep-voting",
         "--scenario", str(TOY_DIR), *members],
        catch_exceptions=False,
    )
    assert result.exit_code == 0
    assert file_digests(tmp_path.iterdir()) == SWEEP_FILE_DIGESTS["maj"]
