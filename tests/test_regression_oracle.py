"""Regression oracle: sha256 pins of two canonical reports.

A change that keeps scores must leave both reports byte-identical; a
change that alters scores on purpose re-pins them and says so. The toy
pin is the README quick-start, the same digest as the `toy` entry of
`perfbench/digests.json`. The synthetic run is small but exercises
every approach kind: the five feature-based atoms, `sbs`, every voting
aggregation (one with the exhaustive search), wmaj bagging, boosting,
stacking with variance-threshold selection on a disjoint split, and
`ass` over a feature-free base, with a nonzero feature cost so that
feature charging shows in the scores.
"""

import hashlib

from conftest import TOY_DIR

from metaselect.config import ExperimentConfig
from metaselect.report import canonical_json
from metaselect.runner import run_experiment
from metaselect.synthetic import SyntheticConfig

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
