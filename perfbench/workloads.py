"""Workload definitions shared by the benchmark and its set-up probe.

Importing this module imports `metaselect` from the `src/` directory of
the checkout that holds this file, and refuses any other copy, so a
result always describes the source tree next to the benchmark.

Every benchmark workload is a synthetic scenario built from the
workload seed plus a fixed list of approach strings; the program only
ever sees the generated scenario. Models use their own fixed global
seed (`MODEL_SEED`), so the workload seed changes the data, not the
program's configuration.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import metaselect  # noqa: E402

if not Path(metaselect.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"metaselect imported from {metaselect.__file__}, expected it under {SRC}")

from metaselect.config import ExperimentConfig  # noqa: E402
from metaselect.synthetic import SyntheticConfig  # noqa: E402

MODEL_SEED = 0
N_FOLDS = 5

# The README quick-start experiment; its canonical report is pinned in
# digests.json and checked on every run, whatever the workload seed.
TOY_FIXTURE = ROOT / "fixtures" / "toy"
TOY_APPROACHES = (
    "oracle",
    "sbs",
    "sunny",
    "multiclass",
    "voting[maj]{multiclass,sunny;search=all}",
)
TOY_SEED = 42


@dataclass(frozen=True)
class Workload:
    """A synthetic scenario (shape as instances, algorithms, features,
    and planted rule) or a fixture directory; the approaches
    run_experiment evaluates; the members of a borda voting sweep run
    after it (none when empty)."""

    name: str
    approaches: tuple[str, ...]
    shape: tuple[int, int, int] | None = None
    rule: str = "feature_sign"
    fixture: str | None = None
    sweep: tuple[str, ...] = ()

    def config(self, seed: int, folds=None) -> ExperimentConfig:
        if self.fixture is not None:
            source = {"scenario_path": str(ROOT / self.fixture)}
        else:
            n, k, d = self.shape
            source = {
                "synthetic": SyntheticConfig(
                    n_instances=n,
                    n_algorithms=k,
                    n_features=d,
                    n_folds=N_FOLDS,
                    rule=self.rule,
                    seed=seed,
                )
            }
        return ExperimentConfig(approaches=self.approaches, folds=folds, seed=MODEL_SEED, **source)

    def scenario(self, seed: int):
        return self.config(seed).load_scenario_data()


_FOREST = "multiclass(trees=5)"
_MEMBERS = ("sunny", "isac", "isac(clusters=4)")
_VOTE = ",".join(_MEMBERS)

WORKLOADS = {
    # Forest growth is most of the time, first in the forest selectors,
    # then in many small fits on inner folds and resamples, several of
    # which repeat a standalone fit of the same fold (ass deployed
    # refits, voting members, boosting round one). A grower change and a
    # per-fold fit memo show here; aggregation is next to nothing, so a
    # voting change must read zero. Runtimes independent of the features
    # keep every forest from fitting its training set perfectly, so
    # boosting always runs all its rounds and the work hardly depends on
    # the seed.
    "forest-meta-cv": Workload(
        name="forest-meta-cv",
        shape=(300, 5, 10),
        rule="uniform",
        approaches=(
            "oracle",
            "sbs",
            "peralgo(trees=5)",
            "pairwise(trees=2)",
            "sunny",
            "isac",
            _FOREST,
            f"ass{{meta={_FOREST};bases=sunny,isac,{_FOREST};inner=3}}",
            f"boosting{{{_FOREST};iters=4}}",
            f"voting[maj]{{sunny,isac,{_FOREST}}}",
            f"stacking{{meta={_FOREST};bases=sunny,isac}}",
        ),
    ),
    # Forest-free: per-instance aggregation loops, composition search,
    # distances and k-means at the wide shape where distance and rank
    # work scale. The voting engine shows here; a grower change must not
    # move it.
    "ensemble-cv": Workload(
        name="ensemble-cv",
        shape=(1000, 10, 50),
        approaches=(
            "sunny",
            "sunny(k=4)",
            "isac",
            "isac(clusters=4)",
            f"voting[borda]{{{_VOTE};search=exhaustive}}",
            f"voting[wmaj]{{{_VOTE}}}",
            "bagging[mean]{sunny;k=10}",
            "stacking{meta=sunny;bases=sunny,isac}",
        ),
        sweep=_MEMBERS,
    ),
    # Not a benchmark workload: the smoke check runs the whole benchmark
    # on this three-instance fixture to check what it emits.
    "smoke": Workload(
        name="smoke",
        fixture="fixtures/toy_tiny",
        approaches=("oracle", "sbs", "sunny(k=1)", "multiclass(trees=2)"),
        sweep=("sunny(k=1)", "multiclass(trees=2)"),
    ),
}
