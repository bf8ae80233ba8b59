"""Cross-validated evaluation of a config's approaches and voting sweeps.

One fold loop scores everything a config lists, each fold with its own
oracle and single-best values, so nPAR10 is exactly 0 for the `oracle`
row and exactly 1 for the `sbs` row. Those two rows are computed
straight from the truth (no model, no feature cost); every other
approach is fit on the training folds and charged feature costs
whenever it reads features. A failing approach becomes a missing cell
with the error recorded, not a penalized score; an exception that is
not a `MetaselectError` is recorded the same way, its message prefixed
with `internal: `. A sweep fails per fold in the same way (see below).

Each fold runs inside one `shared_fits` scope, the fold memo that
`selectors` describes: the fold's cells and sweeps share its fits,
scores, neighbour rankings and preprocessors, whose seconds land in the
timings of the first cell that needs them.

After the cells, each sweep fits one `VotingEnsemble` of its members
on the fold's training rows and prices every composition on its test
rows with `composition_par10`, the scorer of voting's exhaustive
search, against the fold's `FoldBaselines`. A fit or scoring that
raises leaves the sweep's values for that fold missing, the error
recorded; a sweep that failed on every fold names no best.
`run_config` runs this loop; `run_experiment` and `sweep_voting` are
thin wrappers over it.

Folds and approaches are evaluated sequentially here; all inputs are
immutable, so callers may shard folds across processes and merge cells
if they need parallelism.
"""

from __future__ import annotations

import time

import numpy as np

# combine_scores stays importable from here for wrappers that patch
# runner.combine_scores (perfbench/tracer.py); nothing here calls it.
from .aggregation import combine_scores, ranks_from_scores  # noqa: F401
from .approaches import ORACLE, build_approach, canonical_approach_spec, parse_approach, voting_spec
from .config import ExperimentConfig, canonical_sweep
from .ensembles import VotingEnsemble
from .errors import InvalidConfig, MetaselectError
from .metrics import (
    SelectionTrace,
    as_oracle_par10,
    best_selector,
    fixed_algorithm_par10,
    npar10_or_none,
    oracle_choices,
    oracle_par10,
    score_trace,
    single_best,
    trace_par10,
)
from .report import (
    ApproachSummary,
    CellResult,
    EvaluationReport,
    FoldBaselines,
    SweepReport,
    SweepRow,
)
from .scenario import ScenarioSpec
from .selectors import Selector, fit_selector, selector_trace, shared_fits

SBS = "sbs"
INTERNAL_ERROR = "internal: "


def is_plain_selector(canonical_spec: str) -> bool:
    """True for single feature-based selector atoms; these define the
    selector-level baselines (AS-oracle, SBAS) and the win/loss column."""
    return canonical_spec not in (ORACLE, SBS) and parse_approach(canonical_spec).kind == "selector"


def _canonical_approaches(specs) -> list[str]:
    return list(dict.fromkeys(canonical_approach_spec(spec) for spec in specs))


def _resolve_folds(scenario: ScenarioSpec, requested) -> tuple[int, ...]:
    available = scenario.fold_ids()
    if len(available) < 2:  # holding out the only fold leaves nothing to train on
        raise InvalidConfig(
            f"cross-validation needs at least two folds, scenario has {len(available)}"
        )
    if requested is None:
        return tuple(available)
    bad = sorted(set(requested) - set(available))
    if bad:
        raise InvalidConfig(f"folds {bad} not present in scenario (has {available})")
    if len(set(requested)) != len(requested):
        raise InvalidConfig(f"duplicate fold ids in {list(requested)}")
    return tuple(int(f) for f in requested)


def run_experiment(config: ExperimentConfig, scenario: ScenarioSpec | None = None):
    """Evaluate every approach on every fold.

    Returns (EvaluationReport, timings) where timings maps approach ->
    fold -> fit/predict wall-clock seconds. Timings stay outside the
    report so its serialized form is reproducible.
    """
    report, timings, _ = run_config(config, scenario)
    return report, timings


def run_config(config: ExperimentConfig, scenario: ScenarioSpec | None = None):
    """`run_experiment`'s (report, timings) plus one SweepReport per
    sweep of the config, in its order. The config's scenario source is
    read, and so must be valid, only when no scenario is passed."""
    config.validate_run()
    if scenario is None:
        scenario = config.load_scenario_data()
    folds = _resolve_folds(scenario, config.folds)
    approaches = _canonical_approaches(config.approaches)
    plain = [a for a in approaches if is_plain_selector(a)]
    sweeps = [canonical_sweep(*sweep) for sweep in config.sweeps]

    cells: list[CellResult] = []
    baselines: list[FoldBaselines] = []
    timings: dict[str, dict[str, dict[str, float]]] = {}
    sweep_folds = []  # per fold, per sweep: (subset -> test PAR10, error)

    for fold in folds:
        with shared_fits(scenario):
            fold_cells, fold_baselines = _run_fold(
                scenario, fold, approaches, plain, config.seed, timings
            )
            sweep_folds.append([_sweep_fold(scenario, fold, *s, config.seed) for s in sweeps])
        cells.extend(fold_cells)
        baselines.append(fold_baselines)

    summary = _summarize(approaches, plain, folds, cells)
    report = EvaluationReport(
        scenario_name=scenario.name,
        n_instances=scenario.n_instances,
        n_algorithms=scenario.n_algorithms,
        n_features=scenario.n_features,
        cutoff=scenario.cutoff,
        seed=config.seed,
        folds=folds,
        approaches=tuple(approaches),
        cells=tuple(cells),
        baselines=tuple(baselines),
        summary=tuple(summary),
    )
    sweep_reports = [
        _sweep_report(scenario.name, *sweep, config.seed, results, baselines)
        for sweep, results in zip(sweeps, zip(*sweep_folds))
    ]
    return report, timings, sweep_reports


def _run_fold(scenario, fold, approaches, plain, seed, timings):
    """Cells and baselines of one fold; fills `timings` for fitted cells."""
    train, test = scenario.fold_split(fold)
    oracle_value = oracle_par10(scenario, test)
    sbs_algorithm = single_best(scenario, train)
    sbs_value = fixed_algorithm_par10(scenario, test, sbs_algorithm)
    fitted: dict[str, tuple[Selector, SelectionTrace]] = {}
    cells = []

    for spec in approaches:
        if spec in (ORACLE, SBS):
            choices = oracle_choices(scenario, test) if spec == ORACLE else sbs_algorithm
            trace = SelectionTrace(
                test, np.broadcast_to(choices, test.shape), charge_feature_costs=False
            )
        else:
            error = model = None  # let the previous approach's model go before this fit
            try:
                started = time.perf_counter()
                if spec in plain:
                    model = fit_selector(spec, seed, scenario, train)
                else:
                    model = build_approach(spec, seed).fit(scenario, train)
                fit_seconds = time.perf_counter() - started
                started = time.perf_counter()
                trace = selector_trace(model, scenario, test)
                predict_seconds = time.perf_counter() - started
            except Exception as e:  # one approach's failure must not end the run
                error = _error_text(e)
            if error is not None:
                cells.append(CellResult(spec, fold, None, None, None, int(test.size), error))
                continue
            seconds = {"fit_seconds": fit_seconds, "predict_seconds": predict_seconds}
            timings.setdefault(spec, {})[str(fold)] = seconds
            if spec in plain:
                fitted[spec] = (model, trace)
        quality = score_trace(scenario, trace, oracle_value, sbs_value)
        cells.append(
            CellResult(
                approach=spec,
                fold=fold,
                par10=quality.par10,
                npar10=quality.npar10,
                n_timeouts=quality.n_timeouts,
                n_test=quality.n_instances,
            )
        )

    as_oracle = sbas_spec = sbas_value = None
    if fitted:  # the plain selectors that did not fail, in approach order
        models, traces = zip(*fitted.values())
        as_oracle = as_oracle_par10(scenario, list(traces))
        train_par10s = [trace_par10(scenario, selector_trace(m, scenario, train)) for m in models]
        sbas_spec = list(fitted)[best_selector(train_par10s)]
        sbas_value = trace_par10(scenario, fitted[sbas_spec][1])
    baselines = FoldBaselines(
        fold=fold,
        oracle_par10=oracle_value,
        sbs_algorithm=scenario.algorithms[sbs_algorithm],
        sbs_par10=sbs_value,
        as_oracle_par10=as_oracle,
        sbas_selector=sbas_spec,
        sbas_par10=sbas_value,
    )
    return cells, baselines


def _error_text(error: Exception) -> str:
    """What a failed cell or sweep fold records; `internal: ` marks a
    defect, an exception that is not a `MetaselectError`."""
    prefix = "" if isinstance(error, MetaselectError) else INTERNAL_ERROR
    return f"{prefix}{type(error).__name__}: {error}"


def internal_error_cells(report: EvaluationReport) -> list[CellResult]:
    """Cells that failed with an exception that is not a
    `MetaselectError`, i.e. a defect rather than unusable input."""
    return [c for c in report.cells if c.error is not None and c.error.startswith(INTERNAL_ERROR)]


def _summarize(approaches, plain, folds, cells) -> list[ApproachSummary]:
    by_approach: dict[str, list[CellResult]] = {a: [] for a in approaches}
    for cell in cells:
        by_approach[cell.approach].append(cell)

    rank_sum = {a: 0.0 for a in approaches}
    rank_count = {a: 0 for a in approaches}
    for fold in folds:
        ranked = [c for c in cells if c.fold == fold and c.par10 is not None]
        if not ranked:
            continue
        ranks = ranks_from_scores(np.array([c.par10 for c in ranked]))
        for cell, rank in zip(ranked, ranks):
            rank_sum[cell.approach] += float(rank)
            rank_count[cell.approach] += 1

    mean_npar10 = {a: _mean([c.npar10 for c in by_approach[a]]) for a in approaches}
    plain_means = {p: mean_npar10[p] for p in plain if mean_npar10[p] is not None}

    summary = []
    for approach in approaches:
        par_values = [c.par10 for c in by_approach[approach] if c.par10 is not None]
        npars = [c.npar10 for c in by_approach[approach] if c.npar10 is not None]
        mean = mean_npar10[approach]
        wins = losses = None
        if plain_means and mean is not None:
            rivals = [v for p, v in plain_means.items() if p != approach]
            wins = sum(1 for v in rivals if v > mean)
            losses = sum(1 for v in rivals if v < mean)
        summary.append(
            ApproachSummary(
                approach=approach,
                n_folds_evaluated=len(par_values),
                mean_par10=_mean(par_values),
                mean_npar10=mean,
                median_npar10=float(np.median(npars)) if npars else None,
                avg_rank=(
                    rank_sum[approach] / rank_count[approach] if rank_count[approach] else None
                ),
                wins=wins,
                losses=losses,
            )
        )
    return summary


def sweep_voting(
    scenario: ScenarioSpec, member_specs, aggregation: str = "maj", folds=None, global_seed: int = 0
) -> SweepReport:
    """Score every nonempty member subset as a voting ensemble, per fold:
    the one sweep of a config that lists no approach."""
    folds = None if folds is None else tuple(folds)
    sweeps = ((tuple(member_specs), aggregation),)
    config = ExperimentConfig(approaches=(), sweeps=sweeps, folds=folds, seed=global_seed)
    return run_config(config, scenario)[2][0]


def _sweep_fold(scenario, fold, specs, aggregation, seed):
    """(test PAR10 of every composition in bitmask order, None) of one
    fold, or (None, error text) when fitting or scoring the sweep's
    `VotingEnsemble` raises. Its members are the fold's shared fits, and
    each composition is priced as that voting approach would score."""
    train, test = scenario.fold_split(fold)
    try:
        ensemble = VotingEnsemble(voting_spec(specs, aggregation), seed, specs, aggregation)
        return ensemble.fit(scenario, train).composition_par10(scenario, test), None
    except Exception as e:  # one sweep's failure must not end the run
        return None, _error_text(e)


def _mean(values) -> float | None:
    """Mean of the values that are not None; None if none is."""
    defined = [v for v in values if v is not None]
    return float(np.mean(defined)) if defined else None


def _sweep_report(name, specs, aggregation, seed, fold_results, baselines) -> SweepReport:
    """Cross-fold rows of one sweep, means over the folds that have
    values. Best composition: lowest mean test nPAR10, ties broken
    toward fewer members, then lexicographically; None when every fold
    failed."""
    rows = []
    for bits in range(1, 1 << len(specs)):  # bitmask order, as `composition_par10` keys
        mask = tuple(i for i in range(len(specs)) if bits >> i & 1)
        pars = [None if values is None else values[mask] for values, _ in fold_results]
        npars = tuple(
            None if par is None else npar10_or_none(par, b.oracle_par10, b.sbs_par10)
            for par, b in zip(pars, baselines)
        )
        spec = voting_spec([specs[i] for i in mask], aggregation)
        rows.append(SweepRow(mask, spec, _mean(pars), _mean(npars), npars))
    best = min(
        (r for r in rows if r.mean_par10 is not None),
        key=lambda r: (
            r.mean_npar10 is None,
            r.mean_npar10 if r.mean_npar10 is not None else r.mean_par10,
            len(r.members),
            r.members,
        ),
        default=None,
    )
    return SweepReport(
        scenario_name=name,
        aggregation=aggregation,
        member_specs=specs,
        folds=tuple(b.fold for b in baselines),
        seed=seed,
        rows=tuple(rows),
        best_members=None if best is None else best.members,
        best_spec=None if best is None else best.spec,
        errors=tuple(
            (b.fold, error) for (_, error), b in zip(fold_results, baselines) if error is not None
        ),
    )

