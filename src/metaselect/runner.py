"""Cross-validated evaluation of approach strings on one scenario.

Each fold is scored with the fold's own oracle and single-best values,
so nPAR10 is exactly 0 for the `oracle` row and exactly 1 for the `sbs`
row. Those two rows are computed straight from the truth (no model, no
feature cost); every other approach is fit on the training folds and
charged feature costs whenever it reads features. A failing approach
becomes a missing cell with the error recorded, not a penalized score.

Folds and approaches are evaluated sequentially here; all inputs are
immutable, so callers may shard folds across processes and merge cells
if they need parallelism.
"""

from __future__ import annotations

import time

import numpy as np

from .aggregation import AGGREGATIONS, combine_scores, ranks_from_scores
from .approaches import ORACLE, build_approach, canonical_approach_spec, parse_approach
from .config import ExperimentConfig
from .ensembles import MAX_EXHAUSTIVE_MEMBERS, wmaj_weights
from .errors import DegenerateGap, InvalidConfig, MetaselectError
from .metrics import (
    SelectionTrace,
    as_oracle_par10,
    best_selector,
    fixed_algorithm_par10,
    npar10,
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
from .selectors import Selector, make_selector, selector_trace

SBS = "sbs"


def is_plain_selector(canonical_spec: str) -> bool:
    """True for single feature-based selector atoms; these define the
    selector-level baselines (AS-oracle, SBAS) and the win/loss column."""
    if canonical_spec in (ORACLE, SBS):
        return False
    return parse_approach(canonical_spec).kind == "selector"


def _canonical_approaches(specs) -> list[str]:
    out = []
    for spec in specs:
        canon = canonical_approach_spec(spec)
        if canon not in out:
            out.append(canon)
    return out


def _resolve_folds(scenario: ScenarioSpec, requested) -> tuple[int, ...]:
    available = scenario.fold_ids()
    if requested is None:
        return tuple(available)
    bad = sorted(set(requested) - set(available))
    if bad:
        raise InvalidConfig(f"folds {bad} not present in scenario (has {available})")
    return tuple(int(f) for f in requested)


def run_experiment(config: ExperimentConfig, scenario: ScenarioSpec | None = None):
    """Evaluate every approach on every fold.

    Returns (EvaluationReport, timings) where timings maps approach ->
    fold -> fit/predict wall-clock seconds. Timings stay outside the
    report so its serialized form is reproducible.
    """
    config.validate()
    if scenario is None:
        scenario = config.load_scenario_data()
    folds = _resolve_folds(scenario, config.folds)
    approaches = _canonical_approaches(config.approaches)
    plain = [a for a in approaches if is_plain_selector(a)]

    cells: list[CellResult] = []
    baselines: list[FoldBaselines] = []
    timings: dict[str, dict[str, dict[str, float]]] = {}

    for fold in folds:
        train, test = scenario.fold_split(fold)
        oracle_value = oracle_par10(scenario, test)
        sbs_algorithm = single_best(scenario, train)
        sbs_value = fixed_algorithm_par10(scenario, test, sbs_algorithm)
        fitted: dict[str, tuple[Selector, SelectionTrace]] = {}

        for spec in approaches:
            if spec == ORACLE:
                trace = SelectionTrace(
                    test, oracle_choices(scenario, test), charge_feature_costs=False
                )
            elif spec == SBS:
                trace = SelectionTrace(
                    test,
                    np.full(test.size, sbs_algorithm, dtype=np.int64),
                    charge_feature_costs=False,
                )
            else:
                try:
                    model = build_approach(spec, config.seed)
                    started = time.perf_counter()
                    model.fit(scenario, train)
                    fit_seconds = time.perf_counter() - started
                    started = time.perf_counter()
                    trace = selector_trace(model, scenario, test)
                    predict_seconds = time.perf_counter() - started
                except MetaselectError as e:
                    cells.append(
                        CellResult(
                            approach=spec,
                            fold=fold,
                            par10=None,
                            npar10=None,
                            n_timeouts=None,
                            n_test=int(test.size),
                            error=f"{type(e).__name__}: {e}",
                        )
                    )
                    continue
                timings.setdefault(spec, {})[str(fold)] = {
                    "fit_seconds": fit_seconds,
                    "predict_seconds": predict_seconds,
                }
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
        available = [s for s in plain if s in fitted]
        if available:
            as_oracle = as_oracle_par10(scenario, [fitted[s][1] for s in available])
            train_par10s = [
                trace_par10(scenario, selector_trace(fitted[s][0], scenario, train))
                for s in available
            ]
            pick = best_selector(train_par10s)
            sbas_spec = available[pick]
            sbas_value = trace_par10(scenario, fitted[sbas_spec][1])
        baselines.append(
            FoldBaselines(
                fold=fold,
                oracle_par10=oracle_value,
                sbs_algorithm=scenario.algorithms[sbs_algorithm],
                sbs_par10=sbs_value,
                as_oracle_par10=as_oracle,
                sbas_selector=sbas_spec,
                sbas_par10=sbas_value,
            )
        )

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
    return report, timings


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

    mean_npar10 = {}
    for approach in approaches:
        values = [c.npar10 for c in by_approach[approach] if c.npar10 is not None]
        mean_npar10[approach] = float(np.mean(values)) if values else None
    plain_means = {p: mean_npar10[p] for p in plain if mean_npar10[p] is not None}

    summary = []
    for approach in approaches:
        own = by_approach[approach]
        par_values = [c.par10 for c in own if c.par10 is not None]
        npar_values = [c.npar10 for c in own if c.npar10 is not None]
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
                mean_par10=float(np.mean(par_values)) if par_values else None,
                mean_npar10=mean,
                median_npar10=float(np.median(npar_values)) if npar_values else None,
                avg_rank=(
                    rank_sum[approach] / rank_count[approach] if rank_count[approach] else None
                ),
                wins=wins,
                losses=losses,
            )
        )
    return summary


def sweep_voting(
    scenario: ScenarioSpec,
    member_specs,
    aggregation: str = "maj",
    folds=None,
    global_seed: int = 0,
) -> SweepReport:
    """Score every nonempty member subset as a voting ensemble, per fold.

    Members are fit once per fold and shared across all compositions, so
    a subset's selections are exactly what the corresponding voting
    approach would produce. Best composition: lowest mean test nPAR10,
    ties broken toward fewer members, then lexicographically.
    """
    if aggregation not in AGGREGATIONS:
        raise InvalidConfig(f"unknown aggregation {aggregation!r}")
    specs = [canonical_selector_spec_checked(s) for s in member_specs]
    if len(specs) != len(set(specs)):
        raise InvalidConfig("duplicate member specs in sweep")
    n_members = len(specs)
    if n_members == 0:
        raise InvalidConfig("sweep needs at least one member spec")
    if n_members > MAX_EXHAUSTIVE_MEMBERS:
        raise InvalidConfig(
            f"sweep gated at {MAX_EXHAUSTIVE_MEMBERS} members, got {n_members}"
        )
    fold_list = _resolve_folds(scenario, folds)
    masks = [
        tuple(i for i in range(n_members) if bits >> i & 1)
        for bits in range(1, 2**n_members)
    ]

    pr10 = scenario.pr10_matrix()
    costs = scenario.feature_costs
    per_mask_par10 = {mask: [] for mask in masks}
    per_mask_npar10 = {mask: [] for mask in masks}

    for fold in fold_list:
        train, test = scenario.fold_split(fold)
        oracle_test = oracle_par10(scenario, test)
        sbs_test = fixed_algorithm_par10(scenario, test, single_best(scenario, train))

        members = [make_selector(s, global_seed).fit(scenario, train) for s in specs]
        needs = [m.needs_features for m in members]
        rows = np.stack([m.scores_batch(scenario.features[test]) for m in members])
        weights = wmaj_weights(members, scenario, train) if aggregation == "wmaj" else None

        for mask in masks:
            subset = list(mask)
            mask_weights = weights[subset] if weights is not None else None
            choices = np.array(
                [
                    int(np.argmin(combine_scores(aggregation, rows[subset, i], mask_weights)))
                    for i in range(test.size)
                ],
                dtype=np.int64,
            )
            values = pr10[test, choices]
            if any(needs[i] for i in mask):
                values = values + costs[test]
            par = float(values.mean())
            per_mask_par10[mask].append(par)
            try:
                per_mask_npar10[mask].append(npar10(par, oracle_test, sbs_test))
            except DegenerateGap:
                per_mask_npar10[mask].append(None)

    rows_out = []
    for mask in masks:
        defined = [v for v in per_mask_npar10[mask] if v is not None]
        rows_out.append(
            SweepRow(
                members=mask,
                spec=_subset_spec(specs, mask, aggregation),
                mean_par10=float(np.mean(per_mask_par10[mask])),
                mean_npar10=float(np.mean(defined)) if defined else None,
                fold_npar10=tuple(per_mask_npar10[mask]),
            )
        )
    best = min(
        rows_out,
        key=lambda r: (
            r.mean_npar10 is None,
            r.mean_npar10 if r.mean_npar10 is not None else r.mean_par10,
            len(r.members),
            r.members,
        ),
    )
    return SweepReport(
        scenario_name=scenario.name,
        aggregation=aggregation,
        member_specs=tuple(specs),
        folds=fold_list,
        seed=global_seed,
        rows=tuple(rows_out),
        best_members=best.members,
        best_spec=best.spec,
    )


def _subset_spec(specs, mask, aggregation) -> str:
    members = ",".join(specs[i] for i in mask)
    return f"voting[{aggregation}]{{{members};search=all}}"


def canonical_selector_spec_checked(spec: str) -> str:
    parsed = parse_approach(spec)
    if parsed.kind != "selector":
        raise InvalidConfig(f"sweep members must be selector atoms, got {spec!r}")
    return parsed.members[0]
