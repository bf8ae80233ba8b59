"""Result containers and their serialized forms.

The JSON form is canonical: keys sorted, cells sorted by (approach,
fold), floats at full precision, and no wall-clock content, so two runs
with the same seed produce byte-identical files. Timing goes into a
separate sidecar. Tables follow one rule: a record CSV's header is the
record type's fields in declaration order, floats print to 4 decimals,
and a missing value is an empty CSV cell or a markdown `-`. Each format
is a fixed list of (suffix, renderer) files, written by one emitter.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, fields
from operator import attrgetter
from pathlib import Path

from .errors import InvalidConfig

SCHEMA = "metaselect-report-v1"
SWEEP_SCHEMA = "metaselect-sweep-v1"
FORMATS = ("json", "csv", "markdown")


@dataclass(frozen=True)
class CellResult:
    """One approach evaluated on one fold's test set."""

    approach: str
    fold: int
    par10: float | None
    npar10: float | None
    n_timeouts: int | None
    n_test: int
    error: str | None = None


@dataclass(frozen=True)
class FoldBaselines:
    """Reference values for one fold: the algorithm-level bounds plus,
    when plain selectors were evaluated, the selector-level ones."""

    fold: int
    oracle_par10: float
    sbs_algorithm: str
    sbs_par10: float
    as_oracle_par10: float | None = None
    sbas_selector: str | None = None
    sbas_par10: float | None = None


@dataclass(frozen=True)
class ApproachSummary:
    approach: str
    n_folds_evaluated: int
    mean_par10: float | None
    mean_npar10: float | None
    median_npar10: float | None
    avg_rank: float | None
    wins: int | None = None    # plain selectors with strictly worse mean nPAR10
    losses: int | None = None  # plain selectors with strictly better mean nPAR10


@dataclass(frozen=True)
class EvaluationReport:
    scenario_name: str
    n_instances: int
    n_algorithms: int
    n_features: int
    cutoff: float
    seed: int
    folds: tuple[int, ...]
    approaches: tuple[str, ...]
    cells: tuple[CellResult, ...]
    baselines: tuple[FoldBaselines, ...]
    summary: tuple[ApproachSummary, ...]


@dataclass(frozen=True)
class SweepRow:
    """One voting composition's cross-fold quality."""

    members: tuple[int, ...]  # indices into SweepReport.member_specs
    spec: str                 # the equivalent voting approach string
    mean_par10: float | None  # None when every fold failed
    mean_npar10: float | None
    fold_npar10: tuple[float | None, ...]  # None for a failed fold too


@dataclass(frozen=True)
class SweepReport:
    scenario_name: str
    aggregation: str
    member_specs: tuple[str, ...]
    folds: tuple[int, ...]
    seed: int
    rows: tuple[SweepRow, ...]
    best_members: tuple[int, ...] | None  # None when every fold failed
    best_spec: str | None
    errors: tuple[tuple[int, str], ...] = ()  # (fold, error text) of each failed fold


# canonical order of a report's records, shared by its JSON and CSV forms
_ORDER = {
    "cells": attrgetter("approach", "fold"),
    "baselines": attrgetter("fold"),
    "summary": attrgetter("approach"),
}


def _records(report: EvaluationReport, name: str) -> list:
    return sorted(getattr(report, name), key=_ORDER[name])


def _json(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def report_to_dict(report: EvaluationReport) -> dict:
    return {
        "schema": SCHEMA,
        "scenario": {
            "name": report.scenario_name,
            "n_instances": report.n_instances,
            "n_algorithms": report.n_algorithms,
            "n_features": report.n_features,
            "cutoff": report.cutoff,
        },
        "seed": report.seed,
        "folds": list(report.folds),
        "approaches": list(report.approaches),
        **{name: [asdict(r) for r in _records(report, name)] for name in _ORDER},
    }


def canonical_json(report: EvaluationReport) -> str:
    return _json(report_to_dict(report))


def _cell(value, missing=""):
    """A table cell: floats to 4 decimals, None as `missing`."""
    if value is None:
        return missing
    return f"{value:.4f}" if isinstance(value, float) else value


def _csv_table(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(v) for v in row] for row in rows)
    return buffer.getvalue()


def _records_csv(kind, records) -> str:
    names = [f.name for f in fields(kind)]
    return _csv_table(names, ([getattr(r, n) for n in names] for r in records))


def _markdown_table(header, rows) -> str:
    lines = [header, ["---"] * len(header), *([_cell(v, "-") for v in row] for row in rows)]
    return "".join("| " + " | ".join(map(str, line)) + " |\n" for line in lines)


def _bold(text: str, flag: bool) -> str:
    return f"**{text}**" if flag else text


def cells_csv(report: EvaluationReport) -> str:
    return _records_csv(CellResult, _records(report, "cells"))


def summary_csv(report: EvaluationReport) -> str:
    return _records_csv(ApproachSummary, _records(report, "summary"))


def baselines_csv(report: EvaluationReport) -> str:
    return _records_csv(FoldBaselines, _records(report, "baselines"))


def markdown_summary(report: EvaluationReport) -> str:
    """Per-approach table; the row with the best mean nPAR10 is bolded."""
    ordered = sorted(
        report.summary, key=lambda s: (s.mean_npar10 is None, s.mean_npar10, s.approach)
    )
    rows = [
        (
            report.scenario_name,
            _bold(s.approach, s is ordered[0] and s.mean_npar10 is not None),
            s.mean_npar10 if s.wins is None
            else f"{_cell(s.mean_npar10, '-')} ({s.wins}/{s.losses})",
            s.median_npar10,
            s.avg_rank,
        )
        for s in ordered
    ]
    return _markdown_table(
        ("Scenario", "Approach", "Mean nPAR10", "Median nPAR10", "Avg. Rank"), rows
    )


def sweep_to_dict(sweep: SweepReport) -> dict:
    data = {
        "schema": SWEEP_SCHEMA,
        "scenario": sweep.scenario_name,
        "aggregation": sweep.aggregation,
        "member_specs": list(sweep.member_specs),
        "folds": list(sweep.folds),
        "seed": sweep.seed,
        "rows": [asdict(r) for r in sweep.rows],
        "best": (
            None
            if sweep.best_spec is None
            else {"members": list(sweep.best_members), "spec": sweep.best_spec}
        ),
    }
    if sweep.errors:  # only then, so a clean sweep's bytes stay as they were
        data["errors"] = [{"fold": fold, "error": error} for fold, error in sweep.errors]
    return data


def sweep_json(sweep: SweepReport) -> str:
    return _json(sweep_to_dict(sweep))


def _joined(members) -> str:
    return "+".join(str(i) for i in members)


def sweep_csv(sweep: SweepReport) -> str:
    header = ["members", "size", "spec", "mean_par10", "mean_npar10"]
    header += [f"npar10_fold_{f}" for f in sweep.folds]
    rows = [
        (_joined(r.members), len(r.members), r.spec, r.mean_par10, r.mean_npar10, *r.fold_npar10)
        for r in sweep.rows
    ]
    return _csv_table(header, rows)


def sweep_markdown(sweep: SweepReport) -> str:
    rows = [
        (_bold(_joined(r.members), r.members == sweep.best_members), len(r.members),
         r.mean_npar10, r.mean_par10)
        for r in sweep.rows
    ]
    return _markdown_table(("Members", "Size", "Mean nPAR10", "Mean PAR10"), rows)


# the (suffix, renderer) files of each format, keyed by FORMATS
_REPORT_FILES = {
    "json": [(".json", canonical_json)],
    "csv": [
        (".cells.csv", cells_csv),
        (".summary.csv", summary_csv),
        (".baselines.csv", baselines_csv),
    ],
    "markdown": [(".md", markdown_summary)],
}
_SWEEP_FILES = {
    "json": [(".json", sweep_json)],
    "csv": [(".csv", sweep_csv)],
    "markdown": [(".md", sweep_markdown)],
}


def _emit(result, out_base, formats, files, extra=()) -> list[Path]:
    """Write the (suffix, renderer) files of each format, then the (suffix,
    text) `extra` files; an unknown format is rejected before any write."""
    unknown = [fmt for fmt in formats if fmt not in files]
    if unknown:
        raise InvalidConfig(f"unknown report format {unknown[0]!r}")
    out_base = Path(out_base)
    out_base.parent.mkdir(parents=True, exist_ok=True)
    texts = [(suffix, render(result)) for fmt in formats for suffix, render in files[fmt]]
    written = []
    for suffix, text in [*texts, *extra]:
        path = out_base.with_name(out_base.name + suffix)
        path.write_text(text, encoding="utf-8")
        written.append(path)
    return written


def emit_sweep(sweep: SweepReport, out_base, formats=("json",)) -> list[Path]:
    return _emit(sweep, out_base, formats, _SWEEP_FILES)


def emit_report(
    report: EvaluationReport, out_base, formats=("json",), timings: dict | None = None
) -> list[Path]:
    """Write the report in the requested formats next to `out_base`.

    `out_base` is a path without extension; each format appends its own.
    Timing data, when given, always lands in a `.timings.json` sidecar
    so the canonical report stays reproducible byte for byte.
    """
    sidecars = [] if timings is None else [(".timings.json", _json(timings))]
    return _emit(report, out_base, formats, _REPORT_FILES, sidecars)
