"""Penalized-runtime scoring.

Everything is expressed in PR10 terms: a solved run costs its runtime, an
unsolved one costs ten times the cutoff. Selector quality is reported as
PAR10 (mean PR10 of the chosen algorithms, plus the instance's feature
acquisition cost when the selector looked at features) and as nPAR10,
which rescales PAR10 so the oracle sits at 0 and the single best
algorithm at 1. Those two endpoints are priced like any selector: as
the PAR10 of a `SelectionTrace` (the oracle's per-instance choices, or
the single best algorithm everywhere) that charges no feature cost, so
one formula prices every cell and both baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGap, EmptyInstanceSet
from .scenario import ScenarioSpec


@dataclass(frozen=True)
class SelectionTrace:
    """Chosen algorithm per instance, for a subset of a scenario.

    `indices` are instance positions in the scenario, `choices` the
    picked algorithm position for each. `charge_feature_costs` is False
    only for selectors that never look at features.
    """

    indices: np.ndarray
    choices: np.ndarray
    charge_feature_costs: bool = True

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        cho = np.asarray(self.choices, dtype=np.int64)
        if idx.ndim != 1 or cho.shape != idx.shape:
            raise ValueError("indices and choices must be 1-d arrays of equal length")
        if idx.size == 0:
            raise EmptyInstanceSet("a selection trace needs at least one instance")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "choices", cho)


def per_instance_pr10(scenario: ScenarioSpec, trace: SelectionTrace) -> np.ndarray:
    """PR10 of each traced choice, feature cost included when charged."""
    pr10 = scenario.pr10_matrix()
    if trace.choices.min() < 0 or trace.choices.max() >= scenario.n_algorithms:
        raise ValueError("choice out of algorithm range")
    values = pr10[trace.indices, trace.choices]
    if trace.charge_feature_costs:
        values = values + scenario.feature_costs[trace.indices]
    return values


def trace_par10(scenario: ScenarioSpec, trace: SelectionTrace) -> float:
    return float(per_instance_pr10(scenario, trace).mean())


def count_timeouts(scenario: ScenarioSpec, trace: SelectionTrace) -> int:
    return int((~scenario.solved[trace.indices, trace.choices]).sum())


def oracle_choices(scenario: ScenarioSpec, indices: np.ndarray) -> np.ndarray:
    """Per-instance best algorithm (lowest index wins ties)."""
    return np.argmin(scenario.pr10_matrix()[indices], axis=1).astype(np.int64)


def oracle_par10(scenario: ScenarioSpec, indices: np.ndarray) -> float:
    """PAR10 of the oracle choices, priced as a trace with no feature cost."""
    indices = np.asarray(indices, dtype=np.int64)
    trace = SelectionTrace(indices, oracle_choices(scenario, indices), charge_feature_costs=False)
    return trace_par10(scenario, trace)


def single_best(scenario: ScenarioSpec, indices: np.ndarray) -> int:
    """Algorithm with the lowest mean PR10 on `indices` (lowest index wins ties)."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.size == 0:
        raise EmptyInstanceSet("single best needs at least one instance")
    return int(np.argmin(scenario.pr10_matrix()[indices].mean(axis=0)))


def fixed_algorithm_par10(scenario: ScenarioSpec, indices: np.ndarray, algorithm: int) -> float:
    """PAR10 of always running `algorithm`, priced as a trace with no feature cost."""
    indices = np.asarray(indices, dtype=np.int64)
    trace = SelectionTrace(indices, np.full(indices.shape, algorithm), charge_feature_costs=False)
    return trace_par10(scenario, trace)


def npar10(value: float, oracle: float, sbs: float) -> float:
    """Rescale so the oracle maps to 0 and the single best algorithm to 1.

    Raises DegenerateGap when oracle and single best coincide, since the
    scale is undefined there.
    """
    gap = sbs - oracle
    if gap <= 0.0:
        raise DegenerateGap(
            f"single-best PAR10 {sbs} does not exceed oracle PAR10 {oracle}"
        )
    return (value - oracle) / gap


def npar10_or_none(value: float, oracle: float, sbs: float) -> float | None:
    """`npar10`, or None where the gap is degenerate."""
    try:
        return npar10(value, oracle, sbs)
    except DegenerateGap:
        return None


def as_oracle_par10(scenario: ScenarioSpec, traces: list[SelectionTrace]) -> float:
    """PAR10 of the per-instance best selector among `traces`.

    All traces must cover the same instances in the same order. Feature
    costs are counted per the individual traces, so a feature-free
    selector can undercut feature-based ones.
    """
    if not traces:
        raise EmptyInstanceSet("as_oracle needs at least one trace")
    first = traces[0].indices
    for trace in traces[1:]:
        if not np.array_equal(trace.indices, first):
            raise ValueError("all traces must cover the same instances")
    stacked = np.stack([per_instance_pr10(scenario, t) for t in traces])
    return float(stacked.min(axis=0).mean())


def best_selector(train_par10s) -> int:
    """Index of the lowest training PAR10, first index on ties."""
    values = np.asarray(train_par10s, dtype=np.float64)
    if values.size == 0:
        raise EmptyInstanceSet("picking a best selector needs at least one report")
    return int(np.argmin(values))


@dataclass(frozen=True)
class ScoreReport:
    """Test-side quality summary for one approach on one instance set."""

    par10: float
    npar10: float | None
    n_timeouts: int
    n_instances: int


def score_trace(
    scenario: ScenarioSpec,
    trace: SelectionTrace,
    oracle: float,
    sbs: float,
) -> ScoreReport:
    par = trace_par10(scenario, trace)
    return ScoreReport(
        par10=par,
        npar10=npar10_or_none(par, oracle, sbs),
        n_timeouts=count_timeouts(scenario, trace),
        n_instances=int(trace.indices.size),
    )
