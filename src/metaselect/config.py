"""Experiment configuration: one flat document drives a full run.

Schema (YAML or JSON; YAML is a superset so one loader covers both):

    scenario: fixtures/toy            # XOR with `synthetic`
    synthetic: {n_instances: 60, n_algorithms: 3, ...}
    approaches: [oracle, sbs, "voting[maj]{peralgo,sunny}"]
    folds: [1, 2]                     # optional subset
    seed: 42
    out: results/toy                  # optional path base, no extension
    format: [json, markdown]          # or a single string
    sweeps: [{members: [sunny, isac], aggregation: borda}]  # optional, `maj` by default

Approach strings carry their own parameters, so the document itself
stays flat.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import yaml

from .approaches import canonical_approach_spec, voting_spec
from .aslib import load_scenario
from .ensembles import VotingEnsemble
from .errors import InvalidConfig
from .report import FORMATS
from .scenario import ScenarioSpec
from .selectors import canonical_selector_spec
from .synthetic import SyntheticConfig, generate_synthetic

_TOP_LEVEL_KEYS = {
    "scenario", "synthetic", "approaches", "sweeps", "folds", "seed", "out", "format"
}


def canonical_sweep(members, aggregation: str) -> tuple[tuple[str, ...], str]:
    """(canonical member atoms, aggregation) of a voting sweep, or
    InvalidConfig when no sweep could score it: the members must be
    distinct and at least one, and the aggregation and the member gate
    are the exhaustive `VotingEnsemble`'s."""
    specs = tuple(canonical_selector_spec(s) for s in members)
    if len(specs) != len(set(specs)):
        raise InvalidConfig("duplicate member specs in sweep")
    if not specs:
        raise InvalidConfig("sweep needs at least one member spec")
    exhaustive = voting_spec(specs, aggregation, "exhaustive")
    VotingEnsemble(exhaustive, 0, specs, aggregation, search="exhaustive")
    return specs, aggregation


@dataclass(frozen=True)
class ExperimentConfig:
    approaches: tuple[str, ...]
    scenario_path: str | None = None
    synthetic: SyntheticConfig | None = None
    folds: tuple[int, ...] | None = None
    seed: int = 0
    out: str | None = None
    formats: tuple[str, ...] = ("json",)
    sweeps: tuple[tuple[tuple[str, ...], str], ...] = ()  # (member atoms, aggregation)

    def validate(self) -> None:
        self._validate_source()
        self.validate_run()

    def _validate_source(self) -> None:
        if (self.scenario_path is None) == (self.synthetic is None):
            raise InvalidConfig("config needs exactly one of scenario/synthetic")
        if self.synthetic is not None:
            self.synthetic.validate()

    def validate_run(self) -> None:
        """The checks that need no scenario source: what is scored, how,
        and in which formats."""
        for fmt in self.formats:
            if fmt not in FORMATS:
                raise InvalidConfig(f"unknown format {fmt!r}, expected one of {FORMATS}")
        if not self.approaches and not self.sweeps:
            raise InvalidConfig("config needs at least one approach or sweep")
        for spec in self.approaches:
            canonical_approach_spec(spec)  # InvalidConfig on bad grammar or a rejected value
        for members, aggregation in self.sweeps:
            canonical_sweep(members, aggregation)
        if self.folds is not None and len(self.folds) == 0:
            raise InvalidConfig("fold subset needs at least one fold")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be nonnegative, got {self.seed}")

    def load_scenario_data(self) -> ScenarioSpec:
        self._validate_source()
        if self.scenario_path is not None:
            return load_scenario(self.scenario_path)
        return generate_synthetic(self.synthetic)


def _checked(value, key, kind=int):
    """`value` if it is a `kind`: a bool is no number, an int passes as a float."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise InvalidConfig(f"{key} must be of type {kind.__name__}, got {value!r}")
    return value


def _strings(value, key) -> tuple[str, ...]:
    return tuple(_checked(v, f"each of {key}", str) for v in _checked(value, key, list))


def config_from_mapping(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise InvalidConfig("config document must be a mapping")
    unknown = set(data) - _TOP_LEVEL_KEYS
    if unknown:
        raise InvalidConfig(f"unknown config keys: {sorted(unknown)}")

    approaches = _strings(data.get("approaches", []), "approaches")
    sweeps = []
    for raw in _checked(data.get("sweeps", []), "sweeps", list):
        if not isinstance(raw, dict) or not {"members"} <= set(raw) <= {"members", "aggregation"}:
            raise InvalidConfig(f"a sweep is a mapping of members and aggregation, got {raw!r}")
        aggregation = _checked(raw.get("aggregation", "maj"), "sweep aggregation", str)
        sweeps.append((_strings(raw["members"], "sweep members"), aggregation))

    synthetic = None
    if "synthetic" in data:
        raw = data["synthetic"]
        if not isinstance(raw, dict):
            raise InvalidConfig("synthetic must be a mapping")
        defaults = {f.name: f.default for f in dataclass_fields(SyntheticConfig)}
        bad = set(raw) - set(defaults)
        if bad:
            raise InvalidConfig(f"unknown synthetic keys: {sorted(bad)}")
        for key, value in raw.items():
            _checked(value, f"synthetic.{key}", type(defaults[key]))
        synthetic = SyntheticConfig(**raw)

    folds = None
    if "folds" in data:
        folds = tuple(_checked(f, "fold") for f in _checked(data["folds"], "folds", list))

    fmt = data.get("format", "json")
    formats = (fmt,) if isinstance(fmt, str) else tuple(_checked(fmt, "format", list))
    for key in ("scenario", "out"):
        if data.get(key) is not None:
            _checked(data[key], key, str)

    config = ExperimentConfig(
        approaches=approaches,
        scenario_path=data.get("scenario"),
        synthetic=synthetic,
        folds=folds,
        seed=_checked(data.get("seed", 0), "seed"),
        out=data.get("out"),
        formats=formats,
        sweeps=tuple(sweeps),
    )
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise InvalidConfig(f"cannot read config {path}: {e}") from None
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise InvalidConfig(f"config {path} is not valid YAML/JSON: {e}") from None
    return config_from_mapping(data)
