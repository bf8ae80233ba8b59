"""Loader and writer for ASlib-style scenario directories.

A scenario directory must contain ``description.txt``,
``algorithm_runs.arff``, ``feature_values.arff`` and ``cv.arff``;
``feature_costs.arff`` is optional. Only runtime-minimization scenarios
are supported. Every file is read and written as UTF-8, whatever the
locale.

Canonicalization applied at load:

* runstatus other than ``ok`` marks the run unsolved,
* unsolved runs store the cutoff as their runtime,
* solved runs recorded above the cutoff are demoted to unsolved,
* only the lowest repetition of a repeated row is kept, in every file,
* (instance, algorithm) pairs without any run are imputed as unsolved,
* a ``?`` cell, and every cell of an instance without a feature row,
  is a missing (NaN) feature,
* an instance's feature cost is the sum of all provided group costs,
  skipping ``?``, clamped at 0.

A feature file without value columns loads as zero features. A cell that
is not a number, a file that is not UTF-8 and a fold that is not an
integer raise :class:`InconsistentScenario`.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .arff import MISSING, NOMINAL, NUMERIC, STRING, Attribute, RawArffTable, dump_arff, parse_arff
from .errors import InconsistentScenario, MalformedArff
from .scenario import ScenarioSpec

REQUIRED_FILES = (
    "description.txt",
    "algorithm_runs.arff",
    "feature_values.arff",
    "cv.arff",
)


def parse_description(text: str) -> dict[str, str]:
    """Flatten description.txt into a key -> value dict.

    Lines are matched as ``key: value``; a bare ``- item`` line after an
    empty-valued key supplies that key's first list entry. Unknown keys
    are kept but never interpreted.
    """
    out: dict[str, str] = {}
    pending: str | None = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("-"):
            if pending is not None and out.get(pending, "") == "":
                out[pending] = line.lstrip("-").strip()
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().lower()
            out[key] = value.strip()
            pending = key if out[key] == "" else None
    return out


def _read_text(directory: Path, filename: str) -> str:
    try:
        return (directory / filename).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InconsistentScenario(f"{filename} is not UTF-8 (byte {exc.start})") from None


def _read_table(directory: Path, filename: str, required_columns: tuple[str, ...]) -> RawArffTable:
    try:
        table = parse_arff(_read_text(directory, filename))
    except MalformedArff as exc:
        raise MalformedArff(exc.line, f"{filename}: {exc.reason}") from None
    for name in required_columns:
        if not table.has_column(name):
            raise InconsistentScenario(f"{filename} lacks required column {name!r}")
    return table


def _number(cell, filename: str, what: str) -> float:
    """`cell` as a float, NaN for a `?` cell."""
    if cell is MISSING:
        return math.nan
    try:
        return float(cell)
    except ValueError:
        raise InconsistentScenario(f"{filename}: {what} is {cell!r}, not a number") from None


def _first_repetition_rows(table: RawArffTable, filename: str, key_cols: tuple[str, ...]):
    """Rows keyed by `key_cols`, keeping only the lowest repetition."""
    key_idx = [table.column_index(c) for c in key_cols]
    rep_idx = table.column_index("repetition") if table.has_column("repetition") else None
    best: dict[tuple, tuple[float, tuple]] = {}
    for row in table.rows:
        key = tuple(row[i] for i in key_idx)
        if rep_idx is None or row[rep_idx] is MISSING:
            rep = 1.0
        else:
            rep = _number(row[rep_idx], filename, f"repetition of {key}")
        seen = best.get(key)
        if seen is None or rep < seen[0]:
            best[key] = (rep, row)
    return {key: row for key, (_, row) in best.items()}


def _instance_columns(directory: Path, filename: str, inst_pos: dict[str, int], columns=None):
    """One (n, c) float array of a per-instance file, in instance order.

    `columns` defaults to every column but ``instance_id`` and
    ``repetition``. A `?` cell and every cell of an instance without a
    row is NaN. Also returns the ids of rows whose instance has no runs.
    """
    table = _read_table(directory, filename, ("instance_id", *(columns or ())))
    names = [attr.name for attr in table.attributes]
    if columns is None:
        keys = ("instance_id", "repetition")
        col_idx = [i for i, name in enumerate(names) if name.lower() not in keys]
    else:
        col_idx = [table.column_index(c) for c in columns]
    values = np.full((len(inst_pos), len(col_idx)), np.nan, dtype=np.float64)
    orphans = []
    for (instance_id,), row in _first_repetition_rows(table, filename, ("instance_id",)).items():
        pos = inst_pos.get(str(instance_id))
        if pos is None:
            orphans.append(str(instance_id))
            continue
        values[pos] = [
            _number(row[i], filename, f"{names[i]} of instance {instance_id!r}") for i in col_idx
        ]
    return values, orphans


def load_scenario(directory) -> ScenarioSpec:
    """Load and validate one scenario directory into a :class:`ScenarioSpec`."""
    directory = Path(directory)
    for filename in REQUIRED_FILES:
        if not (directory / filename).is_file():
            raise InconsistentScenario(f"missing required file {filename}")

    desc = parse_description(_read_text(directory, "description.txt"))
    if desc.get("maximize", "false").lower() in ("true", "yes", "1"):
        raise InconsistentScenario("maximization scenarios are not supported")
    cutoff_text = desc.get("algorithm_cutoff_time")
    if cutoff_text is None:
        raise InconsistentScenario("description.txt lacks algorithm_cutoff_time")
    try:
        cutoff = float(cutoff_text)
    except ValueError:
        raise InconsistentScenario(f"bad algorithm_cutoff_time {cutoff_text!r}") from None
    name = desc.get("scenario_id", directory.name)

    runs_file = "algorithm_runs.arff"
    runs = _read_table(directory, runs_file, ("instance_id", "algorithm", "runtime", "runstatus"))
    run_rows = _first_repetition_rows(runs, runs_file, ("instance_id", "algorithm"))

    instances: list[str] = []
    algorithms: list[str] = []
    seen_i: set[str] = set()
    seen_a: set[str] = set()
    for instance_id, algorithm in run_rows:
        if instance_id is MISSING or algorithm is MISSING:
            raise InconsistentScenario("run row with missing instance or algorithm id")
        if instance_id not in seen_i:
            seen_i.add(instance_id)
            instances.append(str(instance_id))
        if algorithm not in seen_a:
            seen_a.add(algorithm)
            algorithms.append(str(algorithm))

    n, k = len(instances), len(algorithms)
    inst_pos = {s: i for i, s in enumerate(instances)}
    algo_pos = {s: i for i, s in enumerate(algorithms)}

    # Pessimistic default: anything without a recorded run timed out.
    runtimes = np.full((n, k), cutoff, dtype=np.float64)
    solved = np.zeros((n, k), dtype=bool)
    rt_idx = runs.column_index("runtime")
    status_idx = runs.column_index("runstatus")
    for key, row in run_rows.items():
        i, a = inst_pos[str(key[0])], algo_pos[str(key[1])]
        status = row[status_idx]
        ok = status is not MISSING and str(status).lower() == "ok"
        runtime = _number(row[rt_idx], runs_file, f"runtime of {key}")
        if ok and runtime <= cutoff:  # a `?` runtime is NaN: unsolved
            runtimes[i, a] = max(0.0, runtime)
            solved[i, a] = True
        # else: stays unsolved at cutoff

    features, _ = _instance_columns(directory, "feature_values.arff", inst_pos)

    feature_costs = np.zeros(n, dtype=np.float64)
    if (directory / "feature_costs.arff").is_file():
        groups, _ = _instance_columns(directory, "feature_costs.arff", inst_pos)
        for group in groups.T:  # in file order, from 0.0, skipping `?`
            feature_costs += np.where(np.isnan(group), 0.0, group)
        feature_costs = np.fmax(feature_costs, 0.0)

    folds, orphans = _instance_columns(directory, "cv.arff", inst_pos, ("fold",))
    if orphans:
        raise InconsistentScenario(
            f"instances present in cv.arff but absent from runs: {sorted(orphans)[:5]}"
        )
    folds = folds[:, 0]
    # NaN, infinities and fractions fail; int64 holds every other fold
    bad = ~((np.abs(folds) < 2**63) & (folds == np.floor(folds)))
    if bad.any():
        raise InconsistentScenario(
            "instances with runs but no integer fold in cv.arff: "
            f"{sorted(instances[i] for i in np.flatnonzero(bad))[:5]}"
        )

    return ScenarioSpec.create(
        name=name,
        instances=instances,
        algorithms=algorithms,
        cutoff=cutoff,
        runtimes=runtimes,
        solved=solved,
        features=features,
        feature_costs=feature_costs,
        folds=folds.astype(np.int64),
    )


def _write_table(directory: Path, name: str, attributes: list[Attribute], rows: list[tuple]):
    """Write `name`.arff, relation `NAME`, as UTF-8."""
    text = dump_arff(RawArffTable(name.upper(), attributes, rows))
    (directory / f"{name}.arff").write_text(text, encoding="utf-8")


def write_scenario(spec: ScenarioSpec, directory) -> Path:
    """Write a scenario as a loadable ASlib-style directory.

    The inverse of :func:`load_scenario` up to canonicalization: loading
    the written directory yields an equal scenario. Raises a
    :class:`MetaselectError` for a name or id the files cannot hold.
    """
    if not spec.name.isprintable() or spec.name != spec.name.strip():
        raise InconsistentScenario(f"scenario name {spec.name!r} is not one trimmed line")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    (directory / "description.txt").write_text(
        "\n".join(
            [
                f"scenario_id: {spec.name}",
                "performance_measures: runtime",
                "maximize: false",
                "performance_type: runtime",
                f"algorithm_cutoff_time: {spec.cutoff!r}",
            ]
        )
        + "\n",
        encoding="utf-8",
    )

    key_attrs = [Attribute("instance_id", STRING), Attribute("repetition", NUMERIC)]
    run_attrs = key_attrs + [
        Attribute("algorithm", STRING),
        Attribute("runtime", NUMERIC),
        Attribute("runstatus", NOMINAL, ("ok", "timeout", "memout", "crash", "unknown")),
    ]
    run_rows = [
        (instance, 1.0, algorithm, float(spec.runtimes[i, a]),
         "ok" if spec.solved[i, a] else "timeout")
        for i, instance in enumerate(spec.instances)
        for a, algorithm in enumerate(spec.algorithms)
    ]
    _write_table(directory, "algorithm_runs", run_attrs, run_rows)

    def write_instance_table(name: str, columns: list[str], values: np.ndarray):
        attrs = key_attrs + [Attribute(column, NUMERIC) for column in columns]
        rows = [
            (instance, 1.0, *(MISSING if math.isnan(v) else float(v) for v in row))
            for instance, row in zip(spec.instances, values)
        ]
        _write_table(directory, name, attrs, rows)

    feature_names = [f"feature_{j}" for j in range(spec.n_features)]
    write_instance_table("feature_values", feature_names, spec.features)
    write_instance_table("feature_costs", ["all_features"], spec.feature_costs[:, None])
    write_instance_table("cv", ["fold"], spec.folds[:, None])
    return directory
