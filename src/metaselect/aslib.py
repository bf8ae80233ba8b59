"""Loader for ASlib-style scenario directories.

A scenario directory must contain ``description.txt``,
``algorithm_runs.arff``, ``feature_values.arff`` and ``cv.arff``;
``feature_costs.arff`` is optional. Only runtime-minimization scenarios
are supported.

Canonicalization applied at load:

* runstatus other than ``ok`` marks the run unsolved,
* unsolved runs store the cutoff as their runtime,
* solved runs recorded above the cutoff are demoted to unsolved,
* only repetition 1 of repeated runs is kept,
* (instance, algorithm) pairs without any run are imputed as unsolved,
* an instance's feature cost is the sum of all provided group costs.
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


def _read_table(directory: Path, filename: str) -> RawArffTable:
    path = directory / filename
    try:
        return parse_arff(path.read_text())
    except MalformedArff as exc:
        raise MalformedArff(exc.line, f"{filename}: {exc.reason}") from None


def _first_repetition_rows(table: RawArffTable, key_cols: tuple[str, ...]):
    """Rows keyed by `key_cols`, keeping only the lowest repetition."""
    key_idx = [table.column_index(c) for c in key_cols]
    rep_idx = table.column_index("repetition") if table.has_column("repetition") else None
    best: dict[tuple, tuple[float, tuple]] = {}
    for row in table.rows:
        key = tuple(row[i] for i in key_idx)
        rep = float(row[rep_idx]) if rep_idx is not None and row[rep_idx] is not MISSING else 1.0
        seen = best.get(key)
        if seen is None or rep < seen[0]:
            best[key] = (rep, row)
    return {key: row for key, (_, row) in best.items()}


def _require_columns(table: RawArffTable, filename: str, names: tuple[str, ...]):
    for name in names:
        if not table.has_column(name):
            raise InconsistentScenario(f"{filename} lacks required column {name!r}")


def load_scenario(directory) -> ScenarioSpec:
    """Load and validate one scenario directory into a :class:`ScenarioSpec`."""
    directory = Path(directory)
    for filename in REQUIRED_FILES:
        if not (directory / filename).is_file():
            raise InconsistentScenario(f"missing required file {filename}")

    desc = parse_description((directory / "description.txt").read_text())
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

    runs = _read_table(directory, "algorithm_runs.arff")
    _require_columns(
        runs, "algorithm_runs.arff", ("instance_id", "algorithm", "runtime", "runstatus")
    )
    run_rows = _first_repetition_rows(runs, ("instance_id", "algorithm"))

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
    for (instance_id, algorithm), row in run_rows.items():
        i, a = inst_pos[str(instance_id)], algo_pos[str(algorithm)]
        status = row[status_idx]
        ok = status is not MISSING and str(status).lower() == "ok"
        runtime = row[rt_idx]
        if ok and runtime is not MISSING and float(runtime) <= cutoff:
            runtimes[i, a] = max(0.0, float(runtime))
            solved[i, a] = True
        # else: stays unsolved at cutoff

    features, d = _load_features(directory, instances, inst_pos)
    feature_costs = _load_feature_costs(directory, instances, inst_pos)
    folds = _load_folds(directory, instances, inst_pos)

    return ScenarioSpec.create(
        name=name,
        instances=instances,
        algorithms=algorithms,
        cutoff=cutoff,
        runtimes=runtimes,
        solved=solved,
        features=features.reshape(n, d),
        feature_costs=feature_costs,
        folds=folds,
    )


def _load_features(directory: Path, instances: list[str], inst_pos: dict[str, int]):
    table = _read_table(directory, "feature_values.arff")
    _require_columns(table, "feature_values.arff", ("instance_id",))
    id_idx = table.column_index("instance_id")
    rep_idx = table.column_index("repetition") if table.has_column("repetition") else None
    feature_cols = [
        i for i in range(len(table.attributes)) if i not in (id_idx, rep_idx)
    ]
    d = len(feature_cols)
    features = np.full((len(instances), max(d, 1)), np.nan, dtype=np.float64)
    if d == 0:
        return features, 1
    rows = _first_repetition_rows(table, ("instance_id",))
    for (instance_id,), row in rows.items():
        pos = inst_pos.get(str(instance_id))
        if pos is None:
            continue  # features for instances without runs are discarded
        for j, col in enumerate(feature_cols):
            cell = row[col]
            features[pos, j] = np.nan if cell is MISSING else float(cell)
    return features, d


def _load_feature_costs(directory: Path, instances: list[str], inst_pos: dict[str, int]):
    costs = np.zeros(len(instances), dtype=np.float64)
    path = directory / "feature_costs.arff"
    if not path.is_file():
        return costs
    table = _read_table(directory, "feature_costs.arff")
    _require_columns(table, "feature_costs.arff", ("instance_id",))
    id_idx = table.column_index("instance_id")
    rep_idx = table.column_index("repetition") if table.has_column("repetition") else None
    cost_cols = [i for i in range(len(table.attributes)) if i not in (id_idx, rep_idx)]
    rows = _first_repetition_rows(table, ("instance_id",))
    for (instance_id,), row in rows.items():
        pos = inst_pos.get(str(instance_id))
        if pos is None:
            continue
        total = 0.0
        for col in cost_cols:
            cell = row[col]
            if cell is not MISSING and not math.isnan(float(cell)):
                total += float(cell)
        costs[pos] = max(0.0, total)
    return costs


def _load_folds(directory: Path, instances: list[str], inst_pos: dict[str, int]):
    table = _read_table(directory, "cv.arff")
    _require_columns(table, "cv.arff", ("instance_id", "fold"))
    id_idx = table.column_index("instance_id")
    fold_idx = table.column_index("fold")
    rows = _first_repetition_rows(table, ("instance_id",))

    cv_instances = {str(key[0]) for key in rows}
    run_instances = set(instances)
    only_runs = run_instances - cv_instances
    only_cv = cv_instances - run_instances
    if only_runs:
        raise InconsistentScenario(
            f"instances present in runs but absent from cv.arff: {sorted(only_runs)[:5]}"
        )
    if only_cv:
        raise InconsistentScenario(
            f"instances present in cv.arff but absent from runs: {sorted(only_cv)[:5]}"
        )

    folds = np.zeros(len(instances), dtype=np.int64)
    for (instance_id,), row in rows.items():
        cell = row[fold_idx]
        if cell is MISSING:
            raise InconsistentScenario(f"missing fold for instance {instance_id!r}")
        folds[inst_pos[str(instance_id)]] = int(float(cell))
    return folds


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
        + "\n"
    )

    run_attrs = [
        Attribute("instance_id", STRING),
        Attribute("repetition", NUMERIC),
        Attribute("algorithm", STRING),
        Attribute("runtime", NUMERIC),
        Attribute("runstatus", NOMINAL, ("ok", "timeout", "memout", "crash", "unknown")),
    ]
    run_rows = []
    for i, instance in enumerate(spec.instances):
        for a, algorithm in enumerate(spec.algorithms):
            solved = bool(spec.solved[i, a])
            run_rows.append(
                (
                    instance,
                    1.0,
                    algorithm,
                    float(spec.runtimes[i, a]),
                    "ok" if solved else "timeout",
                )
            )
    (directory / "algorithm_runs.arff").write_text(
        dump_arff(RawArffTable("ALGORITHM_RUNS", run_attrs, run_rows))
    )

    feature_names = [f"feature_{j}" for j in range(spec.n_features)]
    feat_attrs = [Attribute("instance_id", STRING), Attribute("repetition", NUMERIC)]
    feat_attrs += [Attribute(name, NUMERIC) for name in feature_names]
    feat_rows = []
    for i, instance in enumerate(spec.instances):
        cells = [
            MISSING if math.isnan(spec.features[i, j]) else float(spec.features[i, j])
            for j in range(spec.n_features)
        ]
        feat_rows.append((instance, 1.0, *cells))
    (directory / "feature_values.arff").write_text(
        dump_arff(RawArffTable("FEATURE_VALUES", feat_attrs, feat_rows))
    )

    cost_attrs = [
        Attribute("instance_id", STRING),
        Attribute("repetition", NUMERIC),
        Attribute("all_features", NUMERIC),
    ]
    cost_rows = [
        (instance, 1.0, float(spec.feature_costs[i]))
        for i, instance in enumerate(spec.instances)
    ]
    (directory / "feature_costs.arff").write_text(
        dump_arff(RawArffTable("FEATURE_COSTS", cost_attrs, cost_rows))
    )

    cv_attrs = [
        Attribute("instance_id", STRING),
        Attribute("repetition", NUMERIC),
        Attribute("fold", NUMERIC),
    ]
    cv_rows = [
        (instance, 1.0, float(spec.folds[i])) for i, instance in enumerate(spec.instances)
    ]
    (directory / "cv.arff").write_text(dump_arff(RawArffTable("CV", cv_attrs, cv_rows)))
    return directory
