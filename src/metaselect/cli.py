"""Command-line entry points.

Exit codes: 0 on success, 1 on configuration problems (bad config file,
bad approach string, malformed scenario), 2 on runtime failures,
including a run whose reports were written but in which some cell
failed with an internal error or some sweep failed on a fold.
"""

from __future__ import annotations

import sys
from dataclasses import replace

import click

from .approaches import _split_top
from .aslib import load_scenario, write_scenario
from .config import ExperimentConfig, load_config
from .errors import InconsistentScenario, InvalidConfig, MalformedArff, MetaselectError
from .report import (
    FORMATS,
    baselines_csv,
    emit_report,
    emit_sweep,
    markdown_summary,
    sweep_csv,
    sweep_markdown,
)
from .runner import internal_error_cells, run_config, run_experiment
from .synthetic import RULES, SyntheticConfig, generate_synthetic

DEFAULT_SELECTORS = ("peralgo", "multiclass", "pairwise", "sunny", "isac")

# Problems with what the user asked for, as opposed to failures while
# computing it. They map to exit code 1; everything else maps to 2.
CONFIG_ERRORS = (InvalidConfig, MalformedArff, InconsistentScenario)


def _fail(error: Exception):
    click.echo(f"error: {error}", err=True)
    sys.exit(1 if isinstance(error, CONFIG_ERRORS) else 2)


@click.group()
@click.option("--seed", type=int, default=None, help="Override the config's global seed.")
@click.option("--out", type=click.Path(), default=None, help="Output path base (no extension).")
@click.option(
    "--format",
    "formats",
    type=click.Choice(FORMATS),
    multiple=True,
    help="Report format(s); repeatable. Default json.",
)
@click.pass_context
def main(ctx, seed, out, formats):
    """Algorithm selection experiments: selectors, ensembles, and the
    selector-of-selectors meta level, scored as PAR10/nPAR10 under
    cross-validation."""
    ctx.obj = {"seed": seed, "out": out, "formats": tuple(formats)}


def _exit_on_errors(report, sweeps=()):
    """Exit 2 when a cell failed with an internal error (a defect, not
    unusable input) or a sweep failed on a fold; the reports are
    already written by then."""
    errors = [(f"{c.approach}, fold {c.fold}", c.error) for c in internal_error_cells(report)]
    for number, sweep in enumerate(sweeps, 1):
        errors += [(f"sweep {number}, fold {fold}", error) for fold, error in sweep.errors]
    for where, error in errors:
        click.echo(f"error: {where}: {error}", err=True)
    if errors:
        sys.exit(2)


def _effective(ctx_obj, config: ExperimentConfig) -> ExperimentConfig:
    """Apply the group options (`seed`, `out`, `formats`) the user gave
    on top of the loaded config."""
    return replace(config, **{k: v for k, v in ctx_obj.items() if v not in (None, ())})


@main.command()
@click.argument("config_path", type=click.Path(dir_okay=False))
@click.pass_context
def evaluate(ctx, config_path):
    """Run the experiment described by CONFIG_PATH (YAML or JSON)."""
    try:
        config = _effective(ctx.obj, load_config(config_path))
        report, timings, sweeps = run_config(config)
    except MetaselectError as e:
        _fail(e)
    tables = [markdown_summary(report)] if report.approaches else []
    for number, sweep in enumerate(sweeps, 1):
        members = ", ".join(sweep.member_specs)
        tables.append(f"Sweep {number}, {sweep.aggregation}: {members}\n\n{sweep_markdown(sweep)}")
    click.echo("\n".join(tables), nl=False)
    if config.out:
        written = emit_report(report, config.out, config.formats, timings=timings)
        for number, sweep in enumerate(sweeps, 1):
            written += emit_sweep(sweep, f"{config.out}.sweep{number}", config.formats)
        for path in written:
            click.echo(f"wrote {path}", err=True)
    _exit_on_errors(report, sweeps)


def _split_multi(values) -> list[str]:
    """Flatten repeatable options that may also hold comma lists; a comma
    inside an atom's brackets does not split."""
    parts = (part.strip() for value in values for part in _split_top(value, ","))
    return [part for part in parts if part]


def _fold_subset(folds) -> tuple[int, ...] | None:
    """The `--folds` comma list as fold ids; None when not given."""
    if not folds:
        return None
    try:
        return tuple(int(f) for f in folds.split(","))
    except ValueError:
        raise InvalidConfig(f"--folds takes comma-separated fold ids, got {folds!r}") from None


@main.command("sweep-voting")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(file_okay=False))
@click.option("--member", "members", multiple=True, required=True, help="Selector atom; repeatable or comma-separated.")
@click.option("--agg", default="maj", show_default=True, help="Aggregation for every composition.")
@click.option("--folds", default=None, help="Comma-separated fold subset.")
@click.pass_context
def sweep_voting_command(ctx, scenario_path, members, agg, folds):
    """Score every nonempty voting composition of the given members: a
    config with this one sweep and no approach."""
    try:
        sweeps = ((tuple(_split_multi(members)), agg),)
        config = _effective(ctx.obj, ExperimentConfig(
            approaches=(), sweeps=sweeps, scenario_path=scenario_path, folds=_fold_subset(folds)
        ))
        report, _, (sweep,) = run_config(config)
    except MetaselectError as e:
        _fail(e)
    click.echo(sweep_csv(sweep), nl=False)
    if sweep.best_spec is not None:
        click.echo(f"best: {sweep.best_spec}", err=True)
    if config.out:
        for path in emit_sweep(sweep, config.out, config.formats):
            click.echo(f"wrote {path}", err=True)
    _exit_on_errors(report, [sweep])


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(file_okay=False))
@click.option("--selector", "selectors", multiple=True, help="Selector atoms for the selector-level baselines; default the five standard ones.")
@click.option("--folds", default=None, help="Comma-separated fold subset.")
@click.pass_context
def baselines(ctx, scenario_path, selectors, folds):
    """Per-fold oracle, SBS, AS-oracle and SBAS reference values."""
    try:
        chosen = _split_multi(selectors) if selectors else list(DEFAULT_SELECTORS)
        config = _effective(ctx.obj, ExperimentConfig(
            approaches=("oracle", "sbs", *chosen), scenario_path=scenario_path,
            folds=_fold_subset(folds),
        ))
        report, timings = run_experiment(config)
    except MetaselectError as e:
        _fail(e)
    click.echo(baselines_csv(report), nl=False)
    if config.out:
        for path in emit_report(report, config.out, config.formats, timings=timings):
            click.echo(f"wrote {path}", err=True)
    _exit_on_errors(report)


@main.command("validate-scenario")
@click.argument("directory", type=click.Path(file_okay=False))
def validate_scenario(directory):
    """Load DIRECTORY and report its shape; exit 0 iff it is well-formed."""
    try:
        scenario = load_scenario(directory)
    except MetaselectError as e:
        _fail(e)
    click.echo(
        f"{scenario.name}: {scenario.n_instances} instances, "
        f"{scenario.n_algorithms} algorithms, {scenario.n_features} features, "
        f"{len(scenario.fold_ids())} folds, cutoff {scenario.cutoff:g}"
    )


@main.command("generate-synthetic")
@click.option("--instances", default=60, show_default=True, type=int)
@click.option("--algorithms", default=3, show_default=True, type=int)
@click.option("--features", default=4, show_default=True, type=int)
@click.option("--folds", default=5, show_default=True, type=int)
@click.option("--cutoff", default=100.0, show_default=True, type=float)
@click.option("--rule", default="feature_sign", show_default=True, type=click.Choice(RULES))
@click.option("--unsolved-rate", default=0.1, show_default=True, type=float)
@click.option("--feature-cost", default=0.0, show_default=True, type=float)
@click.option("--dest", required=True, type=click.Path(file_okay=False))
@click.pass_context
def generate_synthetic_command(
    ctx, instances, algorithms, features, folds, cutoff, rule, unsolved_rate, feature_cost, dest
):
    """Generate a synthetic scenario directory with known ground truth."""
    try:
        config = SyntheticConfig(
            n_instances=instances,
            n_algorithms=algorithms,
            n_features=features,
            n_folds=folds,
            cutoff=cutoff,
            rule=rule,
            unsolved_rate=unsolved_rate,
            feature_cost=feature_cost,
            seed=ctx.obj["seed"] or 0,
        )
        scenario = generate_synthetic(config)
        write_scenario(scenario, dest)
        load_scenario(dest)  # sanity: the written directory must load back
    except MetaselectError as e:
        _fail(e)
    except OSError as e:
        _fail(e)
    click.echo(f"wrote scenario {scenario.name!r} to {dest}")
