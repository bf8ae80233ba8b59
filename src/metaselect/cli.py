"""Command-line entry points.

Exit codes: 0 on success, 1 on configuration problems (bad config file,
bad approach string, malformed scenario), 2 on runtime failures,
including an experiment whose reports were written but in which some
cell failed with an internal error.
"""

from __future__ import annotations

import sys

import click

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
)
from .runner import internal_error_cells, run_experiment, sweep_voting
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


def _exit_on_internal_errors(report):
    """Exit 2 when a cell failed with an internal error (a defect, not
    unusable input); the reports are already written by then."""
    failed = internal_error_cells(report)
    for cell in failed:
        click.echo(f"error: {cell.approach}, fold {cell.fold}: {cell.error}", err=True)
    if failed:
        sys.exit(2)


def _effective(ctx_obj, config: ExperimentConfig) -> ExperimentConfig:
    """Apply CLI overrides on top of the loaded config."""
    changes = {}
    if ctx_obj["seed"] is not None:
        changes["seed"] = ctx_obj["seed"]
    if ctx_obj["out"] is not None:
        changes["out"] = ctx_obj["out"]
    if ctx_obj["formats"]:
        changes["formats"] = ctx_obj["formats"]
    if not changes:
        return config
    from dataclasses import replace

    return replace(config, **changes)


@main.command()
@click.argument("config_path", type=click.Path(dir_okay=False))
@click.pass_context
def evaluate(ctx, config_path):
    """Run the experiment described by CONFIG_PATH (YAML or JSON)."""
    try:
        config = _effective(ctx.obj, load_config(config_path))
        report, timings = run_experiment(config)
    except MetaselectError as e:
        _fail(e)
    click.echo(markdown_summary(report), nl=False)
    if config.out:
        written = emit_report(report, config.out, config.formats, timings=timings)
        for path in written:
            click.echo(f"wrote {path}", err=True)
    _exit_on_internal_errors(report)


def _split_multi(values) -> list[str]:
    """Flatten repeatable options that may also hold comma lists."""
    out = []
    for value in values:
        out.extend(part for part in value.split(",") if part.strip())
    return [v.strip() for v in out]


@main.command("sweep-voting")
@click.option("--scenario", "scenario_path", required=True, type=click.Path(file_okay=False))
@click.option("--member", "members", multiple=True, required=True, help="Selector atom; repeatable or comma-separated.")
@click.option("--agg", default="maj", show_default=True, help="Aggregation for every composition.")
@click.option("--folds", default=None, help="Comma-separated fold subset.")
@click.pass_context
def sweep_voting_command(ctx, scenario_path, members, agg, folds):
    """Score every nonempty voting composition of the given members."""
    try:
        scenario = load_scenario(scenario_path)
        fold_subset = None
        if folds:
            fold_subset = tuple(int(f) for f in folds.split(","))
        sweep = sweep_voting(
            scenario,
            _split_multi(members),
            aggregation=agg,
            folds=fold_subset,
            global_seed=ctx.obj["seed"] or 0,
        )
    except ValueError as e:
        _fail(InvalidConfig(str(e)))
    except MetaselectError as e:
        _fail(e)
    click.echo(sweep_csv(sweep), nl=False)
    click.echo(f"best: {sweep.best_spec}", err=True)
    if ctx.obj["out"]:
        for path in emit_sweep(sweep, ctx.obj["out"], ctx.obj["formats"] or ("json",)):
            click.echo(f"wrote {path}", err=True)


@main.command()
@click.option("--scenario", "scenario_path", required=True, type=click.Path(file_okay=False))
@click.option("--selector", "selectors", multiple=True, help="Selector atoms for the selector-level baselines; default the five standard ones.")
@click.option("--folds", default=None, help="Comma-separated fold subset.")
@click.pass_context
def baselines(ctx, scenario_path, selectors, folds):
    """Per-fold oracle, SBS, AS-oracle and SBAS reference values."""
    try:
        chosen = _split_multi(selectors) if selectors else list(DEFAULT_SELECTORS)
        fold_subset = None
        if folds:
            fold_subset = tuple(int(f) for f in folds.split(","))
        config = ExperimentConfig(
            approaches=tuple(["oracle", "sbs", *chosen]),
            scenario_path=scenario_path,
            folds=fold_subset,
            seed=ctx.obj["seed"] or 0,
            out=ctx.obj["out"],
            formats=ctx.obj["formats"] or ("json",),
        )
        report, timings = run_experiment(config)
    except ValueError as e:
        _fail(InvalidConfig(str(e)))
    except MetaselectError as e:
        _fail(e)
    click.echo(baselines_csv(report), nl=False)
    if config.out:
        for path in emit_report(report, config.out, config.formats, timings=timings):
            click.echo(f"wrote {path}", err=True)
    _exit_on_internal_errors(report)


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
