"""End-to-end and per-layer benchmark of metaselect's cross-validated runs.

Run from the repository root:

    python3 perfbench/run.py --workload forest-meta-cv --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all

One process, one thread, closed loop: each repetition of the workload's
experiment starts when the previous one has returned. With `--trace 0`
the repetitions run untraced and the result holds the end-to-end
metrics; with `--trace 1` untraced and traced repetitions alternate, and
the result holds the per-layer metrics of the traced ones plus the
tracing overhead. `all` runs every workload both ways in this process.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The full result, with
the version stamp, every sample and the report digests, goes to
`perfbench/out/<workload>.trace<0|1>.json`; traced runs also write their
spans to `perfbench/out/<workload>.spans.jsonl`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# workloads puts this checkout's src/ first on sys.path and refuses any
# other copy of the package, so it is imported before metaselect
from workloads import ROOT, TOY_APPROACHES, TOY_FIXTURE, TOY_SEED, WORKLOADS  # noqa: I001
from layers import SPAN_METRICS, span_metrics
import numpy
from metaselect import runner
from metaselect.aslib import load_scenario
from metaselect.config import ExperimentConfig
from metaselect.learners import _kernels
from metaselect.report import canonical_json, sweep_json
from speed import REFERENCE_BACK_TO_BACK_S, SpeedClock
from tracer import Tracer

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
BENCHMARK_WORKLOADS = ("forest-meta-cv", "ensemble-cv")
PINNED = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
SETUP_PROBES = 11
GENERATE_REPEATS = 5
MIN_REPS = 2

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RUN_METRICS = {
    "runner.cell.fit_s.p50": "s",
    "runner.cell.fit_s.max": "s",
    "runner.baselines_s": "s",
    "runner.sweep.s": "s",
    "synthetic.generate.s": "s",
    "report.canonical_json.s": "s",
    "trace.overhead_frac": "fraction",
    "cells_failed_frac": "fraction",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def git_commit() -> str:
    """HEAD of the repository rooted at this checkout, else "unknown"."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def stamp(seed: int) -> dict:
    """What a number depends on besides the code: results with different
    stamps (kernel family, machine, versions) are not comparable."""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "USING_NUMBA": _kernels.USING_NUMBA,
        "kernel_family": "numba" if _kernels.USING_NUMBA else "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "commit": git_commit(),
    }


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to scenario ready, in fresh interpreters: raw
    wall-clock seconds, and the same at the speed clock's reference
    speed, judged by probes run just before and just after each one."""
    samples, reference = [], []
    for _ in range(SETUP_PROBES):
        before_s = SpeedClock.probe_seconds()
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline().strip()
            samples.append(time.perf_counter() - started)
            probe.stdout.read()
            if probe.wait() != 0 or line != "ready":
                raise RuntimeError(f"set-up probe failed: exit {probe.returncode}, said {line!r}")
        after_s = SpeedClock.probe_seconds()
        reference.append(samples[-1] * REFERENCE_BACK_TO_BACK_S / ((before_s + after_s) / 2))
    return samples, reference


class Rep:
    """One repetition: the workload's experiment calls and their output.

    With a clock, `wall_s` is the calls' time at the clock's reference
    speed and `wall_raw_s` their raw wall-clock time; without one, both
    are the raw time (experiment plus sweep)."""

    def __init__(self, workload, scenario, config, tracer=None, clock=None):
        experiment, sweep_voting = runner.run_experiment, runner.sweep_voting
        if tracer is not None:
            experiment = tracer.wrap("runner.experiment", experiment)
            sweep_voting = tracer.wrap("runner.sweep", sweep_voting)
        with clock.running() if clock is not None else nullcontext():
            started = time.perf_counter()
            self.report, self.timings = experiment(config, scenario)
            self.experiment_s = time.perf_counter() - started
            self.sweep, self.sweep_s = None, 0.0
            if workload.sweep:
                started = time.perf_counter()
                self.sweep = sweep_voting(
                    scenario, workload.sweep, "borda", folds=config.folds, global_seed=config.seed
                )
                self.sweep_s = time.perf_counter() - started
        self.wall_s = self.wall_raw_s = self.experiment_s + self.sweep_s
        if clock is not None:
            self.wall_raw_s, self.wall_s = clock.seconds()

        started = time.perf_counter()
        self.digests = {"report": sha256(canonical_json(self.report))}
        if self.sweep is not None:
            self.digests["sweep"] = sha256(sweep_json(self.sweep))
        self.json_s = time.perf_counter() - started
        self.problems = report_problems(self.report, self.sweep)

    @property
    def attempted(self) -> int:
        return len(self.report.cells) + (self.sweep is not None)

    @property
    def cell_seconds(self) -> float:
        return sum(t["fit_seconds"] + t["predict_seconds"]
                   for folds in self.timings.values() for t in folds.values())

    def failed(self, expected_digests) -> int:
        """Cells that ended in an error; every cell when the output is
        wrong (digest mismatch or a broken invariant)."""
        if self.problems or self.digests != expected_digests:
            return self.attempted
        return sum(cell.error is not None for cell in self.report.cells)


def report_problems(report, sweep) -> list[str]:
    """Invariants any correct report satisfies, whatever the scenario."""
    problems = []
    oracle = {b.fold: b.oracle_par10 for b in report.baselines}
    for cell in report.cells:
        if cell.error is not None:
            continue
        if cell.par10 < oracle[cell.fold]:
            problems.append(f"{cell.approach} fold {cell.fold}: PAR10 below the oracle")
        expected = {"oracle": 0.0, "sbs": 1.0}.get(cell.approach)
        if expected is not None and cell.npar10 != expected:
            problems.append(f"{cell.approach} fold {cell.fold}: nPAR10 {cell.npar10} != {expected}")
    if sweep is not None:
        if len(sweep.rows) != 2 ** len(sweep.member_specs) - 1:
            problems.append("sweep does not cover every nonempty composition")
        if sweep.best_members not in {row.members for row in sweep.rows}:
            problems.append("sweep best composition is not one of its rows")
    return problems


def toy_check() -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) of the README quick-start run on
    fixtures/toy against its pinned digest."""
    scenario = load_scenario(TOY_FIXTURE)
    config = ExperimentConfig(
        approaches=TOY_APPROACHES, scenario_path=str(TOY_FIXTURE), seed=TOY_SEED
    )
    report, _ = runner.run_experiment(config, scenario)
    attempted = len(report.cells)
    if sha256(canonical_json(report)) != PINNED["toy"]:
        return attempted, attempted, ["fixtures/toy report digest differs from the pinned one"]
    return attempted, sum(cell.error is not None for cell in report.cells), []


def layer_metrics(tracer, untraced, traced, generate, problems) -> dict:
    """Per-layer metrics: span metrics of the traced repetitions (times
    as medians, work counts required to repeat exactly) plus the
    runner's own timings from the untraced ones."""
    per_run = [span_metrics(tracer.spans, run) for run in range(len(traced))]
    metrics = {}
    for metric, unit in SPAN_METRICS.items():
        values = [m[metric] for m in per_run]
        if unit == "s":
            metrics[metric] = statistics.median(values)
            continue
        if len(set(values)) != 1:
            problems.append(f"work count {metric} differs between runs: {values}")
        metrics[metric] = values[0]
    cell_fits = [t["fit_seconds"] for rep in untraced
                 for folds in rep.timings.values() for t in folds.values()]
    metrics.update({
        "runner.cell.fit_s.p50": statistics.median(cell_fits),
        "runner.cell.fit_s.max": max(cell_fits),
        "runner.baselines_s": statistics.median(
            rep.experiment_s - rep.cell_seconds for rep in untraced),
        "runner.sweep.s": statistics.median(rep.sweep_s for rep in untraced),
        "synthetic.generate.s": statistics.median(generate),
        "report.canonical_json.s": statistics.median(rep.json_s for rep in untraced + traced),
        # adjacent untraced and traced repetitions share the machine's
        # speed at that moment, so their ratio cancels most drift
        "trace.overhead_frac": statistics.median(
            t.wall_s / u.wall_s for u, t in zip(untraced, traced)) - 1.0,
    })
    return metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    problems: list[str] = []
    result = {"workload": name, "trace": int(trace), "stamp": stamp(seed)}

    setup_raw, setup = ([], []) if trace else setup_seconds(name, seed)
    generate = []
    for _ in range(GENERATE_REPEATS):
        started = time.perf_counter()
        scenario = workload.scenario(seed)
        generate.append(time.perf_counter() - started)
    config = workload.config(seed)

    attempted, failed, toy_problems = toy_check()
    problems += toy_problems
    # the end-to-end repetitions run under the speed clock; the traced
    # run's untraced repetitions run bare, as their traced partners do
    clock = None if trace else SpeedClock()
    # warm every code path on one fold before anything is timed
    Rep(workload, scenario, workload.config(seed, folds=(scenario.fold_ids()[0],)), clock=clock)

    untraced, traced = [], []
    tracer = Tracer() if trace else None
    # repeat while the next repetition is expected to end inside the window
    deadline = time.perf_counter() + seconds
    while True:
        began = time.perf_counter()
        untraced.append(Rep(workload, scenario, config, clock=clock))
        if trace:
            tracer.run = len(traced)
            with tracer.installed():
                traced.append(Rep(workload, scenario, config, tracer))
        now = time.perf_counter()
        if len(untraced) >= MIN_REPS and 2 * now - began > deadline:
            break

    pinned = PINNED["workloads"].get(name, {}).get(str(seed))
    first = untraced[0].digests
    if pinned and first != pinned:
        problems.append(f"report digests differ from the ones pinned for seed {seed}")
    if any(rep.digests != first for rep in untraced + traced):
        problems.append("repetitions of one seed produced different reports")
    expected = pinned or first
    for rep in untraced + traced:
        attempted += rep.attempted
        failed += rep.failed(expected)
        problems += rep.problems
    walls = [rep.wall_s for rep in untraced]

    OUT.mkdir(exist_ok=True)
    if trace:
        metrics = layer_metrics(tracer, untraced, traced, generate, problems)
        metrics["cells_failed_frac"] = failed / attempted
        units = {**SPAN_METRICS, **RUN_METRICS}
        tracer.write_jsonl(OUT / f"{name}.spans.jsonl")
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    result.update({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": {
            "wall_s": walls,
            "wall_raw_s": [rep.wall_raw_s for rep in untraced],
            "traced_wall_s": [rep.wall_s for rep in traced],
            "setup_s": setup,
            "setup_raw_s": setup_raw,
        },
        "digests": first,
        "pinned_digests": pinned,
    })
    (OUT / f"{name}.trace{int(trace)}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def print_result(result: dict) -> None:
    s = result["stamp"]
    print(f"# {result['workload']} trace={result['trace']} seed={s['seed']} "
          f"python={s['python']} numpy={s['numpy']} kernels={s['kernel_family']} "
          f"(USING_NUMBA={s['USING_NUMBA']}) nproc={s['nproc']} commit={s['commit']}")
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")
    walls = result["samples"]["wall_s"]
    q1, q2, q3 = statistics.quantiles(walls, n=4)
    raw = statistics.median(result["samples"]["wall_raw_s"])
    print(f"# untraced wall_s over {len(walls)} reps: p25 {q1:.4f}  p50 {q2:.4f}  p75 {q3:.4f}"
          f"  (raw wall-clock p50 {raw:.4f})")
    print(f"# attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {result['correct']}  digests pinned: {result['pinned_digests'] is not None}")
    for problem in result["problems"]:
        print(f"# PROBLEM: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*BENCHMARK_WORKLOADS, "smoke", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measurement window; repetitions that would end after it "
                             "are not started, but at least two always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
        print_result(result)
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in BENCHMARK_WORKLOADS:
        for trace in (False, True):
            result = measure(name, args.seed, args.seconds, trace)
            print_result(result)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
