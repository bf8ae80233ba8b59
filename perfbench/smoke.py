"""Smoke check of the benchmark itself, on the three-instance fixture.

    python3 perfbench/smoke.py

Runs `run.py --workload smoke` untraced and traced from the repository
root and checks that the last output line has the result shape, that
it names exactly the metrics of BENCHMARK.json with their units, and
that the result and span files it writes parse. Exits 1 on the first
failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STAMP_KEYS = {"python", "numpy", "USING_NUMBA", "kernel_family", "nproc", "machine", "seed", "commit"}


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"smoke: FAIL: {message}")
        sys.exit(1)


def run(trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    check(done.returncode == 0, f"trace {trace}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        result = run(trace)
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              f"trace {trace}: result keys {sorted(result)}")
        check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
              f"trace {trace}: attempted {result['attempted']!r}")
        check(isinstance(result["failed"], int), f"trace {trace}: failed {result['failed']!r}")
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        expected = {m["name"]: m["unit"] for m in listed}
        check(emitted == expected,
              f"trace {trace}: metrics differ from BENCHMARK.json: "
              f"missing {sorted(expected.keys() - emitted.keys())}, "
              f"extra {sorted(emitted.keys() - expected.keys())}, "
              f"units {sorted(k for k in emitted.keys() & expected.keys() if emitted[k] != expected[k])}")
        check(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
              f"trace {trace}: a metric value is not a number")

        saved = json.loads((HERE / "out" / f"smoke.trace{trace}.json").read_text(encoding="utf-8"))
        check(saved["metrics"] == result["metrics"], f"trace {trace}: result file disagrees")
        check(set(saved["stamp"]) == STAMP_KEYS, f"trace {trace}: stamp keys {sorted(saved['stamp'])}")
        check(saved["stamp"]["seed"] == 3, f"trace {trace}: stamp seed {saved['stamp']['seed']}")
    with open(HERE / "out" / "smoke.spans.jsonl", encoding="utf-8") as spans:
        names = {json.loads(line)["name"] for line in spans}
    check({"runner.experiment", "selector.fit", "forest.fit", "knn.query"} <= names,
          f"span names {sorted(names)}")
    print("smoke: ok")


if __name__ == "__main__":
    main()
