"""Set-up probe: import the package, build a workload's scenario, say so.

    python3 perfbench/setup_probe.py <workload> <seed>

run.py times fresh interpreters of this script from process start to
the "ready" line, which is the set-up a user pays on every run.
"""

import sys

from workloads import WORKLOADS

WORKLOADS[sys.argv[1]].scenario(int(sys.argv[2]))
print("ready", flush=True)
