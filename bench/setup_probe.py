"""One set-up sample: a fresh interpreter imports pssurf.cli and builds a
workload's first input, then prints when it was ready (CLOCK_MONOTONIC, the
clock of time.monotonic in every process) and how long the two steps took.

Usage: python3 bench/setup_probe.py WORKLOAD SEED   (src/ on PYTHONPATH)
"""

import json
import sys
import time

t0 = time.perf_counter()
import pssurf.cli  # noqa: E402,F401  the import is what is timed
t1 = time.perf_counter()
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].inputs(int(sys.argv[2]), 0)
t2 = time.perf_counter()
print(json.dumps({"ready": time.monotonic(), "import_s": t1 - t0,
                  "inputs_s": t2 - t1}))
