"""Time one fresh-process set-up: import pathdom and build a workload's inputs.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
Prints the elapsed seconds.  The clock starts before anything of pathdom
or of the benchmark is imported.
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.workloads()[sys.argv[1]].build_inputs(int(sys.argv[2]), sys.argv[3])
print(time.perf_counter() - t0)
