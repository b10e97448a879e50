"""Set-up cost of one workload in a fresh process: import, spec, first-use caches.

Usage: python3 perfbench/setup_probe.py <workload>

``setup`` imports besselmp from the checkout's ``src``, builds the
workload's spec(s) with first-use caches filled, and times both steps.  It
is only meaningful as the first import of besselmp in its process; run.py
calls it once itself and starts this file for further samples.
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def setup(workload):
    """Returns ({"import_s", "spec_s"}, prepared context)."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import besselmp

    t1 = time.perf_counter()
    if Path(besselmp.__file__).resolve().parent != SRC / "besselmp":
        raise ImportError(f"imported besselmp from {besselmp.__file__}, not from {SRC}")
    import workloads

    if workload not in workloads.WORKLOADS:
        raise LookupError(f"unknown workload {workload!r}; "
                          f"choose from {', '.join(workloads.WORKLOADS)}")
    context = workloads.WORKLOADS[workload].build()
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "spec_s": t2 - t1}, context


if __name__ == "__main__":
    print(json.dumps(setup(sys.argv[1])[0]))
