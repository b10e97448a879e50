"""One unit of each benchmark workload in ``perfbench/workloads.py``, run against ``src``.

The benchmark calls the library by name (``validate_assumptions``, the
check functions, ``two_solution_experiment``, the config builders), so a
change that breaks one of those calls fails here rather than only when the
benchmark runs.  The file only reads ``perfbench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolves annotations through it
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["coercive_1d", "well_1d", "plane_2d", "verify_2d"])
def test_one_unit_of_each_workload_completes(workloads, name):
    workload = workloads.WORKLOADS[name]
    (seed,) = workloads.unit_block(name, 1, 1)
    unit = workload.run(workload.build(), seed)
    assert unit.complete
    assert [(op.name, op.status, op.detail) for op in unit.ops
            if op.status != workloads.OK] == []
