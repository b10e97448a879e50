"""One unit of each benchmark workload in ``perfbench/workloads.py``, run against ``src``.

The benchmark calls the library by name (``validate_assumptions``, the
check functions, ``two_solution_experiment``, the config builders), and
its trace mode hooks library functions by name (``perfbench/tracing.py``),
so a change that breaks one of those calls or hooks fails here rather than
only when the benchmark runs.  The file only reads ``perfbench/``.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS_PY = PERFBENCH / "workloads.py"
# hooks whose target is gone from the library; the benchmark skips each
# with a note, and its next update drops them
STALE_HOOKS = {("besselmp.solvers", "lgmres")}


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


def test_traced_library_functions_exist():
    # the trace mode rebinds each (module, attribute) of tracing.py's
    # FUNCTION_HOOKS and skips a missing one with only a note, so a rename
    # here would silently drop its span (newton, polish, armijo, ...)
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    (hooks,) = [ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "FUNCTION_HOOKS" for t in node.targets)]
    targets = {(module, attr) for module, attr, _ in hooks if module.startswith("besselmp.")}
    assert {("besselmp.solvers", "_newton_direction"), ("besselmp.solvers", "_polish"),
            ("besselmp.solvers", "_armijo_step")} <= targets
    missing = {(module, attr) for module, attr in targets
               if not hasattr(importlib.import_module(module), attr)}
    assert missing == STALE_HOOKS
