"""SciPy stays off the import path: a solve or a verify run loads no SciPy module.

Only ``besselmp.kernels`` (quadrature and special functions) needs SciPy;
its names are imported from it alone, and the kernel-table mode imports it
when it runs.  Each guard runs in a fresh interpreter, since the test
process has SciPy loaded already.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import besselmp

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL_NAMES = ("KernelEval", "bessel_kernel", "calibrate_pointwise_constant", "pointwise_apply")

# sha256 of kernel_table.csv from ``bessel-mp kernel-table`` with the default
# config, recorded (SciPy 1.17.1) while besselmp.kernels was still imported
# with the package
KERNEL_TABLE_SHA256 = "867b2f68dd1d388a6c2398b2cac3a3aad9131cfd6d28e8255de93da6302b13a8"

_REPORT = """
import sys
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(" ".join(loaded) or "none")
"""


def _run(code, cwd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True,
                         text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("code", [
    "import besselmp, besselmp.cli",
    "from besselmp import *",
    "from besselmp import canonical_coercive_spec, two_solution_experiment\n"
    "assert two_solution_experiment(canonical_coercive_spec()).success",
    "from besselmp.cli import run\n"
    "from besselmp.config import RunConfig\n"
    "assert run(RunConfig(mode='verify', dim=2, n=64, box_length=40.0, out_dir='out')).passed",
], ids=["import", "import-star", "two-solutions-1d", "verify-2d"])
def test_no_scipy_module_is_loaded(code, tmp_path):
    assert _run(code + _REPORT, tmp_path) == "none"


def test_kernel_table_still_loads_scipy_and_writes_the_same_table(tmp_path):
    code = "from besselmp.cli import main\nassert main(['kernel-table', '--out', 'out']) == 0"
    assert "scipy.integrate" in _run(code + _REPORT, tmp_path).split()
    digest = hashlib.sha256((tmp_path / "out" / "kernel_table.csv").read_bytes()).hexdigest()
    assert digest == KERNEL_TABLE_SHA256


def test_kernel_names_live_only_in_besselmp_kernels():
    import besselmp.kernels

    assert set(KERNEL_NAMES) == set(besselmp.kernels.__all__)
    for name in KERNEL_NAMES:
        assert not hasattr(besselmp, name) and name not in besselmp.__all__
