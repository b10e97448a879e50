"""scripts/bench.py at its smallest size: the checkout against itself, one run, one round."""

import importlib.util
import json
import sys
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"


def test_bench_compares_two_loaded_copies(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("script_bench", PATH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    loaded = sys.modules["besselmp"]
    out = tmp_path / "bench.json"
    assert bench.main(["--parent-src", str(bench.ROOT / "src"), "--runs", "coercive_1d",
                       "--rounds", "1", "--repeats", "1", "--out", str(out)]) == 0
    # the copies ran beside the one already imported, which is left in place
    assert sys.modules["besselmp"] is loaded
    record = json.loads(out.read_text())
    assert record["machine"]["blas_threads"] == "1"
    run = record["runs"]["coercive_1d"]
    parent, checkout = run["parent"], run["checkout"]
    # the same source on both sides: the same counts and levels, to the bit
    assert parent == checkout and parent["certified"]
    assert parent["forward_transforms"] == parent["inverse_transforms"] == 0
    assert (parent["saddle"]["newton_minres"], parent["minimizer"]["newton_minres"]) == (16, 3)
    assert parent["saddle"]["energy"] == 3.2241889043092806
    times = run["time_ms"]
    assert times["parent"]["won"] + times["checkout"]["won"] == 1
    assert all(times[side]["q1"] <= times[side]["median"] <= times[side]["q3"]
               for side in ("parent", "checkout"))
    assert "coercive_1d" in capsys.readouterr().out
