"""scripts/census.py: a small fixed census certifies or names every failure."""

import importlib.util
import types
import warnings
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "scripts" / "census.py"


@pytest.fixture
def census():
    spec = importlib.util.spec_from_file_location("script_census", PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_small_census_names_every_failure(census, capsys):
    assert census.main(["--seed", "0", "--configs", "100", "--max-n", "24"]) == 0
    out = capsys.readouterr().out
    assert "ESCAPED" not in out
    counts = {label.strip(): int(count)
              for label, count in (line.rsplit(maxsplit=1) for line in out.splitlines()[1:])}
    assert counts.pop("certified") > 0
    assert set(counts) <= {f"{stage}: {reason}" for stage, reasons in census.REASONS.items()
                           for reason in reasons}


@pytest.mark.parametrize("text,label", [
    ("mountain_pass: residual tolerance not reached",
     "mountain_pass: residual tolerance not reached"),
    ("local_min: converged at energy -0.1, above the level -0.2 at which the descent handed "
     "over: the polish left its basin", "local_min: polish left its basin"),
    ("probe: GeometryError: mu = 0.4 is not below the certified budget 0.1 (C_inf = 1, C_2 = 1)",
     "probe: mu not below the budget"),
    ("levels: solutions are not distinct", "levels: not distinct"),
    ("solutions are not distinct", None),                 # no stage
    ("local_min: residual tolerance not reached!", None),  # a reason outside the list
    ("mountain_pass: IndexError: index 3 is out of bounds", None),
    (None, None),
])
def test_classify_takes_only_a_named_stage_and_a_listed_reason(census, text, label):
    assert census.classify(text) == label


def _warns(*args, **kwargs):
    warnings.warn("overflow encountered", RuntimeWarning)
    return types.SimpleNamespace(success=True, failed_stage=None)


def _raises(*args, **kwargs):
    raise IndexError("index 3 is out of bounds")


def _unlisted(*args, **kwargs):
    return types.SimpleNamespace(success=False, failed_stage="local_min: a new reason")


@pytest.mark.parametrize("experiment,escape", [
    (_warns, "RuntimeWarning: overflow encountered"),
    (_raises, "exception IndexError: index 3 is out of bounds"),
    (_unlisted, "unclassified failure: 'local_min: a new reason'"),
])
def test_census_fails_when_a_run_escapes(census, capsys, monkeypatch, experiment, escape):
    monkeypatch.setattr(census, "two_solution_experiment", experiment)
    assert census.main(["--seed", "0", "--configs", "10", "--max-n", "16"]) == 1
    assert f"ESCAPED {escape}\n    config: dim = " in capsys.readouterr().out
