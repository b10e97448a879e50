"""Config parsing: defaults, coercion, aliasing, and error accumulation."""

import dataclasses
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from besselmp import ConfigError, RunConfig, parse_config
from besselmp.config import build_options, build_spec
from besselmp.problem import CoerciveQuadraticPotential, WellPotential


def test_defaults_match_dataclass():
    cfg = parse_config("mode = solve")
    assert cfg == RunConfig(mode="solve")
    assert cfg.n == 256
    assert cfg.alpha == 0.75
    assert cfg.tol == 1e-8
    assert cfg.checks == ("auto",)
    assert cfg.out_dir == "out"


def test_key_value_form():
    cfg = parse_config("""
    # comment line
    mode = two-solutions
    potential = well
    lambda = 100.0
    mu = 0.05

    n = 128  # trailing comment
    """)
    assert cfg.mode == "two-solutions"
    assert cfg.potential == "well"
    assert cfg.lam == 100.0
    assert cfg.mu == 0.05
    assert cfg.n == 128


def test_json_form_equivalent():
    text = "mode = verify\nlambda = 7.5\nseparations = 1,2,3"
    as_json = json.dumps({"mode": "verify", "lambda": 7.5,
                          "separations": [1, 2, 3]})
    assert parse_config(text) == parse_config(as_json)


def test_lambda_alias():
    assert parse_config("lambda = 3.5").lam == 3.5


def test_list_parsing():
    cfg = parse_config("s_list = 2, 3, 3.5\nchecks = embedding, norm-domination")
    assert cfg.s_list == (2.0, 3.0, 3.5)
    assert cfg.checks == ("embedding", "norm-domination")


def test_p_range_message():
    with pytest.raises(ConfigError) as err:
        parse_config("p = 2.5")
    assert any("open interval (1, 2)" in line for line in err.value.errors)


def test_errors_accumulate():
    with pytest.raises(ConfigError) as err:
        parse_config("p = 2.5\nalpha = 1.5\nq = 1.0\nwat = 1")
    lines = err.value.errors
    assert len(lines) == 4
    assert any("p:" in line for line in lines)
    assert any("alpha:" in line for line in lines)
    assert any("q:" in line for line in lines)
    assert any("unknown key 'wat'" in line for line in lines)


def test_duplicate_key_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("n = 128\nn = 256")
    assert any("duplicate key 'n'" in line for line in err.value.errors)


def test_duplicate_key_in_json_reported():
    with pytest.raises(ConfigError) as err:
        parse_config('{"n": 128, "n": 256}')
    assert any("duplicate" in line for line in err.value.errors)


def test_json_reads_only_the_outermost_pairs():
    # a nested object's keys are not config keys, and an object or a list
    # is no value of a key that takes one
    with pytest.raises(ConfigError) as err:
        parse_config('{"out_dir": {"mu": 0.5}}')
    assert err.value.errors == ["out_dir: expected one value, got {'mu': 0.5}"]
    with pytest.raises(ConfigError) as err:
        parse_config('{"n": 64, "x": {"n": 32}}')
    assert err.value.errors == ["unknown key 'x'"]
    with pytest.raises(ConfigError) as err:
        parse_config('{"mode": ["verify"], "n": [64]}')
    assert err.value.errors == ["mode: expected one value, got ['verify']",
                                "n: expected one value, got [64]"]
    assert parse_config('{"n": 64, "separations": [2, 4]}').n == 64


@pytest.mark.parametrize("text,error", [
    ('{"out_dir": null}', "out_dir: expected a string, got null"),
    ('{"out_dir": true}', "out_dir: expected a string, got true"),
    ('{"potential": null}', "potential: expected a string, got null"),
    ('{"mode": false}', "mode: expected a string, got false"),
    ('{"checks": [null]}', "checks: expected a string, got null"),
    ('{"checks": ["auto", true]}', "checks: expected a string, got true"),
    ('{"checks": null}', "checks: expected a string, got null"),
], ids=["out_dir-null", "out_dir-true", "potential-null", "mode-false", "checks-item-null",
        "checks-item-true", "checks-null"])
def test_json_null_and_booleans_are_no_strings(text, error):
    # str() would read them as the words "None", "True" and "False": a run
    # writing into a directory named None, or an unknown choice 'None'
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == [error]


def test_malformed_line_reports_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config("mode = solve\nthis is not a pair")
    assert any("line 2" in line for line in err.value.errors)


def test_invalid_json_reported():
    with pytest.raises(ConfigError) as err:
        parse_config("{not json")
    assert any("invalid JSON" in line for line in err.value.errors)


def test_type_coercion_errors_are_per_key():
    with pytest.raises(ConfigError) as err:
        parse_config("n = many\nalpha = wide")
    assert any("n: expected an integer" in line for line in err.value.errors)
    assert any("alpha: expected a number" in line for line in err.value.errors)


def test_unknown_mode_and_checker_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("mode = frobnicate\nchecks = nope")
    assert any("mode:" in line for line in err.value.errors)
    assert any("unknown checker 'nope'" in line for line in err.value.errors)


def test_auto_does_not_mix_with_named_checks():
    with pytest.raises(ConfigError) as err:
        parse_config("mode = verify\nchecks = auto, embedding")
    assert err.value.errors == ["checks: 'auto' stands alone, got auto, embedding"]
    assert parse_config("mode = verify\nchecks = auto").checks == ("auto",)


def test_empty_separations_refused_when_splitting_runs():
    text = json.dumps({"mode": "verify", "separations": []})
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert err.value.errors == ["separations: the splitting check needs at least one separation"]
    # the rule binds only when the splitting check runs
    parse_config(json.dumps({"mode": "verify", "separations": [],
                             "checks": ["norm-domination"]}))


@pytest.mark.parametrize("value", ["inf", "nan", "2, inf", "-inf, 4"])
def test_separations_must_be_finite_when_splitting_runs(value):
    # a separation snaps to whole grid cells, which a non-finite one has none of
    with pytest.raises(ConfigError) as err:
        parse_config(f"mode = verify\nchecks = splitting\nseparations = {value}")
    bad = [s for s in (float(v) for v in value.split(",")) if not abs(s) < float("inf")]
    assert err.value.errors == [f"separations: each must be finite, got {s}" for s in bad]
    parse_config(f"mode = verify\nchecks = norm-domination\nseparations = {value}")


def test_separations_must_stay_inside_half_the_box():
    # the partner shifts by a periodic roll, so 45 on a box of 40 would be 5
    with pytest.raises(ConfigError) as err:
        parse_config("mode = verify\nchecks = splitting\nseparations = 2, 5, 45")
    assert err.value.errors == ["separations: each must be below half the box length, 20.0, got 45.0"]
    parse_config("mode = verify\nchecks = splitting\nseparations = 2, 5, 45\nbox_length = 100")
    parse_config("mode = verify\nchecks = norm-domination\nseparations = 2, 5, 45")


@pytest.mark.parametrize("text,error", [
    ({"mode": "verify", "checks": ["embedding"], "s_list": []},
     "s_list: the embedding check needs at least one exponent"),
    ({"kernel_radii": []}, "kernel_radii: the kernel table needs at least one radius"),
    ({"kernel_alphas": []}, "kernel_alphas: the kernel table needs at least one order"),
], ids=["s_list", "kernel_radii", "kernel_alphas"])
def test_empty_point_lists_refused(text, error):
    # an empty list checks nothing: the embedding table and the kernel
    # table would pass with no entry
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(text))
    assert err.value.errors == [error]


@pytest.mark.parametrize("key,value,what", [
    ("kernel_radii", "inf", "radius"), ("kernel_radii", "nan", "radius"),
    ("kernel_radii", "-1", "radius"), ("kernel_alphas", "0", "order"),
    ("kernel_alphas", "nan", "order"),
])
def test_kernel_table_values_must_be_positive_and_finite(key, value, what):
    # the rule bessel_kernel applies, refused at parse time rather than in the stage
    with pytest.raises(ConfigError) as err:
        parse_config(f"mode = kernel-table\n{key} = 0.5, {value}")
    assert err.value.errors == [f"{key}: each {what} must be positive and finite, "
                                f"got {float(value)}"]


@pytest.mark.parametrize("key", ["well_radius", "well_height", "well_ramp"])
def test_well_geometry_must_be_finite(key):
    # an infinite height fails the probe on a non-finite field, and an
    # infinite radius or ramp gives V = 0, which would certify as a well
    with pytest.raises(ConfigError) as err:
        parse_config(f"potential = well\n{key} = inf")
    name = key.removeprefix("well_")
    assert err.value.errors == [f"well {name}: must be positive and finite, got inf"]


@pytest.mark.parametrize("value", ["0", "inf", "nan"])
def test_sublevel_height_must_be_positive_and_finite(value):
    # {V < b} needs a finite height: the hypotheses measure it
    with pytest.raises(ConfigError) as err:
        parse_config(f"b = {value}")
    assert err.value.errors == [f"b: must be positive and finite, got {float(value)}"]


@pytest.mark.parametrize("value", ["0", "inf", "nan"])
def test_solver_tolerance_must_be_positive_and_finite(value):
    # at tol = inf every polish would stop at its first row and pass
    with pytest.raises(ConfigError) as err:
        parse_config(f"tol = {value}")
    assert err.value.errors == [f"tol: must be positive and finite, got {float(value)}"]


def test_removed_probe_keys_are_unknown():
    for key in ("rho_grid = 1.0, 2.0", "samples_per_rho = 64"):
        with pytest.raises(ConfigError) as err:
            parse_config(key)
        assert err.value.errors == [f"unknown key {key.split(' =')[0]!r}"]


def test_build_spec_coercive_default():
    spec = build_spec(parse_config("mode = solve"))
    assert isinstance(spec.potential, CoerciveQuadraticPotential)
    assert spec.grid.n == 256
    assert spec.alpha == 0.75


def test_build_spec_well():
    spec = build_spec(parse_config(
        "potential = well\nwell_radius = 1.5\nwell_height = 30\nwell_ramp = 2"))
    assert isinstance(spec.potential, WellPotential)
    assert spec.potential.radius == 1.5
    assert spec.potential.height == 30.0
    assert spec.potential.ramp == 2.0


def test_build_options_maps_solver_keys():
    assert build_options(parse_config("tol = 1e-6")).tol == 1e-6
    # the descent's row cap is solvers.DESCENT_MAX, and xi is the Gaussian: neither is a key
    with pytest.raises(ConfigError) as err:
        parse_config("max_iter = 99\nxi = gaussian")
    assert err.value.errors == ["unknown key 'max_iter'", "unknown key 'xi'"]


@pytest.mark.filterwarnings("ignore:n=")  # coarse grids
@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), n=st.integers(0, 300),
       box_length=st.floats(0.0, 50.0), alpha=st.floats(0.0, 1.0), p=st.floats(1.0, 2.0),
       q=st.floats(2.0, 12.0), lam=st.floats(0.0, 100.0), mu=st.floats(-0.01, 1.0),
       potential=st.sampled_from(["coercive_quadratic", "well"]),
       well_radius=st.floats(0.0, 5.0), well_height=st.floats(0.0, 100.0),
       well_ramp=st.floats(0.0, 5.0),
       tol=st.floats(0.0, 1e-3))
def test_parsed_config_always_builds(**values):
    # ranges reach each rule's boundary, so both verdicts come up often
    text = "\n".join(f"{key} = {value}" for key, value in values.items())
    try:
        cfg = parse_config(text)
    except ConfigError as err:
        assert err.errors
        return
    build_spec(cfg)
    build_options(cfg)


VERIFY_3D = "mode = verify\ndim = 3\nn = 16\nq = 3\n"


def test_verify_exponent_windows_are_checked_for_selected_checks():
    # 3-D, alpha 0.75, q 3: tau in (2, 3) and s in [2, 4); the defaults
    # tau = 1.5 and s_list = 2, 3, 4 suit dims 1 and 2 only
    with pytest.raises(ConfigError) as err:
        parse_config(VERIFY_3D)
    assert err.value.errors == [
        "tau: 1.5 outside the admissible window (2.0, 3.0) of the superquadratic-tail check",
        "s_list: exponent 4.0 outside the embedding window [2, 4.0)",
    ]
    # one line per bad exponent
    with pytest.raises(ConfigError) as err:
        parse_config(VERIFY_3D + "tau = 2.2\ns_list = 1.5, 3, 4")
    assert err.value.errors == ["s_list: exponent 1.5 outside the embedding window [2, 4.0)",
                                "s_list: exponent 4.0 outside the embedding window [2, 4.0)"]
    assert parse_config(VERIFY_3D + "tau = 2.2\ns_list = 2, 3").tau == 2.2
    # a window binds only when its check runs
    parse_config(VERIFY_3D + "checks = norm-domination, splitting")
    parse_config(VERIFY_3D.replace("verify", "solve"))
    # the command line's mode is validated with the file's keys
    with pytest.raises(ConfigError):
        parse_config(VERIFY_3D.replace("verify", "solve"), mode="verify")


def test_readme_config_table_names_every_key_once():
    # the table's rows run unbroken from its header, so a paragraph between
    # them leaves the keys after it out; an alias, in parentheses, is no key
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| key | default | meaning |")
    assert lines[start + 1] == "| --- | --- | --- |"
    named = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        named += re.findall(r"`(\w+)`", re.sub(r"\(.*?\)", "", line.split("|")[1]))
    keys = [f.name for f in dataclasses.fields(RunConfig) if f.name != "mode"]
    assert sorted(named) == sorted(keys)
