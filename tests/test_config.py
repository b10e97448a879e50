"""Config parsing: defaults, coercion, aliasing, and error accumulation."""

import json

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
    cfg = parse_config("s_list = 2, 3, 3.5\nchecks = embedding, holder")
    assert cfg.s_list == (2.0, 3.0, 3.5)
    assert cfg.checks == ("embedding", "holder")


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


def test_rho_grid_positivity():
    with pytest.raises(ConfigError) as err:
        parse_config("rho_grid = 1.0, -2.0")
    assert any("rho_grid" in line for line in err.value.errors)


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
    opts = build_options(parse_config("tol = 1e-6\nmax_iter = 99"))
    assert opts.tol == 1e-6
    assert opts.max_iter == 99


@pytest.mark.filterwarnings("ignore:n=")  # coarse or non-power-of-two grids
@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), n=st.integers(0, 300),
       box_length=st.floats(0.0, 50.0), alpha=st.floats(0.0, 1.0), p=st.floats(1.0, 2.0),
       q=st.floats(2.0, 12.0), lam=st.floats(0.0, 100.0), mu=st.floats(-0.01, 1.0),
       potential=st.sampled_from(["coercive_quadratic", "well"]),
       well_radius=st.floats(0.0, 5.0), well_height=st.floats(0.0, 100.0),
       well_ramp=st.floats(0.0, 5.0),
       tol=st.floats(0.0, 1e-3), max_iter=st.integers(0, 10000))
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
    parse_config(VERIFY_3D + "checks = holder, splitting")
    parse_config(VERIFY_3D.replace("verify", "solve"))
    # the command line's mode is validated with the file's keys
    with pytest.raises(ConfigError):
        parse_config(VERIFY_3D.replace("verify", "solve"), mode="verify")
