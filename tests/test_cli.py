"""End-to-end runs of the command line driver, in process."""

import json

import pytest

from besselmp import load_field
from besselmp.cli import RunReport, main

WELL_CFG = """
# canonical steep-well run
potential = well
lam = 100
mu = 0.05
well_radius = 1
well_height = 50
well_ramp = 1
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _report(out_dir):
    with open(out_dir / "report.json") as fh:
        return json.load(fh)


def test_solve_mode(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["solve", "--out", str(out)])
    assert rc == 0

    rep = _report(out)
    assert rep["status"] == "ok"
    assert [s["name"] for s in rep["stages"]] == ["probe_geometry", "mountain_pass"]
    assert all(s["passed"] for s in rep["stages"])

    assert (out / "trace.csv").exists()
    assert (out / "mountain_pass.bmpf").exists()
    header = (out / "profile.csv").read_text().splitlines()[0].split(",")
    assert "u" in header

    stdout = capsys.readouterr().out
    assert "[PASS] probe_geometry" in stdout
    assert "[PASS] mountain_pass" in stdout
    assert f"report: {out / 'report.json'}" in stdout


def test_two_solutions_mode(tmp_path, well_result):
    out = tmp_path / "out"
    rc = main(["two-solutions", "--config", str(_write(tmp_path, WELL_CFG)),
               "--out", str(out)])
    assert rc == 0

    rep = _report(out)
    assert rep["status"] == "ok"
    names = [s["name"] for s in rep["stages"]]
    assert names == ["probe_geometry", "mountain_pass", "local_min", "levels"]

    for artifact in ("trace.csv", "trace_ball.csv", "mountain_pass.bmpf",
                     "local_min.bmpf", "profile.csv"):
        assert (out / artifact).exists(), artifact
    header = (out / "profile.csv").read_text().splitlines()[0].split(",")
    assert "u_mountain_pass" in header and "u_local_min" in header

    for trace in ("trace.csv", "trace_ball.csv"):
        header = (out / trace).read_text().splitlines()[0].split(",")
        assert header == ["iteration", "energy", "residual_norm", "step_size",
                          "phase", "trials"], trace
        # trial points behind each entry: a whole count, 0 on the final one
        trials = [int(row.split(",")[-1]) for row in (out / trace).read_text().splitlines()[1:]]
        assert min(trials) >= 0 and trials[-1] == 0, trace

    summary = rep["stages"][-1]["summary"]
    levels = summary["levels"]
    assert levels["local_min_energy"] < 0.0 < levels["mountain_pass_energy"]
    # the CLI runs the library's pipeline: same config and seed, same numbers
    assert levels == well_result.levels
    assert summary["distinctness"] == well_result.distinctness

    # saved fields round trip through the binary format
    u = load_field(out / "mountain_pass.bmpf")
    assert u.grid.n == rep["config"]["n"]


def test_two_solutions_failure_marks_report(tmp_path):
    # with no concave perturbation there is no negative dip inside the ball
    cfg = _write(tmp_path, "mu = 0\n")
    out = tmp_path / "out"
    rc = main(["two-solutions", "--config", str(cfg), "--out", str(out)])
    assert rc == 1

    rep = _report(out)
    assert rep["status"] == "FAILED"
    assert not rep["passed"]
    by_name = {s["name"]: s for s in rep["stages"]}
    assert by_name["mountain_pass"]["passed"]
    assert not by_name["local_min"]["passed"]
    assert "levels" not in by_name
    # artifacts from the stages that did run are retained
    assert (out / "mountain_pass.bmpf").exists()


def test_failed_probe_reports_its_error(tmp_path, capsys):
    # mu = 50 leaves every sampled sphere minimum negative
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(_write(tmp_path, "mu = 50\n")), "--out", str(out)])
    assert rc == 1

    rep = _report(out)
    assert rep["status"] == "FAILED"
    (stage,) = rep["stages"]
    assert stage["name"] == "probe_geometry" and not stage["passed"]
    assert list(stage["summary"]) == ["error"]
    assert stage["summary"]["error"].startswith(
        "GeometryError: no sampled sphere minimum is positive")
    assert "[FAIL] probe_geometry" in capsys.readouterr().out
    assert not (out / "mountain_pass.bmpf").exists()


def test_verify_mode_coercive(tmp_path):
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(_write(tmp_path, "trials = 40\n")),
               "--out", str(out)])
    assert rc == 0

    rep = _report(out)
    names = {s["name"] for s in rep["stages"]}
    assert names == {
        "verify:assumptions", "verify:superquadratic-tail", "verify:splitting",
        "verify:holder", "verify:embedding", "verify:norm-domination",
        "verify:coercivity",
    }
    assert all(s["passed"] for s in rep["stages"])


def test_verify_mode_well(tmp_path):
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(_write(tmp_path, WELL_CFG + "trials = 40\n")),
               "--out", str(out)])
    assert rc == 0

    rep = _report(out)
    names = {s["name"] for s in rep["stages"]}
    assert names == {
        "verify:assumptions", "verify:superquadratic-tail", "verify:splitting",
        "verify:holder", "verify:embedding", "verify:norm-domination",
        "verify:sublevel-bound", "verify:sublevel-measure",
    }
    assert all(s["passed"] for s in rep["stages"])


def test_probe_geometry_mode(tmp_path):
    out = tmp_path / "out"
    rc = main(["probe-geometry", "--out", str(out)])
    assert rc == 0

    rep = _report(out)
    (stage,) = rep["stages"]
    assert stage["name"] == "probe_geometry"
    assert stage["summary"]["eta"] > 0.0
    assert stage["summary"]["rho"] > 0.0

    e = load_field(out / "endpoint.bmpf")
    assert e.grid.n == 256


def test_kernel_table_mode(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["kernel-table", "--out", str(out)])
    assert rc == 0

    text = (out / "kernel_table.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "radius,alpha,dim,G_value,est_error"
    assert len(lines) == 1 + 4 * 5  # default alpha grid times radius grid

    stdout = capsys.readouterr().out
    assert "radius,alpha,dim,G_value,est_error" in stdout


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "alpha = 2.0\nwat = 3\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2

    err = capsys.readouterr().err
    assert "config error:" in err
    assert "unknown key" in err


@pytest.mark.parametrize("mode", ["solve", "verify"])
@pytest.mark.parametrize("text,limit", [
    ("dim = 3\n", 4.0),              # default alpha 0.75: 2*3/(3 - 1.5)
    ("alpha = 0.25\n", 4.0),         # 1-D: 2/(1 - 0.5)
    ("dim = 2\nq = 9\n", 8.0),       # 2*2/(2 - 1.5)
], ids=["dim3", "alpha-quarter", "dim2-q9"])
def test_supercritical_growth_is_a_config_error(tmp_path, capsys, mode, text, limit):
    out = tmp_path / "out"
    rc = main([mode, "--config", str(_write(tmp_path, text)), "--out", str(out)])
    assert rc == 2

    err = capsys.readouterr().err
    assert f"config error: q: growth exponent must lie in (2, {limit})" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_verify_exponent_windows_are_config_errors(tmp_path, capsys):
    cfg = _write(tmp_path, "dim = 3\nn = 16\nq = 3\n")
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert rc == 2

    err = capsys.readouterr().err.splitlines()
    assert err == [
        "config error: tau: 1.5 outside the admissible window (2.0, 3.0) "
        "of the superquadratic-tail check",
        "config error: s_list: exponent 4.0 outside the embedding window [2, 4.0)",
    ]
    assert not (out / "report.json").exists()

    # inside the windows both checks run, and on the quadratic f = u|u| pass
    cfg = _write(tmp_path, "dim = 3\nn = 16\nq = 3\ntau = 2.2\ns_list = 2, 3\n"
                           "trials = 20\nchecks = superquadratic-tail, embedding\n")
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
    assert [s["name"] for s in _report(out)["stages"]] == [
        "verify:superquadratic-tail", "verify:embedding"]


def test_verify_tail_scan_reaches_a_threshold_past_twenty(tmp_path):
    # q = 3, tau = 2.5: the tail inequality holds from 6^(1/(3 - tau)) = 36 on
    cfg = _write(tmp_path, "dim = 3\nn = 16\nq = 3\ntau = 2.5\nchecks = superquadratic-tail\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0

    (stage,) = _report(out)["stages"]
    rec = stage["summary"]
    assert stage["passed"] and rec["params"]["u_max"] == 40.0
    assert abs(rec["data"]["threshold"] - 36.0) <= rec["witnesses"][0]["scan_step"]


def test_grid_too_large_is_a_config_error(tmp_path, capsys):
    # dim = 3 with the default n = 256 asks for 16.8M points
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(_write(tmp_path, "dim = 3\nq = 3\n")),
               "--out", str(out)])
    assert rc == 2

    err = capsys.readouterr().err
    assert "config error: n=256 in dim 3 gives 16,777,216 points, " \
           "above the grid point limit of 1,048,576" in err
    assert "Traceback" not in err
    assert not (out / "report.json").exists()


def test_runs_are_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--out", str(out_a)]) == 0
    assert main(["solve", "--out", str(out_b)]) == 0

    rep_a, rep_b = _report(out_a), _report(out_b)
    for rep in (rep_a, rep_b):
        rep["config"].pop("out_dir")
        for stage in rep["stages"]:
            stage.pop("wall_seconds")
    assert rep_a == rep_b

    blob_a = (out_a / "mountain_pass.bmpf").read_bytes()
    blob_b = (out_b / "mountain_pass.bmpf").read_bytes()
    assert blob_a == blob_b


def test_seed_override_echoed(tmp_path):
    out = tmp_path / "out"
    rc = main(["probe-geometry", "--seed", "7", "--out", str(out)])
    assert rc == 0
    rep = _report(out)
    assert rep["config"]["seed"] == 7
    assert rep["stages"][0]["summary"]["seed"] == 7


def test_report_json_round_trip(tmp_path):
    out = tmp_path / "out"
    assert main(["kernel-table", "--out", str(out)]) == 0
    data = _report(out)
    assert RunReport.from_json_dict(data).as_json_dict() == data
