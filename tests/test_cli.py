"""End-to-end runs of the command line driver, in process."""

import json

import pytest

from besselmp import load_field, two_solution_experiment
from besselmp.cli import main, run
from besselmp.config import build_spec, parse_config

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
                          "phase", "trials", "krylov_iters", "krylov_stop", "beta",
                          "norm_lam"], trace
        rows = [row.split(",") for row in (out / trace).read_text().splitlines()[1:]]
        # trial points behind each entry: a whole count, 0 on the final one
        trials = [int(row[header.index("trials")]) for row in rows]
        assert min(trials) >= 0 and trials[-1] == 0, trace
        # every row records its solve, the descent rows' gradient and the
        # polish rows' Newton direction: on the 1-D half grid the gradient is
        # direct, 0 MINRES iterations, and each Newton solve is MINRES stopped
        # by its forcing term; the last polish row stops at tol and solves
        # nothing
        phase, iters = header.index("phase"), header.index("krylov_iters")
        stop = header.index("krylov_stop")
        descent = "nehari" if trace == "trace.csv" else "ball"
        assert {row[phase] for row in rows} == {descent, "polish"}, trace
        assert rows[-1][phase] == "polish", trace
        assert all((int(row[iters]), row[stop]) == (0, "direct")
                   for row in rows if row[phase] == descent), trace
        assert all(int(row[iters]) >= 1 and row[stop] == "forcing"
                   for row in rows[:-1] if row[phase] == "polish"), trace
        assert (int(rows[-1][iters]), rows[-1][stop]) == (0, ""), trace
        # polish rows: the Newton step each accepted, 0 on the row that stops
        steps = [float(row[header.index("step_size")]) for row in rows if row[phase] == "polish"]
        assert all(0.0 < s <= 1.0 for s in steps[:-1]) and steps[-1] == 0.0, trace
        # the Polak-Ribiere+ weight of each descent row, never negative; 0 on the polish
        betas = [float(row[header.index("beta")]) for row in rows]
        assert all(b >= 0.0 for b in betas), trace
        assert all(b == 0.0 for b, row in zip(betas, rows) if row[phase] == "polish"), trace
        # ||u||_lam of each descent row's iterate, 0.0 on the polish rows
        norms = [float(row[header.index("norm_lam")]) for row in rows]
        assert all((n > 0.0) == (row[phase] == descent) for n, row in zip(norms, rows)), trace
        assert all(n == 0.0 for n, row in zip(norms, rows) if row[phase] == "polish"), trace
        # the stage summary's counts are sums over its trace file
        counts = {s["name"]: s["summary"] for s in rep["stages"]}[
            "mountain_pass" if trace == "trace.csv" else "local_min"]
        steps_taken = [b for b, row in zip(betas, rows) if row[phase] == descent]
        assert counts["descent_rows"] == len(steps_taken) > 0, trace
        assert counts["conjugate_rows"] == sum(b > 0.0 for b in steps_taken), trace
        assert counts["newton_krylov_iters"] == sum(
            int(row[iters]) for row in rows if row[phase] == "polish"), trace
        # 1-D solves at n = 256 run on the even half
        assert (counts["grid"], counts["grid_reason"]) == ("even", ""), trace

    summary = rep["stages"][-1]["summary"]
    levels = summary["levels"]
    assert levels["local_min_energy"] < 0.0 < levels["mountain_pass_energy"]
    # the CLI runs the library's pipeline: same config, same numbers
    assert levels == well_result.levels
    assert summary["distinctness"] == well_result.distinctness

    # saved fields round trip through the binary format
    u = load_field(out / "mountain_pass.bmpf")
    assert u.grid.n == rep["config"]["n"]


def test_report_names_the_even_grid_of_a_2d_solve(tmp_path):
    out = tmp_path / "out"
    rc = main(["two-solutions", "--config",
               str(_write(tmp_path, "dim = 2\nn = 16\nbox_length = 15\n")), "--out", str(out)])
    assert rc == 0
    summaries = {s["name"]: s["summary"] for s in _report(out)["stages"]}
    for stage in ("mountain_pass", "local_min"):
        assert (summaries[stage]["grid"], summaries[stage]["grid_reason"]) == ("even", "")


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


@pytest.mark.parametrize("text", ["q = 2.0000001", "lam = 1e200", "lam = 1e100",
                                  "box_length = 1e-300"],
                         ids=["q-near-2", "lam-1e200", "lam-1e100", "box-1e-300"])
def test_probe_that_leaves_the_float_range_fails_its_stage(tmp_path, text):
    # a ridge bound past the float range (the first three) or a bump of
    # infinite energy (a 1e-300-wide box) is a GeometryError, not a crash
    result = two_solution_experiment(build_spec(parse_config(text)))
    assert result.failed_stage.startswith("probe: GeometryError")
    out = tmp_path / "out"
    assert main(["two-solutions", "--config", str(_write(tmp_path, text)),
                 "--out", str(out)]) == 1
    (stage,) = _report(out)["stages"]
    assert stage["name"] == "probe_geometry" and not stage["passed"]
    assert stage["summary"]["error"].startswith("GeometryError: ")


def test_failed_probe_reports_its_error(tmp_path, capsys):
    # mu = 50 is far beyond the certified budget
    out = tmp_path / "out"
    rc = main(["solve", "--config", str(_write(tmp_path, "mu = 50\n")), "--out", str(out)])
    assert rc == 1

    rep = _report(out)
    assert rep["status"] == "FAILED"
    (stage,) = rep["stages"]
    assert stage["name"] == "probe_geometry" and not stage["passed"]
    assert list(stage["summary"]) == ["error"]
    assert stage["summary"]["error"] == (
        "GeometryError: mu = 50 is not below the certified budget 1.1683 "
        "(C_inf = 0.708777, C_2 = 0.707107)")
    assert "[FAIL] probe_geometry" in capsys.readouterr().out
    assert not (out / "mountain_pass.bmpf").exists()


def test_verify_mode_coercive(tmp_path):
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(_write(tmp_path, "trials = 40\n")),
               "--out", str(out)])
    assert rc == 0

    rep = _report(out)
    names = [s["name"] for s in rep["stages"]]
    assert names == [
        "verify:assumptions", "verify:superquadratic-tail", "verify:splitting",
        "verify:embedding", "verify:norm-domination",
    ]
    assert all(s["passed"] for s in rep["stages"])
    # the coercivity ladder is written with the hypothesis that walks it
    entries = {c["name"]: c for c in rep["stages"][0]["summary"]["data"]["checks"]}
    assert all("witness" in c for c in entries.values())
    ladder = entries["ball_integrals_decay"]["witness"]
    assert len(ladder["radii"]) == len(ladder["ladder"]) == 8


def test_verify_mode_well(tmp_path):
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(_write(tmp_path, WELL_CFG + "trials = 40\n")),
               "--out", str(out)])
    assert rc == 0

    rep = _report(out)
    names = [s["name"] for s in rep["stages"]]
    assert names == [
        "verify:assumptions", "verify:superquadratic-tail", "verify:splitting",
        "verify:embedding", "verify:norm-domination", "verify:sublevel-bound",
    ]
    assert all(s["passed"] for s in rep["stages"])
    # the measure of {V < b} is written by the hypothesis and the bound alike
    entries = {c["name"]: c for c in rep["stages"][0]["summary"]["data"]["checks"]}
    assert all("witness" in c for c in entries.values())
    assert (entries["finite_sublevel"]["witness"]["measure"]
            == rep["stages"][-1]["summary"]["data"]["sublevel_measure"])


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("family", ["coercive", "well"])
def test_verify_on_a_grid_with_no_sample_at_the_origin(tmp_path, dim, family):
    # on odd n no sample sits at the origin, and 150 from it on a 300-wide
    # box the width-0.5 bump of the embedding anchors is the zero field:
    # that anchor is skipped, and the constant field still attains gamma_2 = 1
    text = (WELL_CFG if family == "well" else "") + f"dim = {dim}\nn = 9\nbox_length = 300\n"
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(_write(tmp_path, text)), "--out", str(out)])
    assert rc in (0, 1)
    (embedding,) = [s for s in _report(out)["stages"] if s["name"] == "verify:embedding"]
    assert embedding["passed"]
    assert embedding["summary"]["data"]["table"]["2.0"] == 1.0


ALL_CHECKS = ("norm-domination, embedding, splitting, sublevel-bound, "
              "superquadratic-tail, assumptions")


@pytest.mark.parametrize("family", ["coercive", "well"])
def test_verify_every_check_writes_a_check_record(tmp_path, family):
    # all six checks on either family, in the order listed: every summary
    # is a CheckRecord, and none fails
    text = (WELL_CFG if family == "well" else "") + f"checks = {ALL_CHECKS}\n"
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(_write(tmp_path, text)), "--out", str(out)])

    stages = _report(out)["stages"]
    assert [s["name"] for s in stages] == [f"verify:{n}" for n in ALL_CHECKS.split(", ")]
    for stage in stages:
        assert list(stage["summary"]) == ["checker", "params", "pass", "witnesses", "data"]
        assert stage["summary"]["pass"] == stage["passed"]
    assert all(s["passed"] for s in stages)
    assert rc == 0


@pytest.mark.parametrize("name", ["coercivity", "sublevel-measure", "holder"])
def test_retired_checks_are_config_errors(tmp_path, capsys, name):
    # the ladder runs inside assumptions, the measure inside sublevel-bound;
    # holder recorded a fixed bump's quotient and passed on every input
    rc = main(["verify", "--config", str(_write(tmp_path, f"checks = {name}\n")),
               "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"checks: unknown checker {name!r}" in capsys.readouterr().err


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


@pytest.mark.parametrize("text,what", [
    ("kernel_alphas = 400\n", "order=400.0, dim=1 overflows"),
    ("kernel_radii = 1000\n", "radius=1000.0, order=0.5, dim=1 underflows"),
])
def test_kernel_outside_the_float_range_fails_its_stage(tmp_path, capsys, text, what):
    out = tmp_path / "out"
    assert main(["kernel-table", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == 1
    (stage,) = _report(out)["stages"]
    assert stage["name"] == "kernel_table" and not stage["passed"]
    assert stage["summary"]["error"].startswith("ValueError: the kernel at radius=")
    assert what in stage["summary"]["error"]


def test_out_path_that_is_a_file_is_a_config_error(tmp_path, capsys):
    taken = _write(tmp_path, "not a directory\n", name="taken")
    assert main(["kernel-table", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: out_dir: cannot create directory "
                                              f"{taken}: ")
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_config_is_a_config_error(tmp_path, capsys, case):
    path = {"missing": tmp_path / "absent.cfg", "directory": tmp_path,
            "not-utf8": tmp_path / "latin1.cfg"}[case]
    if case == "not-utf8":
        path.write_bytes("mu = 0.5  # \u00b5\n".encode("latin-1"))
    out = tmp_path / "out"
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config: cannot read {path}: ")
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("mode,text,error", [
    ("verify", {"checks": ["embedding"], "s_list": []},
     "s_list: the embedding check needs at least one exponent"),
    ("kernel-table", {"kernel_radii": []}, "kernel_radii: the kernel table needs at least one radius"),
    ("kernel-table", {"kernel_alphas": []}, "kernel_alphas: the kernel table needs at least one order"),
], ids=["s_list", "kernel_radii", "kernel_alphas"])
def test_empty_point_list_is_a_config_error(tmp_path, capsys, mode, text, error):
    # an empty list would pass its stage with an empty table
    out = tmp_path / "out"
    cfg = _write(tmp_path, json.dumps(text), name="run.json")
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {error}"]
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("text,error", [
    ({"out_dir": None}, "out_dir: expected a string, got null"),
    ({"out_dir": True}, "out_dir: expected a string, got true"),
    ({"potential": None}, "potential: expected a string, got null"),
    ({"checks": [None]}, "checks: expected a string, got null"),
], ids=["out_dir-null", "out_dir-true", "potential-null", "checks-item-null"])
def test_json_null_or_boolean_string_is_a_config_error(tmp_path, capsys, monkeypatch, text, error):
    # no run starts, and none writes into a directory named None or True
    monkeypatch.chdir(tmp_path)
    cfg = _write(tmp_path, json.dumps(text), name="run.json")
    assert main(["verify", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines() == [f"config error: {error}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


def test_config_error_exit_code(tmp_path, capsys):
    cfg = _write(tmp_path, "alpha = 2.0\nwat = 3\n")
    rc = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2

    err = capsys.readouterr().err
    assert "config error:" in err
    assert "unknown key" in err


def test_empty_check_list_is_a_config_error(tmp_path, capsys):
    # an empty selection would run no check and fail the report for no reason
    cfg = _write(tmp_path, json.dumps({"checks": []}), name="run.json")
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert rc == 2

    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: checks: select at least one check"]
    assert not (out / "report.json").exists()


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


def test_verify_empty_separations_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, json.dumps({"separations": []}), name="run.json")
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert rc == 2

    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: separations: the splitting check needs at least one separation"]
    assert not (out / "report.json").exists()


def test_verify_separation_past_half_the_box_is_a_config_error(tmp_path, capsys):
    cfg = _write(tmp_path, "checks = splitting\nseparations = 2, 5, 45\n")
    out = tmp_path / "out"
    rc = main(["verify", "--config", str(cfg), "--out", str(out)])
    assert rc == 2

    err = capsys.readouterr().err.splitlines()
    assert err == ["config error: separations: each must be below half the box length, 20.0, "
                   "got 45.0"]
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


@pytest.mark.parametrize("tau,threshold", [(2.5, 36.0), (2.9, 6.0**10)], ids=["tau2.5", "tau2.9"])
def test_verify_tail_threshold_is_closed_form(tmp_path, tau, threshold):
    # q = 3: the tail inequality holds from 6^(1/(3 - tau)) on, 36 at tau = 2.5
    # and 60,466,176 at tau = 2.9, both inside the window (2, 3) that the config admits
    cfg = _write(tmp_path, f"dim = 3\nn = 16\nq = 3\ntau = {tau}\nchecks = superquadratic-tail\n")
    out = tmp_path / "out"
    assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0

    (stage,) = _report(out)["stages"]
    rec = stage["summary"]
    assert stage["passed"] and rec["params"] == {"tau": tau}
    assert rec["data"]["threshold"] == pytest.approx(threshold, rel=1e-13)


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


def test_seed_override_echoed(tmp_path, capsys):
    # nothing in the package is random: there is no seed to override or echo
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["probe-geometry", "--seed", "7", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err
    assert main(["probe-geometry", "--config", str(_write(tmp_path, "seed = 7\n")),
                 "--out", str(out)]) == 2
    assert "config error: unknown key 'seed'" in capsys.readouterr().err
    assert main(["probe-geometry", "--out", str(out)]) == 0
    rep = _report(out)
    assert "seed" not in rep["config"]
    assert list(rep["stages"][0]["summary"]) == ["rho", "eta", "mu_budget", "mu0_lower", "c_inf",
                                                 "c_2"]


def test_report_json_round_trip(tmp_path):
    # report.json reads back as the report that run returned
    out = tmp_path / "out"
    report = run(parse_config("", mode="kernel-table", out_dir=str(out)))
    assert report.passed and _report(out) == report.as_json_dict()
