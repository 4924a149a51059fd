"""Command-line interface: config handling, subcommands, exit codes."""

import inspect
import json
import threading

import numpy as np
import pytest

from conftest import PARAMS
from spark_branch import cli
from spark_branch.continuation import (DEFAULT_LIMITS, H_FIRST, H_MAX, H_MIN,
                                       trace_branch)
from spark_branch.electron import (ROOT_TOL_DEFAULT, SolverFailure,
                                   sparking_voltage)
from spark_branch.grid import DEFAULT_N, MIN_NODES
from spark_branch.steady import NEWTON_TOL
from spark_branch.cli import (RunConfig, UsageError, load_config, branch_csv,
                              BRANCH_HEADER, EXIT_OK, EXIT_FAILURE,
                              EXIT_NO_SPARK, EXIT_USAGE)


def _write_config(tmp_path, name="cfg.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(kw), encoding="utf-8")
    return str(path)


# ------------------------------------------------------------- config

def test_load_config_round_trip(tmp_path):
    path = _write_config(tmp_path, a=3.0, b=5.0, gamma=1.0, grid_n=65,
                         max_steps=17, out="result.csv")
    cfg = load_config(path)
    assert cfg.a == 3.0 and cfg.b == 5.0
    assert cfg.grid_n == 65
    assert cfg.limits()["max_steps"] == 17
    assert cfg.out == "result.csv"
    p = cfg.parameters()
    assert (p.a, p.b, p.gamma) == (3.0, 5.0, 1.0)
    assert cfg.grid().n == 65


def test_run_config_defaults_are_package_defaults():
    cfg = RunConfig()
    assert cfg.grid_n == DEFAULT_N
    assert cfg.root_tol == ROOT_TOL_DEFAULT
    assert cfg.newton_tol == NEWTON_TOL
    assert cfg.limits() == DEFAULT_LIMITS
    assert list(cfg.limits()) == list(DEFAULT_LIMITS)
    assert (cfg.h_first, cfg.h_min, cfg.h_max) == (H_FIRST, H_MIN, H_MAX)
    # the solvers' own keyword defaults are the same constants
    trace = inspect.signature(trace_branch).parameters
    for key in ("h_first", "h_min", "h_max"):
        assert trace[key].default == getattr(cfg, key)
    assert trace["tol"].default == cfg.newton_tol
    assert inspect.signature(sparking_voltage).parameters["tol"].default \
        == cfg.root_tol


@pytest.mark.parametrize("payload,fragment", [
    ({"grid_m": 65}, "unknown config keys"),
    ({"grid_n": 64.5}, "must be an integer"),
    ({"grid_n": True}, "must be an integer"),
    ({"a": "two"}, "must be a number"),
    ({"a": True}, "must be a number"),
    ({"out": 3}, "must be a string"),
    ({"grid_n": 3}, "grid_n must be at least"),
    ({"a": -1.0}, "must be positive"),
])
def test_load_config_rejections(tmp_path, payload, fragment):
    path = _write_config(tmp_path, **payload)
    with pytest.raises(UsageError, match=fragment):
        load_config(path)


@pytest.mark.parametrize("payload,fragment", [
    ({"h_first": 0.0}, "h_first must be positive and finite"),
    ({"h_first": -0.01}, "h_first must be positive and finite"),
    ({"h_min": 0.0}, "h_min must be positive and finite"),
    ({"h_max": float("inf")}, "h_max must be positive and finite"),
    ({"newton_tol": 0.0}, "newton_tol must be positive and finite"),
    ({"root_tol": -1e-10}, "root_tol must be positive and finite"),
    ({"root_tol": float("nan")}, "root_tol must be positive and finite"),
    ({"h_min": 0.01}, "h_min <= h_first <= h_max"),
    ({"h_first": 0.5}, "h_min <= h_first <= h_max"),
])
def test_load_config_rejects_bad_steps_and_tolerances(tmp_path, payload,
                                                      fragment):
    path = _write_config(tmp_path, grid_n=65, **payload)
    with pytest.raises(UsageError, match=fragment):
        load_config(path)


_BAD_LIMITS = [
    ({"max_steps": -1}, "max_steps must be at least 1"),
    ({"max_steps": 0}, "max_steps must be at least 1"),
    ({"lambda_cap": -1.0}, "lambda_cap must be positive and finite"),
    ({"lambda_cap": float("inf")}, "lambda_cap must be positive and finite"),
    ({"sup_density_cap": -5.0}, "sup_density_cap must be positive and finite"),
    ({"field_floor": 0.0}, "field_floor must be positive and finite"),
    ({"field_floor": float("nan")}, "field_floor must be positive and finite"),
    ({"loop_eps": -1.0}, "loop_eps must be positive and finite"),
]


@pytest.mark.parametrize("payload,fragment", _BAD_LIMITS)
def test_load_config_rejects_out_of_range_limits(tmp_path, payload, fragment):
    path = _write_config(tmp_path, grid_n=65, **payload)
    with pytest.raises(UsageError, match=fragment):
        load_config(path)


@pytest.mark.parametrize("payload,fragment", _BAD_LIMITS)
def test_out_of_range_limit_exits_64_without_output(tmp_path, capsys,
                                                    payload, fragment):
    path = _write_config(tmp_path, grid_n=65, **payload)
    out = tmp_path / "branch.csv"
    assert cli.main(["branch", "--config", path, "--out", str(out)]) \
        == EXIT_USAGE
    assert fragment in capsys.readouterr().err
    assert not out.exists()


def test_load_config_accepts_loose_root_tol(tmp_path):
    # a loose tolerance is a valid (if poor) choice; validate flags it
    assert load_config(_write_config(tmp_path, root_tol=10.0)).root_tol == 10.0


@pytest.mark.parametrize("h_first", [0.0, -0.01])
def test_nonpositive_step_exits_64_without_output(tmp_path, capsys, h_first):
    path = _write_config(tmp_path, grid_n=65, h_first=h_first)
    out = tmp_path / "branch.csv"
    assert cli.main(["branch", "--config", path, "--out", str(out)]) \
        == EXIT_USAGE
    assert "h_first must be positive" in capsys.readouterr().err
    assert not out.exists()


def test_load_config_requires_json_object(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(UsageError, match="JSON object"):
        load_config(str(path))
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(UsageError, match="cannot read config"):
        load_config(str(path))
    with pytest.raises(UsageError, match="cannot read config"):
        load_config(str(tmp_path / "absent.json"))


# ------------------------------------------------------------- usage errors

@pytest.mark.parametrize("argv", [
    [],
    ["emit"],
    ["scan", "--range", "0", "1", "--count", "3"],      # missing --axis
    ["scan", "--axis", "gamma", "--range", "1", "0", "--count", "3"],
    ["scan", "--axis", "gamma", "--range", "0", "1", "--count", "0"],
    ["spark", "--grid-n", "3"],
])
def test_usage_errors_exit_64(argv, capsys):
    assert cli.main(argv) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_config_errors_exit_64(tmp_path, capsys):
    path = _write_config(tmp_path, gamma=-2.0)
    assert cli.main(["spark", "--config", path]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("grid_n", [10, MIN_NODES - 1])
def test_grid_below_min_nodes_exits_64(tmp_path, capsys, grid_n):
    """A grid the solver cannot build is a usage error, from the flag
    and from the config file alike, never a traceback."""
    assert cli.main(["spark", "--grid-n", str(grid_n)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"grid_n must be at least {MIN_NODES}" in err
    path = _write_config(tmp_path, grid_n=grid_n)
    assert cli.main(["branch", "--config", path]) == EXIT_USAGE
    assert f"at least {MIN_NODES}" in capsys.readouterr().err


# ------------------------------------------------------------- spark

def test_spark_report(tmp_path):
    out = tmp_path / "spark.json"
    rc = cli.main(["spark", "--grid-n", "129", "--out", str(out)])
    assert rc == EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["lambda_dagger"] == pytest.approx(3.574, abs=5e-3)
    assert abs(report["residual_B"]) <= 1e-10
    assert report["in_gamma_region"] is True
    lo, hi = report["bracket"]
    assert lo <= report["lambda_dagger"] <= hi
    samples = report["u_dagger_samples"]
    assert len(samples["r"]) == 9 and len(samples["u"]) == 9
    assert samples["r"][0] == 1.0 and samples["r"][-1] == 2.0
    assert min(samples["u"][1:]) > 0.0


def test_spark_without_sign_change_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, gamma=1e-6, grid_n=65)
    assert cli.main(["spark", "--config", path]) == EXIT_NO_SPARK
    assert "no sparking voltage" in capsys.readouterr().err


def test_spark_solver_failure_exits_1_without_output(tmp_path, monkeypatch,
                                                    capsys):
    def failing(*args, **kwargs):
        raise SolverFailure("root refinement stalled")

    monkeypatch.setattr(cli, "sparking_voltage", failing)
    out = tmp_path / "spark.json"
    assert cli.main(["spark", "--grid-n", "65", "--out", str(out)]) \
        == EXIT_FAILURE
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sparking solve failed" in captured.err


def test_spark_bug_propagates_instead_of_exit_1(tmp_path, monkeypatch):
    # only typed solver failures become exit 1; anything else raises
    def broken(*args, **kwargs):
        raise NotImplementedError("not a solver failure")

    monkeypatch.setattr(cli, "sparking_voltage", broken)
    out = tmp_path / "spark.json"
    with pytest.raises(NotImplementedError, match="not a solver failure"):
        cli.main(["spark", "--grid-n", "65", "--out", str(out)])
    assert not out.exists()


# ------------------------------------------------------------- branch

@pytest.fixture(scope="module")
def branch_file(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("branch")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({"grid_n": 129, "max_steps": 40}),
                   encoding="utf-8")
    out = tmp / "branch.csv"
    rc = cli.main(["branch", "--config", str(cfg), "--out", str(out)])
    assert rc == EXIT_OK
    return cfg, out


def test_branch_csv_structure(branch_file):
    _, out = branch_file
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == BRANCH_HEADER
    assert lines[-1] == "# termination=MaxSteps"
    rows = [ln.split(",") for ln in lines[1:-1]]
    assert len(rows) == 40
    s = np.array([float(row[0]) for row in rows])
    assert np.all(np.diff(s) > 0.0)
    assert s[0] == 0.001            # h_first default, repr round-trip
    lam = np.array([float(row[1]) for row in rows])
    assert np.all(np.abs(lam - 3.574) < 0.05)
    iters = [int(row[6]) for row in rows]
    assert all(0 <= it <= 1 for it in iters)
    resid = np.array([float(row[7]) for row in rows])
    assert np.all(resid <= 1e-10)


def test_branch_reruns_are_byte_identical(branch_file, tmp_path):
    cfg, out = branch_file
    out2 = tmp_path / "again.csv"
    rc = cli.main(["branch", "--config", str(cfg), "--out", str(out2)])
    assert rc == EXIT_OK
    assert out.read_bytes() == out2.read_bytes()


def test_branch_csv_lists_events_before_termination(tmp_path, monkeypatch):
    trace = cli.continuation.trace_branch

    def with_event(*args, **kwargs):
        branch = trace(*args, **kwargs)
        branch.events.append({"kind": "Fold", "s": 0.0025, "lambda": 3.6,
                              "index": 2})
        return branch

    monkeypatch.setattr(cli.continuation, "trace_branch", with_event)
    path = _write_config(tmp_path, grid_n=65, max_steps=3)
    out = tmp_path / "branch.csv"
    assert cli.main(["branch", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    assert lines[-2:] == ["# event=Fold s=0.0025 lambda=3.6",
                          "# termination=MaxSteps"]


def test_branch_csv_marks_an_event_across_a_secant_fallback(tmp_path,
                                                           monkeypatch):
    trace = cli.continuation.trace_branch

    def with_event(*args, **kwargs):
        branch = trace(*args, **kwargs)
        branch.events.append({"kind": "BranchPoint", "s": 0.0025,
                              "lambda": 3.6, "index": 2, "fallback": True})
        return branch

    monkeypatch.setattr(cli.continuation, "trace_branch", with_event)
    path = _write_config(tmp_path, grid_n=65, max_steps=3)
    out = tmp_path / "branch.csv"
    assert cli.main(["branch", "--config", path, "--out", str(out)]) == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[-2:] == ["# event=BranchPoint s=0.0025 lambda=3.6 fallback=1",
                          "# termination=MaxSteps"]


def test_branch_without_sign_change_exits_2(tmp_path, capsys):
    path = _write_config(tmp_path, gamma=1e-6, grid_n=65)
    assert cli.main(["branch", "--config", path]) == EXIT_NO_SPARK
    assert "no branch" in capsys.readouterr().err


def test_branch_bug_propagates_without_partial_csv(tmp_path, monkeypatch):
    # only typed solver failures become a '# termination=error' file
    def broken(*args, **kwargs):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(cli.continuation, "trace_branch", broken)
    out = tmp_path / "branch.csv"
    with pytest.raises(TypeError, match="not a solver failure"):
        cli.main(["branch", "--grid-n", "65", "--out", str(out)])
    assert not out.exists()


# ------------------------------------------------------------- scan

def test_scan_rows_and_consistency(tmp_path):
    out = tmp_path / "scan.csv"
    rc = cli.main(["scan", "--grid-n", "65", "--axis", "gamma",
                   "--range", "0.75", "1.25", "--count", "3",
                   "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "gamma,lambda_dagger,abs_F,critical_gamma"
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert rows.shape == (3, 4)
    assert np.allclose(rows[:, 0], [0.75, 1.0, 1.25])
    # higher yield sparks at lower voltage
    assert np.all(np.diff(rows[:, 1]) < 0.0)
    assert np.all(rows[:, 2] > 1e-6)
    # the critical yield at the sparking voltage is the yield itself
    assert np.max(np.abs(rows[:, 3] - rows[:, 0])) <= 1e-9


def test_scan_failures_become_nan_rows(tmp_path):
    out = tmp_path / "scan.csv"
    rc = cli.main(["scan", "--grid-n", "65", "--axis", "gamma",
                   "--range", "1e-6", "1.0", "--count", "2",
                   "--out", str(out)])
    assert rc == EXIT_OK
    lines = out.read_text(encoding="utf-8").splitlines()
    first = lines[1].split(",")
    assert float(first[0]) == 1e-6
    assert all(v == "nan" for v in first[1:])
    second = [float(v) for v in lines[2].split(",")]
    assert np.isfinite(second).all()


def test_scan_bug_propagates_instead_of_nan_row(tmp_path, monkeypatch):
    # only solver failures become NaN rows; anything else is a bug and raises
    def broken(*args, **kwargs):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(cli, "critical_gamma", broken)
    out = tmp_path / "scan.csv"
    with pytest.raises(TypeError, match="not a solver failure"):
        cli.main(["scan", "--grid-n", "65", "--axis", "gamma",
                  "--range", "1.0", "1.0", "--count", "1",
                  "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("axis,lo,hi", [("gamma", "0", "1"), ("a", "-1", "2")])
def test_scan_invalid_parameter_exits_64_without_output(tmp_path, capsys,
                                                        axis, lo, hi):
    # every row's parameters are checked before any row runs
    out = tmp_path / "scan.csv"
    assert cli.main(["scan", "--grid-n", "65", "--axis", axis,
                     "--range", lo, hi, "--count", "2",
                     "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"parameter {axis} must be positive and finite" in err
    assert not out.exists()


def test_scan_runs_rows_in_order_in_calling_thread(tmp_path, monkeypatch):
    seen = []
    original = cli._scan_axis_row

    def recording(cfg, p):
        seen.append((threading.get_ident(), p.a))
        return original(cfg, p)

    monkeypatch.setattr(cli, "_scan_axis_row", recording)
    out = tmp_path / "scan.csv"
    rc = cli.main(["scan", "--grid-n", "65", "--axis", "a",
                   "--range", "2.0", "3.0", "--count", "3",
                   "--out", str(out)])
    assert rc == EXIT_OK
    assert seen == [(threading.get_ident(), a) for a in (2.0, 2.5, 3.0)]
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [2.0, 2.5, 3.0]


# ------------------------------------------------------------- validate

def test_validate_list_names(capsys):
    assert cli.main(["validate", "--list"]) == EXIT_OK
    names = capsys.readouterr().out.split()
    assert len(names) == 12
    assert "sparking_residual_B" in names
    assert "jacobian_fd_gap" in names


def test_validate_all_green_at_n129(capsys):
    assert cli.main(["validate", "--grid-n", "129"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count(" ok") == 12
    assert "FAIL" not in out


@pytest.mark.parametrize("n", [65, 129, 257])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_validate_green_on_frozen_sets(tmp_path, capsys, key, n):
    # the grid-aware bounds (delta^3, 16 delta^2) pass a healthy model on
    # every grid validate accepts
    p = PARAMS[key]
    path = _write_config(tmp_path, a=p.a, b=p.b, gamma=p.gamma, grid_n=n)
    assert cli.main(["validate", "--config", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count(" ok") == 12 and "FAIL" not in out


def test_validate_refuses_unresolved_grid(capsys):
    assert cli.main(["validate", "--grid-n", "33"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"validate needs grid_n >= {cli.VALIDATE_MIN_NODES}" in captured.err
    assert captured.out == ""


def test_validate_flags_broken_tolerance(tmp_path, capsys):
    # an absurd root tolerance must surface as a named failing check
    path = _write_config(tmp_path, root_tol=10.0, grid_n=129)
    assert cli.main(["validate", "--config", path]) == EXIT_FAILURE
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines()
                if ln.startswith("sparking_residual_B"))
    assert "FAIL" in line


def test_validate_bug_propagates_instead_of_failed_check(monkeypatch, capsys):
    # only typed solver failures become a FAIL line; anything else raises
    def broken(cfg, ctx):
        raise TypeError("not a solver failure")

    monkeypatch.setattr(cli, "_validation_checks", lambda: [("broken", broken)])
    with pytest.raises(TypeError, match="not a solver failure"):
        cli.main(["validate", "--grid-n", "65"])
    assert "FAIL" not in capsys.readouterr().out


# ------------------------------------------------------------- output paths

_COMMANDS = [
    ["spark", "--grid-n", "65"],
    ["branch", "--grid-n", "65"],
    ["scan", "--grid-n", "65", "--axis", "gamma", "--range", "1.0", "1.0",
     "--count", "1"],
    ["validate", "--grid-n", "65"],
    ["validate", "--list"],
]


@pytest.mark.parametrize("argv", _COMMANDS, ids=["spark", "branch", "scan",
                                                  "validate", "validate-list"])
@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_unwritable_out_exits_64_without_traceback(tmp_path, capsys, argv,
                                                   where):
    target = tmp_path / "missing" / "x.out" if where == "missing_dir" \
        else tmp_path
    cfg = _write_config(tmp_path, "cfg.json", max_steps=2)
    assert cli.main(argv + ["--config", cfg, "--out", str(target)]) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"cannot write output {target}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", _COMMANDS[:4], ids=["spark", "branch",
                                                      "scan", "validate"])
def test_unwritable_out_is_reported_before_any_solve(tmp_path, capsys,
                                                     monkeypatch, argv):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return sparking_voltage(*args, **kwargs)

    monkeypatch.setattr(cli, "sparking_voltage", counting)
    monkeypatch.setattr(cli.continuation, "sparking_voltage", counting)
    target = tmp_path / "missing" / "x.out"
    assert cli.main(argv + ["--out", str(target)]) == EXIT_USAGE
    assert f"cannot write output {target}" in capsys.readouterr().err
    assert len(calls) == 0


def test_out_probe_neither_creates_nor_truncates(tmp_path, capsys):
    # validate --grid-n 33 is a usage error found after the --out probe
    fresh = tmp_path / "fresh.txt"
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n", encoding="utf-8")
    for target in (fresh, kept):
        assert cli.main(["validate", "--grid-n", "33", "--out",
                         str(target)]) == EXIT_USAGE
    assert not fresh.exists()
    assert kept.read_text(encoding="utf-8") == "earlier output\n"


def test_validate_out_writes_the_printed_table(tmp_path, capsys):
    code = cli.main(["validate", "--grid-n", "65"])
    printed = capsys.readouterr().out
    out = tmp_path / "validate.txt"
    assert cli.main(["validate", "--grid-n", "65", "--out", str(out)]) == code
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed
    assert len(printed.splitlines()) >= 13
