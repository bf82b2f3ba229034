import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cavitybic import cli, dynamics
from cavitybic.cli import MAX_GRID_POINTS, SCHEMAS, main, parse_config_file, resolve_config


def run_cli(*args):
    # the child imports cavitybic from wherever this process does (src/ when
    # run from a checkout through pytest's pythonpath setting)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-m", "cavitybic", *args],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(*args):
    # faster path for the heavier drivers; stdout captured by pytest
    return main(list(args))


def run_captured(capsys, *args):
    # ``main`` in this process, read back as run_cli reads a child:
    # (exit code, stdout, stderr)
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bic_report_contents(capsys):
    code = run_in_process("bic", "--set", "m_atoms=2", "--set", "k_excitations=2")
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("# experiment=bic")
    assert "m,n,amplitude" in out
    assert "status=PASS" in out
    values = {line.split("=")[0]: line.split("=")[1]
              for line in out.splitlines() if "=" in line and not line.startswith("#")}
    assert float(values["eigen_residual"]) < 1e-10
    assert float(values["nullspace_overlap"]) == pytest.approx(1.0, abs=1e-10)
    assert float(values["random_unit_residual"]) > 1e-3
    assert float(values["atom_fraction"]) > 0.9  # chi = 0.1 default


def test_bic_rejects_too_many_excitations():
    code, _out, err = run_cli("bic", "--set", "k_excitations=5")
    assert code == 1
    assert "no trapped state" in err


def test_bic_ground_state():
    buffer = io.StringIO()
    from cavitybic.cli import run_bic
    config = resolve_config("bic", {"k_excitations": "0", "omega_c": "0.9"})
    assert run_bic(config, buffer) == 0
    text = buffer.getvalue()
    values = {line.split("=")[0]: line.split("=")[1]
              for line in text.splitlines() if "=" in line and not line.startswith("#")}
    # trivial ground state: all atoms down, energy -M omega_a
    assert float(values["energy"]) == pytest.approx(-2 * 0.9)
    assert "status=PASS" in text

    # (K - M) * 0.0 is -0.0; the energy line prints it unsigned
    buffer = io.StringIO()
    assert run_bic(resolve_config("bic", {"k_excitations": "1"}), buffer) == 0
    assert "energy=0" in buffer.getvalue().splitlines()


def test_invalid_config_key_exits_with_validation_error(capsys):
    code, _out, err = run_captured(capsys, "bic", "--set", "bogus_key=1")
    assert code == 1
    assert "unknown config key" in err


def test_invalid_param_value_exits_with_validation_error(capsys):
    code, _out, err = run_captured(capsys, "bic", "--set", "m_atoms=0")
    assert code == 1
    assert "m_atoms" in err


def test_sweep_chi_csv(tmp_path):
    out_path = tmp_path / "sweep.csv"
    code = run_in_process("sweep-chi", "--set", "chi_points=7",
                          "--set", "chi_min=0.5", "--set", "chi_max=5",
                          "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "chi,mean_photons,mean_excited,photon_fraction,atom_fraction"
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in lines if line and not line.startswith("#")
                     and not line.startswith("chi")])
    assert rows.shape == (7, 5)
    # photon fraction grows monotonically with chi
    assert np.all(np.diff(rows[:, 3]) > 0)
    # composition crossing sits inside the sweep range for M = K = 2
    assert rows[0, 3] < 0.5 < rows[-1, 3]


def test_sweep_chi_single_point():
    buffer = io.StringIO()
    from cavitybic.cli import run_sweep_chi
    config = resolve_config("sweep-chi", {"chi_points": "1", "chi_min": "2.0"})
    assert run_sweep_chi(config, buffer) == 0
    data_rows = [line for line in buffer.getvalue().splitlines()
                 if line and not line.startswith(("#", "chi"))]
    assert len(data_rows) == 1
    assert data_rows[0].startswith("2,")


def test_sweep_chi_empty_grid(capsys):
    code, _out, err = run_captured(capsys, "sweep-chi", "--set", "chi_points=0")
    assert code == 1
    assert "empty grid" in err


def test_workers_key_is_rejected(capsys):
    code = run_in_process("sweep-chi", "--set", "workers=2", "--set", "chi_points=3")
    captured = capsys.readouterr()
    assert code == 1
    assert "unknown config key" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("override", ["gamma_c=nan", "g=inf"])
def test_non_finite_param_exits_with_validation_error(capsys, override):
    code = run_in_process("bic", "--set", override)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert override.split("=")[0] in captured.err
    assert "status=PASS" not in captured.out


def test_identical_configs_give_identical_bytes(tmp_path):
    blobs = []
    for i in range(2):
        path = tmp_path / f"out{i}.csv"
        code = run_in_process("qfactor", "--set", "delta_points=9", "--out", str(path))
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


def test_qfactor_csv_and_tolerance_gate(tmp_path):
    out_path = tmp_path / "q.csv"
    code = run_in_process("qfactor", "--set", "delta_points=13", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "delta_over_gc,q_exact,q_approx,rel_err"
    rows = np.array([[float(x) for x in line.split(",")]
                     for line in lines
                     if line and not line.startswith(("#", "delta"))])
    assert rows.shape == (13, 4)
    mid = rows[6]
    assert mid[0] == 0.0
    assert mid[1] == max(rows[:, 1])  # peak at zero detuning
    assert np.all(rows[:, 3] < 0.05)
    # symmetric in detuning
    assert rows[0, 1] == pytest.approx(rows[-1, 1], rel=1e-8)

    code = run_in_process("qfactor", "--set", "delta_points=13",
                          "--set", "max_rel_err=1e-6", "--out", str(out_path))
    assert code == 3


def test_evolve_csv_headers_and_steady_flag(tmp_path):
    out_path = tmp_path / "evolve.csv"
    code = run_in_process("evolve", "--set", "t_end=60", "--set", "snapshot_dt=5",
                          "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "lambda_t,P0,P1,P2,trace,min_eig"
    assert "# steady_state_reached=false" in lines
    rows = [line for line in lines if line and not line.startswith(("#", "lambda"))]
    assert len(rows) == 13  # t = 0 .. 60 in steps of 5
    trace = float(rows[-1].split(",")[4])
    assert trace == pytest.approx(1.0, abs=1e-9)


def test_evolve_without_leakage_never_steadies(tmp_path):
    out_path = tmp_path / "evolve0.csv"
    code = run_in_process("evolve", "--set", "gamma_c=0", "--set", "t_end=20",
                          "--set", "snapshot_dt=2", "--out", str(out_path))
    assert code == 0
    assert "# steady_state_reached=false" in out_path.read_text().splitlines()


def _csv_columns(text):
    # the table of a run's output, as one array per header name
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return dict(zip(lines[0].split(","), rows.T))


def _runs_at_omega_c(capsys, *argv):
    tables = []
    for omega_c in ("0", "1e8"):
        code, out, _err = run_captured(capsys, *argv, "--set", f"omega_c={omega_c}")
        assert code == 0
        tables.append(_csv_columns(out))
    return tables


def test_evolve_at_a_large_cavity_frequency_keeps_its_populations(capsys):
    # the frame leaves only -delta per excited atom on the diagonal, so a
    # carrier of 1e8 costs the populations no digits
    at_zero, at_large = _runs_at_omega_c(capsys, "evolve", "--set", "t_end=400",
                                         "--set", "detect_steady=false")
    for name in ("P0", "P1", "P2"):
        assert np.abs(at_large[name] - at_zero[name]).max() <= 1e-12


def test_qfactor_at_a_large_cavity_frequency_keeps_its_quality_factor(capsys):
    at_zero, at_large = _runs_at_omega_c(capsys, "qfactor", "--set", "delta_points=61")
    rel = np.abs(at_large["q_exact"] - at_zero["q_exact"]) / at_zero["q_exact"]
    assert rel.max() <= 1e-7


def test_config_file_plus_overrides(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("# comment line\nm_atoms=2\nk_excitations=1\ng=0.2\n")
    parsed = parse_config_file(str(config))
    assert parsed == {"m_atoms": "2", "k_excitations": "1", "g": "0.2"}
    code, out, _err = run_captured(capsys, "bic", "--config", str(config),
                                   "--set", "k_excitations=2")
    assert code == 0
    assert "# k_excitations=2" in out
    assert "# g=0.2" in out.replace("0.20000000000000001", "0.2")


def test_seed_flag_changes_baseline_only(tmp_path, capsys):
    outputs = []
    for seed in ("1", "2"):
        code, out, _ = run_captured(capsys, "bic", "--seed", seed)
        assert code == 0
        outputs.append(out)
    pick = lambda txt, key: [ln for ln in txt.splitlines() if ln.startswith(key)]
    assert pick(outputs[0], "random_unit_residual") != pick(outputs[1], "random_unit_residual")
    assert pick(outputs[0], "eigen_residual") == pick(outputs[1], "eigen_residual")


@pytest.mark.parametrize("argv", [("--set", "seed=-1"), ("--seed", "-1")])
def test_negative_seed_is_rejected(argv, capsys):
    code, out, err = run_captured(capsys, "bic", *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: bad value for 'seed': must be >= 0, got -1"]


@pytest.mark.parametrize("setting", ["snapshot_dt=0", "t_end=inf", "t_end=nan",
                                     "snapshot_dt=-1", "t_end=-5",
                                     "snapshot_dt=1e-300", "snapshot_dt=1e-9"])
def test_evolve_rejects_bad_time_grid(setting, capsys):
    code = run_in_process("evolve", "--set", setting)
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert setting.split("=")[0] in err and "Traceback" not in err


def test_non_finite_float_key_is_rejected(capsys):
    code = run_in_process("sweep-chi", "--set", "chi_max=inf")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: bad value for 'chi_max': must be finite, got 'inf'"]


def test_auto_q_without_a_resonant_mode_is_rejected(capsys):
    # an odd chain has no mode at omega_c: the nearest lies 1.0 from the atoms
    code = run_in_process("bic", "--set", "n_chain=3")
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: no resonant chain mode")


@pytest.mark.parametrize("setting, message", [
    ("n_chain=4", "error: qfactor requires the triple-cavity configuration (n_chain=2)"),
    ("gamma_c=0", "error: qfactor requires gamma_c > 0: its detuning grid is in units of gamma_c"),
    # without coupling the closed-form rate is 0/0 at zero detuning
    ("g=0", "error: qfactor requires g != 0: its closed-form decay rate is 0/0 "
            "at zero detuning without coupling"),
])
def test_qfactor_outside_its_model_is_rejected(setting, message, capsys):
    code = run_in_process("qfactor", "--set", setting)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.splitlines() == [message]
    assert "status=PASS" not in captured.out


@pytest.mark.parametrize("argv", [
    ("bic", "--set", "g=1e308"),  # chi^2 overflows
    ("bic", "--set", "g=1e150"),  # the table's norm overflows
    ("sweep-chi", "--set", "chi_max=1e300", "--set", "chi_points=3"),
    ("sweep-chi", "--set", "chi_min=1e100", "--set", "chi_max=1e100", "--set", "chi_points=1"),
])
def test_overflowing_amplitude_table_is_a_numerical_failure(argv, capsys):
    code = run_in_process(*argv)
    captured = capsys.readouterr()
    assert code == 2
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("numerical failure: the K=2 amplitude table overflows")
    assert "nan" not in captured.out and "status=" not in captured.out


def test_evolve_at_an_exceptional_point_runs_on_rk45(capsys):
    # g = gamma_c / 4 with one atom per end: the K = 1 H_eff is defective
    code = run_in_process("evolve", "--set", "n_chain=2", "--set", "m_atoms=1",
                          "--set", "g=0.25")
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "# steady_state_reached=true" in captured.out.splitlines()


# Run in a fresh interpreter, since this one has imported scipy.integrate
# already; the report is the child's last stdout line.  hasattr is False only
# on AttributeError.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from cavitybic import cli, dynamics
lazy = ("scipy.integrate", "scipy.linalg", "scipy.optimize")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main([name]) for name in ("bic", "sweep-chi", "qfactor")]
    loaded = [name for name in lazy if name in sys.modules]
    codes.append(cli.main(["evolve", "--set", "n_chain=2", "--set", "m_atoms=1",
                           "--set", "g=0.25"]))
integrate_after_rk45 = "scipy.integrate" in sys.modules
import scipy.integrate
print(json.dumps({"codes": codes, "loaded": loaded,
                  "integrate_after_rk45": integrate_after_rk45,
                  "traced_name": dynamics.solve_ivp is scipy.integrate.solve_ivp,
                  "other_name": hasattr(dynamics, "no_such_name")}))
"""


def test_only_the_rk45_fallback_imports_scipy_integrate():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report == {"codes": [0, 0, 0, 0], "loaded": [], "integrate_after_rk45": True,
                      "traced_name": True, "other_name": False}


def _qfactor_rows(out):
    return [line.split(",") for line in out.splitlines()
            if line and not line.startswith(("#", "delta"))]


def test_qfactor_unbounded_q_on_both_sides_is_no_error(capsys):
    # without atomic loss the trapped mode at zero detuning never decays,
    # and the closed form says so too: |Q - q| / Q is 0 there, not nan
    code, out, err = run_captured(capsys, "qfactor", "--set", "gamma_a=0")
    assert code == 0 and err == ""
    rows = _qfactor_rows(out)
    assert ["0", "inf", "inf", "0"] in rows
    assert all(row[3] != "nan" for row in rows)
    assert "# status=PASS" in out.splitlines()


def test_qfactor_unbounded_exact_q_fails_a_finite_approximation(capsys):
    # Q = inf against a finite closed form is a relative error of 1 (the
    # limit of |Q - q| / Q), which the 0.05 gate rejects
    code, out, err = run_captured(capsys, "qfactor", "--set", "gamma_a=0",
                                  "--set", "delta_min=1e-7", "--set", "delta_max=1e-7",
                                  "--set", "delta_points=1", "--set", "max_rel_err=0.05")
    assert code == 3 and err == ""
    assert _qfactor_rows(out) == [["9.9999999999999995e-08", "inf", "4.0000000000000005e+18", "1"]]
    assert out.splitlines()[-2:] == ["# max_rel_err_observed=1", "# status=FAIL"]


def test_qfactor_degenerate_points_give_one_warning_line(capsys):
    # at tiny coupling every point has a degenerate least-damped pair
    code, out, err = run_captured(capsys, "qfactor", "--set", "g=1e-100")
    assert code == 0
    assert err.splitlines() == ["warning: degenerate minimal decay pair at 61 of 61 grid points; "
                                "q_exact there uses the smallest rate"]
    assert len(_qfactor_rows(out)) == 61
    assert "# status=PASS" in out.splitlines()


@pytest.mark.parametrize("settings", [
    ("g=1e-200", "delta_points=3"),  # g^2 underflows: 0/0 at zero detuning
    ("gamma_a=0", "g=1e-100", "delta_points=3"),  # g^4 underflows: 0/0 there too
    ("delta_min=-1e300", "delta_max=1e300", "delta_points=3"),  # delta^2 overflows
])
def test_qfactor_with_an_undefined_closed_form_is_a_numerical_failure(settings, capsys):
    argv = [arg for setting in settings for arg in ("--set", setting)]
    code, out, err = run_captured(capsys, "qfactor", *argv)
    assert code == 2
    assert "numerical failure: the closed-form decay rate is undefined at delta_over_gc=" in err
    assert "nan" not in out and "status=" not in out


@pytest.mark.parametrize("kind", ["config_is_a_directory", "out_is_a_directory",
                                  "config_is_not_utf8"])
def test_unreadable_config_or_out_path_is_a_validation_error(kind, tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_bytes(b"g=0.1\n\xff\n")
    option, path = {"config_is_a_directory": ("--config", tmp_path),
                    "out_is_a_directory": ("--out", tmp_path),
                    "config_is_not_utf8": ("--config", bad)}[kind]
    code, out, err = run_captured(capsys, "bic", option, str(path))
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("bic", "--set", "k_excitations=5"),  # exit 1 from inside the driver
    ("bic", "--set", "g=1e308"),  # exit 2
    ("sweep-chi", "--set", "chi_points=0"),
    ("qfactor", "--set", "n_chain=4"),
    ("sweep-chi", "--set", "chi_points=1", "--set", "chi_scale=bogus"),
])
def test_a_failed_run_writes_nothing(argv, tmp_path, capsys):
    # the echo is buffered with the rest: a driver that raises leaves stdout
    # empty and an existing --out file as it was
    code, out, err = run_captured(capsys, *argv)
    assert code in (1, 2) and out == "" and len(err.splitlines()) == 1
    keep = tmp_path / "keep.csv"
    keep.write_text("precious\n")
    assert run_captured(capsys, *argv, "--out", str(keep)) == (code, "", err)
    assert keep.read_text() == "precious\n"


def test_a_tolerance_failure_still_writes_everything(tmp_path, capsys):
    out_path = tmp_path / "q.csv"
    code, out, _err = run_captured(capsys, "qfactor", "--set", "delta_points=3",
                                   "--set", "max_rel_err=1e-6", "--out", str(out_path))
    assert code == 3 and out == ""
    text = out_path.read_text()
    assert text.startswith("# experiment=qfactor\n") and text.endswith("# status=FAIL\n")


@pytest.mark.parametrize("key, experiment", [("chi_points", "sweep-chi"),
                                             ("delta_points", "qfactor")])
def test_grid_above_its_bound_is_rejected(key, experiment, capsys):
    code, out, err = run_captured(capsys, experiment, "--set", f"{key}={MAX_GRID_POINTS + 1}")
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: bad value for '{key}': must be at most "
                                f"{MAX_GRID_POINTS}, got {MAX_GRID_POINTS + 1}"]


def test_rk45_fallback_beyond_its_step_limit_is_a_numerical_failure(monkeypatch, capsys):
    # the exceptional-point run above takes a few hundred steps
    monkeypatch.setattr(dynamics, "MAX_RK45_STEPS", 50)
    code, out, err = run_captured(capsys, "evolve", "--set", "n_chain=2", "--set", "m_atoms=1",
                                  "--set", "g=0.25")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: RK45 reached only t=")
    assert "in MAX_RK45_STEPS = 50 steps" in err


def test_rk45_fallback_whose_first_step_overflows_is_a_numerical_failure(capsys):
    # the cascade rejects this run; RK45's initial step size overflows, and
    # a NaN step size would make its first step retry forever
    code, out, err = run_captured(capsys, "evolve", "--set", "gamma_a=1e300",
                                  "--set", "t_end=20")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: overflow")


def test_evolve_with_a_subnormal_cascade_denominator_prints_no_nan(capsys):
    # gamma_c = 1e-300 puts a decay rate of the cascade in the subnormal
    # range; numpy's complex division by it returned NaN for a zero source
    code, out, err = run_captured(capsys, "evolve", "--set", "gamma_c=1e-300",
                                  "--set", "initial_k=1", "--set", "t_end=20")
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()
            if line and not line.startswith(("#", "lambda"))]
    assert len(rows) == 11 and all("nan" not in row for row in rows)
    assert float(rows[-1][2]) == pytest.approx(float(rows[0][2]))  # no loss to speak of


def test_negative_atol_is_a_validation_error(capsys):
    # (4, 3) needs more coefficients than the cascade may hold; RK45 raised
    # a bare ValueError on the negative atol, which ended in a traceback
    code, out, err = run_captured(capsys, "evolve", "--set", "n_chain=4", "--set", "m_atoms=3",
                                  "--set", "atol=-1")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: bad value for 'atol': must be >= 0, got -1.0"]


@pytest.mark.parametrize("rtol", ["-1", "0"])
def test_nonpositive_rtol_is_a_validation_error(capsys, rtol):
    # the exceptional point runs on RK45, which warned and clamped such an
    # rtol; a cascade run ignored it
    code, out, err = run_captured(capsys, "evolve", "--set", "n_chain=2", "--set", "m_atoms=1",
                                  "--set", "g=0.25", "--set", f"rtol={rtol}")
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: bad value for 'rtol': must be > 0, got {float(rtol)!r}"]


@pytest.mark.parametrize("settings", [("omega_c=1e308",), ("g=1e200", "t_end=1")])
def test_a_failed_run_prints_one_stderr_line_without_its_warnings(settings):
    # both runs raise numpy and scipy.sparse RuntimeWarnings on the way to
    # their error; a separate process shows warnings as a user sees them
    argv = ["evolve"]
    for setting in settings:
        argv += ["--set", setting]
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("numerical failure: ")


def test_any_other_error_is_a_numerical_failure(monkeypatch, tmp_path, capsys):
    def broken(config, stream):
        print("partial output", file=stream)
        raise RuntimeError("driver broke\non two lines")

    monkeypatch.setitem(cli._DRIVERS, "bic", broken)
    code, out, err = run_captured(capsys, "bic")
    assert code == 2 and out == ""
    assert err.splitlines() == ["numerical failure: driver broke on two lines"]
    keep = tmp_path / "keep.csv"
    keep.write_text("precious\n")
    assert run_captured(capsys, "bic", "--out", str(keep)) == (code, "", err)
    assert keep.read_text() == "precious\n"


def test_evolve_that_loses_positivity_is_a_numerical_failure(monkeypatch, capsys):
    monkeypatch.setattr(dynamics, "POSITIVITY_LIMIT", -1.0)  # every snapshot fails it
    code, out, err = run_captured(capsys, "evolve", "--set", "t_end=20")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: positivity violated at t=2: min eigenvalue")


def test_qfactor_whose_detuning_overflows_is_a_numerical_failure(capsys):
    # delta = delta_over_gc * gamma_c overflows: the eigensolver raised
    # ValueError on the inf entry, which ended in a traceback
    code, out, err = run_captured(capsys, "qfactor", "--set", "gamma_c=1e308")
    assert code == 2 and out == ""
    assert err.splitlines() == ["numerical failure: the amplitude matrix overflows a float "
                                "at delta=-inf, gamma_c=1e+308"]


# The input contract over the whole config schema: any override a user can
# type ends in a documented exit code with at most one line of explanation.
_FLOAT_POOL = [0.0, -0.0, 1e-300, 1e-200, 1e150, 1e300, 1e308, -1e308, -1e150,
               -3.0, -1.0, 0.01, 0.05, 0.25, 0.5, 1.0, 2.0, 10.0]
_TIME_POOL = [0.0, -0.0, -1.0, 1e-300, 1e-200, 0.01, 0.5, 2.0, 20.0, 2000.0]


def _override_values(experiment):
    special = {
        "n_chain": st.integers(2, 5), "m_atoms": st.integers(1, 3),
        "k_excitations": st.integers(-1, 4), "initial_k": st.integers(-1, 4),
        "chi_points": st.integers(0, 6), "delta_points": st.integers(0, 6),
        "seed": st.integers(-1, 3), "q": st.sampled_from(["auto", "0", "1", "2", "3"]),
        "chi_scale": st.sampled_from(["log", "linear", "bogus"]),
        "initial": st.sampled_from(["left_excited", "bic", "foo"]),
        "detect_steady": st.sampled_from(["true", "false"]),
        "t_end": st.sampled_from(_TIME_POOL), "snapshot_dt": st.sampled_from(_TIME_POOL),
    }
    floats = st.sampled_from(_FLOAT_POOL) | st.floats(-10.0, 10.0)
    return {key: special.get(key, floats) for key in SCHEMAS[experiment]}


@st.composite
def _cli_argv(draw):
    experiment = draw(st.sampled_from(sorted(SCHEMAS)))
    values = _override_values(experiment)
    keys = draw(st.lists(st.sampled_from(sorted(values)), max_size=5, unique=True))
    # a shorter default horizon keeps a run that never decays to 10 snapshots
    argv = [experiment, "--set", "t_end=20"] if experiment == "evolve" else [experiment]
    for key in keys:
        argv += ["--set", f"{key}={draw(values[key])}"]
    return argv


def _show_on_stderr(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


@settings(deadline=None, max_examples=250, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_cli_argv())
def test_any_override_ends_in_a_documented_exit(argv, capsys):
    capsys.readouterr()
    with warnings.catch_warnings():  # shown on stderr, as a CLI process shows them
        warnings.simplefilter("default")
        warnings.showwarning = _show_on_stderr
        code, out, err = run_captured(capsys, *argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if code in (1, 2):
        assert out == ""
    if code == 0:
        for line in out.splitlines():
            fields = line.split(",")
            if argv[0] == "qfactor" and len(fields) == 4:
                fields = fields[:1] + fields[3:]  # q_exact and q_approx may be inf
            assert not {"nan", "inf", "-inf"} & set(fields), line
            assert not line.endswith(("=nan", "=inf")), line
