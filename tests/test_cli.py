import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cavitybic import ModelParams, bic, cli, dynamics, linear
from cavitybic.cli import (MAX_GRID_POINTS, MAX_M_ATOMS, MAX_N_CHAIN, SCHEMAS, main,
                          parse_config_file, resolve_config)
from cavitybic.model import MAX_SECTOR_ENTRIES
from oracles import evolve_refused


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


def test_bic_report_builds_sector_k_minus_1_and_its_maps_once(monkeypatch):
    # the trapped state and the random baseline are verified from one set of maps
    calls = []
    lowering_maps = bic.lowering_maps
    monkeypatch.setattr(bic, "lowering_maps", lambda *args: calls.append(args[2].dim)
                        or lowering_maps(*args))
    config = resolve_config("bic", {"m_atoms": "3", "k_excitations": "3"})
    assert cli.run_bic(config, io.StringIO()) == 0
    assert calls == [15]  # sector K = 2 of the triple cavity


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


def test_sweep_chi_whose_log_grid_rounds_to_inf_fails_there(capsys):
    # 10 ** log10(max float) overflows: the last point is inf, which the
    # composition grid rejects as it rejects a chi that is not positive
    with warnings.catch_warnings():  # the overflow warning, as a CLI process shows it
        warnings.simplefilter("default")
        warnings.showwarning = _show_on_stderr
        code, out, err = run_captured(capsys, "sweep-chi", "--set", "chi_min=1",
                                      "--set", "chi_max=1.7976931348623157e308",
                                      "--set", "chi_points=2")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["numerical failure: chi values must be positive and finite"]


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


@pytest.mark.parametrize("argv", [
    ("bic",),
    ("sweep-chi", "--set", "chi_points=41"),
    ("qfactor", "--set", "delta_points=61"),
    ("evolve", "--set", "t_end=200"),
    ("evolve", "--set", "n_chain=2", "--set", "m_atoms=1", "--set", "g=0.25",  # on RK45
     "--set", "t_end=100"),
])
def test_identical_configs_give_identical_bytes_across_processes(argv):
    runs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-m", "cavitybic", *argv],
                              capture_output=True, env=env)
        runs.append((proc.returncode, proc.stdout, proc.stderr))
    assert runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1]


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


@pytest.mark.parametrize("argv", [("--set", "seed=-1"), ("--seed", "-1"),
                                  ("--seed", "-1", "--set", "seed=2")])  # --seed wins
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


def test_evolve_grid_error_names_both_keys_and_the_ratio(capsys):
    code, out, err = run_captured(capsys, "evolve", "--set", "t_end=1e300")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: t_end / snapshot_dt must be at most 100000, "
                                "got 5e+299"]


@pytest.mark.parametrize("settings, message", [
    # sector 1 of a 2,045-cavity chain: 2,048^2 + 1 = 4,194,305 entries
    (("n_chain=2045", "m_atoms=1", "q=1", "t_end=4"),
     "the reach holds more than MAX_REACHED_ENTRIES = 1048576 entries"),
    (("n_chain=60", "m_atoms=2"),  # 4,068,226 entries
     "the reach holds more than MAX_REACHED_ENTRIES = 1048576 entries"),
    (("m_atoms=6",), "evolve would keep 1001 snapshots of 66352 entries, more than "
                     "MAX_KEPT_ENTRIES = 33554432"),
    (("n_chain=4", "m_atoms=4", "t_end=1300"),
     "evolve would keep 651 snapshots of 51990 entries, more than MAX_KEPT_ENTRIES = 33554432"),
])
def test_evolve_above_its_size_bounds_is_refused_before_it_allocates(settings, message,
                                                                     capsys):
    argv = [arg for setting in settings for arg in ("--set", setting)]
    code, out, err = run_captured(capsys, "evolve", *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_an_undamped_run_keeps_only_its_own_block(capsys):
    # without a jump the reach is block (6, 6) alone, 210^2 = 44,100 entries,
    # so 601 snapshots stay below MAX_KEPT_ENTRIES; the blocks of sectors
    # 0 .. 6 together (66,352 entries) would not
    code, out, err = run_captured(capsys, "evolve", "--set", "m_atoms=6", "--set", "gamma_c=0",
                                  "--set", "g=0", "--set", "t_end=1200")
    assert (code, err) == (0, "")
    assert "# steady_state_reached=true" in out.splitlines()


def test_a_start_far_above_m_atoms_is_refused_at_once():
    # refused before any sector size is counted: a start in sector 10^9
    # has 10^9 + 1 diagonal blocks below it
    proc = subprocess.run([sys.executable, "-m", "cavitybic", "evolve", "--set", "initial=bic",
                           "--set", "initial_k=1000000000"], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          timeout=20)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.splitlines() == ["error: initial_k cannot exceed m_atoms"]


# evolve's refusals near its bounds: chains of up to 60 cavities (short
# ones, where an undamped reach can fall between the bounds, drawn more
# often), up to 12 atoms, starts up to one above m_atoms, with and without
# damping, and grids from one step to far above MAX_SNAPSHOTS (every time
# is a dyadic rational, so the oracle counts the steps exactly)
_GRID_TIMES = [-1.0, 0.0, 0.015625, 0.5, 2.0, 20.0, 1200.0, 2000.0, 80600.0, 1e300]


@st.composite
def _evolve_near_its_bounds(draw):
    m_atoms = draw(st.integers(1, 12))
    return {"n_chain": draw(st.integers(2, 4) | st.integers(2, 60)), "m_atoms": m_atoms,
            "q": 1,  # every chain has mode 1; q=auto finds none on an odd one
            "initial": draw(st.sampled_from(["left_excited", "bic"])),
            "initial_k": draw(st.integers(-1, m_atoms + 1)),
            "gamma_c": draw(st.sampled_from([0.0, 0.7])),
            "gamma_a": draw(st.sampled_from([0.0, 0.05])),
            "t_end": draw(st.sampled_from(_GRID_TIMES)),
            "snapshot_dt": draw(st.sampled_from(_GRID_TIMES))}


class _Accepted(BaseException):
    """Raised where an accepted evolve run enumerates its sectors; not an
    ``Exception``, so ``main`` does not turn it into an exit code."""


def _accept(*_args, **_kwargs):
    raise _Accepted


@settings(deadline=None, max_examples=300, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=_evolve_near_its_bounds())
# undamped, each reach is its own block, 601 snapshots of 44,100 entries
# and 1,002,001 entries, within the bounds; the blocks of sectors 0 .. K
# together (66,352 and 1,933,503 entries) would not be
@example(values={"n_chain": 2, "m_atoms": 6, "q": 1, "initial": "left_excited",
                 "initial_k": -1, "gamma_c": 0.0, "gamma_a": 0.0, "t_end": 1200.0,
                 "snapshot_dt": 2.0})
@example(values={"n_chain": 2, "m_atoms": 10, "q": 1, "initial": "bic", "initial_k": 10,
                 "gamma_c": 0.0, "gamma_a": 0.0, "t_end": 2.0, "snapshot_dt": 1.0})
def test_evolve_is_refused_exactly_where_its_bounds_say(values, capsys, monkeypatch):
    # an accepted run stops where it would enumerate its first sector
    monkeypatch.setattr(dynamics, "stack_sectors", _accept)
    capsys.readouterr()
    argv = ["evolve"]
    for key, value in values.items():
        argv += ["--set", f"{key}={value}"]
    params = ModelParams(n_chain=values["n_chain"], m_atoms=values["m_atoms"], omega_c=0.0,
                         omega_a=0.0, g=0.1, lam=1.0, q=1, gamma_c=values["gamma_c"],
                         gamma_a=values["gamma_a"])
    if evolve_refused(params, values["initial_k"], values["t_end"], values["snapshot_dt"]):
        code, out, err = run_captured(capsys, *argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    else:
        with pytest.raises(_Accepted):
            main(argv)


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
    ("bic", "--set", "g=1e308"),
    ("bic", "--set", "g=1e150"),
    ("sweep-chi", "--set", "chi_max=1e300", "--set", "chi_points=3"),
    ("sweep-chi", "--set", "chi_min=1e100", "--set", "chi_max=1e100", "--set", "chi_points=1"),
    ("bic", "--set", "g=1e160"),
    ("bic", "--set", "m_atoms=30", "--set", "k_excitations=30", "--set", "g=1e6"),
    ("bic", "--set", "g=1.79e308"),
    ("bic", "--set", "m_atoms=30", "--set", "k_excitations=30", "--set", "g=1e308"),
    ("bic", "--set", "m_atoms=5", "--set", "k_excitations=1", "--set", "g=1e308"),
])
def test_overflowing_amplitude_table_is_a_numerical_failure(argv, capsys):
    # chi^K times the closed form's chi-free factor overflows a float in
    # each input, and each exited 2 with "the K=... amplitude table
    # overflows a float" before the table was built from logs shifted by
    # their largest.  The g near the float maximum exited 2 in the
    # null-space route, whose entries and column scales overflowed, before
    # the couplings of the conditions were scaled below 2^1000
    code = run_in_process(*argv)
    captured = capsys.readouterr()
    assert "nan" not in captured.out + captured.err
    assert (code, captured.err) == (0, "")
    if argv[0] == "bic":
        assert "status=PASS" in captured.out.splitlines()
        if "k_excitations=1" in argv:
            # the random vector's exact residual is above the float maximum:
            # it is 2.1e300 at g = 1e300 and grows in proportion to g, so inf
            # is its correctly rounded value; the trapped state's stay finite
            assert "random_unit_residual=inf" in captured.out.splitlines()
    else:  # the quantum-cavity limit: all K excitations are photons
        rows = [line.split(",") for line in captured.out.splitlines()
                if line and not line.startswith(("#", "chi"))]
        assert float(rows[-1][3]) == pytest.approx(1.0, abs=1e-15)


def test_bic_at_an_infinite_chi_is_a_numerical_failure(capsys):
    # g / lambda_qL overflows a float on the four-cavity chain, so no route
    # has a table to normalise
    code, out, err = run_captured(capsys, "bic", "--set", "g=1.7e308", "--set", "n_chain=4",
                                  "--set", "q=2")
    assert (code, out) == (2, "")
    assert err.splitlines() == ["numerical failure: the K=2 amplitude table overflows "
                                "a float at chi=inf"]


@pytest.mark.parametrize("settings", [
    ("g=1e-12", "m_atoms=30", "k_excitations=30"),  # was a "2-dimensional kernel", exit 2
    ("g=3e-14", "m_atoms=3", "k_excitations=3"),  # was nullspace_overlap=0.99999957658478178
])
def test_bic_certifies_the_trapped_state_at_a_tiny_coupling(settings):
    code, out, err = run_cli("bic", *(arg for s in settings for arg in ("--set", s)))
    assert code == 0 and err == ""
    assert "status=PASS" in out.splitlines()


def test_bic_at_zero_coupling_is_a_numerical_failure():
    # the trapped state is not unique at g = 0: the kernel is K + 1 dimensional
    code, out, err = run_cli("bic", "--set", "g=0")
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "numerical failure: stacked trapping conditions have a 3-dimensional kernel"]


@pytest.mark.parametrize("settings", [(), ("--set", "n_chain=8")])
def test_bic_residuals_whose_squares_overflow_are_finite(settings):
    # at delta = 1e200 the residual vectors hold entries near 1e199, whose
    # squares overflow; the norm is linear in delta there, so it is 1e100
    # times the norm at delta = 1e100, where nothing overflows
    fields = []
    for delta in ("1e200", "1e100"):
        code, out, err = run_cli("bic", "--set", f"delta={delta}", *settings)
        assert code == 3 and err == "" and "status=FAIL" in out
        fields.append(dict(line.split("=") for line in out.splitlines()
                           if "=" in line and not line.startswith("#")))
    for key in ("eigen_residual", "random_unit_residual"):
        assert math.isfinite(float(fields[0][key]))
        assert float(fields[0][key]) == pytest.approx(1e100 * float(fields[1][key]), rel=1e-12)


def test_evolve_at_an_exceptional_point_runs_on_rk45(capsys):
    # g = gamma_c / 4 with one atom per end: the K = 1 H_eff is defective
    code = run_in_process("evolve", "--set", "n_chain=2", "--set", "m_atoms=1",
                          "--set", "g=0.25")
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "# steady_state_reached=true" in captured.out.splitlines()


# Run in a fresh interpreter, since this one has imported scipy already; the
# report is the child's last stdout line.  Each entry of "loaded" lists the
# scipy modules named in ``probed`` that are loaded at that point.  hasattr is
# False only on AttributeError.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from cavitybic import cli, dynamics
probed = ("scipy", "scipy.sparse", "scipy.integrate", "scipy.linalg", "scipy.optimize")
loaded = {"import": [name for name in probed if name in sys.modules]}
codes = {}
runs = {"sweep-chi qfactor": [["sweep-chi"], ["qfactor"]],
        "bic": [["bic"]],
        "cascade": [["evolve"]],
        "rk45": [["evolve", "--set", "n_chain=2", "--set", "m_atoms=1", "--set", "g=0.25"]]}
for stage, argvs in runs.items():
    with contextlib.redirect_stdout(io.StringIO()):
        codes[stage] = [cli.main(argv) for argv in argvs]
    loaded[stage] = [name for name in probed if name in sys.modules]
import scipy.integrate
print(json.dumps({"codes": codes, "loaded": loaded,
                  "traced_name": dynamics.solve_ivp is scipy.integrate.solve_ivp,
                  "other_name": hasattr(dynamics, "no_such_name")}))
"""


def test_each_run_imports_only_the_scipy_it_uses():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    # scipy.integrate brings scipy.linalg and scipy.optimize along
    assert "scipy.integrate" in report["loaded"].pop("rk45")
    assert report == {
        "codes": {"sweep-chi qfactor": [0, 0], "bic": [0], "cascade": [0], "rk45": [0]},
        "loaded": {"import": [], "sweep-chi qfactor": [], "bic": [],
                   "cascade": ["scipy", "scipy.sparse"]},
        "traced_name": True, "other_name": False}


def _qfactor_rows(out):
    return [line.split(",") for line in out.splitlines()
            if line and not line.startswith(("#", "delta"))]


def test_qfactor_at_a_large_cavity_frequency_keeps_its_quality_factor(capsys):
    # qfactor takes no omega_c: its table must be the quality factor of the
    # same model at a large cavity frequency, where omega_a = omega_c - delta
    # costs delta its last digits
    code, out, err = run_captured(capsys, "qfactor", "--set", "delta_points=61")
    assert code == 0 and err == ""
    rows = _qfactor_rows(out)
    p = resolve_config("qfactor", {"delta_points": "61"}).params
    q_exact = np.array([float(row[1]) for row in rows])
    at_large = np.array([linear.q_factor(p.replace(omega_c=1e8, omega_a=1e8 - float(row[0])))
                         for row in rows])
    assert len(rows) == 61
    assert (np.abs(at_large - q_exact) / q_exact).max() <= 1e-7


def test_qfactor_rows_do_not_depend_on_omega_c(capsys):
    # the detuning reaches the matrices as given, not through
    # omega_a = omega_c - delta: the printed q_exact is the library's
    # quality factor bit for bit at any omega_c
    code, out, err = run_captured(capsys, "qfactor")
    assert code == 0 and err == ""
    rows = _qfactor_rows(out)
    config = resolve_config("qfactor", {})
    p = config.params
    delta = cli._grid(config, "delta") * p.gamma_c
    for omega_c in (0.0, 0.7, 1e8, -3e5):
        gamma, _ = linear.decay_rates(p.replace(omega_c=omega_c, omega_a=omega_c), delta)
        assert [row[1] for row in rows] == [cli._fmt(p.gamma_c / rate) for rate in gamma]


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


@pytest.mark.parametrize("settings, message", [
    # the closed form is 0/0 at point 0 and the matrix overflows at point 1
    (("delta_min=0", "delta_max=1e300", "delta_points=2"),
     "the closed-form decay rate is undefined at delta_over_gc=0"),
    # both at the one point: the matrix check comes first
    (("delta_min=1e300", "delta_max=1e300", "delta_points=1"),
     "the amplitude matrix overflows a float at delta=inf, gamma_c=1e+10"),
])
def test_qfactor_fails_at_its_first_failing_point(settings, message, capsys):
    argv = ["--set", "g=1e-200", "--set", "gamma_c=1e10"]
    for setting in settings:
        argv += ["--set", setting]
    code, out, err = run_captured(capsys, "qfactor", *argv)
    assert code == 2 and out == ""
    assert err.splitlines() == [f"numerical failure: {message}"]


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
    ("bic", "--set", "g=0"),  # exit 2 from inside the driver: a (K + 1)-dimensional kernel
    ("sweep-chi", "--set", "chi_points=0"),
    ("qfactor", "--set", "gamma_c=0"),
    ("sweep-chi", "--set", "chi_points=1", "--set", "chi_scale=bogus"),
    ("bic", "--set", f"n_chain={MAX_N_CHAIN + 1}"),
    ("sweep-chi", "--set", f"m_atoms={MAX_M_ATOMS + 1}"),
    ("bic", "--set", "n_chain=200"),  # a sector table just above MAX_SECTOR_ENTRIES
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


@pytest.mark.parametrize("argv, message", [
    (("bic", "--set", f"n_chain={MAX_N_CHAIN + 1}"),
     f"bad value for 'n_chain': must be at most {MAX_N_CHAIN}, got {MAX_N_CHAIN + 1}"),
    (("sweep-chi", "--set", f"m_atoms={MAX_M_ATOMS + 1}"),
     f"bad value for 'm_atoms': must be at most {MAX_M_ATOMS}, got {MAX_M_ATOMS + 1}"),
    (("bic", "--set", "n_chain=200"),  # K = 2: 20,706 states of 203 slots
     f"sector K=2 needs more than MAX_SECTOR_ENTRIES = {MAX_SECTOR_ENTRIES} occupation entries"),
])
def test_a_model_above_its_size_bounds_is_a_validation_error(argv, message, capsys):
    code, out, err = run_captured(capsys, *argv)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_a_model_at_its_size_bounds_is_resolved():
    # resolve_config builds no table; q is given, since an odd chain has no
    # mode at zero detuning for q=auto to find
    config = resolve_config("bic", {"n_chain": str(MAX_N_CHAIN), "q": "1"})
    assert config.params.n_chain == MAX_N_CHAIN
    config = resolve_config("sweep-chi", {"m_atoms": str(MAX_M_ATOMS)})
    assert config.params.m_atoms == MAX_M_ATOMS


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


_RETIRED_KEYS = {"bic": ["residual_tol", "overlap_tol", "gamma_c", "gamma_a"],
                 "sweep-chi": ["seed", "n_chain", "g", "gamma_c", "gamma_a", "delta", "omega_c",
                               "q"],
                 "evolve": ["rtol", "atol", "omega_c"],
                 "qfactor": ["seed", "omega_c", "n_chain", "q"]}


@pytest.mark.parametrize("experiment, key", [(experiment, key)
                                             for experiment, keys in _RETIRED_KEYS.items()
                                             for key in keys])
def test_retired_keys_are_unknown_config_keys(experiment, key, capsys):
    # rtol and atol set only the RK45 fallback's tolerances, now fixed;
    # sweep-chi and qfactor draw no random numbers; bic passes at one fixed
    # 1e-8 in place of residual_tol and overlap_tol.  The model keys changed
    # nothing but their own echo line: bic's H and trapping conditions hold
    # no damping, sweep-chi's chi stands in for g and its rows on resonance
    # do not depend on the chain, evolve's rotating frame cancels omega_c,
    # and qfactor runs the triple cavity at omega_c = 0
    code, out, err = run_captured(capsys, experiment, "--set", f"{key}=1")
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: unknown config key {key!r} for experiment "
                                f"{experiment!r}"]


@pytest.mark.parametrize("rtol", ["-1", "0"])
def test_nonpositive_rtol_is_a_validation_error(capsys, rtol):
    # the exceptional point runs on RK45, which once warned and clamped such
    # an rtol; the key is retired, so any rtol is refused before a run starts
    code, out, err = run_captured(capsys, "evolve", "--set", "n_chain=2", "--set", "m_atoms=1",
                                  "--set", "g=0.25", "--set", f"rtol={rtol}")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: unknown config key 'rtol' for experiment 'evolve'"]


@pytest.mark.parametrize("settings", [("delta=1e308",), ("g=1e200", "t_end=1")])
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


@pytest.mark.parametrize("delta", ["1e8", "1e12", "1e300"])
def test_evolve_whose_trace_drifts_is_a_numerical_failure(delta, capsys):
    # the cascade loses the trace at a large detuning: these runs exited 0
    # with max_trace_drift 1.2e-6, 1.2e-5 and 1.4e-3
    code, out, err = run_captured(capsys, "evolve", "--set", "t_end=200",
                                  "--set", f"delta={delta}")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("numerical failure: trace drifted at t=2: |trace - trace(rho0)| = ")


def test_qfactor_whose_detuning_overflows_is_a_numerical_failure(capsys):
    # delta = delta_over_gc * gamma_c overflows: the eigensolver raised
    # ValueError on the inf entry, which ended in a traceback
    code, out, err = run_captured(capsys, "qfactor", "--set", "gamma_c=1e308")
    assert code == 2 and out == ""
    assert err.splitlines() == ["numerical failure: the amplitude matrix overflows a float "
                                "at delta=-inf, gamma_c=1e+308"]


# For every config key, a setting that changes a run's output beyond the
# key's own echo line: (settings added to the base run of its subcommand
# first, the key's new value).  A key with no entry is read by nothing.
_BASE_RUNS = {"bic": ["k_excitations=1"], "sweep-chi": ["chi_points=3"],
              "evolve": ["t_end=20"], "qfactor": ["delta_points=3"]}
_READ_KEYS = {
    ("bic", "n_chain"): ((), "4"), ("bic", "m_atoms"): ((), "3"), ("bic", "g"): ((), "0.2"),
    ("bic", "delta"): ((), "0.3"), ("bic", "omega_c"): ((), "0.9"),
    ("bic", "q"): (("n_chain=4",), "1"), ("bic", "seed"): ((), "1"),
    ("bic", "k_excitations"): ((), "2"),
    ("sweep-chi", "m_atoms"): ((), "3"), ("sweep-chi", "k_excitations"): ((), "1"),
    ("sweep-chi", "chi_min"): ((), "0.5"), ("sweep-chi", "chi_max"): ((), "5"),
    ("sweep-chi", "chi_points"): ((), "4"), ("sweep-chi", "chi_scale"): ((), "linear"),
    ("evolve", "n_chain"): ((), "4"), ("evolve", "m_atoms"): ((), "1"),
    ("evolve", "g"): ((), "0.3"), ("evolve", "gamma_c"): ((), "0.5"),
    ("evolve", "gamma_a"): ((), "0.05"), ("evolve", "delta"): ((), "0.2"),
    ("evolve", "q"): (("n_chain=4",), "1"), ("evolve", "initial"): ((), "bic"),
    ("evolve", "initial_k"): ((), "1"), ("evolve", "t_end"): ((), "30"),
    ("evolve", "snapshot_dt"): ((), "1"), ("evolve", "detect_steady"): (("t_end=2000",), "false"),
    ("qfactor", "m_atoms"): ((), "3"), ("qfactor", "g"): ((), "5"),
    ("qfactor", "gamma_c"): ((), "2"), ("qfactor", "gamma_a"): ((), "0.02"),
    ("qfactor", "delta_min"): ((), "-2"), ("qfactor", "delta_max"): ((), "2"),
    ("qfactor", "delta_points"): ((), "5"), ("qfactor", "max_rel_err"): ((), "1e-6"),
}
# evolve echoes seed without reading it: the benchmark passes --seed to every
# evolve run
_UNREAD_KEYS = [("evolve", "seed")]


@pytest.mark.parametrize("experiment, key", [(experiment, key) for experiment in SCHEMAS
                                             for key in SCHEMAS[experiment]
                                             if (experiment, key) not in _UNREAD_KEYS])
def test_every_config_key_changes_its_output(experiment, key, capsys):
    assert (experiment, key) in _READ_KEYS, f"no setting of {key!r} changes a {experiment} run"
    context, value = _READ_KEYS[experiment, key]
    argv = [experiment]
    for setting in (*_BASE_RUNS[experiment], *context):
        argv += ["--set", setting]
    outputs = []
    for extra in ((), ("--set", f"{key}={value}")):
        code, out, err = run_captured(capsys, *argv, *extra)
        assert code in (0, 3) and err == ""  # a run that writes its whole output
        outputs.append([line for line in out.splitlines() if not line.startswith(f"# {key}=")])
    assert outputs[0] != outputs[1]


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


# Malformed command lines: each argv below is broken in one way by
# construction, and must end in exit 1 with one error line, as any other
# validation error does.  Paths are relative to a fresh temporary directory.
_WORDS = st.text("abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_LONG_OPTIONS = ("--config", "--help", "--out", "--seed", "--set")


@st.composite
def _malformed_argv(draw):
    experiment = draw(st.sampled_from(sorted(SCHEMAS)))
    groups = draw(st.lists(st.sampled_from([["--set", "g=0.2"], ["--set", "m_atoms=2"],
                                            ["--out", "out.csv"]]), max_size=2))
    flaw = draw(st.sampled_from(["subcommand", "flag", "set", "key", "seed", "config"]))
    if flaw == "subcommand":  # missing, or a name that no subcommand starts with
        name = draw(st.none() | _WORDS.filter(
            lambda w: not any(known.startswith(w) for known in SCHEMAS)))
        return [name] * (name is not None) + [arg for group in groups for arg in group]
    if flaw == "flag":
        bad = ["--" + draw(_WORDS.filter(
            lambda w: not any(opt.startswith("--" + w) for opt in _LONG_OPTIONS)))]
    elif flaw == "set":
        bad = ["--set", draw(_WORDS | st.just(""))]
    elif flaw == "key":
        key = draw(st.sampled_from(_RETIRED_KEYS.get(experiment, ["bogus"]))
                   | _WORDS.filter(lambda w: w not in SCHEMAS[experiment]))
        bad = ["--set", f"{key}=1"]
    elif flaw == "seed" and "seed" in SCHEMAS[experiment]:
        bad = ["--seed", draw(st.sampled_from(["x", "1.5", "", "0x10", "one"])
                              | st.integers(max_value=-1).map(str))]
    elif flaw == "seed":
        bad = ["--seed", str(draw(st.integers(0, 3)))]
    else:
        bad = ["--config", "missing.cfg"]
    groups.insert(draw(st.integers(0, len(groups))), bad)
    return [experiment] + [arg for group in groups for arg in group]


@settings(deadline=None, max_examples=200, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_malformed_argv())
@example(argv=["sweep-chi", "--seed", "1"])
@example(argv=["qfactor", "--seed", "1"])
def test_any_malformed_command_line_is_a_validation_error(argv, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    code, out, err = run_captured(capsys, *argv)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not os.path.exists("out.csv")


@st.composite
def _qfactor_settings(draw):
    floats = st.sampled_from(_FLOAT_POOL) | st.floats(-10.0, 10.0)
    delta_min, delta_max = sorted(draw(floats) for _ in range(2))
    return {"m_atoms": draw(st.integers(1, 50)),
            "g": draw(floats.filter(lambda v: v != 0)),
            "gamma_c": draw(floats.filter(lambda v: v > 0)),
            "gamma_a": draw(floats.filter(lambda v: v >= 0)),
            "delta_min": delta_min, "delta_max": delta_max,
            "delta_points": draw(st.integers(1, 300))}


def _qfactor_point(p, delta_over_gc):
    """One row of a qfactor table from the one-point library calls, and
    whether the trapped mode is degenerate there; raises as the run would."""
    with np.errstate(over="ignore"):
        delta = delta_over_gc * p.gamma_c
    point = p.replace(omega_c=0.0, omega_a=-delta)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        q_exact = linear.q_factor(point)
        gamma_ap = linear.gamma_approx(point)
    if math.isnan(gamma_ap):
        raise FloatingPointError("the closed-form decay rate is undefined at "
                                 f"delta_over_gc={cli._fmt(delta_over_gc)}")
    q_approx = math.inf if gamma_ap == 0 else p.gamma_c / gamma_ap
    if math.isinf(q_exact):
        rel_err = 0.0 if math.isinf(q_approx) else 1.0
    else:
        rel_err = abs(q_exact - q_approx) / q_exact if q_exact > 0 else math.inf
    degenerate = any(w.category is linear.DegenerateDecayWarning for w in caught)
    return ",".join(cli._fmt(v) for v in (delta_over_gc, q_exact, q_approx, rel_err)), degenerate


@settings(deadline=None, max_examples=120, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=_qfactor_settings())
def test_qfactor_rows_are_the_one_point_library_calls(values, capsys):
    capsys.readouterr()
    code, out, err = run_captured(capsys, "qfactor",
                                  *(arg for key, value in values.items()
                                    for arg in ("--set", f"{key}={value}")))
    config = resolve_config("qfactor", {key: str(value) for key, value in values.items()})
    rows, degenerate = [], 0
    try:
        for delta_over_gc in cli._grid(config, "delta"):
            row, degenerate_here = _qfactor_point(config.params, delta_over_gc)
            rows.append(row)
            degenerate += degenerate_here
    except FloatingPointError as exc:  # the first failing point ends the run
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"numerical failure: {exc}"]
        return
    assert code == 0
    assert _qfactor_rows(out) == [row.split(",") for row in rows]
    expected_err = (f"warning: degenerate minimal decay pair at {degenerate} of {len(rows)} grid "
                    "points; q_exact there uses the smallest rate\n") if degenerate else ""
    assert err == expected_err


@pytest.mark.parametrize("m_atoms, chi_min, chi_max", [(100, 1, 100), (301, 0.001, 0.01)])
def test_sweep_chi_reaches_every_point_at_a_large_k(m_atoms, chi_min, chi_max, capsys):
    # the per-point tables overflowed a float here (from chi = 10 at M = 100,
    # at every chi at M = 301), and the sweep exited 2 with them
    values = {"m_atoms": m_atoms, "k_excitations": m_atoms, "chi_min": chi_min,
              "chi_max": chi_max, "chi_points": 3}
    code, out, err = run_captured(capsys, "sweep-chi",
                                  *(arg for key, value in values.items()
                                    for arg in ("--set", f"{key}={value}")))
    assert (code, err) == (0, "")
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()
            if line and not line.startswith(("#", "chi"))]
    assert len(rows) == 3
    p = resolve_config("bic", {"m_atoms": str(m_atoms)}).params
    coupling = abs(bic.chi(p.replace(g=1.0)))
    tol = 32 * m_atoms * np.finfo(float).eps  # as in the per-point test below
    for row in rows:
        obs = bic.regime_observables(p.replace(g=row[0] / coupling), m_atoms)
        assert abs(row[1] - obs.mean_photons) <= tol and abs(row[2] - obs.mean_excited) <= tol


@st.composite
def _sweep_settings(draw):
    n_chain = draw(st.integers(2, 9))
    q = draw(st.integers(1, n_chain - 1))
    # beyond M = 300 the chi-free factor near K = M exceeds a float (its log
    # passes 709), which the closed form's shift by the largest log keeps finite
    m_atoms = draw(st.integers(1, 60) | st.integers(290, 400))
    chis = st.sampled_from([v for v in _FLOAT_POOL if v > 0]) | st.floats(1e-3, 1e3)
    chi_min, chi_max = sorted(draw(chis) for _ in range(2))
    return {"n_chain": n_chain, "q": q,
            # mode q on the atoms: Omega_q - omega_a = 2 cos(q pi / N) + delta = 0
            "delta": -2.0 * math.cos(q * math.pi / n_chain),
            "m_atoms": m_atoms, "k_excitations": draw(st.integers(1, m_atoms)),
            "chi_min": chi_min, "chi_max": chi_max, "chi_points": draw(st.integers(1, 40)),
            "chi_scale": draw(st.sampled_from(["log", "linear"]))}


@settings(deadline=None, max_examples=120, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(values=_sweep_settings())
def test_sweep_chi_rows_are_the_per_point_tables(values, capsys):
    capsys.readouterr()
    # the run takes no chain keys; the reference tables are those of the
    # drawn resonant chain, since on resonance the rows depend on chi, M and K
    values = dict(values)
    chain = {key: str(values.pop(key)) for key in ("n_chain", "q", "delta")}
    code, out, err = run_captured(capsys, "sweep-chi",
                                  *(arg for key, value in values.items()
                                    for arg in ("--set", f"{key}={value}")))
    config = resolve_config("sweep-chi", {key: str(value) for key, value in values.items()})
    p = resolve_config("bic", {**chain, "m_atoms": str(values["m_atoms"])}).params
    k = values["k_excitations"]
    with np.errstate(over="ignore"):  # a log grid may round its last point to inf
        grid = cli._grid(config, "chi", values["chi_scale"], positive=True)
    coupling = abs(bic.chi(p.replace(g=1.0)))
    expected = []
    try:
        for chi_value in grid:
            with np.errstate(over="ignore", invalid="ignore"):
                obs = bic.regime_observables(p.replace(g=chi_value / coupling), k)
            expected.append((chi_value, obs.mean_photons, obs.mean_excited))
    except OverflowError:  # the table of the first failing point ends the run
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"numerical failure: the K={k} amplitude table overflows "
                                    f"a float at chi={chi_value:.6g}"]
        return
    assert (code, err) == (0, "")
    rows = [[float(v) for v in line.split(",")] for line in out.splitlines()
            if line and not line.startswith(("#", "chi"))]
    assert len(rows) == len(expected)
    # the row weights sum in another order than the table: the largest
    # change measured was 5.5 K eps on 900 random grids and 11.6 K eps on
    # grids that end just below the overflow
    tol = 32 * k * np.finfo(float).eps
    for row, (chi_value, photons, excited) in zip(rows, expected):
        assert row[0] == chi_value
        assert abs(row[1] - photons) <= tol and abs(row[2] - excited) <= tol
        assert abs(row[3] - photons / k) <= tol / k and abs(row[4] - excited / k) <= tol / k
