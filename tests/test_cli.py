import io
import subprocess
import sys

import numpy as np
import pytest

from cavitybic.cli import main, parse_config_file, resolve_config


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "cavitybic", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(*args):
    # faster path for the heavier drivers; stdout captured by pytest
    return main(list(args))


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


def test_invalid_config_key_exits_with_validation_error():
    code, _out, err = run_cli("bic", "--set", "bogus_key=1")
    assert code == 1
    assert "unknown config key" in err


def test_invalid_param_value_exits_with_validation_error():
    code, _out, err = run_cli("bic", "--set", "m_atoms=0")
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


def test_sweep_chi_empty_grid():
    code, _out, err = run_cli("sweep-chi", "--set", "chi_points=0")
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


def test_config_file_plus_overrides(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("# comment line\nm_atoms=2\nk_excitations=1\ng=0.2\n")
    parsed = parse_config_file(str(config))
    assert parsed == {"m_atoms": "2", "k_excitations": "1", "g": "0.2"}
    code, out, _err = run_cli("bic", "--config", str(config),
                              "--set", "k_excitations=2")
    assert code == 0
    assert "# k_excitations=2" in out
    assert "# g=0.2" in out.replace("0.20000000000000001", "0.2")


def test_seed_flag_changes_baseline_only(tmp_path):
    outputs = []
    for seed in ("1", "2"):
        code, out, _ = run_cli("bic", "--seed", seed)
        assert code == 0
        outputs.append(out)
    pick = lambda txt, key: [ln for ln in txt.splitlines() if ln.startswith(key)]
    assert pick(outputs[0], "random_unit_residual") != pick(outputs[1], "random_unit_residual")
    assert pick(outputs[0], "eigen_residual") == pick(outputs[1], "eigen_residual")


@pytest.mark.parametrize("setting", ["snapshot_dt=0", "t_end=inf", "t_end=nan",
                                     "snapshot_dt=-1", "t_end=-5"])
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
