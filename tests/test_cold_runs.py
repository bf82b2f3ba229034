"""tools/cold_runs.py, interleaved fresh processes against two checkouts."""

import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def cold_runs(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module("cold_runs")


def test_each_side_reports_its_median_and_quartiles(cold_runs, capsys):
    assert cold_runs.main([ROOT, ROOT, "--runs", "2", "--", "-c", "pass"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "python -c pass"
    assert [line.split(":")[0] for line in lines[1:3]] == ["old", "new"]
    assert all(line.endswith("] over 2 runs") for line in lines[1:3])
    assert lines[3].startswith("new faster in ") and lines[3].endswith("/2 pairs")


def test_a_run_that_fails_stops_the_comparison(cold_runs, capsys):
    argv = [ROOT, ROOT, "--runs", "3", "--", "-c", "import sys; sys.exit('no such input')"]
    assert cold_runs.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip("\n").endswith("exited 1: no such input")
    with pytest.raises(SystemExit) as exit_info:
        cold_runs.main([ROOT, ROOT, "--runs", "0", "--", "-c", "pass"])
    assert exit_info.value.code == 2
