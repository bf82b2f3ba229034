"""tools/cli_diff.py, the byte report between two checkouts."""

import importlib
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def cli_diff(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "tools"))
    return importlib.import_module("cli_diff")


OLD = """# experiment=evolve
# g=0.10000000000000001
# rtol=1e-08
lambda_t,P0,P1,trace,min_eig
0,0,1,1,0
2,0.25,0.75,1,0
# steady_state_reached=false
"""

NEW = """# experiment=evolve
# g=0.10000000000000001
lambda_t,P0,P1,trace,min_eig
0,0,1,1,0
2,0.25000000000000006,0.74999999999999989,1,0
# steady_state_reached=false
# steady_time=2
"""


def test_compare_names_each_changed_line_and_column(cli_diff):
    old = cli_diff.Run(0, OLD, "", True)
    assert cli_diff.compare(old, old) == ["exit 0", "stderr same"]
    new = cli_diff.Run(3, NEW, "warning\n", False)
    assert cli_diff.compare(old, new) == [
        "exit 0 -> 3", "stderr differs", "--out differs from stdout",
        "-# rtol=1e-08", "+# steady_time=2",
        "P0 1/2 changed, max |change| 5.6e-17", "P1 1/2 changed, max |change| 1.1e-16"]
    moved = cli_diff.Run(0, OLD.replace("# rtol=1e-08\n", "") + "# rtol=1e-08\n", "", True)
    assert cli_diff.compare(old, moved)[2:] == ["stdout differs in layout"]
    words = cli_diff.Run(0, "status=PASS\n", "", True)
    assert cli_diff.compare(words, words._replace(stdout="status=FAIL\n"))[2:] == [
        "status 1/1 changed, e.g. 'PASS' -> 'FAIL'"]


def test_the_repo_against_itself_differs_nowhere(cli_diff, monkeypatch, capsys):
    monkeypatch.setattr(cli_diff, "ARGVS", [["bic", "--set", "k_excitations=1"]])
    assert cli_diff.main([ROOT, ROOT]) == 0
    assert capsys.readouterr().out == "bic --set k_excitations=1: exit 0; stderr same\n"
    assert cli_diff.main([ROOT]) == 2
