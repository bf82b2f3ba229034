"""The package's public names and what a process imports to reach them."""

import json
import os
import subprocess
import sys

import pytest

import cavitybic
from cavitybic import dynamics

def _python(*args):
    # the child imports cavitybic from wherever this process does
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_every_public_name_is_its_defining_modules_object():
    assert cavitybic.__all__ == sorted(set(cavitybic.__all__))
    for name in cavitybic.__all__:
        value = getattr(cavitybic, name)
        assert value.__module__.startswith("cavitybic.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_and_dir_give_the_public_names():
    namespace = {}
    exec("from cavitybic import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == cavitybic.__all__
    assert set(cavitybic.__all__) <= set(dir(cavitybic))


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        cavitybic.no_such_name
    assert not hasattr(cavitybic, "solve_ivp")


def test_a_public_name_is_read_from_its_module_on_every_access(monkeypatch):
    # a wrapper installed in the module, and its removal, show through the package
    evolve = dynamics.evolve
    monkeypatch.setattr(dynamics, "evolve", lambda *args: None)
    assert cavitybic.evolve is dynamics.evolve is not evolve
    monkeypatch.undo()
    assert cavitybic.evolve is evolve


# Run in a fresh interpreter: "import" lists what ``import cavitybic`` loads,
# "dynamics" what reaching ``cavitybic.dynamics`` then loads.
_BARE_IMPORT = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("cavitybic"))
import cavitybic
before = loaded()
module = cavitybic.dynamics
print(json.dumps({"import": before, "dynamics": loaded(), "name": module.__name__}))
"""


def test_import_cavitybic_loads_no_submodule_and_no_numpy():
    proc = _python("-c", _BARE_IMPORT)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == ["cavitybic"]
    assert report["name"] == "cavitybic.dynamics"
    assert report["dynamics"] == ["cavitybic", "cavitybic.bic", "cavitybic.dynamics",
                                  "cavitybic.model", "cavitybic.operators", "numpy"]


# ``python -m cavitybic ARGV`` through runpy, as ``-m`` runs it, in a fresh
# interpreter; the report is the child's last stderr line.
_MODULE_RUN = """
import json, runpy, sys
sys.argv = ["cavitybic", *json.loads(sys.argv[1])]
try:
    runpy.run_module("cavitybic", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "modules": sorted(m for m in sys.modules
                                                  if m.startswith("cavitybic."))}),
      file=sys.stderr)
"""


@pytest.mark.parametrize("argv, modules", [
    (["bic"], ["bic", "model", "operators"]),
    (["sweep-chi"], ["bic", "model", "operators"]),
    (["qfactor"], ["linear", "model"]),
    (["evolve", "--set", "t_end=20"], ["bic", "dynamics", "model", "operators"]),
])
def test_each_subcommand_imports_only_the_modules_it_runs(argv, modules):
    proc = _python("-c", _MODULE_RUN, json.dumps(argv))
    *errors, report = proc.stderr.splitlines()
    assert json.loads(report) == {"code": 0,
                                  "modules": sorted(f"cavitybic.{m}" for m in ["cli", *modules])}
    assert errors == [] and proc.stdout.startswith(f"# experiment={argv[0]}\n")


def test_a_bic_run_above_m_atoms_is_still_a_validation_error():
    proc = _python("-c", _MODULE_RUN, json.dumps(["bic", "--set", "k_excitations=3"]))
    *errors, report = proc.stderr.splitlines()
    assert json.loads(report)["code"] == 1
    assert proc.stdout == "" and errors == ["error: no trapped state with K > M (K=3, M=2)"]

