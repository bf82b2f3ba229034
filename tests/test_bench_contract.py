"""The benchmark under bench/ against the package in this checkout.

The benchmark reads the package from outside: its tracer wraps the public
functions, a few named methods, ``dynamics.solve_ivp`` and
``cli._DRIVERS``, and its cases call the library with fixed keyword
options.  These tests import bench/tracing.py and bench/workloads.py as
they are, so a change under src/ that breaks one of those calls fails here
and not only in a benchmark run.
"""

import importlib
import os
from types import SimpleNamespace

import pytest

from cavitybic import cli, dynamics

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))  # bench imports ``checks``
    return SimpleNamespace(tracing=importlib.import_module("tracing"),
                           workloads=importlib.import_module("workloads"))


def test_every_workload_builds(bench):
    for workload in bench.workloads.WORKLOADS:
        cases = bench.workloads.build(workload, 1)
        assert cases and all(case.check_names for case in cases)


def test_traced_decay_fit_passes_its_checks(bench, tmp_path):
    tracer = bench.tracing.Tracer()
    ctx = bench.workloads.Context(ROOT, str(tmp_path), 1, in_process=True)
    ctx.tracer = tracer
    case = bench.workloads.DecayFit("decay_fit_s")
    try:
        tracer.install()
        with tracer.operation(case.metric):
            case.run(ctx)
    finally:
        tracer.uninstall()
    assert [name for name, _ok, _detail in ctx.results] == list(case.check_names)
    assert all(ok for _name, ok, _detail in ctx.results), ctx.results
    names = {span[0] for span in tracer.spans}
    assert {"dynamics.evolve", "dynamics.fit_decay_rate", "dynamics.min_eigenvalue"} <= names
    # uninstall put the originals back
    assert not hasattr(dynamics.evolve, "__wrapped__")
    assert not hasattr(dynamics.DensityMatrix.min_eigenvalue, "__wrapped__")
    assert cli._DRIVERS["evolve"] is cli.run_evolve
