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

from cavitybic import ModelParams, cli, dynamics, operators

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


@pytest.mark.parametrize("index", [0, 1])
def test_traced_certify_passes_its_checks(bench, tmp_path, index):
    # a certify-large case as a traced round runs it: every package function
    # it reaches goes through the tracer's wrappers
    tracer = bench.tracing.Tracer()
    ctx = bench.workloads.Context(ROOT, str(tmp_path), 1, in_process=True)
    ctx.tracer = tracer
    case = bench.workloads.build("certify-large", 1)[index]
    try:
        tracer.install()
        with tracer.operation(case.metric):
            case.run(ctx)
    finally:
        tracer.uninstall()
    assert [name for name, _ok, _detail in ctx.results] == list(case.check_names)
    assert all(ok for _name, ok, _detail in ctx.results), ctx.results
    names = {span[0] for span in tracer.spans}
    assert {"operators.lowering_maps", "bic.verify_trapping",
            "bic.null_space_coefficients"} <= names
    assert bench.tracing.layer_metrics(tracer, [1])["trace.spans"] == len(tracer.spans)
    assert not hasattr(operators.lowering_maps, "__wrapped__")


def test_traced_generator_apply_counts_its_flops(bench):
    # the tracer's flop counter reads the generator's jumps
    p = ModelParams(n_chain=2, m_atoms=2, omega_c=0.0, omega_a=0.0, g=0.3, lam=1.0, q=1,
                    gamma_c=0.7, gamma_a=0.2)
    space = dynamics.stack_sectors(p, 2)
    generator = dynamics.lindblad_generator(p, space, include_atomic_decay=True)
    rho = dynamics.DensityMatrix.ground(space).data
    tracer = bench.tracing.Tracer()
    try:
        tracer.install()
        with tracer.operation("apply"):
            generator.apply(rho)
    finally:
        tracer.uninstall()
    applies = [i for i, span in enumerate(tracer.spans) if span[0] == "dynamics.apply"]
    assert len(applies) == 1
    assert tracer.values[applies[0]] == (2 + 4 * 4) * 8.0 * space.dim ** 3
    assert not hasattr(dynamics.LindbladGenerator.apply, "__wrapped__")


@pytest.mark.parametrize("workload", ["certify-large", "relax-evolve", "cli-scan"])
def test_each_workload_case_passes_its_checks(bench, workload, tmp_path):
    # the argv and keyword options the benchmark passes, run as it runs them
    assert workload in bench.workloads.WORKLOADS
    ctx = bench.workloads.Context(ROOT, str(tmp_path), 1, in_process=True)
    cases = bench.workloads.build(workload, 1)
    bench.workloads.warm_up(workload, cases, ctx)
    for case in cases:
        case.run(ctx)
    assert [name for name, _ok, _detail in ctx.results] == [
        name for case in cases for name in case.check_names]
    assert all(ok for _name, ok, _detail in ctx.results), ctx.results
