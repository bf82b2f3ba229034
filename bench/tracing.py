"""Span tracing of cavitybic's layers from outside the package.

``Tracer.install`` replaces every public function of the package modules,
and the few methods named in ``_METHODS``, by a wrapper that records a span
(name, start, end, parent, run id) in memory.  Nothing under ``src/``
changes: the wrappers are written into the module namespaces at run time
and ``uninstall`` puts the originals back.  ``layer_metrics`` derives the
per-layer metrics from the spans and counters of one round.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import json
import re
import subprocess
import sys
import time
from collections import defaultdict

MODULES = ("model", "operators", "bic", "dynamics", "linear", "cli")

# Methods on hot paths that are layer boundaries of their own; the span name
# drops the class.
_METHODS = {
    ("dynamics", "LindbladGenerator", "apply"): "dynamics.apply",
    ("dynamics", "DensityMatrix", "min_eigenvalue"): "dynamics.min_eigenvalue",
    ("dynamics", "DensityMatrix", "offblock_max"): "dynamics.offblock_max",
}

_DRIVERS = ("cli.run_bic", "cli.run_sweep_chi", "cli.run_evolve", "cli.run_qfactor")
_LADDERS = ("operators.build_normal_mode", "operators.build_collective_lowering",
            "operators.build_end_annihilation")
_IMPORT_GROUPS = ("numpy", "scipy", "scipy.sparse", "scipy.linalg", "scipy.integrate",
                  "cavitybic", *(f"cavitybic.{m}" for m in MODULES))


def _apply_flops(args, _result) -> float:
    """Real flops of the dense complex matmuls in one generator apply:
    2 for the commutator plus 4 per jump operator, 8 d^3 each."""
    generator, rho = args[0], args[1]
    d = rho.shape[0]
    return (2 + 4 * len(generator._jumps)) * 8.0 * d ** 3


# Counts recorded at a layer boundary, one value per span: span name ->
# fn(args, result).
_COUNTERS = {
    "model.enumerate_sector": lambda a, r: len(r),
    "operators.build_hamiltonian": lambda a, r: r.nnz,
    "dynamics.apply": _apply_flops,
}

# Per-layer metrics in output order: name -> unit.
LAYER_METRICS = {
    "model.enumerate_sector.s": "s",
    "model.enumerate_sector.states": "count",
    "operators.build_hamiltonian.s": "s",
    "operators.build_hamiltonian.nnz": "count",
    "operators.ladder.s": "s",
    "bic.assemble_bic_state.s": "s",
    "bic.verify_trapping.self_s": "s",
    "bic.null_space_coefficients.s": "s",
    "bic.regime_observables.calls": "count",
    "bic.regime_observables.s": "s",
    "dynamics.lindblad_generator.s": "s",
    "dynamics.apply.calls": "count",
    "dynamics.apply.s": "s",
    "dynamics.apply.us_per_call": "us",
    "dynamics.apply.flops": "flop",
    "dynamics.solve_ivp.calls": "count",
    "dynamics.solve_ivp.self_s": "s",
    "dynamics.monitor.s": "s",
    "dynamics.monitor_apply.calls": "count",
    "dynamics.min_eigenvalue.calls": "count",
    "dynamics.trapped_probabilities.s": "s",
    "dynamics.evolve.self_s": "s",
    "dynamics.fit_decay_rate.s": "s",
    "linear.q_factor.calls": "count",
    "linear.q_factor.s": "s",
    "cli.resolve_config.s": "s",
    "cli.driver.self_s": "s",
    "cli.out_bytes": "bytes",
    **{f"import.{group}.self_s": "s" for group in _IMPORT_GROUPS},
    "import.other.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    FIELDS = ("name", "start", "end", "parent", "run_id")

    def __init__(self):
        self.spans: list[list] = []
        self.values: dict[int, float] = {}  # span index -> its _COUNTERS value
        self.counts: dict[tuple[int, str], float] = defaultdict(float)
        self.run_id = 0
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name: str, fn):
        spans, stack, values = self.spans, self._stack, self.values
        counter = _COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id])
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if counter is not None:
                values[idx] = counter(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap the package's public functions wherever they are referenced."""
        pkg = importlib.import_module("cavitybic")
        mods = [pkg] + [importlib.import_module(f"cavitybic.{m}") for m in MODULES]
        wrapped: dict[int, object] = {}
        for short, mod in zip(MODULES, mods[1:]):
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrapped[id(value)] = self._wrap(f"{short}.{attr}", value)
        dyn = mods[1 + MODULES.index("dynamics")]
        wrapped[id(dyn.solve_ivp)] = self._wrap("dynamics.solve_ivp", dyn.solve_ivp)
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped:
                    self._set(mod.__dict__, attr, wrapped[id(value)])
        cli = mods[1 + MODULES.index("cli")]
        for key, value in list(cli._DRIVERS.items()):
            if id(value) in wrapped:
                self._set(cli._DRIVERS, key, wrapped[id(value)])
        for (modname, cls_name, meth), name in _METHODS.items():
            cls = getattr(mods[1 + MODULES.index(modname)], cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap(name, original))
            self._restore.append(lambda c=cls, m=meth, o=original: setattr(c, m, o))

    def _set(self, namespace: dict, key, value) -> None:
        original = namespace[key]
        namespace[key] = value
        self._restore.append(lambda: namespace.__setitem__(key, original))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    @contextlib.contextmanager
    def operation(self, name: str):
        """Root span of one operation; the spans under it share its run id."""
        self.run_id += 1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, -1, self.run_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def add_count(self, key: str, value: float) -> None:
        self.counts[(self.run_id, key)] += value

    def dump(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**header, "fields": self.FIELDS, "spans": self.spans}, handle,
                      separators=(",", ":"))


def layer_metrics(tracer: Tracer, run_ids) -> dict[str, float]:
    """Per-layer totals over the operations ``run_ids`` (one round)."""
    run_ids = set(run_ids)
    index = [i for i, s in enumerate(tracer.spans) if s[4] in run_ids]
    child = defaultdict(float)
    for i in index:
        s = tracer.spans[i]
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    # A generator apply is an RHS evaluation when the integrator calls it;
    # ``evolve`` also applies the generator once per snapshot to test for a
    # steady state, and that apply is counted as monitoring.
    spans = tracer.spans
    total, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    value = defaultdict(float)
    for i in index:
        name, start, end, parent = spans[i][:4]
        if name == "dynamics.apply" and (parent < 0 or spans[parent][0] != "dynamics.solve_ivp"):
            name = "dynamics.monitor_apply"
        total[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
        value[name] += tracer.values.get(i, 0.0)
    counts = defaultdict(float)
    for (run, key), amount in tracer.counts.items():
        if run in run_ids:
            counts[key] += amount
    apply_calls = calls["dynamics.apply"]
    return {
        "model.enumerate_sector.s": total["model.enumerate_sector"],
        "model.enumerate_sector.states": value["model.enumerate_sector"],
        "operators.build_hamiltonian.s": total["operators.build_hamiltonian"],
        "operators.build_hamiltonian.nnz": value["operators.build_hamiltonian"],
        "operators.ladder.s": sum(total[n] for n in _LADDERS),
        "bic.assemble_bic_state.s": total["bic.assemble_bic_state"],
        "bic.verify_trapping.self_s": own["bic.verify_trapping"],
        "bic.null_space_coefficients.s": total["bic.null_space_coefficients"],
        "bic.regime_observables.calls": calls["bic.regime_observables"],
        "bic.regime_observables.s": total["bic.regime_observables"],
        "dynamics.lindblad_generator.s": total["dynamics.lindblad_generator"],
        "dynamics.apply.calls": apply_calls,
        "dynamics.apply.s": total["dynamics.apply"],
        "dynamics.apply.us_per_call":
            1e6 * total["dynamics.apply"] / apply_calls if apply_calls else 0.0,
        "dynamics.apply.flops": value["dynamics.apply"],
        "dynamics.solve_ivp.calls": calls["dynamics.solve_ivp"],
        "dynamics.solve_ivp.self_s": own["dynamics.solve_ivp"],
        "dynamics.monitor.s": (total["dynamics.min_eigenvalue"] + total["dynamics.offblock_max"]
                               + total["dynamics.monitor_apply"]),
        "dynamics.monitor_apply.calls": calls["dynamics.monitor_apply"],
        "dynamics.min_eigenvalue.calls": calls["dynamics.min_eigenvalue"],
        "dynamics.trapped_probabilities.s": total["dynamics.trapped_probabilities"],
        "dynamics.evolve.self_s": own["dynamics.evolve"],
        "dynamics.fit_decay_rate.s": total["dynamics.fit_decay_rate"],
        "linear.q_factor.calls": calls["linear.q_factor"],
        "linear.q_factor.s": total["linear.q_factor"],
        "cli.resolve_config.s": total["cli.resolve_config"],
        "cli.driver.self_s": sum(own[n] for n in _DRIVERS),
        "cli.out_bytes": counts["cli.out_bytes"],
        "trace.spans": len(index),
    }


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)\s*$")


def import_self_times(env: dict, cwd: str, repeats: int) -> dict[str, float]:
    """Median self time of ``import cavitybic.cli``, which imports every
    module of the package, per module group, from ``python -X importtime``.
    Each module counts toward the longest group name that prefixes it
    (``scipy`` holds the subpackages not named on their own), and everything
    else toward ``other``."""
    samples: dict[str, list[float]] = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cavitybic.cli"],
                              env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=120, check=True)
        totals = dict.fromkeys((*_IMPORT_GROUPS, "other"), 0.0)
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if not match:
                continue
            module = match.group(2)
            group = max((g for g in _IMPORT_GROUPS
                         if module == g or module.startswith(g + ".")),
                        key=len, default="other")
            totals[group] += int(match.group(1)) * 1e-6
        for group, value in totals.items():
            samples[group].append(value)
    return {f"import.{g}.self_s": sorted(v)[len(v) // 2] for g, v in samples.items()}
