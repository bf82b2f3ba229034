"""The three workloads: one round of each, with its checks.

A workload is a list of cases.  Each case runs its program calls under a
timer and then checks the outputs outside the timer; one round runs every
case of the workload once, in a fixed order.  Cases look cavitybic's
functions up through the module objects at call time, so that the tracer's
wrappers are seen when it is installed.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import threading
import time

import checks

# certify-large: (N, M, K) of the two trapped states.
CERTIFY = (("certify_chain_s", 12, 6, 6), ("certify_ensemble_s", 2, 30, 30))
# relax-evolve: (N, M) of the evolve runs from left_excited to steady state.
EVOLVE = (("evolve_m2_s", 2, 2), ("evolve_m3_s", 2, 3), ("evolve_chain_s", 4, 2))
# relax-evolve: the fixed-horizon K=1 decay run and its fit window.
DECAY = dict(n_chain=2, m_atoms=3, g=2.0, gamma_c=0.5, gamma_a=0.02)
DECAY_T_END, DECAY_DT, DECAY_FIT_FROM = 400.0, 2.0, 60.0
# cli-scan: grid sizes of sweep-chi and qfactor.
SWEEP_POINTS = QFACTOR_POINTS = 2001
# A child process still running after this many seconds is killed.
CHILD_TIMEOUT = 120.0


def run_timed(cmd, env: dict, cwd: str) -> tuple[int, float]:
    """Run ``cmd`` to its end; return its exit code and wall seconds.

    The wait blocks instead of polling: ``subprocess.run`` with a timeout
    polls every 50 ms, which rounds a one-second time up by as much.  A
    timer kills a child that hangs."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    return code, time.perf_counter() - start


class Context:
    """What a case needs: the checkout, the seed, and where results go."""

    def __init__(self, root: str, tmp: str, seed: int, in_process: bool):
        self.root = root
        self.tmp = tmp
        self.seed = seed
        self.in_process = in_process
        self.tracer = None  # set while traced rounds run
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.results: list[tuple[str, bool, str]] = []
        self.calibration: list[float] = []  # seconds per calibration sample

    def check(self, name: str, outcome) -> None:
        self.results.append((name, bool(outcome[0]), outcome[1]))

    def count(self, key: str, value: float) -> None:
        if self.tracer is not None:
            self.tracer.add_count(key, value)


def _params(n_chain: int, m_atoms: int, g: float, gamma_c: float = 1.0,
            gamma_a: float = 0.0):
    from cavitybic import model
    p = model.ModelParams(n_chain=n_chain, m_atoms=m_atoms, omega_c=0.0, omega_a=0.0,
                          g=g, lam=1.0, q=1, gamma_c=gamma_c, gamma_a=gamma_a)
    return p.replace(q=model.resonant_mode_index(p))


def _normalized_overlap(a, b) -> complex:
    import numpy as np
    return complex(np.vdot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def _read_output(path: str):
    """(comment lines without '# ', other lines) of a CLI output file."""
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    return ([ln[2:] for ln in lines if ln.startswith("# ")],
            [ln for ln in lines if not ln.startswith("#")])


def _csv_rows(lines) -> list[list[float]]:
    """Numeric rows of a CSV body whose first line is the header."""
    return [[float(cell) for cell in ln.split(",")] for ln in lines[1:]]


class Case:
    """One timed operation of a round; ``run`` returns its seconds."""

    check_names: tuple[str, ...] = ()

    def __init__(self, metric: str):
        self.metric = metric


class Certify(Case):
    check_names = ("dim", "residual", "routes", "norm")

    def __init__(self, metric, n_chain, m_atoms, k, g):
        super().__init__(metric)
        self.n_chain, self.k = n_chain, k
        self.params = _params(n_chain, m_atoms, g)

    def run(self, ctx: Context) -> float:
        from cavitybic import bic, model
        p, k = self.params, self.k
        start = time.perf_counter()
        coeffs = bic.closed_form_coefficients(p, k)
        sector = model.enumerate_sector(p, k)
        psi = bic.assemble_bic_state(p, k, sector=sector, coefficients=coeffs)
        report = bic.verify_trapping(p, psi, k)
        kernel = bic.null_space_coefficients(p, k)
        coeffs.overlap(kernel)
        elapsed = time.perf_counter() - start
        recursion = bic.recursive_coefficients(p, k)
        ctx.check("dim", checks.check_dim(sector.dim, self.n_chain, k))
        ctx.check("residual", checks.check_residual(report.max_residual))
        ctx.check("routes", checks.check_routes_agree(
            [_normalized_overlap(coeffs.table, recursion.table),
             _normalized_overlap(coeffs.table, kernel.table)]))
        ctx.check("norm", checks.check_unit_norm(psi.norm()))
        return elapsed


class EvolveCli(Case):
    check_names = ("exit-steady", "rows", "cg-weights")

    def __init__(self, metric, n_chain, m_atoms):
        super().__init__(metric)
        self.n_chain, self.m_atoms = n_chain, m_atoms

    def run(self, ctx: Context) -> float:
        from cavitybic import cli
        out = os.path.join(ctx.tmp, f"evolve-{self.n_chain}-{self.m_atoms}.csv")
        argv = ["evolve", "--set", f"n_chain={self.n_chain}",
                "--set", f"m_atoms={self.m_atoms}", "--seed", str(ctx.seed), "--out", out]
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        ctx.count("cli.out_bytes", os.path.getsize(out))
        comments, body = _read_output(out)
        rows = _csv_rows(body)
        ctx.check("exit-steady", checks.check_exit_steady(code, comments))
        ctx.check("rows", checks.check_rows_physical([(r[-2], r[-1]) for r in rows]))
        final = rows[-1][1:-2] if rows else []
        ctx.check("cg-weights", checks.check_cg_weights(final, self.m_atoms))
        return elapsed


class DecayFit(Case):
    check_names = ("decay-rate",)

    def __init__(self, metric):
        super().__init__(metric)
        self.params = _params(**DECAY)

    def run(self, ctx: Context) -> float:
        from cavitybic import bic, dynamics, linear
        p = self.params
        start = time.perf_counter()
        space = dynamics.stack_sectors(p, 1)
        psi = bic.assemble_bic_state(p, 1, sector=space.sectors[1])
        rho0 = dynamics.DensityMatrix.from_pure(space, psi)
        trajectory = dynamics.evolve(p, rho0, DECAY_T_END, include_atomic_decay=True,
                                     snapshot_dt=DECAY_DT, detect_steady=False)
        rate = dynamics.fit_decay_rate(
            trajectory, lambda rho: dynamics.trapped_probabilities(rho, [psi])[0],
            t_min=DECAY_FIT_FROM)
        elapsed = time.perf_counter() - start
        two_gamma = 2.0 * linear.trapped_mode_decay(p)
        ctx.check("decay-rate", checks.check_decay_rate(rate, two_gamma))
        return elapsed


class CliCommand(Case):
    """One ``python -m cavitybic`` invocation: a subprocess when untraced,
    ``cli.main`` in-process when traced.  The first call of a run is its
    reference for the byte-identity check."""

    def __init__(self, metric, argv, verify, check_names):
        super().__init__(metric)
        self.argv, self.verify = argv, verify
        self.check_names = (*check_names, "same-bytes")
        self.reference: bytes | None = None

    def invoke(self, ctx: Context, out: str) -> tuple[int, float]:
        argv = [*self.argv, "--out", out]
        if not ctx.in_process:
            return run_timed([sys.executable, "-m", "cavitybic", *argv], ctx.env, ctx.root)
        from cavitybic import cli
        start = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - start

    def warm_up(self, ctx: Context) -> None:
        out = os.path.join(ctx.tmp, f"{self.metric}.ref")
        self.invoke(ctx, out)
        with open(out, "rb") as handle:
            self.reference = handle.read()

    def run(self, ctx: Context) -> float:
        out = os.path.join(ctx.tmp, f"{self.metric}.out")
        code, elapsed = self.invoke(ctx, out)
        with open(out, "rb") as handle:
            data = handle.read()
        ctx.count("cli.out_bytes", len(data))
        self.verify(ctx, code, out)
        ctx.check("same-bytes", checks.check_same_bytes(self.reference or b"", data))
        return elapsed


def _verify_bic(ctx, code, out):
    _, body = _read_output(out)
    fields = dict(ln.split("=", 1) for ln in body if "=" in ln)
    ctx.check("bic-report", checks.check_bic_report(code, fields))



def _verify_sweep(ctx, code, out):
    _, body = _read_output(out)
    rows = [(r[0], r[3]) for r in _csv_rows(body)]
    ctx.check("sweep-rows", checks.check_sweep_rows(code, rows, SWEEP_POINTS))



def _qfactor_verifier(g: float, gamma_a: float):
    def verify(ctx, code, out):
        _, body = _read_output(out)
        rows = _csv_rows(body)
        ctx.check("q-rel-err", checks.check_q_rel_err(code, rows, QFACTOR_POINTS))
        ctx.check("q-peak", checks.check_q_peak(rows, g, 1.0, gamma_a))
        ctx.check("q-symmetric", checks.check_q_symmetric(rows))

    return verify


def build(workload: str, seed: int) -> list[Case]:
    """The cases of one workload; every input not fixed above is drawn
    from ``seed`` and does not change the amount of work."""
    rng = random.Random(seed)
    if workload == "certify-large":
        return [Certify(metric, n, m, k, round(rng.uniform(0.2, 1.0), 4))
                for metric, n, m, k in CERTIFY]
    if workload == "relax-evolve":
        return [*(EvolveCli(metric, n, m) for metric, n, m in EVOLVE),
                DecayFit("decay_fit_s")]
    if workload == "cli-scan":
        chi_min, chi_max = round(rng.uniform(0.02, 0.1), 4), round(rng.uniform(10, 30), 3)
        g, gamma_a = round(rng.uniform(10, 12), 3), round(rng.uniform(0.01, 0.02), 5)
        return [
            CliCommand("cli_bic_s", ["bic", "--seed", str(seed)], _verify_bic,
                       ("bic-report",)),
            CliCommand("cli_sweep_chi_s",
                       ["sweep-chi", "--set", f"chi_points={SWEEP_POINTS}",
                        "--set", f"chi_min={chi_min}", "--set", f"chi_max={chi_max}"],
                       _verify_sweep, ("sweep-rows",)),
            CliCommand("cli_qfactor_s",
                       ["qfactor", "--set", f"delta_points={QFACTOR_POINTS}",
                        "--set", f"g={g}", "--set", f"gamma_a={gamma_a}"],
                       _qfactor_verifier(g, gamma_a),
                       ("q-rel-err", "q-peak", "q-symmetric")),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warm_up(workload: str, cases: list[Case], ctx: Context) -> None:
    """Untimed, unchecked first calls: imports, lazy set-up, reference bytes."""
    if workload == "cli-scan":
        for case in cases:
            case.warm_up(ctx)
        return
    import cavitybic  # noqa: F401  (in-process import outside the timer)
    if workload == "certify-large":
        # a context of its own, so that the warm-up's checks are not counted
        Certify("warm-up", 2, 2, 2, 0.5).run(Context(ctx.root, ctx.tmp, ctx.seed, False))


WORKLOADS = ("certify-large", "relax-evolve", "cli-scan")
