"""Batch front end: config parsing, experiment drivers and their text output.

Experiments
-----------
bic        build one trapped state, print its amplitude table, trapping
           residuals, kernel-route overlap and regime observables
sweep-chi  photon/atom composition of the trapped state across a grid of
           the regime parameter chi
evolve     master-equation relaxation; occupation probabilities of the
           trapped states per snapshot
qfactor    scaled quality factor of the trapped mode versus detuning,
           exact eigensolve against the closed-form approximation

Configuration is a flat ``key=value`` text file plus repeatable
``--set key=value`` overrides.  All frequencies and rates are expressed in
units of the hopping rate (lam = 1 internally).  Each experiment accepts
only the keys its driver reads (``SCHEMAS``); the model parameters it does
not read keep their defaults (the triple cavity, n_chain = 2, at
omega_c = 0 and zero detuning).  Every output starts with comment lines
echoing the fully resolved configuration, so identical configs give
byte-identical files.

Exit codes: 0 success, 1 validation error (a malformed command line
included), 2 numerical failure (any other error included), 3 tolerance
violation.  A run that exits 1 or 2 writes nothing to stdout or ``--out``
and exactly one line to stderr.  ``-h`` prints help and exits 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import sys
from dataclasses import dataclass
from typing import Callable, IO, Sequence

import numpy as np

from . import bic, dynamics, linear
from .model import (MAX_SECTOR_ENTRIES, ModelParams, NoResonantModeError, ParamError,
                    enumerate_sector, resonant_mode_index, sector_dim, validate_params)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_TOLERANCE = 3


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_q(text: str):
    return "auto" if text.strip().lower() == "auto" else int(text)


_MODEL_KEYS: dict[str, tuple[Callable, object]] = {
    "n_chain": (int, 2),
    "m_atoms": (int, 2),
    "g": (float, 0.1),
    "gamma_c": (float, 1.0),
    "gamma_a": (float, 0.0),
    "delta": (float, 0.0),
    "omega_c": (float, 0.0),
    "q": (_parse_q, "auto"),
}


def _model_keys(*names: str) -> dict[str, tuple[Callable, object]]:
    return {name: _MODEL_KEYS[name] for name in names}


# Each subcommand accepts only the model keys its driver reads; the others
# stay at their _MODEL_KEYS defaults and are not echoed.  sweep-chi needs no
# chain keys: on resonance its rows depend on chi, M and K alone.
SCHEMAS: dict[str, dict[str, tuple[Callable, object]]] = {
    "bic": {
        **_model_keys("n_chain", "m_atoms", "g", "delta", "omega_c", "q"),
        "seed": (int, 0),
        "k_excitations": (int, 2),
    },
    "sweep-chi": {
        **_model_keys("m_atoms"),
        "k_excitations": (int, 2),
        "chi_min": (float, 0.05),
        "chi_max": (float, 20.0),
        "chi_points": (int, 25),
        "chi_scale": (str, "log"),
    },
    "evolve": {
        # the rotating frame cancels omega_c
        **_model_keys("n_chain", "m_atoms", "g", "gamma_c", "gamma_a", "delta", "q"),
        "seed": (int, 0),
        "initial": (str, "left_excited"),
        "initial_k": (int, -1),           # negative: use m_atoms
        "t_end": (float, 2000.0),
        "snapshot_dt": (float, 2.0),
        "detect_steady": (_parse_bool, True),
    },
    "qfactor": {  # the triple cavity (n_chain = 2, q = 1); detuning is the swept variable
        **_model_keys("m_atoms", "gamma_c"),
        "gamma_a": (float, 0.01),
        "g": (float, 10.0),
        "delta_min": (float, -3.0),       # in units of gamma_c
        "delta_max": (float, 3.0),
        "delta_points": (int, 61),
        "max_rel_err": (float, -1.0),     # negative: no tolerance check
    },
}

# Upper bound on chi_points and delta_points: every grid point costs K + 1
# weights or an eigensolve, and the grid itself is allocated whole.
MAX_GRID_POINTS = 100_000

# Upper bounds on n_chain and m_atoms, from the occupation-table bound: a
# longer chain's one-excitation sector (N + 3 states of N + 3 slots) and the
# (M + 1)^2 joint states of two larger ensembles would each exceed
# MAX_SECTOR_ENTRIES.  Checked before q=auto scans the chain's modes, whose
# cost grows with n_chain, and before any closed-form table, whose
# log-factorial table grows with m_atoms.
MAX_N_CHAIN = math.isqrt(MAX_SECTOR_ENTRIES) - 3
MAX_M_ATOMS = math.isqrt(MAX_SECTOR_ENTRIES) - 1

# bic passes when every trapping residual and |1 - the null-space overlap|
# are at most this.
_PASS_TOL = 1e-8

# q=auto accepts a chain mode no farther from omega_a than the bare cavity
# (|delta|) plus this slack for the rounding of the mode frequencies.
_RESONANCE_SLACK = 1e-9


@dataclass
class RunConfig:
    """Resolved configuration: experiment, model parameters, extras."""

    experiment: str
    params: ModelParams
    options: dict[str, object]

    def echo_lines(self) -> list[str]:
        return [f"# experiment={self.experiment}",
                *(f"# {key}={_fmt(value)}" for key, value in sorted(self.options.items()))]


def parse_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParamError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def resolve_config(experiment: str, raw_values: dict[str, str]) -> RunConfig:
    schema = SCHEMAS.get(experiment)
    if schema is None:
        raise ParamError(f"unknown experiment {experiment!r}")
    options: dict[str, object] = {key: default for key, (_, default) in schema.items()}
    for key, text in raw_values.items():
        if key not in schema:
            raise ParamError(f"unknown config key {key!r} for experiment {experiment!r}")
        caster = schema[key][0]
        try:
            options[key] = caster(text)
        except ValueError as exc:
            raise ParamError(f"bad value for {key!r}: {exc}") from exc
        if caster is float and not math.isfinite(options[key]):
            raise ParamError(f"bad value for {key!r}: must be finite, got {text!r}")
    if options.get("seed", 0) < 0:
        raise ParamError(f"bad value for 'seed': must be >= 0, got {options['seed']!r}")
    model = {key: options.get(key, default) for key, (_, default) in _MODEL_KEYS.items()}
    for key, bound in (("n_chain", MAX_N_CHAIN), ("m_atoms", MAX_M_ATOMS)):
        if model[key] > bound:
            raise ParamError(f"bad value for {key!r}: must be at most {bound}, "
                             f"got {model[key]!r}")

    delta, omega_c = float(model["delta"]), float(model["omega_c"])
    params = ModelParams(
        n_chain=int(model["n_chain"]),
        m_atoms=int(model["m_atoms"]),
        omega_c=omega_c,
        omega_a=omega_c - delta,
        g=float(model["g"]),
        lam=1.0,
        q=1,  # placeholder until resolved below
        gamma_c=float(model["gamma_c"]),
        gamma_a=float(model["gamma_a"]),
    )
    q = model["q"]
    if q == "auto":
        q = resonant_mode_index(params, tol=abs(delta) + _RESONANCE_SLACK)
    params = validate_params(params.replace(q=int(q)))
    if "q" in options:
        options["q"] = int(q)
    return RunConfig(experiment=experiment, params=params, options=options)


def _fmt(value) -> str:
    """One output field: floats round-trip (``.17g``), bools are true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value) if isinstance(value, (int, str)) else f"{value:.17g}"


def _grid(config: RunConfig, name: str, scale: str = "linear", *,
          positive: bool = False) -> np.ndarray:
    """``{name}_points`` values from ``{name}_min`` to ``{name}_max``, evenly
    spaced on a 'linear' or 'log' scale; a single point is ``{name}_min``."""
    lo, hi, n = (config.options[f"{name}_{end}"] for end in ("min", "max", "points"))
    if n < 1:
        raise ParamError(f"empty grid: {name}_points must be at least 1")
    if n > MAX_GRID_POINTS:
        raise ParamError(f"bad value for '{name}_points': must be at most "
                         f"{MAX_GRID_POINTS}, got {n}")
    if hi < lo or (positive and lo <= 0):
        raise ParamError(f"need {'0 < ' if positive else ''}{name}_min <= {name}_max")
    if scale not in ("log", "linear"):
        raise ParamError(f"{name}_scale must be 'log' or 'linear', got {scale!r}")
    if n == 1:
        return np.array([lo])
    if scale == "log":
        return np.logspace(math.log10(lo), math.log10(hi), n)
    return np.linspace(lo, hi, n)


def run_bic(config: RunConfig, stream: IO[str]) -> int:
    """Trapped-state report: amplitude table, residuals, kernel overlap,
    regime observables, and a seeded random-vector residual baseline."""
    p = config.params
    k = int(config.options["k_excitations"])

    coeffs = bic.closed_form_coefficients(p, k)
    sector = enumerate_sector(p, k)
    psi = bic.assemble_bic_state(p, k, sector=sector, coefficients=coeffs)
    rng = np.random.default_rng(int(config.options["seed"]))
    random_vec = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
    # the trapped state and the random baseline share sector K - 1 and its maps
    report, baseline = bic._trapping_reports(
        p, sector, [psi.amplitudes, random_vec / np.linalg.norm(random_vec)], k)
    kernel = bic.null_space_coefficients(p, k)
    overlap = abs(coeffs.overlap(kernel))
    observables = bic.regime_observables(p, k, coefficients=coeffs)

    print("m,n,amplitude", file=stream)
    for m in range(k + 1):
        for n in range(k + 1 - m):
            print(f"{m},{n},{_fmt(coeffs.table[m, n].real)}", file=stream)
    # + 0.0 turns -0 into 0
    print(f"energy={_fmt((k - p.m_atoms) * p.omega_a + 0.0)}", file=stream)
    print(f"chi={_fmt(coeffs.chi)}", file=stream)
    print(f"sign_ratio={coeffs.sign_ratio}", file=stream)
    print(f"eigen_residual={_fmt(report.eigen_residual)}", file=stream)
    print(f"left_residual={_fmt(report.left_residual)}", file=stream)
    print(f"right_residual={_fmt(report.right_residual)}", file=stream)
    print(f"nullspace_overlap={_fmt(overlap)}", file=stream)
    print(f"random_unit_residual={_fmt(baseline.max_residual)}", file=stream)
    print(f"mean_photons={_fmt(observables.mean_photons)}", file=stream)
    print(f"mean_excited={_fmt(observables.mean_excited)}", file=stream)
    if k > 0:
        print(f"photon_fraction={_fmt(observables.mean_photons / k)}", file=stream)
        print(f"atom_fraction={_fmt(observables.mean_excited / k)}", file=stream)

    passed = report.max_residual <= _PASS_TOL and abs(overlap - 1.0) <= _PASS_TOL
    print(f"status={'PASS' if passed else 'FAIL'}", file=stream)
    return EXIT_OK if passed else EXIT_TOLERANCE


def run_sweep_chi(config: RunConfig, stream: IO[str]) -> int:
    """Composition of the trapped state across a chi grid, one CSV row per point."""
    p = config.params
    k = int(config.options["k_excitations"])
    if k < 1:
        raise ParamError("k_excitations must be at least 1 for a composition sweep")
    grid = _grid(config, "chi", str(config.options["chi_scale"]), positive=True)
    photons = bic.mean_photons_across_chi(p, k, grid)
    excited = k - photons

    print("chi,mean_photons,mean_excited,photon_fraction,atom_fraction", file=stream)
    for values in zip(grid, photons, excited, photons / k, excited / k):
        print(",".join(_fmt(v) for v in values), file=stream)
    return EXIT_OK


def run_evolve(config: RunConfig, stream: IO[str]) -> int:
    """Master-equation relaxation; trapped-state occupations per snapshot."""
    p = config.params
    initial = str(config.options["initial"])
    k_init = int(config.options["initial_k"])
    if k_init < 0:
        k_init = p.m_atoms
    if k_init > p.m_atoms:
        raise ParamError("initial_k cannot exceed m_atoms")
    t_end, snapshot_dt = (float(config.options[key]) for key in ("t_end", "snapshot_dt"))
    # evolve's own grid and size checks, before any sector is enumerated
    snapshots = len(dynamics._snapshot_times(t_end, snapshot_dt))
    dynamics._reached_blocks(lambda k: sector_dim(p, k), [(k_init, k_init)],
                             bool(dynamics._jump_slots(p, p.gamma_a > 0)), snapshots)

    space = dynamics.stack_sectors(p, k_init)
    if initial == "left_excited":
        sector = space.sectors[k_init]
        vec = np.zeros(sector.dim, dtype=np.complex128)
        # every excitation on the left ensemble (slot J_L), none elsewhere
        vec[sector.indices([[0] * (p.n_chain + 1) + [k_init, 0]])] = 1.0
        rho0 = dynamics.DensityMatrix.from_pure(space, bic.StateVector(sector, vec))
    elif initial == "bic":
        psi = bic.assemble_bic_state(p, k_init, sector=space.sectors[k_init])
        rho0 = dynamics.DensityMatrix.from_pure(space, psi)
    else:
        raise ParamError(f"initial must be 'left_excited' or 'bic', got {initial!r}")

    trajectory = dynamics.evolve(
        p, rho0, t_end,
        include_atomic_decay=p.gamma_a > 0,
        snapshot_dt=snapshot_dt,
        detect_steady=bool(config.options["detect_steady"]))

    probs = trajectory.states.expectations(
        [bic.assemble_bic_state(p, i, sector=space.sectors[i]) for i in range(k_init + 1)])
    prob_cols = [f"P{i}" for i in range(k_init + 1)]
    print("lambda_t," + ",".join(prob_cols) + ",trace,min_eig", file=stream)
    for t, row, trace, min_eig in zip(trajectory.times, probs, trajectory.traces,
                                      trajectory.min_eigenvalues):
        print(",".join(_fmt(v) for v in (t, *row, trace, min_eig)), file=stream)
    print(f"# steady_state_reached={_fmt(trajectory.steady_reached)}", file=stream)
    if trajectory.steady_time is not None:
        print(f"# steady_time={_fmt(trajectory.steady_time)}", file=stream)
    print(f"# max_trace_drift={_fmt(trajectory.diagnostics.max_trace_drift)}", file=stream)
    print(f"# min_eigenvalue={_fmt(trajectory.diagnostics.min_eigenvalue)}", file=stream)
    return EXIT_OK


def run_qfactor(config: RunConfig, stream: IO[str]) -> int:
    """Quality factor of the trapped mode across a detuning grid."""
    p = config.params
    if not p.gamma_c > 0:
        raise ParamError("qfactor requires gamma_c > 0: its detuning grid is in units of gamma_c")
    if p.g == 0:
        raise ParamError("qfactor requires g != 0: its closed-form decay rate is 0/0 "
                         "at zero detuning without coupling")
    grid = _grid(config, "delta")
    with np.errstate(over="ignore"):  # the matrix check rejects an inf delta
        delta = grid * p.gamma_c + 0.0  # + 0.0 turns -0 into 0 for the error message
    gamma_ap = linear.closed_form_decay(p, delta)
    # a grid fails at its first failing point, where the matrix check comes
    # first: the exact rates run up to the first undefined closed form
    undefined = np.flatnonzero(np.isnan(gamma_ap))  # 0/0 or inf/inf
    stop = undefined[0] + 1 if len(undefined) else len(grid)
    gamma, degenerate = linear.decay_rates(p, delta[:stop])
    if len(undefined):
        raise FloatingPointError("the closed-form decay rate is undefined at "
                                 f"delta_over_gc={_fmt(grid[undefined[0]])}")
    with np.errstate(all="ignore"):
        q_exact = np.where(gamma == 0.0, math.inf, p.gamma_c / gamma)
        q_approx = np.where(gamma_ap == 0, math.inf, p.gamma_c / gamma_ap)
        # where Q is unbounded, the limit of |Q - q| / Q: 0 only if q is unbounded too
        rel_err = np.where(np.isinf(q_exact), np.where(np.isinf(q_approx), 0.0, 1.0),
                           np.where(q_exact > 0, np.abs(q_exact - q_approx) / q_exact, math.inf))
    if degenerate.any():
        print(f"warning: degenerate minimal decay pair at {degenerate.sum()} of {len(grid)} grid "
              "points; q_exact there uses the smallest rate", file=sys.stderr)

    print("delta_over_gc,q_exact,q_approx,rel_err", file=stream)
    for values in zip(grid, q_exact, q_approx, rel_err):
        print(",".join(_fmt(v) for v in values), file=stream)
    worst = rel_err.max()
    print(f"# max_rel_err_observed={_fmt(worst)}", file=stream)
    max_rel_err = float(config.options["max_rel_err"])
    if max_rel_err >= 0 and worst > max_rel_err:
        print("# status=FAIL", file=stream)
        return EXIT_TOLERANCE
    print("# status=PASS", file=stream)
    return EXIT_OK


_DRIVERS: dict[str, Callable[[RunConfig, IO[str]], int]] = {
    "bic": run_bic,
    "sweep-chi": run_sweep_chi,
    "evolve": run_evolve,
    "qfactor": run_qfactor,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors take ``main``'s validation path."""

    def error(self, message: str):
        raise ParamError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cavitybic",
        description="Trapped-state construction and open-system dynamics in "
                    "coupled-cavity arrays (all rates in units of the hopping rate)")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _DRIVERS:
        cmd = sub.add_parser(name, help=f"run the {name} experiment")
        cmd.add_argument("--config", help="path to a key=value config file")
        cmd.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="KEY=VALUE", help="override one config key (repeatable)")
        cmd.add_argument("--out", help="output path (default: stdout)")
        if "seed" in SCHEMAS[name]:
            cmd.add_argument("--seed", type=int, help="seed for randomized self-tests")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # the run's whole output, stderr included, written only once its driver
    # has returned: a run that raises leaves stdout empty and --out
    # untouched, and prints its one error line without the warnings before it
    out, err = io.StringIO(), io.StringIO()
    try:
        args = _build_parser().parse_args(argv)
        with contextlib.redirect_stderr(err):
            raw: dict[str, str] = {}
            if args.config:
                raw.update(parse_config_file(args.config))
            for item in args.overrides:
                if "=" not in item:
                    raise ParamError(f"--set expects KEY=VALUE, got {item!r}")
                key, _, value = item.partition("=")
                raw[key.strip()] = value.strip()
            if getattr(args, "seed", None) is not None:  # --seed over --set and --config
                raw["seed"] = str(args.seed)
            config = resolve_config(args.experiment, raw)
            print(*config.echo_lines(), sep="\n", file=out)
            code = _DRIVERS[args.experiment](config, out)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(out.getvalue())
        sys.stderr.write(err.getvalue())
        if not args.out:
            sys.stdout.write(out.getvalue())
        return code
    except (ParamError, NoResonantModeError, bic.NoTrappedStateError,
            OSError, UnicodeDecodeError) as exc:  # the last two: an unreadable --config/--out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # numpy's and scipy's errors, and any other
        print(f"numerical failure: {' '.join(str(exc).splitlines())}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main() -> None:
    raise SystemExit(main())
