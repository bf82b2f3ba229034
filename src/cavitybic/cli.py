"""Batch front end: config parsing, experiment drivers, CSV/report output.

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
units of the hopping rate (lam = 1 internally).  Every output starts with
comment lines echoing the fully resolved configuration, so identical
configs give byte-identical files.

Exit codes: 0 success, 1 validation error, 2 numerical failure,
3 tolerance violation.  A run that exits 1 or 2 writes nothing to stdout
or ``--out``.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, IO, Sequence

import numpy as np

from . import bic, dynamics, linear
from .model import (ModelParams, NoResonantModeError, ParamError,
                    enumerate_sector, resonant_mode_index, validate_params)

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

_COMMON_KEYS: dict[str, tuple[Callable, object]] = {
    "seed": (int, 0),
}

SCHEMAS: dict[str, dict[str, tuple[Callable, object]]] = {
    "bic": {
        **_MODEL_KEYS, **_COMMON_KEYS,
        "k_excitations": (int, 2),
        "residual_tol": (float, 1e-8),
        "overlap_tol": (float, 1e-8),
    },
    "sweep-chi": {
        **_MODEL_KEYS, **_COMMON_KEYS,
        "k_excitations": (int, 2),
        "chi_min": (float, 0.05),
        "chi_max": (float, 20.0),
        "chi_points": (int, 25),
        "chi_scale": (str, "log"),
    },
    "evolve": {
        **_MODEL_KEYS, **_COMMON_KEYS,
        "initial": (str, "left_excited"),
        "initial_k": (int, -1),           # -1: use m_atoms (left_excited) / required for bic
        "t_end": (float, 2000.0),
        "snapshot_dt": (float, 2.0),
        "rtol": (float, 1e-8),
        "atol": (float, 1e-12),
        "detect_steady": (_parse_bool, True),
    },
    "qfactor": {
        **_MODEL_KEYS, **_COMMON_KEYS,
        "gamma_a": (float, 0.01),
        "g": (float, 10.0),
        "delta_min": (float, -3.0),       # in units of gamma_c
        "delta_max": (float, 3.0),
        "delta_points": (int, 61),
        "max_rel_err": (float, -1.0),     # negative: no tolerance check
    },
}
SCHEMAS["qfactor"].pop("delta")  # detuning is the swept variable here

# Float keys that must also be positive (every float key must be finite).
_POSITIVE_KEYS = ("t_end", "snapshot_dt", "rtol")
# Keys that must not be negative (RK45 raises on a negative atol).
_NONNEGATIVE_KEYS = ("seed", "atol")

# Upper bound on chi_points and delta_points: every grid point costs a table
# or an eigensolve, and the grid itself is allocated whole.
MAX_GRID_POINTS = 100_000

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


def resolve_config(experiment: str, raw_values: dict[str, str],
                   seed_override: int | None = None) -> RunConfig:
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
    for key in _POSITIVE_KEYS:
        if key in options and not options[key] > 0:
            raise ParamError(f"bad value for {key!r}: must be > 0, got {options[key]!r}")
    if experiment == "evolve" and (options["t_end"] / options["snapshot_dt"]
                                   > dynamics.MAX_SNAPSHOTS):
        raise ParamError(f"bad value for 'snapshot_dt': t_end / snapshot_dt must be at most "
                         f"{dynamics.MAX_SNAPSHOTS}, got {options['snapshot_dt']!r}")
    if seed_override is not None:
        options["seed"] = seed_override
    for key in _NONNEGATIVE_KEYS:
        if key in options and options[key] < 0:
            raise ParamError(f"bad value for {key!r}: must be >= 0, got {options[key]!r}")

    delta = float(options.get("delta", 0.0))
    omega_c = float(options["omega_c"])
    params = ModelParams(
        n_chain=int(options["n_chain"]),
        m_atoms=int(options["m_atoms"]),
        omega_c=omega_c,
        omega_a=omega_c - delta,
        g=float(options["g"]),
        lam=1.0,
        q=1,  # placeholder until resolved below
        gamma_c=float(options["gamma_c"]),
        gamma_a=float(options["gamma_a"]),
    )
    q = options["q"]
    if q == "auto":
        q = resonant_mode_index(params, tol=abs(delta) + _RESONANCE_SLACK)
    params = validate_params(params.replace(q=int(q)))
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
    if n == 1:
        return np.array([lo])
    if scale == "log":
        return np.logspace(math.log10(lo), math.log10(hi), n)
    if scale == "linear":
        return np.linspace(lo, hi, n)
    raise ParamError(f"{name}_scale must be 'log' or 'linear', got {scale!r}")


def run_bic(config: RunConfig, stream: IO[str]) -> int:
    """Trapped-state report: amplitude table, residuals, kernel overlap,
    regime observables, and a seeded random-vector residual baseline."""
    p = config.params
    k = int(config.options["k_excitations"])

    coeffs = bic.closed_form_coefficients(p, k)
    sector = enumerate_sector(p, k)
    psi = bic.assemble_bic_state(p, k, sector=sector, coefficients=coeffs)
    report = bic.verify_trapping(p, psi, k)
    kernel = bic.null_space_coefficients(p, k)
    overlap = abs(coeffs.overlap(kernel))
    observables = bic.regime_observables(p, k, coefficients=coeffs)

    rng = np.random.default_rng(int(config.options["seed"]))
    random_vec = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
    random_state = bic.StateVector(sector, random_vec / np.linalg.norm(random_vec))
    baseline = bic.verify_trapping(p, random_state, k)

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

    residual_tol = float(config.options["residual_tol"])
    overlap_tol = float(config.options["overlap_tol"])
    passed = (report.max_residual <= residual_tol
              and abs(overlap - 1.0) <= overlap_tol)
    print(f"status={'PASS' if passed else 'FAIL'}", file=stream)
    return EXIT_OK if passed else EXIT_TOLERANCE


def run_sweep_chi(config: RunConfig, stream: IO[str]) -> int:
    """Composition of the trapped state across a chi grid, one CSV row per point."""
    p = config.params
    k = int(config.options["k_excitations"])
    if k < 1:
        raise ParamError("k_excitations must be at least 1 for a composition sweep")
    grid = _grid(config, "chi", str(config.options["chi_scale"]), positive=True)
    coupling = abs(bic.chi(p.replace(g=1.0)))  # chi produced per unit g

    def row(chi_value: float) -> tuple[float, ...]:
        params_here = p.replace(g=chi_value / coupling)
        obs = bic.regime_observables(params_here, k)
        return (chi_value, obs.mean_photons, obs.mean_excited,
                obs.mean_photons / k, obs.mean_excited / k)

    rows = [row(value) for value in grid]

    print("chi,mean_photons,mean_excited,photon_fraction,atom_fraction", file=stream)
    for values in rows:
        print(",".join(_fmt(v) for v in values), file=stream)
    return EXIT_OK


def run_evolve(config: RunConfig, stream: IO[str]) -> int:
    """Master-equation relaxation; trapped-state occupations per snapshot."""
    p = config.params
    initial = str(config.options["initial"])
    k_init = int(config.options["initial_k"])
    if k_init < 0:
        k_init = p.m_atoms
    if k_init > p.m_atoms and initial != "bic":
        raise ParamError("initial_k cannot exceed m_atoms for atomic initial states")

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
        p, rho0, float(config.options["t_end"]),
        include_atomic_decay=p.gamma_a > 0,
        snapshot_dt=float(config.options["snapshot_dt"]),
        rtol=float(config.options["rtol"]),
        atol=float(config.options["atol"]),
        detect_steady=bool(config.options["detect_steady"]))

    trapped = [bic.assemble_bic_state(p, i, sector=space.sectors[i])
               for i in range(k_init + 1)]
    prob_cols = [f"P{i}" for i in range(k_init + 1)]
    print("lambda_t," + ",".join(prob_cols) + ",trace,min_eig", file=stream)
    for t, state, min_eig in zip(trajectory.times, trajectory.states,
                                 trajectory.min_eigenvalues):
        probs = dynamics.trapped_probabilities(state, trapped)
        cells = [t, *probs, state.trace(), min_eig]
        print(",".join(_fmt(v) for v in cells), file=stream)
    print(f"# steady_state_reached={_fmt(trajectory.steady_reached)}", file=stream)
    if trajectory.steady_time is not None:
        print(f"# steady_time={_fmt(trajectory.steady_time)}", file=stream)
    print(f"# max_trace_drift={_fmt(trajectory.diagnostics.max_trace_drift)}", file=stream)
    print(f"# min_eigenvalue={_fmt(trajectory.diagnostics.min_eigenvalue)}", file=stream)
    return EXIT_OK


def run_qfactor(config: RunConfig, stream: IO[str]) -> int:
    """Quality factor of the trapped mode across a detuning grid."""
    p = config.params
    if p.n_chain != 2:
        raise ParamError("qfactor requires the triple-cavity configuration (n_chain=2)")
    if not p.gamma_c > 0:
        raise ParamError("qfactor requires gamma_c > 0: its detuning grid is in units of gamma_c")
    if p.g == 0:
        raise ParamError("qfactor requires g != 0: its closed-form decay rate is 0/0 "
                         "at zero detuning without coupling")
    grid = _grid(config, "delta")

    def row(delta_over_gc: float) -> tuple[float, ...]:
        with np.errstate(over="ignore"):  # linear_matrix rejects an inf delta
            delta = delta_over_gc * p.gamma_c
        params_here = p.replace(omega_a=p.omega_c - delta)
        q_exact = linear.q_factor(params_here)
        gamma_ap = gamma_approx_quiet(params_here)
        if math.isnan(gamma_ap):  # 0/0 or inf/inf: g^2 underflows or delta^2 overflows
            raise FloatingPointError("the closed-form decay rate is undefined at "
                                     f"delta_over_gc={_fmt(delta_over_gc)}")
        q_approx = math.inf if gamma_ap == 0 else params_here.gamma_c / gamma_ap
        if math.isinf(q_exact):  # the limit of |Q - q| / Q: 0 only if q is unbounded too
            rel_err = 0.0 if math.isinf(q_approx) else 1.0
        else:
            rel_err = abs(q_exact - q_approx) / q_exact if q_exact > 0 else math.inf
        return (delta_over_gc, q_exact, q_approx, rel_err)

    # one stderr line for the whole grid, not one warning per degenerate point
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", linear.DegenerateDecayWarning)
        rows = [row(value) for value in grid]
    degenerate = 0
    for w in caught:
        if issubclass(w.category, linear.DegenerateDecayWarning):
            degenerate += 1
        else:  # recording caught it too: pass it on unchanged
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if degenerate:
        print(f"warning: degenerate minimal decay pair at {degenerate} of {len(grid)} grid "
              "points; q_exact there uses the smallest rate", file=sys.stderr)

    print("delta_over_gc,q_exact,q_approx,rel_err", file=stream)
    worst = 0.0
    for values in rows:
        worst = max(worst, values[3])
        print(",".join(_fmt(v) for v in values), file=stream)
    print(f"# max_rel_err_observed={_fmt(worst)}", file=stream)
    max_rel_err = float(config.options["max_rel_err"])
    if max_rel_err >= 0 and worst > max_rel_err:
        print("# status=FAIL", file=stream)
        return EXIT_TOLERANCE
    print("# status=PASS", file=stream)
    return EXIT_OK


def gamma_approx_quiet(params: ModelParams) -> float:
    """Closed-form decay rate without the regime warning (grid drivers)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return linear.gamma_approx(params)


_DRIVERS: dict[str, Callable[[RunConfig, IO[str]], int]] = {
    "bic": run_bic,
    "sweep-chi": run_sweep_chi,
    "evolve": run_evolve,
    "qfactor": run_qfactor,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        cmd.add_argument("--seed", type=int, default=None,
                         help="seed for randomized self-tests")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        raw: dict[str, str] = {}
        if args.config:
            raw.update(parse_config_file(args.config))
        for item in args.overrides:
            if "=" not in item:
                raise ParamError(f"--set expects KEY=VALUE, got {item!r}")
            key, _, value = item.partition("=")
            raw[key.strip()] = value.strip()
        config = resolve_config(args.experiment, raw, seed_override=args.seed)
        # the run's whole output, written only once its driver has returned:
        # a run that raises leaves stdout empty and --out untouched
        buffer = io.StringIO()
        print(*config.echo_lines(), sep="\n", file=buffer)
        code = _DRIVERS[args.experiment](config, buffer)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(buffer.getvalue())
        else:
            sys.stdout.write(buffer.getvalue())
        return code
    except (ParamError, NoResonantModeError, bic.NoTrappedStateError,
            OSError, UnicodeDecodeError) as exc:  # the last two: an unreadable --config/--out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (dynamics.IntegrationError, bic.DegenerateNullSpaceError,
            np.linalg.LinAlgError, OverflowError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def console_main() -> None:
    raise SystemExit(main())
