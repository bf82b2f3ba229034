"""Correctness checks of the benchmark's workloads.

Each check is a pure function that returns ``(passed, detail)`` and is
counted as one operation.  Every check compares program output against a
value computed here, apart from the program, or against a property the
method must have; none compares against a stored copy of earlier output.
``self_test`` feeds each check a deliberately wrong value, so that no check
can pass vacuously.
"""

from __future__ import annotations

import math

RESIDUAL_TOL = 1e-10      # trapping residuals and route agreement
TRACE_TOL = 1e-8          # per-row trace drift and negative eigenvalues
CG_TOL = 0.01             # steady P_K against the Clebsch-Gordan weight
DECAY_REL_TOL = 0.01      # fitted population decay against 2 Gamma
SWEEP_TOL = 1e-12         # photon fraction against its closed form
QFACTOR_REL_ERR = 0.05    # closed-form Q against the eigensolve
QPEAK_REL_TOL = 0.05      # Q(0) against (g / lam)^2 gamma_c / gamma_a
QSYM_REL_TOL = 1e-9       # Q(delta) against Q(-delta)


def sector_dim(n_chain: int, k: int) -> int:
    """Size of sector K when no slot cap binds (M >= K): K excitations over
    the N + 1 cavities and the two ensembles."""
    return math.comb(k + n_chain + 2, k)


def cg_weight(m_atoms: int, k: int) -> float:
    """Weight of the dark state |s, -s>, s = M - K, in the left-excited state
    |M, 0> of the twisted two-ensemble spin."""
    s = m_atoms - k
    return ((2 * s + 1) * math.factorial(m_atoms) ** 2
            / (math.factorial(m_atoms + s + 1) * math.factorial(m_atoms - s)))


def photon_fraction_m2k2(chi: float) -> float:
    """Photon fraction of the M = K = 2 trapped state, from the closed-form
    amplitudes: 2x(1 + x) / (3 + 4x + 2x^2) with x = chi^2."""
    x = chi * chi
    return 2.0 * x * (1.0 + x) / (3.0 + 4.0 * x + 2.0 * x * x)


def _worst(values) -> float:
    """Largest of ``values``, or inf when there are none or one is not
    finite: ``max`` skips a NaN that is not the first element."""
    values = list(values)
    if not values or not all(math.isfinite(v) for v in values):
        return math.inf
    return max(values)


# -- certify-large -----------------------------------------------------------


def check_dim(dim: int, n_chain: int, k: int):
    want = sector_dim(n_chain, k)
    return dim == want, f"dim {dim}, C(K+N+2,K) = {want}"


def check_residual(max_residual: float):
    return max_residual < RESIDUAL_TOL, f"max trapping residual {max_residual:.3e}"


def check_routes_agree(overlaps):
    worst = _worst(abs(abs(o) - 1.0) for o in overlaps)
    return worst < RESIDUAL_TOL, f"worst | |overlap| - 1 | {worst:.3e}"


def check_unit_norm(norm: float):
    return abs(norm - 1.0) < RESIDUAL_TOL, f"norm - 1 = {norm - 1.0:.3e}"


# -- relax-evolve ------------------------------------------------------------


def check_exit_steady(code: int, comments):
    steady = "steady_state_reached=true" in comments
    return code == 0 and steady, f"exit {code}, steady_state_reached={steady}"


def check_rows_physical(rows):
    """rows: (trace, min_eig) per snapshot."""
    if len(rows) < 2:
        return False, f"{len(rows)} rows"
    drift = _worst(abs(tr - 1.0) for tr, _ in rows)
    low = -_worst(-e for _, e in rows)
    ok = drift <= TRACE_TOL and low > -TRACE_TOL
    return ok, f"{len(rows)} rows, max |trace - 1| {drift:.3e}, min eig {low:.3e}"


def check_cg_weights(final_probs, m_atoms: int):
    """final_probs: P_0 .. P_M of the last snapshot."""
    if len(final_probs) != m_atoms + 1:
        return False, f"{len(final_probs)} probabilities for M = {m_atoms}"
    worst = _worst(abs(p - cg_weight(m_atoms, k)) for k, p in enumerate(final_probs))
    return worst < CG_TOL, f"worst |P_K - CG weight| {worst:.4f}"


def check_decay_rate(fitted: float, two_gamma: float):
    rel = abs(fitted / two_gamma - 1.0) if two_gamma > 0 else math.inf
    return rel < DECAY_REL_TOL, f"fitted {fitted:.6g} vs 2 Gamma {two_gamma:.6g}, rel {rel:.2e}"


# -- cli-scan ----------------------------------------------------------------


def check_bic_report(code: int, fields):
    """fields: key -> value text of the bic report's key=value lines."""
    try:
        worst = _worst(float(fields[k]) for k in
                       ("eigen_residual", "left_residual", "right_residual"))
    except (KeyError, ValueError):
        return False, f"exit {code}, residual lines missing"
    ok = code == 0 and fields.get("status") == "PASS" and worst < RESIDUAL_TOL
    return ok, f"exit {code}, status={fields.get('status')}, max residual {worst:.3e}"


def check_sweep_rows(code: int, rows, points: int):
    """rows: (chi, photon_fraction) per sweep point."""
    if code != 0 or len(rows) != points:
        return False, f"exit {code}, {len(rows)} of {points} rows"
    worst = _worst(abs(f - photon_fraction_m2k2(c)) for c, f in rows)
    return worst <= SWEEP_TOL, f"worst photon-fraction error {worst:.3e}"


def check_q_rel_err(code: int, rows, points: int):
    """rows: (delta_over_gc, q_exact, q_approx, rel_err)."""
    if code != 0 or len(rows) != points:
        return False, f"exit {code}, {len(rows)} of {points} rows"
    worst = _worst(r[3] for r in rows)
    return worst <= QFACTOR_REL_ERR, f"worst rel_err {worst:.4f}"


def check_q_peak(rows, g: float, gamma_c: float, gamma_a: float):
    if not rows:
        return False, "no rows"
    centre = min(rows, key=lambda r: abs(r[0]))
    want = g * g * gamma_c / gamma_a
    rel = abs(centre[1] / want - 1.0)
    return (abs(centre[0]) < 1e-12 and rel <= QPEAK_REL_TOL,
            f"Q({centre[0]:.1e}) = {centre[1]:.6g} vs {want:.6g}, rel {rel:.2e}")


def check_q_symmetric(rows):
    """Rows on a grid symmetric about 0: row i mirrors row n - 1 - i."""
    if len(rows) < 2:
        return False, f"{len(rows)} rows"
    worst = _worst(abs(a[1] - b[1]) / abs(a[1]) for a, b in zip(rows, reversed(rows)))
    return worst <= QSYM_REL_TOL, f"worst |Q(d) - Q(-d)| / Q {worst:.3e}"


def check_same_bytes(first: bytes, again: bytes):
    return first == again and len(first) > 0, f"{len(first)} and {len(again)} bytes"


def _good_and_bad():
    """(name, passing call, failing call) for every check."""
    nan = math.nan
    phys = [(1.0, 0.0), (1.0, 1e-12)]
    cg2 = [cg_weight(2, k) for k in range(3)]
    sweep = [(c, photon_fraction_m2k2(c)) for c in (0.1, 1.0, 10.0)]
    qrows = [(-1.0, 99.0, 100.0, 0.01), (0.0, 100.0, 100.0, 0.0), (1.0, 99.0, 100.0, 0.01)]
    bic_ok = {"eigen_residual": "1e-16", "left_residual": "0", "right_residual": "0",
              "status": "PASS"}
    return [
        ("dim", lambda: check_dim(38760, 12, 6), lambda: check_dim(38761, 12, 6)),
        ("residual", lambda: check_residual(1e-15), lambda: check_residual(1e-9)),
        ("routes", lambda: check_routes_agree([1.0, 1 - 1e-15]),
         lambda: check_routes_agree([1.0, 1 - 1e-9])),
        ("routes-empty", lambda: check_routes_agree([1.0]), lambda: check_routes_agree([])),
        ("routes-nan", lambda: check_routes_agree([1.0]),
         lambda: check_routes_agree([1.0, complex(nan, 0.0)])),
        ("norm", lambda: check_unit_norm(1.0), lambda: check_unit_norm(1 + 1e-9)),
        ("exit-steady", lambda: check_exit_steady(0, ["steady_state_reached=true"]),
         lambda: check_exit_steady(0, ["steady_state_reached=false"])),
        ("exit-code", lambda: check_exit_steady(0, ["steady_state_reached=true"]),
         lambda: check_exit_steady(2, ["steady_state_reached=true"])),
        ("trace", lambda: check_rows_physical(phys),
         lambda: check_rows_physical([(1.0, 0.0), (1.0 + 1e-7, 0.0)])),
        ("min-eig", lambda: check_rows_physical(phys),
         lambda: check_rows_physical([(1.0, 0.0), (1.0, -1e-7)])),
        ("rows-empty", lambda: check_rows_physical(phys), lambda: check_rows_physical([])),
        ("trace-nan", lambda: check_rows_physical(phys),
         lambda: check_rows_physical([(1.0, 0.0), (nan, 0.0)])),
        ("min-eig-nan", lambda: check_rows_physical(phys),
         lambda: check_rows_physical([(1.0, 0.0), (1.0, nan)])),
        ("cg", lambda: check_cg_weights(cg2, 2),
         lambda: check_cg_weights([cg2[0] + 0.02, cg2[1], cg2[2] - 0.02], 2)),
        ("cg-nan", lambda: check_cg_weights(cg2, 2),
         lambda: check_cg_weights([cg2[0], nan, cg2[2]], 2)),
        ("decay-nan", lambda: check_decay_rate(0.01, 0.01), lambda: check_decay_rate(nan, 0.01)),
        ("decay", lambda: check_decay_rate(0.01, 0.01), lambda: check_decay_rate(0.0102, 0.01)),
        ("bic", lambda: check_bic_report(0, bic_ok),
         lambda: check_bic_report(0, {**bic_ok, "left_residual": "1e-9"})),
        ("bic-status", lambda: check_bic_report(0, bic_ok),
         lambda: check_bic_report(0, {**bic_ok, "status": "FAIL"})),
        ("bic-nan", lambda: check_bic_report(0, bic_ok),
         lambda: check_bic_report(0, {**bic_ok, "right_residual": "nan"})),
        ("sweep", lambda: check_sweep_rows(0, sweep, 3),
         lambda: check_sweep_rows(0, [*sweep[:2], (10.0, sweep[2][1] + 1e-6)], 3)),
        ("sweep-count", lambda: check_sweep_rows(0, sweep, 3),
         lambda: check_sweep_rows(0, sweep[:2], 3)),
        ("sweep-nan", lambda: check_sweep_rows(0, sweep, 3),
         lambda: check_sweep_rows(0, [sweep[0], (1.0, nan), sweep[2]], 3)),
        ("q-rel-err", lambda: check_q_rel_err(0, qrows, 3),
         lambda: check_q_rel_err(0, [*qrows[:2], (1.0, 99.0, 100.0, 0.06)], 3)),
        ("q-rel-err-nan", lambda: check_q_rel_err(0, qrows, 3),
         lambda: check_q_rel_err(0, [*qrows[:2], (1.0, 99.0, 100.0, nan)], 3)),
        ("q-peak", lambda: check_q_peak(qrows, 1.0, 1.0, 0.01),
         lambda: check_q_peak(qrows, 1.0, 1.0, 0.0094)),
        ("q-symmetric", lambda: check_q_symmetric(qrows),
         lambda: check_q_symmetric([*qrows[:2], (1.0, 99.0 * (1 + 1e-8), 100.0, 0.01)])),
        ("q-symmetric-nan", lambda: check_q_symmetric(qrows),
         lambda: check_q_symmetric([*qrows[:2], (1.0, nan, 100.0, 0.01)])),
        ("same-bytes", lambda: check_same_bytes(b"a,1\n", b"a,1\n"),
         lambda: check_same_bytes(b"a,1\n", b"a,2\n")),
    ]


def self_test() -> list[str]:
    """Names of checks that reject a right value or accept a wrong one."""
    broken = []
    for name, good, bad in _good_and_bad():
        if not good()[0] or bad()[0]:
            broken.append(name)
    return broken
