"""Acceptance suite: one test per criterion, each printing one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

The regime-threshold check at chi = 0.5 is known to fail: the exact atomic
fraction of the analytic state at M = K = 2, chi = 0.5 is 28/33 = 0.8485,
below the pinned 0.9 threshold (the 0.9 crossing sits at chi = 0.3988).
The check is kept faithful to the pinned threshold rather than loosened.
"""

import math
import time
import warnings

import numpy as np

from cavitybic import (DensityMatrix, ModelParams, assemble_bic_state,
                       closed_form_coefficients, evolve, fit_decay_rate,
                       gamma_approx, null_space_coefficients, q_factor,
                       recursive_coefficients, regime_observables,
                       stack_sectors, steady_state_prediction,
                       trapped_mode_decay, trapped_probabilities,
                       verify_trapping)
from conftest import triple_cavity


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def _grid_params(n_chain: int, m_atoms: int) -> ModelParams:
    if n_chain == 2:
        return triple_cavity(m_atoms=m_atoms, g=0.3, omega_c=0.7)
    return ModelParams(n_chain=4, m_atoms=m_atoms, omega_c=0.7, omega_a=0.7,
                       g=0.3, lam=1.0, q=2)


def quantum_cavity_params(delta=0.0):
    return triple_cavity(m_atoms=2, g=10.0, gamma_c=1.0, gamma_a=0.01, delta=delta)


def test_criterion_1_trapped_state_exactness():
    start = time.perf_counter()
    worst = 0.0
    for n_chain in (2, 4):
        for m_atoms in (1, 2, 3):
            params = _grid_params(n_chain, m_atoms)
            for k in range(m_atoms + 1):
                psi = assemble_bic_state(params, k)
                report = verify_trapping(params, psi, k)
                worst = max(worst, report.max_residual)
    elapsed = time.perf_counter() - start
    _report("trapped-state-exactness",
            worst < 1e-10 and elapsed < 5.0,
            f"max residual {worst:.2e}, elapsed {elapsed:.2f}s")


def test_criterion_2_coefficient_routes_agree():
    worst = 0.0
    for n_chain in (2, 4):
        for m_atoms in (1, 2, 3):
            params = _grid_params(n_chain, m_atoms)
            for k in range(m_atoms + 1):
                routes = (closed_form_coefficients(params, k),
                          recursive_coefficients(params, k),
                          null_space_coefficients(params, k))
                for i in range(3):
                    for j in range(i + 1, 3):
                        mismatch = abs(abs(routes[i].overlap(routes[j])) - 1.0)
                        worst = max(worst, mismatch)
    _report("coefficient-routes-agree", worst < 1e-10,
            f"worst overlap defect {worst:.2e}")


def test_criterion_3_photon_threshold():
    start = time.perf_counter()
    obs = regime_observables(triple_cavity(m_atoms=2, g=5.0), 2)
    fraction = obs.mean_photons / 2
    elapsed = time.perf_counter() - start
    _report("photon-fraction-at-chi-5",
            fraction >= 0.9 and elapsed < 1.0,
            f"photon fraction {fraction:.6f}, elapsed {elapsed:.3f}s")


def test_criterion_3_atomic_threshold():
    # Known failure: the exact atomic fraction at chi = 0.5 is 28/33 = 0.8485.
    start = time.perf_counter()
    obs = regime_observables(triple_cavity(m_atoms=2, g=0.5), 2)
    fraction = obs.mean_excited / 2
    elapsed = time.perf_counter() - start
    _report("atomic-fraction-at-chi-0.5",
            fraction >= 0.9 and elapsed < 1.0,
            f"atomic fraction {fraction:.6f}, elapsed {elapsed:.3f}s")


def test_criterion_4_relaxation_matches_prediction(relaxation_run):
    probs = relaxation_run.probabilities
    p2_spread = probs[:, 2].max() - probs[:, 2].min()
    psi0 = np.zeros(9)
    psi0[2 * 3 + 0] = 1.0
    predicted = dict(steady_state_prediction(relaxation_run.params, psi0))
    targets = {0: 1 / 6, 1: 1 / 2, 2: 1 / 3}
    pred_defect = max(abs(predicted[2 - k] - targets[k]) for k in range(3))
    final = probs[-1]
    # discrepancy measured as absolute probability difference
    mismatch = max(abs(final[k] - targets[k]) for k in range(3))
    ok = (p2_spread < 1e-4 and pred_defect < 1e-10 and mismatch < 0.01
          and relaxation_run.elapsed < 60.0)
    _report("relaxation-to-dark-mixture", ok,
            f"P2 spread {p2_spread:.1e}, steady mismatch {mismatch:.4f}, "
            f"elapsed {relaxation_run.elapsed:.1f}s")


def test_criterion_5_linear_decay_rate_agreement():
    start = time.perf_counter()
    worst = 0.0
    for delta in np.linspace(-3.0, 3.0, 25):
        params = quantum_cavity_params(delta=delta)
        exact = trapped_mode_decay(params)
        with warnings.catch_warnings():  # the regime warning is not under test
            warnings.simplefilter("ignore", RuntimeWarning)
            approx = gamma_approx(params)
        worst = max(worst, abs(exact - approx) / exact)
    p0 = quantum_cavity_params()
    q_exact = q_factor(p0)
    q_formula = (p0.g / p0.lam) ** 2 * p0.gamma_c / p0.gamma_a
    q_defect = abs(q_exact - q_formula) / q_exact
    elapsed = time.perf_counter() - start
    ok = worst < 0.05 and q_defect < 0.05 and elapsed < 1.0
    _report("linear-decay-approximation", ok,
            f"worst rel err {worst:.4f}, Q(0) defect {q_defect:.4f}, "
            f"elapsed {elapsed:.3f}s")


def test_criterion_6_half_maximum_width():
    p0 = quantum_cavity_params()
    q0 = q_factor(p0)
    deltas = np.linspace(0.0, 3.0, 301)
    qs = np.array([q_factor(quantum_cavity_params(delta=d)) for d in deltas])
    below = np.where(qs < q0 / 2)[0]
    assert below.size, "half maximum not reached inside the scanned range"
    i = below[0]
    crossing = deltas[i - 1] + (q0 / 2 - qs[i - 1]) * (deltas[i] - deltas[i - 1]) \
        / (qs[i] - qs[i - 1])
    predicted = p0.m_atoms * p0.g * math.sqrt(p0.gamma_a / p0.gamma_c)
    rel = abs(crossing - predicted) / predicted
    _report("q-factor-half-width", rel < 0.20,
            f"half width {crossing:.3f} vs {predicted:.3f} (rel {rel:.3f})")


def _loss_rate(k: int, delta: float, chi_value: float):
    params = triple_cavity(m_atoms=2, g=chi_value, gamma_c=1.0, delta=delta)
    combinatorial = k * (2 * params.m_atoms - k + 1)
    scale_guess = combinatorial * delta ** 2 * chi_value ** 2
    t_end = min(max(0.08 / scale_guess, 400.0), 6000.0)
    space = stack_sectors(params, k)
    psi = assemble_bic_state(params, k, sector=space.sectors[k])
    rho0 = DensityMatrix.from_pure(space, psi)
    trajectory = evolve(params, rho0, t_end, snapshot_dt=t_end / 100,
                        detect_steady=False)
    rate = fit_decay_rate(
        trajectory, lambda s: trapped_probabilities(s, [psi])[0],
        t_min=0.15 * t_end)
    return rate, trajectory


def test_criterion_7_detuned_loss_scaling():
    start = time.perf_counter()
    deltas = np.logspace(math.log10(0.03), math.log10(0.3), 3)
    delta_rates = [_loss_rate(1, d, 0.1)[0] for d in deltas]
    exp_delta = float(np.polyfit(np.log(deltas), np.log(delta_rates), 1)[0])

    chis = np.logspace(math.log10(0.02), math.log10(0.2), 3)
    chi_rates = [_loss_rate(1, 0.1, c)[0] for c in chis]
    exp_chi = float(np.polyfit(np.log(chis), np.log(chi_rates), 1)[0])

    rate_k1, _ = _loss_rate(1, 0.1, 0.1)
    rate_k2, traj_k2 = _loss_rate(2, 0.1, 0.1)
    ratio = rate_k1 / rate_k2
    expected_ratio = (1 * 4) / (2 * 3)
    ratio_defect = abs(ratio - expected_ratio) / expected_ratio
    elapsed = time.perf_counter() - start

    ok = (abs(exp_delta - 2.0) <= 0.1 and abs(exp_chi - 2.0) <= 0.1
          and ratio_defect <= 0.15)
    _report("detuned-loss-scaling", ok,
            f"delta exponent {exp_delta:.3f}, chi exponent {exp_chi:.3f}, "
            f"K-ratio {ratio:.4f} vs {expected_ratio:.4f} "
            f"(defect {ratio_defect:.3f}), elapsed {elapsed:.1f}s")
    # stash a detuned run for the sanity criterion
    test_criterion_7_detuned_loss_scaling.detuned_trajectory = traj_k2


def test_criterion_8_density_matrix_sanity(relaxation_run):
    runs = [("relaxation", relaxation_run.trajectory.diagnostics)]
    detuned = getattr(test_criterion_7_detuned_loss_scaling, "detuned_trajectory", None)
    if detuned is not None:
        runs.append(("detuned", detuned.diagnostics))
    worst_drift = max(diag.max_trace_drift for _name, diag in runs)
    worst_eig = min(diag.min_eigenvalue for _name, diag in runs)
    offblocks = [diag.max_offblock for _name, diag in runs
                 if diag.max_offblock is not None]
    worst_block = max(offblocks) if offblocks else 0.0
    ok = worst_drift < 1e-8 and worst_eig > -1e-8 and worst_block < 1e-10
    _report("density-matrix-sanity", ok,
            f"trace drift {worst_drift:.1e}, min eigenvalue {worst_eig:.1e}, "
            f"off-block leakage {worst_block:.1e} over {len(runs)} run(s)")
