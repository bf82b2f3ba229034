import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eig
from scipy.optimize import linear_sum_assignment

from cavitybic import (DensityMatrix, StateVector, closed_form_decay, decay_rates, evolve,
                       fit_decay_rate, gamma_approx, lindblad_generator, linear_matrix,
                       polariton_transform, q_factor, stack_sectors, trapped_mode_decay)
from conftest import triple_cavity


def quantum_cavity_params(delta=0.0, g=10.0, gamma_c=1.0, gamma_a=0.01, m_atoms=2):
    return triple_cavity(m_atoms=m_atoms, g=g, gamma_c=gamma_c,
                         gamma_a=gamma_a, delta=delta)


def test_decay_rates_do_not_depend_on_omega_c():
    # the matrices are solved at omega_c = 0 with the detuning as given, not
    # through omega_a = omega_c - delta: the same bits at any omega_c
    delta = np.linspace(-3.0, 3.0, 61)
    runs = [decay_rates(quantum_cavity_params().replace(omega_c=omega_c, omega_a=omega_c), delta)
            for omega_c in (0.0, 0.7, 1e8, -3e5)]
    for gamma, degenerate in runs[1:]:
        assert np.array_equal(gamma, runs[0][0])
        assert np.array_equal(degenerate, runs[0][1])


def test_matrix_layout():
    p = quantum_cavity_params(delta=0.3)
    a = linear_matrix(p).matrix
    gm = 10.0 * math.sqrt(2)
    assert a[0, 0] == pytest.approx(-0.5j)
    assert a[2, 2] == pytest.approx(0.0)
    assert a[3, 3] == pytest.approx(-0.3 - 0.01j)
    assert a[0, 2] == a[2, 0] == pytest.approx(1.0)
    assert a[0, 3] == a[3, 0] == pytest.approx(gm)
    assert a[1, 3] == a[3, 1] == 0.0


def test_lossless_matrix_is_hermitian_with_symmetric_spectrum():
    p = quantum_cavity_params(gamma_c=0.0, gamma_a=0.0)
    system = linear_matrix(p)
    assert np.abs(system.matrix - system.matrix.conj().T).max() == 0.0
    evals = np.sort_complex(system.eigenvalues)
    assert np.abs(evals.imag).max() < 1e-10
    # bipartite coupling at zero detuning: spectrum symmetric about omega_c
    assert np.abs(np.sort(evals.real) + np.sort(evals.real)[::-1]).max() < 1e-10


def test_decoupled_eigenvalues():
    p = quantum_cavity_params(g=0.0, gamma_c=0.0, gamma_a=0.0, delta=0.25)
    evals = linear_matrix(p).eigenvalues
    expected = sorted([0.0, math.sqrt(2), -math.sqrt(2), -0.25, -0.25])
    assert np.allclose(sorted(evals.real), expected, atol=1e-12)


def test_spectrum_matches_scipy_eig_bit_for_bit():
    # scipy.linalg.eig as the oracle, sorted as linear_matrix does
    for delta in np.linspace(-3, 3, 61):
        for g, gamma_a in ((10.0, 0.01), (0.5, 0.0), (0.0, 0.01)):
            system = linear_matrix(quantum_cavity_params(delta=delta, g=g, gamma_a=gamma_a))
            evals = eig(system.matrix)[0]
            assert np.array_equal(system.eigenvalues,
                                  evals[np.lexsort((evals.real, -evals.imag))])


@pytest.mark.parametrize("m_atoms", [1, 2, 3, 5])
def test_linear_model_is_the_one_excitation_sector(m_atoms):
    # the amplitude matrix in the frame rotating at omega_c is the
    # master equation's H_eff on sector 1 (a_L, b_1, a_R and one excited
    # atom on either side) in another basis order: the same eigenvalues,
    # matched by nearest pair since near-ties sort apart
    grid = itertools.product((0.1, 0.7, 3.0, 10.0), (0.0, 0.3, -1.1), (0.0, 0.01, 0.2),
                             (0.0, 0.4))
    for g, delta, gamma_a, omega_c in grid:
        p = triple_cavity(m_atoms=m_atoms, g=g, gamma_c=1.0, gamma_a=gamma_a, delta=delta,
                          omega_c=omega_c)
        linear = linear_matrix(p.replace(omega_c=0.0, omega_a=-p.delta)).eigenvalues
        gen = lindblad_generator(p, stack_sectors(p, 1), include_atomic_decay=True)
        sector = np.linalg.eigvals(gen._h_eff_blocks[1])
        rows, cols = linear_sum_assignment(np.abs(linear[:, None] - sector[None, :]))
        assert np.abs(linear[rows] - sector[cols]).max() < 1e-12


def test_passivity_across_grid():
    for delta in np.linspace(-3, 3, 7):
        for g in (0.5, 2.0, 10.0):
            p = quantum_cavity_params(delta=delta, g=g)
            evals = linear_matrix(p).eigenvalues
            assert evals.imag.max() < 1e-10


def test_trapped_mode_decay_trivial_cases():
    # undamped interior modes when nothing couples them to the lossy ends
    p = quantum_cavity_params(g=0.0, gamma_a=0.0).replace(lam=0.0)
    with pytest.warns(RuntimeWarning, match="degenerate"):
        assert trapped_mode_decay(p) == pytest.approx(0.0, abs=1e-14)
    # the dark mode survives with no atomic damping at resonance
    p = quantum_cavity_params(gamma_a=0.0)
    assert trapped_mode_decay(p) == pytest.approx(0.0, abs=1e-12)


def test_trapped_mode_decay_matches_approximation():
    p = quantum_cavity_params()
    gamma = trapped_mode_decay(p)
    assert gamma == pytest.approx(1e-4, rel=0.05)
    assert gamma_approx(p) == pytest.approx(gamma, rel=0.05)
    p_detuned = quantum_cavity_params(delta=1.0)
    assert gamma_approx(p_detuned) == pytest.approx(trapped_mode_decay(p_detuned),
                                                    rel=0.05)


def test_gamma_approx_limits():
    p = quantum_cavity_params()
    assert gamma_approx(p) == pytest.approx(0.01 / 100.0)
    p = quantum_cavity_params(gamma_a=0.0, delta=0.5)
    expected = 0.25 * 1.0 / (4 * 1e4 + 0.25 / 4)
    assert gamma_approx(p) == pytest.approx(expected)


def test_gamma_approx_warns_outside_regime():
    with pytest.warns(RuntimeWarning, match="not large"):
        gamma_approx(quantum_cavity_params(g=2.0))


@pytest.mark.parametrize("g", [10.0, -10.0])
def test_gamma_approx_judges_its_regime_by_the_size_of_g(g):
    # the closed form depends on g^2 only, and so does its regime
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        gamma_approx(quantum_cavity_params(g=g))
    with pytest.warns(RuntimeWarning, match="not large"):
        gamma_approx(quantum_cavity_params(g=g / 10.0))


def test_closed_form_decay_is_the_float_formula_bit_for_bit():
    # the closed form on a detuning array rounds as it does on one Python
    # float per point, squares included: a float's ** 2 is libm's pow, which
    # differs from d * d for about 0.08% of random detunings
    deltas = np.random.default_rng(5).uniform(-3.0, 3.0, 5000)
    for g, gamma_c, gamma_a in ((10.7, 1.0, 0.013), (-11.3, 0.1176, 0.017), (0.0397, 1.0, 0.0)):
        p = quantum_cavity_params(g=g, gamma_c=gamma_c, gamma_a=gamma_a, m_atoms=3)
        m, g2 = p.m_atoms, p.g ** 2
        expected = [(m * m * p.gamma_a * g2 + d ** 2 * p.gamma_c)
                    / (m * m * g2 * g2 + d ** 2 * p.gamma_c ** 2 / 4.0) * p.lam ** 2
                    for d in deltas.tolist()]
        assert closed_form_decay(p, deltas).tolist() == expected


def test_q_factor_peak_value():
    p = quantum_cavity_params()
    # closed-form identity: gamma_c / rate = chi^2 gamma_c / gamma_a at resonance
    chi_sq = (p.g / p.lam) ** 2
    assert p.gamma_c / gamma_approx(p) == pytest.approx(
        chi_sq * p.gamma_c / p.gamma_a, rel=1e-12)
    assert q_factor(p) == pytest.approx(1e4, rel=0.05)
    assert q_factor(quantum_cavity_params(gamma_a=0.0)) == math.inf


def test_q_factor_symmetric_in_detuning():
    for delta in (0.5, 1.0, 2.5):
        q_plus = q_factor(quantum_cavity_params(delta=delta))
        q_minus = q_factor(quantum_cavity_params(delta=-delta))
        assert q_plus == pytest.approx(q_minus, rel=1e-8)


def test_polariton_modes_orthonormal():
    modes = polariton_transform(quantum_cavity_params())
    basis = np.array([modes.f_plus, modes.f_minus, modes.f_zero])
    assert np.abs(basis @ basis.T - np.eye(3)).max() < 1e-12


def test_polariton_couplings_and_decoupling():
    p = quantum_cavity_params(gamma_c=0.0, gamma_a=0.0)
    modes = polariton_transform(p)
    gm = p.g * math.sqrt(p.m_atoms)
    assert modes.xi_plus == pytest.approx(math.sqrt(gm ** 2 + 2) / math.sqrt(2))
    assert modes.xi_minus == pytest.approx(gm / math.sqrt(2))

    a = linear_matrix(p).matrix
    # unitary from (a_L, a_R, b_1, d_L, d_R) to (a_L, a_R, F_+, F_-, F_0);
    # polariton vectors are over (d_L, d_R, b_1)
    u = np.zeros((5, 5), dtype=complex)
    u[0, 0] = u[1, 1] = 1.0
    for row, vec in ((2, modes.f_plus), (3, modes.f_minus), (4, modes.f_zero)):
        u[row, 3] = vec[0]
        u[row, 4] = vec[1]
        u[row, 2] = vec[2]
    transformed = u @ a @ u.conj().T
    assert abs(transformed[4, 0]) < 1e-12 and abs(transformed[4, 1]) < 1e-12
    assert transformed[0, 2] == pytest.approx(modes.xi_plus)
    assert transformed[0, 3] == pytest.approx(modes.xi_minus)
    assert transformed[1, 3] == pytest.approx(-modes.xi_minus)


def test_dark_mode_becomes_photonic_at_large_coupling():
    modes = polariton_transform(quantum_cavity_params(g=20.0, m_atoms=1))
    assert modes.f_zero[2] ** 2 > 0.99


def test_population_decay_matches_linear_rate():
    # single-photon seed in the middle cavity: populations decay at twice the
    # amplitude rate of the trapped mode
    p = triple_cavity(m_atoms=2, g=2.0, gamma_c=0.5, gamma_a=0.02)
    gamma = trapped_mode_decay(p)
    space = stack_sectors(p, 1)
    sector = space.sectors[1]
    vec = np.zeros(sector.dim, dtype=complex)
    vec[[i for i, s in enumerate(sector.states) if sum(s.photons_mid) == 1][0]] = 1.0
    rho0 = DensityMatrix.from_vector(space, space.embed(StateVector(sector, vec)))
    traj = evolve(p, rho0, 400.0, snapshot_dt=2.0, include_atomic_decay=True,
                  detect_steady=False)

    def excited_population(state):
        return float(np.real(np.trace(state.block(1))))

    rate = fit_decay_rate(traj, excited_population, t_min=60.0)
    assert rate == pytest.approx(2 * gamma, rel=0.10)
