import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from cavitybic import (BasisState, ModelParams, NoTrappedStateError,
                       StateVector, assemble_bic_state, build_hamiltonian, chi,
                       closed_form_coefficients, enumerate_sector, fock_approx,
                       null_space_coefficients, recursive_coefficients,
                       regime_observables, resonant_mode_index,
                       subradiant_approx, verify_trapping)
from cavitybic.bic import DegenerateNullSpaceError, _condition_matrices, _null_space
from conftest import triple_cavity
from oracles import eigenspace_projection, mode_fock_embedding


def four_chain(m_atoms, g=0.3):
    return ModelParams(n_chain=4, m_atoms=m_atoms, omega_c=0.7, omega_a=0.7,
                       g=g, lam=1.0, q=2)


def test_chi_triple_cavity():
    assert chi(triple_cavity(g=0.1)) == pytest.approx(0.1)
    assert chi(triple_cavity(g=10.0)) == pytest.approx(10.0)


def test_chi_four_chain_resonant_mode():
    # lambda_2^L = sqrt(1/2) sin(pi/2) = 1/sqrt(2), so chi = sqrt(2) at g = lam
    assert chi(four_chain(m_atoms=1, g=1.0)) == pytest.approx(math.sqrt(2))


def test_zero_excitations_is_trivial():
    for build in (closed_form_coefficients, recursive_coefficients,
                  null_space_coefficients):
        coeffs = build(triple_cavity(), 0)
        assert coeffs.table.shape == (1, 1)
        assert coeffs.table[0, 0] == pytest.approx(1.0)


def test_rejects_more_excitations_than_atoms():
    with pytest.raises(NoTrappedStateError, match="no trapped state with K > M"):
        closed_form_coefficients(triple_cavity(m_atoms=1), 2)


def test_single_excitation_pair_amplitudes():
    # known single-photon two-atom trapped state: (c00, c01, c10) with
    # equal atomic amplitudes and photon amplitude -(g/lam) * c00
    p = triple_cavity(m_atoms=1, g=0.4)
    coeffs = closed_form_coefficients(p, 1)
    c00, c01, c10 = coeffs.table[0, 0], coeffs.table[0, 1], coeffs.table[1, 0]
    norm = 1.0 / math.sqrt(2 + 0.4 ** 2)
    assert c00.real == pytest.approx(norm)
    assert c01 == pytest.approx(c00)
    assert c10.real == pytest.approx(-0.4 * norm)


def test_recursion_single_step_ratio():
    p = triple_cavity(m_atoms=2, g=0.3)
    coeffs = recursive_coefficients(p, 1)
    # c10 / c00 = -(g / lambda_qR) sqrt(K (M - K + 1)) = -g sqrt(2)
    ratio = coeffs.table[1, 0] / coeffs.table[0, 0]
    assert ratio.real == pytest.approx(-0.3 * math.sqrt(1 * 2))


def test_two_photon_amplitude_scales_quadratically():
    for chi_value in (0.05, 0.2, 0.8):
        p = triple_cavity(m_atoms=2, g=chi_value)
        coeffs = closed_form_coefficients(p, 2)
        ratio = coeffs.table[2, 0] / coeffs.table[0, 0]
        assert ratio.real == pytest.approx(math.sqrt(2) * chi_value ** 2)


def test_routes_agree_across_grid():
    for n_chain in (2, 4):
        for m_atoms in (1, 2, 3, 4, 19, 20):
            params = (triple_cavity(m_atoms=m_atoms, g=0.3) if n_chain == 2
                      else four_chain(m_atoms))
            for k in range(m_atoms + 1):
                a = closed_form_coefficients(params, k)
                b = recursive_coefficients(params, k)
                c = null_space_coefficients(params, k)
                assert np.abs(a.table - b.table).max() < 1e-12
                assert abs(abs(a.overlap(c)) - 1.0) < 1e-10
                assert abs(abs(b.overlap(c)) - 1.0) < 1e-10


def test_null_space_degenerate_at_zero_coupling():
    with pytest.raises(DegenerateNullSpaceError):
        null_space_coefficients(triple_cavity(g=0.0), 1)


@pytest.mark.parametrize("n_chain", [2, 4])
@pytest.mark.parametrize("g", [0.3, -0.7, 2.0, 0.0])
def test_null_space_matches_scipy(n_chain, g):
    # scipy.linalg.null_space (full SVD, same rank rule) as the oracle; K = 1
    # is the one wide (2 x 3) stacked matrix, where the thin SVD would drop
    # the kernel
    for m_atoms in (1, 2, 3, 5, 30):
        params = (triple_cavity(m_atoms=m_atoms, g=g) if n_chain == 2
                  else four_chain(m_atoms, g=g))
        for k in sorted({1, min(2, m_atoms), max(1, m_atoms // 2), m_atoms}):
            a = np.vstack(_condition_matrices(params, k))
            ours, oracle = _null_space(a), null_space(a)
            assert ours.shape == oracle.shape == (a.shape[1], 1 if g else k + 1)
            if g:
                assert abs(abs(np.vdot(ours[:, 0], oracle[:, 0])) - 1.0) <= 1e-14
            else:
                with pytest.raises(DegenerateNullSpaceError):
                    null_space_coefficients(params, k)


def test_assembled_state_is_unit_norm_with_vacuum_ends():
    for params, k in ((triple_cavity(m_atoms=2, g=0.3), 2), (four_chain(3), 3)):
        psi = assemble_bic_state(params, k)
        assert psi.norm() == pytest.approx(1.0, abs=1e-12)
        for i, s in enumerate(psi.sector.states):
            if s.photons_left > 0 or s.photons_right > 0:
                assert psi.amplitudes[i] == 0.0


def test_assembly_is_relabeling_for_triple_cavity():
    p = triple_cavity(m_atoms=2, g=0.25)
    k = 2
    coeffs = closed_form_coefficients(p, k)
    psi = assemble_bic_state(p, k, coefficients=coeffs)
    for m in range(k + 1):
        for n in range(k + 1 - m):
            state_idx = psi.sector.index_of(
                BasisState(0, (m,), 0, n, k - m - n))
            assert psi.amplitudes[state_idx] == pytest.approx(coeffs.table[m, n])


def test_assembly_matches_the_created_mode_fock_state():
    for n_chain in (3, 4, 5, 6):
        for q in range(1, n_chain):
            p = ModelParams(n_chain=n_chain, m_atoms=3, omega_c=0.4,
                            omega_a=0.4 + 2 * math.cos(q * math.pi / n_chain),
                            g=0.3, lam=1.0, q=q)
            for k in range(4):
                coeffs = closed_form_coefficients(p, k)
                psi = assemble_bic_state(p, k, coefficients=coeffs)
                expected = mode_fock_embedding(p, k, coeffs.table)
                assert np.abs(psi.amplitudes - expected).max() < 1e-12


def test_assembly_rejects_a_sector_that_is_not_the_full_sector_k():
    p = triple_cavity(m_atoms=2, g=0.3)
    with pytest.raises(ValueError):
        assemble_bic_state(p, 2, sector=enumerate_sector(p, 1))
    with pytest.raises(ValueError):  # caps the two-photon Fock state away
        assemble_bic_state(p, 2, sector=enumerate_sector(p.replace(fock_cutoff=1), 2))
    with pytest.raises(ValueError):
        assemble_bic_state(p.replace(fock_cutoff=1), 2)


def test_trapping_residuals_vanish_on_grid():
    for n_chain in (2, 4):
        for m_atoms in range(1, 4):
            params = (triple_cavity(m_atoms=m_atoms, g=0.3) if n_chain == 2
                      else four_chain(m_atoms))
            for k in range(m_atoms + 1):
                psi = assemble_bic_state(params, k)
                report = verify_trapping(params, psi, k)
                assert report.max_residual < 1e-10


def test_random_vector_has_large_residuals():
    p = triple_cavity(m_atoms=2, g=0.3)
    sector = enumerate_sector(p, 2)
    rng = np.random.default_rng(11)
    v = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
    psi = StateVector(sector, v / np.linalg.norm(v))
    report = verify_trapping(p, psi, 2)
    assert report.max_residual > 0.05  # order of the hopping rate


def test_detuning_grows_eigen_residual_linearly():
    base = triple_cavity(m_atoms=2, g=0.2)
    psi = assemble_bic_state(base, 2)
    residuals = []
    for delta in (0.01, 0.02):
        detuned = base.replace(omega_c=0.0, omega_a=-delta)
        report = verify_trapping(detuned, psi, 2)
        assert report.max_condition_residual < 1e-12
        residuals.append(report.eigen_residual)
    assert residuals[1] / residuals[0] == pytest.approx(2.0, rel=1e-6)


def test_full_diagonalization_contains_the_trapped_state():
    for n_chain in (2, 4):
        for m_atoms in range(1, 4):
            params = (triple_cavity(m_atoms=m_atoms, g=0.3) if n_chain == 2
                      else four_chain(m_atoms))
            for k in range(m_atoms + 1):
                sector = enumerate_sector(params, k)
                psi = assemble_bic_state(params, k, sector=sector)
                h = build_hamiltonian(params, sector).toarray()
                energy = (k - m_atoms) * params.omega_a
                weight = eigenspace_projection(h, energy, psi.amplitudes)
                assert weight == pytest.approx(1.0, abs=1e-8)


def test_regime_observables_exact_values():
    p = triple_cavity(m_atoms=2)
    # closed form gives photon fraction (2u + 2u^2) / (3 + 4u + 2u^2), u = chi^2
    for chi_value in (0.5, 5.0):
        obs = regime_observables(p.replace(g=chi_value), 2)
        u = chi_value ** 2
        expected = (2 * u + 2 * u * u) / (3 + 4 * u + 2 * u * u)
        assert obs.mean_photons / 2 == pytest.approx(expected, abs=1e-12)
        assert obs.mean_photons + obs.mean_excited == pytest.approx(2.0)


def test_fock_limit_of_regime_observables():
    obs = regime_observables(triple_cavity(m_atoms=2, g=300.0), 2)
    assert obs.mean_photons == pytest.approx(2.0, abs=1e-3)
    assert obs.mean_excited == pytest.approx(0.0, abs=1e-3)


def test_subradiant_approx_overlap_and_signs():
    p = triple_cavity(m_atoms=2, g=0.05)
    approx = subradiant_approx(p, 2)
    assert approx.overlap > 0.99
    # odd resonant mode: equal amplitudes 1/sqrt(M+1) on the atomic states
    sector = approx.state.sector
    for i, s in enumerate(sector.states):
        amp = approx.state.amplitudes[i]
        if sum(s.photons_mid) == 0 and s.photons_left == 0 and s.photons_right == 0:
            assert amp == pytest.approx(1 / math.sqrt(3))
        else:
            assert amp == 0.0


def test_subradiant_signs_alternate_for_even_mode():
    approx = subradiant_approx(four_chain(2, g=0.05), 2)
    sector = approx.state.sector
    for i, s in enumerate(sector.states):
        if s.photons_left == 0 and s.photons_right == 0 and sum(s.photons_mid) == 0:
            expected = (-1) ** s.excited_left / math.sqrt(3)
            assert approx.state.amplitudes[i] == pytest.approx(expected)


def test_fock_approx_overlap():
    p = triple_cavity(m_atoms=2, g=20.0)
    approx = fock_approx(p, 2)
    assert approx.overlap > 0.99
    sector = approx.state.sector
    fock_idx = [i for i, s in enumerate(sector.states) if s.photons_mid == (2,)
                and s.excited_left == 0 and s.excited_right == 0
                and s.photons_left == 0 and s.photons_right == 0]
    assert approx.state.amplitudes[fock_idx[0]] == pytest.approx(1.0)


def test_subradiance_bound():
    # photon fraction below 0.1 whenever chi (M + 1) / 2 < 0.1, K = M
    for m_atoms in range(1, 5):
        chi_value = 0.9 * 0.2 / (m_atoms + 1)
        obs = regime_observables(triple_cavity(m_atoms=m_atoms, g=chi_value), m_atoms)
        assert obs.mean_photons / m_atoms < 0.1


@settings(deadline=None, max_examples=60)
@given(m_atoms=st.integers(1, 5), k_off=st.integers(0, 5),
       chi_value=st.floats(0.05, 3.0))
def test_amplitude_ratio_bound(m_atoms, k_off, chi_value):
    k = max(0, m_atoms - k_off)
    p = triple_cavity(m_atoms=m_atoms, g=chi_value)
    table = closed_form_coefficients(p, k).table
    for m in range(k):
        for n in range(k - m):
            c_mn = abs(table[m, n])
            if c_mn == 0:
                continue
            r = k - m - n
            bound = chi_value * math.sqrt((1 + m_atoms - r) * r)
            assert abs(table[m + 1, n]) <= c_mn * bound * (1 + 1e-9)


def test_trapping_at_off_center_resonant_modes():
    # atoms tuned to a non-central chain mode still trap exactly
    for n_chain, q in ((5, 1), (6, 2), (4, 3)):
        omega_c = 0.4
        omega_a = omega_c + 2 * math.cos(q * math.pi / n_chain)
        p = ModelParams(n_chain=n_chain, m_atoms=2, omega_c=omega_c,
                        omega_a=omega_a, g=0.3, lam=1.0, q=q)
        assert resonant_mode_index(p, tol=1e-9) == q
        for k in (1, 2):
            psi = assemble_bic_state(p, k)
            assert verify_trapping(p, psi, k).max_residual < 1e-10
            overlap = closed_form_coefficients(p, k).overlap(
                null_space_coefficients(p, k))
            assert abs(abs(overlap) - 1.0) < 1e-12


def test_routes_agree_at_m25_on_the_log_factorial_path():
    p = triple_cavity(m_atoms=25, g=0.2)
    coeffs = closed_form_coefficients(p, 3)
    assert coeffs.norm() == pytest.approx(1.0)
    other = recursive_coefficients(p, 3)
    assert np.abs(coeffs.table - other.table).max() < 1e-10
    psi = assemble_bic_state(p, 3, coefficients=coeffs)
    report = verify_trapping(p, psi, 3)
    assert report.max_residual < 1e-10
