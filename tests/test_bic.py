import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space

from cavitybic import (BasisState, ModelParams, NoTrappedStateError,
                       StateVector, assemble_bic_state, chi,
                       closed_form_coefficients, coupling_lambda,
                       enumerate_sector, fock_approx,
                       mean_photons_across_chi, null_space_coefficients,
                       recursive_coefficients, regime_observables,
                       resonant_mode_index, subradiant_approx, verify_trapping)
from cavitybic.bic import (DegenerateNullSpaceError, _condition_matrix, _null_space,
                           _trapping_reports)
from conftest import triple_cavity
from oracles import (collective_lowering, condition_matrices, eigenspace_projection,
                     hamiltonian, hamiltonian_normal_mode_picture, mode_fock_embedding,
                     normal_mode)


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
    # scipy.linalg.null_space (full SVD of the unscaled matrix) as the
    # oracle; K = 1 is the one wide (2 x 3) stacked matrix
    for m_atoms in (1, 2, 3, 5, 30):
        params = (triple_cavity(m_atoms=m_atoms, g=g) if n_chain == 2
                  else four_chain(m_atoms, g=g))
        for k in sorted({1, min(2, m_atoms), max(1, m_atoms // 2), m_atoms}):
            a = _condition_matrix(params, k)
            ours, oracle = _null_space(a), null_space(a)
            assert ours.shape == oracle.shape == (a.shape[1], 1 if g else k + 1)
            if g:
                assert abs(abs(np.vdot(ours[:, 0], oracle[:, 0])) - 1.0) <= 1e-14
            else:
                with pytest.raises(DegenerateNullSpaceError):
                    null_space_coefficients(params, k)


def _assert_kernel_as_scipy(params, k, overlap_tol=1e-14):
    """The column-scaled kernel against scipy.linalg.null_space (full SVD of
    the unscaled stacked matrix): the same dimension, the same vector to within
    ``overlap_tol`` where it is one-dimensional, and a refusal where it is
    not.  ``overlap_tol=None`` takes the perturbation bound instead: each
    kernel vector is off the exact one by an angle of at most tol / gap
    (Wedin), tol the rank threshold and gap the smallest singular value
    above it, so 1 - |overlap| <= 2 (tol / gap)^2."""
    a = _condition_matrix(params, k)
    ours, oracle = _null_space(a), null_space(a)
    assert ours.shape == oracle.shape
    if oracle.shape[1] == 1:
        if overlap_tol is None:
            s = np.linalg.svd(a, compute_uv=False)
            tol = max(a.shape) * np.finfo(float).eps * s[0]
            overlap_tol = 2.0 * (tol / s[s > tol][-1]) ** 2
        assert abs(abs(np.vdot(ours[:, 0], oracle[:, 0])) - 1.0) <= overlap_tol
    else:
        with pytest.raises(DegenerateNullSpaceError):
            null_space_coefficients(params, k)


@pytest.mark.parametrize("n_chain", [2, 4])
@pytest.mark.parametrize("g", [1e-12, 1e-6])
def test_qr_first_kernel_keeps_scipys_rank_at_near_degenerate_coupling(n_chain, g):
    # the smallest nonzero singular values of the unscaled matrix scale with
    # g.  At g = 1e-12 its gap above the rank threshold falls to 14 times
    # it, where no SVD of it fixes the kernel vector to 1e-14: scipy's is up
    # to 1.2e-9 off the closed-form table there.  At (M, K) = (30, 30) the
    # gap falls below the threshold and scipy's kernel is 2-dimensional,
    # while the scaled one still holds the unique trapped state
    for m_atoms in (1, 2, 3, 5, 30):
        params = (triple_cavity(m_atoms=m_atoms, g=g) if n_chain == 2
                  else four_chain(m_atoms, g=g))
        for k in sorted({1, min(2, m_atoms), max(1, m_atoms // 2), m_atoms}):
            if g == 1e-12 and m_atoms == k == 30:
                assert null_space(_condition_matrix(params, k)).shape[1] == 2
                exact = closed_form_coefficients(params, k)
                assert 1.0 - abs(null_space_coefficients(params, k).overlap(exact)) <= 1e-14
            else:
                _assert_kernel_as_scipy(params, k, None if g < 1e-9 else 1e-14)


def test_qr_first_kernel_keeps_scipys_rank_on_the_wide_and_the_largest_matrices():
    # K = 1 is wide (2 x 3); K = 30 at M = 30 is 930 x 496
    params = triple_cavity(m_atoms=30, g=0.3)
    assert _condition_matrix(params, 1).shape == (2, 3)
    for k in range(1, 31):
        _assert_kernel_as_scipy(params, k)


@pytest.mark.parametrize("n_chain", [2, 4])
def test_routes_agree_from_tiny_to_large_coupling(n_chain):
    # the closed form is finite on this whole grid; the null space scales its
    # columns, so its gap does not close as g falls
    for g in np.logspace(-100, 3, 24):
        for m_atoms in (1, 2, 3, 5, 30):
            params = (triple_cavity(m_atoms=m_atoms, g=g) if n_chain == 2
                      else four_chain(m_atoms, g=g))
            for k in sorted({1, max(1, m_atoms // 2), m_atoms}):
                a = closed_form_coefficients(params, k)
                b = recursive_coefficients(params, k)
                c = null_space_coefficients(params, k)
                for x, y in ((a, b), (a, c), (b, c)):
                    assert abs(1.0 - abs(x.overlap(y))) <= 1e-14, (g, m_atoms, k)


@pytest.mark.parametrize("g", [1e6, 1e100])
def test_routes_agree_where_chi_to_the_k_overflows(g):
    # at (N, M, K) = (2, 30, 30) chi^30 times the chi-free factor overflows a
    # float, so the closed form failed here before its table was built from
    # logs shifted by their largest, and the recursion, which multiplied chi
    # into each step, before it summed the logs of its step ratios
    params = triple_cavity(m_atoms=30, g=g)
    routes = [build(params, 30) for build in (closed_form_coefficients, recursive_coefficients,
                                              null_space_coefficients)]
    for i, x in enumerate(routes):
        for y in routes[i + 1:]:
            assert abs(1.0 - abs(x.overlap(y))) <= 1e-14


def test_closed_form_at_an_infinite_chi_is_an_overflow():
    # g / lambda_qL overflows a float on the four-cavity chain
    with pytest.raises(OverflowError, match="the K=2 amplitude table overflows a float at chi=inf"):
        closed_form_coefficients(four_chain(2, g=1.7e308), 2)


def test_recursion_at_an_infinite_chi_is_the_same_overflow():
    # its steps are inf - inf after the shift; no warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError,
                           match="the K=2 amplitude table overflows a float at chi=inf"):
            recursive_coefficients(four_chain(2, g=1.7e308), 2)


@pytest.mark.parametrize("m_atoms, k", [(2, 2), (5, 1), (30, 30)])
def test_null_space_near_the_float_maximum_is_the_closed_form(m_atoms, k):
    # g * sqrt(n (M - n + 1)) and the column scale overflowed here, which
    # left a 2-dimensional kernel at (2, 2) and (30, 30) and a Gram matrix
    # whose eigenvalues did not converge at (5, 1)
    params = triple_cavity(m_atoms=m_atoms, g=1e308)
    c = null_space_coefficients(params, k)
    assert np.isfinite(c.table).all()
    assert c.norm() == pytest.approx(1.0, abs=1e-14)
    assert abs(1.0 - abs(c.overlap(closed_form_coefficients(params, k)))) <= 1e-14


def _condition_cases(couplings):
    for n_chain in (2, 3, 4):
        for q in range(1, n_chain):
            for m_atoms in (1, 2, 3, 5, 8, 13, 30):
                for k in sorted({0, 1, m_atoms // 2, m_atoms}):
                    for g in couplings:
                        yield ModelParams(n_chain=n_chain, m_atoms=m_atoms, omega_c=0.7,
                                          omega_a=0.7, g=g, lam=1.0, q=q), k


def test_condition_matrix_is_the_per_cell_builder():
    # bit for bit below 2^1000, where the couplings are not scaled; K = 0
    # gives the 0 x 1 matrix whose kernel is the one-cell table
    below = [0.0, 1e-12, 0.01, 0.3, 1.7, 50.0, -0.7, 1e6, math.nextafter(2.0 ** 1000, 0)]
    for params, k in _condition_cases(below):
        a = _condition_matrix(params, k)
        assert a.shape == (k * (k + 1), (k + 1) * (k + 2) // 2)
        assert np.array_equal(a, np.vstack(condition_matrices(params, k)))


def test_condition_matrix_above_2_to_the_1000_has_the_per_cell_kernel():
    for params, k in _condition_cases([2.0 ** 1000, 1e303, -1e306]):
        a = _condition_matrix(params, k)
        assert np.abs(a).max(initial=0.0) < 2.0 ** 1000 * (params.m_atoms + 1)
        assert np.array_equal(_null_space(a), _null_space(np.vstack(condition_matrices(params, k))))


@pytest.mark.parametrize("m_atoms", [2, 3])
def test_null_space_at_the_largest_coupling_is_a_finite_unit_table(m_atoms):
    # the kernel's anchor cell c[0, 0] is subnormal here, and the phase fix
    # abs(c) / c overflowed to a NaN table
    c = null_space_coefficients(four_chain(m_atoms, g=1e308), 1)
    assert np.isfinite(c.table).all()
    assert c.norm() == pytest.approx(1.0, abs=1e-14)
    assert c.table[0, 0].real > 0 and c.table[0, 0].imag == 0


@pytest.mark.parametrize("g", [1e-300, 1e-315, 5e-324])
def test_null_space_at_the_smallest_couplings_is_never_nan_or_zero(g):
    # down to g = 1e-315 the route returns the trapped state or refuses.
    # Below it the ensemble entries of the conditions are subnormal floats,
    # rounded to 5e-324 steps, so at the smallest float the table is only
    # required to be finite and of unit norm
    for n_chain in (2, 4):
        for m_atoms in (1, 2, 3, 5, 30):
            params = (triple_cavity(m_atoms=m_atoms, g=g) if n_chain == 2
                      else four_chain(m_atoms, g=g))
            for k in sorted({1, max(1, m_atoms // 2), m_atoms}):
                try:
                    c = null_space_coefficients(params, k)
                except DegenerateNullSpaceError:
                    continue
                assert np.isfinite(c.table).all()
                assert c.norm() == pytest.approx(1.0, abs=1e-14)
                if g >= 1e-315:
                    exact = closed_form_coefficients(params, k)
                    assert abs(1.0 - abs(c.overlap(exact))) <= 1e-14


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


@pytest.mark.parametrize("n_chain, m_atoms", [(8, 4), (12, 3)])
def test_assembly_matches_the_created_mode_fock_state_on_long_chains(n_chain, m_atoms):
    # w_i is raised to powers up to K = M
    for q in (1, n_chain // 2):
        p = ModelParams(n_chain=n_chain, m_atoms=m_atoms, omega_c=0.4,
                        omega_a=0.4 + 2 * math.cos(q * math.pi / n_chain),
                        g=0.3, lam=1.0, q=q)
        coeffs = closed_form_coefficients(p, m_atoms)
        psi = assemble_bic_state(p, m_atoms, coefficients=coeffs)
        expected = mode_fock_embedding(p, m_atoms, coeffs.table)
        assert np.abs(psi.amplitudes - expected).max() < 1e-12


def test_assembly_rejects_a_sector_that_is_not_the_full_sector_k():
    p = triple_cavity(m_atoms=2, g=0.3)
    with pytest.raises(ValueError):
        assemble_bic_state(p, 2, sector=enumerate_sector(p, 1))
    with pytest.raises(ValueError):  # sector K = 2 of a longer chain
        assemble_bic_state(p, 2, sector=enumerate_sector(p.replace(n_chain=4, q=2), 2))
    with pytest.raises(ValueError):  # sector K = 0 of a longer chain: the same dim
        assemble_bic_state(p, 0, sector=enumerate_sector(p.replace(n_chain=4, q=2), 0))


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


@pytest.mark.parametrize("n_chain, m_atoms, k, g, omega_c, omega_a", [
    (2, 2, 0, 0.3, 0.0, 0.0),    # K = 0: every residual is 0, the conditions map to no state
    (2, 3, 3, 0.3, 0.5, -0.2),   # K = M, detuned
    (4, 2, 2, 0.0, 0.7, 0.7),    # g = 0
    (4, 2, 3, 1.3, 0.2, 0.9),    # K > M: the atomic caps cut the sector
    (5, 2, 2, -0.7, 0.4, 1.1),   # odd chain, detuned
])
def test_matrix_free_residuals_match_dense_operators(n_chain, m_atoms, k, g, omega_c, omega_a):
    # references: H in the normal-mode picture, the conditions from the dense ladders
    q = n_chain // 2
    p = ModelParams(n_chain=n_chain, m_atoms=m_atoms, omega_c=omega_c, omega_a=omega_a,
                    g=g, lam=1.0, q=q)
    sector, below = enumerate_sector(p, k), enumerate_sector(p, k - 1)
    shifted = (hamiltonian_normal_mode_picture(p, sector, below)
               - (k - m_atoms) * omega_a * np.eye(sector.dim))
    bq = normal_mode(p, sector, below, q)
    conditions = [g * collective_lowering(p, sector, below, side)
                  + coupling_lambda(p, q, side) * bq for side in ("L", "R")]
    rng = np.random.default_rng(5)
    for _ in range(3):
        v = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
        expected = [np.linalg.norm(op @ v) for op in (shifted, *conditions)]
        assert verify_trapping(p, StateVector(sector, v)) == pytest.approx(
            expected, rel=1e-12, abs=0)


def test_reports_of_several_vectors_match_one_verification_each():
    p = four_chain(m_atoms=3)
    sector = enumerate_sector(p, 3)
    rng = np.random.default_rng(3)
    vectors = [assemble_bic_state(p, 3, sector=sector).amplitudes,
               rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)]
    assert _trapping_reports(p, sector, vectors, 3) == [
        verify_trapping(p, StateVector(sector, v), 3) for v in vectors]


def test_trapping_check_rejects_a_state_off_the_full_sector_k():
    p = triple_cavity(m_atoms=2, g=0.3)
    psi = assemble_bic_state(p, 2)
    with pytest.raises(ValueError, match="is not the complete sector K=1 "):
        verify_trapping(p, psi, 1)
    with pytest.raises(ValueError, match="is not the complete sector K=2 of 28 states"):
        verify_trapping(p.replace(n_chain=4, q=2), psi)
    with pytest.raises(ValueError, match="is not the complete sector K=0 of 1 states"):
        verify_trapping(p.replace(n_chain=4, q=2), assemble_bic_state(p, 0))  # same dim
    capped = enumerate_sector(p.replace(m_atoms=1), 2)  # 13 of the 15 states
    with pytest.raises(ValueError, match="is not the complete sector K=2 of 15 states"):
        verify_trapping(p, StateVector(capped, np.ones(capped.dim)))


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
                h = hamiltonian(params, sector, enumerate_sector(params, k - 1))
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


def test_composition_grid_memory_does_not_grow_with_the_grid():
    # 100,000 points at K = 300: all at once, each (point, photon number) array would take 240 MB
    grid = np.logspace(-2, math.log10(0.25), 100_000)
    tracemalloc.start()
    try:
        photons = mean_photons_across_chi(triple_cavity(m_atoms=300), 300, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(np.diff(photons) > 0)
    assert peak < 8e6  # 3.0 MB measured: the result and a few slices of 2^16 weights


@pytest.mark.parametrize("chi_value", [0.0, -1.0, math.nan, math.inf])
def test_composition_grid_needs_a_positive_chi(chi_value):
    with pytest.raises(ValueError, match="chi values must be positive and finite"):
        mean_photons_across_chi(triple_cavity(), 2, np.array([1.0, chi_value]))


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
