import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from cavitybic import (DensityMatrix, FitError, StateVector,
                       assemble_bic_state, build_hamiltonian, dicke_basis,
                       effective_tc_hamiltonian, enumerate_sector, evolve,
                       fit_decay_rate, lindblad_generator, stack_sectors,
                       steady_state_prediction, trapped_probabilities,
                       twisted_spin_ops)
from conftest import left_excited_state, triple_cavity
from oracles import atomic_reduced_density, dense_lindblad_apply


def test_generator_annihilates_ground_state():
    p = triple_cavity(m_atoms=2, g=0.2, gamma_c=0.7)
    space = stack_sectors(p, 2)
    gen = lindblad_generator(p, 2, space=space)
    rho = DensityMatrix.ground(space)
    assert np.abs(gen.apply(rho.data)).max() < 1e-14


def test_generator_annihilates_trapped_state():
    p = triple_cavity(m_atoms=2, g=0.3, gamma_c=1.0)
    space = stack_sectors(p, 2)
    gen = lindblad_generator(p, 2, space=space)
    psi = assemble_bic_state(p, 2, sector=space.sectors[2])
    rho = DensityMatrix.from_pure(space, psi)
    assert np.abs(gen.apply(rho.data)).max() < 1e-10


def test_generator_preserves_trace():
    p = triple_cavity(m_atoms=2, g=0.2, gamma_c=0.5, gamma_a=0.1)
    space = stack_sectors(p, 2)
    gen = lindblad_generator(p, 2, include_atomic_decay=True, space=space)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    assert abs(np.trace(gen.apply(rho))) < 1e-12


def test_sparse_apply_matches_dense_oracle():
    p = triple_cavity(m_atoms=2, g=0.3, gamma_c=0.7, gamma_a=0.2, delta=0.1, omega_c=0.4)
    space = stack_sectors(p, 2)
    gen = lindblad_generator(p, 2, include_atomic_decay=True, space=space)
    rng = np.random.default_rng(11)
    rho = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    index, _matrix = gen.superoperator(rho)
    assert index.size == space.dim ** 2  # a full-space rho reaches every block
    oracle = dense_lindblad_apply(p, space, include_atomic_decay=True)
    assert np.abs(gen.apply(rho) - oracle(rho)).max() < 1e-13


def test_diagonal_start_integrates_only_diagonal_blocks():
    p = triple_cavity(m_atoms=3, g=0.1, gamma_c=1.0)
    space = stack_sectors(p, 3)
    gen = lindblad_generator(p, 3, space=space)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 3))
    index, matrix = gen.superoperator(rho0.data)
    assert index.size == sum(sec.dim ** 2 for sec in space.sectors) == 1476
    assert space.dim ** 2 == 3136
    assert matrix.shape == (1476, 1476)


@pytest.mark.parametrize("k_low, k_high", [(0, 1), (1, 2)])
def test_evolve_from_cross_sector_state_matches_dense_oracle(k_low, k_high):
    # (|beta_low> + |beta_high>)/sqrt(2); beta_0 is the ground state.  The
    # jumps carry the (2, 1) coherence down into (1, 0), never into (2, 0).
    p = triple_cavity(m_atoms=2, g=0.3, gamma_c=0.7, gamma_a=0.2, delta=0.1, omega_c=0.4)
    space = stack_sectors(p, 2)
    low, high = (space.embed(assemble_bic_state(p, k, sector=space.sectors[k]))
                 for k in (k_low, k_high))
    rho0 = DensityMatrix.from_vector(space, (low + high) / math.sqrt(2.0))
    gen = lindblad_generator(p, 2, include_atomic_decay=True, space=space)
    index, _matrix = gen.superoperator(rho0.data)
    d0, d1, d2 = (sec.dim for sec in space.sectors)
    expected = (d0 + d1) ** 2 if k_high == 1 else space.dim ** 2 - 2 * d0 * d2
    assert index.size == expected

    t_end, dt = 20.0, 1.0
    traj = evolve(p, rho0, t_end, generator=gen, snapshot_dt=dt,
                  rtol=1e-10, atol=1e-12, detect_steady=False)
    oracle = dense_lindblad_apply(p, space, include_atomic_decay=True)
    dim = space.dim
    ref = solve_ivp(lambda _t, y: oracle(y.reshape(dim, dim)).ravel(), (0.0, t_end),
                    rho0.data.ravel(), t_eval=traj.times, rtol=1e-10, atol=1e-12)
    assert ref.success and len(traj.states) == len(ref.t) == 21
    for col, state in enumerate(traj.states):
        assert np.abs(state.data - ref.y[:, col].reshape(dim, dim)).max() < 1e-7
    assert traj.diagnostics.max_offblock > 0.1  # the ground-beta1 coherence


@pytest.mark.parametrize("t_end, snapshot_dt", [
    (0.0, 1.0), (-5.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
    (10.0, 0.0), (10.0, -1.0), (10.0, math.inf), (10.0, math.nan)])
def test_evolve_rejects_bad_time_grid(t_end, snapshot_dt):
    p = triple_cavity(m_atoms=1, gamma_c=1.0)
    space = stack_sectors(p, 1)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 1))
    with pytest.raises(ValueError, match="must be finite and > 0"):
        evolve(p, rho0, t_end, snapshot_dt=snapshot_dt)


def test_evolve_rejects_generator_built_for_other_params():
    p = triple_cavity(m_atoms=1, g=0.1, gamma_c=1.0)
    other = p.replace(g=0.9)
    space = stack_sectors(p, 1)
    gen = lindblad_generator(other, 1)
    assert gen.space.dim == space.dim
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 1))
    with pytest.raises(ValueError, match="different spaces"):
        evolve(p, rho0, 10.0, generator=gen)
    # a generator on an equal space built apart is accepted
    evolve(p, rho0, 10.0, generator=lindblad_generator(p, 1), detect_steady=False)


def test_atomic_initial_state_is_frozen_without_coupling():
    p = triple_cavity(m_atoms=2, g=0.0, gamma_c=0.0)
    space = stack_sectors(p, 2)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 2))
    traj = evolve(p, rho0, 20.0, snapshot_dt=1.0, detect_steady=False)
    for state in traj.states:
        assert np.abs(state.data - rho0.data).max() < 1e-10


def test_bare_photon_decays_exponentially():
    p = triple_cavity(m_atoms=1, g=0.0, gamma_c=0.4).replace(lam=0.0)
    space = stack_sectors(p, 1)
    sector = space.sectors[1]
    vec = np.zeros(sector.dim, dtype=complex)
    vec[[i for i, s in enumerate(sector.states) if s.photons_left == 1][0]] = 1.0
    rho0 = DensityMatrix.from_vector(space, space.embed(StateVector(sector, vec)))
    traj = evolve(p, rho0, 10.0, snapshot_dt=0.5, detect_steady=False)

    def photon_population(state):
        return float(np.real(np.trace(state.block(1))))

    for t, state in traj:
        assert photon_population(state) == pytest.approx(math.exp(-0.4 * t), abs=1e-7)


def test_trajectory_records_min_eigenvalue_of_each_state(relaxation_run):
    traj = relaxation_run.trajectory
    assert len(traj.min_eigenvalues) == len(traj.times) == len(traj.states)
    for value, state in zip(traj.min_eigenvalues, traj.states):
        assert value == state.min_eigenvalue()
    assert traj.diagnostics.min_eigenvalue == traj.min_eigenvalues.min()


def test_trapped_probabilities_projectors():
    p = triple_cavity(m_atoms=2, g=0.2)
    space = stack_sectors(p, 2)
    states = [assemble_bic_state(p, k, sector=space.sectors[k]) for k in range(3)]
    rho = DensityMatrix.from_pure(space, states[1])
    probs = trapped_probabilities(rho, states)
    assert probs[1] == pytest.approx(1.0)
    assert probs[0] == pytest.approx(0.0, abs=1e-14)
    assert probs[2] == pytest.approx(0.0, abs=1e-14)

    mixed = DensityMatrix(space, np.zeros((space.dim, space.dim), dtype=complex))
    dim2 = space.sectors[2].dim
    mixed.data[space.sector_slice(2), space.sector_slice(2)] = np.eye(dim2) / dim2
    assert trapped_probabilities(mixed, [states[2]])[0] == pytest.approx(1 / dim2)


def test_trapped_probabilities_dimension_mismatch():
    p = triple_cavity(m_atoms=2, g=0.2)
    space = stack_sectors(p, 1)
    beta2 = assemble_bic_state(p, 2)
    with pytest.raises(ValueError):
        trapped_probabilities(DensityMatrix.ground(space), [beta2])


def test_dicke_basis_counts_and_eigenrelations():
    p = triple_cavity(m_atoms=3)
    basis = dicke_basis(p)
    assert len(basis) == 16
    counts = {}
    sz, sp, s2 = twisted_spin_ops(3)
    sm = sp.T
    for d in basis:
        counts[d.s] = counts.get(d.s, 0) + 1
        assert np.linalg.norm(s2 @ d.vector - d.s * (d.s + 1) * d.vector) < 1e-10
        assert np.linalg.norm(sz @ d.vector - d.m_s * d.vector) < 1e-10
        if d.m_s == -d.s:
            assert np.linalg.norm(sm @ d.vector) < 1e-10
    assert counts == {0: 1, 1: 3, 2: 5, 3: 7}


def test_dicke_singlet_single_atom_pair():
    # the twisted singlet looks symmetric in occupation labels
    basis = dicke_basis(triple_cavity(m_atoms=1))
    singlet = [d for d in basis if d.s == 0][0]
    expected = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2)
    assert np.abs(singlet.vector - expected).max() < 1e-10


def test_steady_state_prediction_left_excited():
    p = triple_cavity(m_atoms=2)
    psi0 = np.zeros(9)
    psi0[2 * 3 + 0] = 1.0  # n_left = 2, n_right = 0
    pred = dict(steady_state_prediction(p, psi0))
    assert pred[0] == pytest.approx(1 / 3, abs=1e-12)
    assert pred[1] == pytest.approx(1 / 2, abs=1e-12)
    assert pred[2] == pytest.approx(1 / 6, abs=1e-12)
    assert sum(pred.values()) == pytest.approx(1.0)


def test_steady_state_prediction_singlet_input():
    p = triple_cavity(m_atoms=1)
    singlet = [d for d in dicke_basis(p) if d.s == 0][0]
    pred = dict(steady_state_prediction(p, singlet.vector))
    assert pred[0] == pytest.approx(1.0)


def test_effective_model_conserves_total_spin():
    p = triple_cavity(m_atoms=2, g=0.05)
    sector = enumerate_sector(p, 1)
    h_eff = effective_tc_hamiltonian(p, sector).toarray()
    _sz, _sp, s2 = twisted_spin_ops(2)
    s2_sector = np.zeros((sector.dim, sector.dim))
    for i, si in enumerate(sector.states):
        for j, sj in enumerate(sector.states):
            same_photons = (si.photons_left, si.photons_mid, si.photons_right) == \
                           (sj.photons_left, sj.photons_mid, sj.photons_right)
            if same_photons:
                s2_sector[i, j] = s2[si.excited_left * 3 + si.excited_right,
                                     sj.excited_left * 3 + sj.excited_right]
    assert np.abs(s2_sector @ h_eff - h_eff @ s2_sector).max() < 1e-12


def test_effective_model_tracks_full_hamiltonian():
    p = triple_cavity(m_atoms=2, g=0.05)
    sector = enumerate_sector(p, 1)
    h_full = build_hamiltonian(p, sector).toarray()
    h_eff = effective_tc_hamiltonian(p, sector).toarray()
    rng = np.random.default_rng(7)
    v = np.zeros(sector.dim, dtype=complex)
    for i, s in enumerate(sector.states):
        if s.excited_left + s.excited_right == 1:
            v[i] = rng.normal() + 1j * rng.normal()
    v /= np.linalg.norm(v)
    t = 50.0
    fidelity = abs(np.vdot(expm(-1j * h_full * t) @ v, expm(-1j * h_eff * t) @ v)) ** 2
    assert fidelity > 0.99


def test_effective_model_without_coupling_has_no_exchange_terms():
    p = triple_cavity(m_atoms=2, g=0.0, omega_c=0.8)
    sector = enumerate_sector(p, 1)
    h_eff = effective_tc_hamiltonian(p, sector).toarray()
    atomic = [i for i, s in enumerate(sector.states)
              if s.excited_left + s.excited_right == 1]
    photonic = [i for i in range(sector.dim) if i not in atomic]
    assert np.abs(h_eff[np.ix_(atomic, photonic)]).max() == 0.0
    assert np.abs(h_eff[np.ix_(atomic, atomic)]
                  - np.diag(np.diag(h_eff))[np.ix_(atomic, atomic)]).max() == 0.0


def test_effective_model_requires_triple_cavity():
    p = triple_cavity(m_atoms=1).replace(n_chain=4, q=2)
    with pytest.raises(ValueError, match="triple-cavity"):
        effective_tc_hamiltonian(p, enumerate_sector(p, 1))


def test_fit_decay_rate_synthetic():
    t = np.linspace(0.0, 10.0, 200)
    rate = fit_decay_rate((t, np.exp(-0.3 * t)))
    assert rate == pytest.approx(0.3, abs=1e-6)


def test_fit_decay_rate_flags_bad_signals():
    t = np.linspace(0.0, 10.0, 50)
    with pytest.raises(FitError, match="does not decay"):
        fit_decay_rate((t, np.exp(0.2 * t)))
    with pytest.raises(FitError, match="does not decay"):
        fit_decay_rate((t, np.ones_like(t)))
    rng = np.random.default_rng(0)
    noisy = np.exp(-0.5 * t + 2.0 * rng.normal(size=t.size))
    with pytest.raises(FitError, match="noisy"):
        fit_decay_rate((t, noisy))


# -- relaxation scenario (shared session fixture) ------------------------


def test_relaxation_probabilities_are_nondecreasing(relaxation_run):
    probs = relaxation_run.probabilities
    for i in range(probs.shape[1]):
        drops = np.diff(probs[:, i])
        assert drops.min() > -1e-7


def test_relaxation_top_probability_constant(relaxation_run):
    p2 = relaxation_run.probabilities[:, 2]
    assert p2.max() - p2.min() < 1e-4


def test_relaxation_reaches_predicted_mixture(relaxation_run):
    p = relaxation_run.params
    psi0 = np.zeros(9)
    psi0[2 * 3 + 0] = 1.0
    predicted = dict(steady_state_prediction(p, psi0))
    final = relaxation_run.probabilities[-1]
    # trapped state K maps to total spin M - K
    for k in range(3):
        assert final[k] == pytest.approx(predicted[2 - k], abs=0.01)
    assert relaxation_run.trajectory.steady_reached


def test_relaxation_atomic_purity_matches_mixture(relaxation_run):
    p = relaxation_run.params
    rho_at = atomic_reduced_density(relaxation_run.trajectory.states[-1])
    purity = float(np.real(np.trace(rho_at @ rho_at)))
    psi0 = np.zeros(9)
    psi0[2 * 3 + 0] = 1.0
    expected = sum(w ** 2 for _s, w in steady_state_prediction(p, psi0))
    assert purity == pytest.approx(expected, rel=0.02)


def test_relaxation_sanity_diagnostics(relaxation_run):
    diag = relaxation_run.trajectory.diagnostics
    assert diag.max_trace_drift < 1e-8
    assert diag.min_eigenvalue > -1e-8
    assert diag.max_offblock is not None and diag.max_offblock < 1e-10
