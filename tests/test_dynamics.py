import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from cavitybic import (DensityMatrix, FitError, IntegrationError, ModelParams,
                       ParamError, StateVector, assemble_bic_state,
                       dicke_basis, dynamics,
                       effective_tc_hamiltonian, enumerate_sector, evolve,
                       fit_decay_rate, lindblad_generator, operators, stack_sectors,
                       steady_state_prediction, trapped_probabilities,
                       twisted_spin_ops)
from conftest import left_excited_state, triple_cavity
from oracles import (atomic_reduced_density, collective_lowering, dense_lindblad_apply,
                     end_annihilation, hamiltonian)


def test_generator_annihilates_ground_state():
    p = triple_cavity(m_atoms=2, g=0.2, gamma_c=0.7)
    space = stack_sectors(p, 2)
    gen = lindblad_generator(p, space)
    rho = DensityMatrix.ground(space)
    assert np.abs(gen.apply(rho.data)).max() < 1e-14


def test_generator_annihilates_trapped_state():
    p = triple_cavity(m_atoms=2, g=0.3, gamma_c=1.0)
    space = stack_sectors(p, 2)
    gen = lindblad_generator(p, space)
    psi = assemble_bic_state(p, 2, sector=space.sectors[2])
    rho = DensityMatrix.from_pure(space, psi)
    assert np.abs(gen.apply(rho.data)).max() < 1e-10


def test_generator_preserves_trace():
    p = triple_cavity(m_atoms=2, g=0.2, gamma_c=0.5, gamma_a=0.1)
    space = stack_sectors(p, 2)
    gen = lindblad_generator(p, space, include_atomic_decay=True)
    rng = np.random.default_rng(3)
    x = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    rho = x @ x.conj().T
    rho /= np.trace(rho)
    assert abs(np.trace(gen.apply(rho))) < 1e-12


@pytest.mark.parametrize("gamma_c, gamma_a", [(0.0, 0.0), (0.7, 0.0), (0.0, 0.2), (0.7, 0.2)])
@pytest.mark.parametrize("n_chain, m_atoms", [(2, 1), (2, 2), (3, 2), (4, 1)])
def test_sparse_apply_matches_dense_oracle(n_chain, m_atoms, gamma_c, gamma_a):
    # rotating frame omega_c != 0 and detuning delta != 0
    p = ModelParams(n_chain=n_chain, m_atoms=m_atoms, omega_c=0.4, omega_a=0.3, g=0.3,
                    lam=1.0, q=1, gamma_c=gamma_c, gamma_a=gamma_a)
    space = stack_sectors(p, m_atoms)
    gen = lindblad_generator(p, space, include_atomic_decay=True)
    rng = np.random.default_rng(11)
    rho = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(size=(space.dim, space.dim))
    _blocks, index, _matrix = gen.superoperator(rho)
    assert index.size == space.dim ** 2  # a full-space rho reaches every block
    oracle = dense_lindblad_apply(p, space, include_atomic_decay=True)
    assert np.abs(gen.apply(rho) - oracle(rho)).max() < 1e-13


def test_diagonal_start_integrates_only_diagonal_blocks():
    p = triple_cavity(m_atoms=3, g=0.1, gamma_c=1.0)
    space = stack_sectors(p, 3)
    gen = lindblad_generator(p, space)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 3))
    _blocks, index, matrix = gen.superoperator(rho0.data)
    assert index.size == sum(sec.dim ** 2 for sec in space.sectors) == 1476
    assert space.dim ** 2 == 3136
    assert matrix.shape == (1476, 1476)


@pytest.mark.parametrize("n_chain, m_atoms", [(2, 2), (3, 1), (4, 3)])
def test_generator_blocks_are_the_sector_operators(n_chain, m_atoms):
    # rotating frame omega_c != 0 and atomic decay on: H, a_L, a_R, J_L, J_R
    p = ModelParams(n_chain=n_chain, m_atoms=m_atoms, omega_c=0.4, omega_a=0.3, g=-0.7,
                    lam=1.0, q=1, gamma_c=0.7, gamma_a=0.2)
    space = stack_sectors(p, m_atoms)
    gen = lindblad_generator(p, space, include_atomic_decay=True)
    sectors = space.sectors

    # each jump holds the reference ladder from sector K to K - 1 as its
    # dense block K - 1, entry for entry, and no other block
    lowerings = [(rate, ladder_of, side)
                 for rate, ladder_of in ((p.gamma_c, end_annihilation),
                                         (p.gamma_a, collective_lowering))
                 for side in ("L", "R")]
    assert [rate for rate, _blocks in gen._jumps] == [rate for rate, _b, _s in lowerings]
    maps = []
    for (_rate, blocks), (rate, ladder_of, side) in zip(gen._jumps, lowerings):
        wanted = [ladder_of(p, sectors[k], sectors[k - 1], side)
                  for k in range(1, len(sectors))]
        assert len(blocks) == len(wanted)
        for blk, ref in zip(blocks, wanted):
            assert isinstance(blk, np.ndarray) and blk.dtype == np.complex128
            assert np.array_equal(blk, ref)
        maps.append((rate, wanted))

    # H_eff,K = H_K - (omega_c K - omega_a M) - (i/2) sum gamma c+ c, dense,
    # one block per sector; that frame makes the vacuum's zero
    assert len(gen._h_eff_blocks) == len(sectors)
    assert np.array_equal(gen._h_eff_blocks[0], np.zeros((1, 1)))
    for k, sec in enumerate(sectors[1:], start=1):
        blk = gen._h_eff_blocks[k]
        assert isinstance(blk, np.ndarray) and blk.dtype == np.complex128
        ref = (hamiltonian(p, sec, sectors[k - 1])
               - (p.omega_c * k - p.omega_a * p.m_atoms) * np.eye(sec.dim))
        for rate, wanted in maps:
            c = wanted[k - 1]
            ref = ref - 0.5j * rate * (c.conj().T @ c)
        assert np.array_equal(blk, ref)


@pytest.mark.parametrize("include_atomic_decay", [False, True])
def test_generator_lowers_each_sector_once(monkeypatch, include_atomic_decay):
    # one lowering_maps call per sector K >= 1 serves H_eff and every jump
    calls, original = [], operators.lowering_maps

    def counted(params, sector_k, sector_km1, slots=None):
        calls.append(sector_k.k_excitations)
        return original(params, sector_k, sector_km1, slots)

    monkeypatch.setattr(operators, "lowering_maps", counted)
    monkeypatch.setattr(dynamics, "lowering_maps", counted, raising=False)
    p = triple_cavity(m_atoms=3, g=0.2, gamma_c=0.7, gamma_a=0.1)
    gen = lindblad_generator(p, stack_sectors(p, 3), include_atomic_decay=include_atomic_decay)
    assert calls == [1, 2, 3]
    assert len(gen._jumps) == (4 if include_atomic_decay else 2)


@pytest.mark.parametrize("gamma_c, gamma_a", [(0.0, 0.0), (0.7, 0.0), (0.0, 0.2), (0.7, 0.2)])
@pytest.mark.parametrize("n_chain", [2, 3])
def test_reach_is_the_support_of_the_dense_oracle_orbit(n_chain, gamma_c, gamma_a):
    # rho, L rho, L^2 rho, ... from a random rho on one block (K, K') cover
    # exactly the blocks that ``superoperator`` finds: (K - j, K' - j) with a
    # jump, (K, K') alone without
    p = ModelParams(n_chain=n_chain, m_atoms=2, omega_c=0.4, omega_a=0.3, g=-0.7, lam=1.0,
                    q=1, gamma_c=gamma_c, gamma_a=gamma_a)
    space = stack_sectors(p, 2)
    gen = lindblad_generator(p, space, include_atomic_decay=True)
    oracle = dense_lindblad_apply(p, space, include_atomic_decay=True)
    sl, n = space.sector_slice, space.k_max + 1
    rng = np.random.default_rng(17)

    def support(x):
        return {(j, k) for j in range(n) for k in range(n) if np.any(x[sl(j), sl(k)] != 0)}

    for k, k_col in itertools.product(range(n), repeat=2):
        rho = np.zeros((space.dim, space.dim), dtype=complex)
        shape = rho[sl(k), sl(k_col)].shape
        rho[sl(k), sl(k_col)] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        found, x = support(rho), rho
        for _power in range(2 * n):
            x = oracle(x)
            x /= np.abs(x).max(initial=1.0)
            found |= support(x)
        blocks, _index, _matrix = gen.superoperator(rho)
        assert blocks == sorted(found)
        if gamma_c or gamma_a:
            assert len(blocks) == min(k, k_col) + 1
        else:
            assert blocks == [(k, k_col)]


@pytest.mark.parametrize("k_low, k_high", [(0, 1), (1, 2)])
def test_evolve_from_cross_sector_state_matches_dense_oracle(k_low, k_high):
    # (|beta_low> + |beta_high>)/sqrt(2); beta_0 is the ground state.  The
    # jumps carry the (2, 1) coherence down into (1, 0), never into (2, 0).
    p = triple_cavity(m_atoms=2, g=0.3, gamma_c=0.7, gamma_a=0.2, delta=0.1, omega_c=0.4)
    space = stack_sectors(p, 2)
    low, high = (space.embed(assemble_bic_state(p, k, sector=space.sectors[k]))
                 for k in (k_low, k_high))
    rho0 = DensityMatrix.from_vector(space, (low + high) / math.sqrt(2.0))
    gen = lindblad_generator(p, space, include_atomic_decay=True)
    _blocks, index, _matrix = gen.superoperator(rho0.data)
    d0, d1, d2 = (sec.dim for sec in space.sectors)
    expected = (d0 + d1) ** 2 if k_high == 1 else space.dim ** 2 - 2 * d0 * d2
    assert index.size == expected

    t_end, dt = 20.0, 1.0
    traj = evolve(p, rho0, t_end, include_atomic_decay=True, snapshot_dt=dt,
                  detect_steady=False)
    oracle = dense_lindblad_apply(p, space, include_atomic_decay=True)
    dim = space.dim
    ref = solve_ivp(lambda _t, y: oracle(y.reshape(dim, dim)).ravel(), (0.0, t_end),
                    rho0.data.ravel(), t_eval=traj.times, rtol=1e-10, atol=1e-12)
    assert ref.success and len(traj.states) == len(ref.t) == 21
    for col, state in enumerate(traj.states):
        assert np.abs(state.data - ref.y[:, col].reshape(dim, dim)).max() < 1e-7
        # a state with coherences between sectors takes the full-matrix eigvalsh
        low = np.linalg.eigvalsh(state.data)[0]
        assert traj.min_eigenvalues[col] == state.min_eigenvalue() == low
    assert traj.diagnostics.max_offblock > 0.1  # the ground-beta1 coherence


@pytest.mark.parametrize("t_end, snapshot_dt", [
    (0.0, 1.0), (-5.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
    (10.0, 0.0), (10.0, -1.0), (10.0, math.inf), (10.0, math.nan)])
def test_evolve_rejects_bad_time_grid(t_end, snapshot_dt):
    p = triple_cavity(m_atoms=1, gamma_c=1.0)
    space = stack_sectors(p, 1)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 1))
    with pytest.raises(ParamError, match="must be finite and > 0"):
        evolve(p, rho0, t_end, snapshot_dt=snapshot_dt)
    with pytest.raises(ParamError, match="must be finite and > 0"):
        dynamics._snapshot_times(t_end, snapshot_dt)


def test_evolve_rejects_too_fine_snapshot_grid():
    p = triple_cavity(m_atoms=1, gamma_c=1.0)
    space = stack_sectors(p, 1)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 1))
    with pytest.raises(ParamError, match="t_end / snapshot_dt must be at most"):
        evolve(p, rho0, 2000.0, snapshot_dt=1e-300)
    with pytest.raises(ParamError, match="t_end / snapshot_dt must be at most"):
        dynamics._snapshot_times(2000.0, 1e-300)


@pytest.mark.parametrize("t_end, snapshot_dt, expected", [
    (10.0, 1.0, np.arange(11.0)), (10.0, None, np.linspace(0.0, 10.0, 201)),
    (1.0, 3.0, [0.0, 1.0]), (2.5, 1.0, [0.0, 2.5 / 3, 5.0 / 3, 2.5]),
    (1e5, 1.0, np.arange(1e5 + 1))])
def test_snapshot_grid_spans_t_end_in_steps_of_at_most_snapshot_dt(t_end, snapshot_dt,
                                                                   expected):
    # no step is longer than snapshot_dt, and MAX_SNAPSHOTS steps are accepted
    times = dynamics._snapshot_times(t_end, snapshot_dt)
    assert np.array_equal(times, np.asarray(expected, dtype=float))


@pytest.mark.parametrize("bound, value, message", [
    ("MAX_REACHED_ENTRIES", 250,
     "the reach holds more than MAX_REACHED_ENTRIES = 250 entries"),
    ("MAX_KEPT_ENTRIES", 251 * 11 - 1,
     "evolve would keep 11 snapshots of 251 entries, more than MAX_KEPT_ENTRIES = 2760"),
])
def test_evolve_above_its_size_bounds_raises_before_it_allocates(bound, value, message,
                                                                 monkeypatch):
    # a start in sector 2 of (N, M) = (2, 2) reaches 1 + 5^2 + 15^2 = 251 entries
    p = triple_cavity(m_atoms=2, gamma_c=1.0)
    space = stack_sectors(p, 2)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 2))
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, bound, value + 1)  # at the bound the run goes ahead
        assert len(evolve(p, rho0, 10.0, snapshot_dt=1.0, detect_steady=False).times) == 11

    def refuse(*_args, **_kwargs):
        raise AssertionError("allocated past the bound")

    monkeypatch.setattr(dynamics, bound, value)
    if bound == "MAX_REACHED_ENTRIES":  # the superoperator has the same bound
        gen = lindblad_generator(p, space)
        with pytest.raises(ParamError) as raised:
            gen.superoperator(rho0.data)
        assert str(raised.value) == message
    # neither the generator nor a propagator is built, on either bound
    for name in ("lindblad_generator", "_Cascade", "_Rk45"):
        monkeypatch.setattr(dynamics, name, refuse)
    # nor is the superoperator
    for name in ("superoperator", "_matrix"):
        monkeypatch.setattr(dynamics.LindbladGenerator, name, refuse)
    with pytest.raises(ParamError) as raised:
        evolve(p, rho0, 10.0, snapshot_dt=1.0, detect_steady=False)
    assert str(raised.value) == message


def test_positivity_loss_aborts_the_run(monkeypatch):
    # a limit that every state fails: the first snapshot after t = 0 aborts
    monkeypatch.setattr(dynamics, "POSITIVITY_LIMIT", -1.0)
    p = triple_cavity(m_atoms=1, gamma_c=1.0)
    space = stack_sectors(p, 1)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 1))
    with pytest.raises(IntegrationError, match="positivity violated at t=1: min eigenvalue"):
        evolve(p, rho0, 10.0, snapshot_dt=1.0)


def test_trace_drift_aborts_the_run(monkeypatch):
    # a limit that every state fails, t = 0's zero drift included: the
    # first snapshot after t = 0 aborts, as positivity does
    monkeypatch.setattr(dynamics, "TRACE_DRIFT_LIMIT", -1.0)
    p = triple_cavity(m_atoms=1, gamma_c=1.0)
    space = stack_sectors(p, 1)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 1))
    with pytest.raises(IntegrationError, match=r"trace drifted at t=1: \|trace - trace\(rho0\)\|"):
        evolve(p, rho0, 10.0, snapshot_dt=1.0)


def test_evolve_at_a_large_cavity_frequency_keeps_its_populations():
    # the frame leaves only -delta per excited atom on the diagonal, so a
    # carrier of omega_c = omega_a = 1e8 costs the populations no digits
    populations = []
    for omega in (0.0, 1e8):
        p = triple_cavity(m_atoms=2, g=0.1, gamma_c=1.0, omega_c=omega)
        space = stack_sectors(p, 2)
        rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 2))
        traj = evolve(p, rho0, 400.0, snapshot_dt=2.0, detect_steady=False)
        populations.append(traj.states.expectations(
            [assemble_bic_state(p, k, sector=space.sectors[k]) for k in range(3)]))
    assert populations[0].shape == (201, 3)
    assert np.abs(populations[1] - populations[0]).max() <= 1e-12


def test_positivity_judges_no_snapshot_after_the_steady_stop(monkeypatch):
    p = triple_cavity(m_atoms=2, g=0.1, gamma_c=1.0)
    space = stack_sectors(p, 2)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 2))
    ref = evolve(p, rho0, 2000.0, snapshot_dt=2.0)
    last = len(ref.times) - 1  # the snapshot that stopped the run
    # the stop falls inside a chunk, whose later snapshots are computed too
    assert ref.steady_reached and last % dynamics._CHUNK != 0
    real = dynamics._min_eigenvalues

    def bad_from(first_bad):
        seen = 0  # snapshots judged so far, the initial state first

        def patched(space, blocks, values):
            nonlocal seen
            out = real(space, blocks, values)
            rows = range(seen, seen + len(out))
            seen += len(out)
            return [-1.0 if i >= first_bad else value for i, value in zip(rows, out)]
        return patched

    monkeypatch.setattr(dynamics, "_min_eigenvalues", bad_from(last + 1))
    after = evolve(p, rho0, 2000.0, snapshot_dt=2.0)
    assert np.array_equal(after.min_eigenvalues, ref.min_eigenvalues)
    monkeypatch.setattr(dynamics, "_min_eigenvalues", bad_from(last))
    with pytest.raises(IntegrationError, match=f"violated at t={ref.times[-1]:.6g}: min"):
        evolve(p, rho0, 2000.0, snapshot_dt=2.0)


@pytest.mark.parametrize("g, snapshot_dt, placement", [
    (0.3, 5.0, "first of a chunk"),  # the previous chunk's last snapshot decides
    (0.3, 2.0, "inside a chunk"),
    (0.25, 2.0, "rk45"),  # an exceptional point: one chunk per RK45 step
])
def test_steady_stop_cuts_the_full_run_at_its_first_quiet_pair(g, snapshot_dt, placement):
    p = triple_cavity(m_atoms=1, g=g, gamma_c=1.0)
    space = stack_sectors(p, 1)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 1))
    full = evolve(p, rho0, 200.0, snapshot_dt=snapshot_dt, detect_steady=False)
    steady = evolve(p, rho0, 200.0, snapshot_dt=snapshot_dt)

    # max |d rho / dt| of every snapshot of the full run, on the run's reach
    _blocks, index, matrix = lindblad_generator(p, space).superoperator(rho0.data)
    rhs = [np.abs(matrix @ state.data.ravel()[index]).max(initial=0.0)
           for state in full.states]
    quiet = [r < dynamics.STEADY_THRESHOLD * p.lam for r in rhs]
    cut = next(i for i in range(2, len(rhs)) if quiet[i - 1] and quiet[i])
    assert (full.diagnostics.propagator == "rk45") == (placement == "rk45")
    if placement != "rk45":
        assert ((cut - 1) % dynamics._CHUNK == 0) == (placement == "first of a chunk")

    assert steady.steady_reached and steady.steady_time == full.times[cut]
    assert np.array_equal(steady.times, full.times[:cut + 1])
    assert np.array_equal(steady.min_eigenvalues, full.min_eigenvalues[:cut + 1])
    assert len(steady.states) == cut + 1
    assert all(np.array_equal(a.data, b.data) for a, b in zip(steady.states, full.states))
    kept = full.states[:cut + 1]
    expected = dynamics.TrajectoryDiagnostics(
        max_trace_drift=max(abs(np.trace(s.data).real - rho0.trace()) for s in kept[1:]),
        min_eigenvalue=min(full.min_eigenvalues[:cut + 1].tolist()),
        max_offblock=max(s.offblock_max() for s in kept),
        rhs_sup_last=rhs[cut], n_rhs_evaluations=steady.diagnostics.n_rhs_evaluations,
        propagator=full.diagnostics.propagator,
        fallback_reason=full.diagnostics.fallback_reason)
    assert steady.diagnostics == expected
    # RK45 stops stepping at the stop; the cascade evaluates without a step
    assert (0 < steady.diagnostics.n_rhs_evaluations < full.diagnostics.n_rhs_evaluations
            if placement == "rk45" else full.diagnostics.n_rhs_evaluations == 0)


@pytest.mark.parametrize("change", [dict(m_atoms=3), dict(n_chain=4)])
def test_evolve_rejects_params_the_space_was_not_enumerated_for(change):
    p = triple_cavity(m_atoms=2, g=0.3, gamma_c=1.0)
    space = stack_sectors(p, 1)
    beta = assemble_bic_state(p, 1, sector=space.sectors[1])
    rho0 = DensityMatrix.from_pure(space, beta)
    traj = evolve(p, rho0, 20.0, snapshot_dt=1.0, detect_steady=False)
    assert trapped_probabilities(traj.states[-1], [beta])[0] == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match="enumerated for"):
        evolve(p.replace(**change), rho0, 20.0, snapshot_dt=1.0, detect_steady=False)


def test_evolve_rejects_a_rho0_that_is_not_hermitian():
    p = triple_cavity(m_atoms=1, gamma_c=1.0)
    space = stack_sectors(p, 1)
    data = DensityMatrix.from_pure(space, left_excited_state(space, 1)).data
    data[0, 1] = 0.5  # a (0, 1) block without its (1, 0) mirror
    with pytest.raises(ValueError, match="must be Hermitian"):
        evolve(p, DensityMatrix(space, data), 10.0, snapshot_dt=1.0)


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


def test_readout_from_the_kept_entries_matches_each_rebuilt_state(relaxation_run):
    # the weighed entries sum in another order than beta+ rho beta on the
    # rebuilt matrix, so P may move in its last bits: at most 1e-15; the
    # traces are np.trace of each rebuilt matrix to the bit
    p, space = relaxation_run.params, relaxation_run.space
    cross = space.embed(left_excited_state(space, 1))
    cross[0] = 0.6  # a start with nonzero blocks off the diagonal
    rho0 = DensityMatrix.from_vector(space, cross / np.linalg.norm(cross))
    for traj in (relaxation_run.trajectory, evolve(p, rho0, 40.0, detect_steady=False)):
        readout = traj.states.expectations(relaxation_run.trapped)
        vecs = [space.embed(beta) for beta in relaxation_run.trapped]
        reference = [[np.real(v.conj() @ state.data @ v) for v in vecs] for state in traj.states]
        assert readout.shape == (len(traj.times), 3)
        assert np.abs(readout - reference).max() <= 1e-15
        assert np.abs(readout - [trapped_probabilities(state, relaxation_run.trapped)
                                 for state in traj.states]).max() <= 1e-15
        assert np.array_equal(traj.traces, [np.trace(state.data).real for state in traj.states])
    assert traj.diagnostics.max_offblock > 0.1


def test_trajectory_keeps_each_snapshot_as_its_reached_entries():
    p = triple_cavity(m_atoms=3, g=0.1, gamma_c=1.0)
    space = stack_sectors(p, 3)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 3))
    traj = evolve(p, rho0, 40.0, snapshot_dt=2.0, detect_steady=False)
    states = traj.states
    assert len(states) == len(traj.times) == 21
    assert np.array_equal(states[-1].data, list(states)[-1].data)
    assert np.array_equal(states[-21].data, rho0.data) and states[0].data is not rho0.data
    with pytest.raises(IndexError):
        states[21]
    # every snapshot, t = 0 included, holds the 1,476 entries of the reached
    # blocks, not 3,136
    assert space.dim ** 2 == 3136 and states.index.size == 1476
    assert [row.shape for row in states.entries] == [(1476,)] * 21

    # each state is what the full symmetrised snapshot used to be, to the bit
    gen = lindblad_generator(p, space)
    blocks, index, _matrix = gen.superoperator(rho0.data)
    flat = np.zeros(space.dim ** 2, dtype=complex)
    full = [rho0.data]
    for _ts, ys in dynamics._Cascade(gen, blocks, rho0.data, 40.0).chunks(traj.times):
        for y in ys:
            flat[index] = y
            rho = flat.reshape(space.dim, space.dim)
            full.append(0.5 * (rho + rho.conj().T))
    assert all(np.array_equal(state.data, ref) for state, ref in zip(states, full))
    assert [t for t, _state in traj] == list(traj.times)
    purity = lambda rho: float(np.real(np.vdot(rho.data, rho.data)))  # noqa: E731
    assert np.array_equal(traj.observable(purity),
                          [purity(DensityMatrix(space, ref)) for ref in full])
    assert traj.diagnostics.max_trace_drift == max(abs(np.trace(ref).real - rho0.trace())
                                                   for ref in full[1:])


def test_cascade_leaves_no_subnormal_and_matches_plain_exponentials(relaxation_run):
    p, space = relaxation_run.params, relaxation_run.space
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 2))
    gen = lindblad_generator(p, space)
    blocks, _index, _matrix = gen.superoperator(rho0.data)
    cascade = dynamics._Cascade(gen, blocks, rho0.data, 2000.0)
    ts = np.linspace(1000.0, 2000.0, 16)
    tiny = np.finfo(float).tiny

    def subnormal(x):
        # each real and imaginary part counts on its own
        parts = np.stack([np.real(x), np.imag(x)])
        return np.count_nonzero((parts != 0) & (np.abs(parts) < tiny))

    # the plain evaluation: every exponential computed, every term kept
    expo = {key: np.exp(np.outer(blk.mu, ts)) for key, blk in cascade._modes.items()}
    size = np.abs(np.concatenate([e.ravel() for e in expo.values()]))
    assert np.mean(size < tiny) > 0.5  # most modes have decayed
    plain_xs, plain = [], []
    for key in cascade.blocks:
        blk = cascade._modes[key]
        x = blk.h[:, None] * expo[key]
        for src, coeff in blk.parts:
            x += coeff @ expo[src]
        plain_xs.append(x)
        v_k, v_c = cascade._eig[key[0]][1], cascade._eig[key[1]][1]
        x = x.T.reshape(len(ts), len(v_k), len(v_c))
        plain.append((v_k @ x @ v_c.conj().T).reshape(len(ts), -1))
    assert subnormal(size) > 0 and sum(map(subnormal, plain_xs)) > 0

    xs = cascade._eigenbasis(ts)
    assert list(xs) == cascade.blocks and sum(map(subnormal, xs.values())) == 0
    ys = cascade._evaluate(ts)
    assert subnormal(ys) == 0
    assert np.abs(ys - np.hstack(plain)).max() <= 1e-300


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
    h_full = hamiltonian(p, sector, enumerate_sector(p, 0))
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


def test_fit_decay_rate_rejects_bad_samples():
    t = np.linspace(0.0, 10.0, 50)
    y = np.exp(-0.3 * t)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(FitError, match="finite"):
            fit_decay_rate((t, np.where(t == t[7], bad, y)))
        with pytest.raises(ValueError, match="times must be finite"):
            fit_decay_rate((np.where(t == t[7], bad, t), y))
    with pytest.raises(ValueError, match="one time per sample"):
        fit_decay_rate((t[:-1], y))
    assert fit_decay_rate((t, y)) == pytest.approx(0.3, abs=1e-12)


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


# -- cascade propagator and its RK45 fallback -----------------------------


def _chain(n_chain, m_atoms, g=1.0, gamma_c=1.0, gamma_a=0.0, delta=0.0):
    return ModelParams(n_chain=n_chain, m_atoms=m_atoms, omega_c=0.0, omega_a=-delta,
                       g=g, lam=1.0, q=1, gamma_c=gamma_c, gamma_a=gamma_a)


def _max_gap(a, b):
    assert len(a.states) == len(b.states)
    return max(np.abs(x.data - y.data).max() for x, y in zip(a.states, b.states))


def _tight_rk45(monkeypatch, *args, **kwargs):
    """``evolve`` pushed onto its RK45 fallback by the storage guard."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "MAX_CASCADE_COEFFICIENTS", 0)
        patch.setattr(dynamics, "_RK45_RTOL", 1e-11)
        patch.setattr(dynamics, "_RK45_ATOL", 1e-13)
        traj = evolve(*args, **kwargs)
    assert traj.diagnostics.propagator == "rk45"
    assert "MAX_CASCADE_COEFFICIENTS" in traj.diagnostics.fallback_reason
    return traj


@pytest.mark.parametrize("delta", [0.0, 0.3])
@pytest.mark.parametrize("gamma_a", [0.0, 0.05])
@pytest.mark.parametrize("n_chain, m_atoms", [(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (4, 3)])
def test_cascade_matches_tight_rk45(n_chain, m_atoms, gamma_a, delta, monkeypatch):
    p = _chain(n_chain, m_atoms, gamma_a=gamma_a, delta=delta)
    # (4, 3) starts in K = 2: at K = 3 it exceeds the storage bound (next test)
    k = min(m_atoms, 2) if n_chain == 4 else m_atoms
    space = stack_sectors(p, k)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, k))
    args = (p, rho0, 20.0)
    kwargs = dict(snapshot_dt=1.0, include_atomic_decay=True, detect_steady=False)
    cascade = evolve(*args, **kwargs)
    assert cascade.diagnostics.propagator == "cascade"
    assert cascade.diagnostics.fallback_reason == ""
    assert cascade.diagnostics.n_rhs_evaluations == 0
    rk45 = _tight_rk45(monkeypatch, *args, **kwargs)
    assert _max_gap(cascade, rk45) < 1e-9
    # the steady test's d rho / dt is the generator's, on either propagator
    gen = lindblad_generator(p, space, include_atomic_decay=True)
    rhs = np.abs(gen.apply(cascade.states[-1].data)).max()
    assert cascade.diagnostics.rhs_sup_last == pytest.approx(rhs, rel=1e-9)
    assert rk45.diagnostics.rhs_sup_last == np.abs(gen.apply(rk45.states[-1].data)).max()


def test_oversized_cascade_falls_back_to_rk45():
    p = _chain(4, 3)
    space = stack_sectors(p, 3)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 3))
    traj = evolve(p, rho0, 0.5, snapshot_dt=0.5, detect_steady=False)
    assert traj.diagnostics.propagator == "rk45"
    assert "exceed MAX_CASCADE_COEFFICIENTS" in traj.diagnostics.fallback_reason
    assert traj.diagnostics.n_rhs_evaluations > 0


@pytest.mark.parametrize("k_low, k_high", [(0, 1), (1, 2)])
def test_cross_sector_start_runs_on_the_cascade(k_low, k_high, monkeypatch):
    p = triple_cavity(m_atoms=2, g=0.3, gamma_c=0.7, gamma_a=0.2, delta=0.1, omega_c=0.4)
    space = stack_sectors(p, 2)
    low, high = (space.embed(assemble_bic_state(p, k, sector=space.sectors[k]))
                 for k in (k_low, k_high))
    rho0 = DensityMatrix.from_vector(space, (low + high) / math.sqrt(2.0))
    args = (p, rho0, 20.0)
    kwargs = dict(snapshot_dt=1.0, include_atomic_decay=True, detect_steady=False)
    cascade = evolve(*args, **kwargs)
    assert cascade.diagnostics.propagator == "cascade"
    assert cascade.diagnostics.max_offblock > 0.1
    gen = lindblad_generator(p, space, include_atomic_decay=True)
    rhs = np.abs(gen.apply(cascade.states[-1].data)).max()
    assert cascade.diagnostics.rhs_sup_last == pytest.approx(rhs, rel=1e-9)
    rk45 = _tight_rk45(monkeypatch, *args, **kwargs)
    assert _max_gap(cascade, rk45) < 1e-9
    assert rk45.diagnostics.rhs_sup_last == np.abs(gen.apply(rk45.states[-1].data)).max()


def _oracle_run(apply, rho0, times):
    dim = rho0.space.dim
    ref = solve_ivp(lambda _t, y: apply(y.reshape(dim, dim)).ravel(), (0.0, times[-1]),
                    rho0.data.ravel(), t_eval=times, rtol=1e-10, atol=1e-12)
    assert ref.success
    return [ref.y[:, i].reshape(dim, dim) for i in range(len(times))]


def test_exceptional_point_takes_the_rk45_fallback():
    # g = gamma_c / 4: the K = 1 block of H_eff is not diagonalisable
    p = triple_cavity(m_atoms=1, g=0.25, gamma_c=1.0)
    space = stack_sectors(p, 1)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 1))
    traj = evolve(p, rho0, 20.0, snapshot_dt=1.0, detect_steady=False)
    assert traj.diagnostics.propagator == "rk45"
    assert traj.diagnostics.fallback_reason.startswith("sector 1: H_eff eigenvectors")
    assert traj.diagnostics.n_rhs_evaluations > 0
    gen = lindblad_generator(p, space)
    assert traj.diagnostics.rhs_sup_last == np.abs(gen.apply(traj.states[-1].data)).max()
    oracle = _oracle_run(dense_lindblad_apply(p, space), rho0, traj.times)
    for state, ref in zip(traj.states, oracle):
        assert np.abs(state.data - ref).max() < 1e-7


def test_resonant_cascade_takes_the_rk45_fallback(monkeypatch):
    # g = 0 leaves the atoms alone with their collective decay.  For M = 2,
    # |J_L = 2> and |J_L = 1> both decay at 2 gamma_a, so the population of
    # |J_L = 1> is the secular 2 gamma_a t exp(-2 gamma_a t).
    gamma_a = 0.05
    p = triple_cavity(m_atoms=2, g=0.0, gamma_c=1.0, gamma_a=gamma_a)
    space = stack_sectors(p, 2)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 2))
    rate = 2 * gamma_a
    kwargs = dict(snapshot_dt=1.0, include_atomic_decay=True, detect_steady=False)
    traj = evolve(p, rho0, 40.0, **kwargs)
    assert traj.diagnostics.propagator == "rk45"
    assert "too small for a source" in traj.diagnostics.fallback_reason
    two = space.offsets[2] + space.sectors[2].indices([[0, 0, 0, 2, 0]])[0]
    one = space.offsets[1] + space.sectors[1].indices([[0, 0, 0, 1, 0]])[0]
    for t, state in traj:
        assert state.data[two, two].real == pytest.approx(math.exp(-rate * t), abs=1e-7)
        assert state.data[one, one].real == pytest.approx(rate * t * math.exp(-rate * t),
                                                          abs=1e-7)
    # without its resonance guard the cascade loses the trace, which stops
    # the run; without the trace check too it returns a wrong trajectory
    monkeypatch.setattr(dynamics, "_CASCADE_TOL", 1e300)
    with pytest.raises(IntegrationError, match="trace drifted at t=1"):
        evolve(p, rho0, 40.0, **kwargs)
    monkeypatch.setattr(dynamics, "TRACE_DRIFT_LIMIT", math.inf)
    unguarded = evolve(p, rho0, 40.0, **kwargs)
    assert unguarded.diagnostics.propagator == "cascade"
    assert abs(unguarded.states[-1].data[one, one].real - rate * 40 * math.exp(-rate * 40)) > 1e-3


def test_min_eigenvalue_of_a_block_diagonal_state_uses_the_block_spectra():
    p = triple_cavity(m_atoms=2, g=0.3)
    space = stack_sectors(p, 2)
    rng = np.random.default_rng(5)
    data = np.zeros((space.dim, space.dim), dtype=complex)
    for k in range(3):
        d = space.sectors[k].dim
        x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        data[space.sector_slice(k), space.sector_slice(k)] = x + x.conj().T
    full = np.linalg.eigvalsh(data)[0]
    blocks = min(np.linalg.eigvalsh(data[space.sector_slice(k), space.sector_slice(k)])[0]
                 for k in range(3))
    assert DensityMatrix(space, data).min_eigenvalue() == blocks
    assert blocks == pytest.approx(full, abs=1e-12)
    data[0, -1] = data[-1, 0] = 0.5  # a coherence between sectors 0 and 2
    assert DensityMatrix(space, data).min_eigenvalue() == np.linalg.eigvalsh(data)[0]
