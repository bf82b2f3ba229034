"""Independent reference implementations used to cross-check the package.

Everything here is deliberately brute force: enumeration over full product
spaces, operator composition in the normal-mode picture, dense
diagonalization.  None of it shares code paths with the implementations it
checks.
"""

import itertools
import math

import numpy as np

from cavitybic import (BasisState, build_collective_lowering,
                       build_end_annihilation, build_hamiltonian,
                       build_normal_mode, coupling_lambda, enumerate_sector,
                       normal_mode_frequency)


def brute_force_sector(params, k):
    """All basis states of excitation number k, by filtering the full
    truncated product space."""
    if k < 0:
        return []
    cap = params.fock_cutoff if params.fock_cutoff is not None else k
    n = params.n_chain
    ranges = [range(cap + 1)] * (n + 1) + [range(params.m_atoms + 1)] * 2
    states = []
    for occ in itertools.product(*ranges):
        if sum(occ) == k:
            states.append(BasisState(occ[0], occ[1:n], occ[n], occ[n + 1], occ[n + 2]))
    return sorted(states)


def mode_fock_embedding(params, k, table):
    """Trapped-state vector over sector k from an amplitude table, built as
    sum over (m, n) of table[m, n] (B_q^dagger)^m / sqrt(m!) applied to the
    atomic state |0...0, n, k - m - n>: each creation step is the adjoint
    of the normal-mode annihilation matrix, so no multinomial is used."""
    sectors = [enumerate_sector(params, j) for j in range(k + 1)]
    raising = [build_normal_mode(params, sectors[j + 1], sectors[j], params.q).conj().T
               for j in range(k)]
    vacuum = (0,) * (params.n_chain - 1)
    vec = np.zeros(sectors[k].dim, dtype=complex)
    for m in range(k + 1):
        for n in range(k + 1 - m):
            atoms = sectors[k - m]
            state = np.zeros(atoms.dim, dtype=complex)
            state[atoms.index_of(BasisState(0, vacuum, 0, n, k - m - n))] = 1.0
            for j in range(k - m, k):
                state = raising[j] @ state
            vec += table[m, n] * state / math.sqrt(math.factorial(m))
    return vec


def hamiltonian_normal_mode_picture(params, sector, sector_km1):
    """Dense Hamiltonian assembled in the normal-mode picture: free mode
    energies plus each end cavity exchanging with (g J- + sum_k lambda_k B_k)."""
    dim = sector.dim
    h = np.zeros((dim, dim), dtype=complex)
    for i, s in enumerate(sector.states):
        h[i, i] = (params.omega_c * (s.photons_left + s.photons_right)
                   + params.omega_a * (s.excited_left + s.excited_right - params.m_atoms))
    for k in range(1, params.n_chain):
        bk = build_normal_mode(params, sector, sector_km1, k).toarray()
        h += normal_mode_frequency(params, k) * (bk.conj().T @ bk)
    for side in ("L", "R"):
        a_op = build_end_annihilation(params, sector, sector_km1, side).toarray()
        j_low = build_collective_lowering(params, sector, sector_km1, side).toarray()
        drain = params.g * j_low
        for k in range(1, params.n_chain):
            bk = build_normal_mode(params, sector, sector_km1, k).toarray()
            drain = drain + coupling_lambda(params, k, side) * bk
        coupling = a_op.conj().T @ drain
        h += coupling + coupling.conj().T
    return h


def eigenspace_projection(h_dense, energy, vector, window=1e-8):
    """Squared norm of the projection of ``vector`` onto the eigenspace of
    ``h_dense`` with eigenvalues within ``window`` of ``energy``."""
    evals, evecs = np.linalg.eigh(h_dense)
    mask = np.abs(evals - energy) <= window * max(1.0, np.abs(evals).max())
    if not mask.any():
        return 0.0
    block = evecs[:, mask]
    coeffs = block.conj().T @ vector
    return float(np.real(coeffs.conj() @ coeffs))


def atomic_reduced_density(state):
    """Partial trace over all photon occupations, onto the
    (M+1)^2 two-ensemble product basis (index n_left*(M+1)+n_right)."""
    space = state.space
    m_atoms = space.params.m_atoms
    side = m_atoms + 1
    reduced = np.zeros((side * side, side * side), dtype=complex)
    basis_states = []
    for k in range(space.k_max + 1):
        offset = space.offsets[k]
        for i, s in enumerate(space.sectors[k].states):
            basis_states.append((offset + i, s))
    for i, si in basis_states:
        photons_i = (si.photons_left, si.photons_mid, si.photons_right)
        for j, sj in basis_states:
            if photons_i == (sj.photons_left, sj.photons_mid, sj.photons_right):
                row = si.excited_left * side + si.excited_right
                col = sj.excited_left * side + sj.excited_right
                reduced[row, col] += state.data[i, j]
    return reduced


def dense_lindblad_apply(params, space, include_atomic_decay=False):
    """Master-equation right-hand side on the whole stacked space by dense
    d x d matrix products, with the rotating-frame Hamiltonian and every
    jump operator stacked as full dense matrices."""
    dim = space.dim
    h = np.zeros((dim, dim), dtype=complex)
    for k, sector in enumerate(space.sectors):
        block = build_hamiltonian(params, sector).toarray()
        block -= params.omega_c * k * np.eye(sector.dim)
        h[space.sector_slice(k), space.sector_slice(k)] = block

    def stacked_lowering(builder, side):
        full = np.zeros((dim, dim), dtype=complex)
        for k in range(1, space.k_max + 1):
            op = builder(params, space.sectors[k], space.sectors[k - 1], side)
            full[space.sector_slice(k - 1), space.sector_slice(k)] = op.toarray()
        return full

    jumps = []
    if params.gamma_c > 0:
        jumps += [(params.gamma_c, stacked_lowering(build_end_annihilation, side))
                  for side in ("L", "R")]
    if include_atomic_decay and params.gamma_a > 0:
        jumps += [(params.gamma_a, stacked_lowering(build_collective_lowering, side))
                  for side in ("L", "R")]

    def apply(rho):
        out = -1j * (h @ rho - rho @ h)
        for rate, op in jumps:
            op_dag = op.conj().T
            out += rate * (op @ rho @ op_dag)
            out -= (0.5 * rate) * (op_dag @ op @ rho + rho @ op_dag @ op)
        return out

    return apply
