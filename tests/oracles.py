"""Independent reference implementations used to cross-check the package.

Everything here is deliberately brute force: enumeration over full product
spaces, ladder operators lowered one state at a time and found through a
dict, dense operator products, operator composition in the normal-mode
picture, dense diagonalization.  None of it shares code paths with the
implementations it checks: no lowering map, Hamiltonian entry or
matrix-free apply of ``cavitybic.operators``, no normal-mode weight table,
and no basis rank table of ``SectorBasis`` is used here.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from cavitybic import (BasisState, coupling_lambda, enumerate_sector,
                       normal_mode_frequency)
from cavitybic.dynamics import MAX_KEPT_ENTRIES, MAX_REACHED_ENTRIES, MAX_SNAPSHOTS
from cavitybic.model import sector_dim


def _positions(sector):
    """Index of each occupation row of ``sector``, as a dict."""
    return {tuple(row): i for i, row in enumerate(sector.occupations.tolist())}


def ladder(params, sector, sector_km1, slot):
    """Dense lowering matrix of one occupation slot from ``sector`` to
    ``sector_km1``: each row lowered in a Python loop and looked up by
    value, with amplitude sqrt(n) on a photon slot and sqrt(n (M - n + 1))
    on an atom slot."""
    target = _positions(sector_km1)
    out = np.zeros((sector_km1.dim, sector.dim))
    for col, occ in enumerate(sector.occupations.tolist()):
        n = occ[slot]
        if n:
            occ[slot] -= 1
            atom = slot > params.n_chain
            out[target[tuple(occ)], col] = math.sqrt(n * (params.m_atoms - n + 1) if atom else n)
    return out


def end_annihilation(params, sector, sector_km1, side):
    """Annihilation operator a_L or a_R of an end cavity."""
    return ladder(params, sector, sector_km1, 0 if side == "L" else params.n_chain)


def collective_lowering(params, sector, sector_km1, side):
    """Collective lowering operator J- of the left or right ensemble."""
    return ladder(params, sector, sector_km1, params.n_chain + (1 if side == "L" else 2))


def normal_mode(params, sector, sector_km1, k):
    """Normal-mode annihilation operator B_k = sum_n sqrt(2/N) sin(k n pi / N) b_n."""
    n_chain = params.n_chain
    return sum(math.sqrt(2.0 / n_chain) * math.sin(k * n * math.pi / n_chain)
               * ladder(params, sector, sector_km1, n) for n in range(1, n_chain))


def hamiltonian(params, sector, sector_km1):
    """Dense interior Hamiltonian: each state's free energy on the diagonal,
    plus X + X^T for every exchange term amp A+ B, with X = (amp A)^T B
    formed from the dense ladders of the raised slot A and the lowered
    slot B through ``sector_km1``."""
    n, m_atoms = params.n_chain, params.m_atoms
    h = np.diag([params.omega_c * sum(occ[:n + 1]) + params.omega_a * (sum(occ[n + 1:]) - m_atoms)
                 for occ in sector.occupations.tolist()]).astype(float)
    # (amplitude, raised slot, lowered slot): each atom ensemble with its end
    # cavity, each end cavity with its middle neighbour, then the middle pairs
    exchanges = [(params.g, 0, n + 1), (params.g, n, n + 2), (params.lam, 0, 1),
                 (params.lam, n, n - 1), *((params.lam, i, i + 1) for i in range(1, n - 1))]
    for amp, up, down in exchanges:
        raised = amp * ladder(params, sector, sector_km1, up)
        x = raised.T @ ladder(params, sector, sector_km1, down)
        h += x + x.T
    return h


def brute_force_sector(params, k):
    """All basis states of excitation number k, by filtering the product
    space of 0 .. k photons per cavity and 0 .. m_atoms per ensemble."""
    if k < 0:
        return []
    n = params.n_chain
    ranges = [range(k + 1)] * (n + 1) + [range(params.m_atoms + 1)] * 2
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
    raising = [normal_mode(params, sectors[j + 1], sectors[j], params.q).T
               for j in range(k)]
    vacuum = (0,) * (params.n_chain + 1)
    vec = np.zeros(sectors[k].dim, dtype=complex)
    for m in range(k + 1):
        for n in range(k + 1 - m):
            atoms = sectors[k - m]
            state = np.zeros(atoms.dim, dtype=complex)
            state[_positions(atoms)[(*vacuum, n, k - m - n)]] = 1.0
            for j in range(k - m, k):
                state = raising[j] @ state
            vec += table[m, n] * state / math.sqrt(math.factorial(m))
    return vec


def condition_matrices(params, k):
    """Matrices of the two interference conditions on the (m, n) label grid,
    mapping the K grid to the K - 1 grid, built cell by cell from ladder
    matrix elements, each grid numbered by a dict in m-major order."""
    m_at = params.m_atoms
    g = params.g
    lam_l = coupling_lambda(params, params.q, "L")
    lam_r = coupling_lambda(params, params.q, "R")

    def grid(kk):
        cells = [(m, n) for m in range(kk + 1) for n in range(kk + 1 - m)]
        return {cell: i for i, cell in enumerate(cells)}

    src = grid(k)
    dst = grid(k - 1) if k >= 1 else {}
    a_left = np.zeros((len(dst), len(src)))
    a_right = np.zeros((len(dst), len(src)))
    for (m, n), j in src.items():
        r = k - m - n
        if n >= 1:  # JL- lowers the left ensemble
            a_left[dst[(m, n - 1)], j] += g * math.sqrt(n * (m_at - n + 1))
        if r >= 1:  # JR- lowers the right ensemble, same (m, n) labels
            a_right[dst[(m, n)], j] += g * math.sqrt(r * (m_at - r + 1))
        if m >= 1:  # B_q removes one resonant-mode photon
            a_left[dst[(m - 1, n)], j] += lam_l * math.sqrt(m)
            a_right[dst[(m - 1, n)], j] += lam_r * math.sqrt(m)
    return a_left, a_right


def hamiltonian_normal_mode_picture(params, sector, sector_km1):
    """Dense Hamiltonian assembled in the normal-mode picture: free mode
    energies plus each end cavity exchanging with (g J- + sum_k lambda_k B_k)."""
    dim = sector.dim
    h = np.zeros((dim, dim), dtype=complex)
    for i, s in enumerate(sector.states):
        h[i, i] = (params.omega_c * (s.photons_left + s.photons_right)
                   + params.omega_a * (s.excited_left + s.excited_right - params.m_atoms))
    modes = [normal_mode(params, sector, sector_km1, k) for k in range(1, params.n_chain)]
    for k, bk in enumerate(modes, start=1):
        h += normal_mode_frequency(params, k) * (bk.T @ bk)
    for side in ("L", "R"):
        a_op = end_annihilation(params, sector, sector_km1, side)
        drain = params.g * collective_lowering(params, sector, sector_km1, side)
        for k, bk in enumerate(modes, start=1):
            drain = drain + coupling_lambda(params, k, side) * bk
        coupling = a_op.T @ drain
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
        block = hamiltonian(params, sector, enumerate_sector(params, k - 1))
        block -= params.omega_c * k * np.eye(sector.dim)
        h[space.sector_slice(k), space.sector_slice(k)] = block

    def stacked_lowering(ladder_of, side):
        full = np.zeros((dim, dim), dtype=complex)
        for k in range(1, space.k_max + 1):
            op = ladder_of(params, space.sectors[k], space.sectors[k - 1], side)
            full[space.sector_slice(k - 1), space.sector_slice(k)] = op
        return full

    jumps = []
    if params.gamma_c > 0:
        jumps += [(params.gamma_c, stacked_lowering(end_annihilation, side))
                  for side in ("L", "R")]
    if include_atomic_decay and params.gamma_a > 0:
        jumps += [(params.gamma_a, stacked_lowering(collective_lowering, side))
                  for side in ("L", "R")]

    def apply(rho):
        out = -1j * (h @ rho - rho @ h)
        for rate, op in jumps:
            op_dag = op.conj().T
            out += rate * (op @ rho @ op_dag)
            out -= (0.5 * rate) * (op_dag @ op @ rho + rho @ op_dag @ op)
        return out

    return apply


def evolve_refused(params, initial_k, t_end, snapshot_dt):
    """Whether the ``evolve`` command must refuse a run from sector
    ``initial_k`` (m_atoms when negative) to ``t_end`` in steps of at most
    ``snapshot_dt``, its steps counted in exact rationals: a start above
    m_atoms, a time that is not > 0, more than MAX_SNAPSHOTS steps, or a
    reach of more than MAX_REACHED_ENTRIES entries, or of more than
    MAX_KEPT_ENTRIES over every snapshot, t = 0 included.  The reach is
    sum d_j^2 over j <= K with a nonzero damping rate and d_K^2 alone
    without one."""
    k = params.m_atoms if initial_k < 0 else initial_k
    if k > params.m_atoms or not (t_end > 0 and snapshot_dt > 0):
        return True
    steps = Fraction(t_end) / Fraction(snapshot_dt)
    if steps > MAX_SNAPSHOTS:
        return True
    damped = params.gamma_c > 0 or params.gamma_a > 0
    reached = sum(sector_dim(params, j) ** 2 for j in (range(k + 1) if damped else [k]))
    snapshots = max(1, math.ceil(steps)) + 1
    return reached > MAX_REACHED_ENTRIES or reached * snapshots > MAX_KEPT_ENTRIES
