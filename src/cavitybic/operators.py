"""Sparse matrix representations of the interior Hamiltonian and ladder maps.

Conventions
-----------
- A sector state is a row of ``SectorBasis.occupations`` (end cavities,
  middle cavities, excited-atom counts of the two ensembles).  A ladder
  lowers every row of sector K at once and finds the results in sector
  K - 1 with one ``SectorBasis.indices`` call.
- Every operator is a complex ``scipy.sparse.csr_matrix`` in canonical form
  (sorted indices, no duplicates, no stored zeros).  Ladder operators map
  sector K to sector K - 1; all of them come from one lowering primitive,
  ``_lower``, and their adjoints are ``.conj().T``.
- Photon ladder action:  a |n> = sqrt(n) |n - 1>.
- Collective (symmetric-subspace) ladder action for an ensemble of M atoms
  with n excited:  J- |n> = sqrt(n (M - n + 1)) |n - 1>,
                   J+ |n> = sqrt((n + 1)(M - n)) |n + 1>,
                   Jz |n> = (n - M/2) |n>.
- Chain normal modes:  B_k = sqrt(2/N) sum_n b_n sin(k n pi / N) for
  k = 1 .. N - 1, with frequencies Omega_k = omega_c + 2 lam cos(k pi / N).
- The Hamiltonian is  H = sum omega n + sum (A+ B + h.c.)  in the local b_n
  basis: the free energies on the diagonal, and one exchange term A+ B per
  neighbouring pair (atoms with their end cavity at rate g, neighbouring
  cavities at rate lam).  The normal-mode picture is kept as an
  independent verification path in the test suite.
- All builders are pure functions of immutable inputs, so identical inputs
  give bitwise identical operators.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import sparse

from .model import ModelParams, SectorBasis, enumerate_sector

_SIDES = ("L", "R")


def mode_weights(n_chain: int, k_index: int) -> np.ndarray:
    """Coefficients of normal mode k over the middle cavities b_1 .. b_{N-1}."""
    if not 1 <= k_index <= n_chain - 1:
        raise ValueError(f"mode index out of range: 1 <= k <= {n_chain - 1}")
    n = np.arange(1, n_chain)
    return np.sqrt(2.0 / n_chain) * np.sin(k_index * n * np.pi / n_chain)


def coupling_lambda(params: ModelParams, k: int, side: str) -> float:
    """Coupling of normal mode k to the left or right end cavity.

    The right coupling equals the left one times the parity factor
    (-1)^(k+1); the sign is computed exactly rather than through the sine.
    """
    _check_side(side)
    if not 1 <= k <= params.n_chain - 1:
        raise ValueError(f"mode index out of range: 1 <= k <= {params.n_chain - 1}")
    left = params.lam * math.sqrt(2.0 / params.n_chain) * math.sin(k * math.pi / params.n_chain)
    if side == "L":
        return left
    return (-1) ** (k + 1) * left


def normal_mode_frequency(params: ModelParams, k: int) -> float:
    """Frequency of chain normal mode k."""
    if not 1 <= k <= params.n_chain - 1:
        raise ValueError(f"mode index out of range: 1 <= k <= {params.n_chain - 1}")
    return params.omega_c + 2.0 * params.lam * math.cos(k * math.pi / params.n_chain)


def _check_side(side: str) -> None:
    if side not in _SIDES:
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")


def _canonical(matrix) -> sparse.csr_matrix:
    m = sparse.csr_matrix(matrix, dtype=np.complex128)
    m.sum_duplicates()
    m.eliminate_zeros()
    return m


def _lower(params: ModelParams, sector_k: SectorBasis, sector_km1: SectorBasis,
           slot: int) -> sparse.csr_matrix:
    """Annihilation map of one occupation slot from ``sector_k`` to
    ``sector_km1``.

    Amplitude sqrt(n) on photon slots and sqrt(n (M - n + 1)) on atom slots.
    """
    occ = sector_k.occupations
    present = occ[:, slot] > 0
    lowered = occ[present]
    lowered[:, slot] -= 1
    try:
        rows = sector_km1.indices(lowered)
    except ValueError:
        raise ValueError("target sector does not contain every lowered state") from None
    n = occ[present, slot]
    if slot > params.n_chain:
        n = n * (params.m_atoms - n + 1)
    # at most one entry per column; the CSC constructor narrows the index type
    indptr = np.concatenate(([0], np.cumsum(present)))
    return _canonical(sparse.csc_matrix((np.sqrt(n), rows, indptr),
                                       shape=(sector_km1.dim, sector_k.dim)))


def build_hamiltonian(params: ModelParams, sector: SectorBasis,
                      sector_km1: SectorBasis | None = None) -> sparse.csr_matrix:
    """Interior Hamiltonian (cavity energies, atomic energies, hopping and
    atom-field exchange) restricted to one excitation sector.

    Built as diag(omega n) + X + X^dagger with X the sum of the exchange
    terms (amplitude A+) @ B, so H is exactly Hermitian.  ``sector_km1``,
    the sector K - 1 basis the exchange terms pass through, is enumerated
    when not given.
    """
    n = params.n_chain
    occ = sector.occupations
    if sector_km1 is None:
        sector_km1 = enumerate_sector(params, sector.k_excitations - 1)
    lower = [_lower(params, sector, sector_km1, slot) for slot in range(n + 3)]
    # (amplitude, raised slot, lowered slot)
    exchanges = [(params.g, 0, n + 1), (params.g, n, n + 2),
                 (params.lam, 0, 1), (params.lam, n, n - 1),
                 *((params.lam, i, i + 1) for i in range(1, n - 1))]
    terms = [(amp * lower[up].T) @ lower[down] for amp, up, down in exchanges]
    x = sum(terms[1:], terms[0])
    diag = (params.omega_c * occ[:, :n + 1].sum(axis=1)
            + params.omega_a * (occ[:, n + 1:].sum(axis=1) - params.m_atoms))
    return _canonical(sparse.diags(diag, dtype=np.float64) + x + x.conj().T)


def build_number_op(params: ModelParams, sector: SectorBasis) -> sparse.csr_matrix:
    """Total excitation-number operator (diagonal on any sector)."""
    return _canonical(sparse.diags(sector.occupations.sum(axis=1), dtype=np.complex128))


def build_end_annihilation(params: ModelParams, sector_k: SectorBasis,
                           sector_km1: SectorBasis, side: str) -> sparse.csr_matrix:
    """Annihilation operator of an end cavity, mapping sector K to K - 1."""
    _check_side(side)
    return _lower(params, sector_k, sector_km1, 0 if side == "L" else params.n_chain)


def build_collective_lowering(params: ModelParams, sector_k: SectorBasis,
                              sector_km1: SectorBasis, side: str) -> sparse.csr_matrix:
    """Collective atomic lowering operator J- of one ensemble, K -> K - 1."""
    _check_side(side)
    return _lower(params, sector_k, sector_km1, params.n_chain + (1 if side == "L" else 2))


def build_normal_mode(params: ModelParams, sector_k: SectorBasis,
                      sector_km1: SectorBasis, k_index: int) -> sparse.csr_matrix:
    """Normal-mode annihilation operator B_k as a sparse map K -> K - 1."""
    terms = [w * _lower(params, sector_k, sector_km1, slot)
             for slot, w in enumerate(mode_weights(params.n_chain, k_index), start=1)]
    return _canonical(sum(terms[1:], terms[0]))
