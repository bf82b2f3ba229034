"""Lowering maps of the sector occupations, and the interior Hamiltonian
built from them.

Conventions
-----------
- A sector state is a row of ``SectorBasis.occupations`` (end cavities,
  middle cavities, excited-atom counts of the two ensembles).  A lowering
  map lowers every row of sector K in one slot and finds the results in
  sector K - 1; ``lowering_maps`` ranks them there from the rows' own
  prefix sums (``SectorBasis.lowered_indices``), slot by slot, with no
  lowered row built and no search.
- Ladder operators map sector K to sector K - 1; all of them come from one
  lowering primitive, ``lowering_maps``.  A ``LoweringMap`` holds its
  nonzero entries and applies itself and its adjoint to a vector without a
  matrix (``apply_hamiltonian`` does the same for H).
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
- Everything here is a pure function of immutable inputs, so identical
  inputs give bitwise identical maps and entries.
- The Hamiltonian has one construction, ``_hamiltonian_entries``: its
  nonzero entries from the lowering maps.  ``dynamics.lindblad_generator``
  turns them into dense sector blocks.
- No matrix is built here and no scipy module is loaded: the dense
  matrices of these operators that the tests compare against are built
  independently, by brute force, in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .model import ModelParams, SectorBasis


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
    if side not in ("L", "R"):
        raise ValueError(f"side must be 'L' or 'R', got {side!r}")
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


class LoweringMap(NamedTuple):
    """Annihilation map of one occupation slot from sector K to sector K - 1,
    as its nonzero entries: column ``cols[i]`` of sector K goes to row
    ``rows[i]`` of sector K - 1 with amplitude ``amp[i]`` (real).  A state
    has one lowered image per slot and the image fixes the state, so every
    row and every column holds at most one entry.  ``shape`` is
    (dim K - 1, dim K)."""

    cols: np.ndarray
    rows: np.ndarray
    amp: np.ndarray
    shape: tuple[int, int]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The map applied to ``v`` over sector K: a scatter into sector K - 1."""
        out = np.zeros(self.shape[0], dtype=np.result_type(v, self.amp))
        out[self.rows] = self.amp * v[self.cols]
        return out

    def apply_adjoint(self, w: np.ndarray) -> np.ndarray:
        """The raising map (the adjoint) applied to ``w`` over sector K - 1:
        a gather into sector K."""
        out = np.zeros(self.shape[1], dtype=np.result_type(w, self.amp))
        out[self.cols] = self.amp * w[self.rows]
        return out


def lowering_maps(params: ModelParams, sector_k: SectorBasis, sector_km1: SectorBasis,
                  slots: Sequence[int] | None = None) -> list[LoweringMap]:
    """Lowering map of each of ``slots`` (default: every slot), from
    ``sector_k`` to ``sector_km1``, which must be sector K - 1 of the same
    chain and ensembles, both those of ``params`` (``ValueError``
    otherwise).

    Amplitude sqrt(n) on photon slots and sqrt(n (M - n + 1)) on atom slots.
    Each slot's lowered states are ranked in ``sector_km1`` from their
    parents' prefix sums (``SectorBasis.lowered_indices``), with no lowered
    row built.
    """
    occ = sector_k.occupations
    # the slots and the atomic amplitudes are read from params
    if (params.n_chain, params.m_atoms) != (occ.shape[1] - 3, sector_k.m_atoms):
        raise ValueError(f"sectors of (n_chain, m_atoms) = ({occ.shape[1] - 3}, {sector_k.m_atoms})"
                         f" do not match params ({params.n_chain}, {params.m_atoms})")
    if slots is None:
        slots = range(occ.shape[1])
    maps = []
    for slot, (cols, rows) in zip(slots, sector_k.lowered_indices(sector_km1, slots)):
        n = occ[cols, slot]
        amp = np.sqrt(n * (params.m_atoms - n + 1) if slot > params.n_chain else n)
        maps.append(LoweringMap(cols, rows, amp, (sector_km1.dim, sector_k.dim)))
    return maps


def _exchanges(params: ModelParams) -> list[tuple[float, int, int]]:
    """(amplitude, raised slot, lowered slot) of every exchange term A+ B:
    atoms with their end cavity at rate g, neighbouring cavities at rate lam."""
    n = params.n_chain
    return [(params.g, 0, n + 1), (params.g, n, n + 2),
            (params.lam, 0, 1), (params.lam, n, n - 1),
            *((params.lam, i, i + 1) for i in range(1, n - 1))]


def _free_energies(params: ModelParams, sector: SectorBasis) -> np.ndarray:
    """Diagonal of the Hamiltonian: cavity and atomic energies of each state."""
    n, occ = params.n_chain, sector.occupations
    return (params.omega_c * occ[:, :n + 1].sum(axis=1)
            + params.omega_a * (occ[:, n + 1:].sum(axis=1) - params.m_atoms))


def _hamiltonian_entries(params: ModelParams, sector: SectorBasis,
                         maps: Sequence[LoweringMap]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of the nonzero entries of the interior
    Hamiltonian on ``sector``, from the lowering maps of every slot: the
    free energies on the diagonal, then each exchange term amp A+ B and its
    adjoint.  Entry (i, j) of A+ B joins column i of A and column j of B at
    their common row of sector K - 1, with value (amp a_up) a_down.  A map
    holds at most one entry per row, and each term moves one excitation
    between its own pair of slots, so no two entries share a position."""
    diag = np.arange(sector.dim)
    entries = [(diag, diag, _free_energies(params, sector))]
    for amp, up, down in _exchanges(params):
        a_up, a_down = maps[up], maps[down]
        # position of A's entry at each row of sector K - 1 that B reaches, -1 if none
        at = np.full(a_up.shape[0], -1)
        at[a_up.rows] = np.arange(len(a_up.rows))
        at = at[a_down.rows]
        both = at >= 0
        at = at[both]
        i, j = a_up.cols[at], a_down.cols[both]
        v = (amp * a_up.amp[at]) * a_down.amp[both]
        entries += [(i, j, v), (j, i, v)]
    rows, cols, values = map(np.concatenate, zip(*entries))
    # drop zeros (-0.0 too), as canonical CSR does, so that a dense block
    # holds +0.0 wherever H is zero
    nonzero = values != 0
    return rows[nonzero], cols[nonzero], values[nonzero]


def apply_hamiltonian(params: ModelParams, sector: SectorBasis, maps: Sequence[LoweringMap],
                      v: np.ndarray, lowered: Sequence[np.ndarray]) -> np.ndarray:
    """H v without a matrix, the same sum as ``_hamiltonian_entries``:
    diag v + sum amp (A+ (B v) + B+ (A v)) over the exchange terms A+ B.

    ``maps`` are the lowering maps of every slot of ``sector`` and
    ``lowered[slot]`` is ``maps[slot].apply(v)``.  The terms raised through
    one slot are summed in sector K - 1 first, so each slot raises once.
    """
    into = [np.zeros_like(w) for w in lowered]
    for amp, up, down in _exchanges(params):
        into[up] += amp * lowered[down]
        into[down] += amp * lowered[up]
    hv = _free_energies(params, sector) * v
    for m, w in zip(maps, into):
        hv += m.apply_adjoint(w)
    return hv
