"""Physical parameters and fixed-excitation-number basis enumeration.

The system is a chain of ``n_chain + 1`` cavities with nearest-neighbour
photon hopping ``lam``.  The leftmost and rightmost cavities each contain
``m_atoms`` identical two-level atoms coupled to the local field with
strength ``g``; the atoms are treated as a single collective spin, i.e.
only the symmetric subspace (dimension ``m_atoms + 1`` per ensemble) is
represented.  The end cavities leak into outside continua at rate
``gamma_c``; ``gamma_a`` is the single-atom spontaneous decay rate used by
the collective-damping variants.

The closed part of the Hamiltonian conserves the total excitation number
(end photons + chain photons + excited atoms), so all linear algebra is
done on fixed-excitation sectors, each enumerated here as an occupation array.
A sector is enumerated as one array program over its slots: each slot
extends only the prefixes that some row completes, and the table is then
filled column by column from the prefixes' parent pointers.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


# Upper bound on the entries of one occupation table (states times the
# n_chain + 3 slots), 32 MiB of int64: about 7 times the largest benchmarked
# sector, (N, M, K) = (12, 6, 6) with 38,760 x 15 = 581,400 entries.
MAX_SECTOR_ENTRIES = 2 ** 22


class ParamError(ValueError):
    """A model parameter violates one of its invariants, a command line or
    its config is malformed, or a run's input is out of range (``evolve``'s
    time grid, or a reach above its size bounds)."""


class NoResonantModeError(ValueError):
    """No chain normal mode lies within tolerance of the atomic frequency."""


class NoTrappedStateError(ValueError):
    """Raised when K exceeds M, where the interference conditions have no solution."""


@dataclass(frozen=True, kw_only=True)
class ModelParams:
    """Immutable bundle of physical constants.

    Frequencies and rates share one unit system chosen by the caller; the
    command-line front end fixes ``lam = 1`` and quotes everything in units
    of the hopping rate.
    """

    n_chain: int            # number of middle cavities is n_chain - 1
    m_atoms: int            # atoms per end cavity
    omega_c: float          # cavity resonance frequency
    omega_a: float          # atomic transition frequency
    g: float                # atom-field coupling
    lam: float              # nearest-neighbour hopping rate (> 0)
    q: int                  # resonant chain-mode index, 1 <= q <= n_chain - 1
    gamma_c: float = 0.0    # end-cavity leakage rate
    gamma_a: float = 0.0    # single-atom spontaneous decay rate

    @property
    def delta(self) -> float:
        """Cavity-atom detuning omega_c - omega_a (derived, never stored)."""
        return self.omega_c - self.omega_a

    def replace(self, **changes) -> "ModelParams":
        return dataclasses.replace(self, **changes)


class BasisState(NamedTuple):
    """Occupation-number label of one basis vector.

    Atomic occupations count excited atoms in the symmetric subspace of
    each ensemble.  Tuple ordering doubles as the deterministic
    lexicographic sort key."""

    photons_left: int
    photons_mid: tuple[int, ...]
    photons_right: int
    excited_left: int
    excited_right: int

    def excitation_number(self) -> int:
        return (self.photons_left + sum(self.photons_mid) + self.photons_right
                + self.excited_left + self.excited_right)


class SectorBasis:
    """Complete, duplicate-free, lexicographically ordered basis of one
    fixed-excitation sector, stored as its occupation rows.

    ``occupations`` is an int64 array of shape (dim, n_chain + 3), slots
    a_L, b_1 .. b_{N-1}, a_R, J_L, J_R, holding every row of K excitations
    with both atomic entries at most ``m_atoms``; row i, in ascending
    lexicographic order, is basis state i.  ``indices`` maps rows back to
    positions by their closed-form lexicographic rank, from a table of
    suffix counts built here, and ``lowered_indices`` ranks the rows
    lowered by one in a slot in sector K - 1 from the same tables, with no
    lowered row built: both are correct only for the complete sectors that
    ``enumerate_sector`` builds.
    """

    __slots__ = ("k_excitations", "occupations", "m_atoms", "_rank_terms")

    def __init__(self, k_excitations: int, occupations: np.ndarray, m_atoms: int):
        self.k_excitations = k_excitations
        self.occupations = occupations
        self.m_atoms = m_atoms
        self._rank_terms = _rank_terms(k_excitations, _slot_caps(
            occupations.shape[1] - 3, m_atoms, k_excitations))

    @property
    def dim(self) -> int:
        return len(self.occupations)

    def __len__(self) -> int:
        return len(self.occupations)

    @property
    def states(self) -> tuple[BasisState, ...]:
        """The basis states as labels, in basis order (built on each access)."""
        n = self.occupations.shape[1] - 3
        return tuple(BasisState(occ[0], tuple(occ[1:n]), occ[n], occ[n + 1], occ[n + 2])
                     for occ in self.occupations.tolist())

    def indices(self, rows: np.ndarray) -> np.ndarray:
        """Basis indices of the occupation ``rows`` (integers, shape
        (r, n_chain + 3)); raises ``ValueError`` unless every row is a state
        of this sector.

        A row is a state exactly when its entries lie in 0 .. K, both atomic
        entries are at most M and they sum to K; its index is then its rank,
        the sum over slots j of ``_rank_terms[j]`` at the row's prefix sum
        through slot j.  The working memory beyond the result is two
        int64 columns of the query's length."""
        rows = np.asarray(rows)
        k, terms = self.k_excitations, self._rank_terms
        # entries in 0 .. K keep every prefix sum far from overflow
        if (rows.shape[1:] != self.occupations.shape[1:]
                or rows.size and (rows.min() < 0 or rows.max() > k)):
            raise ValueError(f"sector K={k} lacks a requested state")
        prefix = rows[:, 0].astype(np.int64)
        # a prefix above K belongs to a row that fails below: clip it
        found = np.take(terms[0], prefix, mode="clip")
        for slot in range(1, len(terms)):
            prefix += rows[:, slot]
            found += np.take(terms[slot], prefix, mode="clip")
        prefix += rows[:, -1]
        if (prefix != k).any() or rows[:, -2:].max(initial=0) > self.m_atoms:
            raise ValueError(f"sector K={k} lacks a requested state")
        return found

    def lowered_indices(self, lower: SectorBasis,
                        slots: Sequence[int]) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(cols, rows)`` for each of ``slots``: ``cols`` the indices of
        the states with an entry in that slot, ``rows`` the indices in
        ``lower`` of those states lowered by one there.  Raises
        ``ValueError`` unless ``lower`` is sector K - 1 of the same chain
        and ensembles.

        No lowered row is built.  A row x with prefix sums p_i, lowered in
        slot j, keeps p_i before j and has p_i - 1 from j on, and for every
        slot past 0, sector K - 1's rank term at p - 1 is sector K's at p.
        So x - e_j ranks at x's own index plus the sum over i < j of
        T_{K-1}[i, p_i] - T_K[i, p_i] (T the ``_rank_terms``), one running
        sum over the columns; for j = 0, where every prefix sum moves, at
        x's index less dim K - dim K-1."""
        occ = self.occupations
        if (lower.k_excitations, lower.m_atoms, lower.occupations.shape[1:]) != (
                self.k_excitations - 1, self.m_atoms, occ.shape[1:]):
            raise ValueError("target sector does not contain every lowered state")
        # T_{K-1} has no column K: a row whose prefix sum is K there has
        # nothing left to lower in a later slot
        step = -self._rank_terms
        step[:, :-1] += lower._rank_terms
        # every slot up to the last one asked for, in order
        found, (prefix, shift) = [], np.zeros((2, self.dim), dtype=np.int64)
        for slot in range(max(slots, default=-1) + 1):
            if slot:
                prefix += occ[:, slot - 1]
                shift += step[slot - 1][prefix]
            cols = np.flatnonzero(occ[:, slot])
            found.append((cols, cols + (shift[cols] if slot else lower.dim - self.dim)))
        return [found[slot] for slot in slots]

    def index_of(self, state: BasisState) -> int:
        row = [state.photons_left, *state.photons_mid, state.photons_right,
               state.excited_left, state.excited_right]
        return int(self.indices([row])[0])

    def __repr__(self) -> str:
        return f"SectorBasis(k={self.k_excitations}, dim={self.dim})"


def _slot_caps(n_chain: int, m_atoms: int, k: int) -> list[int]:
    """Largest entry of each slot in sector ``k``: photons need no cap below
    ``k``, atomic occupations are capped at ``m_atoms``."""
    return [k] * (n_chain + 1) + [m_atoms, m_atoms]


def _rank_terms(k: int, caps: list[int]) -> np.ndarray:
    """Terms of the lexicographic rank of a row of sector ``k`` under
    ``caps``: entry [j, p] for the slots 0 .. len(caps) - 2, where p is the
    row's prefix sum through slot j.

    With C_j[t] the number of rows over slots j onward (under their caps)
    that sum to less than t, and rem_i = k - (prefix sum before slot i), the
    rows that precede a row x are those that first differ from it in slot i
    with a smaller entry there:

        rank(x) = sum_i (C_{i+1}[rem_i + 1] - C_{i+1}[rem_i - x_i + 1]).

    Since rem_i - x_i = rem_{i+1}, the sum telescopes into one term per
    prefix, C_{j+2}[k - p + 1] - C_{j+1}[k - p + 1] at p = the prefix
    sum through slot j, plus C_1[k + 1] - 1, folded into row 0.  Every
    count is at most the sector's dim, so no term overflows."""
    # cum[t] = C_j[t] for the slot j placed last, starting from no slot: the
    # empty row, of sum 0
    cum = [0] + [1] * (k + 1)
    terms = []
    for cap in reversed(caps[1:]):
        below = [0, *itertools.accumulate(cum[t + 1] - cum[max(t - cap, 0)]
                                          for t in range(k + 1))]
        terms.append([cum[k + 1 - p] - below[k + 1 - p] for p in range(k + 1)])
        cum = below
    terms.reverse()
    terms[0] = [term + cum[k + 1] - 1 for term in terms[0]]
    return np.array(terms, dtype=np.int64)


def validate_params(params: ModelParams) -> ModelParams:
    """Return ``params`` unchanged if every invariant holds.

    Raises :class:`ParamError` naming the first violated invariant.
    """
    for name in ("omega_c", "omega_a", "g", "lam", "gamma_c", "gamma_a"):
        if not math.isfinite(getattr(params, name)):
            raise ParamError(f"{name} must be finite, got {getattr(params, name)!r}")
    if params.n_chain < 2:
        raise ParamError("n_chain must be at least 2")
    if params.m_atoms < 1:
        raise ParamError("m_atoms must be at least 1")
    if not params.lam > 0:
        raise ParamError("lambda must be positive")
    if params.gamma_c < 0:
        raise ParamError("gamma_c must be nonnegative")
    if params.gamma_a < 0:
        raise ParamError("gamma_a must be nonnegative")
    if not 1 <= params.q <= params.n_chain - 1:
        raise ParamError(
            f"q out of range: need 1 <= q <= {params.n_chain - 1}, got {params.q}")
    return params


def resonant_mode_index(params: ModelParams, tol: float | None = None) -> int:
    """Index k of the chain mode whose frequency is closest to omega_a.

    The mode frequencies are ``omega_c + 2 lam cos(k pi / N)``; for even
    ``n_chain`` with ``omega_c == omega_a`` this returns ``n_chain // 2``.
    Ties break toward the smaller index.  If ``tol`` is given and the best
    mismatch exceeds it, :class:`NoResonantModeError` is raised.
    """
    n = params.n_chain
    best_k, best_err = 1, math.inf
    for k in range(1, n):
        omega_k = params.omega_c + 2.0 * params.lam * math.cos(k * math.pi / n)
        err = abs(omega_k - params.omega_a)
        if err < best_err:
            best_k, best_err = k, err
    if tol is not None and best_err > tol:
        raise NoResonantModeError(
            f"no resonant chain mode within tol: best |Omega_k - omega_a| = {best_err:.3e}")
    return best_k


def sector_dim(params: ModelParams, k: int) -> int:
    """Number of basis states with excitation number ``k``, in closed form:
    the compositions of ``k`` into the n_chain + 3 slots, less those with
    more than ``m_atoms`` on an atomic slot (inclusion-exclusion)."""
    slots, over = params.n_chain + 3, params.m_atoms + 1
    return sum((-1) ** j * math.comb(2, j) * math.comb(k - j * over + slots - 1, slots - 1)
               for j in range(3) if k >= j * over)


def sector_occupations(params: ModelParams, k: int) -> np.ndarray:
    """Occupation rows of every basis state with excitation number ``k``,
    laid out and ordered as ``SectorBasis.occupations``.

    Atomic occupations are capped at ``m_atoms``; photon occupations need
    no cap below ``k``.  Sector k < 0 has no rows.  Raises
    :class:`ParamError`, before allocating, for a table of more than
    ``MAX_SECTOR_ENTRIES`` entries.

    The rows grow slot by slot from their prefixes.  Level j holds every
    prefix over slots 0 .. j that some row completes: each prefix of level
    j - 1, with u excitations placed, takes in slot j every value from
    max(0, K - u - room) to min(cap_j, K - u), where room is what the
    slots after j can hold, and the last slot takes what is left.
    Ascending values under ordered parents keep the rows in lexicographic
    order, and no level holds more prefixes than the table has rows.  The
    table is then filled column by column, last slot first, by walking the
    rows' parent pointers back.  It is column-major: the builder writes
    whole columns, and the lowering maps, the free energies and the
    trapped-state assembly read them.
    """
    if k < 0:
        return np.zeros((0, params.n_chain + 3), dtype=np.int64)
    # the photons alone fill C(k + N, N) >= 2^min(k, N) rows: that test refuses
    # a huge sector before any large binomial is computed
    if (min(k, params.n_chain) >= MAX_SECTOR_ENTRIES.bit_length()
            or sector_dim(params, k) * (params.n_chain + 3) > MAX_SECTOR_ENTRIES):
        raise ParamError(f"sector K={k} needs more than MAX_SECTOR_ENTRIES = "
                         f"{MAX_SECTOR_ENTRIES} occupation entries")
    caps = _slot_caps(params.n_chain, params.m_atoms, k)
    # room[j]: the most that slots j onward can hold
    room = list(itertools.accumulate(reversed(caps)))[::-1]
    used = np.zeros(1, dtype=np.int64)  # excitations placed by each prefix
    levels = []  # (parent, value) of each prefix of each slot but the last
    for cap, later in zip(caps[:-1], room[1:]):
        rest = k - used
        low = np.maximum(rest - later, 0)
        counts = np.minimum(rest, cap) - low + 1
        parent = np.repeat(np.arange(len(used)), counts)
        ends = np.cumsum(counts)
        # each child's value: its parent's low plus its place among its siblings
        value = np.arange(ends[-1]) - np.repeat(ends - counts - low, counts)
        used = used[parent] + value
        levels.append((parent, value))
    table = np.empty((len(used), len(caps)), dtype=np.int64, order="F")
    np.subtract(k, used, out=table[:, -1])
    prefix = np.arange(len(used))  # each row's prefix at the level being read
    for slot, (parent, value) in reversed(list(enumerate(levels))):
        table[:, slot] = value[prefix]
        prefix = parent[prefix]
    return table


def enumerate_sector(params: ModelParams, k: int) -> SectorBasis:
    """Basis of the sector with excitation number ``k``, with the caps and
    order of :func:`sector_occupations`."""
    return SectorBasis(k, sector_occupations(params, k), params.m_atoms)
