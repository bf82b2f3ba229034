"""Open-system evolution and collective-spin analysis.

Master equation
---------------
The reduced density matrix evolves under

    d rho / dt = -i [H, rho]
                 + sum_{mu = L,R} (gamma_c / 2) (2 a_mu rho a_mu+ - {a_mu+ a_mu, rho})
                 [+ sum_{mu} (gamma_a / 2) (2 J_mu- rho J_mu+ - {J_mu+ J_mu-, rho})]

with the optional collective atomic damping enabled on request.  Evolution
runs in the frame rotating at omega_c with the atoms' ground energy
removed: omega_c K - omega_a M is subtracted block by block, leaving
-delta per excited atom on the diagonal.  That removes the fast carrier
phase, and the digits a large omega_c would cost, without changing any
populations or fixed-excitation expectation values.

The state space is the direct sum of excitation sectors 0 .. K_max.  The
Hamiltonian is block diagonal and every jump operator maps sector K to
K - 1, so the generator feeds a block (K, K') of rho only into the blocks
(K, K') and (K - 1, K' - 1) (a weak U(1) symmetry, Buca & Prosen,
NJP 14, 073007 (2012)).  The operators are built and held as those sector
blocks alone, dense, in lists indexed by sector: H_eff,K at K and each
jump's block from sector K + 1 to K at K, never as matrices on the whole
stacked space.  Only the blocks that the generator reaches from the
nonzero blocks of the initial state are ever nonzero: with a jump, the
blocks (K - j, K' - j), 0 <= j <= min(K, K'), of every nonzero start
block (K, K'); for a sector-diagonal start these are the diagonal blocks
alone.

``evolve`` propagates those blocks exactly.  With the non-Hermitian
H_eff = H - (i/2) sum gamma c+ c diagonalised per sector, H_eff,K =
V_K E_K V_K^-1, block (K, K') is V_K X(t) V_K'^+ where X(t) is a sum of
exponentials: its own modes decay at the rates
mu_ab = -i (E_K,a - conj(E_K',b)), and every mode of the block above,
carried down by the jumps, drives it at that mode's own rate.  There is
no step size and no tolerance.  A term e^{mu t} below the smallest
normal float (``_TINY``) in magnitude is an exact zero and is never
computed, and so is each real or imaginary part, of a term or of an
entry of X(t), below it: a decayed mode costs no subnormal arithmetic.
Inputs the eigenbasis cannot represent accurately fail one of three
guards: an ill-conditioned V, a resonance that needs a secular
t e^{mu t} term, or too many coefficients.  They run on
``scipy.sparse.linalg.expm_multiply`` of the sparse superoperator instead
(Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), which is exact
to rounding on the uniform snapshot grid, y_{i+1} = exp(L Delta) y_i, and
the trajectory's diagnostics name the path that ran.  On either path a
snapshot whose smallest eigenvalue is below -``POSITIVITY_LIMIT``, or
whose trace is farther than ``TRACE_DRIFT_LIMIT`` from the initial one,
aborts the run, and the run stops early once max |d rho / dt| stays below
``STEADY_THRESHOLD`` lam.  These tests judge a chunk of snapshots at once,
as array operations: the steady stop is found in the chunk (with one flag
carried from the chunk before), and positivity and then the trace are
judged up to it, positivity as one stacked ``eigvalsh`` per sector.  A
trajectory keeps each snapshot, the initial state included, as its reached
entries alone, and it is the only record of a run: the diagnostics are
reductions over it, and the trapped states' populations are read from
those entries, weighed at their positions, without rebuilding a matrix.

Importing this module loads no scipy module, and neither does building
the generator's blocks.  ``scipy.sparse`` is imported where the sparse
superoperator is built (and by ``effective_tc_hamiltonian``), and
``scipy.sparse.linalg`` by the fallback alone.

Twisted collective spin
-----------------------
For the triple-cavity configuration the two ensembles combine into total
spin operators with the right-hand raising/lowering operators negated:
S+- = JL+- - JR+-, Sz = JLz + JRz.  |s, m_s> denotes the simultaneous
eigenbasis; the states |s, -s> are annihilated by S- and are the dark
(subradiant) atomic states that free evolution relaxes into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING

import numpy as np

from .bic import StateVector
from .model import ModelParams, ParamError, SectorBasis, enumerate_sector
from .operators import _hamiltonian_entries, lowering_maps

if TYPE_CHECKING:
    from scipy import sparse


def __getattr__(name: str):
    # bench/tracing.py reads ``dynamics.solve_ivp`` when it installs.  The name
    # is resolved on that access, so that only a traced run pays for
    # importing ``scipy.integrate``.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class IntegrationError(RuntimeError):
    """Master-equation integration failed (positivity or trace loss, or a
    fallback run above its cost bound)."""


class FitError(RuntimeError):
    """Decay-rate fit rejected the signal (non-decaying or too noisy)."""


class SectorStack:
    """Direct sum of the excitation sectors 0 .. k_max."""

    __slots__ = ("params", "k_max", "sectors", "offsets", "dim")

    def __init__(self, params: ModelParams, sectors: Sequence[SectorBasis]):
        self.params = params
        self.k_max = len(sectors) - 1
        self.sectors = tuple(sectors)
        offsets = [0]
        for sec in sectors:
            offsets.append(offsets[-1] + sec.dim)
        self.offsets = tuple(offsets)
        self.dim = offsets[-1]

    def sector_slice(self, k: int) -> slice:
        return slice(self.offsets[k], self.offsets[k + 1])

    def embed(self, state: StateVector) -> np.ndarray:
        """Zero-pad a sector state vector into the stacked space."""
        k = state.sector.k_excitations
        if not 0 <= k <= self.k_max:
            raise ValueError(f"sector {k} not present in stack (k_max={self.k_max})")
        if self.sectors[k].dim != state.sector.dim:
            raise ValueError("sector dimension mismatch")
        vec = np.zeros(self.dim, dtype=np.complex128)
        vec[self.sector_slice(k)] = state.amplitudes
        return vec

    def __repr__(self) -> str:
        return f"SectorStack(k_max={self.k_max}, dim={self.dim})"


def stack_sectors(params: ModelParams, k_max: int) -> SectorStack:
    return SectorStack(params, [enumerate_sector(params, k) for k in range(k_max + 1)])


@dataclass
class DensityMatrix:
    """Hermitian density matrix on a sector stack."""

    space: SectorStack
    data: np.ndarray

    @classmethod
    def from_pure(cls, space: SectorStack, state: StateVector) -> "DensityMatrix":
        vec = space.embed(state)
        return cls(space, np.outer(vec, vec.conj()))

    @classmethod
    def from_vector(cls, space: SectorStack, vec: np.ndarray) -> "DensityMatrix":
        vec = np.asarray(vec, dtype=np.complex128)
        if vec.shape != (space.dim,):
            raise ValueError("vector length does not match the stacked space")
        return cls(space, np.outer(vec, vec.conj()))

    @classmethod
    def ground(cls, space: SectorStack) -> "DensityMatrix":
        rho = np.zeros((space.dim, space.dim), dtype=np.complex128)
        rho[0, 0] = 1.0
        return cls(space, rho)

    def trace(self) -> float:
        return float(np.trace(self.data).real)

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue; the smallest over the sector-diagonal blocks'
        spectra when no entry off those blocks is nonzero."""
        n = self.space.k_max + 1
        blocks = [divmod(key, n) for key in range(n * n)]
        values = self.data.ravel()[_block_index(self.space, blocks)]
        return _min_eigenvalues(self.space, blocks, values[None])[0]

    def block(self, k_row: int, k_col: int | None = None) -> np.ndarray:
        if k_col is None:
            k_col = k_row
        return self.data[self.space.sector_slice(k_row), self.space.sector_slice(k_col)]

    def offblock_max(self) -> float:
        """Largest magnitude outside the sector-diagonal blocks."""
        worst = 0.0
        for i in range(self.space.k_max + 1):
            for j in range(self.space.k_max + 1):
                if i != j:
                    blk = self.block(i, j)
                    if blk.size:
                        worst = max(worst, float(np.abs(blk).max()))
        return worst


def _min_eigenvalues(space: SectorStack, blocks: Sequence[tuple[int, int]],
                     values: np.ndarray) -> list[float]:
    """``DensityMatrix.min_eigenvalue`` of each row of ``values``, a Hermitian
    matrix given by the entries of its sector ``blocks``, laid out as
    ``_block_index`` lays them out (it is zero elsewhere).  One ``eigvalsh``
    call per sector serves the rows with no nonzero entry off the
    sector-diagonal blocks, and one call on the full matrices the others."""
    dims = np.diff(space.offsets)
    sizes = [int(dims[j] * dims[k]) for j, k in blocks]
    start = dict(zip(blocks, np.cumsum([0] + sizes).tolist()))
    off = np.repeat(np.array([j != k for j, k in blocks], dtype=bool), sizes)
    full = (values[:, off] != 0).any(axis=1)
    out = np.zeros(len(values))
    if full.any():
        dense = np.zeros((np.count_nonzero(full), space.dim ** 2), dtype=np.complex128)
        dense[:, _block_index(space, blocks)] = values[full]
        out[full] = np.linalg.eigvalsh(dense.reshape(-1, space.dim, space.dim))[:, 0]
    if not full.all():
        part = values[~full]
        lows = []
        for k, d in enumerate(dims):
            if (k, k) in start:
                blk = part[:, start[(k, k)]:start[(k, k)] + d * d].reshape(-1, d, d)
            else:  # a block that is not given is zero
                blk = np.zeros((len(part), d, d), dtype=np.complex128)
            lows.append(np.linalg.eigvalsh(blk)[:, 0])
        out[~full] = [min(map(float, low)) for low in zip(*lows)]
    return out.tolist()


def _transposes(index: np.ndarray, dim: int) -> np.ndarray:
    """Position in ``index`` of the transpose of each entry of ``index``
    (positions in the ravelled d x d matrix); ``ValueError`` if one is
    missing, as for the reach of a ``rho0`` that is not Hermitian."""
    rows, cols = np.divmod(index, dim)
    wanted = cols * dim + rows
    order = np.argsort(index)
    found = order[np.minimum(np.searchsorted(index, wanted, sorter=order), len(index) - 1)]
    if not np.array_equal(index[found], wanted):
        raise ValueError("rho0 must be Hermitian: its nonzero sector blocks are not "
                         "symmetric")
    return found


def _sector_labels(space: SectorStack) -> np.ndarray:
    """Excitation sector of every index of the stacked space."""
    return np.repeat(np.arange(space.k_max + 1), np.diff(space.offsets))


def _block_index(space: SectorStack, blocks: Sequence[tuple[int, int]]) -> np.ndarray:
    """Positions in ``rho.ravel()`` of the entries of ``blocks``, block by
    block and row-major within a block."""
    dims, start = np.diff(space.offsets), space.offsets
    index = [((start[k] + np.arange(dims[k]))[:, None] * space.dim
              + start[k_col] + np.arange(dims[k_col])).ravel() for k, k_col in blocks]
    return np.concatenate([np.zeros(0, dtype=np.int64), *index])


def _reached_blocks(dim: Callable[[int], int], start: Iterable[tuple[int, int]],
                    decays: bool, snapshots: int = 1) -> list[tuple[int, int]]:
    """The sorted sector blocks (K, K') that a generator reaches from the
    ``start`` blocks, those included; a state supported on them stays so.
    H_eff keeps a block in place and, when the generator ``decays`` (has a
    jump), the jumps carry (K, K') to (K - 1, K' - 1), down to a block of
    sector 0: every jump that ``lindblad_generator`` builds has a nonzero
    block (K - 1, K) for each K >= 1.  ``dim(K)`` is the size of sector K.
    Reads no operator, so ``evolve`` and the CLI call it before anything
    is built.  Raises ``ParamError`` for a reach of more than
    ``MAX_REACHED_ENTRIES`` entries, at the first partial sum of its block
    sizes in ascending block order above the bound, or for more than
    ``MAX_KEPT_ENTRIES`` entries kept over ``snapshots`` snapshots."""
    blocks = sorted({(k - j, k_col - j) for k, k_col in start
                     for j in range(min(k, k_col) + 1 if decays else 1)})
    size = 0
    for k, k_col in blocks:
        size += dim(k) * dim(k_col)
        if size > MAX_REACHED_ENTRIES:
            raise ParamError(f"the reach holds more than MAX_REACHED_ENTRIES = "
                             f"{MAX_REACHED_ENTRIES} entries")
    if size * snapshots > MAX_KEPT_ENTRIES:
        raise ParamError(f"evolve would keep {snapshots} snapshots of {size} entries, "
                         f"more than MAX_KEPT_ENTRIES = {MAX_KEPT_ENTRIES}")
    return blocks


def _reach(space: SectorStack, rho: np.ndarray, decays: bool,
           snapshots: int = 1) -> tuple[list[tuple[int, int]], np.ndarray]:
    """``(blocks, index)``: the sector ``blocks`` that ``_reached_blocks``
    finds from the nonzero blocks of ``rho`` on ``space``, with its size
    bounds, and ``index``, their positions in ``rho.ravel()`` (block by
    block, row-major within a block)."""
    if rho.shape != (space.dim, space.dim):
        raise ValueError("density matrix does not match the generator's space")
    label, n = _sector_labels(space), space.k_max + 1
    rows, cols = np.nonzero(rho)
    start = [divmod(int(key), n) for key in np.unique(label[rows] * n + label[cols])]
    blocks = _reached_blocks(np.diff(space.offsets).item, start, decays, snapshots)
    return blocks, _block_index(space, blocks)


class LindbladGenerator:
    """Right-hand side of the master equation on a sector stack.

    Holds every operator as dense sector blocks, as ``lindblad_generator``
    builds them: ``h_eff[K]`` is H_eff,K = H_K - (i/2) sum gamma c_K+ c_K in
    the rotating frame, for every sector K of ``space``, and each jump is
    ``(rate, c)`` with ``c[j]`` its block from sector j + 1 to sector j,
    j = 0 .. K_max - 1.  ``evolve``'s cascade reads the same lists.  The
    generator is L rho = -i H_eff rho + i rho H_eff+ + sum gamma c rho c+,
    and ``superoperator`` vectorises it row-major, vec(A rho B) =
    (A kron B^T) vec(rho), on the sector blocks that a given state reaches:
    a block (K, K') feeds -i H_eff,K kron I and I kron i conj(H_eff,K') into
    itself and gamma c[K - 1] kron conj(c[K' - 1]) into (K - 1, K' - 1).
    """

    def __init__(self, space: SectorStack, h_eff: Sequence[np.ndarray],
                 jumps: Iterable[tuple[float, Sequence[np.ndarray]]]):
        self.space = space
        self._h_eff_blocks = h_eff
        self._jumps = [(float(rate), blocks) for rate, blocks in jumps]

    def superoperator(self, rho: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray,
                                                      sparse.csr_matrix]:
        """``(blocks, index, matrix)``: the sector ``blocks`` that the
        generator reaches from the nonzero blocks of ``rho`` and their
        positions ``index`` in ``rho.ravel()``, as ``_reach`` finds them, and
        the superoperator on them, with ``apply(rho).ravel()[index] ==
        matrix @ rho.ravel()[index]`` while ``apply(rho)`` is zero
        elsewhere.  A reach of more than ``MAX_REACHED_ENTRIES`` entries
        raises ``ParamError`` before anything is built."""
        blocks, index = _reach(self.space, rho, bool(self._jumps))
        return blocks, index, self._matrix(blocks)

    def _matrix(self, blocks: list[tuple[int, int]]) -> sparse.csr_matrix:
        """The superoperator on the sorted sector ``blocks`` of a reach."""
        from scipy import sparse
        dims = np.diff(self.space.offsets)
        sizes = [int(dims[k] * dims[k_col]) for k, k_col in blocks]
        start = dict(zip(blocks, np.cumsum([0] + sizes).tolist()))
        empty = np.zeros(0, dtype=np.int64)
        rows, cols, vals = [empty], [empty], [empty.astype(np.complex128)]
        h_eff = self._h_eff_blocks
        for k, k_col in blocks:
            eye, eye_col = (sparse.identity(dims[j], dtype=np.complex128, format="csr")
                            for j in (k, k_col))
            # (block written, A, B) of each term A rho B that reads block (K, K');
            # ``kron`` keeps the nonzero entries of a dense A or B alone
            terms = [((k, k_col), -1j * h_eff[k], eye_col),
                     ((k, k_col), eye, 1j * h_eff[k_col].conj())]
            if min(k, k_col):  # the jumps carry the block one sector down
                terms += [((k - 1, k_col - 1), rate * c[k - 1], c[k_col - 1].conj())
                          for rate, c in self._jumps]
            for into, a, b in terms:
                term = sparse.kron(a, b, format="coo")
                rows.append(term.row + start[into])
                cols.append(term.col + start[(k, k_col)])
                vals.append(term.data)
        return sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(sum(sizes), sum(sizes)))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """d rho / dt for a d x d matrix; builds ``superoperator(rho)`` on
        every call, where ``evolve`` builds it once per run."""
        _blocks, index, matrix = self.superoperator(rho)
        out = np.zeros(rho.size, dtype=np.complex128)
        out[index] = matrix @ rho.ravel()[index]
        return out.reshape(rho.shape)


def _jump_slots(params: ModelParams, include_atomic_decay: bool) -> list[tuple[float, int]]:
    """(rate, slot) of each jump of ``lindblad_generator``: the two end
    cavities at gamma_c, and the two ensembles at gamma_a when atomic decay
    is included; a zero rate gives no jump."""
    n = params.n_chain
    slots = [(params.gamma_c, slot) for slot in (0, n) if params.gamma_c > 0]
    return slots + [(params.gamma_a, slot) for slot in (n + 1, n + 2)
                    if include_atomic_decay and params.gamma_a > 0]


def lindblad_generator(params: ModelParams, space: SectorStack,
                       include_atomic_decay: bool = False) -> LindbladGenerator:
    """Build the master-equation generator on the sectors of ``space`` as
    dense sector blocks, from one ``operators.lowering_maps`` call per
    sector K >= 1.  Each jump's block K - 1 (from sector K to K - 1) is its
    slot's map, and H_eff,K is H_K's entries
    (``operators._hamiltonian_entries``) less omega_c K - omega_a M on the
    diagonal, the module docstring's frame, less (i/2) gamma amp^2 at each
    entry of each jump: c+ c is diagonal, since a map holds at most one
    entry per row and column.  The frame leaves no offset for the
    eigen-solves to lose digits to, and makes H_eff,0 zero.

    End-cavity leakage at rate gamma_c is always included; collective
    atomic damping at rate gamma_a is added when requested.
    """
    sectors, slots = space.sectors, _jump_slots(params, include_atomic_decay)
    h_eff = [np.zeros((1, 1), dtype=np.complex128)]
    jumps = [(rate, []) for rate, _slot in slots]
    for k in range(1, len(sectors)):
        maps = lowering_maps(params, sectors[k], sectors[k - 1])
        rows, cols, values = _hamiltonian_entries(params, sectors[k], maps)
        blk = np.zeros((sectors[k].dim,) * 2, dtype=np.complex128)
        blk[rows, cols] = values
        blk[np.diag_indices(len(blk))] -= params.omega_c * k - params.omega_a * params.m_atoms
        for (rate, slot), (_rate, blocks) in zip(slots, jumps):
            m = maps[slot]
            c = np.zeros(m.shape, dtype=np.complex128)
            c[m.rows, m.cols] = m.amp
            blocks.append(c)
            blk[m.cols, m.cols] -= (0.5j * rate) * (m.amp * m.amp)
        h_eff.append(blk)
    return LindbladGenerator(space, h_eff, jumps)


@dataclass
class TrajectoryDiagnostics:
    max_trace_drift: float = 0.0
    min_eigenvalue: float = 0.0
    max_offblock: float = 0.0  # largest propagated entry outside the diagonal blocks
    rhs_sup_last: float = 0.0
    propagator: str = "cascade"  # the path that ran: "cascade" or "krylov"
    fallback_reason: str = ""  # the cascade guard that sent the run to the fallback


class TrajectoryStates(Sequence):
    """The states of a ``Trajectory``, read-only.  Each is kept as its
    entries at ``index``, the positions in ``rho.ravel()`` of the sector
    blocks that the run reaches (all other entries are zero): the initial
    state's as given, every later one's symmetrised.  A state is rebuilt as
    a ``DensityMatrix`` each time it is read; ``expectations`` reads the
    kept entries directly."""

    def __init__(self, space: SectorStack, index: np.ndarray, entries: list[np.ndarray]):
        self.space = space
        self.index = index
        self.entries = entries  # one row of len(index) entries per state

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        dim = self.space.dim
        flat = np.zeros(dim * dim, dtype=np.complex128)
        flat[self.index] = self.entries[i]
        return DensityMatrix(self.space, flat.reshape(dim, dim))

    def expectations(self, states: Sequence[StateVector]) -> np.ndarray:
        """<beta| rho |beta> of each of ``states`` (columns) in each kept
        state (rows).  Each beta is weighed at the kept positions alone,
        conj(beta_r) beta_c at position r d + c, so no d x d matrix is built."""
        vecs = np.array([self.space.embed(state) for state in states]).reshape(-1, self.space.dim)
        rows, cols = np.divmod(self.index, self.space.dim)
        weights = vecs.conj()[:, rows] * vecs[:, cols]
        return np.array([(weights @ row).real for row in self.entries])


@dataclass
class Trajectory:
    """What ``evolve`` kept of a run, one item per kept snapshot from t = 0
    on in ``times``, ``states``, ``min_eigenvalues`` and ``traces``, and the
    diagnostics reduced from them."""

    times: np.ndarray
    states: TrajectoryStates
    min_eigenvalues: np.ndarray  # smallest eigenvalue of each stored state
    traces: np.ndarray  # np.trace of each stored state, to the bit
    steady_reached: bool = False
    steady_time: float | None = None
    diagnostics: TrajectoryDiagnostics = field(default_factory=TrajectoryDiagnostics)

    def observable(self, fn: Callable[[DensityMatrix], float]) -> np.ndarray:
        return np.array([fn(state) for state in self.states])

    def __iter__(self):
        return iter(zip(self.times, self.states))


# Largest snapshot grid ``evolve`` accepts: every snapshot keeps its
# reached entries, and a finer grid than this is an input error, not a run.
MAX_SNAPSHOTS = 100_000
# Most entries a reach may hold (``LindbladGenerator.superoperator``), so most
# an evolve snapshot may keep: sum_{j <= K} d_j^2 for a start in sector K (d_j
# the sector dimensions), or d_K^2 alone without a jump.  A fallback run at
# (N, M) = (2, 7), t_end = 10, peaked at 299 MB on 175,252 entries (a small
# run at 54 MB), about 1.4 kB an entry, so a run like it at this bound would
# need some 1.5 GB; (2, 5) reaches 22,252.
MAX_REACHED_ENTRIES = 1 << 20
# Most entries an evolve run may keep: its reached entries at every snapshot,
# t = 0 included, at 16 bytes each (512 MiB).  (2, 5) at the default grid
# keeps 22,274,252 (340 MiB).
MAX_KEPT_ENTRIES = 1 << 25
# ``evolve`` stops at steady state once max |d rho / dt| stays below this
# many hopping rates lam at two consecutive snapshots.
STEADY_THRESHOLD = 1e-9
# ``evolve`` aborts at a snapshot whose smallest eigenvalue is below minus this.
POSITIVITY_LIMIT = 1e-6
# ``evolve`` aborts at a snapshot whose trace is farther than this from
# rho0's.  The master equation keeps the trace, and both propagators keep it
# to rounding where they are accurate: the (N, M) = (2, 2), (2, 3) and
# (4, 2) runs at the CLI defaults and the fallback at an exceptional point
# and at a rate resonance drift by at most 1.3e-13.  The cascade loses
# digits at a large detuning instead (1.2e-6 at delta = 1e8, t_end = 200).
# 1e-8 is the trace bound that the benchmark's checks and the relaxation
# tests hold every run to.
TRACE_DRIFT_LIMIT = 1e-8

# Largest ||L||_1 t_end that the fallback accepts, L the superoperator of
# the reach and ||L||_1 its largest column sum, checked before the first
# product: ``expm_multiply`` takes a number of products in proportion to it.
# Measured on a 2-core x86 host at the CLI defaults: 9.0e3 at the exceptional
# point n_chain = 2, m_atoms = 1, g = 0.25 (1,774 products), 1.9e4 at the
# resonance g = 0, gamma_a = 0.05 (5,544), 4.0e4 and 3.1e4 at (N, M) = (2, 4)
# and (4, 3) (about 7 s each), and 4.0e5 at delta = 1e3, t_end = 200 (1.26e6
# products on 251 entries, 24 s).  At the bound a run takes about 3e6
# products: 54 s on that reach (t_end = 498), and, at about 0.2 ms a product
# instead of 19 us, some 10 minutes on the 6,376 entries of (2, 4).  A stiff
# run is refused at once: gamma_a = 1e6, t_end = 20 is at 1.6e8.
_MAX_NORM_TIME = 1e6

# Guards of the cascade propagator; a run that fails one goes to the fallback.
# Most complex coefficients the cascade may hold (64 MiB).  Block K - 1
# holds d_{K-1}^2 times the number of modes above it: from the top sector
# K = M, 3.2e5 at (N, M) = (2, 3), 7.6e6 at (2, 4) and 1.1e8 at (2, 5).
MAX_CASCADE_COEFFICIENTS = 1 << 22
# Largest condition number of a sector's eigenvector matrix V.  H_eff at an
# exceptional point cannot be diagonalised, and the rounding of
# V X V^+ grows like eps cond(V)^2 as one is approached.
MAX_EIGENVECTOR_CONDITION = 1e3
# Largest error the cascade accepts from one particular coefficient
# S / (lam - mu): its rounding, about eps |S| / |lam - mu|, or, where that
# is too large, leaving it out, which costs at most |S| t_end.
_CASCADE_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
# Below this |lam - mu| (the smallest normal float) numpy's complex division
# overflows on the reciprocal and returns NaN, even for a zero source.
_TINY = float(np.finfo(float).tiny)
# The cascade sets a term e^{mu t} below ``_TINY`` in magnitude, where
# Re(mu t) < log _TINY, to an exact zero without computing it: a subnormal
# operand slows every product it enters, and lies some 300 orders below
# ``_CASCADE_TOL``.
_LOG_TINY = math.log(_TINY)
# Entries of a source that ``_particular`` works on at once.
_SLICE = 1 << 12
# Snapshots either propagator evaluates at once; the steady test may stop a
# run inside a chunk, and no later chunk is computed.
_CHUNK = 16


class _CascadeRejected(Exception):
    """The cascade cannot represent this run accurately; says which guard."""


@dataclass
class _CascadeBlock:
    """Block (K, K') in the eigenbases: X(t) = h e^{mu t} + sum P e^{lam t}."""

    mu: np.ndarray  # own rates -i (E_K,a - conj(E_K',b)), row-major over (a, b)
    h: np.ndarray   # coefficient of each own mode
    # (block B, P): column f of P multiplies exp(B.mu[f] t); B lies above
    parts: list[tuple[tuple[int, int], np.ndarray]]


def _particular(source: np.ndarray, lam: np.ndarray, mu: np.ndarray,
                t_end: float) -> np.ndarray:
    """Overwrite ``source`` with the coefficients source / (lam_f - mu_ab) of
    the modes exp(lam_f t) that it drives into a block with own rates
    ``mu``, and return it.  A coefficient whose rounding would exceed
    ``_CASCADE_TOL`` (or whose denominator is 0 or subnormal) is left out
    when its secular term is that small;
    otherwise the cascade is rejected.  Works on a few rows at a time."""
    step = max(1, _SLICE // len(lam))
    for start in range(0, len(mu), step):
        rows = source[start:start + step]
        denom = lam[None, :] - mu[start:start + step, None]
        size = np.abs(rows)
        inexact = _EPS * size > _CASCADE_TOL * np.abs(denom)
        inexact |= np.abs(denom) < _TINY
        bad = inexact & (size * t_end > _CASCADE_TOL)
        if bad.any():
            worst = np.unravel_index(np.argmax(np.where(bad, size, 0.0)), bad.shape)
            raise _CascadeRejected(
                f"denominator |lam - mu| = {abs(denom[worst]):.3g} is too small for a "
                f"source of {size[worst]:.3g} (a resonance)")
        rows[inexact], denom[inexact] = 0.0, 1.0
        np.divide(rows, denom, out=rows)
    return source


class _Cascade:
    """Exact propagator on the reached sector blocks, in the eigenbases of
    each sector's H_eff (see the module docstring).  Reads the dense sector
    blocks that ``LindbladGenerator`` holds, as they are: H_eff,K and each
    jump's block from sector K + 1 to K, both at index K.  The reached
    ``blocks`` come from ``evolve``."""

    def __init__(self, generator: LindbladGenerator, blocks: list[tuple[int, int]],
                 rho0: np.ndarray, t_end: float):
        space, jumps = generator.space, generator._jumps
        self.blocks = blocks
        dims = np.diff(space.offsets)
        size = {key: int(dims[key[0]] * dims[key[1]]) for key in blocks}
        # top block first along every diagonal: a block comes after the one driving it
        order = sorted(blocks, reverse=True)
        above = {key: (key[0] + 1, key[1] + 1) for key in order
                 if jumps and (key[0] + 1, key[1] + 1) in size}
        # a block holds one coefficient per own mode and, per entry, one per
        # mode of every block above it
        driving: dict[tuple[int, int], int] = {}
        for key in order:
            up = above.get(key)
            driving[key] = size[up] + driving[up] if up else 0
        stored = sum(size[key] * (1 + driving[key]) for key in order)
        if stored > MAX_CASCADE_COEFFICIENTS:
            raise _CascadeRejected(f"{stored} coefficients exceed MAX_CASCADE_COEFFICIENTS"
                                   f" = {MAX_CASCADE_COEFFICIENTS}")

        self._eig = {}
        for k in sorted({k for key in blocks for k in key}):
            energies, vecs = np.linalg.eig(generator._h_eff_blocks[k])
            cond = np.linalg.cond(vecs)
            if not cond <= MAX_EIGENVECTOR_CONDITION:
                raise _CascadeRejected(f"sector {k}: H_eff eigenvectors have condition "
                                       f"number {cond:.3g} > {MAX_EIGENVECTOR_CONDITION:g}")
            self._eig[k] = (energies, vecs, np.linalg.inv(vecs))

        self._modes: dict[tuple[int, int], _CascadeBlock] = {}
        for key in order:
            (e_k, _, w_k), (e_c, _, w_c) = self._eig[key[0]], self._eig[key[1]]
            mu = (-1j * (e_k[:, None] - e_c.conj()[None, :])).ravel()
            rho_blk = rho0[space.sector_slice(key[0]), space.sector_slice(key[1])]
            x0 = (w_k @ rho_blk @ w_c.conj().T).ravel()
            parts = []
            if key in above:
                top = self._modes[above[key]]
                v_up, v_up_c = self._eig[key[0] + 1][1], self._eig[key[1] + 1][1]
                # T = sum rate kron(V_K^-1 c V_K+1, conj(V_K'^-1 c V_K'+1)) over
                # the jumps, c their blocks from sectors K + 1 and K' + 1
                left = [rate * (w_k @ c[key[0]] @ v_up) for rate, c in jumps]
                right = [(w_c @ c[key[1]] @ v_up_c).conj() for _rate, c in jumps]
                t_map = np.zeros((mu.size, top.mu.size), dtype=np.complex128)
                # one einsum, so no temporary as large as T
                np.einsum("jac,jbd->abcd", left, right,
                          out=t_map.reshape(len(e_k), len(e_c), len(v_up), len(v_up_c)))
                parts = [(src, _particular(t_map @ p, self._modes[src].mu, mu, t_end))
                         for src, p in top.parts]
                t_map *= top.h  # now the source of the own modes of the block above
                parts.insert(0, (above[key], _particular(t_map, top.mu, mu, t_end)))
            h = x0 - sum(p.sum(axis=1) for _src, p in parts)
            self._modes[key] = _CascadeBlock(mu, h, parts)

    def chunks(self, times: np.ndarray):
        """``(ts, ys)`` over ``times[1:]`` in order; row i of ``ys`` holds the
        reached entries (at ``evolve``'s ``index``) at time ``ts[i]``."""
        for start in range(1, len(times), _CHUNK):
            chunk = times[start:start + _CHUNK]
            yield chunk, self._evaluate(chunk)

    def _eigenbasis(self, ts: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        """X(t) of every reached block, row-major over its entries, one column
        per time of ``ts``.  A term e^{mu t} whose magnitude is below
        ``_TINY`` (Re(mu t) < log _TINY) is never computed, and a real or
        imaginary part below ``_TINY``, of a term or of an entry of X, is
        set to zero, so X holds no subnormal float."""
        expo = {}
        for key, blk in self._modes.items():
            exponent = np.outer(blk.mu, ts)
            live = exponent.real >= _LOG_TINY
            expo[key] = (_flush_subnormal(np.exp(exponent, out=np.zeros_like(exponent),
                                                 where=live)), live)
        xs = {}
        for key in self.blocks:
            blk = self._modes[key]
            own, live = expo[key]
            x = np.multiply(blk.h[:, None], own, out=np.zeros_like(own), where=live)
            for src, p in blk.parts:
                if expo[src][1].any():  # a block whose modes are all dead drives nothing
                    x += p @ expo[src][0]
            xs[key] = _flush_subnormal(x)
        return xs

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        out = [np.zeros((len(ts), 0), dtype=np.complex128)]  # a zero rho0 reaches no block
        for (k, k_col), x in self._eigenbasis(ts).items():
            v_k, v_c = self._eig[k][1], self._eig[k_col][1]
            x = x.T.reshape(len(ts), len(v_k), len(v_c))
            out.append((v_k @ x @ v_c.conj().T).reshape(len(ts), -1))
        return np.hstack(out)


def _flush_subnormal(z: np.ndarray) -> np.ndarray:
    """Set each real and imaginary part of the complex array ``z`` that is
    below ``_TINY`` in magnitude to zero, in place, and return ``z``."""
    parts = z.view(np.float64)
    parts[np.abs(parts) < _TINY] = 0.0
    return z


def _krylov_chunks(superop: sparse.csr_matrix, y0: np.ndarray, times: np.ndarray):
    """``(ts, ys)`` over ``times[1:]`` in order, as ``_Cascade.chunks``: each
    chunk is ``expm_multiply`` on its own stretch of the uniform grid, from
    the previous chunk's last state.  Raises ``IntegrationError`` before the
    first product when ||superop||_1 t_end exceeds ``_MAX_NORM_TIME``."""
    from scipy.sparse.linalg import expm_multiply, norm
    cost = norm(superop, 1) * times[-1]
    if not cost <= _MAX_NORM_TIME:
        raise IntegrationError(f"||L||_1 t_end = {cost:.3g} exceeds the fallback's bound "
                               f"_MAX_NORM_TIME = {_MAX_NORM_TIME:g}")
    y = y0
    for start in range(1, len(times), _CHUNK):
        ts = times[start:start + _CHUNK]
        ys = expm_multiply(superop, y, start=0.0, stop=ts[-1] - times[start - 1],
                           num=len(ts) + 1, endpoint=True)[1:]
        y = ys[-1]
        yield ts, ys


def _snapshot_times(t_end: float, snapshot_dt: float | None = None) -> np.ndarray:
    """``evolve``'s snapshot grid: 0 to ``t_end`` in steps of at most
    ``snapshot_dt`` (``t_end`` / 200 by default), both ends included.
    Raises ``ParamError`` unless both are finite and > 0, and for a grid
    of more than ``MAX_SNAPSHOTS`` steps."""
    if snapshot_dt is None:
        snapshot_dt = t_end / 200.0
    for name, value in (("t_end", t_end), ("snapshot_dt", snapshot_dt)):
        if not (math.isfinite(value) and value > 0):
            raise ParamError(f"{name} must be finite and > 0, got {value!r}")
    if t_end / snapshot_dt > MAX_SNAPSHOTS:
        raise ParamError(f"t_end / snapshot_dt must be at most {MAX_SNAPSHOTS}, "
                         f"got {t_end / snapshot_dt:.3g}")
    return np.linspace(0.0, t_end, max(1, math.ceil(t_end / snapshot_dt - 1e-12)) + 1)


def evolve(params: ModelParams, rho0: DensityMatrix, t_end: float, *,
           include_atomic_decay: bool = False,
           snapshot_dt: float | None = None,
           detect_steady: bool = True) -> Trajectory:
    """Evolve the master equation of ``lindblad_generator`` from 0 to
    ``t_end`` and keep snapshots on a regular grid.

    Only the sector blocks that the generator reaches from the nonzero
    blocks of ``rho0`` are propagated.  The reach, the positions of its
    entries and its sparse superoperator are computed once per run, from
    the generator's sector blocks, and both propagators start from them.
    The blocks are propagated exactly, as sums of exponentials in the
    eigenbases of each sector's H_eff (the module docstring has the
    construction).  A run that fails one of the cascade's three guards is
    propagated by ``scipy.sparse.linalg.expm_multiply`` of the
    superoperator instead, chunk by chunk over the snapshot grid, each
    chunk from the last state of the one before; it raises
    ``IntegrationError`` before its first product when ||L||_1 t_end
    exceeds ``_MAX_NORM_TIME``.  The guards:
      * a sector's eigenvector matrix has a condition number above
        ``MAX_EIGENVECTOR_CONDITION`` (at or near an exceptional point);
      * a particular coefficient S / (lam - mu) would round by more than
        ``_CASCADE_TOL`` while its secular term, at most |S| t_end, is not
        that small (at a resonance lam = mu the exact answer has a
        t e^{mu t} term);
      * the coefficients would exceed ``MAX_CASCADE_COEFFICIENTS``.
    ``diagnostics.propagator`` names the path that ran (``"cascade"`` or
    ``"krylov"``) and ``diagnostics.fallback_reason`` the guard that failed.

    On the cascade, a term e^{mu t} below ``_TINY`` in magnitude (the
    smallest normal float) is an exact zero, and so is each real or
    imaginary part below it of a term or of an entry of an eigenbasis block
    X(t), so decayed modes cost no subnormal arithmetic.

    Trace, Hermiticity (symmetrised storage) and positivity are checked at
    every snapshot that is kept; a smallest eigenvalue below
    -``POSITIVITY_LIMIT``, and then a trace farther than
    ``TRACE_DRIFT_LIMIT`` from ``rho0``'s, raises ``IntegrationError`` at
    the first such snapshot of a chunk in time order.  When
    ``detect_steady`` is on, the run stops once max |d rho / dt| stays
    below ``STEADY_THRESHOLD`` * lam at two consecutive snapshots, at the
    second; on either propagator d rho / dt is that superoperator times
    the symmetrised snapshot.  Each chunk of snapshots that a propagator
    yields is judged with array operations, and the only loop is over
    chunks: d rho / dt of the whole chunk, the steady stop in it (one flag
    carries "the last snapshot was below" into the next chunk), then
    positivity of the snapshots up to that stop alone, one stacked
    ``eigvalsh`` per sector over their diagonal blocks (the full matrix's
    for a snapshot with a nonzero entry off those blocks, as
    ``DensityMatrix.min_eigenvalue`` does), then their traces.  Every kept
    snapshot, t = 0 first, adds one item to each of the run's per-snapshot
    lists: its time, its entries at the reach's positions (``rho0``'s as
    given, every later one's symmetrised), its trace, its smallest
    eigenvalue (``rho0``'s from ``rho0.min_eigenvalue()``) and its largest
    entry off the diagonal blocks.  ``trajectory.states`` holds the entries and builds a
    ``DensityMatrix`` when one is read; ``trajectory.traces`` and
    ``trajectory.min_eigenvalues`` hold the others.  ``diagnostics`` is
    built once, after the last chunk: its trace drift, smallest eigenvalue
    and off-block size are Python ``max``/``min`` over those lists in time
    order, and ``rhs_sup_last`` is the last kept snapshot's d rho / dt.
    ``rho0`` must be Hermitian and enumerated for ``params``' ``n_chain``
    and ``m_atoms``; otherwise ``ValueError``.  The run's inputs out of
    range raise ``ParamError`` (a ``ValueError``), before the generator is
    built: a ``t_end`` or ``snapshot_dt`` that is not finite and > 0 or a
    grid of more than ``MAX_SNAPSHOTS`` steps (``_snapshot_times``), and a
    reach of more than ``MAX_REACHED_ENTRIES`` entries or of more than
    ``MAX_KEPT_ENTRIES`` entries over all snapshots, t = 0 included
    (``_reached_blocks``).
    """
    times = _snapshot_times(t_end, snapshot_dt)
    space = rho0.space
    # the sector enumeration reads n_chain and m_atoms alone
    enumerated = (space.params.n_chain, space.params.m_atoms)
    if (params.n_chain, params.m_atoms) != enumerated:
        raise ValueError(f"params have (n_chain, m_atoms) = ({params.n_chain}, "
                         f"{params.m_atoms}), but rho0's space was enumerated for "
                         f"{enumerated}")
    # no rhs_sup is below -inf: without the steady test every snapshot is kept
    steady_threshold = STEADY_THRESHOLD * params.lam if detect_steady else -math.inf

    # the reach, its positions in rho.ravel() and its superoperator, once per
    # run: the propagator starts from them and the steady test reads them.
    # Both size bounds are checked before the generator is built.
    blocks, index = _reach(space, rho0.data, bool(_jump_slots(params, include_atomic_decay)),
                           len(times))
    generator = lindblad_generator(params, space, include_atomic_decay)
    superop = generator._matrix(blocks)
    transposes = _transposes(index, space.dim)
    y0 = rho0.data.ravel()[index]
    try:
        chunks = _Cascade(generator, blocks, rho0.data, t_end).chunks(times)
        fallback_reason = ""
    except _CascadeRejected as exc:
        chunks = _krylov_chunks(superop, y0, times)
        fallback_reason = str(exc)
    dim = space.dim
    label = _sector_labels(space)
    offblock = label[index // dim] != label[index % dim]
    on_diagonal = np.flatnonzero(index // dim == index % dim)
    # one item per kept snapshot, t = 0 first, in each of these lists
    kept_times, entries, traces, min_eigs, offblocks = [], [], [], [], []

    def keep(ts: list[float], ys: np.ndarray, chunk_min_eigs: list[float]) -> None:
        diagonals = np.zeros((len(ys), dim), dtype=np.complex128)
        diagonals[:, index[on_diagonal] // dim] = ys[:, on_diagonal]
        traces.extend(diagonals.sum(axis=1).real.tolist())  # np.trace of each, to the bit
        offblocks.extend(np.abs(ys[:, offblock]).max(axis=1, initial=0.0).tolist())
        kept_times.extend(ts)
        entries.extend(ys)
        min_eigs.extend(chunk_min_eigs)

    keep([0.0], y0[None], [rho0.min_eigenvalue()])
    steady_time: float | None = None
    below = False  # the last judged snapshot's rhs_sup is below the threshold
    rhs_sup_last = 0.0

    for ts, ys in chunks:
        ys_sym = 0.5 * (ys + ys[:, transposes].conj())  # symmetrized storage
        rhs_sups = np.abs(superop @ ys_sym.T).max(axis=0, initial=0.0)
        # judge the snapshots up to the steady stop, the second of the first
        # two consecutive ones below the threshold
        belows = np.concatenate(([below], rhs_sups < steady_threshold))
        stops = np.flatnonzero(belows[:-1] & belows[1:])
        n = int(stops[0]) + 1 if len(stops) else len(ts)
        ts, ys_sym, below = ts[:n], ys_sym[:n], belows[-1]
        chunk_min_eigs = _min_eigenvalues(space, blocks, ys_sym)
        bad = np.flatnonzero(np.less(chunk_min_eigs, -POSITIVITY_LIMIT))
        if len(bad):
            raise IntegrationError(f"positivity violated at t={ts[bad[0]]:.6g}: min eigenvalue "
                                   f"{chunk_min_eigs[bad[0]]:.3e}")
        keep(ts.tolist(), ys_sym, chunk_min_eigs)
        drifts = np.abs(np.subtract(traces[-n:], traces[0]))
        bad = np.flatnonzero(~(drifts <= TRACE_DRIFT_LIMIT))  # a NaN trace fails too
        if len(bad):
            raise IntegrationError(f"trace drifted at t={ts[bad[0]]:.6g}: |trace - trace(rho0)| "
                                   f"= {drifts[bad[0]]:.3e}")
        rhs_sup_last = float(rhs_sups[n - 1])
        if len(stops):
            steady_time = kept_times[-1]
            break

    # the builtins keep the first of equal values, in time order
    diag = TrajectoryDiagnostics(
        max_trace_drift=max(abs(trace - traces[0]) for trace in traces),
        min_eigenvalue=min(min_eigs), max_offblock=max(offblocks), rhs_sup_last=rhs_sup_last,
        propagator="krylov" if fallback_reason else "cascade", fallback_reason=fallback_reason)
    return Trajectory(np.array(kept_times), TrajectoryStates(space, index, entries),
                      np.array(min_eigs), np.array(traces), steady_time is not None,
                      steady_time, diag)


def trapped_probabilities(rho: DensityMatrix,
                          bic_states: Sequence[StateVector]) -> list[float]:
    """Diagonal expectations <beta_i| rho |beta_i> of the given trapped
    states, read from the nonzero entries of ``rho`` as
    ``TrajectoryStates.expectations`` reads a run's kept entries."""
    index = np.flatnonzero(rho.data)
    states = TrajectoryStates(rho.space, index, [rho.data.ravel()[index]])
    return states.expectations(bic_states)[0].tolist()


# -- twisted collective spin --------------------------------------------


@dataclass(frozen=True)
class DickeState:
    """Simultaneous eigenvector |s, m_s> of the twisted total spin."""

    s: int
    m_s: int
    vector: np.ndarray  # over the (M+1)^2 product basis, index n_left*(M+1)+n_right


def _single_ensemble_ops(m_atoms: int) -> tuple[np.ndarray, np.ndarray]:
    """(Jz, J+) for one collective spin of M atoms in the excited-count basis."""
    n = np.arange(m_atoms + 1)
    jz = np.diag(n - m_atoms / 2.0)
    jp = np.zeros((m_atoms + 1, m_atoms + 1))
    for k in range(m_atoms):
        jp[k + 1, k] = math.sqrt((k + 1) * (m_atoms - k))
    return jz, jp


def twisted_spin_ops(m_atoms: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Sz, S+, S^2) on the two-ensemble product space with the right-hand
    ladder operators negated."""
    jz, jp = _single_ensemble_ops(m_atoms)
    eye = np.eye(m_atoms + 1)
    sz = np.kron(jz, eye) + np.kron(eye, jz)
    sp = np.kron(jp, eye) - np.kron(eye, jp)
    sm = sp.T
    s2 = sp @ sm + sz @ sz - sz
    return sz, sp, s2


def dicke_basis(params: ModelParams) -> list[DickeState]:
    """Simultaneous eigenbasis of S^2 and Sz on the (M+1)^2 atomic space.

    S^2 is diagonalized first; within each total-spin eigenspace Sz is
    diagonalized to resolve the degeneracy.  Each vector's phase makes its
    first nonzero amplitude (product-basis order) real and positive.
    Returned sorted by (s, m_s).
    """
    m_atoms = params.m_atoms
    sz, _sp, s2 = twisted_spin_ops(m_atoms)
    evals, vecs = np.linalg.eigh(s2)
    s_values = np.round((-1.0 + np.sqrt(1.0 + 4.0 * evals)) / 2.0).astype(int)
    out: list[DickeState] = []
    for s in sorted(set(s_values.tolist())):
        cols = np.where(s_values == s)[0]
        block = vecs[:, cols]
        m_vals, rot = np.linalg.eigh(block.T @ sz @ block)
        resolved = block @ rot
        for j in range(resolved.shape[1]):
            v = resolved[:, j]
            nz = np.where(np.abs(v) > 1e-8)[0][0]
            if v[nz] < 0:
                v = -v
            out.append(DickeState(s=s, m_s=int(round(m_vals[j])), vector=v))
    out.sort(key=lambda d: (d.s, d.m_s))
    return out


def steady_state_prediction(params: ModelParams,
                            psi0_atomic: np.ndarray) -> list[tuple[int, float]]:
    """Weights p_s = sum_{m_s} |<s, m_s | psi0>|^2 of the dark-state mixture
    that free evolution relaxes the given atomic state into."""
    psi0 = np.asarray(psi0_atomic, dtype=np.complex128)
    expected = (params.m_atoms + 1) ** 2
    if psi0.shape != (expected,):
        raise ValueError(f"atomic state must have length {expected}")
    weights: dict[int, float] = {}
    for state in dicke_basis(params):
        amp = np.vdot(state.vector, psi0)
        weights[state.s] = weights.get(state.s, 0.0) + float(abs(amp) ** 2)
    return sorted(weights.items())


def effective_tc_hamiltonian(params: ModelParams, sector: SectorBasis) -> sparse.csr_matrix:
    """Resonant-sector effective Hamiltonian for the triple-cavity case:
    the twisted collective spin exchanging excitations with the
    antisymmetric end-cavity mode (a_L - a_R)/sqrt(2) only.

    The two far-detuned symmetric modes are dropped, which makes the total
    spin s a constant of motion.
    """
    from scipy import sparse
    if params.n_chain != 2:
        raise ValueError("effective exchange model requires the triple-cavity "
                         "configuration (n_chain=2)")
    n = params.n_chain
    sector_km1 = enumerate_sector(params, sector.k_excitations - 1)
    a_left, a_right, j_left, j_right = (
        sparse.csr_matrix((m.amp.astype(np.complex128), (m.rows, m.cols)), shape=m.shape)
        for m in lowering_maps(params, sector, sector_km1, [0, n, n + 1, n + 2]))
    a_minus = (1.0 / math.sqrt(2.0)) * (a_left - a_right)
    s_minus = j_left - j_right
    sz = sparse.diags(sector.occupations[:, -2:].sum(axis=1) - params.m_atoms,
                            dtype=np.complex128)

    a_dag = a_minus.conj().T
    coupling = a_dag @ s_minus
    h_eff = (params.omega_a * sz
             + params.omega_c * (a_dag @ a_minus)
             + (params.g / math.sqrt(2.0)) * (coupling + coupling.conj().T))
    return h_eff.tocsr()


# Smallest R^2 of the log-linear fit that ``fit_decay_rate`` accepts.
MIN_R_SQUARED = 0.9


def fit_decay_rate(trajectory, observable: Callable[[DensityMatrix], float] | None = None,
                   t_min: float | None = None) -> float:
    """Least-squares decay rate of log(observable) over the samples at
    t >= ``t_min`` (all of them by default).

    ``trajectory`` is either a :class:`Trajectory` (with ``observable``
    mapping states to positive reals) or a ``(times, values)`` pair.
    Raises :class:`FitError` on a non-finite sample, on non-decaying
    signals and on fits with R^2 below ``MIN_R_SQUARED``, and
    ``ValueError`` on times that are not finite or not one per sample.
    """
    if isinstance(trajectory, Trajectory):
        if observable is None:
            raise ValueError("an observable is required with a Trajectory input")
        times = trajectory.times
        values = trajectory.observable(observable)
    else:
        times, values = trajectory
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise ValueError(f"need one time per sample, got {times.shape} times and "
                         f"{values.shape} samples")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if not np.isfinite(values).all():
        raise FitError("observable must be finite at every sample")

    mask = np.ones(len(times), dtype=bool) if t_min is None else times >= t_min
    t = times[mask]
    y = values[mask]
    if len(t) < 3:
        raise FitError("need at least three samples in the fit window")
    if np.any(y <= 0):
        raise FitError("observable must stay positive over the fit window")
    log_y = np.log(y)
    slope, intercept = np.polyfit(t, log_y, 1)
    if slope >= 0:
        raise FitError("signal does not decay over the fit window")
    residual = log_y - (slope * t + intercept)
    total = log_y - log_y.mean()
    ss_tot = float(total @ total)
    if ss_tot <= 0:
        raise FitError("signal does not decay over the fit window")
    r_squared = 1.0 - float(residual @ residual) / ss_tot
    if r_squared < MIN_R_SQUARED:
        raise FitError(f"signal too noisy for an exponential fit (R^2={r_squared:.3f})")
    return float(-slope)
