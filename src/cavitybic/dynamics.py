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
blocks alone, the Hamiltonian's (K, K) and each jump's (K - 1, K), never
as matrices on the whole stacked space.  Only the blocks that the
generator reaches from the nonzero blocks of the initial state are ever
nonzero: with a jump, the blocks (K - j, K' - j), 0 <= j <= min(K, K'),
of every nonzero start block (K, K'); for a sector-diagonal start these
are the diagonal blocks alone.

``evolve`` propagates those blocks exactly.  With the non-Hermitian
H_eff = H - (i/2) sum gamma c+ c diagonalised per sector, H_eff,K =
V_K E_K V_K^-1, block (K, K') is V_K X(t) V_K'^+ where X(t) is a sum of
exponentials: its own modes decay at the rates
mu_ab = -i (E_K,a - conj(E_K',b)), and every mode of the block above,
carried down by the jumps, drives it at that mode's own rate.  There is
no step size and no tolerance.  A term e^{mu t} below the smallest
normal float (``_TINY``) in magnitude is an exact zero and is never
computed, and so is an entry of X(t) below it: a decayed mode costs no
subnormal arithmetic.  Inputs the eigenbasis cannot represent
accurately fail one of three guards: an ill-conditioned V, a resonance
that needs a secular t e^{mu t} term, or too many coefficients.  They run
on an adaptive RK45 integrator of the sparse superoperator instead, and
the trajectory's diagnostics name the path that ran.  On either path a
snapshot whose smallest eigenvalue is below -``POSITIVITY_LIMIT`` aborts
the run, and the run stops early once max |d rho / dt| stays below
``STEADY_THRESHOLD`` lam.  Both tests run on a chunk of snapshots at once,
positivity as one stacked ``eigvalsh`` per sector, and a trajectory keeps
each snapshot as its reached entries alone.

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

import numpy as np
from scipy import sparse

from .bic import StateVector
from .model import ModelParams, SectorBasis, enumerate_sector
from .operators import (build_collective_lowering, build_end_annihilation,
                        build_hamiltonian)


def __getattr__(name: str):
    # bench/tracing.py reads ``dynamics.solve_ivp`` when it installs.  The name
    # is resolved on that access, so that only the RK45 fallback and a traced
    # run pay for importing ``scipy.integrate``.
    if name == "solve_ivp":
        from scipy.integrate import solve_ivp
        return solve_ivp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class IntegrationError(RuntimeError):
    """Master-equation integration failed (step underflow or positivity loss)."""


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

    def copy(self) -> "DensityMatrix":
        return DensityMatrix(self.space, self.data.copy())

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


def _block_keys(space: SectorStack, rows: np.ndarray, cols: np.ndarray) -> list[tuple[int, int]]:
    """Sorted sector blocks (J, K) that hold the stacked-space entries (rows, cols)."""
    label, n = _sector_labels(space), space.k_max + 1
    return [divmod(int(key), n) for key in np.unique(label[rows] * n + label[cols])]


def _block_index(space: SectorStack, blocks: Sequence[tuple[int, int]]) -> np.ndarray:
    """Positions in ``rho.ravel()`` of the entries of ``blocks``, block by
    block and row-major within a block."""
    dims, start = np.diff(space.offsets), space.offsets
    index = [((start[k] + np.arange(dims[k]))[:, None] * space.dim
              + start[k_col] + np.arange(dims[k_col])).ravel() for k, k_col in blocks]
    return np.concatenate([np.zeros(0, dtype=np.int64), *index])


def _nonzero(blocks: dict) -> dict:
    """The sector blocks that hold a nonzero, their stored zeros removed in
    place."""
    out = {}
    for key, blk in blocks.items():
        blk.eliminate_zeros()
        if blk.nnz:
            out[key] = blk
    return out


class LindbladGenerator:
    """Right-hand side of the master equation on a sector stack.

    Takes every operator as its sector blocks: ``hamiltonian`` maps (K, K)
    to the rotating-frame H_K, and each jump is ``(rate, {(K - 1, K): c_K})``.
    Holds H_eff,K = H_K - (i/2) sum gamma c_K+ c_K and the jumps once each,
    sparse CSR with no stored zero and no empty block; ``evolve``'s cascade
    reads the same blocks.  The generator is L rho = -i H_eff rho +
    i rho H_eff+ + sum gamma c rho c+, and ``superoperator`` vectorises it
    row-major, vec(A rho B) = (A kron B^T) vec(rho), on the sector blocks
    that a given state reaches: a block (K, K') feeds -i H_eff,K kron I and
    I kron i conj(H_eff,K') into itself and gamma c_K kron conj(c_K') into
    (K - 1, K' - 1).
    """

    def __init__(self, space: SectorStack, hamiltonian: dict,
                 jumps: Iterable[tuple[float, dict]]):
        self.space = space
        self._jumps = [(float(rate), _nonzero(blocks)) for rate, blocks in jumps]
        h_eff = {}
        for (k, k_col), blk in hamiltonian.items():
            for rate, blocks in self._jumps:
                if (k - 1, k) in blocks:
                    c = blocks[(k - 1, k)]
                    blk = blk - (0.5j * rate) * (c.conj().T @ c)
            h_eff[(k, k_col)] = blk
        self._h_eff_blocks = _nonzero(h_eff)

    def _reach(self, blocks: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        """Sorted sector blocks (K, K') that the generator reaches from
        ``blocks``, ``blocks`` included; a state supported on them stays so.
        H_eff keeps a block in place and the jumps carry (K, K') to
        (K - 1, K' - 1), down to a block of sector 0: every jump that
        ``lindblad_generator`` builds has a nonzero block (K - 1, K) for
        each K >= 1."""
        if not self._jumps:
            return sorted(set(blocks))
        return sorted({(k - j, k_col - j) for k, k_col in blocks
                       for j in range(min(k, k_col) + 1)})

    def superoperator(self, rho: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray,
                                                      sparse.csr_matrix]:
        """``(blocks, index, matrix)`` for the sorted sector ``blocks``
        reached from the nonzero blocks of ``rho``: ``index`` holds their
        positions in ``rho.ravel()`` (block by block, row-major within a
        block), and ``apply(rho).ravel()[index] == matrix @ rho.ravel()[index]``
        while ``apply(rho)`` is zero elsewhere."""
        space, dim = self.space, self.space.dim
        if rho.shape != (dim, dim):
            raise ValueError("density matrix does not match the generator's space")
        blocks = self._reach(_block_keys(space, *np.nonzero(rho)))
        dims = np.diff(space.offsets)
        sizes = [int(dims[k] * dims[k_col]) for k, k_col in blocks]
        start = dict(zip(blocks, np.cumsum([0] + sizes).tolist()))
        empty = np.zeros(0, dtype=np.int64)
        rows, cols, vals = [empty], [empty], [empty.astype(np.complex128)]
        h_eff = self._h_eff_blocks
        for k, k_col in blocks:
            eye, eye_col = (sparse.identity(dims[j], dtype=np.complex128, format="csr")
                            for j in (k, k_col))
            # (block written, A, B) of each term A rho B that reads block (K, K')
            terms = []
            if (k, k) in h_eff:
                terms.append(((k, k_col), -1j * h_eff[(k, k)], eye_col))
            if (k_col, k_col) in h_eff:
                terms.append(((k, k_col), eye, 1j * h_eff[(k_col, k_col)].conj()))
            terms += [((k - 1, k_col - 1), rate * jump[(k - 1, k)],
                       jump[(k_col - 1, k_col)].conj())
                      for rate, jump in self._jumps
                      if (k - 1, k) in jump and (k_col - 1, k_col) in jump]
            for into, a, b in terms:
                term = sparse.kron(a, b, format="coo")
                rows.append(term.row + start[into])
                cols.append(term.col + start[(k, k_col)])
                vals.append(term.data)
        size = sum(sizes)
        matrix = sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size))
        return blocks, _block_index(space, blocks), matrix

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """d rho / dt for a d x d matrix; builds ``superoperator(rho)`` on
        every call, where ``evolve`` builds it once per run."""
        _blocks, index, matrix = self.superoperator(rho)
        out = np.zeros(rho.size, dtype=np.complex128)
        out[index] = matrix @ rho.ravel()[index]
        return out.reshape(rho.shape)


def lindblad_generator(params: ModelParams, space: SectorStack,
                       include_atomic_decay: bool = False) -> LindbladGenerator:
    """Build the master-equation generator on the sectors of ``space``, as
    sector blocks straight from ``operators``: each jump's (K - 1, K) and
    H_K - (omega_c K - omega_a M) on (K, K), the module docstring's frame,
    which leaves no offset for the eigen-solves to lose digits to and no
    block for sector 0.

    End-cavity leakage at rate gamma_c is always included; collective
    atomic damping at rate gamma_a is added when requested.
    """
    sectors = space.sectors
    hamiltonian = {(k, k): build_hamiltonian(params, sec, sectors[k - 1] if k else None)
                   - (params.omega_c * k - params.omega_a * params.m_atoms)
                   * sparse.identity(sec.dim)
                   for k, sec in enumerate(sectors)}
    lowerings = []
    if params.gamma_c > 0:
        lowerings.append((params.gamma_c, build_end_annihilation))
    if include_atomic_decay and params.gamma_a > 0:
        lowerings.append((params.gamma_a, build_collective_lowering))
    jumps = [(rate, {(k - 1, k): builder(params, sectors[k], sectors[k - 1], side)
                     for k in range(1, len(sectors))})
             for rate, builder in lowerings for side in ("L", "R")]
    return LindbladGenerator(space, hamiltonian, jumps)


@dataclass
class TrajectoryDiagnostics:
    max_trace_drift: float = 0.0
    min_eigenvalue: float = 0.0
    max_offblock: float = 0.0  # largest propagated entry outside the diagonal blocks
    rhs_sup_last: float = 0.0
    n_rhs_evaluations: int = 0  # RK45 right-hand-side evaluations; 0 on the cascade
    propagator: str = "cascade"  # the path that ran: "cascade" or "rk45"
    fallback_reason: str = ""  # the cascade guard that sent the run to RK45


class TrajectoryStates(Sequence):
    """The states of a ``Trajectory``, read-only.  The first is the initial
    state as given.  Every later one is kept as its symmetrised entries at
    ``index``, the positions in ``rho.ravel()`` of the sector blocks that
    the run reaches (all other entries are zero), and is rebuilt as a
    ``DensityMatrix`` each time it is read."""

    def __init__(self, initial: DensityMatrix, index: np.ndarray,
                 entries: list[np.ndarray]):
        self.initial = initial
        self.index = index
        self.entries = entries  # one row of len(index) entries per later state

    def __len__(self) -> int:
        return 1 + len(self.entries)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # negative indices count from the end
        if i == 0:
            return self.initial.copy()
        dim = self.initial.space.dim
        flat = np.zeros(dim * dim, dtype=np.complex128)
        flat[self.index] = self.entries[i - 1]
        return DensityMatrix(self.initial.space, flat.reshape(dim, dim))


@dataclass
class Trajectory:
    times: np.ndarray
    states: TrajectoryStates
    min_eigenvalues: np.ndarray  # smallest eigenvalue of each stored state
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
# ``evolve`` stops at steady state once max |d rho / dt| stays below this
# many hopping rates lam at two consecutive snapshots.
STEADY_THRESHOLD = 1e-9
# ``evolve`` aborts at a snapshot whose smallest eigenvalue is below minus this.
POSITIVITY_LIMIT = 1e-6

# Most steps the RK45 fallback may take.  The fallback runs measured on a
# 2-core x86 host took 113 (g = 0, gamma_a = 0.05), 462 (n_chain = 2,
# m_atoms = 1, g = 0.25), 886 ((2, 4), t_end = 200), 2,864 ((2, 4)) and
# 3,290 ((4, 3)) steps; the cap is 30 times the largest.  A stiff run (a
# decay rate far above the hopping rate, with the cascade rejected) would
# otherwise step for minutes.
MAX_RK45_STEPS = 100_000

# Guards of the cascade propagator; a run that fails one goes to RK45.
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
# Snapshots the cascade evaluates at once; the steady test may stop a run
# inside a chunk.
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
    each sector's H_eff (see the module docstring).  Reads the sector
    blocks that ``LindbladGenerator`` holds: H_eff's (K, K) and each
    jump's (K - 1, K).  The reached ``blocks`` come from ``evolve``."""

    name = "cascade"
    n_rhs_evaluations = 0

    def __init__(self, generator: LindbladGenerator, blocks: list[tuple[int, int]],
                 rho0: np.ndarray, t_end: float):
        space = generator.space
        jumps = [(rate, {j: blk.toarray() for (j, _k), blk in jump_blocks.items()})
                 for rate, jump_blocks in generator._jumps]
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
            # a sector whose H_eff block is zero has no stored block
            zero = sparse.csr_matrix((dims[k], dims[k]), dtype=np.complex128)
            energies, vecs = np.linalg.eig(generator._h_eff_blocks.get((k, k), zero).toarray())
            cond = np.linalg.cond(vecs)
            if not cond <= MAX_EIGENVECTOR_CONDITION:
                raise _CascadeRejected(f"sector {k}: H_eff eigenvectors have condition "
                                       f"number {cond:.3g} > {MAX_EIGENVECTOR_CONDITION:g}")
            self._eig[k] = (energies, vecs, np.linalg.inv(vecs))
        # (rate, c_K, c_K') of every jump that drives a block, c_K its block (K, K + 1)
        drive = {key: [(rate, c[key[0]], c[key[1]]) for rate, c in jumps
                       if key[0] in c and key[1] in c] for key in above}

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
                # T = sum rate kron(V_K^-1 c V_K+1, conj(V_K'^-1 c V_K'+1))
                left = [rate * (w_k @ c_k @ v_up) for rate, c_k, _ in drive[key]]
                right = [(w_c @ c_col @ v_up_c).conj() for _, _, c_col in drive[key]]
                t_map = np.zeros((mu.size, top.mu.size), dtype=np.complex128)
                if left:  # one einsum, so no temporary as large as T
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
        ``_TINY`` (Re(mu t) < log _TINY) is never computed, and an entry of
        X below ``_TINY`` is set to zero, so X holds no subnormal float."""
        expo = {}
        for key, blk in self._modes.items():
            exponent = np.outer(blk.mu, ts)
            live = exponent.real >= _LOG_TINY
            expo[key] = (np.exp(exponent, out=np.zeros_like(exponent), where=live), live)
        xs = {}
        for key in self.blocks:
            blk = self._modes[key]
            own, live = expo[key]
            x = np.multiply(blk.h[:, None], own, out=np.zeros_like(own), where=live)
            for src, p in blk.parts:
                if expo[src][1].any():  # a block whose modes are all dead drives nothing
                    x += p @ expo[src][0]
            x[np.abs(x) < _TINY] = 0.0
            xs[key] = x
        return xs

    def _evaluate(self, ts: np.ndarray) -> np.ndarray:
        out = [np.zeros((len(ts), 0), dtype=np.complex128)]  # a zero rho0 reaches no block
        for (k, k_col), x in self._eigenbasis(ts).items():
            v_k, v_c = self._eig[k][1], self._eig[k_col][1]
            x = x.T.reshape(len(ts), len(v_k), len(v_c))
            out.append((v_k @ x @ v_c.conj().T).reshape(len(ts), -1))
        return np.hstack(out)


class _Rk45:
    """Adaptive RK45 on the sparse superoperator of the reached blocks,
    read out on the snapshot grid from each step's dense output.

    An overflow or an invalid value while choosing or taking a step raises
    ``FloatingPointError`` (a NaN step size would otherwise make one step
    retry forever), and a run that needs more than ``MAX_RK45_STEPS`` steps
    raises ``IntegrationError``."""

    name = "rk45"

    def __init__(self, superop: sparse.csr_matrix, y0: np.ndarray, t_end: float,
                 rtol: float, atol: float):
        from scipy.integrate import RK45
        with np.errstate(over="raise", invalid="raise"):
            self._solver = RK45(lambda _t, y: superop @ y, 0.0, y0, t_end,
                                rtol=rtol, atol=atol)

    @property
    def n_rhs_evaluations(self) -> int:
        return self._solver.nfev

    def chunks(self, times: np.ndarray):
        """``(ts, ys)`` over ``times[1:]`` in order, one chunk per step that
        passes a snapshot time; as ``_Cascade.chunks``."""
        solver, next_snap, steps = self._solver, 1, 0
        while next_snap < len(times):
            if steps == MAX_RK45_STEPS:
                raise IntegrationError(f"RK45 reached only t={solver.t:.6g} of {times[-1]:.6g} "
                                       f"in MAX_RK45_STEPS = {MAX_RK45_STEPS} steps")
            steps += 1
            with np.errstate(over="raise", invalid="raise"):
                message = solver.step()
            if solver.status == "failed":
                raise IntegrationError(f"integration failed at t={solver.t:.6g}: {message}")
            stop = int(np.searchsorted(times, solver.t, side="right"))
            if stop <= next_snap:
                continue
            snap_times = times[next_snap:stop]
            next_snap = stop
            yield snap_times, solver.dense_output()(snap_times).T


def _require_positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def evolve(params: ModelParams, rho0: DensityMatrix, t_end: float, *,
           include_atomic_decay: bool = False,
           snapshot_dt: float | None = None,
           rtol: float = 1e-8, atol: float = 1e-12,
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
    integrated by adaptive RK45 instead, with ``rtol`` and ``atol``, which
    govern nothing else:
      * a sector's eigenvector matrix has a condition number above
        ``MAX_EIGENVECTOR_CONDITION`` (at or near an exceptional point);
      * a particular coefficient S / (lam - mu) would round by more than
        ``_CASCADE_TOL`` while its secular term, at most |S| t_end, is not
        that small (at a resonance lam = mu the exact answer has a
        t e^{mu t} term);
      * the coefficients would exceed ``MAX_CASCADE_COEFFICIENTS``.
    ``diagnostics.propagator`` names the path that ran and
    ``diagnostics.fallback_reason`` the guard that failed.

    On the cascade, a term e^{mu t} or an entry of an eigenbasis block X(t)
    below ``_TINY`` in magnitude (the smallest normal float) is an exact
    zero, so decayed modes cost no subnormal arithmetic.

    Trace, Hermiticity (symmetrised storage) and positivity are checked at
    every snapshot; a smallest eigenvalue below -``POSITIVITY_LIMIT`` raises
    ``IntegrationError`` at the first such snapshot in time order.
    Positivity is computed per chunk of snapshots: one stacked ``eigvalsh``
    per sector over their diagonal blocks, and the full matrix's for a
    snapshot with a nonzero entry off those blocks, as
    ``DensityMatrix.min_eigenvalue`` does.  ``trajectory.states`` keeps each
    snapshot as its symmetrised entries at the reach's positions and builds
    the ``DensityMatrix`` when it is read.  ``rho0`` must be Hermitian and
    enumerated for ``params``' ``n_chain`` and ``m_atoms``; otherwise
    ``ValueError``.  When ``detect_steady`` is on, the run stops once
    max |d rho / dt| stays below ``STEADY_THRESHOLD`` * lam at two
    consecutive snapshots; on either propagator
    d rho / dt is that superoperator times the symmetrised snapshot, and
    ``diagnostics.rhs_sup_last`` keeps its last value.  A grid of more than
    ``MAX_SNAPSHOTS`` snapshots raises ``ValueError``.
    """
    _require_positive_finite("t_end", t_end)
    if snapshot_dt is None:
        snapshot_dt = t_end / 200.0
    _require_positive_finite("snapshot_dt", snapshot_dt)
    if t_end / snapshot_dt > MAX_SNAPSHOTS:
        raise ValueError(f"t_end / snapshot_dt must be at most {MAX_SNAPSHOTS}, "
                         f"got {t_end / snapshot_dt:.3g}")
    space = rho0.space
    # the sector enumeration reads n_chain and m_atoms alone
    enumerated = (space.params.n_chain, space.params.m_atoms)
    if (params.n_chain, params.m_atoms) != enumerated:
        raise ValueError(f"params have (n_chain, m_atoms) = ({params.n_chain}, "
                         f"{params.m_atoms}), but rho0's space was enumerated for "
                         f"{enumerated}")
    generator = lindblad_generator(params, space, include_atomic_decay)
    steady_threshold = STEADY_THRESHOLD * params.lam
    n_snap = max(1, int(math.ceil(t_end / snapshot_dt - 1e-12)))
    times = np.linspace(0.0, t_end, n_snap + 1)

    # the reach, its positions in rho.ravel() and its superoperator, once per
    # run: the propagator starts from them and the steady test reads them
    blocks, index, superop = generator.superoperator(rho0.data)
    transposes = _transposes(index, space.dim)
    y0 = rho0.data.ravel()[index]
    try:
        path = _Cascade(generator, blocks, rho0.data, t_end)
        fallback_reason = ""
    except _CascadeRejected as exc:
        path = _Rk45(superop, y0, t_end, rtol, atol)
        fallback_reason = str(exc)
    dim = space.dim
    label = _sector_labels(space)
    offblock = label[index // dim] != label[index % dim]
    on_diagonal = np.flatnonzero(index // dim == index % dim)
    trace0 = rho0.trace()

    min_eigs = [rho0.min_eigenvalue()]
    diag = TrajectoryDiagnostics(min_eigenvalue=min_eigs[0],
                                 max_offblock=float(np.abs(y0[offblock]).max(initial=0.0)),
                                 propagator=path.name, fallback_reason=fallback_reason)
    kept_times = [0.0]
    entries: list[np.ndarray] = []
    steady_reached = False
    steady_time: float | None = None
    below_count = 0

    for ts, ys in path.chunks(times):
        ys_sym = 0.5 * (ys + ys[:, transposes].conj())  # symmetrized storage
        rhs_sups = np.abs(superop @ ys_sym.T).max(axis=0, initial=0.0)
        offblocks = np.abs(ys_sym[:, offblock]).max(axis=1, initial=0.0)
        diagonals = np.zeros((len(ts), dim), dtype=np.complex128)
        diagonals[:, index[on_diagonal] // dim] = ys_sym[:, on_diagonal]
        traces = diagonals.sum(axis=1).real  # np.trace of each snapshot, to the bit
        chunk_min_eigs = _min_eigenvalues(space, blocks, ys_sym)
        for i, t in enumerate(ts):
            drift = abs(float(traces[i]) - trace0)
            diag.max_trace_drift = max(diag.max_trace_drift, drift)
            min_eig = chunk_min_eigs[i]
            diag.min_eigenvalue = min(diag.min_eigenvalue, min_eig)
            if min_eig < -POSITIVITY_LIMIT:
                raise IntegrationError(
                    f"positivity violated at t={t:.6g}: min eigenvalue {min_eig:.3e}")
            diag.max_offblock = max(diag.max_offblock, float(offblocks[i]))
            entries.append(ys_sym[i])
            min_eigs.append(min_eig)
            kept_times.append(float(t))
            diag.rhs_sup_last = float(rhs_sups[i])
            if detect_steady:
                if rhs_sups[i] < steady_threshold:
                    below_count += 1
                    if below_count >= 2:
                        steady_reached = True
                        steady_time = float(t)
                        break
                else:
                    below_count = 0
        if steady_reached:
            break
    diag.n_rhs_evaluations = path.n_rhs_evaluations

    return Trajectory(np.array(kept_times), TrajectoryStates(rho0.copy(), index, entries),
                      np.array(min_eigs), steady_reached, steady_time, diag)


def trapped_probabilities(rho: DensityMatrix,
                          bic_states: Sequence[StateVector]) -> list[float]:
    """Diagonal expectations <beta_i| rho |beta_i> of the given trapped states."""
    out = []
    for state in bic_states:
        vec = rho.space.embed(state)
        out.append(float(np.real(vec.conj() @ rho.data @ vec)))
    return out


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
    if params.n_chain != 2:
        raise ValueError("effective exchange model requires the triple-cavity "
                         "configuration (n_chain=2)")
    k = sector.k_excitations
    sector_km1 = enumerate_sector(params, k - 1)
    a_left = build_end_annihilation(params, sector, sector_km1, "L")
    a_right = build_end_annihilation(params, sector, sector_km1, "R")
    a_minus = (1.0 / math.sqrt(2.0)) * (a_left - a_right)
    s_minus = (build_collective_lowering(params, sector, sector_km1, "L")
               - build_collective_lowering(params, sector, sector_km1, "R"))
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
    Raises :class:`FitError` on non-decaying signals and on fits with
    R^2 below ``MIN_R_SQUARED``.
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
