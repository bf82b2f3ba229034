"""Open-system evolution and collective-spin analysis.

Master equation
---------------
The reduced density matrix evolves under

    d rho / dt = -i [H, rho]
                 + sum_{mu = L,R} (gamma_c / 2) (2 a_mu rho a_mu+ - {a_mu+ a_mu, rho})
                 [+ sum_{mu} (gamma_a / 2) (2 J_mu- rho J_mu+ - {J_mu+ J_mu-, rho})]

with the optional collective atomic damping enabled on request.  Evolution
is carried out in the frame rotating at omega_c (the total excitation
number is subtracted from the Hamiltonian block by block), which removes
the fast carrier phase without changing any populations or any
fixed-excitation expectation values.

The state space is the direct sum of excitation sectors 0 .. K_max.  The
Hamiltonian is block diagonal and every jump operator maps sector K to
K - 1, so the generator feeds a block (K, K') of rho only into the blocks
(K, K') and (K - 1, K' - 1) (a weak U(1) symmetry, Buca & Prosen,
NJP 14, 073007 (2012)).  ``evolve`` therefore integrates only the blocks
that the generator reaches from the nonzero blocks of the initial state,
vectorised into one sparse superoperator.  For a sector-diagonal start
these are the diagonal blocks alone, and every off-diagonal block is zero
by construction.

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
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy import sparse
# ``evolve`` drives RK45 directly.  ``solve_ivp`` stays a module attribute
# because bench/tracing.py wraps ``dynamics.solve_ivp`` and fails without it.
from scipy.integrate import RK45, solve_ivp  # noqa: F401

from .bic import StateVector
from .model import ModelParams, SectorBasis, enumerate_sector
from .operators import (build_collective_lowering, build_end_annihilation,
                        build_hamiltonian)


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

    def hermiticity_defect(self) -> float:
        return float(np.abs(self.data - self.data.conj().T).max())

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.data)[0])

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


def _sector_labels(space: SectorStack) -> np.ndarray:
    """Excitation sector of every index of the stacked space."""
    return np.repeat(np.arange(space.k_max + 1), np.diff(space.offsets))


def _embed(space: SectorStack, k_row: int, k_col: int, block) -> sparse.csr_matrix:
    """Stacked-space operator whose only sector block (k_row, k_col) is ``block``."""
    coo = sparse.coo_matrix(block)
    return sparse.csr_matrix(
        (coo.data, (coo.row + space.offsets[k_row], coo.col + space.offsets[k_col])),
        shape=(space.dim, space.dim), dtype=np.complex128)


def _block_keys(space: SectorStack, rows: np.ndarray, cols: np.ndarray) -> list[tuple[int, int]]:
    """Sorted sector blocks (J, K) that hold the stacked-space entries (rows, cols)."""
    label, n = _sector_labels(space), space.k_max + 1
    return [divmod(int(key), n) for key in np.unique(label[rows] * n + label[cols])]


def _split(space: SectorStack, op: sparse.csr_matrix) -> dict[tuple[int, int], sparse.csr_matrix]:
    """The sector blocks (J, K) of a stacked-space operator that hold a nonzero."""
    op = op.copy()
    op.eliminate_zeros()
    coo = op.tocoo()
    return {(j, k): op[space.sector_slice(j), space.sector_slice(k)]
            for j, k in _block_keys(space, coo.row, coo.col)}


class LindbladGenerator:
    """Right-hand side of the master equation on a sector stack.

    Holds the rotating-frame Hamiltonian and the jump operators as sparse
    CSR matrices.  With H_eff = H - (i/2) sum gamma c+ c the generator is
    L rho = -i H_eff rho + i rho H_eff+ + sum gamma c rho c+, a sum of
    terms A rho B.  Each term is kept split into its nonzero sector blocks,
    and ``superoperator`` vectorises the terms row-major,
    vec(A rho B) = (A kron B^T) vec(rho), on the sector blocks that a given
    state reaches.
    """

    def __init__(self, space: SectorStack, hamiltonian,
                 jumps: Iterable[tuple[float, object]]):
        self.space = space
        self.hamiltonian = sparse.csr_matrix(hamiltonian, dtype=np.complex128)
        self._jumps = [(float(rate), sparse.csr_matrix(op, dtype=np.complex128))
                       for rate, op in jumps]
        h_eff = self.hamiltonian
        for rate, op in self._jumps:
            h_eff = h_eff - (0.5j * rate) * (op.conj().T @ op)
        eye = {(k, k): sparse.identity(sec.dim, dtype=np.complex128, format="csr")
               for k, sec in enumerate(space.sectors)}
        # one (blocks of A, blocks of B) pair per term A rho B
        self._terms = [(_split(space, -1j * h_eff), eye),
                       (eye, _split(space, 1j * h_eff.conj().T))]
        self._terms += [(_split(space, rate * op), _split(space, op.conj().T))
                        for rate, op in self._jumps]

    def _reach(self, blocks: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
        """Sorted sector blocks (K, K') that the generator reaches from
        ``blocks``, ``blocks`` included; a state supported on them stays so."""
        found = set(blocks)
        todo = list(found)
        while todo:
            k, k_col = todo.pop()
            for a_blocks, b_blocks in self._terms:
                for j, ka in a_blocks:
                    if ka != k:
                        continue
                    for kb, j_col in b_blocks:
                        if kb == k_col and (j, j_col) not in found:
                            found.add((j, j_col))
                            todo.append((j, j_col))
        return sorted(found)

    def superoperator(self, rho: np.ndarray) -> tuple[np.ndarray, sparse.csr_matrix]:
        """``(index, matrix)`` for the sector blocks reached from the nonzero
        blocks of ``rho``: ``index`` holds their positions in ``rho.ravel()``
        (block by block, row-major within a block), and
        ``apply(rho).ravel()[index] == matrix @ rho.ravel()[index]`` while
        ``apply(rho)`` is zero elsewhere."""
        space, dim = self.space, self.space.dim
        if rho.shape != (dim, dim):
            raise ValueError("density matrix does not match the generator's space")
        blocks = self._reach(_block_keys(space, *np.nonzero(rho)))
        dims = np.diff(space.offsets)
        sizes = [int(dims[k] * dims[k_col]) for k, k_col in blocks]
        start = dict(zip(blocks, np.cumsum([0] + sizes).tolist()))
        empty = np.zeros(0, dtype=np.int64)
        rows, cols, vals = [empty], [empty], [empty.astype(np.complex128)]
        for a_blocks, b_blocks in self._terms:
            for (j, k), a_blk in a_blocks.items():
                for (k_col, j_col), b_blk in b_blocks.items():
                    if (k, k_col) in start:  # then (j, j_col) is reached too
                        term = sparse.kron(a_blk, b_blk.T, format="coo")
                        rows.append(term.row + start[(j, j_col)])
                        cols.append(term.col + start[(k, k_col)])
                        vals.append(term.data)
        size = sum(sizes)
        matrix = sparse.csr_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(size, size))
        index = [((space.offsets[k] + np.arange(dims[k]))[:, None] * dim
                  + space.offsets[k_col] + np.arange(dims[k_col])).ravel()
                 for k, k_col in blocks]
        return np.concatenate([empty, *index]), matrix

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """d rho / dt for a d x d matrix; builds ``superoperator(rho)`` on
        every call, where ``evolve`` builds it once per run."""
        index, matrix = self.superoperator(rho)
        out = np.zeros(rho.size, dtype=np.complex128)
        out[index] = matrix @ rho.ravel()[index]
        return out.reshape(rho.shape)


def lindblad_generator(params: ModelParams, k_max: int,
                       include_atomic_decay: bool = False,
                       space: SectorStack | None = None) -> LindbladGenerator:
    """Build the master-equation generator for sectors 0 .. k_max.

    End-cavity leakage at rate gamma_c is always included; collective
    atomic damping at rate gamma_a is added when requested.
    """
    if space is None:
        space = stack_sectors(params, k_max)
    zero = sparse.csr_matrix((space.dim, space.dim), dtype=np.complex128)
    h = zero
    for k, sector in enumerate(space.sectors):
        # rotating frame: subtract omega_c times the excitation number
        block = (build_hamiltonian(params, sector)
                 - params.omega_c * k * sparse.identity(sector.dim))
        h = h + _embed(space, k, k, block)

    def stacked_lowering(builder, side: str) -> sparse.csr_matrix:
        full = zero
        for k in range(1, space.k_max + 1):
            op = builder(params, space.sectors[k], space.sectors[k - 1], side)
            full = full + _embed(space, k - 1, k, op)
        return full

    jumps: list[tuple[float, sparse.csr_matrix]] = []
    if params.gamma_c > 0:
        for side in ("L", "R"):
            jumps.append((params.gamma_c, stacked_lowering(build_end_annihilation, side)))
    if include_atomic_decay and params.gamma_a > 0:
        for side in ("L", "R"):
            jumps.append((params.gamma_a, stacked_lowering(build_collective_lowering, side)))
    return LindbladGenerator(space, h, jumps)


@dataclass
class TrajectoryDiagnostics:
    max_trace_drift: float = 0.0
    min_eigenvalue: float = 0.0
    max_offblock: float = 0.0  # largest integrated entry outside the diagonal blocks
    rhs_sup_last: float = 0.0
    n_rhs_evaluations: int = 0


@dataclass
class Trajectory:
    times: np.ndarray
    states: list[DensityMatrix]
    min_eigenvalues: np.ndarray  # smallest eigenvalue of each stored state
    steady_reached: bool = False
    steady_time: float | None = None
    diagnostics: TrajectoryDiagnostics = field(default_factory=TrajectoryDiagnostics)

    def observable(self, fn: Callable[[DensityMatrix], float]) -> np.ndarray:
        return np.array([fn(state) for state in self.states])

    def __iter__(self):
        return iter(zip(self.times, self.states))


def _require_positive_finite(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def evolve(params: ModelParams, rho0: DensityMatrix, t_end: float, *,
           generator: LindbladGenerator | None = None,
           include_atomic_decay: bool = False,
           snapshot_dt: float | None = None,
           rtol: float = 1e-8, atol: float = 1e-12,
           detect_steady: bool = True, steady_threshold: float | None = None,
           positivity_limit: float = 1e-6) -> Trajectory:
    """Integrate the master equation from 0 to ``t_end`` with one adaptive
    explicit Runge-Kutta stepper (RK45), reading snapshots on a regular
    grid from each step's dense output.

    Only the sector blocks that the generator reaches from the nonzero
    blocks of ``rho0`` are integrated (``LindbladGenerator.superoperator``).
    Trace, Hermiticity (symmetrised storage) and positivity are checked at
    every snapshot; positivity violations beyond ``positivity_limit`` abort
    the run.  When ``detect_steady`` is on, the run stops once
    max |d rho / dt| stays below ``steady_threshold`` (default
    1e-9 * lam) at two consecutive snapshots.
    """
    _require_positive_finite("t_end", t_end)
    if snapshot_dt is None:
        snapshot_dt = t_end / 200.0
    _require_positive_finite("snapshot_dt", snapshot_dt)
    space = rho0.space
    if generator is None:
        generator = lindblad_generator(params, space.k_max,
                                       include_atomic_decay=include_atomic_decay,
                                       space=space)
    elif generator.space is not space and (generator.space.params != space.params
                                           or generator.space.offsets != space.offsets):
        raise ValueError("generator and initial state live on different spaces")
    if steady_threshold is None:
        steady_threshold = 1e-9 * params.lam
    n_snap = max(1, int(math.ceil(t_end / snapshot_dt - 1e-12)))
    times = np.linspace(0.0, t_end, n_snap + 1)

    dim = space.dim
    index, superop = generator.superoperator(rho0.data)
    label = _sector_labels(space)
    offblock = label[index // dim] != label[index % dim]
    trace0 = rho0.trace()

    states = [rho0.copy()]
    min_eigs = [states[0].min_eigenvalue()]
    y0 = rho0.data.ravel()[index]
    diag = TrajectoryDiagnostics(min_eigenvalue=min_eigs[0],
                                 max_offblock=float(np.abs(y0[offblock]).max(initial=0.0)))
    kept_times = [0.0]
    steady_reached = False
    steady_time: float | None = None
    below_count = 0

    solver = RK45(lambda _t, y: superop @ y, 0.0, y0, t_end, rtol=rtol, atol=atol)
    flat = np.zeros(dim * dim, dtype=np.complex128)
    next_snap = 1
    while next_snap <= n_snap and not steady_reached:
        message = solver.step()
        if solver.status == "failed":
            raise IntegrationError(f"integration failed at t={solver.t:.6g}: {message}")
        stop = int(np.searchsorted(times, solver.t, side="right"))
        if stop <= next_snap:
            continue
        snap_times = times[next_snap:stop]
        next_snap = stop
        for t, y in zip(snap_times, solver.dense_output()(snap_times).T):
            flat[index] = y
            rho = flat.reshape(dim, dim)
            rho = 0.5 * (rho + rho.conj().T)  # symmetrized storage
            state = DensityMatrix(space, rho)
            drift = abs(state.trace() - trace0)
            diag.max_trace_drift = max(diag.max_trace_drift, drift)
            min_eig = state.min_eigenvalue()
            diag.min_eigenvalue = min(diag.min_eigenvalue, min_eig)
            if min_eig < -positivity_limit:
                raise IntegrationError(
                    f"positivity violated at t={t:.6g}: min eigenvalue {min_eig:.3e}")
            y_sym = rho.ravel()[index]
            diag.max_offblock = max(diag.max_offblock,
                                    float(np.abs(y_sym[offblock]).max(initial=0.0)))
            states.append(state)
            min_eigs.append(min_eig)
            kept_times.append(float(t))
            rhs_sup = float(np.abs(superop @ y_sym).max(initial=0.0))
            diag.rhs_sup_last = rhs_sup
            if detect_steady:
                if rhs_sup < steady_threshold:
                    below_count += 1
                    if below_count >= 2:
                        steady_reached = True
                        steady_time = float(t)
                        break
                else:
                    below_count = 0
    diag.n_rhs_evaluations = solver.nfev

    return Trajectory(np.array(kept_times), states, np.array(min_eigs),
                      steady_reached, steady_time, diag)


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


def fit_decay_rate(trajectory, observable: Callable[[DensityMatrix], float] | None = None,
                   t_min: float | None = None, t_max: float | None = None,
                   min_r_squared: float = 0.9) -> float:
    """Least-squares decay rate of log(observable) over a time window.

    ``trajectory`` is either a :class:`Trajectory` (with ``observable``
    mapping states to positive reals) or a ``(times, values)`` pair.
    Raises :class:`FitError` on non-decaying or noisy signals.
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

    mask = np.ones(len(times), dtype=bool)
    if t_min is not None:
        mask &= times >= t_min
    if t_max is not None:
        mask &= times <= t_max
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
    if r_squared < min_r_squared:
        raise FitError(f"signal too noisy for an exponential fit (R^2={r_squared:.3f})")
    return float(-slope)
