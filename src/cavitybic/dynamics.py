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
Hamiltonian is block diagonal and the jump operators map sector K to
K - 1, so a block-diagonal density matrix stays block diagonal; this is
monitored, not assumed.

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
from scipy.integrate import solve_ivp

from .bic import StateVector
from .model import ModelParams, SectorBasis, enumerate_sector
from .operators import (build_collective_lowering, build_end_annihilation,
                        build_hamiltonian)

_BLOCK_DIAG_TOL = 1e-12


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


class LindbladGenerator:
    """Right-hand side of the master equation on a sector stack.

    Holds the rotating-frame Hamiltonian and the jump operators as dense
    arrays (the stacked spaces at desk scale are tiny).
    """

    def __init__(self, space: SectorStack, hamiltonian: np.ndarray,
                 jumps: Iterable[tuple[float, np.ndarray]]):
        self.space = space
        self.hamiltonian = np.asarray(hamiltonian, dtype=np.complex128)
        self._jumps = []
        for rate, op in jumps:
            op = np.asarray(op, dtype=np.complex128)
            self._jumps.append((float(rate), op, op.conj().T, op.conj().T @ op))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        h = self.hamiltonian
        out = -1j * (h @ rho - rho @ h)
        for rate, op, op_dag, op_sq in self._jumps:
            out += rate * (op @ rho @ op_dag)
            out -= (0.5 * rate) * (op_sq @ rho + rho @ op_sq)
        return out

    def rhs(self, _t: float, y: np.ndarray) -> np.ndarray:
        dim = self.space.dim
        return self.apply(y.reshape(dim, dim)).ravel()


def lindblad_generator(params: ModelParams, k_max: int,
                       include_atomic_decay: bool = False,
                       space: SectorStack | None = None) -> LindbladGenerator:
    """Build the master-equation generator for sectors 0 .. k_max.

    End-cavity leakage at rate gamma_c is always included; collective
    atomic damping at rate gamma_a is added when requested.
    """
    if space is None:
        space = stack_sectors(params, k_max)
    dim = space.dim
    h = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(k_max + 1):
        sector = space.sectors[k]
        block = build_hamiltonian(params, sector).toarray()
        # rotating frame: subtract omega_c times the excitation number
        block -= params.omega_c * k * np.eye(sector.dim)
        h[space.sector_slice(k), space.sector_slice(k)] = block

    jumps: list[tuple[float, np.ndarray]] = []

    def stacked_lowering(builder, side: str) -> np.ndarray:
        full = np.zeros((dim, dim), dtype=np.complex128)
        for k in range(1, k_max + 1):
            op = builder(params, space.sectors[k], space.sectors[k - 1], side)
            full[space.sector_slice(k - 1), space.sector_slice(k)] = op.toarray()
        return full

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
    max_offblock: float | None = None
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


def evolve(params: ModelParams, rho0: DensityMatrix, t_end: float, *,
           generator: LindbladGenerator | None = None,
           include_atomic_decay: bool = False,
           snapshot_dt: float | None = None,
           rtol: float = 1e-8, atol: float = 1e-12, method: str = "RK45",
           detect_steady: bool = True, steady_threshold: float | None = None,
           positivity_limit: float = 1e-6) -> Trajectory:
    """Integrate the master equation with an embedded adaptive explicit
    Runge-Kutta pair, recording snapshots on a regular grid.

    Trace, Hermiticity, positivity and sector block structure are checked
    at every snapshot; positivity violations beyond ``positivity_limit``
    abort the run.  When ``detect_steady`` is on, the run stops once
    max |d rho / dt| stays below ``steady_threshold`` (default
    1e-9 * lam) at two consecutive snapshots.
    """
    if generator is None:
        generator = lindblad_generator(params, rho0.space.k_max,
                                       include_atomic_decay=include_atomic_decay,
                                       space=rho0.space)
    if generator.space is not rho0.space and generator.space.dim != rho0.space.dim:
        raise ValueError("generator and initial state live on different spaces")
    if steady_threshold is None:
        steady_threshold = 1e-9 * params.lam
    if snapshot_dt is None:
        snapshot_dt = t_end / 200.0
    n_snap = max(1, int(math.ceil(t_end / snapshot_dt - 1e-12)))
    times = np.linspace(0.0, t_end, n_snap + 1)

    dim = rho0.space.dim
    trace0 = rho0.trace()
    block_diagonal_input = rho0.offblock_max() < _BLOCK_DIAG_TOL

    states = [rho0.copy()]
    min_eigs = [states[0].min_eigenvalue()]
    diag = TrajectoryDiagnostics(
        min_eigenvalue=min_eigs[0],
        max_offblock=0.0 if block_diagonal_input else None,
    )
    kept_times = [0.0]
    steady_reached = False
    steady_time: float | None = None
    below_count = 0
    y = rho0.data.ravel().copy()

    chunk = 64
    idx = 1
    while idx <= n_snap and not steady_reached:
        stop = min(idx + chunk - 1, n_snap)
        t_eval = times[idx:stop + 1]
        sol = solve_ivp(generator.rhs, (times[idx - 1], times[stop]), y,
                        t_eval=t_eval, method=method, rtol=rtol, atol=atol)
        diag.n_rhs_evaluations += int(sol.nfev)
        if not sol.success:
            reached = sol.t[-1] if len(sol.t) else times[idx - 1]
            raise IntegrationError(
                f"integration failed at t={reached:.6g}: {sol.message}")
        for col, t in enumerate(sol.t):
            rho = sol.y[:, col].reshape(dim, dim)
            rho = 0.5 * (rho + rho.conj().T)  # symmetrized storage
            state = DensityMatrix(rho0.space, rho)
            drift = abs(state.trace() - trace0)
            diag.max_trace_drift = max(diag.max_trace_drift, drift)
            min_eig = state.min_eigenvalue()
            diag.min_eigenvalue = min(diag.min_eigenvalue, min_eig)
            if min_eig < -positivity_limit:
                raise IntegrationError(
                    f"positivity violated at t={t:.6g}: min eigenvalue {min_eig:.3e}")
            if block_diagonal_input:
                diag.max_offblock = max(diag.max_offblock, state.offblock_max())
            states.append(state)
            min_eigs.append(min_eig)
            kept_times.append(float(t))
            rhs_sup = float(np.abs(generator.apply(rho)).max())
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
        y = states[-1].data.ravel().copy()
        idx = stop + 1

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
