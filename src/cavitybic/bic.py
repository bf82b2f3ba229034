"""Analytic construction and verification of perfectly trapped states.

A trapped state with K excitations, |beta_K>, lives in the zero-end-photon
part of sector K and is written over labels (m, n, r): m photons in the
resonant chain normal mode q, n excited atoms on the left, r = K - m - n on
the right.  It is simultaneously

  * an eigenvector of the interior Hamiltonian at energy
    (K - M) omega_a, and
  * annihilated by both interference conditions
        (g JL- + lambda_qL B_q) |beta_K> = 0,
        (g JR- + lambda_qR B_q) |beta_K> = 0,

which express the exact cancellation of atomic emission against photon
tunnelling into each end cavity.  The conditions have a solution only for
M >= K.

Amplitudes follow the two-term recursion implied by the conditions,

    c_{m+1, n-1} = -(g / lambda_qL) sqrt(n (M - n + 1)) / sqrt(m + 1) c_{m,n},
    c_{m+1, n}   = -(g / lambda_qR) sqrt((K - m - n)(M - K + m + n + 1))
                   / sqrt(m + 1) c_{m,n},

whose closed form is

    c_{m,n} = chi_s^m (lambda_qR / lambda_qL)^n
              sqrt( (M-K+n+m)! / ((K-n-m)! m!) )
              sqrt( (M-n)! / M! ) sqrt( K! / ((M-K)! n!) ) c_{0,0},

with the signed expansion parameter chi_s = -g / lambda_qR.  The reported
regime parameter ``chi`` is the magnitude |g / lambda_qL|; the m-photon
amplitude scales with chi^m, so chi controls the photon/atom composition.

Three independent routes to the same table are provided (closed form,
recursion, numerical null space of the stacked conditions) so each can
cross-check the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelParams, SectorBasis, enumerate_sector
from .operators import (build_collective_lowering, build_hamiltonian,
                        build_normal_mode, coupling_lambda, mode_weights)


class NoTrappedStateError(ValueError):
    """Raised when K exceeds M, where the interference conditions have no solution."""


class DegenerateNullSpaceError(RuntimeError):
    """The stacked condition operators do not have a one-dimensional kernel."""


@dataclass(frozen=True)
class BicCoefficients:
    """Normalized amplitude table c[m, n] of a trapped state.

    ``table[m, n]`` is zero whenever m + n > K.  ``chi`` is the positive
    regime parameter |g / lambda_qL|; ``sign_ratio`` carries the parity
    factor lambda_qR / lambda_qL = (-1)^(q+1).  The global phase makes
    c[0, 0] real and positive.
    """

    k_excitations: int
    m_atoms: int
    chi: float
    sign_ratio: int
    table: np.ndarray

    def amplitude(self, m: int, n: int) -> complex:
        return complex(self.table[m, n])

    def norm(self) -> float:
        return float(np.linalg.norm(self.table))

    def overlap(self, other: "BicCoefficients") -> complex:
        """Inner product of two tables for the same (M, K)."""
        if self.table.shape != other.table.shape:
            raise ValueError("coefficient tables have different shapes")
        return complex(np.vdot(self.table, other.table))


@dataclass(frozen=True)
class StateVector:
    """Amplitude vector over one sector basis."""

    sector: SectorBasis
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "StateVector") -> complex:
        if self.sector.dim != other.sector.dim:
            raise ValueError("state vectors live on different sector bases")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


class TrappingReport(NamedTuple):
    """Residual norms of the eigen-relation and the two interference conditions."""

    eigen_residual: float
    left_residual: float
    right_residual: float

    @property
    def max_condition_residual(self) -> float:
        return max(self.left_residual, self.right_residual)

    @property
    def max_residual(self) -> float:
        return max(self)


class RegimeObservables(NamedTuple):
    mean_photons: float
    mean_excited: float


class ApproxState(NamedTuple):
    """A truncated approximation together with its fidelity to the exact state."""

    state: StateVector
    overlap: float


def chi(params: ModelParams) -> float:
    """Regime parameter |g / lambda_qL| for the stored resonant mode q."""
    return abs(params.g) / abs(coupling_lambda(params, params.q, "L"))


def _chi_signed(params: ModelParams) -> float:
    return -params.g / coupling_lambda(params, params.q, "R")


def _sign_ratio(q: int) -> int:
    return (-1) ** (q + 1)


def _check_k(params: ModelParams, k: int) -> None:
    if k < 0:
        raise NoTrappedStateError("excitation number K must be nonnegative")
    if k > params.m_atoms:
        raise NoTrappedStateError(
            f"no trapped state with K > M (K={k}, M={params.m_atoms})")


def _normalize(k: int, params: ModelParams, table: np.ndarray) -> BicCoefficients:
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(table)
    if not math.isfinite(norm):
        raise _overflow(params, k)
    table = table / norm
    c00 = table[0, 0]
    if abs(c00) > 0:
        table = table * (abs(c00) / c00)  # global phase: c[0,0] real positive
    return BicCoefficients(
        k_excitations=k,
        m_atoms=params.m_atoms,
        chi=chi(params),
        sign_ratio=_sign_ratio(params.q),
        table=table,
    )


def _overflow(params: ModelParams, k: int) -> OverflowError:
    return OverflowError(f"the K={k} amplitude table overflows a float at chi={chi(params):.6g}")


def _log_factorials(n: int) -> np.ndarray:
    """log(j!) for j = 0 .. n."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))


def _cells(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels (m, n) of the table cells m + n <= K, m-major."""
    labels = np.arange(k + 1)
    return np.nonzero(np.add.outer(labels, labels) <= k)


def closed_form_coefficients(params: ModelParams, k: int) -> BicCoefficients:
    """Amplitude table evaluated directly from the closed-form solution,
    with every factorial taken from one log-factorial table."""
    _check_k(params, k)
    m_at = params.m_atoms
    m, n = _cells(k)
    lf = _log_factorials(m_at)
    excited = np.arange(k + 1)
    # log sqrt((M - j)! / j!): the factor of an ensemble with j excited atoms
    ensemble = 0.5 * (lf[m_at - excited] - lf[excited])
    log_sqrt = (ensemble[n] + ensemble[k - m - n] - 0.5 * lf[m]
                + 0.5 * (lf[k] - lf[m_at] - lf[m_at - k]))
    table = np.zeros((k + 1, k + 1), dtype=np.complex128)
    with np.errstate(over="ignore"):  # an overflow fails _normalize's finite-norm check
        table[m, n] = (_chi_signed(params) ** m * _sign_ratio(params.q) ** n
                       * np.exp(log_sqrt))
    return _normalize(k, params, table)


def recursive_coefficients(params: ModelParams, k: int) -> BicCoefficients:
    """Amplitude table built by forward recursion from the zero-photon row.

    The zero-photon seeds follow from requiring the two recursions to
    commute, which keeps this route well defined even at g = 0.
    """
    _check_k(params, k)
    m_at = params.m_atoms
    chi_s = _chi_signed(params)
    ratio = _sign_ratio(params.q)
    table = np.zeros((k + 1, k + 1), dtype=np.complex128)
    table[0, 0] = 1.0
    for n in range(1, k + 1):
        table[0, n] = (ratio * math.sqrt((k - n + 1) * (m_at - k + n)
                                         / (n * (m_at - n + 1))) * table[0, n - 1])
    for m in range(k):
        for n in range(k - m):
            table[m + 1, n] = (chi_s * math.sqrt((k - m - n) * (m_at - k + m + n + 1))
                               / math.sqrt(m + 1) * table[m, n])
    return _normalize(k, params, table)


def _condition_matrices(params: ModelParams, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Matrices of the two interference conditions on the (m, n) label grid,
    mapping the K grid to the K - 1 grid, built from ladder matrix elements
    only (independent of the recursion and the closed form)."""
    m_at = params.m_atoms
    g = params.g
    lam_l = coupling_lambda(params, params.q, "L")
    lam_r = coupling_lambda(params, params.q, "R")

    def grid(kk: int) -> dict[tuple[int, int], int]:
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


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal kernel basis (columns) of ``a`` by SVD, with scipy's rank
    rule: singular values above max(a.shape) * eps * s[0] count.

    The stacked conditions (K(K+1) rows, (K+1)(K+2)/2 columns) are wide only
    at K = 1, where the kernel needs the full V; for every K >= 2 the thin
    SVD skips building U."""
    _, s, vh = np.linalg.svd(a, full_matrices=a.shape[0] < a.shape[1])
    rank = int(np.sum(s > max(a.shape) * np.finfo(s.dtype).eps * s[0]))
    return vh[rank:].conj().T


def null_space_coefficients(params: ModelParams, k: int) -> BicCoefficients:
    """Amplitude table recovered as the kernel of the stacked interference
    conditions on the resonant-mode label grid.

    Raises :class:`DegenerateNullSpaceError` unless the kernel is exactly
    one-dimensional (it is K + 1 dimensional at g = 0, where the trapped
    state is not unique).
    """
    _check_k(params, k)
    if k == 0:
        return _normalize(0, params, np.ones((1, 1), dtype=np.complex128))
    a_left, a_right = _condition_matrices(params, k)
    kernel = _null_space(np.vstack([a_left, a_right]))
    if kernel.shape[1] != 1:
        raise DegenerateNullSpaceError(
            f"stacked trapping conditions have a {kernel.shape[1]}-dimensional kernel")
    table = np.zeros((k + 1, k + 1), dtype=np.complex128)
    table[_cells(k)] = kernel[:, 0]
    return _normalize(k, params, table)


def assemble_bic_state(params: ModelParams, k: int,
                       sector: SectorBasis | None = None,
                       coefficients: BicCoefficients | None = None) -> StateVector:
    """Embed an amplitude table into the full sector-K basis.

    The end cavities stay in vacuum and the atomic labels map directly:
    a row with middle-cavity occupations n_1 .. n_{N-1} (m = sum n_i
    photons) and J_L = n excited left atoms gets

        c[m, n] sqrt(m! / prod n_i!) prod w_i^{n_i},

    the m-photon Fock state of mode q, with weights w_i = ``mode_weights``,
    expanded as a multinomial over the middle cavities.  ``sector`` must be
    the complete sector K; ``ValueError`` otherwise.
    """
    if coefficients is None:
        coefficients = closed_form_coefficients(params, k)
    if sector is None:
        sector = enumerate_sector(params, k)
    n_chain = params.n_chain
    # the complete sector is every composition of K into the N + 3 slots; any
    # photon cap (fock_cutoff) or atom count below K drops some of them
    full = math.comb(k + n_chain + 2, k)
    if sector.k_excitations != k or sector.dim != full:
        raise ValueError(f"{sector!r} is not the complete sector K={k} of {full} states "
                         "(is fock_cutoff below K?)")
    occ = sector.occupations
    rows = np.flatnonzero((occ[:, 0] == 0) & (occ[:, n_chain] == 0))
    mid = occ[rows, 1:n_chain]
    m = mid.sum(axis=1)
    lf = _log_factorials(k)
    fock = (np.exp(0.5 * (lf[m] - lf[mid].sum(axis=1)))
            * np.prod(mode_weights(n_chain, params.q) ** mid, axis=1))
    vec = np.zeros(sector.dim, dtype=np.complex128)
    vec[rows] = coefficients.table[m, occ[rows, n_chain + 1]] * fock
    return StateVector(sector, vec)


def verify_trapping(params: ModelParams, psi: StateVector,
                    k: int | None = None) -> TrappingReport:
    """Residual norms certifying (or refuting) that ``psi`` is trapped.

    Reports ||(H - (K - M) omega_a) psi|| and the norms of the two
    interference conditions applied to psi; judgement is left to the caller.
    """
    if k is None:
        k = psi.sector.k_excitations
    sector = psi.sector
    sector_km1 = enumerate_sector(params, k - 1)
    v = psi.amplitudes

    h = build_hamiltonian(params, sector, sector_km1)
    energy = (k - params.m_atoms) * params.omega_a
    eigen_residual = float(np.linalg.norm(h @ v - energy * v))

    bq = build_normal_mode(params, sector, sector_km1, params.q)
    residuals = {}
    for side in ("L", "R"):
        j_low = build_collective_lowering(params, sector, sector_km1, side)
        op = params.g * j_low + coupling_lambda(params, params.q, side) * bq
        residuals[side] = float(np.linalg.norm(op @ v))
    return TrappingReport(eigen_residual, residuals["L"], residuals["R"])


def regime_observables(params: ModelParams, k: int,
                       coefficients: BicCoefficients | None = None) -> RegimeObservables:
    """Mean resonant-mode photon number and mean excited-atom number in the
    trapped state; the two add up to K."""
    if coefficients is None:
        coefficients = closed_form_coefficients(params, k)
    mean_photons = float(np.arange(k + 1) @ (np.abs(coefficients.table) ** 2).sum(axis=1))
    return RegimeObservables(mean_photons=mean_photons, mean_excited=k - mean_photons)


def _truncated_approx(params: ModelParams, k: int, keep_mask: np.ndarray,
                      phase_cell: tuple[int, int]) -> ApproxState:
    exact = closed_form_coefficients(params, k)
    table = np.where(keep_mask, exact.table, 0.0)
    norm = np.linalg.norm(table)
    if norm == 0:
        raise ValueError("truncation removed every amplitude")
    table = table / norm
    anchor = table[phase_cell]
    if abs(anchor) > 0:
        table = table * (abs(anchor) / anchor)  # anchor amplitude real positive
    approx = BicCoefficients(k_excitations=k, m_atoms=params.m_atoms, chi=exact.chi,
                             sign_ratio=exact.sign_ratio, table=table)
    overlap = abs(np.vdot(table, exact.table)) ** 2
    return ApproxState(assemble_bic_state(params, k, coefficients=approx), float(overlap))


def subradiant_approx(params: ModelParams, k: int) -> ApproxState:
    """Zero-photon truncation of the trapped state (all excitation atomic),
    renormalized; accurate in the chi << 1 regime.  For K = M this is the
    maximally entangled two-ensemble state with amplitudes
    (sign_ratio)^n / sqrt(M + 1)."""
    _check_k(params, k)
    mask = np.zeros((k + 1, k + 1), dtype=bool)
    mask[0, :] = True
    return _truncated_approx(params, k, mask, phase_cell=(0, 0))


def fock_approx(params: ModelParams, k: int) -> ApproxState:
    """Pure K-photon resonant-mode Fock state (atoms in the ground state),
    the chi >> 1 limit in which the two ensembles act as mirrors."""
    _check_k(params, k)
    mask = np.zeros((k + 1, k + 1), dtype=bool)
    mask[k, 0] = True
    return _truncated_approx(params, k, mask, phase_cell=(k, 0))
