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
cross-check the others, each an array program over one cell layout,
``_cells(k)``.  The closed form and the recursion (as running sums of the
logs of its step ratios) both give the table's logs, which are shifted by
their largest before exponentiating, so either table is finite wherever the
normalised state is: at chi >> 1 (the K-photon "quantum cavity") as well as
at chi << 1 (the entangled atomic state), for any K.  The null space is
taken with every column of the stacked conditions scaled to unit norm, from
the eigenvectors of the scaled Gram matrix: the ensemble columns scale with
g and the photon columns with lambda, and the scaling keeps the kernel well
separated at every g > 0.  The couplings of the conditions are divided by a
power of two below 2^1000 first, so that no entry or column scale overflows
near the float maximum.  Only where chi itself overflows a float does any
route fail.

The composition across a grid of chi needs no table per point: since
|c_{m,n}|^2 is chi^(2m) times a chi-free factor, ``mean_photons_across_chi``
sums that factor once per row m and weighs the rows by chi^(2m) at every
point.  ``regime_observables`` reads one table and is its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ModelParams, SectorBasis, enumerate_sector, sector_dim
from .operators import apply_hamiltonian, coupling_lambda, lowering_maps, mode_weights


# Entries that mean_photons_across_chi evaluates at once, grid points times
# photon numbers or table rows times cells: its working memory, whatever the
# grid's length or K.
_SLICE_ENTRIES = 2 ** 16


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


def _normalize(k: int, params: ModelParams, table: np.ndarray,
               anchor: tuple[int, int] = (0, 0)) -> BicCoefficients:
    """``table`` divided by its norm, in the global phase that makes the
    ``anchor`` cell real and positive; ``OverflowError`` unless the norm is
    finite.  The phase is read from the anchor divided by its largest real or
    imaginary part: numpy's complex division squares the divisor, so
    abs(c) / c would overflow at a subnormal anchor.  For a real anchor the
    phase factor is exactly +-1."""
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.linalg.norm(table)
    if not math.isfinite(norm):
        raise OverflowError(f"the K={k} amplitude table overflows a float at chi={chi(params):.6g}")
    table = table / norm
    c = table[anchor]
    top = max(abs(c.real), abs(c.imag))
    if top > 0:  # global phase: the anchor cell real positive
        u = complex(c.real / top, c.imag / top)
        table = table * (abs(u) / u)
    return BicCoefficients(
        k_excitations=k,
        m_atoms=params.m_atoms,
        chi=chi(params),
        sign_ratio=_sign_ratio(params.q),
        table=table,
    )


def _log_factorials(n: int) -> np.ndarray:
    """log(j!) for j = 0 .. n."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1)))))


def _cells(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Labels (m, n) of the table cells m + n <= K, m-major."""
    labels = np.arange(k + 1)
    return np.nonzero(np.add.outer(labels, labels) <= k)


def _log_amplitudes(m_atoms: int, k: int, m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """log(|c_{m,n}| / chi^m) of the closed form before normalisation, at the
    cells (m, n) with m + n <= K, with every factorial taken from one
    log-factorial table."""
    lf = _log_factorials(m_atoms)
    excited = np.arange(k + 1)
    # log sqrt((M - j)! / j!): the factor of an ensemble with j excited atoms
    ensemble = 0.5 * (lf[m_atoms - excited] - lf[excited])
    return (ensemble[n] + ensemble[k - m - n] - 0.5 * lf[m]
            + 0.5 * (lf[k] - lf[m_atoms] - lf[m_atoms - k]))


def _log_chi(params: ModelParams) -> float:
    """log|chi_s|: -inf at g = 0 and inf where chi_s overflows a float."""
    chi_s = _chi_signed(params)
    return math.log(abs(chi_s)) if chi_s else -math.inf


def _signed_table(params: ModelParams, k: int, log_c: np.ndarray) -> BicCoefficients:
    """The normalised table whose cell (m, n) of ``_cells(k)`` is
    sign(chi_s)^m sign_ratio^n exp(L - max L), L = ``log_c``: no cell
    overflows, however large chi^K is.  An infinite chi_s gives NaN cells
    (inf - inf), which ``_normalize`` fails with its ``OverflowError``."""
    m, n = _cells(k)
    table = np.zeros((k + 1, k + 1), dtype=np.complex128)
    with np.errstate(invalid="ignore"):
        table[m, n] = (np.sign(_chi_signed(params)) ** m * _sign_ratio(params.q) ** n
                       * np.exp(log_c - log_c.max()))
    return _normalize(k, params, table)


def closed_form_coefficients(params: ModelParams, k: int) -> BicCoefficients:
    """Amplitude table evaluated directly from the closed-form solution.

    Its logs are L = log(|c_{m,n}| / chi^m) + m log|chi_s| before
    normalisation, taken to a table by ``_signed_table``.  At g = 0 the
    m > 0 cells are -inf, so the zero-photon row is the whole table.
    ``OverflowError`` only where chi_s itself overflows a float.
    """
    _check_k(params, k)
    m, n = _cells(k)
    log_c = _log_amplitudes(params.m_atoms, k, m, n)
    photons = m > 0
    log_c[photons] += m[photons] * _log_chi(params)
    return _signed_table(params, k, log_c)


def recursive_coefficients(params: ModelParams, k: int) -> BicCoefficients:
    """Amplitude table built by forward recursion from the zero-photon row.

    The zero-photon seeds follow from requiring the two recursions to
    commute, which keeps this route well defined even at g = 0.  Each step
    is taken as the log of its ratio: one running sum along the zero-photon
    row, then one down each column, whose steps carry log|chi_s| (-inf at
    g = 0, which zeroes the m > 0 rows).  The logs go to a table as the
    closed form's do, so the recursion is finite wherever the normalised
    state is; ``OverflowError`` only where chi_s itself overflows a float.
    """
    _check_k(params, k)
    m_at = params.m_atoms
    m, n = _cells(k)
    steps = np.zeros((k + 1, k + 1))
    j = np.arange(1, k + 1)
    # log|c_{0,j} / c_{0,j-1}|, summed along the zero-photon row
    steps[0, 1:] = np.cumsum(0.5 * np.log((k - j + 1) * (m_at - k + j) / (j * (m_at - j + 1))))
    mb, nb = m[m > 0], n[m > 0]
    # log|c_{m,n} / c_{m-1,n}|, summed down each column
    steps[mb, nb] = (_log_chi(params)
                     + 0.5 * np.log((k - mb - nb + 1) * (m_at - k + mb + nb) / mb))
    return _signed_table(params, k, np.cumsum(steps, axis=0)[m, n])


def _condition_matrix(params: ModelParams, k: int) -> np.ndarray:
    """The two interference conditions stacked, left over right, mapping
    the cells ``_cells(k)`` of the K grid to the K - 1 grid, whose cell
    (m, n) is row m K - m (m - 1) / 2 + n of each half; built from ladder
    matrix elements only (independent of the recursion and the closed
    form).  g, lambda_qL and lambda_qR are first divided by one power of two
    (exact), chosen so that their largest is below 2^1000: the kernel is
    the same, no entry overflows, and below 2^1000 nothing is scaled."""
    m_at = params.m_atoms
    couplings = (params.g, coupling_lambda(params, params.q, "L"),
                 coupling_lambda(params, params.q, "R"))
    shift = max(0, math.frexp(max(map(abs, couplings)))[1] - 1000)
    g, lam_l, lam_r = (math.ldexp(x, -shift) for x in couplings)
    m, n = _cells(k)
    r = k - m - n
    col = np.arange(len(m))
    row = m * k - m * (m - 1) // 2 + n  # of the cell (m, n) on the K - 1 grid
    half = k * (k + 1) // 2
    a = np.zeros((2 * half, len(m)))
    left, right, photons = n >= 1, r >= 1, m >= 1
    # JL- lowers the left ensemble to (m, n - 1); JR- the right, at (m, n)
    a[row[left] - 1, col[left]] = g * np.sqrt(n[left] * (m_at - n[left] + 1))
    a[half + row[right], col[right]] = g * np.sqrt(r[right] * (m_at - r[right] + 1))
    # B_q removes one resonant-mode photon, to (m - 1, n)
    removed = row[photons] - k + m[photons] - 1
    a[removed, col[photons]] = lam_l * np.sqrt(m[photons])
    a[half + removed, col[photons]] = lam_r * np.sqrt(m[photons])
    return a


def _null_space(a: np.ndarray) -> np.ndarray:
    """Unit columns spanning the kernel of ``a`` (one unit vector where it
    is one-dimensional), from the Gram matrix of ``a`` with every column
    scaled to unit norm (van der Sluis, Numer. Math. 14, 14 (1969)).

    The columns of the stacked conditions scale with g (ensemble lowering)
    or with lambda (photon removal), so the smallest nonzero singular value
    of ``a`` falls with g; that of the scaled matrix B does not, and with
    its gap O(1) at every g the eigenvectors of B^T B (``eigh``) resolve
    the kernel as well as an SVD of B would.  An eigenvalue counts as
    kernel when it is at most max(a.shape) * eps * (largest eigenvalue):
    scipy's rank rule for singular values carried over to their squares,
    at the rounding floor of the Gram matrix.

    Each column's norm is taken over the column divided by its largest
    |entry|, so no square underflows or overflows; a zero column keeps
    scale 1 and stays a kernel direction.  A kernel vector y of B is one
    of ``a`` as y / scale, taken as y * (smallest scale / scale) so that no
    entry exceeds |y|, and divided by its largest |entry| before its norm,
    so that no square underflows to a zero norm.  A matrix without rows
    (the conditions at K = 0) has the one unit vector as its kernel."""
    top = np.abs(a).max(axis=0, initial=0.0)
    top[top == 0] = 1.0
    # a nonzero column divided by its largest |entry| has norm at least 1
    scale = top * np.maximum(np.linalg.norm(a / top, axis=0), 1.0)
    b = a / scale
    w, v = np.linalg.eigh(b.T @ b)
    kernel = v[:, w <= max(a.shape) * np.finfo(w.dtype).eps * w[-1]]
    kernel = kernel * (scale.min() / scale)[:, None]
    kernel = kernel / np.abs(kernel).max(axis=0)
    return kernel / np.linalg.norm(kernel, axis=0)


def null_space_coefficients(params: ModelParams, k: int) -> BicCoefficients:
    """Amplitude table recovered as the kernel of the stacked interference
    conditions on the resonant-mode label grid.

    Raises :class:`DegenerateNullSpaceError` unless the kernel is exactly
    one-dimensional (it is K + 1 dimensional at g = 0, where the trapped
    state is not unique).  Since ``_null_space`` scales the columns and
    ``_condition_matrix`` scales the couplings below 2^1000, the kernel was
    one-dimensional and the table agreed with the closed form to rounding
    at every g tried from 1e-315 to the float maximum; at the subnormal g
    below, where the conditions' ensemble entries are themselves rounded,
    the table stays finite and of unit norm.
    """
    _check_k(params, k)
    kernel = _null_space(_condition_matrix(params, k))
    if kernel.shape[1] != 1:
        raise DegenerateNullSpaceError(
            f"stacked trapping conditions have a {kernel.shape[1]}-dimensional kernel")
    table = np.zeros((k + 1, k + 1), dtype=np.complex128)
    table[_cells(k)] = kernel[:, 0]
    return _normalize(k, params, table)


def _check_complete_sector(params: ModelParams, sector: SectorBasis, k: int) -> None:
    """``ValueError`` unless ``sector`` is the complete sector K of ``params``:
    excitation number K, ``sector_dim`` states and the N + 3 slots."""
    expected = sector_dim(params, k)
    if (k != sector.k_excitations or sector.dim != expected
            or sector.occupations.shape[1] != params.n_chain + 3):
        raise ValueError(f"{sector!r} is not the complete sector K={k} of {expected} states")


def assemble_bic_state(params: ModelParams, k: int,
                       sector: SectorBasis | None = None,
                       coefficients: BicCoefficients | None = None) -> StateVector:
    """Embed an amplitude table into the full sector-K basis.

    The end cavities stay in vacuum and the atomic labels map directly:
    a row with middle-cavity occupations n_1 .. n_{N-1} (m = sum n_i
    photons) and J_L = n excited left atoms gets

        c[m, n] sqrt(m! / prod n_i!) prod w_i^{n_i},

    the m-photon Fock state of mode q, with weights w_i = ``mode_weights``,
    expanded as a multinomial over the middle cavities.  Each w_i^{n_i} is
    read from the (N - 1) x (K + 1) table of the powers of w_i, so that only
    K + 1 powers per cavity are taken, not one per row.  ``sector`` must be
    the complete sector K; ``ValueError`` otherwise.
    """
    if coefficients is None:
        coefficients = closed_form_coefficients(params, k)
    if sector is None:
        sector = enumerate_sector(params, k)
    _check_complete_sector(params, sector, k)
    n_chain = params.n_chain
    occ = sector.occupations
    rows = np.flatnonzero((occ[:, 0] == 0) & (occ[:, n_chain] == 0))
    mid, j_left = occ[rows, 1:n_chain], occ[rows, n_chain + 1]
    # with the end cavities empty, the middle cavities hold K - J_L - J_R photons
    m = k - j_left - occ[rows, n_chain + 2]
    lf = _log_factorials(k)
    powers = mode_weights(n_chain, params.q)[:, None] ** np.arange(k + 1)
    fock = (np.exp(0.5 * (lf[m] - lf[mid].sum(axis=1)))
            * np.prod(powers[np.arange(n_chain - 1), mid], axis=1))
    vec = np.zeros(sector.dim, dtype=np.complex128)
    vec[rows] = coefficients.table[m, j_left] * fock
    return StateVector(sector, vec)


def _residual_norm(x: np.ndarray) -> float:
    """||x||.  Where that overflows although every entry is finite (np.linalg
    squares each entry, so at entries above about 1e154), it is taken of x
    divided by its largest real or imaginary part, and multiplied back."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(x))
    if not math.isfinite(norm) and np.isfinite(x).all():
        scale = float(max(np.abs(x.real).max(), np.abs(x.imag).max()))
        norm = scale * float(np.linalg.norm(x / scale))
    return norm


def verify_trapping(params: ModelParams, psi: StateVector,
                    k: int | None = None) -> TrappingReport:
    """Residual norms certifying (or refuting) that ``psi`` is trapped.

    Reports ||(H - (K - M) omega_a) psi|| and the norms of the two
    interference conditions applied to psi; judgement is left to the caller.
    Every operator is applied to psi through the lowering maps of sector K,
    without a matrix.  ``psi`` must live on the complete sector K of
    ``params``; ``ValueError`` otherwise.
    """
    return _trapping_reports(params, psi.sector, [psi.amplitudes], k)[0]


def _trapping_reports(params: ModelParams, sector: SectorBasis, vectors: list[np.ndarray],
                      k: int | None = None) -> list[TrappingReport]:
    """The ``verify_trapping`` report of each amplitude vector in ``vectors``
    over ``sector``, all from one enumeration of sector K - 1 and one set
    of lowering maps."""
    if k is None:
        k = sector.k_excitations
    _check_complete_sector(params, sector, k)
    maps = lowering_maps(params, sector, enumerate_sector(params, k - 1))
    energy = (k - params.m_atoms) * params.omega_a
    n_chain = params.n_chain
    weights = mode_weights(n_chain, params.q)
    reports = []
    for v in vectors:
        lowered = [m.apply(v) for m in maps]
        hv = apply_hamiltonian(params, sector, maps, v, lowered)
        eigen_residual = _residual_norm(hv - energy * v)
        bq = sum(w * lowered[slot] for slot, w in enumerate(weights, start=1))
        residuals = {}
        for side, atoms in (("L", n_chain + 1), ("R", n_chain + 2)):
            condition = (params.g * lowered[atoms]
                         + coupling_lambda(params, params.q, side) * bq)
            residuals[side] = _residual_norm(condition)
        reports.append(TrappingReport(eigen_residual, residuals["L"], residuals["R"]))
    return reports


def regime_observables(params: ModelParams, k: int,
                       coefficients: BicCoefficients | None = None) -> RegimeObservables:
    """Mean resonant-mode photon number and mean excited-atom number in the
    trapped state; the two add up to K."""
    if coefficients is None:
        coefficients = closed_form_coefficients(params, k)
    mean_photons = float(np.arange(k + 1) @ (np.abs(coefficients.table) ** 2).sum(axis=1))
    return RegimeObservables(mean_photons=mean_photons, mean_excited=k - mean_photons)


def _row_log_weights(m_atoms: int, k: int) -> np.ndarray:
    """log W_m, W_m = sum_n |c_{m,n}|^2 / chi^(2m) over the closed form's
    row m before normalisation, in blocks of at most ``_SLICE_ENTRIES``
    cells."""
    labels = np.arange(k + 1)
    log_w = np.empty(k + 1)
    step = max(1, _SLICE_ENTRIES // (k + 1))
    for lo in range(0, k + 1, step):
        m = labels[lo:lo + step, None]
        inside = m + labels <= k  # the cells beyond take n = 0 and weight 0
        log_sq = np.where(inside, 2 * _log_amplitudes(m_atoms, k, m, labels * inside), -np.inf)
        top = log_sq.max(axis=1)
        log_w[lo:lo + step] = top + np.log(np.exp(log_sq - top[:, None]).sum(axis=1))
    return log_w


def mean_photons_across_chi(params: ModelParams, k: int,
                            chi_values: np.ndarray) -> np.ndarray:
    """Mean resonant-mode photon number of the trapped state at each regime
    parameter in ``chi_values``, which take the place of ``params.g``.

    |c_{m,n}|^2 is chi^(2m) times a chi-free factor, so with the row
    weights W_m of the closed form before normalisation, computed once, the
    mean at x = chi^2 is

        sum_m m W_m x^m / sum_m W_m x^m,

    from log-weights shifted by each point's largest.  The grid is taken in
    slices of at most ``_SLICE_ENTRIES`` weights, so the working memory does
    not grow with its length or with K.  The result is
    ``regime_observables`` at g = chi |lambda_qL| up to rounding.
    ``ValueError`` unless every chi is positive and finite.
    """
    _check_k(params, k)
    chi_values = np.asarray(chi_values, dtype=float)
    if not np.all((chi_values > 0) & np.isfinite(chi_values)):
        raise ValueError("chi values must be positive and finite")
    log_w = _row_log_weights(params.m_atoms, k)
    photons = np.arange(k + 1.0)
    mean = np.empty(len(chi_values))
    step = max(1, _SLICE_ENTRIES // (k + 1))
    for lo in range(0, len(chi_values), step):
        log_terms = log_w + np.multiply.outer(2 * np.log(chi_values[lo:lo + step]), photons)
        weights = np.exp(log_terms - log_terms.max(axis=1)[:, None])
        mean[lo:lo + step] = (weights * photons).sum(axis=1) / weights.sum(axis=1)
    return mean


def _truncated_approx(params: ModelParams, k: int, keep_mask: np.ndarray,
                      phase_cell: tuple[int, int]) -> ApproxState:
    exact = closed_form_coefficients(params, k)
    table = np.where(keep_mask, exact.table, 0.0)
    if np.linalg.norm(table) == 0:
        raise ValueError("truncation removed every amplitude")
    approx = _normalize(k, params, table, anchor=phase_cell)
    overlap = abs(np.vdot(approx.table, exact.table)) ** 2
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
