"""Linearized (weak-atomic-excitation) analysis of the triple-cavity system.

Replacing the weakly excited collective spins by bosonic oscillators d_L,
d_R turns the amplitude dynamics into a closed 5-variable linear system
over (<a_L>, <a_R>, <b_1>, <d_L>, <d_R>):

    i d<v>/dt = A <v>

with end-cavity damping gamma_c / 2 and collective atomic damping
M gamma_a / 2 entering as negative imaginary diagonal shifts, and a
detuning delta = omega_c - omega_a shifting the atomic oscillators.

Eigenvalues are sorted by descending imaginary part (least damped first);
the least damped eigenvalue belongs to the trapped polaritonic mode and
its |Im| is the amplitude decay rate Gamma.  The convention that Gamma is
the amplitude (not intensity) rate is pinned by the closed-form check in
`gamma_approx`: a first-order evaluation of the dark mode's damping
reproduces the closed form exactly under this convention, and the 5%
cross-validation tolerance would expose a factor-2 error.

A detuning grid is one array program: ``decay_rates`` stacks the matrices
of all its points, sorts the eigenvalues of the whole stack at once and
returns Gamma with a mask of the degenerate points, where the two least
damped modes decay at the same rate.  ``linear_matrix`` runs the same
matrix builder and eigenvalue sort on one point, and ``trapped_mode_decay``
is the one-point case of ``decay_rates`` that warns where the mask is set.
``closed_form_decay`` evaluates the closed form of ``gamma_approx`` on the
same grid.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import ModelParams


class DegenerateDecayWarning(RuntimeWarning):
    """The two least damped modes decay at the same rate."""


@dataclass(frozen=True)
class LinearSystem:
    """Coefficient matrix and its eigenvalues, over (a_L, a_R, b_1, d_L, d_R)."""

    matrix: np.ndarray
    eigenvalues: np.ndarray  # sorted: descending imaginary part, then ascending real


@dataclass(frozen=True)
class PolaritonModes:
    """Orthonormal polaritonic mode coefficients over (d_L, d_R, b_1)."""

    f_plus: np.ndarray
    f_minus: np.ndarray
    f_zero: np.ndarray
    xi_plus: float
    xi_minus: float


def _require_triple_cavity(params: ModelParams) -> None:
    if params.n_chain != 2:
        raise ValueError("linearized analysis requires the triple-cavity "
                         "configuration (n_chain=2)")


def _amplitude_matrices(params: ModelParams, omega_c: float, delta: np.ndarray) -> np.ndarray:
    """The 5x5 amplitude matrices at omega_c and each detuning of ``delta``,
    stacked along the first axis; raises ``FloatingPointError`` at the first
    one with an entry that overflows a float."""
    _require_triple_cavity(params)
    gm = params.g * math.sqrt(params.m_atoms)
    lam = params.lam
    a = np.zeros((len(delta), 5, 5), dtype=np.complex128)
    a[:, [0, 1], [0, 1]] = omega_c - 0.5j * params.gamma_c
    a[:, [3, 4], [3, 4]] = (omega_c - delta - 0.5j * params.m_atoms * params.gamma_a)[:, None]
    a[:, 2, 2] = omega_c
    a[:, [0, 1, 2, 2], [2, 2, 0, 1]] = lam
    a[:, [0, 1, 3, 4], [3, 4, 0, 1]] = gm
    overflow = ~np.isfinite(a).all(axis=(1, 2))
    if overflow.any():
        raise FloatingPointError("the amplitude matrix overflows a float at "
                                 f"delta={delta[overflow.argmax()]:.6g}, "
                                 f"gamma_c={params.gamma_c:.6g}")
    return a


def _sorted_eigenvalues(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of each stacked matrix: descending imaginary part, then
    ascending real part."""
    evals = np.linalg.eigvals(a)
    return np.take_along_axis(evals, np.lexsort((evals.real, -evals.imag), axis=-1), axis=-1)


def linear_matrix(params: ModelParams) -> LinearSystem:
    """Build the 5x5 amplitude dynamics matrix and its sorted eigenvalues;
    raises ``FloatingPointError`` when an entry overflows a float."""
    a = _amplitude_matrices(params, params.omega_c, np.array([params.delta]))
    return LinearSystem(matrix=a[0], eigenvalues=_sorted_eigenvalues(a)[0])


def decay_rates(params: ModelParams, delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Amplitude decay rate Gamma of the least damped (trapped) mode at each
    detuning of ``delta``, and whether that mode's rate is degenerate there.

    The matrices are solved in the frame rotating at omega_c (omega_c = 0,
    detuning ``delta``): that shifts every eigenvalue by -omega_c and no
    decay rate, and keeps a large omega_c from costing the rates digits.
    Rates below the eigensolver's resolution (machine epsilon at the matrix
    scale) are reported as exactly zero.  A point is degenerate when the
    imaginary parts of the two least damped eigenvalues agree to within
    1e-12 max(1, Gamma); the smaller rate is returned there.  Raises ``FloatingPointError`` at the
    first detuning whose matrix overflows a float.
    """
    a = _amplitude_matrices(params, 0.0, delta)
    ims = -_sorted_eigenvalues(a).imag
    gamma = np.abs(ims[:, 0])
    gamma[gamma < 1e-14 * np.maximum(1.0, np.abs(a).max(axis=(1, 2)))] = 0.0
    degenerate = np.abs(ims[:, 1] - ims[:, 0]) <= 1e-12 * np.maximum(1.0, np.abs(ims[:, 0]))
    return gamma, degenerate


def trapped_mode_decay(params: ModelParams) -> float:
    """Amplitude decay rate Gamma of the least damped (trapped) mode at
    ``params.delta``: ``decay_rates`` at one point, with a
    ``DegenerateDecayWarning`` where that point is degenerate."""
    gamma, degenerate = decay_rates(params, np.array([params.delta]))
    if degenerate[0]:
        warnings.warn("degenerate minimal decay pair; returning the smallest rate",
                      DegenerateDecayWarning, stacklevel=2)
    return float(gamma[0])


def closed_form_decay(params: ModelParams, delta: np.ndarray) -> np.ndarray:
    """The closed form of ``gamma_approx`` at each detuning of ``delta``,
    without its regime check: nan where it is 0/0 or inf/inf, as where g^2
    underflows or a square overflows."""
    _require_triple_cavity(params)
    # float_power squares with libm's pow, as a float's ** does; numpy's **
    # multiplies, which rounds about 0.08% of squares differently
    m2 = params.m_atoms ** 2
    with np.errstate(all="ignore"):
        g2, gc2, lam2 = np.float_power([params.g, params.gamma_c, params.lam], 2)
        delta2 = np.float_power(delta, 2)
        num = m2 * params.gamma_a * g2 + delta2 * params.gamma_c
        den = m2 * g2 * g2 + delta2 * gc2 / 4.0
        return num / den * lam2


def gamma_approx(params: ModelParams) -> float:
    """Closed-form approximation of the trapped-mode decay rate, valid when
    |g| strongly dominates gamma_a, gamma_c and lam.

    Emits a RuntimeWarning outside that regime; the value is still returned.
    """
    gamma = float(closed_form_decay(params, np.array([params.delta]))[0])
    if abs(params.g) < 5.0 * max(params.gamma_a, params.gamma_c, params.lam):
        warnings.warn("coupling g is not large compared to the damping rates and "
                      "hopping; the closed-form decay rate may be inaccurate",
                      RuntimeWarning, stacklevel=2)
    return gamma


def q_factor(params: ModelParams) -> float:
    """Scaled quality factor gamma_c / Gamma (photon storage time of the
    trapped mode in units of the bare end-cavity lifetime).  Unbounded
    (inf) when the trapped mode does not decay."""
    gamma = trapped_mode_decay(params)
    if gamma == 0.0:
        return math.inf
    return params.gamma_c / gamma


def polariton_transform(params: ModelParams) -> PolaritonModes:
    """Orthonormal polaritonic modes of the atomic oscillators and the
    middle cavity, over (d_L, d_R, b_1), with their end-cavity couplings.

    The dark combination f_zero has no end-cavity coupling at resonance and
    is the mode in which energy can be confined; it becomes purely photonic
    (b_1) as the coupling ratio grows.
    """
    _require_triple_cavity(params)
    gm = params.g * math.sqrt(params.m_atoms)
    lam = params.lam
    big = math.sqrt(gm * gm + 2.0 * lam * lam)
    f_plus = np.array([gm, gm, 2.0 * lam]) / (math.sqrt(2.0) * big)
    f_minus = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    f_zero = np.array([-lam, -lam, gm]) / big
    xi_plus = big / math.sqrt(2.0)
    xi_minus = math.sqrt(gm * gm) / math.sqrt(2.0)
    return PolaritonModes(f_plus=f_plus, f_minus=f_minus, f_zero=f_zero,
                          xi_plus=xi_plus, xi_minus=xi_minus)
