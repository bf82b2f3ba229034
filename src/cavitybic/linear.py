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


def linear_matrix(params: ModelParams) -> LinearSystem:
    """Build the 5x5 amplitude dynamics matrix and its sorted eigenvalues;
    raises ``FloatingPointError`` when an entry overflows a float."""
    _require_triple_cavity(params)
    wc = params.omega_c
    delta = params.delta
    gm = params.g * math.sqrt(params.m_atoms)
    lam = params.lam
    a_diag = wc - 0.5j * params.gamma_c
    d_diag = wc - delta - 0.5j * params.m_atoms * params.gamma_a
    a = np.array([
        [a_diag, 0.0,    lam, gm,     0.0],
        [0.0,    a_diag, lam, 0.0,    gm],
        [lam,    lam,    wc,  0.0,    0.0],
        [gm,     0.0,    0.0, d_diag, 0.0],
        [0.0,    gm,     0.0, 0.0,    d_diag],
    ], dtype=np.complex128)
    if not np.isfinite(a).all():
        raise FloatingPointError("the amplitude matrix overflows a float at "
                                 f"delta={delta:.6g}, gamma_c={params.gamma_c:.6g}")
    evals = np.linalg.eigvals(a)
    return LinearSystem(matrix=a, eigenvalues=evals[np.lexsort((evals.real, -evals.imag))])


def trapped_mode_decay(params: ModelParams) -> float:
    """Amplitude decay rate Gamma of the least damped (trapped) mode.

    The matrix is solved in the frame rotating at omega_c (``linear_matrix``
    at omega_c = 0 and omega_a = -delta): that shifts every eigenvalue by
    -omega_c and no decay rate, and keeps a large omega_c from costing the
    rates digits.  Rates below the eigensolver's resolution (machine
    epsilon at the matrix scale) are reported as exactly zero.  Warns when
    the two least damped eigenvalues are degenerate in their imaginary
    parts; the smaller rate is returned.
    """
    system = linear_matrix(params.replace(omega_c=0.0, omega_a=-params.delta))
    ims = -system.eigenvalues.imag
    gamma = abs(float(ims[0]))
    noise_floor = 1e-14 * max(1.0, float(np.abs(system.matrix).max()))
    if gamma < noise_floor:
        gamma = 0.0
    if len(ims) > 1 and abs(ims[1] - ims[0]) <= 1e-12 * max(1.0, abs(ims[0])):
        warnings.warn("degenerate minimal decay pair; returning the smallest rate",
                      DegenerateDecayWarning, stacklevel=2)
    return gamma


def gamma_approx(params: ModelParams) -> float:
    """Closed-form approximation of the trapped-mode decay rate, valid when
    g strongly dominates gamma_a, gamma_c and lam.

    Emits a RuntimeWarning outside that regime; the value is still returned.
    """
    _require_triple_cavity(params)
    scale = max(params.gamma_a, params.gamma_c, params.lam)
    if params.g < 5.0 * scale:
        warnings.warn("coupling g is not large compared to the damping rates and "
                      "hopping; the closed-form decay rate may be inaccurate",
                      RuntimeWarning, stacklevel=2)
    m = params.m_atoms
    g2 = params.g ** 2
    delta2 = params.delta ** 2
    num = m * m * params.gamma_a * g2 + delta2 * params.gamma_c
    den = m * m * g2 * g2 + delta2 * params.gamma_c ** 2 / 4.0
    return num / den * params.lam ** 2


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
