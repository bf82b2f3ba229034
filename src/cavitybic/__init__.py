"""Trapped photon-atom states and open-system dynamics in coupled-cavity arrays.

The package constructs the exact dark (perfectly trapped) states formed by
two atomic ensembles at the ends of a cavity chain, evolves the open system
under the Markovian master equation, and analyzes the linearized
quantum-cavity regime (trapped-mode decay rate and quality factor).
"""

from .model import (BasisState, ModelParams, NoResonantModeError, ParamError,
                    SectorBasis, enumerate_sector, resonant_mode_index,
                    validate_params)
from .operators import coupling_lambda, mode_weights, normal_mode_frequency
from .bic import (ApproxState, BicCoefficients, DegenerateNullSpaceError,
                  NoTrappedStateError, RegimeObservables, StateVector,
                  TrappingReport, assemble_bic_state, chi,
                  closed_form_coefficients, fock_approx,
                  mean_photons_across_chi, null_space_coefficients,
                  recursive_coefficients, regime_observables,
                  subradiant_approx, verify_trapping)
from .dynamics import (DensityMatrix, DickeState, FitError, IntegrationError,
                       LindbladGenerator, SectorStack, Trajectory, dicke_basis,
                       effective_tc_hamiltonian, evolve, fit_decay_rate,
                       lindblad_generator, stack_sectors,
                       steady_state_prediction, trapped_probabilities,
                       twisted_spin_ops)
from .linear import (LinearSystem, PolaritonModes, closed_form_decay, decay_rates,
                     gamma_approx, linear_matrix, polariton_transform, q_factor,
                     trapped_mode_decay)

__version__ = "0.1.0"

# The public names; without this list ``from cavitybic import *`` would also
# bind the submodules (model, operators, bic, dynamics, linear).
__all__ = [
    "ApproxState",
    "BasisState",
    "BicCoefficients",
    "DegenerateNullSpaceError",
    "DensityMatrix",
    "DickeState",
    "FitError",
    "IntegrationError",
    "LindbladGenerator",
    "LinearSystem",
    "ModelParams",
    "NoResonantModeError",
    "NoTrappedStateError",
    "ParamError",
    "PolaritonModes",
    "RegimeObservables",
    "SectorBasis",
    "SectorStack",
    "StateVector",
    "Trajectory",
    "TrappingReport",
    "assemble_bic_state",
    "chi",
    "closed_form_coefficients",
    "closed_form_decay",
    "coupling_lambda",
    "decay_rates",
    "dicke_basis",
    "effective_tc_hamiltonian",
    "enumerate_sector",
    "evolve",
    "fit_decay_rate",
    "fock_approx",
    "gamma_approx",
    "lindblad_generator",
    "linear_matrix",
    "mean_photons_across_chi",
    "mode_weights",
    "normal_mode_frequency",
    "null_space_coefficients",
    "polariton_transform",
    "q_factor",
    "recursive_coefficients",
    "regime_observables",
    "resonant_mode_index",
    "stack_sectors",
    "steady_state_prediction",
    "subradiant_approx",
    "trapped_mode_decay",
    "trapped_probabilities",
    "twisted_spin_ops",
    "validate_params",
    "verify_trapping",
]
