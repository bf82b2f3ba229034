"""Trapped photon-atom states and open-system dynamics in coupled-cavity arrays.

The package constructs the exact dark (perfectly trapped) states formed by
two atomic ensembles at the ends of a cavity chain, evolves the open system
under the Markovian master equation, and analyzes the linearized
quantum-cavity regime (trapped-mode decay rate and quality factor).

``import cavitybic`` loads no submodule and no numpy.  A public name, or one
of the submodules below, is imported on first access (PEP 562), so a run
pays only for the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# Each library module and the public names it defines.
_PUBLIC = {
    "model": ("BasisState", "ModelParams", "NoResonantModeError", "NoTrappedStateError",
              "ParamError", "SectorBasis", "enumerate_sector", "resonant_mode_index",
              "validate_params"),
    "operators": ("coupling_lambda", "mode_weights", "normal_mode_frequency"),
    "bic": ("ApproxState", "BicCoefficients", "DegenerateNullSpaceError", "RegimeObservables",
            "StateVector", "TrappingReport", "assemble_bic_state", "chi",
            "closed_form_coefficients", "fock_approx", "mean_photons_across_chi",
            "null_space_coefficients", "recursive_coefficients", "regime_observables",
            "subradiant_approx", "verify_trapping"),
    "dynamics": ("DensityMatrix", "DickeState", "FitError", "IntegrationError",
                 "LindbladGenerator", "SectorStack", "Trajectory", "dicke_basis",
                 "effective_tc_hamiltonian", "evolve", "fit_decay_rate", "lindblad_generator",
                 "stack_sectors", "steady_state_prediction", "trapped_probabilities",
                 "twisted_spin_ops"),
    "linear": ("LinearSystem", "PolaritonModes", "closed_form_decay", "decay_rates",
               "gamma_approx", "linear_matrix", "polariton_transform", "q_factor",
               "trapped_mode_decay"),
}

_MODULE_OF = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Not cached in this namespace: a name is read from its module on every
    # access, so that a wrapper installed in the module (by a tracer) and
    # later removed is never left behind here.
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _PUBLIC:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
