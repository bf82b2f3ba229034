import time
from types import SimpleNamespace

import numpy as np
import pytest

from cavitybic import (DensityMatrix, ModelParams, StateVector,
                       assemble_bic_state, enumerate_sector, evolve,
                       stack_sectors, trapped_probabilities)
from cavitybic.operators import _hamiltonian_entries, lowering_maps


def triple_cavity(m_atoms=2, g=0.1, gamma_c=0.0, gamma_a=0.0, delta=0.0,
                  omega_c=0.0, **extra) -> ModelParams:
    """Triple-cavity parameter set in hopping-rate units; detuning shifts
    the atomic frequency below the cavities."""
    return ModelParams(n_chain=2, m_atoms=m_atoms, omega_c=omega_c,
                       omega_a=omega_c - delta, g=g, lam=1.0, q=1,
                       gamma_c=gamma_c, gamma_a=gamma_a, **extra)


def dense_map(lowering):
    """A ``LoweringMap`` as a dense array."""
    out = np.zeros(lowering.shape)
    out[lowering.rows, lowering.cols] = lowering.amp
    return out


def dense_hamiltonian(params, sector):
    """The package's Hamiltonian on ``sector`` as a dense array, from its
    entries over the lowering maps into sector K - 1."""
    below = enumerate_sector(params, sector.k_excitations - 1)
    rows, cols, values = _hamiltonian_entries(params, sector,
                                              lowering_maps(params, sector, below))
    h = np.zeros((sector.dim, sector.dim))
    h[rows, cols] = values
    return h


def left_excited_state(space, k):
    """All k excitations in the left ensemble, fields in vacuum."""
    sector = space.sectors[k]
    vec = np.zeros(sector.dim, dtype=complex)
    for i, s in enumerate(sector.states):
        if (s.excited_left == k and s.excited_right == 0
                and s.photons_left == 0 and s.photons_right == 0
                and sum(s.photons_mid) == 0):
            vec[i] = 1.0
            return StateVector(sector, vec)
    raise AssertionError(f"no left-excited state with k={k}")


@pytest.fixture(scope="session")
def relaxation_run():
    """Free relaxation of the fully excited left ensemble (M=2, weak
    coupling, leaky ends) to the dark-state mixture; shared by the dynamics
    tests and the acceptance suite."""
    params = triple_cavity(m_atoms=2, g=0.1, gamma_c=1.0)
    space = stack_sectors(params, 2)
    rho0 = DensityMatrix.from_pure(space, left_excited_state(space, 2))
    start = time.perf_counter()
    trajectory = evolve(params, rho0, 2000.0, snapshot_dt=2.0)
    elapsed = time.perf_counter() - start
    trapped = [assemble_bic_state(params, k, sector=space.sectors[k])
               for k in range(3)]
    probabilities = np.array([trapped_probabilities(state, trapped)
                              for state in trajectory.states])
    return SimpleNamespace(params=params, space=space, trajectory=trajectory,
                           trapped=trapped, probabilities=probabilities,
                           elapsed=elapsed)
