import math
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from cavitybic import (ModelParams, coupling_lambda, enumerate_sector,
                       mode_weights, normal_mode_frequency)
from cavitybic.operators import _hamiltonian_entries, apply_hamiltonian, lowering_maps
from conftest import dense_hamiltonian, dense_map, triple_cavity
from oracles import hamiltonian, hamiltonian_normal_mode_picture, ladder, normal_mode


def four_chain(m_atoms=1, g=0.3, omega=0.0):
    return ModelParams(n_chain=4, m_atoms=m_atoms, omega_c=omega, omega_a=omega,
                       g=g, lam=1.0, q=2)


def test_hamiltonian_entries_are_distinct_and_nonzero():
    # g = 0 and zero diagonal energies would leave zero entries if any were
    # kept; one atom per end caps the ensembles below K
    for p in (four_chain(m_atoms=2, g=0.0), four_chain(m_atoms=1),
              triple_cavity(m_atoms=3, g=0.4, omega_c=0.2)):
        for k in range(4):
            sector, sector_km1 = enumerate_sector(p, k), enumerate_sector(p, k - 1)
            maps = lowering_maps(p, sector, sector_km1)
            rows, cols, values = _hamiltonian_entries(p, sector, maps)
            assert values.dtype == np.float64
            assert np.unique(rows * sector.dim + cols).size == rows.size
            assert np.all(values != 0)
            # a map holds at most one entry per row and per column, none zero
            for m in maps:
                assert np.unique(m.rows).size == np.unique(m.cols).size == m.rows.size
                assert np.all(m.amp > 0)


@pytest.mark.parametrize("n_chain, m_atoms", [(2, 2), (3, 1), (4, 3), (2, 3), (5, 2), (6, 2)])
def test_hamiltonian_entries_match_the_dense_reference(n_chain, m_atoms):
    # each entry is one product (amp a_up) a_down, formed in the same order
    # by the reference's dense ladders, so the two agree bit for bit
    for g, omega_c, omega_a in ((0.3, 0.0, 0.0), (-0.7, 0.4, 0.3), (1.3, 0.2, 0.9),
                                (0.05, 1.0, 0.6)):
        p = ModelParams(n_chain=n_chain, m_atoms=m_atoms, omega_c=omega_c, omega_a=omega_a,
                        g=g, lam=1.0, q=1)
        for k in range(m_atoms + 2):
            sector, below = enumerate_sector(p, k), enumerate_sector(p, k - 1)
            assert np.array_equal(dense_hamiltonian(p, sector), hamiltonian(p, sector, below))


def test_vacuum_hamiltonian_is_ground_energy():
    p = triple_cavity(m_atoms=2, omega_c=0.9).replace(omega_a=0.9)
    h = dense_hamiltonian(p, enumerate_sector(p, 0))
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(-2 * 0.9)


def test_single_excitation_hamiltonian_matches_hand_construction():
    omega = 0.37
    p = triple_cavity(m_atoms=1, g=0.2, omega_c=omega).replace(omega_a=omega)
    sector = enumerate_sector(p, 1)
    h = dense_hamiltonian(p, sector)
    # lexicographic order: right atom, left atom, a_R, b_1, a_L
    expected = np.zeros((5, 5))
    expected[4, 3] = expected[3, 4] = p.lam
    expected[2, 3] = expected[3, 2] = p.lam
    expected[4, 1] = expected[1, 4] = p.g
    expected[2, 0] = expected[0, 2] = p.g
    # at resonance each single-excitation diagonal is omega - omega = 0
    assert np.allclose(h, expected, atol=1e-15)


def test_hamiltonian_exactly_hermitian():
    p = four_chain(m_atoms=2)
    for k in range(4):
        h = dense_hamiltonian(p, enumerate_sector(p, k))
        assert np.array_equal(h, h.T)


def test_hamiltonian_commutes_with_number_op():
    p = four_chain(m_atoms=2, g=0.41, omega=0.6)
    for k in range(1, 4):
        sector = enumerate_sector(p, k)
        h = dense_hamiltonian(p, sector)
        n_op = np.diag(sector.occupations.sum(axis=1))
        assert np.abs(h @ n_op - n_op @ h).max() < 1e-12


def test_number_op_eigenvalues():
    p = triple_cavity(m_atoms=2)
    assert enumerate_sector(p, 0).occupations.sum(axis=1).tolist() == [0]
    sector = enumerate_sector(p, 2)
    n_op = np.diag(sector.occupations.sum(axis=1))
    assert np.allclose(np.diag(n_op), 2)
    assert np.trace(n_op) == 2 * sector.dim


def test_ladders_match_per_state_reference():
    # reference: each state lowered in a Python loop and found through a dict
    for p in (four_chain(m_atoms=2), triple_cavity(m_atoms=3)):
        n = p.n_chain
        for k in range(4):
            sector, sector_km1 = enumerate_sector(p, k), enumerate_sector(p, k - 1)
            maps = lowering_maps(p, sector, sector_km1)
            assert len(maps) == n + 3
            for slot, m in enumerate(maps):
                assert np.array_equal(dense_map(m), ladder(p, sector, sector_km1, slot))
            # the normal modes from the weight table, against the sine formula
            for q in range(1, n):
                weighted = sum(w * dense_map(m) for w, m in zip(mode_weights(n, q), maps[1:n]))
                assert np.allclose(weighted, normal_mode(p, sector, sector_km1, q),
                                   rtol=0, atol=1e-15)


def test_end_annihilation_amplitudes():
    p = triple_cavity(m_atoms=2)
    sec1, sec2 = enumerate_sector(p, 1), enumerate_sector(p, 2)
    sec0 = enumerate_sector(p, 0)
    a1 = dense_map(lowering_maps(p, sec1, sec0, [0])[0])
    one_left = [j for j, s in enumerate(sec1.states) if s.photons_left == 1]
    assert len(one_left) == 1
    assert a1[0, one_left[0]] == pytest.approx(1.0)

    a2 = dense_map(lowering_maps(p, sec2, sec1, [0])[0])
    for j, s in enumerate(sec2.states):
        if s.photons_left == 2:
            col = a2[:, j]
            assert np.abs(col).max() == pytest.approx(math.sqrt(2))
        if s.photons_left == 0:
            assert np.abs(a2[:, j]).max() == 0.0


def test_end_annihilation_from_vacuum_is_zero_row_matrix():
    p = triple_cavity()
    sec0 = enumerate_sector(p, 0)
    empty = enumerate_sector(p, -1)
    (a_left,) = lowering_maps(p, sec0, empty, [0])
    assert a_left.shape == dense_map(a_left).shape == (0, 1)
    assert a_left.rows.size == a_left.cols.size == 0


def test_ladder_rejects_a_target_that_is_not_the_lower_sector():
    p = triple_cavity()
    sec2 = enumerate_sector(p, 2)
    # sector K - 2; sector K - 1 of one atom per ensemble, whose rows are
    # those of the lower sector; sector K - 1 of a longer chain
    for target in (enumerate_sector(p, 0), enumerate_sector(triple_cavity(m_atoms=1), 1),
                   enumerate_sector(p.replace(n_chain=3), 1)):
        with pytest.raises(ValueError, match="does not contain every lowered state"):
            lowering_maps(p, sec2, target, [0])


def test_lowering_maps_reject_params_of_another_chain_or_ensemble():
    # the J- amplitudes sqrt(n (M - n + 1)) read M from params: with M = 3
    # they came out [1.732, 2.0, 1.732, 1.732, 1.732], not sqrt(2) each
    p = triple_cavity(m_atoms=2)
    s2, s1 = enumerate_sector(p, 2), enumerate_sector(p, 1)
    assert np.allclose(lowering_maps(p, s2, s1, [3])[0].amp, math.sqrt(2))
    for other in (p.replace(m_atoms=3), p.replace(n_chain=3)):
        with pytest.raises(ValueError, match="do not match params"):
            lowering_maps(other, s2, s1, [3])


def test_normal_mode_is_middle_cavity_for_triple():
    p = triple_cavity(m_atoms=1)
    sec1, sec0 = enumerate_sector(p, 1), enumerate_sector(p, 0)
    assert mode_weights(2, 1).tolist() == [1.0]
    b1 = normal_mode(p, sec1, sec0, 1)
    mid = [j for j, s in enumerate(sec1.states) if sum(s.photons_mid) == 1]
    assert len(mid) == 1
    assert b1[0, mid[0]] == pytest.approx(1.0)
    assert np.count_nonzero(b1) == 1


def test_normal_mode_coefficients_four_chain():
    weights = mode_weights(4, 1)
    expected = math.sqrt(0.5) * np.sin(np.array([1, 2, 3]) * math.pi / 4)
    assert np.allclose(weights, expected, atol=1e-15)


def test_normal_mode_commutators():
    # [B_k, B_k'^+] = delta_{kk'} on sector 1, whose raised states all lie in sector 2
    p = four_chain(m_atoms=1)
    sec1 = enumerate_sector(p, 1)
    sec2 = enumerate_sector(p, 2)
    sec0 = enumerate_sector(p, 0)
    for k in range(1, 4):
        bk_10 = normal_mode(p, sec1, sec0, k)
        bk_21 = normal_mode(p, sec2, sec1, k)
        for kp in range(1, 4):
            bp_10 = normal_mode(p, sec1, sec0, kp)
            bp_21 = normal_mode(p, sec2, sec1, kp)
            # acting within sector 1: lower from 2 after raising, or raise after lowering to 0
            comm = bk_21 @ bp_21.conj().T - bp_10.conj().T @ bk_10
            expected = np.eye(sec1.dim) if k == kp else np.zeros((sec1.dim, sec1.dim))
            assert np.abs(comm - expected).max() < 1e-12


def test_mode_transform_is_orthogonal():
    for n_chain in (2, 3, 4, 7):
        t = np.array([mode_weights(n_chain, k) for k in range(1, n_chain)])
        assert np.abs(t @ t.T - np.eye(n_chain - 1)).max() < 1e-12


def test_coupling_lambda_values():
    p = triple_cavity()
    assert coupling_lambda(p, 1, "L") == pytest.approx(1.0)
    assert coupling_lambda(p, 1, "R") == pytest.approx(1.0)
    p4 = four_chain()
    assert coupling_lambda(p4, 2, "R") == pytest.approx(-coupling_lambda(p4, 2, "L"))
    assert coupling_lambda(p4, 1, "L") == pytest.approx(0.5)


def test_normal_mode_frequencies():
    p = triple_cavity(omega_c=2.0).replace(omega_a=2.0)
    assert normal_mode_frequency(p, 1) == pytest.approx(2.0)
    p4 = four_chain(omega=1.0)
    assert normal_mode_frequency(p4, 1) == pytest.approx(1.0 + math.sqrt(2))
    assert normal_mode_frequency(p4, 3) == pytest.approx(1.0 - math.sqrt(2))


def test_mode_index_out_of_range():
    p = triple_cavity()
    with pytest.raises(ValueError, match="mode index out of range"):
        mode_weights(p.n_chain, 2)
    with pytest.raises(ValueError, match="mode index out of range"):
        normal_mode_frequency(p, 0)


# the 41-cavity chain has a slot space of 3^41 * 4 > 2^63 states at K = 2,
# beyond any int64 mixed-radix rank of the occupations
LONG_CHAIN = ModelParams(n_chain=40, m_atoms=1, omega_c=0.6, omega_a=0.6, g=0.41, lam=1.0, q=20)


def test_normal_mode_picture_reproduces_hamiltonian():
    for p, k_max in ((triple_cavity(m_atoms=2, g=0.3, omega_c=0.8).replace(omega_a=0.8), 3),
                     (four_chain(m_atoms=2, g=0.41, omega=0.6), 3),
                     (LONG_CHAIN, 2)):
        for k in range(1, k_max + 1):
            sector = enumerate_sector(p, k)
            sector_km1 = enumerate_sector(p, k - 1)
            direct = dense_hamiltonian(p, sector)
            via_modes = hamiltonian_normal_mode_picture(p, sector, sector_km1)
            assert np.abs(direct - via_modes).max() < 1e-12


@pytest.mark.parametrize("p, k", [
    (triple_cavity(m_atoms=2, g=0.3, omega_c=0.8).replace(omega_a=0.8), 2),
    (triple_cavity(m_atoms=3, g=0.4), 4),                   # K > M
    (four_chain(m_atoms=2, g=0.41, omega=0.6), 3),
    (ModelParams(n_chain=5, m_atoms=2, omega_c=0.4, omega_a=1.1, g=-0.7, lam=1.0, q=2), 2),
    (LONG_CHAIN, 2),
])
def test_apply_hamiltonian_matches_the_dense_reference(p, k):
    # H v through the maps against the reference's dense H @ v: the two sum
    # each entry's few terms in different orders, so they agree to a
    # relative 1e-14 in the 2-norm
    sector, below = enumerate_sector(p, k), enumerate_sector(p, k - 1)
    h = hamiltonian(p, sector, below)
    maps = lowering_maps(p, sector, below)
    rng = np.random.default_rng(11)
    for _ in range(3):
        v = rng.normal(size=sector.dim) + 1j * rng.normal(size=sector.dim)
        hv = apply_hamiltonian(p, sector, maps, v, [m.apply(v) for m in maps])
        assert np.linalg.norm(hv - h @ v) <= 1e-14 * np.linalg.norm(h @ v)


def test_operator_layer_loads_no_scipy():
    # maps, Hamiltonian entries and the matrix-free apply, in a fresh process
    probe = textwrap.dedent("""
        import sys
        import numpy as np
        import cavitybic.operators as ops
        from cavitybic import ModelParams, enumerate_sector
        p = ModelParams(n_chain=3, m_atoms=2, omega_c=0.4, omega_a=0.3, g=0.7, lam=1.0, q=1)
        sector, below = enumerate_sector(p, 2), enumerate_sector(p, 1)
        maps = ops.lowering_maps(p, sector, below)
        ops._hamiltonian_entries(p, sector, maps)
        v = np.ones(sector.dim)
        ops.apply_hamiltonian(p, sector, maps, v, [m.apply(v) for m in maps])
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_collective_lowering_matrix_elements():
    p = triple_cavity(m_atoms=3)
    sec2, sec1 = enumerate_sector(p, 2), enumerate_sector(p, 1)
    jl = dense_map(lowering_maps(p, sec2, sec1, [p.n_chain + 1])[0])
    for j, s in enumerate(sec2.states):
        if s.excited_left == 2 and s.excited_right == 0 and sum(s.photons_mid) == 0 \
                and s.photons_left == 0 and s.photons_right == 0:
            # J-|2> = sqrt(2 * (3 - 2 + 1)) |1> = 2 |1>
            assert np.abs(jl[:, j]).max() == pytest.approx(2.0)


@pytest.mark.parametrize("omega_c, omega_a", [(0, 0), (2, 1)])
def test_integer_frequencies_build_the_float_hamiltonian(omega_c, omega_a):
    # ints are valid frequencies: the entries are float64 either way, with
    # no warning on the way
    as_int = four_chain(m_atoms=2, g=0.7).replace(omega_c=omega_c, omega_a=omega_a)
    as_float = as_int.replace(omega_c=float(omega_c), omega_a=float(omega_a))
    for k in range(4):
        sector = enumerate_sector(as_float, k)
        maps = lowering_maps(as_float, sector, enumerate_sector(as_float, k - 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            own = _hamiltonian_entries(as_int, sector, maps)
        ref = _hamiltonian_entries(as_float, sector, maps)
        for got, want in zip(own, ref):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
