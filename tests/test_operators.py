import math
import warnings

import numpy as np
import pytest

from scipy import sparse

from cavitybic import (ModelParams, build_collective_lowering,
                       build_end_annihilation, build_hamiltonian,
                       build_normal_mode, build_number_op, coupling_lambda,
                       enumerate_sector, mode_weights, normal_mode_frequency)
from cavitybic.operators import lowering_maps
from conftest import triple_cavity
from oracles import hamiltonian_normal_mode_picture


def four_chain(m_atoms=1, g=0.3, omega=0.0):
    return ModelParams(n_chain=4, m_atoms=m_atoms, omega_c=omega, omega_a=omega,
                       g=g, lam=1.0, q=2)


def test_builders_return_canonical_csr():
    # g = 0 and zero diagonal energies would leave stored zeros if any
    # builder skipped canonicalisation; one atom per end caps the ensembles below K
    for p in (four_chain(m_atoms=2, g=0.0), four_chain(m_atoms=1),
              triple_cavity(m_atoms=3, g=0.4, omega_c=0.2)):
        for k in range(4):
            sector, sector_km1 = enumerate_sector(p, k), enumerate_sector(p, k - 1)
            ops = [build_hamiltonian(p, sector), build_number_op(p, sector)]
            for side in ("L", "R"):
                ops.append(build_end_annihilation(p, sector, sector_km1, side))
                ops.append(build_collective_lowering(p, sector, sector_km1, side))
            ops += [build_normal_mode(p, sector, sector_km1, q) for q in range(1, p.n_chain)]
            for op in ops:
                assert isinstance(op, sparse.csr_matrix)
                assert op.dtype == np.complex128
                assert op.has_canonical_format
                assert not np.any(op.data == 0)


def test_vacuum_hamiltonian_is_ground_energy():
    p = triple_cavity(m_atoms=2, omega_c=0.9).replace(omega_a=0.9)
    h = build_hamiltonian(p, enumerate_sector(p, 0)).toarray()
    assert h.shape == (1, 1)
    assert h[0, 0] == pytest.approx(-2 * 0.9)


def test_single_excitation_hamiltonian_matches_hand_construction():
    omega = 0.37
    p = triple_cavity(m_atoms=1, g=0.2, omega_c=omega).replace(omega_a=omega)
    sector = enumerate_sector(p, 1)
    h = build_hamiltonian(p, sector).toarray()
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
        h = build_hamiltonian(p, enumerate_sector(p, k))
        assert (h != h.conj().T).nnz == 0


def test_hamiltonian_commutes_with_number_op():
    p = four_chain(m_atoms=2, g=0.41, omega=0.6)
    for k in range(1, 4):
        sector = enumerate_sector(p, k)
        h = build_hamiltonian(p, sector).toarray()
        n_op = build_number_op(p, sector).toarray()
        assert np.abs(h @ n_op - n_op @ h).max() < 1e-12


def test_number_op_eigenvalues():
    p = triple_cavity(m_atoms=2)
    assert build_number_op(p, enumerate_sector(p, 0)).toarray()[0, 0] == 0
    sector = enumerate_sector(p, 2)
    n_op = build_number_op(p, sector).toarray()
    assert np.allclose(np.diag(n_op), 2)
    assert np.trace(n_op).real == pytest.approx(2 * sector.dim)


def test_ladders_match_per_state_reference():
    # reference: lower each state with a dict lookup, one state at a time
    for p in (four_chain(m_atoms=2), triple_cavity(m_atoms=3)):
        n = p.n_chain
        for k in range(4):
            sector, sector_km1 = enumerate_sector(p, k), enumerate_sector(p, k - 1)

            def reference(slot, amplitude):
                ref = np.zeros((sector_km1.dim, sector.dim))
                for col, s in enumerate(sector.states):
                    occ = [s.photons_left, *s.photons_mid, s.photons_right,
                           s.excited_left, s.excited_right]
                    if occ[slot]:
                        amp = amplitude(occ[slot])
                        occ[slot] -= 1
                        target = type(s)(occ[0], tuple(occ[1:n]), *occ[n:])
                        ref[sector_km1.index_of(target), col] = amp
                return ref

            def photon(m):
                return math.sqrt(m)

            def atom(m):
                return math.sqrt(m * (p.m_atoms - m + 1))

            for side, end, ens in (("L", 0, n + 1), ("R", n, n + 2)):
                assert np.array_equal(
                    build_end_annihilation(p, sector, sector_km1, side).toarray(),
                    reference(end, photon))
                assert np.array_equal(
                    build_collective_lowering(p, sector, sector_km1, side).toarray(),
                    reference(ens, atom))
            for q in range(1, n):
                weights = mode_weights(n, q)
                expected = sum(reference(i, lambda m, w=weights[i - 1]: w * math.sqrt(m))
                               for i in range(1, n))
                assert np.array_equal(build_normal_mode(p, sector, sector_km1, q).toarray(),
                                      expected)


def test_end_annihilation_amplitudes():
    p = triple_cavity(m_atoms=2)
    sec1, sec2 = enumerate_sector(p, 1), enumerate_sector(p, 2)
    sec0 = enumerate_sector(p, 0)
    a1 = build_end_annihilation(p, sec1, sec0, "L").toarray()
    one_left = [j for j, s in enumerate(sec1.states) if s.photons_left == 1]
    assert len(one_left) == 1
    assert a1[0, one_left[0]] == pytest.approx(1.0)

    a2 = build_end_annihilation(p, sec2, sec1, "L").toarray()
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
    op = build_end_annihilation(p, sec0, empty, "L")
    assert op.shape == (0, 1)
    assert op.nnz == 0


def test_ladder_rejects_a_target_that_is_not_the_lower_sector():
    p = triple_cavity()
    sec2 = enumerate_sector(p, 2)
    # sector K - 2; sector K - 1 of one atom per ensemble, whose rows are
    # those of the lower sector; sector K - 1 of a longer chain
    for target in (enumerate_sector(p, 0), enumerate_sector(triple_cavity(m_atoms=1), 1),
                   enumerate_sector(p.replace(n_chain=3), 1)):
        with pytest.raises(ValueError, match="does not contain every lowered state"):
            build_end_annihilation(p, sec2, target, "L")


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
    b1 = build_normal_mode(p, sec1, sec0, 1).toarray()
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
        bk_10 = build_normal_mode(p, sec1, sec0, k).toarray()
        bk_21 = build_normal_mode(p, sec2, sec1, k).toarray()
        for kp in range(1, 4):
            bp_10 = build_normal_mode(p, sec1, sec0, kp).toarray()
            bp_21 = build_normal_mode(p, sec2, sec1, kp).toarray()
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
    sec1, sec0 = enumerate_sector(p, 1), enumerate_sector(p, 0)
    with pytest.raises(ValueError, match="mode index out of range"):
        build_normal_mode(p, sec1, sec0, 2)
    with pytest.raises(ValueError, match="mode index out of range"):
        normal_mode_frequency(p, 0)


def test_normal_mode_picture_reproduces_hamiltonian():
    # the 41-cavity chain has a slot space of 3^41 * 4 > 2^63 states at K = 2,
    # beyond any int64 mixed-radix rank of the occupations
    long_chain = ModelParams(n_chain=40, m_atoms=1, omega_c=0.6, omega_a=0.6,
                             g=0.41, lam=1.0, q=20)
    for p, k_max in ((triple_cavity(m_atoms=2, g=0.3, omega_c=0.8).replace(omega_a=0.8), 3),
                     (four_chain(m_atoms=2, g=0.41, omega=0.6), 3),
                     (long_chain, 2)):
        for k in range(1, k_max + 1):
            sector = enumerate_sector(p, k)
            sector_km1 = enumerate_sector(p, k - 1)
            direct = build_hamiltonian(p, sector).toarray()
            via_modes = hamiltonian_normal_mode_picture(p, sector, sector_km1)
            assert np.abs(direct - via_modes).max() < 1e-12


def test_collective_lowering_matrix_elements():
    p = triple_cavity(m_atoms=3)
    sec2, sec1 = enumerate_sector(p, 2), enumerate_sector(p, 1)
    jl = build_collective_lowering(p, sec2, sec1, "L").toarray()
    for j, s in enumerate(sec2.states):
        if s.excited_left == 2 and s.excited_right == 0 and sum(s.photons_mid) == 0 \
                and s.photons_left == 0 and s.photons_right == 0:
            # J-|2> = sqrt(2 * (3 - 2 + 1)) |1> = 2 |1>
            assert np.abs(jl[:, j]).max() == pytest.approx(2.0)


def test_hamiltonian_from_a_given_lower_sector_is_identical():
    p = four_chain(m_atoms=2, g=0.7, omega=0.3)
    for k in range(4):
        sector, below = enumerate_sector(p, k), enumerate_sector(p, k - 1)
        own, given = build_hamiltonian(p, sector), build_hamiltonian(p, sector, below)
        for attr in ("indptr", "indices", "data"):
            assert getattr(own, attr).tobytes() == getattr(given, attr).tobytes()


@pytest.mark.parametrize("omega_c, omega_a", [(0, 0), (2, 1)])
def test_integer_frequencies_build_the_float_hamiltonian(omega_c, omega_a):
    # ints are valid frequencies: the diagonal is float64 either way, and
    # scipy.sparse is handed no int64 diagonal to warn about
    as_int = four_chain(m_atoms=2, g=0.7).replace(omega_c=omega_c, omega_a=omega_a)
    as_float = as_int.replace(omega_c=float(omega_c), omega_a=float(omega_a))
    for k in range(4):
        sector = enumerate_sector(as_float, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            own = build_hamiltonian(as_int, sector)
        ref = build_hamiltonian(as_float, sector)
        for attr in ("indptr", "indices", "data"):
            assert getattr(own, attr).tobytes() == getattr(ref, attr).tobytes()
