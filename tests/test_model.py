import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavitybic import (BasisState, ModelParams, NoResonantModeError, ParamError,
                       enumerate_sector, resonant_mode_index, validate_params)
from cavitybic import model
from cavitybic.model import MAX_SECTOR_ENTRIES, sector_dim
from cavitybic.operators import lowering_maps
from conftest import triple_cavity
from oracles import brute_force_sector


def test_validate_accepts_good_params():
    p = triple_cavity()
    assert validate_params(p) is p


def test_validate_rejects_q_out_of_range():
    p = triple_cavity().replace(q=2)
    with pytest.raises(ParamError, match="q out of range"):
        validate_params(p)


def test_validate_rejects_nonpositive_lambda():
    p = triple_cavity().replace(lam=0.0)
    with pytest.raises(ParamError, match="lambda must be positive"):
        validate_params(p)


@pytest.mark.parametrize("field", ["omega_c", "omega_a", "g", "lam", "gamma_c", "gamma_a"])
def test_validate_rejects_non_finite(field):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ParamError, match=f"{field} must be finite"):
            validate_params(triple_cavity().replace(**{field: value}))


def test_validate_rejects_small_systems():
    with pytest.raises(ParamError, match="n_chain"):
        validate_params(triple_cavity().replace(n_chain=1))
    with pytest.raises(ParamError, match="m_atoms"):
        validate_params(triple_cavity().replace(m_atoms=0))


def test_delta_is_derived():
    p = triple_cavity(delta=0.25, omega_c=1.0)
    assert p.delta == pytest.approx(0.25)
    assert p.omega_a == pytest.approx(0.75)


def test_resonant_mode_triple_cavity():
    assert resonant_mode_index(triple_cavity()) == 1


def test_resonant_mode_even_chain():
    p = ModelParams(n_chain=4, m_atoms=1, omega_c=0.0, omega_a=0.0,
                    g=0.1, lam=1.0, q=2)
    assert resonant_mode_index(p) == 2


def test_resonant_mode_odd_chain_fails():
    # mode frequencies sit at omega_c +- lam, never at omega_a = omega_c
    p = ModelParams(n_chain=3, m_atoms=1, omega_c=0.0, omega_a=0.0,
                    g=0.1, lam=1.0, q=1)
    with pytest.raises(NoResonantModeError, match="no resonant chain mode"):
        resonant_mode_index(p, tol=1e-6)
    assert resonant_mode_index(p) in (1, 2)


def test_sector_sizes():
    assert enumerate_sector(triple_cavity(), 0).dim == 1
    assert enumerate_sector(triple_cavity(m_atoms=1), 1).dim == 5
    assert enumerate_sector(triple_cavity(m_atoms=2), 2).dim == 15


def test_sector_dim_counts_every_sector():
    # k up to 8 passes both atomic caps (k > 2 m_atoms) on every chain
    for n_chain, m_atoms, k in itertools.product(range(2, 6), range(1, 4), range(-1, 9)):
        p = triple_cavity(m_atoms=m_atoms).replace(n_chain=n_chain)
        assert sector_dim(p, k) == enumerate_sector(p, k).dim


def test_sector_above_its_entry_bound_is_refused_before_allocating():
    # K = 2 at n_chain = 200: 20,706 states of 203 slots; at n_chain = 199:
    # 20,503 states of 202 slots, accepted without building the table
    over, under = (triple_cavity().replace(n_chain=n) for n in (200, 199))
    assert sector_dim(under, 2) * 202 <= MAX_SECTOR_ENTRIES < sector_dim(over, 2) * 203
    with pytest.raises(ParamError, match="^sector K=2 needs more than MAX_SECTOR_ENTRIES"):
        enumerate_sector(over, 2)
    # refused from the photons alone: C(2 * 10**6 + 2, 10**6 + 2) takes tens of seconds
    huge = triple_cavity().replace(n_chain=10**6)
    with pytest.raises(ParamError, match="MAX_SECTOR_ENTRIES"):
        enumerate_sector(huge, 10**6)


def test_sector_at_its_entry_bound_is_built(monkeypatch):
    p = triple_cavity(m_atoms=2)
    entries = 15 * 5  # sector K = 2: 15 states of 5 slots
    monkeypatch.setattr(model, "MAX_SECTOR_ENTRIES", entries)
    assert enumerate_sector(p, 2).occupations.size == entries
    monkeypatch.setattr(model, "MAX_SECTOR_ENTRIES", entries - 1)
    with pytest.raises(ParamError, match="MAX_SECTOR_ENTRIES = 74 "):
        enumerate_sector(p, 2)


def test_sector_excitation_numbers_and_round_trip():
    p = triple_cavity(m_atoms=2)
    sector = enumerate_sector(p, 2)
    for i, state in enumerate(sector.states):
        assert state.excitation_number() == 2
        assert sector.index_of(state) == i


def test_index_of_an_absent_state_raises_value_error():
    sector = enumerate_sector(triple_cavity(m_atoms=2), 2)
    with pytest.raises(ValueError, match="lacks a requested state"):
        sector.index_of(BasisState(0, (3,), 0, 0, 0))  # three photons in sector K = 2


def test_indices_read_narrow_rows_and_reject_entries_outside_the_sector():
    # rows in the narrowest unsigned type that holds K, one byte here, are
    # ranked as they are; 258 and -1 would wrap onto a state
    sector = enumerate_sector(triple_cavity(m_atoms=2), 2)
    assert sector.indices(sector.occupations.astype("u1")).tolist() == list(range(sector.dim))
    for row in ([258, 0, 0, 0, 0], [3, -1, 0, 0, 0], [2, 0, 0, 0]):
        with pytest.raises(ValueError, match="lacks a requested state"):
            sector.indices([row])


def test_sector_ordering_is_lexicographic():
    sector = enumerate_sector(triple_cavity(m_atoms=2), 2)
    assert list(sector.states) == sorted(sector.states)


def test_negative_sectors_are_empty():
    p = triple_cavity(m_atoms=1)
    for k in (-1, -3):
        sector = enumerate_sector(p, k)
        assert sector.dim == 0 and sector.occupations.shape == (0, p.n_chain + 3)


@settings(deadline=None, max_examples=60)
@given(n_chain=st.integers(2, 5), m_atoms=st.integers(1, 3), k=st.integers(0, 4))
def test_sector_matches_brute_force(n_chain, m_atoms, k):
    p = ModelParams(n_chain=n_chain, m_atoms=m_atoms, omega_c=0.0, omega_a=0.0,
                    g=0.1, lam=1.0, q=1)
    sector = enumerate_sector(p, k)
    brute = brute_force_sector(p, k)
    assert list(sector.states) == brute
    assert len(set(sector.states)) == sector.dim
    # one occupation row per state, slots a_L, b_1 .. b_{N-1}, a_R, J_L, J_R
    rows = [[s.photons_left, *s.photons_mid, s.photons_right, s.excited_left, s.excited_right]
            for s in brute]
    assert sector.occupations.shape == (sector.dim, n_chain + 3)
    assert sector.occupations.tolist() == rows
    assert sector.indices(rows).tolist() == list(range(sector.dim))
    with pytest.raises(ValueError, match="lacks a requested state"):
        sector.indices([[k + 1] + [0] * (n_chain + 2)])  # one excitation too many


@settings(deadline=None, max_examples=40)
@given(data=st.data(), n_chain=st.integers(2, 40), m_atoms=st.integers(1, 30))
def test_sector_beyond_brute_force_sizes_is_complete_ordered_and_ranked(data, n_chain, m_atoms):
    p = ModelParams(n_chain=n_chain, m_atoms=m_atoms, omega_c=0.0, omega_a=0.0,
                    g=0.1, lam=1.0, q=1)
    # from K = 0 up past 2M, where both atomic caps bind, within the entry bound
    top = 0
    while (top <= 2 * m_atoms + 3
           and sector_dim(p, top + 1) * (n_chain + 3) <= MAX_SECTOR_ENTRIES):
        top += 1
    k = data.draw(st.integers(0, top), label="k")
    sector = enumerate_sector(p, k)
    occ = sector.occupations
    assert occ.shape == (sector_dim(p, k), n_chain + 3) and occ.dtype == np.int64
    # each row's first change from the row before is an increase
    steps = np.diff(occ, axis=0)
    first = (steps != 0).argmax(axis=1)
    assert (steps[np.arange(len(steps)), first] > 0).all()
    assert occ.min() >= 0 and occ[:, -2:].max() <= m_atoms
    assert (occ.sum(axis=1) == k).all()
    assert np.array_equal(sector.indices(occ), np.arange(len(occ)))
    # each slot's lowering map against an independent route: lower the rows
    # explicitly and rank them with indices in sector K - 1
    lower = enumerate_sector(p, k - 1)
    for slot, m in enumerate(lowering_maps(p, sector, lower)):
        assert np.array_equal(m.cols, np.flatnonzero(occ[:, slot]))
        lowered = occ[m.cols]
        lowered[:, slot] -= 1
        assert np.array_equal(m.rows, lower.indices(lowered))


def test_enumeration_keeps_only_prefixes_that_complete_a_row():
    # (N, M, K) = (2, 1, 120): 29,041 rows; the first four slots alone would
    # take C(124, 4) = 9,381,251 prefixes if they were not pruned
    p = triple_cavity(m_atoms=1)
    tracemalloc.start()
    try:
        occ = model.sector_occupations(p, 120)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert occ.shape == (29_041, 5)
    assert peak < 5 * occ.nbytes  # 1.11 MiB table; 2.2 times that measured


@settings(deadline=None, max_examples=80)
@given(data=st.data(), n_chain=st.sampled_from([2, 3, 5, 40]), m_atoms=st.integers(1, 3))
def test_indices_rank_every_drawn_row_and_reject_every_other(data, n_chain, m_atoms):
    # n_chain = 40 has 43 slots, where (K + 1)^43 >= 2^63 from K = 2 on: a
    # mixed-radix key would overflow, a rank cannot
    k = data.draw(st.integers(0, 3 if n_chain == 40 else 5), label="k")
    p = ModelParams(n_chain=n_chain, m_atoms=m_atoms, omega_c=0.0, omega_a=0.0,
                    g=0.1, lam=1.0, q=1)
    sector = enumerate_sector(p, k)
    occ = sector.occupations
    picks = data.draw(st.lists(st.integers(0, sector.dim - 1), max_size=40), label="picks")
    assert sector.indices(occ[picks]).tolist() == picks
    assert sector.indices(occ[picks].astype("u1")).tolist() == picks

    width = n_chain + 3
    bad = []
    if k >= 1:
        bad.append(np.eye(1, width, 1, dtype=int)[0] * (k - 1))  # sum K - 1
        bad.append(enumerate_sector(p, k - 1).occupations[-1])   # a row of sector K - 1
    bad.append(np.eye(1, width, 0, dtype=int)[0] * (k + 1))       # sum K + 1
    negative = np.zeros(width, dtype=int)
    negative[[0, 1, 2]] = k, -1, 1                                # sums to K
    bad.append(negative)
    if m_atoms < k:                                               # an atom over M
        over = np.zeros(width, dtype=int)
        over[[0, width - 2]] = k - m_atoms - 1, m_atoms + 1
        bad.append(over)
    for row in bad:
        at = data.draw(st.integers(0, len(picks)), label="position")
        rows = np.insert(occ[picks], at, row, axis=0)
        with pytest.raises(ValueError, match="lacks a requested state"):
            sector.indices(rows)
    for rows in (occ[picks, :-1], np.hstack((occ[picks], occ[picks, :1]))):
        with pytest.raises(ValueError, match="lacks a requested state"):
            sector.indices(rows)


def test_indices_allocate_less_than_an_int64_copy_of_the_query():
    # the lowered rows of (N, M, K) = (2, 30, 30), in the narrowest type that
    # holds them: 204,600 rows of 5 one-byte entries, ranked in one pass
    p = triple_cavity(m_atoms=30)
    occ = enumerate_sector(p, 30).occupations
    lowered = np.vstack([occ[occ[:, slot] > 0] - np.eye(1, 5, slot, dtype=int)
                         for slot in range(5)]).astype("u1")
    sector = enumerate_sector(p, 29)
    assert lowered.shape == (204_600, 5)
    tracemalloc.start()
    try:
        found = sector.indices(lowered)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(sector.occupations[found], lowered)
    assert peak < lowered.size * 8  # 7.8 MiB; 4.7 MiB measured
