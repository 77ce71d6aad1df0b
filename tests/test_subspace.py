"""Enumeration, dihedral orbits, and canonical target patterns."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockwalk import subspace as ss

RING_COUNTS = {
    5: 11, 6: 18, 7: 29, 8: 47, 9: 76, 10: 123, 11: 199, 12: 322,
    13: 521, 14: 843, 15: 1364, 16: 2207, 17: 3571, 18: 5778,
    19: 9349, 20: 15127, 21: 24476, 22: 39603, 23: 64079,
}


def test_bits_round_trip():
    for n in (1, 5, 12):
        for z in (0, 1, (1 << n) - 1 >> 1):
            assert ss.str_to_bits(ss.bits_to_str(z, n)) == z


@given(st.integers(min_value=0, max_value=2**20 - 1))
def test_popcount_matches_builtin(z):
    assert ss.popcount(z) == bin(z).count("1")


@pytest.mark.parametrize("native", [True, False])
def test_popcount_array_matches_scalar(native, monkeypatch):
    # numpy >= 2 counts natively; the shift loop serves numpy 1.x
    if not native:
        monkeypatch.delattr(np, "bitwise_count", raising=False)
    states = ss.enumerate_subspace(ss.ring_graph(16)).states
    got = ss.popcount_array(states)
    assert got.dtype == np.int64
    assert got.tolist() == [ss.popcount(int(s)) for s in states]


@pytest.mark.parametrize("n,count", sorted(RING_COUNTS.items()))
def test_ring_subspace_sizes(n, count):
    basis = ss.enumerate_subspace(ss.ring_graph(n))
    assert len(basis) == count


def test_states_are_independent_sets():
    n = 9
    basis = ss.enumerate_subspace(ss.ring_graph(n))
    for s in basis.states:
        s = int(s)
        for i in range(n):
            j = (i + 1) % n
            assert not ((s >> i) & 1 and (s >> j) & 1)


def test_states_sorted_and_indexable():
    basis = ss.enumerate_subspace(ss.ring_graph(8))
    states = [int(s) for s in basis.states]
    assert states == sorted(states)
    for i, s in enumerate(states):
        assert basis.index_of(s) == i
        assert s in basis
    # a dependent pair, a negative int and an int past uint64 are not members
    for s in (0b11, -1, 1 << 64):
        assert s not in basis
        with pytest.raises(KeyError, match="not in subspace"):
            basis.index_of(s)


@settings(max_examples=30)
@given(st.integers(min_value=5, max_value=12), st.data())
def test_orbit_closed_under_dihedral_group(n, data):
    basis = ss.enumerate_subspace(ss.ring_graph(n))
    idx = data.draw(st.integers(min_value=0, max_value=len(basis) - 1))
    z = int(basis.states[idx])
    orbit = ss.dihedral_orbit(z, n)
    members = set(orbit.members)
    for m in members:
        assert ss.rotate_bits(m, n) in members
        assert ss.reverse_bits(m, n) in members
    assert z in members
    assert orbit.size == len(members)
    # orbit size divides the group order 2n
    assert (2 * n) % orbit.size == 0


def test_all_orbits_partition():
    for n in range(3, 17):
        basis = ss.enumerate_subspace(ss.ring_graph(n))
        orbits = ss.all_orbits(basis)
        seen = []
        for orb in orbits:
            assert orb == ss.dihedral_orbit(orb.representative, n)
            seen.extend(orb.members)
        assert sorted(seen) == [int(s) for s in basis.states]
        reps = [orb.representative for orb in orbits]
        assert reps == sorted(set(reps))


def test_bracelet_vector_normalized_uniform():
    n = 7
    basis = ss.enumerate_subspace(ss.ring_graph(n))
    orbit = ss.dihedral_orbit(ss.str_to_bits("0010101"), n)
    vec = ss.bracelet_vector(orbit, basis)
    assert np.isclose(np.vdot(vec, vec).real, 1.0)
    nz = vec[np.abs(vec) > 0]
    assert len(nz) == orbit.size
    assert np.allclose(nz, 1.0 / np.sqrt(orbit.size))


@pytest.mark.parametrize("n", range(5, 24))
def test_canonical_targets_are_independent(n):
    basis = ss.enumerate_subspace(ss.ring_graph(n))
    half, mis = ss.half_target(n), ss.mis_target(n)
    assert len(half) == len(mis) == n
    assert ss.str_to_bits(half) in basis
    assert ss.str_to_bits(mis) in basis
    assert half.count("1") == n // 4 + 1
    assert mis.count("1") == n // 2


def test_mis_is_maximum():
    for n in range(5, 12):
        basis = ss.enumerate_subspace(ss.ring_graph(n))
        best = max(ss.popcount(int(s)) for s in basis.states)
        assert ss.mis_target(n).count("1") == best


def test_packed_target_rejects_overfull():
    with pytest.raises(ValueError):
        ss.packed_target(7, 4)
