"""Constraint graphs, independent-set bases, and dihedral orbits.

Bitstring convention: bit ``i`` of an integer labels physical vertex ``i``
(bit 0 is least significant).  Printed strings show bit ``N-1 ... 0``.
Basis states are ordered by ascending integer value, which fixes a canonical
index for every state.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels


def popcount(x: int) -> int:
    return bin(x).count("1")


def bits_to_str(x: int, n: int) -> str:
    return format(x, "0%db" % n)


def str_to_bits(s: str) -> int:
    return int(s, 2)


@dataclass(frozen=True)
class ConstraintGraph:
    """Undirected graph whose independent sets define the valid subspace."""

    n_vertices: int
    edges: frozenset

    def __post_init__(self):
        for (i, j) in self.edges:
            if i == j:
                raise ValueError("self-loop (%d, %d)" % (i, j))
            if not (0 <= i < self.n_vertices and 0 <= j < self.n_vertices):
                raise ValueError("edge (%d, %d) out of range" % (i, j))

    @property
    def neighbor_masks(self) -> np.ndarray:
        masks = np.zeros(self.n_vertices, dtype=np.uint64)
        for (i, j) in self.edges:
            masks[i] |= np.uint64(1) << np.uint64(j)
            masks[j] |= np.uint64(1) << np.uint64(i)
        return masks


def make_graph(n_vertices: int, edges) -> ConstraintGraph:
    norm = frozenset((min(i, j), max(i, j)) for i, j in edges)
    return ConstraintGraph(n_vertices, norm)


def ring_graph(n: int) -> ConstraintGraph:
    """Cycle graph on n >= 3 vertices."""
    if n < 3:
        raise ValueError("ring graph needs n >= 3, got %d" % n)
    return make_graph(n, [(i, (i + 1) % n) for i in range(n)])


@dataclass(frozen=True)
class SubspaceBasis:
    """Ordered independent-set bitstrings with index lookup."""

    constraint: ConstraintGraph
    states: np.ndarray  # uint64, strictly ascending
    _index: dict = field(repr=False)

    @property
    def n_bits(self) -> int:
        return self.constraint.n_vertices

    def __len__(self) -> int:
        return len(self.states)

    def index_of(self, state: int) -> int:
        try:
            return self._index[int(state)]
        except KeyError:
            raise KeyError(
                "state %s not in subspace" % bits_to_str(int(state), self.n_bits)
            ) from None

    def __contains__(self, state: int) -> bool:
        return int(state) in self._index

    def hamming_weights(self) -> np.ndarray:
        return np.array([popcount(int(s)) for s in self.states])


def enumerate_subspace(g: ConstraintGraph) -> SubspaceBasis:
    """All independent-set bitstrings of g in ascending integer order."""
    if g.n_vertices > 63:
        raise ValueError("supported up to 63 vertices")
    states = kernels.enumerate_independent_sets(g.neighbor_masks, g.n_vertices)
    index = {int(s): k for k, s in enumerate(states)}
    return SubspaceBasis(g, states, index)


def walk_edges(basis: SubspaceBasis) -> list:
    """Sorted (a, b) index pairs with Hamming distance 1, a < b.

    A Hamming-distance-1 partner differs by one bit; for pairs within the
    subspace the larger state has one extra bit set, so it suffices to try
    clearing each set bit of every state.
    """
    out = []
    for b, s in enumerate(basis.states):
        s = int(s)
        x = s
        while x:
            bit = x & -x
            partner = s ^ bit
            a = basis._index.get(partner)
            if a is not None:
                out.append((a, b))
            x ^= bit
    out.sort()
    return out


def rotate_bits(z: int, n: int, k: int = 1) -> int:
    """Cyclic left rotation of an n-bit string by k positions."""
    k %= n
    mask = (1 << n) - 1
    return ((z << k) | (z >> (n - k))) & mask


def reverse_bits(z: int, n: int) -> int:
    out = 0
    for i in range(n):
        if z & (1 << i):
            out |= 1 << (n - 1 - i)
    return out


@dataclass(frozen=True)
class DihedralOrbit:
    """Orbit of a bitstring under the 2n rotations/reflections of D_n."""

    n_bits: int
    representative: int  # minimal member
    members: tuple  # sorted ints

    @property
    def size(self) -> int:
        return len(self.members)

    def weight(self) -> int:
        return popcount(self.representative)


def dihedral_orbit(z: int, n: int) -> DihedralOrbit:
    if z >> n:
        raise ValueError("bitstring longer than n")
    seen = set()
    for flip in (False, True):
        w = reverse_bits(z, n) if flip else z
        for k in range(n):
            seen.add(rotate_bits(w, n, k))
    members = tuple(sorted(seen))
    return DihedralOrbit(n, members[0], members)


def all_orbits(basis: SubspaceBasis) -> list:
    """Partition of the subspace into dihedral orbits, by representative."""
    n = basis.n_bits
    seen = set()
    orbits = []
    for s in basis.states:
        s = int(s)
        if s in seen:
            continue
        orb = dihedral_orbit(s, n)
        seen.update(orb.members)
        orbits.append(orb)
    return orbits


def bracelet_vector(orbit: DihedralOrbit, basis: SubspaceBasis) -> np.ndarray:
    """Equal-weight superposition over the orbit, as basis amplitudes."""
    amps = np.zeros(len(basis), dtype=complex)
    w = 1.0 / np.sqrt(orbit.size)
    for m in orbit.members:
        if m not in basis:
            raise ValueError(
                "orbit member %s not in subspace" % bits_to_str(m, basis.n_bits)
            )
        amps[basis.index_of(m)] = w
    return amps


def packed_target(n: int, ones: int) -> str:
    """Canonical ring independent set with `ones` occupied sites packed
    alternately at one end: 0...0101...01 (leading zeros, then alternating).

    Requires 1 <= ones <= floor(n/2) so the pattern respects the ring
    constraint across the wrap-around edge.
    """
    if not 1 <= ones <= n // 2:
        raise ValueError("ones must be in [1, n//2] for a ring of size %d" % n)
    return "0" * (n - 2 * ones + 1) + "10" * (ones - 1) + "1"


def half_target(n: int) -> str:
    """Half-filled benchmark target: floor(n/4)+1 occupied sites."""
    return packed_target(n, n // 4 + 1)


def mis_target(n: int) -> str:
    """Maximum-independent-set target: floor(n/2) occupied sites."""
    return packed_target(n, n // 2)
