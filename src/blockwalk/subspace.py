"""Constraint graphs, independent-set bases, and dihedral orbits.

Bitstring convention: bit ``i`` of an integer labels physical vertex ``i``
(bit 0 is least significant).  Printed strings show bit ``N-1 ... 0``.
Basis states are ordered by ascending integer value, which fixes a canonical
index for every state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels


def popcount(x: int) -> int:
    return bin(x).count("1")


def popcount_array(x: np.ndarray) -> np.ndarray:
    """Elementwise popcount of an unsigned integer array, as int64."""
    x = x.astype(np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(x).astype(np.int64)
    out = np.zeros(x.shape, dtype=np.int64)
    while np.any(x):
        out += (x & np.uint64(1)).astype(np.int64)
        x = x >> np.uint64(1)
    return out


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
    """Independent-set bitstrings of a constraint graph, one per basis index.

    ``states`` (uint64) is strictly ascending: a state's index is its rank,
    found by binary search, so every lookup depends on that order.
    """

    constraint: ConstraintGraph
    states: np.ndarray

    @property
    def n_bits(self) -> int:
        return self.constraint.n_vertices

    def __len__(self) -> int:
        return len(self.states)

    def index_of(self, state: int) -> int:
        if state not in self:
            raise KeyError(
                "state %s not in subspace" % bits_to_str(int(state), self.n_bits))
        return int(np.searchsorted(self.states, np.uint64(state)))

    def __contains__(self, state: int) -> bool:
        state = int(state)
        return 0 <= state < 1 << 64 and bool(
            _lookup(self.states, np.uint64(state))[1])

    def hamming_weights(self) -> np.ndarray:
        return popcount_array(self.states)


def _lookup(states: np.ndarray, values):
    """Clipped positions of uint64 ``values`` in ``states``, and membership."""
    idx = np.minimum(np.searchsorted(states, values), len(states) - 1)
    return idx, states[idx] == values


def enumerate_subspace(g: ConstraintGraph) -> SubspaceBasis:
    """All independent-set bitstrings of g in ascending integer order."""
    if g.n_vertices > 63:
        raise ValueError("supported up to 63 vertices")
    return SubspaceBasis(
        g, kernels.enumerate_independent_sets(g.neighbor_masks, g.n_vertices))


def walk_edges(basis: SubspaceBasis) -> tuple:
    """Index arrays (a, b) of the pairs with Hamming distance 1, a < b,
    sorted by a and then b.

    Within the subspace the larger state of such a pair has the one extra
    bit set, so each bit is cleared in every state that has it and the
    result looked up.
    """
    s = basis.states
    bits = np.uint64(1) << np.arange(basis.n_bits, dtype=np.uint64)
    bit, b = np.nonzero(s & bits[:, None])
    idx, found = _lookup(s, s[b] ^ bits[bit])
    a, b = idx[found], b[found]
    order = np.lexsort((b, a))
    return a[order], b[order]


def rotation_images(basis: SubspaceBasis) -> np.ndarray:
    """(N, |V|) table of every state rotated left by j = 0 ... N-1 bits."""
    s = basis.states
    n = basis.n_bits
    shifts = np.arange(n, dtype=np.uint64)[:, None]
    return ((s << shifts) | (s >> (np.uint64(n) - shifts))) \
        & np.uint64((1 << n) - 1)


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
    """Partition of the subspace into dihedral orbits, by representative.

    The basis must be closed under rotation and reflection, as a ring's is.
    Each state's orbit representative is the least of its rotations and of
    its mirror image's rotations, read from the rotation table.
    """
    s = basis.states
    n = basis.n_bits
    least = rotation_images(basis).min(axis=0)
    mirror = np.zeros_like(s)
    for i in range(n):
        mirror |= ((s >> np.uint64(i)) & np.uint64(1)) << np.uint64(n - 1 - i)
    rep = np.minimum(least, least[_lookup(s, mirror)[0]])
    order = np.argsort(rep, kind="stable")
    cuts = np.flatnonzero(np.diff(rep[order])) + 1
    groups = (tuple(g.tolist()) for g in np.split(s[order], cuts))
    return [DihedralOrbit(n, m[0], m) for m in groups]


def bracelet_vector(orbit: DihedralOrbit, basis: SubspaceBasis) -> np.ndarray:
    """Equal-weight superposition over the orbit, as basis amplitudes."""
    members = np.array(orbit.members, dtype=np.uint64)
    idx, found = _lookup(basis.states, members)
    if not found.all():
        raise ValueError("orbit member %s not in subspace"
                         % bits_to_str(int(members[~found][0]), basis.n_bits))
    amps = np.zeros(len(basis), dtype=complex)
    amps[idx] = 1.0 / np.sqrt(orbit.size)
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
