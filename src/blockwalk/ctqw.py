"""State vectors and unitary evolution over an independent-set basis.

The walk generator G is a real symmetric 0/1 matrix and is stored as float64.
The walk propagator exp(-i tau G) v is computed either from G's cached real
eigendecomposition or by adaptive Lanczos/Krylov iteration with sparse
matrix-vector products; ``factored`` is the one rule that picks between them.

The eigendecomposition is blocked by ring momentum and parity.  When the
basis is closed under rotating the ring, G commutes with the rotation and
with the ring's reflection R, so momentum states adapted to the reflection
(Sandvik, AIP Conf. Proc. 1297, 135, 2010) split G into about N/2 real
blocks of about |V|/N states, at every momentum.  Each block with
0 < k < N/2 serves two copies: the real and imaginary parts of its states
span two G-invariant subspaces on which G is the same real matrix.  k = 0
and k = N/2 have one copy, whose R-even rows come first and R-odd rows
follow; G does not couple the two, so their eigenvectors are
block-diagonal, and the even rows of k = 0 are the dihedral-symmetric
(bracelet) sector.  Each block is built from G's rows at the rotation
orbits' least members only, as in momentum-basis exact diagonalisation.
Every walk step flips one bit, so G anticommutes with (-1)^(Hamming
weight), the sublattice symmetry of the PXP model (Turner et al., Nat.
Phys. 14, 745, 2018): each parity part of a block is [[0, B], [B^T, 0]]
and is decomposed by the SVD of B.  The eigenvectors are kept factored as
V = F blockdiag(U_k (x) I_c): a sparse real matrix of momentum columns,
ordered (block, row, copy), and a zero-padded stack of block eigenvectors,
so V c and V^T x cost one sparse product and one batched block product in
real arithmetic and V is never formed.  Any other basis is one block with
F = I, all of it even.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import kernels
from .subspace import (
    SubspaceBasis,
    mirror_indices,
    popcount_array,
    rotation_images,
    walk_edges,
)

# ``factored``'s limit on the largest momentum block.  optimize_product (half
# target, one BLAS thread, one process per run, eigenbasis built inside the
# call) runs factored against Krylov in 0.04-0.07 against 0.21 s at ring 16
# depth 1, 0.35 against 0.80-1.03 s at ring 18 depth 2, 0.45-0.52 against
# 0.62-0.66 s at ring 19 (block 984) depth 1, and 1.19-1.35 against
# 1.06-1.21 s at ring 20 (block 1526) depth 1, with peak memory 88, 120 and
# 205 MB against 64, 69 and 77 MB at rings 18-20: the crossover lies near
# ring 20.  No workload runs rings 19-20, so the cutoff stays between rings
# 18 and 19.
EIGEN_BLOCK_CUTOFF = 800
# Read only by perfbench's checker and tracer; the program uses ``factored``.
DENSE_CUTOFF = 2048
KRYLOV_DIM = 60        # Lanczos vectors per Krylov step at most
KRYLOV_SPLITS = 30     # step halvings before Krylov propagation gives up


class BasisMismatchError(ValueError):
    """Operands live on different subspace bases."""


@dataclass
class StateVector:
    basis: SubspaceBasis
    amplitudes: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def zero_state(basis: SubspaceBasis) -> StateVector:
    """The all-zeros bitstring (always index 0 in the canonical order)."""
    amps = np.zeros(len(basis), dtype=complex)
    amps[basis.index_of(0)] = 1.0
    return StateVector(basis, amps)


def basis_state(basis: SubspaceBasis, bitstring: int) -> StateVector:
    amps = np.zeros(len(basis), dtype=complex)
    amps[basis.index_of(bitstring)] = 1.0
    return StateVector(basis, amps)


class WalkGenerator:
    """Sparse real symmetric adjacency of the Hamming-distance-1 walk graph."""

    def __init__(self, basis: SubspaceBasis, matrix: sp.csr_matrix):
        self.basis = basis
        self.matrix = matrix
        self._eig = None
        self._sectors = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        m = self.matrix
        return kernels.csr_matvec(m.indptr, m.indices, m.data, x)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def eig(self) -> Eigenbasis:
        """Cached real eigendecomposition, blocked by ring momentum."""
        if self._eig is None:
            self._eig = _momentum_eigenbasis(self)
        return self._eig

    def sectors(self) -> tuple:
        """Cached rotation sectors of the basis (``_rotation_sectors``): the
        momentum block sizes and the orbit data the eigenbasis is built from."""
        if self._sectors is None:
            self._sectors = _rotation_sectors(self.basis)
        return self._sectors


@dataclass(frozen=True)
class Eigenbasis:
    """G = V diag(w) V^T with V = F blockdiag(U[0] (x) I_c, U[1] (x) I_c, ...).

    Eigen-coefficient vectors have one slot per (block, row, copy), in that
    order: block k owns slots (k*b + row)*c + copy for row < sizes[k] and
    copy < copies[k], of ``n_blocks * b * c``, where b is the largest block
    and c the most copies of any block (2 on a ring, 1 otherwise).  ``F``
    (|V| x slots) holds orthonormal real momentum columns; each copy of
    block k spans a G-invariant subspace on which G acts as the same real
    sizes[k] x sizes[k] matrix, whose eigenvectors ``U[k]`` (zero-padded to
    b x b) serve every copy.  Every block is reflection-adapted: the one-copy
    blocks k = 0 and k = N/2 hold their ``even[k]`` reflection-even rows
    first and their odd rows after them, and U[k] is block-diagonal between
    the two (a two-copy block counts all its rows as even).  Within each
    part the eigenvalues ascend; they are -s, zeros and +s, for the
    singular values s of the part's even-by-odd Hamming-weight block
    (``_chiral_eigenpairs``).  Padding slots
    and missing copies have empty columns in F and w = 0, so
    V diag(w) V^T = G and they stay zero under ``to_eigen`` and
    ``to_states``.  In the real view of a complex coefficient vector,
    reshaped to (n_blocks, b, 2c), one batched product with U applies V's
    block factor to every copy at once.
    """

    w: np.ndarray          # (n_blocks * b * c,) eigenvalues, float64
    F: sp.csr_matrix       # (|V|, n_blocks * b * c) momentum columns
    U: np.ndarray          # (n_blocks, b, b) block eigenvectors
    sizes: np.ndarray      # (n_blocks,) block sizes
    copies: np.ndarray     # (n_blocks,) copies of each block, 1 or 2
    even: np.ndarray       # (n_blocks,) reflection-even rows, first in a block
    ft: sp.csr_matrix      # F^T, row-compressed for V^T x

    def symmetric_sector(self) -> tuple:
        """(w, U): G's eigenvalues (ascending) and eigenvectors on the
        dihedral-symmetric sector, the reflection-even rows of block k = 0.

        On a ring their momentum columns are the equal-weight superpositions
        of the dihedral orbits, one per row in the order of the orbits'
        least members (``subspace.all_orbits``): an achiral rotation orbit O
        gives e_O, and a chiral pair O < O' gives (e_O + e_O') / sqrt(2) on
        the row of O, whose minimum is the pair's least member.
        """
        m = self.even[0]
        w = self.w.reshape(len(self.sizes), self.U.shape[1], -1)
        return w[0, :m, 0], self.U[0, :m, :m]

    def to_eigen(self, x: np.ndarray) -> np.ndarray:
        """V^T x for a complex state x."""
        y = kernels.real_matvec(self.ft, x)
        return kernels.block_matvec(self.U.transpose(0, 2, 1), y)

    def row(self, index: int) -> np.ndarray:
        """Row ``index`` of V: the eigen-coefficients of one basis state."""
        e = np.zeros(self.F.shape[0], dtype=complex)
        e[index] = 1.0
        return np.ascontiguousarray(self.to_eigen(e).real)

    def to_states(self, c: np.ndarray) -> np.ndarray:
        """V c for complex eigen-coefficients c."""
        return kernels.real_matvec(self.F, kernels.block_matvec(self.U, c))

    def diagonal_operator(self, d: np.ndarray):
        """c -> V^T diag(d) V c for a real diagonal d over the states.

        d is folded into the momentum factor once, P = F^T diag(d) F, which
        couples only columns of one rotation orbit or of one mirror pair of
        orbits and so stays nearly as sparse as F; each application is then
        one sparse and two block products on the real view of c, which must
        be a contiguous complex array of one coefficient vector (slots,) or
        a stack of m of them (slots, m), applied to every column at once.
        """
        ft = self.ft
        p = sp.csr_matrix((ft.data * d[ft.indices], ft.indices, ft.indptr),
                          shape=ft.shape) @ self.F
        u, ut = self.U, self.U.transpose(0, 2, 1)
        shape = u.shape[:2] + (-1,)

        def apply(c: np.ndarray) -> np.ndarray:
            y = np.matmul(u, c.view(float).reshape(shape)).reshape(len(c), -1)
            y = p @ y
            return np.matmul(ut, y.reshape(shape)).view(complex).reshape(c.shape)
        return apply


def _rotation_sectors(basis: SubspaceBasis):
    """Per-state rotation orbit, orbit position, period and mirror image,
    per-momentum orbit admission, and the block sizes of G's rotation
    momentum blocks.

    Rotating left by j maps state s to T^j s.  Each orbit is labelled by
    its minimum r; s = T^m r with period L.  Momentum k (0 <= k <= N/2)
    admits an orbit when k L = 0 mod N; k = 0 and k = N/2 give one cosine
    column per admitted orbit, every other k a cosine and a sine column.
    ``mirror`` is the index of each state's bit reversal.  A basis that is
    not closed under rotation is treated as N = 1: every state its own orbit
    and its own mirror, one block.
    """
    s = basis.states
    rots = rotation_images(basis)
    n = len(rots)
    if np.array_equal(np.sort(rots[-1]), s):
        mirror = mirror_indices(basis)
    else:
        n, rots, mirror = 1, s[None, :], np.arange(len(s))
    first = rots.argmin(axis=0)
    # T^n s = s always: the first j >= 1 with T^j s = s is the period
    same = np.append(rots[1:] == s, np.ones((1, len(s)), bool), axis=0)
    period = same.argmax(axis=0) + 1
    position = -first % period
    _, orbit = np.unique(rots[first, np.arange(len(s))], return_inverse=True)
    orbit_period = np.zeros(orbit.max() + 1, dtype=np.int64)
    orbit_period[orbit] = period
    k = np.arange(n // 2 + 1)
    admits = (k[:, None] * orbit_period[None, :]) % n == 0
    pair = (k > 0) & (2 * k != n)
    sizes = admits.sum(axis=1) * (1 + pair)
    return n, orbit, position, period, mirror, admits, pair, sizes


def largest_block(gen: WalkGenerator) -> int:
    """Size of the largest rotation momentum block of the walk generator
    (cosine and sine columns of one momentum together)."""
    return int(gen.sectors()[-1].max())


def factored(gen: WalkGenerator) -> bool:
    """The one walk propagation rule: G's factored eigenbasis (``gen.eig()``)
    up to ``EIGEN_BLOCK_CUTOFF``, Krylov steps beyond."""
    return largest_block(gen) <= EIGEN_BLOCK_CUTOFF


def _momentum_eigenbasis(gen: WalkGenerator) -> Eigenbasis:
    """Reflection-adapted momentum columns F in one vectorised pass, each
    block of F^T G F built from G's rows at the orbit representatives
    (``_block_entries``), then each parity part of each block decomposed by
    the SVD of its chiral half (``_chiral_eigenpairs``).

    With e_O the momentum-k state of rotation orbit O (minimum r, period L;
    amplitude e^{2 pi i k m / N} / sqrt(L) on T^m r), the bit reversal R
    maps r to T^d r' for the minimum r' of the mirror orbit O', and
    R composed with complex conjugation maps e_O to e^{i theta} e_O' with
    theta = -2 pi k d / N.  The states fixed by that antiunitary span
    momentum k: e^{i theta/2} e_O for an achiral orbit (O' = O), and
    (e_O + e^{i theta} e_O') / sqrt(2) and i (e_O - e^{i theta} e_O') / sqrt(2)
    for a chiral pair O < O'.  G is real on them.  For 0 < k < N/2 the real
    columns sqrt(2) Re f and sqrt(2) Im f of each such state f give two
    copies of one real block.  At k = 0 and k = N/2 e_O is real, so each f
    is real, and then R-even, or imaginary, and then R-odd: the one copy
    holds Re f on the even rows, then Im f on the odd rows, and G, which
    commutes with R, does not couple the two.
    """
    n, orbit, position, period, mirror, admits, pair, _ = gen.sectors()
    sizes = admits.sum(axis=1)
    copies = 1 + pair
    b, c = int(sizes.max()), int(copies.max())
    ks, states = np.nonzero(admits[:, orbit])
    o, mo = orbit[states], orbit[mirror[states]]
    # s = T^m r has R s = T^(d - m) r', so d is the sum of the positions of
    # s and of its mirror image: one value on O, and the same on O' mod L
    d = (position + position[mirror]) % period
    theta = (-2.0 * np.pi / n) * ks * d[states]
    chiral = o != mo
    lower = o < mo
    # each state's amplitude in e_O, then in its column's state f:
    # e^{i theta/2} e_O for an achiral orbit; for a chiral pair,
    # (e_O + e^{i theta} e_O') / sqrt(2) at the lower orbit's row and
    # i (e_O - e^{i theta} e_O') / sqrt(2) at the upper orbit's row
    f = np.exp((2j * np.pi / n) * ks * position[states])
    f /= np.sqrt(period[states])
    f *= np.where(chiral,
                  np.where(lower, 1.0, np.exp(1j * theta)) / np.sqrt(2.0),
                  np.exp(0.5j * theta))
    upper = np.arange(len(ks) + chiral.sum()) >= len(ks)
    ks = np.concatenate([ks, ks[chiral]])
    states = np.concatenate([states, states[chiral]])
    o = np.concatenate([np.minimum(o, mo), np.maximum(o, mo)[chiral]])
    f = np.concatenate([f, 1j * np.where(lower, 1, -1)[chiral] * f[chiral]])
    # a one-copy f is real or imaginary; its entries are at least
    # 1 / sqrt(2L) in magnitude, far above the rounding in the other part
    odd = ~pair[ks] & (np.abs(f.imag) > np.abs(f.real))
    odd_row = np.zeros(admits.shape, dtype=bool)
    odd_row[ks, o] = odd
    even_row = admits & ~odd_row
    even = even_row.sum(axis=1)
    # rows of a block: its even orbits in order, then its odd orbits
    rank = np.where(odd_row, even[:, None] + np.cumsum(odd_row, axis=1),
                    np.cumsum(even_row, axis=1)) - 1
    slot = ks * b + rank[ks, o]
    h, odd_weight = _block_entries(gen, ks, states, slot, f, upper, b)
    w, u = _chiral_eigenpairs(h, odd_weight, even, sizes, copies)
    # copy 0 holds sqrt(2) Re f and copy 1 sqrt(2) Im f; one copy holds the
    # real or the imaginary part
    f *= np.sqrt(copies[ks])
    two = pair[ks]
    f = sp.csr_matrix(
        (np.concatenate([np.where(odd, f.imag, f.real), f.imag[two]]),
         (np.concatenate([states, states[two]]),
          np.concatenate([slot * c, slot[two] * c + 1]))),
        shape=(gen.dim, len(sizes) * b * c))
    return Eigenbasis(w.ravel(), f, u, sizes, copies, even, f.T.tocsr())


def _block_entries(gen: WalkGenerator, ks, states, slot, f, upper, b):
    """The real blocks h[k] of G on the copy-0 columns, from G's rows at the
    orbit representatives, and the weight parity of every block row.

    The entries (ks, states, slot, f) are the nonzero amplitudes f of the
    columns' states (before the sqrt(copies) factor), ``upper`` marking
    those on the upper row of a chiral pair.  f_a and G f_b of one momentum
    k change by the same phase e^{2 pi i k m / N} under T^m, so
    <f_a, G f_b> = sum_O L_O conj(f_a(r_O)) (G f_b)(r_O) over the orbits'
    minima r_O, and h[k]_ab is its real part: the inner product of the
    copy-0 columns, on k = 0 and k = N/2 too, where f is real or imaginary.
    A neighbour s = T^m r' of r_O has f_b(s) = e^{2 pi i k m / N} f_b(r'),
    so only the amplitudes at the representatives are read, and each edge
    out of a representative adds one term per momentum and pair of rows.
    Every edge flips one bit, so rows of equal weight parity get no entry.
    Entries between the reflection parts of k = 0 and k = N/2 are rounding
    noise and are never read.  Off rings (N = 1) every state is its own
    representative and h[0] = G.
    """
    n, orbit, position, period = gen.sectors()[:4]
    nk = n // 2 + 1
    # each orbit's amplitudes at its representative and their slots, per
    # momentum: one row, or a chiral pair's two; zero where k is not admitted
    at = position[states] == 0
    rep = orbit[states[at]], ks[at], upper[at].astype(np.int64)
    amp = np.zeros((orbit.max() + 1, nk, 2), dtype=complex)
    place = np.zeros(amp.shape, dtype=np.int64)
    amp[rep], place[rep] = f[at], slot[at]
    odd_weight = np.zeros(nk * b, dtype=bool)
    odd_weight[slot[at]] = popcount_array(gen.basis.states[states[at]]) % 2
    # the edges (r_O, s) of G out of the representatives, s = T^m r'
    g = gen.matrix
    source = np.repeat(np.arange(gen.dim), np.diff(g.indptr))
    edge = position[source] == 0
    s = g.indices[edge]
    src, dst = orbit[source[edge]], orbit[s]
    phase = np.exp((2j * np.pi / n) * np.outer(position[s], np.arange(nk)))
    left = period[source[edge], None, None] * amp[src].conj()
    right = phase[:, :, None] * amp[dst]
    terms = (left[..., None] * right[:, :, None, :]).real
    index = place[src][..., None] * b + (place[dst] % b)[:, :, None, :]
    h = np.bincount(index.ravel(), terms.ravel(), minlength=nk * b * b)
    return h.reshape(nk, b, b), odd_weight.reshape(nk, b)


def _chiral_eigenpairs(h, odd_weight, even, sizes, copies):
    """Eigenvalues w (n_blocks, b, c) and eigenvectors U of every parity part
    of every block h[k], ascending within each part.

    G anticommutes with (-1)^(Hamming weight), and every state of an orbit,
    and of its mirror, has the orbit's weight, so a part whose rows split
    into m_e even-weight and m_o odd-weight rows is [[0, B], [B^T, 0]].
    With B = X diag(s) Y^T (full SVD) its eigenpairs are -s with
    [x; -y] / sqrt(2), the |m_e - m_o| zero modes of the larger side's null
    space, and +s with [x; y] / sqrt(2).  A part with rows of one weight
    parity only is zero, and its U the identity.
    """
    u = np.zeros_like(h)
    w = np.zeros(h.shape[:2] + (int(copies.max()),))
    r = np.sqrt(0.5)
    for k, size in enumerate(sizes):
        for lo, hi in ((0, even[k]), (even[k], size)):
            rows = np.arange(lo, hi)
            xs, ys = rows[~odd_weight[k, lo:hi]], rows[odd_weight[k, lo:hi]]
            if not (len(xs) and len(ys)):
                u[k, rows, rows] = 1.0
                continue
            x, s, yt = np.linalg.svd(h[k][xs][:, ys])
            y, m = yt.T, len(s)
            neg, zero, pos = slice(lo, lo + m), slice(lo + m, hi - m), \
                slice(hi - m, hi)
            u[k, xs, neg], u[k, ys, neg] = r * x[:, :m], -r * y[:, :m]
            u[k, xs, pos], u[k, ys, pos] = r * x[:, m - 1::-1], \
                r * y[:, m - 1::-1]
            if len(xs) > len(ys):
                u[k, xs, zero] = x[:, m:]
            else:
                u[k, ys, zero] = y[:, m:]
            w[k, neg, :copies[k]] = -s[:, None]
            w[k, pos, :copies[k]] = s[::-1, None]
    return w, u


def build_generator(basis: SubspaceBasis) -> WalkGenerator:
    """Unit-weight real generator over all Hamming-distance-1 pairs in the basis."""
    a, b = walk_edges(basis)
    n = len(basis)
    m = sp.coo_matrix(
        (np.ones(2 * len(a)), (np.concatenate([a, b]), np.concatenate([b, a]))),
        shape=(n, n),
    ).tocsr()
    return WalkGenerator(basis, m)


@dataclass
class PhasorDiagonal:
    """Diagonal phase generator with per-state real coefficients."""

    basis: SubspaceBasis
    coefficients: np.ndarray


def local_phasor(basis: SubspaceBasis, target_mask: int) -> PhasorDiagonal:
    """Site-linear phasor counting excitations on the target's set bits."""
    mask = np.uint64(target_mask & ((1 << basis.n_bits) - 1))
    c = popcount_array(basis.states & mask).astype(float)
    return PhasorDiagonal(basis, c)


def hamming_phasor(basis: SubspaceBasis) -> PhasorDiagonal:
    """Global phasor counting all excitations (Hamming weight)."""
    c = basis.hamming_weights().astype(float)
    return PhasorDiagonal(basis, c)


def _expm_dense(gen: WalkGenerator, v: np.ndarray, tau: float) -> np.ndarray:
    eb = gen.eig()
    return eb.to_states(np.exp(-1j * tau * eb.w) * eb.to_eigen(v))


def _expm_krylov_step(matvec, v, tau, tol):
    """One Lanczos approximation of exp(-i tau A) v; returns (result, ok).

    A lean Lanczos: each vector is orthogonalised against the previous two
    only, by the plain three-term recurrence updated in place, so ``matvec``
    must return a new array.  The basis loses orthogonality in floating point
    once Ritz values converge, but the Lanczos approximation of a matrix
    function stays accurate regardless (Druskin, Greenbaum & Knizhnerman,
    SIAM J. Sci. Comput. 19, 38, 1998), so no vector is projected against
    all earlier ones.  Saad's a posteriori estimate (SIAM J. Numer. Anal. 29,
    209, 1992) is checked at every vector from the 6th to the 16th, where
    short steps converge, then at every 4th, so long spaces do not pay a
    tridiagonal eigensolve per vector.
    """
    nrm = np.linalg.norm(v)
    if nrm == 0.0 or tau == 0.0:
        return v.copy(), True
    m_max = min(KRYLOV_DIM, v.shape[0])
    V = np.empty((m_max, v.shape[0]), dtype=complex)
    T = np.zeros((m_max, m_max))  # the tridiagonal projection, lower half
    V[0] = v * (1.0 / nrm)
    for j in range(m_max):
        w = matvec(V[j])
        if j:
            w -= T[j, j - 1] * V[j - 1]
        T[j, j] = np.vdot(V[j], w).real
        w -= T[j, j] * V[j]
        beta = np.sqrt(np.vdot(w, w).real)
        m = j + 1
        # lucky breakdown: the Krylov space is invariant, the result exact
        exact = beta < 1e-14
        if exact or m == m_max or (m >= 6 and (m <= 16 or m % 4 == 0)):
            ew, evec = np.linalg.eigh(T[:m, :m])
            small = evec @ (np.exp(-1j * tau * ew) * evec[0])
            # Saad's estimate: residual norm times the last small coefficient
            ok = exact or beta * abs(small[j]) < tol
            if ok or m == m_max:
                return nrm * (small @ V[:m]), ok
        T[m, j] = beta
        np.multiply(w, 1.0 / beta, out=V[m])


def expm_krylov(matvec, v, tau, tol=1e-10):
    """exp(-i tau A) v for Hermitian A, with adaptive time splitting: tau is
    halved until each lean Lanczos step meets its share of ``tol``."""
    n_sub = 1
    for _ in range(KRYLOV_SPLITS):
        dt = tau / n_sub
        out = v
        ok = True
        for _ in range(n_sub):
            out, ok = _expm_krylov_step(matvec, out, dt, tol / n_sub)
            if not ok:
                break
        if ok:
            return out
        n_sub *= 2
    raise RuntimeError("Krylov propagation failed to converge")


def evolve_walk(state: StateVector, gen: WalkGenerator, tau: float,
                method: str = "auto") -> StateVector:
    """Apply exp(-i tau G) to the state; ``auto`` follows ``factored``."""
    if state.basis is not gen.basis and len(state.basis) != gen.dim:
        raise BasisMismatchError("state and generator dimensions differ")
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    if method == "auto":
        method = "dense" if factored(gen) else "krylov"
    if method == "dense":
        amps = _expm_dense(gen, state.amplitudes, tau)
    elif method == "krylov":
        amps = expm_krylov(gen.matvec, state.amplitudes, tau)
    else:
        raise ValueError("unknown method %r" % method)
    return StateVector(state.basis, amps)


def apply_phasor(state: StateVector, phasor: PhasorDiagonal, gamma: float) -> StateVector:
    if len(phasor.coefficients) != len(state.amplitudes):
        raise BasisMismatchError("phasor and state dimensions differ")
    amps = state.amplitudes * np.exp(-1j * gamma * phasor.coefficients)
    return StateVector(state.basis, amps)


@dataclass
class AnsatzSchedule:
    """Fiducial walk time plus alternating (gamma, tau) layers."""

    tau0: float
    layers: list = field(default_factory=list)  # [(gamma, tau), ...]
    phasor_kind: str = "local"  # "local" (site mask) or "hamming"
    target_mask: int = 0

    @property
    def depth(self) -> int:
        return len(self.layers)

    def total_walk_time(self) -> float:
        return self.tau0 + sum(t for _, t in self.layers)

    def validate(self):
        if self.tau0 < 0 or any(t < 0 for _, t in self.layers):
            raise ValueError("walk times must be non-negative")
        if self.phasor_kind not in ("local", "hamming"):
            raise ValueError("unknown phasor kind %r" % self.phasor_kind)


def phasor_for(schedule: AnsatzSchedule, basis: SubspaceBasis) -> PhasorDiagonal:
    if schedule.phasor_kind == "local":
        return local_phasor(basis, schedule.target_mask)
    return hamming_phasor(basis)


def run_ansatz(schedule: AnsatzSchedule, gen: WalkGenerator,
               phasor: PhasorDiagonal = None, method: str = "auto") -> StateVector:
    """|psi> = [prod_q U_W(tau_q) U_C(gamma_q)] U_W(tau0) |0...0>."""
    schedule.validate()
    if phasor is None:
        phasor = phasor_for(schedule, gen.basis)
    psi = zero_state(gen.basis)
    psi = evolve_walk(psi, gen, schedule.tau0, method)
    for gamma, tau in schedule.layers:
        psi = apply_phasor(psi, phasor, gamma)
        psi = evolve_walk(psi, gen, tau, method)
    return psi


def success_probability(state: StateVector, target_indices) -> float:
    """Total population on a set of basis indices."""
    idx = list(target_indices)
    if not idx:
        raise ValueError("empty target set")
    return float(np.sum(np.abs(state.amplitudes[idx]) ** 2))


def overlap_probability(state: StateVector, target: np.ndarray) -> float:
    """|<target|state>|^2 for a coherent target state."""
    return float(np.abs(np.vdot(target, state.amplitudes)) ** 2)
