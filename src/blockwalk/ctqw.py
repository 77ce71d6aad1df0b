"""State vectors and unitary evolution over an independent-set basis.

The walk generator G is a real symmetric 0/1 matrix and is stored as float64.
The walk propagator exp(-i tau G) v is computed either from G's cached real
eigendecomposition (small bases, and always available as a cross-check) or
by adaptive Lanczos/Krylov iteration with sparse matrix-vector products.

The eigendecomposition is blocked by ring momentum.  When the basis is closed
under rotating the ring, G commutes with the rotation, so real cosine and
sine combinations of each rotation orbit at momentum +-k (Sandvik, AIP Conf.
Proc. 1297, 135, 2010) split G into about N/2 real blocks of about 2|V|/N
states.  The eigenvectors are kept factored as V = F blockdiag(U_k): a sparse
real matrix of momentum columns and a zero-padded stack of block
eigenvectors, so V c and V^T x cost one sparse product and one batched block
product in real arithmetic and V is never formed.  Any other basis is one
block with F = I.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import kernels
from .subspace import SubspaceBasis, popcount_array, rotation_images, walk_edges

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
    """G = V diag(w) V^T with V = F blockdiag(U[0], U[1], ...).

    Eigen-coefficient vectors have one slot per (block, row): block k owns
    slots k*b ... k*b + sizes[k] - 1 of ``n_blocks * b``, where b is the
    largest block.  ``F`` (|V| x slots) holds orthonormal real momentum
    columns; ``U[k]`` holds block k's eigenvectors, zero-padded to b x b.
    Padding slots have empty columns in F and w = 0, so V diag(w) V^T = G
    and they stay zero under ``to_eigen`` and ``to_states``.
    """

    w: np.ndarray          # (n_blocks * b,) eigenvalues, float64
    F: sp.csr_matrix       # (|V|, n_blocks * b) momentum columns
    U: np.ndarray          # (n_blocks, b, b) block eigenvectors
    sizes: np.ndarray      # (n_blocks,) block sizes
    ft: sp.csr_matrix      # F^T, row-compressed for V^T x

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
        couples only columns of one rotation orbit and so stays as sparse as
        F; each application is then one sparse and two block products on
        the real view of c, which must be a contiguous complex vector.
        """
        ft = self.ft
        p = sp.csr_matrix((ft.data * d[ft.indices], ft.indices, ft.indptr),
                          shape=ft.shape) @ self.F
        u, ut = self.U, self.U.transpose(0, 2, 1)
        shape = u.shape[:2] + (2,)

        def apply(c: np.ndarray) -> np.ndarray:
            y = p @ np.matmul(u, c.view(float).reshape(shape)).reshape(-1, 2)
            return np.matmul(ut, y.reshape(shape)).view(complex).ravel()
        return apply


def _rotation_sectors(basis: SubspaceBasis):
    """Per-state rotation orbit, orbit position and period, per-momentum
    orbit admission, and the block sizes of G's momentum blocks.

    Rotating left by j maps state s to T^j s.  Each orbit is labelled by
    its minimum r; s = T^m r with period L.  Momentum k (0 <= k <= N/2)
    admits an orbit when k L = 0 mod N; k = 0 and k = N/2 give one cosine
    column per admitted orbit, every other k a cosine and a sine column.  A
    basis that is not closed under rotation is treated as N = 1: every state
    its own orbit, one block.
    """
    s = basis.states
    rots = rotation_images(basis)
    n = len(rots)
    if not np.array_equal(np.sort(rots[-1]), s):
        n, rots = 1, s[None, :]
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
    return n, orbit, position, period, admits, pair, sizes


def largest_block(gen: WalkGenerator) -> int:
    """Size of the largest momentum block of the walk generator."""
    return int(gen.sectors()[-1].max())


def _momentum_eigenbasis(gen: WalkGenerator) -> Eigenbasis:
    """Momentum columns F in one vectorised pass, then eigh of each
    diagonal block of F^T G F."""
    n, orbit, position, period, admits, pair, sizes = gen.sectors()
    b = int(sizes.max())
    count = admits.sum(axis=1)
    rank = np.cumsum(admits, axis=1) - 1
    ks, rows = np.nonzero(admits[:, orbit])
    cols = ks * b + rank[ks, orbit[rows]]
    phase = 2.0 * np.pi * ks * position[rows] / n
    amp = np.sqrt((1 + pair[ks]) / period[rows])
    has_sin = pair[ks]
    f = sp.csr_matrix(
        (np.concatenate([amp * np.cos(phase), (amp * np.sin(phase))[has_sin]]),
         (np.concatenate([rows, rows[has_sin]]),
          np.concatenate([cols, (cols + count[ks])[has_sin]]))),
        shape=(gen.dim, len(sizes) * b))
    ft = f.T.tocsr()
    # F^T G F is block diagonal; its entries between blocks are rounding
    # noise.  Each block is unpacked into its slot of u and decomposed there.
    h = ft @ gen.matrix @ f
    row = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
    blk = row // b
    same = blk == h.indices // b
    u = np.zeros((len(sizes), b, b))
    u[blk[same], row[same] % b, h.indices[same] % b] = h.data[same]
    w = np.zeros(len(sizes) * b)
    for k, size in enumerate(sizes):
        w[k * b:k * b + size], u[k, :size, :size] = \
            np.linalg.eigh(u[k, :size, :size])
    return Eigenbasis(w, f, u, sizes, ft)


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
    """Apply exp(-i tau G) to the state."""
    if state.basis is not gen.basis and len(state.basis) != gen.dim:
        raise BasisMismatchError("state and generator dimensions differ")
    if not np.isfinite(tau):
        raise ValueError("tau must be finite")
    if method == "auto":
        method = "dense" if gen.dim <= DENSE_CUTOFF else "krylov"
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
