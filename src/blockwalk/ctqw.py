"""State vectors and unitary evolution over an independent-set basis.

The walk generator G is a real symmetric 0/1 matrix and is stored as float64.
The walk propagator exp(-i tau G) v is computed either from G's cached real
eigendecomposition (small bases, and always available as a cross-check),
whose real eigenvectors act on the complex state in real arithmetic, or by
adaptive Lanczos/Krylov iteration with sparse matrix-vector products.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from . import kernels
from .subspace import SubspaceBasis, popcount, walk_edges

DENSE_CUTOFF = 2048
NORM_TOL = 1e-10


class BasisMismatchError(ValueError):
    """Operands live on different subspace bases."""


@dataclass
class StateVector:
    basis: SubspaceBasis
    amplitudes: np.ndarray

    def copy(self) -> "StateVector":
        return StateVector(self.basis, self.amplitudes.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


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

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def matvec(self, x: np.ndarray, out=None) -> np.ndarray:
        m = self.matrix
        return kernels.csr_matvec(m.indptr, m.indices, m.data, x, out)

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def eig(self):
        """Cached real eigendecomposition (eigenvalues, eigenvectors as columns)."""
        if self._eig is None:
            w, v = np.linalg.eigh(self.dense())
            self._eig = (w, v)
        return self._eig


def build_generator(basis: SubspaceBasis) -> WalkGenerator:
    """Unit-weight real generator over all Hamming-distance-1 pairs in the basis."""
    edges = walk_edges(basis)
    n = len(basis)
    if edges:
        rows = np.fromiter((e[0] for e in edges), dtype=np.int64)
        cols = np.fromiter((e[1] for e in edges), dtype=np.int64)
    else:
        rows = np.zeros(0, dtype=np.int64)
        cols = np.zeros(0, dtype=np.int64)
    vals = np.ones(len(edges))
    m = sp.coo_matrix(
        (np.concatenate([vals, vals]), (np.concatenate([rows, cols]),
                                        np.concatenate([cols, rows]))),
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
    c = np.array([popcount(int(s) & target_mask) for s in basis.states], dtype=float)
    return PhasorDiagonal(basis, c)


def hamming_phasor(basis: SubspaceBasis) -> PhasorDiagonal:
    """Global phasor counting all excitations (Hamming weight)."""
    c = basis.hamming_weights().astype(float)
    return PhasorDiagonal(basis, c)


def _expm_dense(gen: WalkGenerator, v: np.ndarray, tau: float) -> np.ndarray:
    w, vecs = gen.eig()
    c = np.exp(-1j * tau * w) * kernels.real_matvec(vecs.T, v)
    return kernels.real_matvec(vecs, c)


def _expm_krylov_step(matvec, v, tau, tol, m_max):
    """One Lanczos approximation of exp(-i tau A) v; returns (result, ok)."""
    nrm = np.linalg.norm(v)
    if nrm == 0.0 or tau == 0.0:
        return v.copy(), True
    dim = v.shape[0]
    m_max = min(m_max, dim)
    V = np.empty((m_max, dim), dtype=complex)
    alpha = np.empty(m_max)
    beta = np.empty(m_max)
    V[0] = v / nrm
    w = matvec(V[0])
    alpha[0] = np.vdot(V[0], w).real
    w = w - alpha[0] * V[0]
    m_used = 1
    for j in range(1, m_max):
        beta[j - 1] = np.linalg.norm(w)
        if beta[j - 1] < 1e-14:  # lucky breakdown: Krylov space is invariant
            m_used = j
            break
        V[j] = w / beta[j - 1]
        w = matvec(V[j])
        w = w - beta[j - 1] * V[j - 1]
        alpha[j] = np.vdot(V[j], w).real
        w = w - alpha[j] * V[j]
        # full reorthogonalization keeps the basis clean at tight tolerances
        # (V w*)* equals V* w without copying the conjugated basis
        proj = (V[: j + 1] @ w.conj()).conj()
        w = w - V[: j + 1].T @ proj
        m_used = j + 1
        if (j + 1) % 4 == 0 or j + 1 == m_max:
            ew, evec = eigh_tridiagonal(alpha[: j + 1], beta[:j])
            small = evec @ (np.exp(-1j * tau * ew) * evec[0])
            # Saad's a posteriori estimate: residual norm times the last
            # coefficient of the small propagator
            err = np.linalg.norm(w) * abs(small[j])
            if err < tol:
                return nrm * (V[: j + 1].T @ small), True
    ew, evec = eigh_tridiagonal(alpha[:m_used], beta[: m_used - 1])
    small = evec @ (np.exp(-1j * tau * ew) * evec[0])
    if m_used < m_max:  # breakdown: result is exact in the invariant subspace
        return nrm * (V[:m_used].T @ small), True
    err = np.linalg.norm(w) * abs(small[m_used - 1])
    return nrm * (V[:m_used].T @ small), err < tol


def expm_krylov(matvec, v, tau, tol=1e-10, m_max=60, max_splits=30):
    """exp(-i tau A) v for Hermitian A, with adaptive time splitting."""
    n_sub = 1
    for _ in range(max_splits):
        dt = tau / n_sub
        out = v
        ok = True
        for _ in range(n_sub):
            out, ok = _expm_krylov_step(matvec, out, dt, tol / n_sub, m_max)
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
