"""Hot numeric kernels in numpy and scipy: the sparse and dense matvecs of
walk propagation, the Rydberg Hamiltonian action of pulse emulation, and
independent-set enumeration."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def backend() -> str:
    """Name of the kernel backend."""
    return "numpy"


# ---------------------------------------------------------------------------
# Matrix-vector products of the real symmetric walk generator with complex
# states: the sparse one is the inner loop of Krylov propagation, the dense
# one applies eigenvectors in the dense propagator and the product ansatz.

def csr_matvec(indptr, indices, data, x, out=None):
    """y = A @ x for a CSR matrix given by (indptr, indices, data)."""
    a = sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, len(x)))
    y = a @ x
    if out is None:
        return y
    out[:] = y
    return out


def real_matvec(a, x):
    """a @ x for a real matrix and a complex vector, in real arithmetic.

    The complex vector is viewed as a (n, 2) real array, so the product is one
    real matrix-matrix call and ``a`` is never upcast to complex.
    """
    xr = np.ascontiguousarray(x, dtype=complex).view(float).reshape(-1, 2)
    return (a @ xr).view(complex).ravel()


# ---------------------------------------------------------------------------
# Dense 2^n Rydberg Hamiltonian action.  Basis index b has bit i equal to 1
# when atom i is in the Rydberg state; diag[b] collects interaction and
# detuning terms; the Rabi drive couples b <-> b ^ (1 << i) with amplitude
# (omega/2) e^{+i phi} on the |g><r| side.
#
# At phi = 0 the drive sum_i X_i is the adjacency A of the n-bit hypercube,
# which factors over the high hi = n // 2 and low lo = n - hi bits as
# A = A_hi (x) I + I (x) A_lo.  On the state reshaped to (2^hi, 2^lo) that is
# A_hi @ psi + psi @ A_lo: two small real matrix products on the real view of
# the state.  A drive phase is the gauge U = e^{-i phi N} (N the excitation
# count): H(phi) = U H(0) U^dagger, and U factors over the same split.

MAX_DRIVE_ATOMS = 14


def _hypercube(k: int) -> np.ndarray:
    """Adjacency of the k-bit hypercube: b couples to b ^ (1 << i)."""
    idx = np.arange(1 << k)
    a = np.zeros((1 << k, 1 << k))
    for i in range(k):
        a[idx, idx ^ (1 << i)] = 1.0
    return a


# drive factors and excitation counts of every half width up to
# MAX_DRIVE_ATOMS atoms, shared by all calls
_HALF_WIDTHS = range((MAX_DRIVE_ATOMS + 1) // 2 + 1)
_HYPERCUBES = tuple(_hypercube(k) for k in _HALF_WIDTHS)
_WEIGHTS = tuple(np.array([bin(b).count("1") for b in range(1 << k)], float)
                 for k in _HALF_WIDTHS)


def rydberg_apply(psi, diag, omega, phi, n_atoms, out=None):
    """y = H psi for the full-space Rydberg Hamiltonian at one instant."""
    if n_atoms > MAX_DRIVE_ATOMS:
        raise ValueError(f"rydberg_apply supports up to {MAX_DRIVE_ATOMS} atoms")
    if out is None:
        out = np.empty_like(psi)
    np.multiply(diag, psi, out=out)
    if omega == 0.0:
        return out
    hi = n_atoms // 2
    lo = n_atoms - hi
    shape = (1 << hi, 1 << lo)
    v = np.ascontiguousarray(psi, dtype=complex).reshape(shape)
    if phi != 0.0:
        gauge = (np.exp(1j * phi * _WEIGHTS[hi])[:, None]
                 * np.exp(1j * phi * _WEIGHTS[lo])[None, :])
        v = v * gauge
    x = v.view(float).reshape(shape + (2,))
    y = (_HYPERCUBES[hi] @ x.reshape(shape[0], -1)).reshape(x.shape)
    y += np.matmul(_HYPERCUBES[lo], x)
    drive = y.view(complex).reshape(shape)
    if phi != 0.0:
        drive *= gauge.conj()
    drive *= 0.5 * float(omega)
    out += drive.ravel()
    return out


# ---------------------------------------------------------------------------
# Independent-set enumeration by depth-first extension over vertices with
# neighbour masks; avoids filtering all 2^N strings.

def enumerate_independent_sets(neighbor_masks, n):
    """All independent-set bitmasks of a graph, ascending integer order."""
    masks = np.asarray(neighbor_masks, dtype=np.uint64)
    results = []
    stack = [(0, 0)]  # (occupied mask, next vertex to try)
    while stack:
        occ, start = stack.pop()
        results.append(occ)
        for v in range(start, n):
            if masks[v] & occ:
                continue
            stack.append((occ | (1 << v), v + 1))
    results.sort()
    return np.asarray(results, dtype=np.uint64)
