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

def rydberg_apply(psi, diag, omega, phi, n_atoms, out=None):
    """y = H psi for the full-space Rydberg Hamiltonian at one instant."""
    if out is None:
        out = np.empty_like(psi)
    out[:] = diag * psi
    if omega == 0.0:
        return out
    c = 0.5 * float(omega) * np.exp(1j * float(phi))
    psi_r = psi.reshape((2,) * n_atoms)
    out_r = out.reshape((2,) * n_atoms)
    for i in range(n_atoms):
        ax = n_atoms - 1 - i
        lo = [slice(None)] * n_atoms
        hi = [slice(None)] * n_atoms
        lo[ax] = 0
        hi[ax] = 1
        lo_t, hi_t = tuple(lo), tuple(hi)
        out_r[lo_t] += c * psi_r[hi_t]
        out_r[hi_t] += np.conj(c) * psi_r[lo_t]
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
