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
# Products of real matrices with complex states: the sparse generator matvec
# is the inner loop of Krylov propagation; the real and block matvecs apply
# the factored eigenvectors in the dense propagator and the product ansatz.

def csr_matvec(indptr, indices, data, x):
    """y = A @ x for a CSR matrix given by (indptr, indices, data)."""
    a = sp.csr_matrix((data, indices, indptr), shape=(len(indptr) - 1, len(x)))
    return a @ x


def real_matvec(a, x):
    """a @ x for a real matrix and a complex vector, in real arithmetic.

    The complex vector is viewed as a (n, 2) real array, so the product is one
    real matrix-matrix call and ``a`` is never upcast to complex.
    """
    xr = np.ascontiguousarray(x, dtype=complex).view(float).reshape(-1, 2)
    return (a @ xr).view(complex).ravel()


def block_matvec(a, x):
    """Stacked a[k] @ x[k] for real (n, b, b) ``a`` and a complex vector x of
    n*b entries, in real arithmetic: one batched matrix product on the
    (n, b, 2) real view."""
    xr = np.ascontiguousarray(x, dtype=complex).view(float).reshape(len(a), -1, 2)
    return np.matmul(a, xr).view(complex).ravel()


# ---------------------------------------------------------------------------
# Dense 2^n Rydberg Hamiltonian action.  Basis index b has bit i equal to 1
# when atom i is in the Rydberg state; diag[b] collects interaction and
# detuning terms; the Rabi drive couples b <-> b ^ (1 << i) with amplitude
# omega/2.
#
# The drive phase is always zero here: a phase phi is the gauge
# U = e^{-i phi N} (N the excitation count), H(phi) = U H(0) U^dagger, and
# rydberg.emulate carries its state in the frame where phi = 0, so a phase
# jump is a diagonal multiply there.  The drive sum_i X_i is then the
# adjacency A of the n-bit hypercube, which factors over the high
# hi = n // 2 and low lo = n - hi bits as A = A_hi (x) I + I (x) A_lo.  On
# the state reshaped to (2^hi, 2^lo) that is A_hi @ psi + psi @ A_lo: two
# small real matrix products on the real view of the state.

MAX_DRIVE_ATOMS = 14


def _hypercube(k: int) -> np.ndarray:
    """Adjacency of the k-bit hypercube: b couples to b ^ (1 << i)."""
    idx = np.arange(1 << k)
    a = np.zeros((1 << k, 1 << k))
    for i in range(k):
        a[idx, idx ^ (1 << i)] = 1.0
    return a


# drive factors of every half width up to MAX_DRIVE_ATOMS atoms, shared by
# all calls
_HYPERCUBES = tuple(_hypercube(k)
                    for k in range((MAX_DRIVE_ATOMS + 1) // 2 + 1))


def rydberg_apply(psi, diag, omega, phi, n_atoms):
    """y = H psi for the full-space Rydberg Hamiltonian at one instant.

    Only the drive phase phi = 0 is supported; any other value raises
    ValueError.  ``phi`` stays the fourth argument so the call keeps the
    Hamiltonian's full parameter list (perfbench's cost model reads it).
    """
    if n_atoms > MAX_DRIVE_ATOMS:
        raise ValueError(f"rydberg_apply supports up to {MAX_DRIVE_ATOMS} atoms")
    if phi != 0.0:
        raise ValueError("rydberg_apply takes the phi = 0 frame only")
    out = diag * psi
    if omega == 0.0:
        return out
    hi = n_atoms // 2
    lo = n_atoms - hi
    shape = (1 << hi, 1 << lo)
    x = np.ascontiguousarray(psi, dtype=complex).view(float)
    x = x.reshape(shape + (2,))
    y = (_HYPERCUBES[hi] @ x.reshape(shape[0], -1)).reshape(x.shape)
    y += np.matmul(_HYPERCUBES[lo], x)
    y *= 0.5 * float(omega)
    out += y.view(complex).ravel()
    return out


# ---------------------------------------------------------------------------
# Independent-set enumeration, vertex by vertex: the sets on vertices 0..v are
# those on 0..v-1, then, v added, those of them free of v's neighbours.  The
# added sets exceed the earlier ones in order, so the array stays ascending.

def enumerate_independent_sets(neighbor_masks, n):
    """All independent-set bitmasks of a graph, ascending integer order."""
    masks = np.asarray(neighbor_masks, dtype=np.uint64)
    sets = np.zeros(1, dtype=np.uint64)
    for v in range(n):
        free = sets[(sets & masks[v]) == 0]
        sets = np.concatenate([sets, free | np.uint64(1 << v)])
    return sets
