"""Public numpy kernels against scipy, dense and brute-force oracles."""

import numpy as np
import pytest
import scipy.sparse as sp

from blockwalk import kernels, subspace as ss


def _random_csr(rng, n=200, density=0.05):
    m = sp.random(n, n, density=density, random_state=rng.integers(1 << 30),
                  format="csr", dtype=float)
    return m


def test_backend_name():
    assert kernels.backend() == "numpy"


def test_csr_matvec_matches_scipy():
    rng = np.random.default_rng(7)
    for _ in range(5):
        m = _random_csr(rng)
        x = rng.normal(size=m.shape[1]) + 1j * rng.normal(size=m.shape[1])
        data = m.data.astype(complex)
        out = kernels.csr_matvec(m.indptr, m.indices, data, x)
        ref = m @ x
        assert np.allclose(out, ref, atol=1e-12)


def test_csr_matvec_real_data_matches_dense_reference():
    # real generator data with complex states, including empty rows
    rng = np.random.default_rng(8)
    for n in (1, 7, 60):
        m = _random_csr(rng, n=n, density=0.1).tolil()
        m[0, :] = 0.0
        m[n // 2, :] = 0.0
        m = m.tocsr()
        assert np.any(np.diff(m.indptr) == 0)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = m.toarray() @ x
        got = kernels.csr_matvec(m.indptr, m.indices, m.data, x)
        assert got.dtype == complex
        assert np.allclose(got, ref, atol=1e-12)
        out = np.full(n, np.nan + 0j)
        got = kernels.csr_matvec(m.indptr, m.indices, m.data, x, out)
        assert got is out
        assert np.allclose(out, ref, atol=1e-12)


def _rydberg_apply_reference(psi, diag, omega, phi, n_atoms):
    """Dense reference: H = diag + sum_i (omega/2)(e^{i phi}|g><r|_i + h.c.)."""
    dim = 1 << n_atoms
    h = np.diag(diag.astype(complex))
    for b in range(dim):
        for i in range(n_atoms):
            if not (b >> i) & 1:
                # |g>_i component: couple to the |r>_i partner
                h[b, b | (1 << i)] += 0.5 * omega * np.exp(1j * phi)
                h[b | (1 << i), b] += 0.5 * omega * np.exp(-1j * phi)
    return h @ psi


def test_rydberg_apply_matches_dense_reference():
    # odd and even atom counts split the drive unevenly and evenly over the
    # high and low bits; phi = 0 takes the gauge-free path
    rng = np.random.default_rng(9)
    for n_atoms in range(1, 8):
        dim = 1 << n_atoms
        for phi in (0.0, rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)):
            psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            diag = rng.normal(size=dim)
            omega = rng.uniform(0, 15.8)
            ref = _rydberg_apply_reference(psi, diag, omega, phi, n_atoms)
            out = kernels.rydberg_apply(psi, diag, omega, phi, n_atoms)
            assert np.allclose(out, ref, atol=1e-12)
            buf = np.full(dim, np.nan + 0j)
            got = kernels.rydberg_apply(psi, diag, omega, phi, n_atoms, out=buf)
            assert got is buf
            assert np.allclose(buf, ref, atol=1e-12)
        # the drive off leaves the diagonal alone
        got = kernels.rydberg_apply(psi, diag, 0.0, phi, n_atoms)
        assert np.allclose(got, diag * psi, atol=0.0)
    # the drive factors are tabulated up to MAX_DRIVE_ATOMS
    n_big = kernels.MAX_DRIVE_ATOMS + 1
    with pytest.raises(ValueError):
        kernels.rydberg_apply(np.zeros(1 << n_big, complex),
                              np.zeros(1 << n_big), 1.0, 0.0, n_big)


def _independent_sets_bruteforce(neighbor_masks, n):
    return [m for m in range(1 << n)
            if all(not (m >> v) & 1 or not int(neighbor_masks[v]) & m
                   for v in range(n))]


def test_enumeration_kernels_agree():
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        graphs = [ss.make_graph(n, [])]
        if n >= 3:
            graphs.append(ss.ring_graph(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        keep = rng.random(len(pairs)) < 0.3
        graphs.append(ss.make_graph(n, [e for e, k in zip(pairs, keep) if k]))
        for g in graphs:
            got = kernels.enumerate_independent_sets(g.neighbor_masks, n)
            ref = _independent_sets_bruteforce(g.neighbor_masks, n)
            assert got.dtype == np.uint64
            assert got.tolist() == ref
    # ring subspace sizes are the Lucas numbers L_17, L_18
    for n, lucas in ((17, 3571), (18, 5778)):
        g = ss.ring_graph(n)
        assert len(kernels.enumerate_independent_sets(g.neighbor_masks, n)) == lucas
