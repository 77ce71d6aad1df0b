"""Walk propagation, phasors, and schedule mechanics."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from blockwalk import ctqw, subspace as ss


def _setup(n):
    basis = ss.enumerate_subspace(ss.ring_graph(n))
    return basis, ctqw.build_generator(basis)


def _dense_eigenpairs(eb):
    """Eigenvalues and dense eigenvector columns V = F blockdiag(U_k) of a
    factored eigenbasis, padding slots dropped."""
    valid = (np.arange(eb.U.shape[1]) < eb.sizes[:, None]).ravel()
    v = eb.F @ scipy.linalg.block_diag(*eb.U)
    return eb.w[valid], v[:, valid]


GRAPHS = {f"ring{n}": ss.ring_graph(n) for n in range(3, 13)}
GRAPHS["path"] = ss.make_graph(8, [(i, i + 1) for i in range(7)])
_RNG = np.random.default_rng(3)
GRAPHS["random"] = ss.make_graph(
    9, [(i, j) for i in range(9) for j in range(i + 1, 9) if _RNG.random() < 0.3])


@pytest.mark.parametrize("graph", GRAPHS.values(), ids=GRAPHS.keys())
def test_generator_symmetric_hamming_one(graph):
    basis = ss.enumerate_subspace(graph)
    gen = ctqw.build_generator(basis)
    assert gen.matrix.dtype == np.float64
    m = gen.dense()
    assert np.allclose(m, m.T)
    w, v = _dense_eigenpairs(gen.eig())
    assert w.dtype == np.float64 and v.dtype == np.float64
    assert np.allclose((v * w) @ v.T, m, atol=1e-12)
    for i in range(len(basis)):
        for j in range(len(basis)):
            d = ss.popcount(int(basis.states[i]) ^ int(basis.states[j]))
            assert m[i, j] == (1.0 if d == 1 else 0.0)


@pytest.mark.parametrize("n", range(3, 17))
def test_momentum_eigenbasis_factors_generator(n):
    # odd and even rings; orbits shorter than the ring: 0101...01 (period 2)
    # for even n, 001001...001 (period 3) for n divisible by 3
    basis, gen = _setup(n)
    eb = gen.eig()
    assert eb.w.dtype == eb.U.dtype == eb.F.dtype == np.float64
    assert len(eb.sizes) == n // 2 + 1 and eb.sizes.sum() == len(basis)
    valid = (np.arange(eb.U.shape[1]) < eb.sizes[:, None]).ravel()
    # V diag(w) V^T = F blockdiag(U_k diag(w_k) U_k^T) F^T
    u, w = eb.U, eb.w.reshape(eb.U.shape[:2])
    inner = scipy.linalg.block_diag(*((u * w[:, None, :]) @ u.transpose(0, 2, 1)))
    g = gen.dense()
    assert np.abs(eb.F @ (eb.F @ inner).T - g).max() < 1e-12
    # V^T V = I (orthonormal momentum columns, orthogonal blocks), so the
    # w on valid slots are G's eigenvalues
    ftf = (eb.F.T @ eb.F).toarray()
    assert np.abs(ftf - np.diag(valid.astype(float))).max() < 1e-12
    eye = np.eye(u.shape[1]) * (np.arange(u.shape[1]) < eb.sizes[:, None, None])
    assert np.abs(u.transpose(0, 2, 1) @ u - eye).max() < 1e-12
    # padding slots have empty momentum columns and zero eigenvector rows
    assert eb.F[:, ~valid].nnz == 0
    assert not u.reshape(-1, u.shape[2])[~valid].any()


def test_non_ring_basis_is_one_identity_block():
    # a path is not closed under rotation: F = I and one full eigh block
    basis = ss.enumerate_subspace(ss.make_graph(8, [(i, i + 1) for i in range(7)]))
    gen = ctqw.build_generator(basis)
    eb = gen.eig()
    assert eb.sizes.tolist() == [len(basis)] == [ctqw.largest_block(gen)]
    assert (eb.F != scipy.sparse.identity(len(basis))).nnz == 0
    w, v = _dense_eigenpairs(eb)
    assert np.abs((v * w) @ v.T - gen.dense()).max() < 1e-12
    rng = np.random.default_rng(8)
    psi = ctqw.StateVector(basis, rng.normal(size=len(basis)) + 0j)
    a = ctqw.evolve_walk(psi, gen, 1.3, method="dense").amplitudes
    b = ctqw.evolve_walk(psi, gen, 1.3, method="krylov").amplitudes
    assert np.linalg.norm(a - b) < 1e-10


def test_evolution_unitary():
    basis, gen = _setup(8)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    psi /= np.linalg.norm(psi)
    state = ctqw.StateVector(basis, psi)
    out = ctqw.evolve_walk(state, gen, 1.7)
    assert np.isclose(np.linalg.norm(out.amplitudes), 1.0, atol=1e-12)


def test_krylov_matches_dense():
    basis, gen = _setup(9)
    rng = np.random.default_rng(1)
    for _ in range(10):
        psi = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        psi /= np.linalg.norm(psi)
        tau = rng.uniform(0.05, 5.0)
        a = ctqw.evolve_walk(ctqw.StateVector(basis, psi), gen, tau,
                             method="krylov").amplitudes
        b = ctqw.evolve_walk(ctqw.StateVector(basis, psi), gen, tau,
                             method="dense").amplitudes
        assert np.linalg.norm(a - b) < 1e-10


def test_dense_evolution_matches_expm():
    # the real eigenvectors act on a complex state through a real view
    for n in (5, 8):
        basis, gen = _setup(n)
        g = gen.dense()
        rng = np.random.default_rng(n)
        for tau in (0.0, 0.4, 2.3):
            psi = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            got = ctqw.evolve_walk(ctqw.StateVector(basis, psi), gen, tau,
                                   method="dense").amplitudes
            ref = scipy.linalg.expm(-1j * tau * g) @ psi
            assert np.linalg.norm(got - ref) < 1e-12


def test_expm_krylov_matches_expm_small_dims():
    # dims at or below the Krylov size exercise a space that fills the whole
    # vector space without breakdown, where the error estimate must vanish
    for dim in (1, 2, 3, 8):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (a + a.conj().T)
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        for tau in (0.3, 1.7):
            got = ctqw.expm_krylov(lambda x: h @ x, v, tau)
            ref = scipy.linalg.expm(-1j * tau * h) @ v
            assert np.linalg.norm(got - ref) < 1e-10


@pytest.mark.parametrize("n", [12, 16])
def test_lean_lanczos_matches_eigendecomposition_on_ring_walks(n):
    # against the dense path, G's momentum-blocked eigendecomposition.  The
    # Lanczos basis is not reorthogonalised: from |0...0> the ring-12 Krylov
    # space exhausts its 26-state dihedral sector, and at tau = 10 ring 16
    # splits its steps, both where orthogonality is long lost
    basis, gen = _setup(n)
    rng = np.random.default_rng(n)
    rand = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    calls = []

    def matvec(x):
        calls.append(1)
        return gen.matvec(x)

    for psi in (ctqw.zero_state(basis).amplitudes, rand / np.linalg.norm(rand)):
        for tau in (0.3, 1.0, 3.0, 10.0):
            ref = ctqw.evolve_walk(ctqw.StateVector(basis, psi), gen, tau,
                                   method="dense").amplitudes
            for tol, bound in ((1e-10, 1e-10), (1e-13, 1e-12)):
                calls.clear()
                got = ctqw.expm_krylov(matvec, psi, tau, tol=tol)
                assert np.linalg.norm(got - ref) < bound
    # the last propagation (random start, tau = 10, tol 1e-13) took split steps
    assert len(calls) > 2 * ctqw.KRYLOV_DIM


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.01, max_value=2.0),
       st.floats(min_value=0.01, max_value=2.0))
def test_evolution_composes(t1, t2):
    basis, gen = _setup(6)
    psi = ctqw.basis_state(basis, ss.str_to_bits("000101"))
    once = ctqw.evolve_walk(psi, gen, t1 + t2).amplitudes
    twice = ctqw.evolve_walk(ctqw.evolve_walk(psi, gen, t1), gen,
                             t2).amplitudes
    assert np.linalg.norm(once - twice) < 1e-10


def test_local_phasor_diagonal_values():
    basis, _ = _setup(6)
    z = ss.str_to_bits("000101")
    mask = (~z) & ((1 << 6) - 1)
    ph = ctqw.local_phasor(basis, mask)
    # coefficient counts excitations on the masked (complement) sites;
    # the target itself has coefficient zero, so it gains no phase
    for i, s in enumerate(basis.states):
        assert ph.coefficients[i] == ss.popcount(int(s) & mask)
    assert ph.coefficients[basis.index_of(z)] == 0


def test_hamming_phasor_weight_phase():
    basis, _ = _setup(6)
    ph = ctqw.hamming_phasor(basis)
    gamma = 0.37
    sched = ctqw.AnsatzSchedule(tau0=0.0, layers=((gamma, 0.0),),
                                phasor_kind="hamming")
    gen = ctqw.build_generator(basis)
    for s in (0, ss.str_to_bits("000101"), ss.str_to_bits("010101")):
        out = ctqw.run_ansatz(sched, gen,
                              phasor=ctqw.phasor_for(sched, basis))
        amp = out.amplitudes[basis.index_of(s)]
        if s == 0:
            assert np.isclose(amp, 1.0)  # start state, weight 0


def test_schedule_validation():
    with pytest.raises(ValueError):
        ctqw.AnsatzSchedule(tau0=-0.1).validate()
    with pytest.raises(ValueError):
        ctqw.AnsatzSchedule(tau0=0.1, phasor_kind="bogus").validate()


def test_run_ansatz_zero_schedule_is_identity():
    basis, gen = _setup(7)
    sched = ctqw.AnsatzSchedule(tau0=0.0)
    out = ctqw.run_ansatz(sched, gen)
    assert np.isclose(abs(out.amplitudes[basis.index_of(0)]), 1.0)


def test_success_probability_sums_targets():
    basis, gen = _setup(7)
    sched = ctqw.AnsatzSchedule(tau0=0.9)
    out = ctqw.run_ansatz(sched, gen)
    idx = [0, 1, 2]
    p = ctqw.success_probability(out, idx)
    assert np.isclose(p, sum(abs(out.amplitudes[i]) ** 2 for i in idx))
    assert ctqw.success_probability(out, range(len(basis))) == pytest.approx(1.0)
