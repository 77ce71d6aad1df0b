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


def _valid_slots(eb):
    """Mask of the live (block, row, copy) slots of a factored eigenbasis."""
    c = eb.F.shape[1] // eb.U.shape[0] // eb.U.shape[1]
    rows = np.arange(eb.U.shape[1])[None, :, None] < eb.sizes[:, None, None]
    return (rows & (np.arange(c) < eb.copies[:, None, None])).ravel()


def _block_factor(eb):
    """Dense blockdiag(U_k (x) I_c): block k's eigenvectors on each copy."""
    c = eb.F.shape[1] // eb.U.shape[0] // eb.U.shape[1]
    return scipy.linalg.block_diag(*(np.kron(u, np.eye(c)) for u in eb.U))


def _dense_eigenpairs(eb):
    """Eigenvalues and dense eigenvector columns V = F blockdiag(U_k (x) I_c)
    of a factored eigenbasis, padding slots and missing copies dropped."""
    valid = _valid_slots(eb)
    v = eb.F @ _block_factor(eb)
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
    # k = 0 and k = N/2 have one copy, every other momentum two
    k = np.arange(n // 2 + 1)
    assert eb.copies.tolist() == (1 + ((k > 0) & (2 * k != n))).tolist()
    assert len(eb.sizes) == n // 2 + 1
    assert (eb.sizes * eb.copies).sum() == len(basis)
    valid = _valid_slots(eb)
    # V diag(w) V^T = F blockdiag(U_k (x) I_c) diag(w) (...)^T F^T
    v = eb.F @ _block_factor(eb)
    g = gen.dense()
    assert np.abs((v * eb.w) @ v.T - g).max() < 1e-12
    # V^T V = I (orthonormal momentum columns, orthogonal blocks), so the
    # w on valid slots are G's eigenvalues
    ftf = (eb.F.T @ eb.F).toarray()
    assert np.abs(ftf - np.diag(valid.astype(float))).max() < 1e-12
    u = eb.U
    eye = np.eye(u.shape[1]) * (np.arange(u.shape[1]) < eb.sizes[:, None, None])
    assert np.abs(u.transpose(0, 2, 1) @ u - eye).max() < 1e-12
    # padding slots and missing copies have empty momentum columns and
    # w = 0; padding rows of U are zero
    assert eb.F[:, ~valid].nnz == 0 and not eb.w[~valid].any()
    assert not (u * ~eye.any(axis=2)[:, :, None]).any()


@pytest.mark.parametrize("n", range(3, 15))
def test_momentum_eigenvalues_are_the_generator_spectrum(n):
    basis, gen = _setup(n)
    eb = gen.eig()
    w = np.sort(eb.w[_valid_slots(eb)])
    assert np.abs(w - np.linalg.eigvalsh(gen.dense())).max() < 1e-12


@pytest.mark.parametrize("n", [5, 6, 9, 12, 13])
def test_momentum_block_copies_carry_one_real_block(n):
    # for 0 < k < N/2 both copies of block k span G-invariant subspaces on
    # which G is the same real matrix, and G does not couple them
    basis, gen = _setup(n)
    eb = gen.eig()
    h = (eb.ft @ gen.matrix @ eb.F).toarray()
    b = eb.U.shape[1]
    for k in np.flatnonzero(eb.copies == 2):
        first = (k * b + np.arange(eb.sizes[k])) * 2
        a = h[np.ix_(first, first)]
        assert np.abs(h[np.ix_(first + 1, first + 1)] - a).max() < 1e-12
        assert np.abs(h[np.ix_(first, first + 1)]).max() < 1e-12
        assert np.abs(a - a.T).max() < 1e-12


def _reference_momentum_columns(basis, n):
    """The columns of F, orbit by orbit, as ``_momentum_eigenbasis`` documents
    them: for rotation orbit O (minimum r, period L) and its mirror orbit O'
    (minimum r', R r = T^d r' with 0 <= d < L), theta = -2 pi k d / N and
    f = e^{i theta/2} e_O if O' = O; else, for O < O',
    (e_O + e^{i theta} e_O') / sqrt(2) and i (e_O - e^{i theta} e_O') / sqrt(2).
    Each f gives sqrt(2) Re f and sqrt(2) Im f for 0 < k < N/2, and its
    nonzero part for k = 0 and k = N/2."""
    index = {int(s): i for i, s in enumerate(basis.states)}
    least = {min(ss.rotate_bits(s, n, j) for j in range(n)) for s in index}

    def period(r):
        return next(j for j in range(1, n + 1) if ss.rotate_bits(r, n, j) == r)

    def e(r, k):
        vec = np.zeros(len(index), dtype=complex)
        size = period(r)
        for m in range(size):
            vec[index[ss.rotate_bits(r, n, m)]] = (
                np.exp(2j * np.pi * k * m / n) / np.sqrt(size))
        return vec

    columns = []
    for r in sorted(least):
        size = period(r)
        mirror = ss.reverse_bits(r, n)
        r2 = min(ss.rotate_bits(mirror, n, j) for j in range(n))
        d = next(j for j in range(size) if ss.rotate_bits(r2, n, j) == mirror)
        if r2 < r:
            continue
        for k in range(n // 2 + 1):
            if k * size % n:
                continue
            theta = -2 * np.pi * k * d / n
            if r2 == r:
                fs = [np.exp(0.5j * theta) * e(r, k)]
            else:
                other = np.exp(1j * theta) * e(r2, k)
                fs = [(e(r, k) + other) / np.sqrt(2),
                      1j * (e(r, k) - other) / np.sqrt(2)]
            for f in fs:
                if 0 < 2 * k < n:
                    columns += [np.sqrt(2) * f.real, np.sqrt(2) * f.imag]
                else:
                    real = np.abs(f.real).max() > np.abs(f.imag).max()
                    columns.append(f.real if real else f.imag)
    return np.array(columns).T


@pytest.mark.parametrize("n", range(3, 17))
def test_momentum_columns_follow_the_documented_construction(n):
    # the phase convention fixes each column's sign, which no spectral test
    # sees: every reference column is a column of F, sign included
    basis, gen = _setup(n)
    eb = gen.eig()
    ref = _reference_momentum_columns(basis, n)
    assert ref.shape == (len(basis), len(basis))
    overlaps = eb.ft @ ref
    assert np.abs(overlaps.max(axis=0) - 1.0).max() < 1e-12


@pytest.mark.parametrize("n", range(3, 17))
def test_one_copy_blocks_split_by_reflection_parity(n):
    # k = 0 and k = N/2 hold their R-even rows, then their R-odd rows; G does
    # not couple the two and each has its own eigenvectors
    basis, gen = _setup(n)
    eb = gen.eig()
    h = (eb.ft @ gen.matrix @ eb.F).toarray()
    mirror = ss.mirror_indices(basis)
    b = eb.U.shape[1]
    c = eb.F.shape[1] // eb.U.shape[0] // b
    for k in np.flatnonzero(eb.copies == 1):
        m, size = eb.even[k], eb.sizes[k]
        slots = (k * b + np.arange(size)) * c
        even, odd = slots[:m], slots[m:]
        assert np.abs(h[np.ix_(even, odd)]).max(initial=0.0) < 1e-12
        assert not eb.U[k, :m, m:].any() and not eb.U[k, m:, :m].any()
        f = eb.F[:, slots].toarray()
        assert np.abs(f[mirror, :m] - f[:, :m]).max(initial=0.0) < 1e-14
        assert np.abs(f[mirror, m:] + f[:, m:]).max(initial=0.0) < 1e-14
    # every other block is all even
    pair = eb.copies == 2
    assert (eb.even[pair] == eb.sizes[pair]).all()
    # the bracelet sector's eigenvalues come in ascending order
    w, _ = eb.symmetric_sector()
    assert (np.diff(w) >= 0.0).all()


def _copy0_blocks(eb, gen):
    """F^T G F on the copy-0 slots of each block, formed by the sparse
    triple product."""
    b = eb.U.shape[1]
    c = eb.F.shape[1] // eb.U.shape[0] // b
    h = (eb.ft @ gen.matrix @ eb.F).tocsr()
    return [h[slots][:, slots].toarray()
            for slots in ((k * b + np.arange(size)) * c
                          for k, size in enumerate(eb.sizes))]


CHIRAL_GRAPHS = {**GRAPHS, **{f"ring{n}": ss.ring_graph(n) for n in range(13, 17)}}


@pytest.mark.parametrize("graph", CHIRAL_GRAPHS.values(),
                         ids=CHIRAL_GRAPHS.keys())
def test_parity_parts_are_chiral(graph):
    # every walk edge flips one bit, and every momentum column lies on
    # states of one weight parity, so F^T G F has no entry between columns
    # of equal parity; each part's spectrum is then -s, |m_e - m_o| zeros
    # and +s for the singular values s of its even-by-odd block
    basis = ss.enumerate_subspace(graph)
    gen = ctqw.build_generator(basis)
    eb = gen.eig()
    b = eb.U.shape[1]
    c = eb.F.shape[1] // eb.U.shape[0] // b
    f = eb.F.tocsc()
    weight = basis.hamming_weights() % 2
    w = eb.w.reshape(len(eb.sizes), b, c)
    for k, h in enumerate(_copy0_blocks(eb, gen)):
        slots = (k * b + np.arange(eb.sizes[k])) * c
        odd = np.array([weight[f[:, j].indices].max() for j in slots], bool)
        assert all((weight[f[:, j].indices] == o).all()
                   for j, o in zip(slots, odd))
        for part in (slice(0, eb.even[k]), slice(eb.even[k], eb.sizes[k])):
            hp, op = h[part, part], odd[part]
            assert not hp[np.ix_(op, op)].any()
            assert not hp[np.ix_(~op, ~op)].any()
            s = np.linalg.svd(hp[np.ix_(~op, op)], compute_uv=False)
            zeros = abs(int(op.sum()) - int((~op).sum()))
            ref = np.concatenate([-s, np.zeros(zeros), s[::-1]])
            assert np.abs(w[k, part, 0] - ref).max(initial=0.0) < 1e-12


@pytest.mark.parametrize("graph", CHIRAL_GRAPHS.values(),
                         ids=CHIRAL_GRAPHS.keys())
def test_blocks_from_orbit_representatives_match_triple_product(
        graph, monkeypatch):
    # the blocks built from G's rows at the orbit minima are the own-block
    # entries of F^T G F
    built = []

    def spy(*args):
        out = block_entries(*args)
        built.append(out[0])
        return out
    block_entries = ctqw._block_entries
    monkeypatch.setattr(ctqw, "_block_entries", spy)
    gen = ctqw.build_generator(ss.enumerate_subspace(graph))
    eb = gen.eig()
    for h, ref in zip(built[0], _copy0_blocks(eb, gen)):
        size = len(ref)
        assert np.abs(h[:size, :size] - ref).max() < 1e-13
        assert not h[size:].any() and not h[:, size:].any()


def test_ring_16_largest_eigh_block_halves():
    # the reflection-adapted block of one momentum is half its rotation block
    basis, gen = _setup(16)
    eb = gen.eig()
    assert ctqw.largest_block(gen) == 282
    assert eb.sizes.max() == eb.U.shape[1] == 143


def test_ring_16_auto_walk_stays_in_the_eigenbasis(monkeypatch):
    # the one propagation rule reads the largest momentum block (282), not
    # |V| = 2207: ring 16's auto walk never propagates with Krylov
    def no_krylov(*args, **kwargs):
        raise AssertionError("Krylov propagation of a ring-16 auto walk")

    monkeypatch.setattr(ctqw, "expm_krylov", no_krylov)
    basis, gen = _setup(16)
    psi = ctqw.evolve_walk(ctqw.zero_state(basis), gen, 0.7)
    ref = ctqw.evolve_walk(ctqw.zero_state(basis), gen, 0.7, "dense")
    assert np.array_equal(psi.amplitudes, ref.amplitudes)
    assert len(basis) == 2207 and ctqw.factored(gen)


def test_non_ring_basis_is_one_identity_block():
    # a path is not closed under rotation: F = I and one full eigh block
    basis = ss.enumerate_subspace(ss.make_graph(8, [(i, i + 1) for i in range(7)]))
    gen = ctqw.build_generator(basis)
    eb = gen.eig()
    assert eb.sizes.tolist() == [len(basis)] == [ctqw.largest_block(gen)]
    assert eb.copies.tolist() == [1]
    assert (eb.F != scipy.sparse.identity(len(basis))).nnz == 0
    w, v = _dense_eigenpairs(eb)
    assert np.abs((v * w) @ v.T - gen.dense()).max() < 1e-12
    rng = np.random.default_rng(8)
    psi = ctqw.StateVector(basis, rng.normal(size=len(basis)) + 0j)
    a = ctqw.evolve_walk(psi, gen, 1.3, method="dense").amplitudes
    b = ctqw.evolve_walk(psi, gen, 1.3, method="krylov").amplitudes
    assert np.linalg.norm(a - b) < 1e-10


def test_non_ring_basis_is_all_even():
    # off rings the one block has F = I and no reflection split; its whole
    # spectrum is the "symmetric sector"
    basis = ss.enumerate_subspace(ss.make_graph(8, [(i, i + 1) for i in range(7)]))
    eb = ctqw.build_generator(basis).eig()
    assert eb.even.tolist() == eb.sizes.tolist() == [len(basis)]
    w, u = eb.symmetric_sector()
    assert np.array_equal(w, eb.w) and np.array_equal(u, eb.U[0])


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
        assert ph[i] == ss.popcount(int(s) & mask)
    assert ph[basis.index_of(z)] == 0


def test_hamming_phasor_weight_phase():
    # a (gamma, 0) layer multiplies each amplitude of the tau0-only state by
    # exp(-i gamma weight)
    basis, gen = _setup(6)
    gamma = 0.37
    walked = ctqw.run_ansatz(
        ctqw.AnsatzSchedule(tau0=0.8, phasor_kind="hamming"), gen).amplitudes
    out = ctqw.run_ansatz(
        ctqw.AnsatzSchedule(tau0=0.8, layers=((gamma, 0.0),),
                            phasor_kind="hamming"), gen).amplitudes
    weights = basis.hamming_weights()
    assert weights.max() == 3
    # the walk has spread the state over every weight
    for k in range(4):
        assert np.abs(walked[weights == k]).max() > 1e-2
    assert np.allclose(out, walked * np.exp(-1j * gamma * weights),
                       rtol=0, atol=1e-13)


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
