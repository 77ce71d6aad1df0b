"""Single-target schedule seeding, optimization, and golden-row checks."""

import numpy as np
import pytest

from blockwalk import ctqw, prep_product as pp, subspace as ss
from golden import PRODUCT_ROWS

# Rows whose tabulated success value is internally inconsistent with the
# tabulated (tau0, tau1): the optimizer converges to the printed coordinates
# but the probability there differs from the printed value by > 0.01.
# Keyed by (n, target, depth); see the project decision log.
INCONSISTENT_ROWS = {
    (6, "000101", 1), (8, "00010101", 1), (9, "000010101", 1),
    (10, "0000010101", 1), (11, "00000010101", 2), (12, "000001010101", 2),
}


def _setup(n):
    basis = ss.enumerate_subspace(ss.ring_graph(n))
    return basis, ctqw.build_generator(basis)


def _rows(max_n):
    return [r for r in PRODUCT_ROWS if r[0] <= max_n]


def test_split_decomposes_generator():
    basis, gen = _setup(7)
    z = ss.str_to_bits("0010101")
    split = pp.split_generator(gen, z)
    total = (split.g_plus + split.g_minus).toarray()
    assert np.allclose(total, gen.dense())
    # g_plus commutes with the sign diagonal, g_minus anticommutes
    s = np.diag(split.signs.astype(float))
    gp, gm = split.g_plus.toarray(), split.g_minus.toarray()
    assert np.allclose(s @ gp - gp @ s, 0.0)
    assert np.allclose(s @ gm + gm @ s, 0.0)


def test_split_all_zero_target():
    # For z* = 0...0 the complement mask covers every site: the parity
    # operator anticommutes with the whole generator, so g_plus vanishes.
    basis, gen = _setup(6)
    split = pp.split_generator(gen, 0)
    assert split.g_plus.nnz == 0
    assert np.allclose(split.g_minus.toarray(), gen.dense())


def test_chain_beta_plus_is_sqrt_ones():
    # beta_plus = ||G_plus|0>|| = sqrt(#target ones) (the symmetric-sector
    # coupling off the all-zeros state).
    for n, target in ((6, "000101"), (8, "01010101"), (9, "000010101")):
        basis, gen = _setup(n)
        z = ss.str_to_bits(target)
        model = pp.chain_parameters(pp.split_generator(gen, z))
        assert model.beta_plus == pytest.approx(np.sqrt(target.count("1")))


@pytest.mark.parametrize("n", range(5, 17))
def test_eigenbasis_evaluation_matches_propagation(n):
    # the optimizer's objective runs these rings in the factored momentum
    # eigenbasis of G; run_ansatz propagates the same schedule in the
    # subspace basis (Krylov is the independent oracle)
    basis, gen = _setup(n)
    rng = np.random.default_rng(n)
    literal = int(rng.choice(basis.states[1:]))
    # rings 5-10 cover every depth; on larger rings, where the Krylov oracle
    # dominates the cost, one and several layers suffice
    depths = range(1, 6) if n <= 10 else (1, 4)
    for z in (ss.str_to_bits(ss.half_target(n)),
              ss.str_to_bits(ss.mis_target(n)), literal):
        for p in depths:
            tau0, tau1 = rng.uniform(0.05, 2.0, size=2)
            got, _, _ = pp._product_success(basis, gen, z, p)(tau0, tau1)
            sched = pp.product_schedule(tau0, tau1, p, n, z)
            for method in ("dense", "krylov"):
                psi = ctqw.run_ansatz(sched, gen, method=method)
                ref = ctqw.success_probability(psi, [basis.index_of(z)])
                assert got == pytest.approx(ref, abs=1e-10)


def test_ring_16_objective_stays_in_the_eigenbasis(monkeypatch):
    # the largest momentum block (282), not |V| = 2207 > DENSE_CUTOFF,
    # decides: ring 16's objective never propagates with Krylov
    def no_krylov(*args, **kwargs):
        raise AssertionError("Krylov propagation in the product objective")

    monkeypatch.setattr(pp, "evaluate_product", no_krylov)
    monkeypatch.setattr(ctqw, "expm_krylov", no_krylov)
    basis, gen = _setup(16)
    z = ss.str_to_bits(ss.half_target(16))
    success, _, _ = pp._product_success(basis, gen, z, 2)(0.3, 0.6)
    assert 0.0 <= success <= 1.0


def test_eigen_block_cutoff_falls_between_rings_18_and_19():
    # the objective decomposes G while its largest momentum block is at most
    # EIGEN_BLOCK_CUTOFF: ring 16 (|V| = 2207) has blocks of at most 282,
    # and the cutoff sits at the measured crossover between rings 18 and 19
    def largest(n):
        return ctqw.largest_block(_setup(n)[1])
    assert largest(16) == 282
    assert largest(18) <= pp.EIGEN_BLOCK_CUTOFF < largest(19)


def test_objective_above_block_cutoff_propagates_with_krylov(monkeypatch):
    # above the cutoff the objective never decomposes G: the value, gradient
    # and Hessian propagate in the subspace basis with one Krylov step per
    # stack column and layer, after one for tau0, and agree with the
    # factored ones
    n, p = 12, 2
    basis, gen = _setup(n)
    fresh = ctqw.build_generator(basis)

    def no_eig(self):
        raise AssertionError("eigendecomposition above the block cutoff")

    calls = []

    def counted_krylov(*args, **kwargs):
        calls.append(1)
        return expm_krylov(*args, **kwargs)

    expm_krylov = ctqw.expm_krylov
    for z in (ss.str_to_bits(ss.half_target(n)),
              ss.str_to_bits(ss.mis_target(n))):
        factored = pp._product_success(basis, gen, z, p)
        with monkeypatch.context() as m:
            m.setattr(pp, "EIGEN_BLOCK_CUTOFF", ctqw.largest_block(fresh) - 1)
            m.setattr(ctqw.WalkGenerator, "eig", no_eig)
            m.setattr(ctqw, "expm_krylov", counted_krylov)
            krylov = pp._product_success(basis, fresh, z, p)
            for tau in ((0.3, 0.6), (1.1, 0.2)):
                for got, ref in zip(krylov(*tau), factored(*tau)):
                    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-9)
    assert len(calls) == 2 * 2 * (1 + 6 * p)


@pytest.mark.parametrize("n", (5, 9, 12))
def test_objective_derivatives_match_central_differences(n):
    # the factored (f, grad f, Hessian of f) against central differences of
    # the independent evaluator, which propagates the schedule in the
    # subspace basis
    basis, gen = _setup(n)
    rng = np.random.default_rng(n)
    for z in (ss.str_to_bits(ss.half_target(n)),
              ss.str_to_bits(ss.mis_target(n))):
        for p in (1, 2, 3):
            tau = rng.uniform(0.1, 1.5, size=2)

            def f(d0, d1):
                return pp.evaluate_product(basis, gen, z, p,
                                           tau[0] + d0, tau[1] + d1)

            value, grad, hess = pp._product_success(basis, gen, z, p)(*tau)
            assert value == pytest.approx(f(0, 0), abs=1e-12)
            h = 1e-6
            fd_grad = [(f(h, 0) - f(-h, 0)) / (2 * h),
                       (f(0, h) - f(0, -h)) / (2 * h)]
            np.testing.assert_allclose(grad, fd_grad, rtol=0, atol=1e-8)
            h = 1e-4
            fd_hess = np.array([
                [f(h, 0) - 2 * f(0, 0) + f(-h, 0),
                 (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / 4],
                [0.0, f(0, h) - 2 * f(0, 0) + f(0, -h)]]) / h**2
            fd_hess[1, 0] = fd_hess[0, 1]
            np.testing.assert_allclose(hess, fd_hess, rtol=0, atol=1e-5)


def test_stacked_diagonal_operator_equals_column_by_column():
    basis, gen = _setup(10)
    eb = gen.eig()
    rng = np.random.default_rng(0)
    apply = eb.diagonal_operator(rng.choice([-1.0, 1.0], size=len(basis)))
    stack = (rng.normal(size=(len(eb.w), 6))
             + 1j * rng.normal(size=(len(eb.w), 6)))
    got = apply(stack)
    for j in range(stack.shape[1]):
        np.testing.assert_allclose(
            got[:, j], apply(np.ascontiguousarray(stack[:, j])),
            rtol=0, atol=1e-13)


@pytest.mark.parametrize("row", _rows(9), ids=lambda r: f"n{r[0]}-{r[2]}-p{r[3]}")
def test_tabulated_coordinates_reproduce_success(row):
    n, _, target, p, tau0, tau1, _, p_ideal, _ = row
    basis, gen = _setup(n)
    z = ss.str_to_bits(target)
    got = pp.evaluate_product(basis, gen, z, p, tau0, tau1)
    tol = 0.01 if (n, target, p) not in INCONSISTENT_ROWS else 0.05
    assert got == pytest.approx(p_ideal, abs=tol)


@pytest.mark.parametrize("row", _rows(9), ids=lambda r: f"n{r[0]}-{r[2]}-p{r[3]}")
def test_j_eff_identity(row):
    n, _, target, p, tau0, tau1, j_eff, _, _ = row
    # tabulated effective coupling satisfies J_eff = pi / (2 (tau0 + p tau1))
    assert j_eff == pytest.approx(np.pi / (2 * (tau0 + p * tau1)), abs=2e-3)


@pytest.mark.parametrize(
    "row", [r for r in _rows(8) if r[3] == 1],
    ids=lambda r: f"n{r[0]}-{r[2]}")
def test_optimizer_converges_to_tabulated_coordinates(row):
    n, _, target, p, tau0, tau1, _, _, _ = row
    basis, gen = _setup(n)
    z = ss.str_to_bits(target)
    res = pp.optimize_product(basis, gen, z, p)
    assert res.converged
    assert res.tau0 == pytest.approx(tau0, abs=0.02)
    assert res.tau1 == pytest.approx(tau1, abs=0.02)


def test_optimum_is_local_maximum():
    n, target, p = 6, "010101", 1
    basis, gen = _setup(n)
    z = ss.str_to_bits(target)
    res = pp.optimize_product(basis, gen, z, p)
    for d0, d1 in ((1e-3, 0), (-1e-3, 0), (0, 1e-3), (0, -1e-3)):
        nearby = pp.evaluate_product(basis, gen, z, p,
                                     res.tau0 + d0, res.tau1 + d1)
        assert nearby <= res.success + 1e-9


def test_analytic_seed_positive_and_finite():
    for n, target in ((6, "000101"), (9, "001010101")):
        basis, gen = _setup(n)
        z = ss.str_to_bits(target)
        model = pp.chain_parameters(pp.split_generator(gen, z))
        for p in (1, 2, 3):
            tau0, tau1 = pp.analytic_seed(model, p)
            assert tau0 > 0 and tau1 > 0
            assert np.isfinite(tau0) and np.isfinite(tau1)


def test_product_schedule_shape():
    sched = pp.product_schedule(0.3, 0.7, 3, 6, ss.str_to_bits("000101"))
    assert sched.tau0 == 0.3
    assert sched.depth == 3
    assert all(g == pytest.approx(np.pi) and t == 0.7
               for g, t in sched.layers)
    assert sched.phasor_kind == "local"
    # mask covers exactly the complement of the target
    assert sched.target_mask == ss.str_to_bits("111010")


def test_optimizer_climbs_from_a_flat_fallback_seed():
    # ring 16's mis target at depth 1 seeds with the small-tau0 fallback,
    # where the success is ~5.5e-7 and the gradient tiny; exact curvature
    # carries the search out to the optimum
    n = 16
    basis, gen = _setup(n)
    z = ss.str_to_bits(ss.mis_target(n))
    model = pp.chain_parameters(pp.split_generator(gen, z))
    seed = pp.analytic_seed(model, 1)
    assert seed[0] == 0.1
    assert pp.evaluate_product(basis, gen, z, 1, *seed) < 1e-6
    res = pp.optimize_product(basis, gen, z, 1)
    assert res.converged
    assert res.success >= 0.97545


def test_optimizer_reaches_at_least_the_nelder_mead_optimum():
    # Nelder-Mead stopped on ring 6's 000101 at depth 4 at success 0.691641;
    # the trust region reaches a better optimum (0.975451)
    basis, gen = _setup(6)
    res = pp.optimize_product(basis, gen, ss.str_to_bits("000101"), 4)
    assert res.converged
    assert res.success >= 0.691641


def test_optimizer_reports_an_exhausted_budget(monkeypatch):
    monkeypatch.setattr(pp, "MAX_EVALS", 2)
    basis, gen = _setup(8)
    res = pp.optimize_product(basis, gen, ss.str_to_bits(ss.half_target(8)), 2)
    assert res.evaluations == 2
    assert not res.converged


@pytest.mark.parametrize("n,target,p", [
    (5, "00001", 1), (6, "000001", 3), (8, "00010101", 4)])
def test_optimizer_walk_times_are_non_negative(n, target, p):
    # on these the disc step would cross tau = 0; it stops on the bound
    basis, gen = _setup(n)
    z = ss.str_to_bits(target)
    res = pp.optimize_product(basis, gen, z, p)
    assert res.converged
    assert res.tau0 >= 0.0 and res.tau1 >= 0.0
    assert res.success == pytest.approx(
        pp.evaluate_product(basis, gen, z, p, res.tau0, res.tau1), abs=1e-12)


@pytest.mark.parametrize("n,target,p,before", [
    (10, "0000000001", 2, 0.0281452604), (14, "00000000000101", 1, 0.0081053861)])
def test_optimizer_settles_on_the_tau0_bound(n, target, p, before):
    # the optimum lies on tau0 = 0; a search that saw only |tau0| bounced
    # across the kink there for 33 evaluations and stopped at tau0 ~ 1e-7
    # with the success in ``before``
    basis, gen = _setup(n)
    res = pp.optimize_product(basis, gen, ss.str_to_bits(target), p)
    assert res.converged
    assert res.evaluations <= 15
    assert 0.0 <= res.tau0 <= 1e-12
    assert res.success >= before
