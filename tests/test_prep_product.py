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


@pytest.mark.parametrize("n", range(5, 11))
def test_eigenbasis_evaluation_matches_propagation(n):
    # the optimizer's objective runs these dense-path rings in the eigenbasis
    # of G; run_ansatz propagates the same schedule in the subspace basis
    basis, gen = _setup(n)
    rng = np.random.default_rng(n)
    literal = int(rng.choice(basis.states[1:]))
    for z in (ss.str_to_bits(ss.half_target(n)),
              ss.str_to_bits(ss.mis_target(n)), literal):
        for p in range(1, 6):
            tau0, tau1 = rng.uniform(0.05, 2.0, size=2)
            got = pp._product_success(basis, gen, z, p)(tau0, tau1)
            sched = pp.product_schedule(tau0, tau1, p, n, z)
            for method in ("dense", "krylov"):
                psi = ctqw.run_ansatz(sched, gen, method=method)
                ref = ctqw.success_probability(psi, [basis.index_of(z)])
                assert got == pytest.approx(ref, abs=1e-10)


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
