"""Orbit-superposition planning, the adjoint phase gradient and golden-row checks."""

from dataclasses import replace

import numpy as np
import pytest

from blockwalk import ctqw, prep_bracelet as pb, subspace as ss
from golden import BRACELET_ROWS


def _setup(n):
    basis = ss.enumerate_subspace(ss.ring_graph(n))
    return basis, ctqw.build_generator(basis)


def _plan_from_row(row):
    n, _, target, depth, tau_eff, gamma, _, _ = row
    tau = tau_eff / (depth + 1)
    return pb.BraceletPlan(tau_tot=tau_eff, p=depth, tau=tau,
                           gamma=np.asarray(gamma, dtype=float),
                           success=0.0, converged=True)


def test_reduced_walk_matches_full_simulation():
    n = 7
    basis, gen = _setup(n)
    orbit = ss.dihedral_orbit(ss.str_to_bits("0000101"), n)
    rw = pb.reduced_walk(gen)
    plan = pb.BraceletPlan(tau_tot=2.4, p=2, tau=0.8,
                           gamma=np.array([0.3, -0.5]), success=0.0,
                           converged=True)
    reduced_p = pb.evaluate_bracelet(plan, rw, orbit)
    # full-space reference through the generic ansatz runner
    sched = pb.bracelet_schedule(plan)
    final = ctqw.run_ansatz(sched, gen)
    target_vec = ss.bracelet_vector(orbit, basis)
    full_p = abs(np.vdot(target_vec, final.amplitudes)) ** 2
    assert reduced_p == pytest.approx(full_p, abs=1e-10)


def test_reduced_walk_dimension_is_orbit_count():
    basis, gen = _setup(9)
    rw = pb.reduced_walk(gen)
    assert rw.dim == len(ss.all_orbits(basis))


def _isometry_reduced_generator(basis, gen):
    """Reference: G projected onto the equal-weight superposition of each
    dihedral orbit, in ``all_orbits`` order."""
    iso = np.column_stack([ss.bracelet_vector(orbit, basis).real
                           for orbit in ss.all_orbits(basis)])
    reduced = iso.T @ (gen.matrix @ iso)
    return 0.5 * (reduced + reduced.T)


@pytest.mark.parametrize("n", range(3, 17))
def test_reduced_walk_is_the_isometry_projection(n):
    basis, gen = _setup(n)
    ref = _isometry_reduced_generator(basis, gen)
    rw = pb.reduced_walk(gen)
    assert np.abs(rw.eigenvalues - np.linalg.eigvalsh(ref)).max() < 1e-12
    v = rw.eigenvectors
    assert np.abs((v * rw.eigenvalues) @ v.T - ref).max() < 1e-12
    assert rw.orbits[0].representative == 0
    assert rw.weights.tolist() == [o.weight() for o in rw.orbits]
    # the sector's momentum columns are the orbit superpositions themselves
    eb = gen.eig()
    c = eb.F.shape[1] // eb.U.shape[0] // eb.U.shape[1]
    cols = eb.F[:, :eb.even[0] * c:c].toarray()
    assert cols.shape[1] == len(rw.orbits)
    for j, orbit in enumerate(rw.orbits):
        ref_col = ss.bracelet_vector(orbit, basis).real
        assert np.abs(cols[:, j] - ref_col).max() < 1e-15


@pytest.mark.parametrize(
    "row", [r for r in BRACELET_ROWS if r[0] <= 9],
    ids=lambda r: f"n{r[0]}-{r[2]}")
def test_tabulated_gamma_vectors_reproduce_success(row):
    n = row[0]
    basis, gen = _setup(n)
    orbit = ss.dihedral_orbit(ss.str_to_bits(row[2]), n)
    plan = _plan_from_row(row)
    got = pb.evaluate_bracelet(plan, pb.reduced_walk(gen), orbit)
    assert got == pytest.approx(row[6], abs=0.02)


def test_plan_rule_depth_and_segments():
    # p = floor(tau_tot / 0.4) - 2, with p+1 equal walk segments
    plan = pb.plan_from_peak(4.0)
    assert plan.p == 8
    assert plan.tau == pytest.approx(4.0 / 9)
    assert len(plan.gamma) == plan.p
    with pytest.raises(pb.PlanInfeasibleError):
        pb.plan_from_peak(1.2)  # too short for depth >= 2


def test_peak_scan_finds_target_revival():
    n = 6
    basis, gen = _setup(n)
    orbit = ss.dihedral_orbit(ss.str_to_bits("000101"), n)
    scan = pb.peak_scan(pb.reduced_walk(gen), orbit, tau_max=12.0, dtau=0.02)
    assert len(scan.peaks) >= 1
    # populations at reported peaks exceed the scan threshold
    for tau_pk, pop in scan.peaks:
        assert pop >= scan.threshold


def test_optimize_improves_or_holds():
    n = 6
    basis, gen = _setup(n)
    orbit = ss.dihedral_orbit(ss.str_to_bits("000101"), n)
    rw = pb.reduced_walk(gen)
    scan = pb.peak_scan(rw, orbit, tau_max=12.0, dtau=0.02)
    tau_pk = next(t for t, _ in scan.peaks if t >= 2.0)
    plan0 = pb.plan_from_peak(tau_pk)
    base = pb.evaluate_bracelet(plan0, rw, orbit)
    plan = pb.optimize_bracelet(plan0, rw, orbit)
    assert plan.success >= base - 1e-9
    # the start is not gamma = 0, so also check against the bare walk
    bare = pb.evaluate_bracelet(replace(plan0, gamma=np.zeros(plan0.p)),
                                rw, orbit)
    assert plan.success >= bare - 1e-9


def test_prepare_bracelet_end_to_end_small():
    n = 6
    basis, gen = _setup(n)
    orbit = ss.dihedral_orbit(ss.str_to_bits("000101"), n)
    plan = pb.prepare_bracelet(gen, orbit)
    assert plan.success > 0.7
    sched = pb.bracelet_schedule(plan)
    assert sched.phasor_kind == "hamming"
    assert sched.depth == plan.p
    assert sched.total_walk_time() == pytest.approx(plan.tau_tot)


def _central_difference(rw, t_idx, tau, gamma, h=1e-5):
    grad = np.empty(len(gamma))
    for k in range(len(gamma)):
        step = np.zeros(len(gamma))
        step[k] = h
        hi = pb._success_and_gradient(rw, t_idx, tau, gamma + step)[0]
        lo = pb._success_and_gradient(rw, t_idx, tau, gamma - step)[0]
        grad[k] = (hi - lo) / (2 * h)
    return grad


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
def test_adjoint_gradient_matches_finite_differences(n):
    basis, gen = _setup(n)
    rw = pb.reduced_walk(gen)
    orbit = ss.dihedral_orbit(ss.str_to_bits(ss.half_target(n)), n)
    t_idx = rw.orbit_index(orbit)
    rng = np.random.default_rng(n)
    largest = 0.0
    for p in (1, 2, 7, 20):
        tau = rng.uniform(0.2, 0.8)
        gamma = rng.uniform(-np.pi, np.pi, p)
        f, grad = pb._success_and_gradient(rw, t_idx, tau, gamma)
        plan = pb.BraceletPlan(tau_tot=(p + 1) * tau, p=p, tau=tau, gamma=gamma)
        assert f == pytest.approx(
            pb.evaluate_bracelet(plan, rw, orbit), abs=1e-14)
        np.testing.assert_allclose(
            grad, _central_difference(rw, t_idx, tau, gamma), rtol=0, atol=1e-7)
        largest = max(largest, np.abs(grad).max())
    assert largest > 1e-2


def test_gradient_vanishes_at_zero_phases():
    # the success is even in gamma, so gamma = 0 is stationary: a gradient
    # method started there would never move, hence the alternating start
    n = 7
    basis, gen = _setup(n)
    rw = pb.reduced_walk(gen)
    t_idx = rw.orbit_index(ss.dihedral_orbit(ss.str_to_bits(ss.half_target(n)), n))
    _, grad = pb._success_and_gradient(rw, t_idx, 0.6, np.zeros(9))
    np.testing.assert_allclose(grad, 0.0, atol=1e-14)
    start = pb.plan_from_peak(4.0)
    _, grad = pb._success_and_gradient(rw, t_idx, start.tau, start.gamma)
    assert np.abs(grad).max() > 1e-3


@pytest.mark.parametrize("n", [5, 6, 7])
def test_prepare_bracelet_half_targets(n):
    basis, gen = _setup(n)
    orbit = ss.dihedral_orbit(ss.str_to_bits(ss.half_target(n)), n)
    plan = pb.prepare_bracelet(gen, orbit)
    assert plan.success >= 0.99
    assert plan.converged
    assert plan.evaluations > 0
    assert plan.success == pytest.approx(
        pb.evaluate_bracelet(plan, pb.reduced_walk(gen), orbit), abs=1e-12)


def test_equal_successes_keep_shallower_plan(monkeypatch):
    n = 6
    basis, gen = _setup(n)
    orbit = ss.dihedral_orbit(ss.str_to_bits("000101"), n)
    successes = iter([0.5, 0.9, 0.9 + 0.5 * pb.SUCCESS_TOL, 0.99])

    def fake_optimize(plan, rw, orbit):
        return pb.BraceletPlan(tau_tot=plan.tau_tot, p=plan.p, tau=plan.tau,
                               gamma=plan.gamma, success=next(successes),
                               evaluations=10)

    monkeypatch.setattr(pb, "optimize_bracelet", fake_optimize)
    plan = pb.prepare_bracelet(gen, orbit)
    scan = pb.peak_scan(pb.reduced_walk(gen), orbit, 20.0, 0.02)
    feasible = [t for t, _ in scan.peaks[1:] if np.floor(t / pb.TAU_MIN_HW) - 2 >= 2]
    # the third plan ties the second within SUCCESS_TOL: the scan stops there
    assert plan.success == 0.9
    assert plan.tau_tot == feasible[1]
    assert plan.evaluations == 30


def test_gamma_sign_irrelevant_for_ideal_walk():
    n = 7
    basis, gen = _setup(n)
    orbit = ss.dihedral_orbit(ss.str_to_bits("0000101"), n)
    row = next(r for r in BRACELET_ROWS if r[0] == 7)
    plan = _plan_from_row(row)
    flipped = pb.BraceletPlan(tau_tot=plan.tau_tot, p=plan.p, tau=plan.tau,
                              gamma=-plan.gamma, success=0.0, converged=True)
    rw = pb.reduced_walk(gen)
    a = pb.evaluate_bracelet(plan, rw, orbit)
    b = pb.evaluate_bracelet(flipped, rw, orbit)
    assert a == pytest.approx(b, abs=1e-4)
