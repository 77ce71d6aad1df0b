"""End-to-end acceptance gate: nine numbered criteria, one verdict line each.

Each test evaluates one criterion against the frozen reference rows in
``golden.py`` and records a single PASS/FAIL line printed in the terminal
summary.  Failures here are honest: a criterion that the implementation
cannot meet fails loudly rather than being loosened.
"""

import time
from functools import lru_cache

import numpy as np

import conftest
from blockwalk import (analysis as an, ctqw, mitigation as mt,
                       prep_bracelet as pb, prep_product as pp,
                       rydberg as ry, subspace as ss)
from golden import BRACELET_ROWS, PRODUCT_ROWS

CONSTANTS = ry.PhysicalConstants()

RING_COUNTS = {5: 11, 6: 18, 7: 29, 8: 47, 9: 76, 10: 123, 11: 199,
               12: 322, 13: 521, 14: 843, 15: 1364, 16: 2207, 17: 3571,
               18: 5778, 19: 9349, 20: 15127, 21: 24476, 22: 39603,
               23: 64079}

ETA_BY_N = {5: 0.849, 6: 0.875, 7: 0.893, 8: 0.905,
            9: 0.914, 10: 0.920, 11: 0.924, 12: 0.927}

# half-filling fit references: depth -> (alpha, alpha_err) for the exact
# walk backend, and depth -> alpha for the pulse-level emulation backend
HALF_FIT_REFERENCE = {1: (0.878, 0.006), 2: (0.935, 0.003), 3: (0.981, 0.002)}
HALF_FIT_EMULATION = {1: 0.877, 2: 0.934, 3: 0.930}


def record(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{name}]: {verdict}"
    if detail:
        line += f" -- {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@lru_cache(maxsize=None)
def _basis_gen(n: int):
    basis = ss.enumerate_subspace(ss.ring_graph(n))
    return basis, ctqw.build_generator(basis)


def _target_kind(row) -> str:
    ones = row[2].count("1")
    return "mis" if ones == row[0] // 2 else "half"


@lru_cache(maxsize=None)
def _perfect_eval(n: int, target: str, depth: int, tau0: float,
                  tau1: float) -> float:
    """Walk-backend success at tabulated coordinates (no optimization)."""
    basis, gen = _basis_gen(n)
    return pp.evaluate_product(basis, gen, ss.str_to_bits(target),
                               depth, tau0, tau1)


@lru_cache(maxsize=None)
def _emulation_eval(n: int, target: str, depth: int, tau0: float,
                    tau1: float) -> float:
    """Pulse-level emulation success at tabulated coordinates.

    Uses the compressed geometry (scale 0.8) where single-pulse leakage out
    of the blockaded subspace stays below 5%; at the nominal spacing the
    blockade approximation itself breaks down (tens of percent leakage).
    """
    basis, _ = _basis_gen(n)
    z = ss.str_to_bits(target)
    sched = pp.product_schedule(tau0, tau1, depth, n, z)
    program = ry.compile_program(sched, n, scale=0.8)
    full = ry.emulate(program)
    in_sub = ry.project_to_subspace(full, basis)
    return float(np.abs(in_sub[basis.index_of(z)]) ** 2)


def test_criterion_1_subspace_sizing():
    t0 = time.perf_counter()
    got = {n: len(ss.enumerate_subspace(ss.ring_graph(n)))
           for n in RING_COUNTS}
    elapsed = time.perf_counter() - t0
    ok = got == RING_COUNTS and elapsed < 1.0
    record(1, "subspace sizing", ok,
           f"N=5..23 counts {'exact' if got == RING_COUNTS else 'WRONG'}, "
           f"{elapsed:.2f} s")


def test_criterion_2_product_reproduction():
    bad = []
    # small rings: full optimization from the analytic seed
    for row in PRODUCT_ROWS:
        n, _, target, depth, tau0, tau1, _, p_ref, _ = row
        if n > 12:
            continue
        basis, gen = _basis_gen(n)
        res = pp.optimize_product(basis, gen, ss.str_to_bits(target), depth)
        errs = (abs(res.success - p_ref), abs(res.tau0 - tau0),
                abs(res.tau1 - tau1))
        if errs[0] > 0.01 or errs[1] > 0.02 or errs[2] > 0.02:
            bad.append(f"N={n} {_target_kind(row)} p={depth} "
                       f"dP={errs[0]:.3f} dt0={errs[1]:.3f} dt1={errs[2]:.3f}")
    # large rings: direct evaluation of the tabulated coordinates
    for row in PRODUCT_ROWS:
        n, _, target, depth, tau0, tau1, _, p_ref, _ = row
        if n <= 12:
            continue
        p = _perfect_eval(n, target, depth, tau0, tau1)
        if abs(p - p_ref) > 0.01:
            bad.append(f"N={n} {_target_kind(row)} p={depth} "
                       f"dP={abs(p - p_ref):.3f}")
    detail = "all rows within tolerance" if not bad else \
        f"{len(bad)} row(s) out of tolerance: " + "; ".join(bad)
    record(2, "product-state reproduction", not bad, detail)


def _bracelet_overlap(gen, orbit, tau_seg, gamma, leading_walk):
    basis = gen.basis
    target = ss.bracelet_vector(orbit, basis)
    ph = ctqw.hamming_phasor(basis)
    psi = ctqw.zero_state(basis)
    if leading_walk:
        psi = ctqw.evolve_walk(psi, gen, tau_seg)
    for g in gamma:
        psi = ctqw.apply_phasor(psi, ph, float(g))
        psi = ctqw.evolve_walk(psi, gen, tau_seg)
    return ctqw.overlap_probability(psi, target.astype(complex))


def test_criterion_3_bracelet_reproduction():
    # Convention A (adopted): depth p counts the phase layers; the total walk
    # time tau_eff splits into p+1 equal segments with a leading segment
    # before the first phase.  Convention B (rejected): p equal segments with
    # a phase before each, no leading walk.  Both are evaluated and reported;
    # acceptance binds only convention A.
    dev_a, dev_b, bad = [], [], []
    for n, _, target, depth, tau_eff, gamma, p_ref, _ in BRACELET_ROWS:
        if n > 9:
            continue
        basis, gen = _basis_gen(n)
        orbit = ss.dihedral_orbit(ss.str_to_bits(target), n)
        g = np.asarray(gamma, float)
        pa = _bracelet_overlap(gen, orbit, tau_eff / (depth + 1), g, True)
        pb_ = _bracelet_overlap(gen, orbit, tau_eff / depth, g, False)
        dev_a.append(abs(pa - p_ref))
        dev_b.append(abs(pb_ - p_ref))
        if abs(pa - p_ref) > 0.02:
            bad.append(f"N={n} dP={abs(pa - p_ref):.3f}")
    detail = (f"convention A (p+1 segments) max dev {max(dev_a):.4f}; "
              f"convention B (p segments) max dev {max(dev_b):.4f}")
    if bad:
        detail += "; out of tolerance: " + "; ".join(bad)
    record(3, "bracelet reproduction", not bad, detail)


def _fit_rows(rows, success):
    sizes = np.array([r[1] for r in rows], float)
    amps = sizes * np.array(success)
    return an.fit_power_law(sizes, amps, weights=1.0 / amps**2)


def test_criterion_4_scaling_fits():
    problems = []
    notes = []
    by_kind_depth = {}
    for row in PRODUCT_ROWS:
        by_kind_depth.setdefault((_target_kind(row), row[3]), []).append(row)

    for depth, (alpha_ref, err) in HALF_FIT_REFERENCE.items():
        rows = by_kind_depth[("half", depth)]
        succ = [_perfect_eval(r[0], r[2], r[3], r[4], r[5]) for r in rows]
        fit = _fit_rows(rows, succ)
        lo, hi = alpha_ref - 2 * err, alpha_ref + 2 * err
        notes.append(f"half p={depth} alpha={fit.alpha:.4f}")
        if not lo <= fit.alpha <= hi:
            problems.append(f"half p={depth} alpha={fit.alpha:.4f} "
                            f"outside [{lo:.3f},{hi:.3f}]")
    for depth in (1, 2):
        rows = by_kind_depth[("mis", depth)]
        succ = [_perfect_eval(r[0], r[2], r[3], r[4], r[5]) for r in rows]
        fit = _fit_rows(rows, succ)
        notes.append(f"mis p={depth} alpha={fit.alpha:.4f}")
        if fit.alpha < 0.99:
            problems.append(f"mis p={depth} alpha={fit.alpha:.4f} < 0.99")
    # emulation backend, restricted to N <= 10 (reference spans larger N)
    for depth, alpha_ref in HALF_FIT_EMULATION.items():
        rows = [r for r in by_kind_depth[("half", depth)] if r[0] <= 10]
        succ = [_emulation_eval(r[0], r[2], r[3], r[4], r[5]) for r in rows]
        fit = _fit_rows(rows, succ)
        notes.append(f"emulation half p={depth} alpha={fit.alpha:.4f}")
        if abs(fit.alpha - alpha_ref) > 0.03:
            problems.append(f"emulation half p={depth} alpha={fit.alpha:.4f} "
                            f"vs {alpha_ref} (restricted N<=10)")
    detail = "; ".join(notes) + ("" if not problems
                                 else " | " + "; ".join(problems))
    record(4, "scaling fits", not problems, detail)


def test_criterion_5_rydberg_consistency():
    problems = []
    # emulation column for small rings
    devs = []
    for row in PRODUCT_ROWS:
        n, _, target, depth, tau0, tau1, _, _, p_emu = row
        if n > 8:
            continue
        got = _emulation_eval(n, target, depth, tau0, tau1)
        devs.append((abs(got - p_emu), n, _target_kind(row), depth))
    worst = max(devs)
    bad_rows = [d for d in devs if d[0] > 0.03]
    if bad_rows:
        problems.append(
            f"{len(bad_rows)}/{len(devs)} emulation rows beyond 0.03 "
            f"(worst dev {worst[0]:.3f} at N={worst[1]} {worst[2]} "
            f"p={worst[3]})")
    # blockade prefactor values
    eta_dev = max(abs(ry.ring_eta(n)[0] - v) for n, v in ETA_BY_N.items())
    if eta_dev > 0.002:
        problems.append(f"eta max dev {eta_dev:.4f} > 0.002")
    # prefactor must not hurt walk fidelity at short times
    eta_losses = []
    for n in range(5, 9):
        basis, gen = _basis_gen(n)
        for tau in (0.5, 1.0, 1.5, 2.0):
            sched = ctqw.AnsatzSchedule(tau0=float(tau), layers=(),
                                        phasor_kind="hamming")
            ideal = ctqw.evolve_walk(ctqw.zero_state(basis), gen, tau)
            fids = []
            for eta in (None, 1.0):
                program = ry.compile_program(sched, n, eta=eta, scale=0.8)
                in_sub = ry.project_to_subspace(ry.emulate(program), basis)
                fids.append(float(np.abs(
                    np.vdot(ideal.amplitudes, in_sub)) ** 2))
            if fids[0] < fids[1] - 1e-9:
                eta_losses.append((n, tau, fids[0], fids[1]))
    if eta_losses:
        n, tau, with_eta, without = eta_losses[0]
        problems.append(
            f"{len(eta_losses)}/16 cases where eta lowers fidelity "
            f"(e.g. N={n} tau={tau}: {with_eta:.4f} < {without:.4f})")
    detail = ("; ".join(problems) if problems
              else f"emulation worst dev {worst[0]:.3f}; "
                   f"eta max dev {eta_dev:.4f}; eta never hurts fidelity")
    record(5, "rydberg consistency", not problems, detail)


def test_criterion_6_waveform_identities():
    taus = np.concatenate([
        np.linspace(0.01, 3.0, 193),
        [0.395, 0.59, 0.79, 0.3949999, 0.5900001, 0.7900001, 2.0],
    ])
    area_ok = True
    for tau in taus:
        pts = ry.synthesize_walk_pulse(float(tau))
        ts = np.array([t for t, _ in pts])
        vs = np.array([v for _, v in pts])
        if abs(np.trapezoid(vs, ts) - 2 * tau) > 1e-9 * 2 * tau:
            area_ok = False
        if vs.max() > CONSTANTS.omega_max + 1e-12:
            area_ok = False
    # compiled programs respect amplitude and slew caps
    caps_ok = True
    max_slew = CONSTANTS.omega_max / CONSTANTS.rise_time
    for n, tau0, tau1, depth in ((5, 0.532, 1.146, 1), (7, 0.226, 0.663, 2),
                                 (8, 0.264, 0.439, 3)):
        z = ss.str_to_bits(ss.half_target(n))
        sched = pp.product_schedule(tau0, tau1, depth, n, z)
        program = ry.compile_program(sched, n)
        amp = program.waveform.amplitude
        ts = np.array([t for t, _ in amp])
        vs = np.array([v for _, v in amp])
        if vs.max() > CONSTANTS.omega_max + 1e-12:
            caps_ok = False
        dt = np.diff(ts)
        dv = np.abs(np.diff(vs))
        if np.any(dv[dt > 0] / dt[dt > 0] > max_slew * (1 + 1e-9)):
            caps_ok = False
        if np.any((dt == 0) & (dv > 0)):
            caps_ok = False
    ok = area_ok and caps_ok
    record(6, "waveform identities", ok,
           f"area identity over {len(taus)} taus "
           f"{'holds' if area_ok else 'VIOLATED'}; caps "
           f"{'respected' if caps_ok else 'VIOLATED'}")


def test_criterion_7_em_pipeline():
    basis = ss.enumerate_subspace(ss.ring_graph(7))
    ch = mt.ReadoutChannel(p00=0.90, p11=0.93)
    z = ss.str_to_bits(ss.half_target(7))
    covered = 0
    monotone = True
    trials = 50
    for trial in range(trials):
        rng = np.random.default_rng(1000 + trial)
        probs = rng.dirichlet(np.ones(len(basis)) * 0.4)
        truth = float(probs[basis.index_of(z)])
        full = np.zeros(1 << 7, dtype=complex)
        full[basis.states] = np.sqrt(probs)
        shots = ry.sample_shots(full, 7, 1000, p00=ch.p00, p11=ch.p11,
                                seed=2000 + trial)
        rec = mt.reconstruct_with_ci(shots, basis, ch, z, resamples=150,
                                     seed=3000 + trial)
        if rec.ci_low <= truth <= rec.ci_high:
            covered += 1
        if np.any(np.diff(rec.model.objective) < -1e-9):
            monotone = False
    # factorized out-of-subspace likelihood vs brute force
    fact_dev = 0.0
    for n in range(5, 11):
        b = ss.enumerate_subspace(ss.ring_graph(n))
        rng = np.random.default_rng(n)
        phi_perp = rng.uniform(0.05, 0.6, size=n)
        zs = rng.integers(0, 1 << n, size=25, dtype=np.uint64)
        fast, _ = mt._background_likelihood(zs, phi_perp, b, ch)
        for i, zz in enumerate(zs):
            slow = mt.background_likelihood_bruteforce(int(zz), phi_perp,
                                                       b, ch)
            denom = max(abs(slow), 1e-300)
            fact_dev = max(fact_dev, abs(fast[i] - slow) / denom)
    ok = covered >= 45 and monotone and fact_dev <= 1e-10
    record(7, "readout mitigation pipeline", ok,
           f"coverage {covered}/{trials}; objective "
           f"{'monotone' if monotone else 'NON-MONOTONE'}; "
           f"factorized-likelihood max rel dev {fact_dev:.2e}")


def test_criterion_8_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst = 0.0
    rings = [n for n in range(5, 13) if RING_COUNTS[n] <= 512]
    for case in range(100):
        n = rings[case % len(rings)]
        basis, gen = _basis_gen(n)
        amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(
            len(basis))
        amps /= np.linalg.norm(amps)
        tau = float(rng.uniform(0.0, 4.0))
        psi = ctqw.StateVector(basis, amps)
        a = ctqw.evolve_walk(psi, gen, tau, method="krylov").amplitudes
        b = ctqw.evolve_walk(psi, gen, tau, method="dense").amplitudes
        worst = max(worst, float(np.linalg.norm(a - b)))
    krylov_ok = worst <= 1e-10
    # incoherent quench vs density-matrix evolution on small rings
    dm_worst = 0.0
    for n in (5, 6, 7, 8):
        if RING_COUNTS[n] > 64:
            continue
        basis, gen = _basis_gen(n)
        z = ss.str_to_bits(ss.half_target(n))
        orbit = ss.dihedral_orbit(z, n)
        members = [ctqw.basis_state(basis, u) for u in orbit.members]
        taus = np.linspace(0.0, 5.0, 26)
        tidx = [basis.index_of(z)]
        a = an.quench_incoherent(members, gen, taus, tidx)
        b = an.quench_density_matrix(members, gen, taus, tidx)
        dm_worst = max(dm_worst, float(np.max(np.abs(a - b))))
    dm_ok = dm_worst <= 1e-10
    record(8, "oracle equivalence", krylov_ok and dm_ok,
           f"krylov-vs-dense worst norm {worst:.2e}; "
           f"incoherent-vs-density-matrix worst dev {dm_worst:.2e}")


def test_criterion_9_quench_phenomenology():
    basis, gen = _basis_gen(6)
    z = ss.str_to_bits(ss.half_target(6))
    orbit = ss.dihedral_orbit(z, 6)
    coh_state = ctqw.StateVector(
        basis, ss.bracelet_vector(orbit, basis).astype(complex))
    members = [ctqw.basis_state(basis, u) for u in orbit.members]
    tidx = [basis.index_of(z)]
    taus = np.arange(0.0, 8.0, 0.02)
    coh = an.quench_coherent(coh_state, gen, taus, tidx)
    inc = an.quench_incoherent(members, gen, taus, tidx)
    dev = np.abs(coh - inc)
    short_ok = bool(dev[taus <= 0.03].max() < 1e-3)
    diverge_ok = bool(dev.max() > 0.05)
    win = (taus >= 5.3) & (taus <= 6.3)
    elevated = float(np.max(coh[win] - inc[win]))
    # interference signature: the coherent trace collapses and revives
    # inside the window while the incoherent trace stays smooth
    cw = coh[win]
    k = int(np.argmin(cw))
    feature_ok = (elevated > 0.03 and cw.min() < 0.01
                  and 0 < k < len(cw) - 1
                  and cw[:k + 1].max() > 0.03 and cw[k:].max() > 0.03)
    ok = short_ok and diverge_ok and feature_ok
    record(9, "quench phenomenology", ok,
           f"short-time max dev {dev[taus <= 0.03].max():.1e}; "
           f"late max dev {dev.max():.3f}; window elevation {elevated:.3f} "
           f"with collapse-revival {'present' if feature_ok else 'ABSENT'}")
