"""Pulse synthesis, geometry, compilation, and dense emulation oracles."""

import json

import numpy as np
import pytest
import scipy.linalg

from blockwalk import ctqw, kernels, prep_product as pp, rydberg as ry
from blockwalk import subspace as ss

C = ry.PhysicalConstants()


def _pulse_area(points):
    ts = np.array([t for t, _ in points])
    vs = np.array([v for _, v in points])
    return np.trapezoid(vs, ts)


# ---------------------------------------------------------------------------
# waveform synthesis


def test_pulse_area_identity_sweep():
    taus = np.concatenate([
        np.linspace(0.01, 3.0, 192),
        [0.395, 0.59, 0.79, 0.3949999, 0.5900001, 0.7900001, 2.0],
    ])
    for tau in taus:
        pts = ry.synthesize_walk_pulse(float(tau))
        area = _pulse_area(pts)
        assert abs(area - 2 * tau) <= 1e-9 * 2 * tau
        assert max(v for _, v in pts) <= C.omega_max + 1e-12


def test_pulse_regime_shapes():
    # fixed-duration triangle
    pts = ry.synthesize_walk_pulse(0.2)
    dur = max(t for t, _ in pts) - min(t for t, _ in pts)
    assert dur == pytest.approx(0.10)
    assert max(v for _, v in pts) == pytest.approx(2 * 2 * 0.2 / 0.10)
    # growing triangle at full amplitude
    pts = ry.synthesize_walk_pulse(0.5)
    dur = max(t for t, _ in pts) - min(t for t, _ in pts)
    assert dur == pytest.approx(4 * 0.5 / C.omega_max)
    assert max(v for _, v in pts) == pytest.approx(C.omega_max)
    # reduced-amplitude trapezoid, fixed 0.15 us
    pts = ry.synthesize_walk_pulse(0.7)
    dur = max(t for t, _ in pts) - min(t for t, _ in pts)
    assert dur == pytest.approx(0.15)
    assert max(v for _, v in pts) == pytest.approx(20 * 0.7)
    # full-amplitude trapezoid
    pts = ry.synthesize_walk_pulse(1.3)
    dur = max(t for t, _ in pts) - min(t for t, _ in pts)
    assert dur == pytest.approx(2 * 1.3 / C.omega_max + 0.05)
    assert max(v for _, v in pts) == pytest.approx(C.omega_max)


def test_pulse_slew_respects_rise_time():
    # full-amplitude segments never rise faster than omega_max / rise_time
    for tau in (0.2, 0.5, 0.7, 1.3, 2.6):
        pts = ry.synthesize_walk_pulse(tau)
        max_slew = C.omega_max / C.rise_time
        for (t0, v0), (t1, v1) in zip(pts[:-1], pts[1:]):
            if t1 > t0:
                assert abs(v1 - v0) / (t1 - t0) <= max_slew * (1 + 1e-9)


def test_global_phase_fragment_is_step():
    # a Hamming phasor is a zero-duration step of the Rabi phase by -gamma
    sched = ctqw.AnsatzSchedule(tau0=0.4, layers=((0.8, 0.4),),
                                phasor_kind="hamming")
    wf = ry.compile_program(sched, 5).waveform
    (t_jump, step), = wf.phase[1:]
    assert t_jump == wf.amplitude[2][0] == wf.amplitude[3][0]
    assert step == pytest.approx(-0.8)


def test_zero_phase_jump_writes_positive_zero():
    sched = ctqw.AnsatzSchedule(tau0=0.4, layers=((0.0, 0.4),),
                                phasor_kind="hamming")
    prog = ry.compile_program(sched, 5)
    assert [np.copysign(1.0, v) for _, v in prog.waveform.phase] == [1.0, 1.0]
    assert "-0.0" not in ry.program_to_json(prog)


def test_local_phase_fragment_triangles_capped():
    triangles, _, _ = ry.synthesize_local_pulse(1.5)
    for tri in triangles:
        peak = max(v for _, v in tri)
        assert peak <= C.local_detuning_cap + 1e-12
        assert _pulse_area(tri) == pytest.approx(1.5 / len(triangles))


def test_pi_local_phase_splits_in_two():
    triangles, _, warnings = ry.synthesize_local_pulse(np.pi)
    assert len(triangles) == 2
    for tri in triangles:
        assert _pulse_area(tri) == pytest.approx(np.pi / 2)
        assert max(v for _, v in tri) <= C.local_detuning_cap
    assert warnings


# ---------------------------------------------------------------------------
# geometry


ETA_BY_N = {5: 0.849, 6: 0.875, 7: 0.893, 8: 0.905,
            9: 0.914, 10: 0.920, 11: 0.924, 12: 0.927}


@pytest.mark.parametrize("n,eta", sorted(ETA_BY_N.items()))
def test_ring_eta_values(n, eta):
    got, _ = ry.ring_eta(n)
    assert got == pytest.approx(eta, abs=0.002)


def test_dynamic_radius():
    assert C.dynamic_radius(C.omega_max) == pytest.approx(8.367, abs=0.001)


def test_ring_layout_geometry():
    n = 8
    layout = ry.ring_layout(n)
    # circumradius formula with the blockade prefactor
    eta, _ = ry.ring_eta(n)
    r_d = C.dynamic_radius(None) if False else layout.diameter  # noqa: F841
    d = layout.pair_distances()
    nn = min(d[i, (i + 1) % n] for i in range(n))
    assert nn == pytest.approx(2 * layout.diameter * np.sin(np.pi / n),
                               rel=1e-9)
    # blockade radius separates edges from non-edges
    assert layout.r_max < layout.r_b < layout.r_min
    assert layout.r_b == pytest.approx(
        layout.eta * np.sqrt(layout.r_max * layout.r_min))
    assert layout.eta == pytest.approx(eta)


def test_ring_layout_row_snap_quantizes():
    layout = ry.ring_layout(9, row_snap=True)
    ys = layout.positions[:, 1]
    # all coordinates on the 0.1 um grid
    assert np.allclose(layout.positions * 10, np.round(layout.positions * 10),
                       atol=1e-9)
    # rows spaced by multiples of 2 um
    rows = np.unique(np.round(ys, 6))
    assert np.allclose((rows - rows[0]) / 2.0,
                       np.round((rows - rows[0]) / 2.0), atol=1e-9)


def test_scale_shrinks_ring():
    a = ry.ring_layout(6, scale=1.0)
    b = ry.ring_layout(6, scale=0.85)
    assert b.diameter == pytest.approx(0.85 * a.diameter)


def test_drive_off_program_sizes_ring_with_its_constants():
    # with no walk pulse there is no drive-on average, so the layout uses
    # the program's own omega_max
    consts = ry.PhysicalConstants(omega_max=10.0)
    prog = ry.compile_program(ctqw.AnsatzSchedule(tau0=0.0), 6,
                              constants=consts)
    assert not prog.waveform.amplitude
    ref = ry.ring_layout(6, consts)
    assert prog.layout.diameter == pytest.approx(ref.diameter, rel=1e-12)
    assert prog.layout.diameter == pytest.approx(7.8389, abs=1e-4)


# ---------------------------------------------------------------------------
# channel lookups


def test_linear_channel_on_back_to_back_fragments():
    # two fragments share the knot time 0.2, as compile_program writes them
    knots = ry._knots([(0.1, 2.0), (0.15, 4.0), (0.2, 0.0),
                       (0.2, 0.0), (0.25, -2.0), (0.3, 1.5)])
    t = np.array([0.05, 0.1, 0.125, 0.175, 0.2, 0.225, 0.275, 0.3, 0.4])
    want = [0.0, 2.0, 3.0, 2.0, 0.0, -1.0, -0.25, 1.5, 1.5]
    assert ry._linear_at(knots, t) == pytest.approx(want, abs=1e-12)
    # an empty channel reads 0 everywhere
    assert np.all(ry._linear_at(ry._knots([]), t) == 0.0)


def test_phase_steps_are_right_continuous():
    knots = ry._knots([(0.05, -0.8), (0.2, 0.4)])
    got = [ry._step_at(knots, t) for t in (0.0, 0.05, 0.1, 0.2, 0.3)]
    assert got == [0.0, -0.8, -0.8, 0.4, 0.4]
    assert ry._step_at(ry._knots([]), 0.1) == 0.0


# ---------------------------------------------------------------------------
# emulation oracles


def _single_atom_program(tau):
    pts = ry.synthesize_walk_pulse(tau)
    layout = ry.AtomLayout(positions=np.zeros((1, 2)), r_max=0.0,
                           r_min=np.inf, eta=1.0, r_b=0.0, diameter=0.0)
    wf = ry.Waveform(amplitude=list(pts), phase=[(0.0, 0.0)],
                     global_detuning=[(0.0, 0.0)], local_detuning=[])
    return ry.RydbergProgram(layout=layout, waveform=wf,
                             duration=max(t for t, _ in pts))


@pytest.mark.parametrize("tau", [0.3, 0.5, 0.7, 1.0, np.pi / 2])
def test_isolated_atom_rabi(tau):
    # resonant drive with integrated area 2*tau gives P(r) = sin^2(tau)
    prog = _single_atom_program(tau)
    psi = ry.emulate(prog, max_step=2e-4)
    assert abs(psi[1]) ** 2 == pytest.approx(np.sin(tau) ** 2, abs=1e-6)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)


def test_two_atom_blockade_suppression():
    # nearest-neighbor pair: double excitation bounded by the perturbative
    # bright-state estimate 2*(Omega/2V)^2
    d = 6.0
    pts = ry.synthesize_walk_pulse(1.0)
    layout = ry.AtomLayout(positions=np.array([[0.0, 0.0], [d, 0.0]]),
                           r_max=d, r_min=np.inf, eta=1.0, r_b=d,
                           diameter=0.0)
    wf = ry.Waveform(amplitude=list(pts), phase=[(0.0, 0.0)],
                     global_detuning=[(0.0, 0.0)], local_detuning=[])
    prog = ry.RydbergProgram(layout=layout, waveform=wf,
                             duration=max(t for t, _ in pts))
    psi = ry.emulate(prog, max_step=2e-4)
    v = C.c6 / d**6
    bound = 2 * (C.omega_max / (2 * v)) ** 2
    assert abs(psi[3]) ** 2 <= bound * 1.1


def test_richardson_fourth_order():
    # CF4's step error falls 16x per halving; at h = 16 ns |a - b| ~ 6e-6
    # stays far above the Krylov tolerance
    sched = ctqw.AnsatzSchedule(tau0=0.5)
    prog = ry.compile_program(sched, 5)
    h = 16e-3
    a = ry.emulate(prog, max_step=h)
    b = ry.emulate(prog, max_step=h / 2)
    c = ry.emulate(prog, max_step=h / 4)
    ratio = np.linalg.norm(a - b) / np.linalg.norm(b - c)
    assert 12.0 < ratio < 20.0
    assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)


def _dense_oracle(prog, max_step, rule="cf4"):
    """A program integrated step by step with dense expm in the lab frame.

    ``rule`` "midpoint" takes one exponential of H at each step's midpoint;
    "cf4" takes CF4:2's two half-step exponentials of the Gauss-node
    combinations 2(a2 H(t1) + a1 H(t2)), then 2(a1 H(t1) + a2 H(t2)).  Both
    are exact where H is constant or diagonal, so every interval is stepped.
    """
    n = prog.layout.n_atoms
    dim = 1 << n
    wf = prog.waveform
    bits = (np.arange(dim)[:, None] >> np.arange(n)) & 1
    dist = prog.layout.pair_distances()
    vdw = sum(C.c6 / dist[i, j] ** 6 * bits[:, i] * bits[:, j]
              for i in range(n) for j in range(i + 1, n))
    local_n = (bits @ wf.local_weights if wf.local_weights is not None
               else np.zeros(dim))
    lower = np.zeros((dim, dim))  # sum_i |g><r|_i
    for b in range(dim):
        for i in range(n):
            if not (b >> i) & 1:
                lower[b, b | (1 << i)] = 1.0
    amp_t, amp_v = zip(*wf.amplitude)
    loc = list(zip(*wf.local_detuning)) or [(0.0,), (0.0,)]
    ph_t, ph_v = zip(*wf.phase)

    def hamiltonian(t, weights, phi):
        om = weights @ np.interp(t, amp_t, amp_v, left=0.0, right=0.0)
        dl = weights @ np.interp(t, *loc, left=0.0, right=0.0)
        drive = 0.5 * om * np.exp(1j * phi) * lower
        return np.diag(vdw + dl * local_n) + drive + drive.conj().T

    a1, a2 = 0.25 - np.sqrt(3) / 6, 0.25 + np.sqrt(3) / 6
    ref = np.zeros(dim, dtype=complex)
    ref[0] = 1.0
    knots = sorted({0.0, prog.duration}
                   | {t for t, _ in wf.amplitude + wf.local_detuning + wf.phase})
    for a, b in zip(knots[:-1], knots[1:]):
        if b <= a:
            continue
        steps = max(1, int(np.ceil((b - a) / max_step)))
        dt = (b - a) / steps
        for s in range(steps):
            tm = a + (s + 0.5) * dt
            phi = ph_v[np.searchsorted(ph_t, tm, side="right") - 1]
            if rule == "midpoint":
                exps = [(dt, hamiltonian([tm], np.ones(1), phi))]
            else:
                off = dt / (2 * np.sqrt(3))
                nodes = [tm - off, tm + off]
                exps = [(dt / 2, hamiltonian(nodes, 2 * np.array(w), phi))
                        for w in ((a2, a1), (a1, a2))]
            for d, h in exps:
                ref = scipy.linalg.expm(-1j * d * h) @ ref
    return ref


def _four_atom_program(amp, loc, phase):
    """Four atoms on a 7 x 7.5 um rectangle, unequal local weights."""
    pos = np.array([[0.0, 0.0], [7.0, 0.0], [7.0, 7.5], [0.0, 7.5]])
    layout = ry.AtomLayout(positions=pos, r_max=7.5, r_min=np.hypot(7.0, 7.5),
                           eta=1.0, r_b=7.5, diameter=0.0)
    wf = ry.Waveform(amplitude=amp, phase=phase, global_detuning=[(0.0, 0.0)],
                     local_detuning=loc,
                     local_weights=np.array([1.0, 0.0, 0.5, 1.0]))
    duration = max(t for t, _ in amp + loc + phase)
    return ry.RydbergProgram(layout=layout, waveform=wf, duration=duration)


def test_emulate_matches_dense_cf4_steps():
    # drive, weighted local detuning and a drive-phase jump on four atoms;
    # the oracle exponentiates the dense 16x16 Hamiltonian at every step
    max_step = 5e-3
    prog = _four_atom_program(
        amp=[(0.0, 0.0), (0.05, 12.0), (0.25, 12.0), (0.3, 0.0)],
        loc=[(0.1, 0.0), (0.15, 25.0), (0.2, 0.0)],
        phase=[(0.0, 0.0), (0.12, -0.9)])
    psi = ry.emulate(prog, max_step=max_step)
    ref = _dense_oracle(prog, max_step)
    assert np.linalg.norm(psi - ref) < 1e-10
    assert abs(psi[1]) > 0.05  # the drive moved population


def test_ramp_shorter_than_max_step_takes_cf4_step():
    # 3 ns drive ramps and 2 ns local-detuning ramps, each one CF4 step at
    # the default max_step; a ramp must not be taken for a plateau because
    # its single step has one midpoint
    prog = _four_atom_program(
        amp=[(0.0, 0.0), (0.003, 15.0), (0.01, 15.0), (0.013, 0.0)],
        loc=[(0.004, 0.0), (0.006, 40.0), (0.008, 40.0), (0.01, 0.0)],
        phase=[(0.0, 0.0)])
    assert 0.003 < ry.MAX_STEP
    psi = ry.emulate(prog)
    assert np.linalg.norm(psi - _dense_oracle(prog, ry.MAX_STEP)) < 1e-10
    midpoint = _dense_oracle(prog, ry.MAX_STEP, rule="midpoint")
    assert np.linalg.norm(psi - midpoint) > 1e-8


def _ring6_program():
    """Ring-6 product program: two full-amplitude plateaus, local triangles."""
    z = ss.str_to_bits(ss.half_target(6))
    return ry.compile_program(pp.product_schedule(0.95, 0.85, 1, 6, z), 6,
                              scale=0.8)


def test_emulate_compiled_product_program_matches_dense_cf4_oracle():
    # both walks are long enough for full-amplitude plateaus (tau > 0.79),
    # taken as one step each, and the pi-phase layer is drive-off local
    # triangles, taken as one diagonal exponential per knot interval
    max_step = 5e-3
    prog = _ring6_program()
    amp = prog.waveform.amplitude
    plateaus = [(t0, t1) for (t0, v0), (t1, v1) in zip(amp[:-1], amp[1:])
                if v0 == v1 > 0 and t1 > t0]
    assert len(plateaus) == 2
    assert prog.waveform.local_detuning
    psi = ry.emulate(prog, max_step=max_step)
    ref = _dense_oracle(prog, max_step)
    assert np.linalg.norm(psi - ref) < 1e-10
    assert abs(psi[0]) < 0.99  # the drive moved population


def test_emulate_hamming_phase_jumps_match_dense_cf4_oracle():
    # three drive-phase jumps, each a diagonal multiply in the phi = 0 frame
    n, max_step = 5, 5e-3
    sched = ctqw.AnsatzSchedule(
        tau0=0.45, layers=((0.9, 0.5), (-1.3, 0.85), (2.2, 0.3)),
        phasor_kind="hamming")
    prog = ry.compile_program(sched, n, scale=0.8)
    assert len({v for _, v in prog.waveform.phase}) == 4
    psi = ry.emulate(prog, max_step=max_step)
    ref = _dense_oracle(prog, max_step)
    assert np.linalg.norm(psi - ref) < 1e-10
    assert abs(psi[0]) < 0.99


def test_default_step_beats_one_ns_midpoint_rule():
    # against CF4 at a 16x finer step, the default step's state error is at
    # most a fifth of the 1 ns midpoint rule's (measured 6.1e-6 vs 8.3e-5)
    prog = _ring6_program()
    ref = ry.emulate(prog, max_step=ry.MAX_STEP / 16)
    err = np.linalg.norm(ry.emulate(prog) - ref)
    err_midpoint = np.linalg.norm(_dense_oracle(prog, 1e-3, "midpoint") - ref)
    assert err <= err_midpoint / 5


def test_default_step_fails_no_krylov_attempt(monkeypatch):
    # a failed Lanczos attempt throws its matvecs away and restarts with
    # twice the steps, so a step default that overruns KRYLOV_DIM would
    # silently double the work
    results = []
    step = ctqw._expm_krylov_step

    def recorded(*args):
        out = step(*args)
        results.append(out[1])
        return out

    monkeypatch.setattr(ctqw, "_expm_krylov_step", recorded)
    ry.emulate(_ring6_program())
    assert results and all(results)


def _ring_plateau(n):
    """The ring's (scale 0.8) Rydberg Hamiltonian at full drive: the kernel
    matvec, the list its calls append to, and the dense matrix."""
    dist = ry.ring_layout(n, scale=0.8).pair_distances()
    dim = 1 << n
    bits = (np.arange(dim)[:, None] >> np.arange(n)) & 1
    vdw = sum(C.c6 / dist[i, j] ** 6 * bits[:, i] * bits[:, j]
              for i in range(n) for j in range(i + 1, n))
    h = np.diag(vdw).astype(complex)
    idx = np.arange(dim)
    for i in range(n):
        h[idx, idx ^ (1 << i)] = 0.5 * C.omega_max
    calls = []

    def matvec(x):
        calls.append(1)
        return kernels.rydberg_apply(x, vdw, C.omega_max, 0.0, n)
    return matvec, calls, h


def test_krylov_plateau_step_on_ten_atoms_matches_expm():
    # a 40 ns plateau is one Lanczos step of more than 40 vectors; by the
    # 40th the unreorthogonalised basis is off orthogonal by ~5e-2
    matvec, calls, h = _ring_plateau(10)
    psi = np.zeros(1 << 10, dtype=complex)
    psi[0] = 1.0
    got = ctqw.expm_krylov(matvec, psi, 0.04)
    assert 40 <= len(calls) <= ctqw.KRYLOV_DIM
    ref = scipy.linalg.expm(-1j * 0.04 * h) @ psi
    assert np.linalg.norm(got - ref) < 1e-12


def test_krylov_step_closes_on_ring_rotation_sector():
    # from |0...0> the ring-5 Hamiltonian only reaches the 8 rotation-
    # symmetric states (one per rotation orbit); with ||H|| tau ~ 250 the
    # step converges at 8 vectors only because the Krylov space closes there
    matvec, calls, h = _ring_plateau(5)
    psi = np.zeros(1 << 5, dtype=complex)
    psi[0] = 1.0
    got = ctqw.expm_krylov(matvec, psi, 0.5)
    assert len(calls) == 8
    ref = scipy.linalg.expm(-1j * 0.5 * h) @ psi
    assert np.linalg.norm(got - ref) < 1e-12


def test_emulation_kernel_calls_stay_bounded(monkeypatch):
    # the Krylov error estimate is checked at every vector from the 6th to
    # the 16th, so a 2.5 ns CF4 half-step on a ramp stops at its first
    # converged vector. 828 calls measured at the default 5 ns step (1699
    # with 1 ns midpoint steps); the cap is that count plus 2%
    prog = _ring6_program()
    calls = []
    apply = kernels.rydberg_apply

    def counted(*args):
        calls.append(1)
        return apply(*args)

    monkeypatch.setattr(kernels, "rydberg_apply", counted)
    ry.emulate(prog)
    assert len(calls) <= 844


def test_single_pulse_leakage_guard_compressed():
    # at the compressed variational scale the blockade holds a single walk
    # pulse inside the independent-set subspace (see the decision log for
    # the default-scale values)
    for n in (5, 6, 7, 8):
        basis = ss.enumerate_subspace(ss.ring_graph(n))
        sched = ctqw.AnsatzSchedule(tau0=1.0)
        prog = ry.compile_program(sched, n, scale=0.8)
        psi = ry.emulate(prog, max_step=1e-3)
        in_sub = ry.project_to_subspace(psi, basis)
        leakage = 1.0 - float(np.vdot(in_sub, in_sub).real)
        assert leakage <= 0.05


def test_compile_orders_fragments():
    n = 5
    z = ss.str_to_bits("00101")
    sched = ctqw.AnsatzSchedule(
        tau0=0.4, layers=((0.9, 0.4),), phasor_kind="hamming")
    prog = ry.compile_program(sched, n)
    # hamming phasor compiles to a zero-duration drive-phase step of -gamma
    phases = [v for _, v in prog.waveform.phase]
    assert any(np.isclose(p, -0.9) for p in np.diff(phases))
    # local phasor compiles to gated local-detuning triangles instead
    sched2 = ctqw.AnsatzSchedule(
        tau0=0.4, layers=((0.9, 0.4),), phasor_kind="local",
        target_mask=(~z) & ((1 << n) - 1))
    prog2 = ry.compile_program(sched2, n)
    assert prog2.waveform.local_detuning
    assert prog2.waveform.local_weights is not None
    mask_bits = [(z >> i) & 1 ^ 1 for i in range(n)]
    assert np.allclose(prog2.waveform.local_weights, mask_bits)


def test_program_json_round_trip_fields():
    sched = ctqw.AnsatzSchedule(tau0=0.5, layers=((0.3, 0.5),),
                                phasor_kind="hamming")
    prog = ry.compile_program(sched, 6)
    d = json.loads(ry.program_to_json(prog))
    assert "channels" in d and "positions_um" in d
    assert len(d["positions_um"]) == 6


# ---------------------------------------------------------------------------
# shots


def test_shot_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    full = rng.normal(size=32) + 1j * rng.normal(size=32)
    full /= np.linalg.norm(full)
    shots = ry.sample_shots(full, 5, 500, p00=0.99, p11=0.93, seed=11)
    path = tmp_path / "shots.txt"
    ry.write_shot_file(str(path), shots)
    back = ry.read_shot_file(str(path))
    assert back.n_bits == 5 and back.p00 == 0.99 and back.p11 == 0.93
    assert np.array_equal(back.shots, shots.shots)


def test_shot_sampling_deterministic_and_biased():
    full = np.zeros(4, dtype=complex)
    full[3] = 1.0  # both atoms excited
    a = ry.sample_shots(full, 2, 4000, p00=1.0, p11=0.9, seed=5)
    b = ry.sample_shots(full, 2, 4000, p00=1.0, p11=0.9, seed=5)
    assert np.array_equal(a.shots, b.shots)
    # each excited bit survives with probability p11
    ones = sum(ss.popcount(int(s)) for s in a.shots) / (2 * 4000)
    assert ones == pytest.approx(0.9, abs=0.02)


def test_identity_channel_exact_sampling():
    full = np.zeros(8, dtype=complex)
    full[5] = 1.0
    shots = ry.sample_shots(full, 3, 100, p00=1.0, p11=1.0, seed=0)
    assert all(int(s) == 5 for s in shots.shots)
