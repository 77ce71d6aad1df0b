"""Compile abstract walk schedules into analog Rydberg programs and emulate them.

A walk segment of unitless time tau becomes a Rabi pulse of integrated area
2*tau; Hamming phasors become instantaneous drive-phase jumps; local-mask
phasors become gated-off triangles on the local detuning channel.  Atoms sit
on a circle sized so the van der Waals blockade enforces the ring's
independent-set constraint, with the perturbative prefactor eta shrinking the
blockade radius to balance first-order corrections against long-range tails.

Emulation integrates the full 2^n state in the frame where the drive phase
is zero, so phase jumps are diagonal multiplies and every drive action is the
kernel's real product with the hypercube adjacency, factored over the high
and low halves of the bits.  Knot intervals where the drive is off or the
pulse is flat are integrated exactly in one step; ramps use the midpoint rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import json
import numpy as np

from . import kernels
from .ctqw import AnsatzSchedule, expm_krylov
from .subspace import SubspaceBasis

__all__ = [
    "PhysicalConstants",
    "AtomLayout",
    "Waveform",
    "RydbergProgram",
    "ShotSet",
    "ring_eta",
    "compute_eta",
    "ring_layout",
    "synthesize_walk_pulse",
    "synthesize_local_pulse",
    "compile_program",
    "emulate",
    "project_to_subspace",
    "sample_shots",
    "write_shot_file",
    "read_shot_file",
    "program_to_json",
]

# documented reference constants for non-ring geometries
CHAIN_N_B, CHAIN_N_U = 2.0, 2.220
KINGS_N_B, KINGS_N_U = 2.25, 7.791
MAX_EMULATED_ATOMS = kernels.MAX_DRIVE_ATOMS  # dense 2^n state vector


@dataclass(frozen=True)
class PhysicalConstants:
    c6: float = 5420503.0            # um^6 rad/us
    omega_max: float = 15.8          # rad/us
    rise_time: float = 0.05          # us
    local_detuning_cap: float = 62.0  # rad/us

    def dynamic_radius(self, omega: float) -> float:
        """Distance where the interaction equals the drive strength."""
        return (self.c6 / omega) ** (1.0 / 6.0)


@dataclass(frozen=True)
class AtomLayout:
    positions: np.ndarray   # (n, 2) um
    r_max: float            # largest blockaded (edge) distance
    r_min: float            # smallest unblockaded (non-edge) distance
    eta: float
    r_b: float              # blockade radius eta*sqrt(r_min*r_max)
    diameter: float         # circumradius D for ring layouts (0 otherwise)

    @property
    def n_atoms(self) -> int:
        return len(self.positions)

    def pair_distances(self) -> np.ndarray:
        p = self.positions
        return np.linalg.norm(p[:, None, :] - p[None, :, :], axis=2)


def ring_eta(n: int) -> tuple[float, float]:
    """Blockade prefactor and per-vertex error norm for an n-ring.

    n_b = 2 nearest neighbors; unblockaded pairs are weighted by the
    twelfth-power interaction ratio relative to twice the neighbor distance,
    so the sum reduces to the infinite-chain convention as n grows.
    """
    if n < 5:
        raise ValueError("ring eta defined for n >= 5")
    d = lambda k: 2.0 * np.sin(k * np.pi / n)
    n_b = 2.0
    n_u = 0.0
    for k in range(2, n // 2 + 1):
        mult = 1.0 if (n % 2 == 0 and k == n // 2) else 2.0
        n_u += mult * (2.0 * d(1) / d(k)) ** 12
    eta = (n_b / (4.0 * n_u)) ** (1.0 / 24.0)
    return eta, n_u


def compute_eta(
    kind: str = "ring",
    n: Optional[int] = None,
    constants: PhysicalConstants = PhysicalConstants(),
) -> tuple[float, float]:
    """(eta, ||H_err||/N) for a supported geometry.

    ``ring`` computes the finite-ring sums; ``chain`` and ``kings`` use the
    documented reference edge counts.  The error norm uses the minimized form
    sqrt(n_b*n_u) * Omega^2 * (r_max/r_min)^6.
    """
    if kind == "ring":
        if n is None:
            raise ValueError("ring eta needs n")
        eta, n_u = ring_eta(n)
        n_b = 2.0
        ratio = np.sin(np.pi / n) / np.sin(2.0 * np.pi / n)
    elif kind == "chain":
        n_b, n_u, ratio = CHAIN_N_B, CHAIN_N_U, 0.5
        eta = (n_b / (4.0 * n_u)) ** (1.0 / 24.0)
    elif kind == "kings":
        n_b, n_u, ratio = KINGS_N_B, KINGS_N_U, 1.0 / np.sqrt(2.0)
        eta = (n_b / (4.0 * n_u)) ** (1.0 / 24.0)
    else:
        raise ValueError(f"unknown geometry kind {kind!r}")
    err = np.sqrt(n_b * n_u) * constants.omega_max**2 * ratio**6
    return float(eta), float(err)


def ring_layout(
    n: int,
    constants: PhysicalConstants = PhysicalConstants(),
    omega_avg: Optional[float] = None,
    eta: Optional[float] = None,
    scale: float = 1.0,
    row_snap: bool = False,
) -> AtomLayout:
    """n atoms equally spaced on a circle sized for nearest-neighbor blockade.

    D = r_d / (2 eta sqrt(sin(pi/n) sin(2pi/n))) with r_d the dynamic blockade
    radius at the average drive strength; ``scale`` is an optional variational
    factor on D.  ``row_snap`` quantizes coordinates to 0.1 um after flattening
    onto 2 um rows, mirroring hardware placement constraints.
    """
    if n < 3:
        raise ValueError("need at least 3 atoms")
    om = constants.omega_max if omega_avg is None else omega_avg
    if eta is None:
        eta = ring_eta(n)[0] if n >= 5 else 1.0
    r_d = constants.dynamic_radius(om)
    diam = scale * r_d / (2.0 * eta * np.sqrt(np.sin(np.pi / n) * np.sin(2.0 * np.pi / n)))
    theta = np.linspace(0.0, 2.0 * np.pi, n + 1)[:n]
    pos = np.stack([diam * np.sin(theta), diam * np.cos(theta)], axis=1)
    if row_snap:
        pos[:, 1] = np.round(pos[:, 1] / 2.0) * 2.0
        pos = np.round(pos * 10.0) / 10.0
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=2)
    edge_d, nonedge_d = [], []
    for i in range(n):
        for j in range(i + 1, n):
            if j - i == 1 or (i == 0 and j == n - 1):
                edge_d.append(dist[i, j])
            else:
                nonedge_d.append(dist[i, j])
    r_max = float(max(edge_d))
    r_min = float(min(nonedge_d)) if nonedge_d else float("inf")
    return AtomLayout(
        positions=pos,
        r_max=r_max,
        r_min=r_min,
        eta=float(eta),
        r_b=float(eta * np.sqrt(r_min * r_max)) if nonedge_d else float(r_max),
        diameter=float(diam),
    )


# ---------------------------------------------------------------------------
# waveform synthesis


@dataclass
class Waveform:
    """Time-aligned piecewise-linear channels.

    Each channel is a list of (time_us, value) breakpoints; ``local_weights``
    scales the shared local-detuning trace per site.  ``phase`` changes are
    zero-duration steps.  The local-detuning value multiplies +n_i in the
    Hamiltonian, so a positive-area triangle accumulates exp(-i*area*n).
    """

    amplitude: list = field(default_factory=list)      # Omega(t)
    phase: list = field(default_factory=list)          # phi(t), stepwise
    global_detuning: list = field(default_factory=list)
    local_detuning: list = field(default_factory=list)
    local_weights: Optional[np.ndarray] = None
    warnings: list = field(default_factory=list)


# pulse regimes: boundary where the fixed 0.10 us triangle hits the cap
_TRIANGLE_DUR = 0.10
_REGIME_TRAP_LOW, _REGIME_TRAP_HIGH = 0.59, 0.79


def synthesize_walk_pulse(
    tau: float, constants: PhysicalConstants = PhysicalConstants()
) -> tuple[list, list]:
    """Rabi fragment of integrated area exactly 2*tau.

    Returns (breakpoints, warnings); breakpoints are (t, Omega) starting at 0.
    Short pulses are triangles (fixed 0.10 us, then stretched once the peak
    hits the cap); longer ones are trapezoids, first at reduced amplitude over
    0.15 us, then at full amplitude with a growing plateau.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    om = constants.omega_max
    area = 2.0 * tau
    tri_dur = max(_TRIANGLE_DUR, 2.0 * area / om)
    if tau < _REGIME_TRAP_LOW:
        # triangle: area = dur*peak/2
        peak = 2.0 * area / tri_dur
        pts = [(0.0, 0.0), (tri_dur / 2.0, peak), (tri_dur, 0.0)]
    elif tau <= _REGIME_TRAP_HIGH:
        # reduced-amplitude trapezoid over 0.15 us: 0.05 ramps, 0.05 plateau
        peak = area / 0.10
        pts = [(0.0, 0.0), (0.05, peak), (0.10, peak), (0.15, 0.0)]
    else:
        # full-amplitude trapezoid, plateau stretches with tau
        plateau = area / om - constants.rise_time
        pts = [
            (0.0, 0.0),
            (constants.rise_time, om),
            (constants.rise_time + plateau, om),
            (2.0 * constants.rise_time + plateau, 0.0),
        ]
    peak_val = max(v for _, v in pts)
    if peak_val > om * (1.0 + 1e-12):
        raise ValueError(f"pulse for tau={tau} exceeds amplitude cap")
    return pts, []


_LOCAL_PULSE_DUR = 0.10


def synthesize_local_pulse(
    phi, constants: PhysicalConstants = PhysicalConstants()
) -> tuple[list, Optional[np.ndarray], list]:
    """Gated-off local-detuning triangles imprinting the per-site phases phi.

    Returns (triangles, weights, warnings).  The shared triangle carries the
    maximum phase as area and the per-site weights in [0, 1] scale it; areas
    beyond cap*0.05 us (a 0.10 us triangle at the cap) split into repeated
    triangles, with a warning.  All-zero phases need no pulse.
    """
    phi = np.asarray(phi, dtype=float)
    phi_max = float(np.max(np.abs(phi)))
    warnings = []
    if phi_max == 0.0:
        return [], None, []
    weights = np.abs(phi) / phi_max
    sign = 1.0 if phi.flat[np.argmax(np.abs(phi))] >= 0 else -1.0
    if np.any(np.sign(phi[np.abs(phi) > 0]) != sign):
        raise ValueError("local phases must share a sign (weights in [0,1])")
    # triangle of duration 0.1 us: peak = 2*area/0.1; cap limits area per pulse
    max_area = constants.local_detuning_cap * _LOCAL_PULSE_DUR / 2.0
    n_pulses = int(np.ceil(phi_max / max_area - 1e-12))
    if n_pulses > 1:
        warnings.append(
            f"local phase {phi_max:.3f} exceeds single-pulse area "
            f"{max_area:.3f}; split into {n_pulses} triangles"
        )
    area_each = sign * phi_max / n_pulses
    peak = 2.0 * area_each / _LOCAL_PULSE_DUR
    tri = [(0.0, 0.0), (_LOCAL_PULSE_DUR / 2.0, peak), (_LOCAL_PULSE_DUR, 0.0)]
    return [tri] * n_pulses, weights, warnings


@dataclass
class RydbergProgram:
    layout: AtomLayout
    waveform: Waveform
    duration: float
    schedule: Optional[AnsatzSchedule] = None
    constants: PhysicalConstants = PhysicalConstants()


def _append_shifted(channel: list, pts: Sequence, t0: float) -> None:
    for t, v in pts:
        channel.append((t0 + t, v))


def compile_program(
    schedule: AnsatzSchedule,
    n: int,
    constants: PhysicalConstants = PhysicalConstants(),
    eta: Optional[float] = None,
    scale: float = 1.0,
    row_snap: bool = False,
    layout: Optional[AtomLayout] = None,
) -> RydbergProgram:
    """Concatenate pulse fragments in ansatz order over a ring layout.

    Geometry uses the time-average of Omega(t) over drive-on intervals,
    recomputed once after the waveform is known (single fixed-point pass).
    Global detuning stays identically zero.
    """
    schedule.validate()
    wf = Waveform()
    wf.phase.append((0.0, 0.0))
    wf.global_detuning.append((0.0, 0.0))
    t, phase_now = 0.0, 0.0
    segments = [("walk", schedule.tau0)]
    for gamma, tau in schedule.layers:
        segments.append(("phase", gamma))
        segments.append(("walk", tau))
    for kind, val in segments:
        if kind == "walk":
            if val == 0.0:
                continue
            pts, _ = synthesize_walk_pulse(val, constants)
            _append_shifted(wf.amplitude, pts, t)
            t += pts[-1][0]
        elif schedule.phasor_kind == "hamming":
            # a zero-duration step of the Rabi phase by -gamma
            if abs(val) > 2.0 * np.pi:
                raise ValueError("phase jump exceeds 2*pi")
            phase_now -= float(val)
            wf.phase.append((t, phase_now))
        else:
            mask = schedule.target_mask
            phi = np.array([val if (mask >> i) & 1 else 0.0 for i in range(n)])
            triangles, weights, warnings = synthesize_local_pulse(phi, constants)
            wf.warnings.extend(warnings)
            if wf.local_weights is None:
                wf.local_weights = weights
            for tri in triangles:
                wf.local_detuning.append((t, 0.0))
                _append_shifted(wf.local_detuning, tri[1:], t)
                t += tri[-1][0]
    duration = t
    # single fixed-point pass: recompute geometry at the drive-on average of Omega
    omega_avg = _drive_on_average(wf.amplitude)
    if layout is None:
        layout = ring_layout(n, constants, omega_avg=omega_avg, eta=eta,
                             scale=scale, row_snap=row_snap)
    return RydbergProgram(
        layout=layout, waveform=wf, duration=duration,
        schedule=schedule, constants=constants,
    )


def _drive_on_average(amplitude: list) -> Optional[float]:
    """Time-average of Omega(t) over the intervals where the drive is on;
    None when it is never on."""
    area = on_time = 0.0
    for (t0, v0), (t1, v1) in zip(amplitude[:-1], amplitude[1:]):
        if t1 <= t0:
            continue
        if v0 > 0 or v1 > 0:
            area += 0.5 * (v0 + v1) * (t1 - t0)
            on_time += t1 - t0
    return area / on_time if on_time > 0 else None


# ---------------------------------------------------------------------------
# emulation


def _knots(channel: list) -> tuple:
    """(times, values) arrays of a channel's breakpoints; empty reads 0."""
    ts, vs = np.array(channel or [(0.0, 0.0)], dtype=float).T
    return ts, vs


def _linear_at(knots: tuple, t):
    """Piecewise-linear channel at time(s) t: 0 before the first knot, the
    last value after the last one."""
    return np.interp(t, *knots, left=0.0)


def _step_at(knots: tuple, t: float) -> float:
    """Stepwise channel at time t: the value of the last knot at or before t
    (right-continuous), 0 before the first."""
    k = int(np.searchsorted(knots[0], t, side="right"))
    return float(knots[1][k - 1]) if k else 0.0


def emulate(program: RydbergProgram, max_step: float = 1e-3) -> np.ndarray:
    """Dense 2^n integration of the time-dependent Rydberg Hamiltonian.

    H(t) = sum_i Omega(t)/2 (e^{i phi}|g><r|_i + h.c.) + delta(t) w_i n_i
         + sum_{i<j} C6/r_ij^6 n_i n_j.

    The state is carried in the frame where phi = 0: H(phi) = U H(0) U^dagger
    with U = e^{-i phi N} and N the excitation count, so a drive-phase jump is
    a diagonal multiply and every drive action is the kernel's real factored
    hypercube product.  Between consecutive channel knots every channel is
    linear, and each knot interval is integrated in one of three ways:

    - drive off (Omega = 0): H is diagonal, so one exact exponential of
      T * V_vdW + (area of the linear delta) * w.n;
    - Omega and delta both constant (pulse plateaus): H is constant, so one
      adaptive Krylov ``expm_krylov`` step over the whole interval;
    - otherwise (ramps): the second-order midpoint exponential rule at steps
      of at most ``max_step`` (1 ns default), each step by ``expm_krylov``.

    The midpoint rule is exact on the first two kinds, so all three agree
    with midpoint stepping to rounding; only the ramps carry its step error.
    """
    n = program.layout.n_atoms
    if n > MAX_EMULATED_ATOMS:
        raise ValueError(
            f"dense emulation supported for n <= {MAX_EMULATED_ATOMS}")
    dim = 1 << n
    psi = np.zeros(dim, dtype=complex)
    psi[0] = 1.0
    dist = program.layout.pair_distances()
    c6 = program.constants.c6
    idx = np.arange(dim)
    bits = ((idx[:, None] >> np.arange(n)[None, :]) & 1).astype(np.float64)
    vdw = np.zeros(dim)
    for i in range(n):
        for j in range(i + 1, n):
            vdw += (c6 / dist[i, j] ** 6) * bits[:, i] * bits[:, j]
    excitations = bits.sum(axis=1)
    wf = program.waveform
    local_n = bits @ wf.local_weights if wf.local_weights is not None else None

    def diagonal(dl):
        return vdw if local_n is None or dl == 0.0 else vdw + dl * local_n

    def propagate(v, om, dl, dt):
        diag = diagonal(dl)

        def apply_h(x):
            return kernels.rydberg_apply(x, diag, om, 0.0, n)

        return expm_krylov(apply_h, v, dt)

    amp, loc = _knots(wf.amplitude), _knots(wf.local_detuning)
    phase = _knots(wf.phase)
    # integration breakpoints: all channel knots, then sub-divide to max_step
    knots = np.unique(np.concatenate([[0.0, program.duration],
                                      amp[0], loc[0], phase[0]]))

    frame_phi = 0.0  # psi holds e^{i frame_phi N} times the lab-frame state
    for a, b in zip(knots[:-1], knots[1:]):
        steps = max(1, int(np.ceil((b - a) / max_step)))
        dt = (b - a) / steps
        mids = a + (np.arange(steps) + 0.5) * dt
        phi = _step_at(phase, mids[0])
        if phi != frame_phi:
            psi *= np.exp(1j * (phi - frame_phi) * excitations)
            frame_phi = phi
        # channels are linear on the interval: equal values at the first and
        # last step midpoints mean the channel is constant on it
        om, dl = _linear_at(amp, mids), _linear_at(loc, mids)
        if om[0] == 0.0 and om[-1] == 0.0:
            # the mean of a linear delta times the length is its exact area
            psi *= np.exp(-1j * (b - a) * diagonal(0.5 * (dl[0] + dl[-1])))
        elif om[0] == om[-1] and dl[0] == dl[-1]:
            psi = propagate(psi, om[0], dl[0], b - a)
        else:
            for om_s, dl_s in zip(om, dl):
                psi = propagate(psi, om_s, dl_s, dt)
    if frame_phi != 0.0:
        psi *= np.exp(-1j * frame_phi * excitations)
    return psi


def project_to_subspace(full: np.ndarray, basis: SubspaceBasis) -> np.ndarray:
    """Amplitudes on the blockade subspace (not renormalized)."""
    return full[basis.states]


# ---------------------------------------------------------------------------
# shots


@dataclass(frozen=True)
class ShotSet:
    n_bits: int
    shots: np.ndarray     # uint64 bitmasks
    p00: float
    p11: float
    seed: Optional[int] = None

    def __len__(self) -> int:
        return len(self.shots)

    def bitstrings(self) -> list:
        return [format(int(s), f"0{self.n_bits}b") for s in self.shots]


def sample_shots(
    full_state: np.ndarray,
    n_bits: int,
    shots: int,
    p00: float = 1.0,
    p11: float = 1.0,
    seed: Optional[int] = None,
) -> ShotSet:
    """Z-basis samples with independent per-bit asymmetric readout flips."""
    if shots < 1:
        raise ValueError("need at least one shot")
    rng = np.random.default_rng(seed)
    probs = np.abs(full_state) ** 2
    probs = probs / probs.sum()
    raw = rng.choice(len(probs), size=shots, p=probs).astype(np.uint64)
    if p00 < 1.0 or p11 < 1.0:
        out = np.zeros(shots, dtype=np.uint64)
        for i in range(n_bits):
            bit = (raw >> np.uint64(i)) & np.uint64(1)
            u = rng.random(shots)
            keep1 = u < p11
            keep0 = u < p00
            new_bit = np.where(bit == 1, keep1.astype(np.uint64),
                               (~keep0).astype(np.uint64))
            out |= new_bit << np.uint64(i)
        raw = out
    return ShotSet(n_bits=n_bits, shots=raw, p00=p00, p11=p11, seed=seed)


def write_shot_file(path: str, shot_set: ShotSet) -> None:
    with open(path, "w") as f:
        f.write(
            f"# n={shot_set.n_bits} shots={len(shot_set)} "
            f"p00={shot_set.p00} p11={shot_set.p11} seed={shot_set.seed}\n"
        )
        for s in shot_set.bitstrings():
            f.write(s + "\n")


def read_shot_file(path: str) -> ShotSet:
    with open(path) as f:
        header = f.readline().strip()
        if not header.startswith("#"):
            raise ValueError("shot file missing header")
        meta = dict(kv.split("=") for kv in header[1:].split())
        masks = [int(line.strip(), 2) for line in f if line.strip()]
    seed = None if meta.get("seed") in (None, "None") else int(meta["seed"])
    return ShotSet(
        n_bits=int(meta["n"]),
        shots=np.array(masks, dtype=np.uint64),
        p00=float(meta["p00"]),
        p11=float(meta["p11"]),
        seed=seed,
    )


def program_to_json(program: RydbergProgram) -> str:
    """Stable JSON export: positions plus channel breakpoint lists."""
    pos = np.round(program.layout.positions * 10.0) / 10.0
    doc = {
        "version": 1,
        "n_atoms": program.layout.n_atoms,
        "positions_um": pos.tolist(),
        "duration_us": program.duration,
        "channels": {
            "rabi_amplitude": program.waveform.amplitude,
            "rabi_phase": program.waveform.phase,
            "global_detuning": program.waveform.global_detuning,
            "local_detuning": program.waveform.local_detuning,
            "local_weights": (
                program.waveform.local_weights.tolist()
                if program.waveform.local_weights is not None else None
            ),
        },
        "warnings": program.waveform.warnings,
    }
    return json.dumps(doc, indent=2, sort_keys=True)
