"""Scheduling and phase optimization for orbit-superposition (bracelet) targets.

The walk from the all-zeros state never leaves the dihedral-symmetric sector,
so everything here runs in the exponentially smaller orbit basis: scan the
bare walk for population peaks, fix walk times from the chosen peak, then
optimize the interleaved Hamming-phasor phases with COBYLA.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.optimize

from .ctqw import AnsatzSchedule, WalkGenerator
from .subspace import (
    DihedralOrbit,
    SubspaceBasis,
    all_orbits,
    bracelet_vector,
    popcount,
)

__all__ = [
    "PlanInfeasibleError",
    "PeakScan",
    "BraceletPlan",
    "ReducedWalk",
    "reduced_walk",
    "peak_scan",
    "plan_from_peak",
    "evaluate_bracelet",
    "optimize_bracelet",
    "prepare_bracelet",
]

TAU_MIN_HW = 0.4
COBYLA_RHOBEG = 0.5
COBYLA_TOL = 1e-6


class PlanInfeasibleError(ValueError):
    """Total walk time too short to fit the minimum-depth schedule."""


@dataclass(frozen=True)
class ReducedWalk:
    """Walk generator restricted to the dihedral-symmetric sector.

    Columns of the full-to-reduced isometry are equal-weight orbit
    superpositions; the reduced generator is real symmetric and exponentially
    smaller than the full subspace.
    """

    basis: SubspaceBasis
    orbits: tuple
    matrix: np.ndarray          # reduced generator, (d, d)
    eigenvalues: np.ndarray     # ascending
    eigenvectors: np.ndarray    # columns
    weights: np.ndarray         # Hamming weight of each orbit
    start_index: int            # orbit of the all-zeros string

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def orbit_index(self, orbit: DihedralOrbit) -> int:
        for i, o in enumerate(self.orbits):
            if o.representative == orbit.representative:
                return i
        raise ValueError("orbit not part of this basis")

    def evolve(self, vec: np.ndarray, tau: float) -> np.ndarray:
        v = self.eigenvectors
        return v @ (np.exp(-1j * tau * self.eigenvalues) * (v.conj().T @ vec))

    def phasor(self, vec: np.ndarray, gamma: float) -> np.ndarray:
        return vec * np.exp(-1j * gamma * self.weights)

    def start_vector(self) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.start_index] = 1.0
        return vec


def reduced_walk(gen: WalkGenerator) -> ReducedWalk:
    """Project the generator onto the orbit-superposition basis."""
    basis = gen.basis
    orbits = tuple(all_orbits(basis))
    d = len(orbits)
    iso = np.zeros((len(basis), d))
    weights = np.zeros(d)
    start = -1
    for j, orb in enumerate(orbits):
        iso[:, j] = bracelet_vector(orb, basis).real
        weights[j] = popcount(orb.representative)
        if orb.representative == 0:
            start = j
    if start < 0:
        raise ValueError("basis lacks the all-zeros state")
    reduced = iso.T @ (gen.matrix @ iso)
    reduced = 0.5 * (reduced + reduced.T)
    evals, evecs = np.linalg.eigh(reduced)
    return ReducedWalk(
        basis=basis,
        orbits=orbits,
        matrix=reduced,
        eigenvalues=evals,
        eigenvectors=evecs,
        weights=weights,
        start_index=start,
    )


@dataclass(frozen=True)
class PeakScan:
    tau_grid: np.ndarray
    populations: np.ndarray
    peaks: tuple          # ((tau, population), ...) ascending in tau
    threshold: float


def peak_scan(
    gen: WalkGenerator,
    orbit: DihedralOrbit,
    tau_max: float,
    dtau: float,
    reduced: Optional[ReducedWalk] = None,
) -> PeakScan:
    """Sweep the bare walk and list interior population maxima above 1/(2N).

    Population is the squared overlap with the target orbit superposition,
    evaluated in the reduced sector where the walk lives.
    """
    if dtau <= 0:
        raise ValueError("dtau must be positive")
    rw = reduced if reduced is not None else reduced_walk(gen)
    t_idx = rw.orbit_index(orbit)
    taus = np.arange(0.0, tau_max + 0.5 * dtau, dtau)
    if tau_max <= 0:
        taus = np.zeros(0)
    # overlap(tau) = sum_r conj(V[t,r]) V[s,r] e^{-i tau lam_r}
    coeff = rw.eigenvectors[t_idx, :].conj() * rw.eigenvectors[rw.start_index, :]
    phases = np.exp(-1j * np.outer(taus, rw.eigenvalues))
    pops = np.abs(phases @ coeff) ** 2
    threshold = 1.0 / (2.0 * gen.basis.n_bits)
    peaks = []
    for j in range(1, len(taus) - 1):
        if pops[j] > threshold and pops[j] > pops[j - 1] and pops[j] > pops[j + 1]:
            peaks.append((float(taus[j]), float(pops[j])))
    return PeakScan(
        tau_grid=taus, populations=pops, peaks=tuple(peaks), threshold=threshold
    )


@dataclass
class BraceletPlan:
    tau_tot: float
    p: int
    tau: float
    gamma: np.ndarray
    success: float = 0.0
    converged: bool = True

    @property
    def tau_eff(self) -> float:
        """Accumulated walk time: p+1 segments of tau each."""
        return (self.p + 1) * self.tau


def plan_from_peak(tau_tot: float, tau_min_hw: float = TAU_MIN_HW) -> BraceletPlan:
    """Fix depth and per-segment walk time from a chosen total walk time.

    Depth p = floor(tau_tot / tau_min_hw) - 2 phases between p+1 equal walk
    segments; the -2 margin absorbs hardware quantization.  Phases start at
    zero.
    """
    p = int(np.floor(tau_tot / tau_min_hw)) - 2
    if p < 2:
        raise PlanInfeasibleError(
            f"tau_tot={tau_tot} too short for a depth >= 2 schedule"
        )
    tau = tau_tot / (p + 1)
    return BraceletPlan(tau_tot=tau_tot, p=p, tau=tau, gamma=np.zeros(p))


def _final_overlap(rw: ReducedWalk, t_idx: int, tau: float, gamma: np.ndarray) -> float:
    vec = rw.evolve(rw.start_vector(), tau)
    for g in gamma:
        vec = rw.phasor(vec, g)
        vec = rw.evolve(vec, tau)
    return float(abs(vec[t_idx]) ** 2)


def bracelet_schedule(plan: BraceletPlan) -> AnsatzSchedule:
    """Alternating schedule for a plan: p+1 equal walk segments interleaved
    with the plan's Hamming-weight phasor angles."""
    return AnsatzSchedule(
        tau0=plan.tau,
        layers=tuple((float(g), plan.tau) for g in plan.gamma),
        phasor_kind="hamming",
    )


def evaluate_bracelet(
    plan: BraceletPlan,
    gen: WalkGenerator,
    orbit: DihedralOrbit,
    reduced: Optional[ReducedWalk] = None,
) -> float:
    """Coherent overlap with the target orbit superposition for this plan."""
    rw = reduced if reduced is not None else reduced_walk(gen)
    return _final_overlap(rw, rw.orbit_index(orbit), plan.tau, plan.gamma)


def optimize_bracelet(
    plan: BraceletPlan,
    gen: WalkGenerator,
    orbit: DihedralOrbit,
    objective: str = "ctqw",
    rydberg_success: Optional[Callable[[np.ndarray], float]] = None,
    reduced: Optional[ReducedWalk] = None,
    max_evals: int = 4000,
) -> BraceletPlan:
    """Optimize the phase vector with COBYLA at fixed walk times.

    ``objective="ctqw"`` maximizes the ideal overlap; ``"joint"`` maximizes
    the mean of the ideal overlap and a caller-supplied hardware-model
    success probability of the same phase vector.
    """
    if objective not in ("ctqw", "joint"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective == "joint" and rydberg_success is None:
        raise ValueError("joint objective needs a rydberg_success callable")
    rw = reduced if reduced is not None else reduced_walk(gen)
    t_idx = rw.orbit_index(orbit)

    def score(gamma: np.ndarray) -> float:
        p_ctqw = _final_overlap(rw, t_idx, plan.tau, gamma)
        if objective == "ctqw":
            return p_ctqw
        return 0.5 * (p_ctqw + rydberg_success(gamma))

    cons = [
        {"type": "ineq", "fun": lambda g: np.pi - np.max(np.abs(g))},
    ]
    res = scipy.optimize.minimize(
        lambda g: -score(g),
        plan.gamma,
        method="COBYLA",
        constraints=cons,
        options={"rhobeg": COBYLA_RHOBEG, "tol": COBYLA_TOL, "maxiter": max_evals},
    )
    gamma = np.clip(res.x, -np.pi, np.pi)
    return BraceletPlan(
        tau_tot=plan.tau_tot,
        p=plan.p,
        tau=plan.tau,
        gamma=gamma,
        success=score(gamma),
        converged=bool(res.success),
    )


def prepare_bracelet(
    gen: WalkGenerator,
    orbit: DihedralOrbit,
    tau_max: float = 20.0,
    dtau: float = 0.02,
    tau_min_hw: float = TAU_MIN_HW,
    objective: str = "ctqw",
    rydberg_success: Optional[Callable[[np.ndarray], float]] = None,
) -> BraceletPlan:
    """Full protocol: scan peaks, optimize at each from the second onward.

    The first peak is skipped (it lies in the translation-invariant sector the
    Hamming phasor cannot act on); the scan over later peaks stops at the
    first decrease in optimized success.
    """
    rw = reduced_walk(gen)
    scan = peak_scan(gen, orbit, tau_max, dtau, reduced=rw)
    if len(scan.peaks) < 2:
        raise PlanInfeasibleError("fewer than two walk-population peaks found")
    best: Optional[BraceletPlan] = None
    for tau_peak, _pop in scan.peaks[1:]:
        try:
            plan = plan_from_peak(tau_peak, tau_min_hw)
        except PlanInfeasibleError:
            continue
        plan = optimize_bracelet(
            plan, gen, orbit, objective=objective,
            rydberg_success=rydberg_success, reduced=rw,
        )
        if best is not None and plan.success < best.success:
            break
        best = plan
    if best is None:
        raise PlanInfeasibleError("no feasible peak produced a plan")
    return best
