"""Scheduling and phase optimization for orbit-superposition (bracelet) targets.

The walk from the all-zeros state never leaves the dihedral-symmetric sector,
so everything here runs in the exponentially smaller orbit basis, on the
walk's eigenpairs in that sector, which the generator's momentum-parity
eigendecomposition (``WalkGenerator.eig``) already holds.  ``reduced_walk``
builds that ``ReducedWalk`` once; ``peak_scan``, ``evaluate_bracelet`` and
``optimize_bracelet`` take it: scan the bare walk for population peaks, fix
walk times from the chosen peak, then optimize the interleaved
Hamming-phasor phases with L-BFGS-B on the exact gradient of one forward and
one adjoint (GRAPE) sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.optimize

from .ctqw import AnsatzSchedule, WalkGenerator
from .subspace import DihedralOrbit, all_orbits

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
START_PHASE = 0.5     # magnitude of the alternating starting phases
MAX_EVALS = 4000
# L-BFGS-B stops near round-off, far below SUCCESS_TOL, so prepare_bracelet
# compares optima rather than stopping points
FTOL = 1e-15
GTOL = 1e-10
SUCCESS_TOL = 1e-9    # a deeper plan must beat the best by more than this


class PlanInfeasibleError(ValueError):
    """Total walk time too short to fit the minimum-depth schedule."""


@dataclass(frozen=True)
class ReducedWalk:
    """Walk generator restricted to the dihedral-symmetric sector.

    The sector's basis is the equal-weight superposition of each dihedral
    orbit, one per orbit in ``orbits``; the walk is real symmetric on it and
    exponentially smaller than on the full subspace, and is kept as its real
    eigenpairs.  The all-zeros orbit, where every walk starts, is the first.
    """

    orbits: tuple
    eigenvalues: np.ndarray     # ascending
    eigenvectors: np.ndarray    # columns, real
    weights: np.ndarray         # Hamming weight of each orbit

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def orbit_index(self, orbit: DihedralOrbit) -> int:
        for i, o in enumerate(self.orbits):
            if o.representative == orbit.representative:
                return i
        raise ValueError("orbit not part of this basis")

    def evolve(self, vec: np.ndarray, tau: float) -> np.ndarray:
        v = self.eigenvectors
        return v @ (np.exp(-1j * tau * self.eigenvalues) * (v.T @ vec))

    def phasor(self, vec: np.ndarray, gamma: float) -> np.ndarray:
        return vec * np.exp(-1j * gamma * self.weights)

    def unit_vector(self, index: int) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        vec[index] = 1.0
        return vec


def reduced_walk(gen: WalkGenerator) -> ReducedWalk:
    """The walk on the orbit-superposition basis of a ring.

    Its eigenpairs are the reflection-even part of the generator's k = 0
    momentum block (``Eigenbasis.symmetric_sector``), whose rows are the
    dihedral orbits in ``all_orbits`` order, so the all-zeros orbit is the
    first.
    """
    orbits = tuple(all_orbits(gen.basis))
    evals, evecs = gen.eig().symmetric_sector()
    return ReducedWalk(
        orbits=orbits,
        eigenvalues=evals,
        eigenvectors=evecs,
        weights=np.array([orb.weight() for orb in orbits]),
    )


@dataclass(frozen=True)
class PeakScan:
    tau_grid: np.ndarray
    populations: np.ndarray
    peaks: tuple          # ((tau, population), ...) ascending in tau
    threshold: float


def peak_scan(
    rw: ReducedWalk, orbit: DihedralOrbit, tau_max: float, dtau: float
) -> PeakScan:
    """Sweep the bare walk ``rw`` and list interior population maxima above
    1/(2N), N the ring length.

    Population is the squared overlap with the target orbit superposition,
    evaluated in the reduced sector where the walk lives.
    """
    if dtau <= 0:
        raise ValueError("dtau must be positive")
    t_idx = rw.orbit_index(orbit)
    taus = np.arange(0.0, tau_max + 0.5 * dtau, dtau)
    if tau_max <= 0:
        taus = np.zeros(0)
    # overlap(tau) = sum_r V[t,r] V[0,r] e^{-i tau lam_r}, V real
    coeff = rw.eigenvectors[t_idx, :] * rw.eigenvectors[0, :]
    phases = np.exp(-1j * np.outer(taus, rw.eigenvalues))
    pops = np.abs(phases @ coeff) ** 2
    threshold = 1.0 / (2.0 * orbit.n_bits)
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
    evaluations: int = 0

    @property
    def tau_eff(self) -> float:
        """Accumulated walk time: p+1 segments of tau each."""
        return (self.p + 1) * self.tau


def plan_from_peak(tau_tot: float) -> BraceletPlan:
    """Fix depth and per-segment walk time from a chosen total walk time.

    Depth p = floor(tau_tot / TAU_MIN_HW) - 2 phases between p+1 equal walk
    segments; the -2 margin absorbs hardware quantization.  Phases start at
    alternating +-START_PHASE: the success is even in the phases (the walk
    graph is bipartite), so all-zero phases are a stationary point that a
    gradient method never leaves.
    """
    p = int(np.floor(tau_tot / TAU_MIN_HW)) - 2
    if p < 2:
        raise PlanInfeasibleError(
            f"tau_tot={tau_tot} too short for a depth >= 2 schedule"
        )
    tau = tau_tot / (p + 1)
    gamma = START_PHASE * (-1.0) ** np.arange(p)
    return BraceletPlan(tau_tot=tau_tot, p=p, tau=tau, gamma=gamma)


def _forward(rw: ReducedWalk, tau: float, gamma: np.ndarray) -> tuple:
    """The state just before each phasor, and the final state."""
    before = []
    vec = rw.evolve(rw.unit_vector(0), tau)
    for g in gamma:
        before.append(vec)
        vec = rw.evolve(rw.phasor(vec, g), tau)
    return before, vec


def _success_and_gradient(
    rw: ReducedWalk, t_idx: int, tau: float, gamma: np.ndarray
) -> tuple:
    """f = |<t| U P(g_p) U ... P(g_1) U |s>|^2 and its exact gradient.

    U = e^{-i tau G} is complex symmetric, so the bra chi_k = <t| U P_p ... U
    (everything after phasor k) is built by the same ``evolve`` backwards.
    With a the final amplitude and phi_k the state before phasor k,
    df/dg_k = 2 Re(conj(a) chi_k P_k (-i w) phi_k)
            = 2 Im(conj(a) chi_k P_k w phi_k).
    """
    before, final = _forward(rw, tau, gamma)
    amp = final[t_idx]
    grad = np.empty(len(gamma))
    chi = rw.evolve(rw.unit_vector(t_idx), tau)
    for k in range(len(gamma) - 1, -1, -1):
        chi = rw.phasor(chi, gamma[k])
        grad[k] = 2.0 * np.imag(np.conj(amp) * np.sum(rw.weights * chi * before[k]))
        if k:
            chi = rw.evolve(chi, tau)
    return float(abs(amp) ** 2), grad


def bracelet_schedule(plan: BraceletPlan) -> AnsatzSchedule:
    """Alternating schedule for a plan: p+1 equal walk segments interleaved
    with the plan's Hamming-weight phasor angles."""
    return AnsatzSchedule(
        tau0=plan.tau,
        layers=tuple((float(g), plan.tau) for g in plan.gamma),
        phasor_kind="hamming",
    )


def evaluate_bracelet(
    plan: BraceletPlan, rw: ReducedWalk, orbit: DihedralOrbit
) -> float:
    """Coherent overlap with the target orbit superposition for this plan,
    run on the reduced walk ``rw``."""
    final = _forward(rw, plan.tau, plan.gamma)[1]
    return float(abs(final[rw.orbit_index(orbit)]) ** 2)


def optimize_bracelet(
    plan: BraceletPlan, rw: ReducedWalk, orbit: DihedralOrbit
) -> BraceletPlan:
    """Maximize the ideal overlap on the reduced walk ``rw`` over the phases
    in [-pi, pi] at fixed walk times, with L-BFGS-B on the adjoint
    gradient."""
    t_idx = rw.orbit_index(orbit)

    def objective(gamma: np.ndarray) -> tuple:
        f, grad = _success_and_gradient(rw, t_idx, plan.tau, gamma)
        return 1.0 - f, -grad

    res = scipy.optimize.minimize(
        objective,
        plan.gamma,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-np.pi, np.pi)] * plan.p,
        options={"maxfun": MAX_EVALS, "ftol": FTOL, "gtol": GTOL},
    )
    return BraceletPlan(
        tau_tot=plan.tau_tot,
        p=plan.p,
        tau=plan.tau,
        gamma=res.x,
        success=1.0 - float(res.fun),
        converged=bool(res.success),
        evaluations=int(res.nfev),
    )


def prepare_bracelet(
    gen: WalkGenerator,
    orbit: DihedralOrbit,
    tau_max: float = 20.0,
    dtau: float = 0.02,
) -> BraceletPlan:
    """Full protocol: scan peaks, optimize at each from the second onward.

    The first peak is skipped (it lies in the translation-invariant sector the
    Hamming phasor cannot act on).  The scan over later peaks stops at the
    first one whose optimized success does not beat the best so far by more
    than SUCCESS_TOL, so the shallowest of equally good plans is kept.  The
    returned plan's ``evaluations`` counts the objective evaluations of every
    peak optimized, kept or not.
    """
    rw = reduced_walk(gen)
    scan = peak_scan(rw, orbit, tau_max, dtau)
    if len(scan.peaks) < 2:
        raise PlanInfeasibleError("fewer than two walk-population peaks found")
    best: Optional[BraceletPlan] = None
    evaluations = 0
    for tau_peak, _pop in scan.peaks[1:]:
        try:
            plan = plan_from_peak(tau_peak)
        except PlanInfeasibleError:
            continue
        plan = optimize_bracelet(plan, rw, orbit)
        evaluations += plan.evaluations
        if best is not None and plan.success <= best.success + SUCCESS_TOL:
            break
        best = plan
    if best is None:
        raise PlanInfeasibleError("no feasible peak produced a plan")
    return replace(best, evaluations=evaluations)
