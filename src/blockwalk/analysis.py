"""Amplification metrics, power-law fits, Grover references, and quenches.

Amplification A = |V| * P / |z*| compares success probability against the
uniform baseline over the accessible subspace; its growth exponent alpha in
A = c * |V|^alpha maps to an effective polynomial speedup order 1/(1-alpha).
Quenches evolve a prepared state (coherent superposition vs. incoherent
orbit mixture) and record target populations over a walk-time grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import curve_fit

from .ctqw import StateVector, WalkGenerator, evolve_walk

__all__ = [
    "AmplificationPoint",
    "PowerLawFit",
    "amplification",
    "fit_power_law",
    "grover_reference",
    "quench_coherent",
    "quench_incoherent",
    "quench_density_matrix",
    "amplification_csv",
]

ALPHA_UPPER = 1.0
Z95 = 1.959963984540054


@dataclass(frozen=True)
class AmplificationPoint:
    subspace_size: int
    success: float
    target_cardinality: int

    def __post_init__(self):
        if self.target_cardinality <= 0:
            raise ValueError("target cardinality must be positive")
        if not (0.0 <= self.success <= 1.0 + 1e-12):
            raise ValueError("success probability must lie in [0, 1]")

    @property
    def amplification(self) -> float:
        return self.subspace_size * self.success / self.target_cardinality


def amplification(points: Sequence[tuple]) -> list:
    """Each point is (|V|, P, |z*|)."""
    return [AmplificationPoint(int(v), float(p), int(t)) for v, p, t in points]


@dataclass(frozen=True)
class PowerLawFit:
    c: float
    alpha: float
    c_err: float            # 95% half-width
    alpha_err: float        # 95% half-width
    r_squared: float
    n: float                # speedup order 1/(1-alpha); inf at the bound
    n_low: float
    n_high: float           # inf when alpha's CI reaches 1
    n_is_bound: bool        # True -> report "n >= n_low"

    def describe_n(self) -> str:
        if self.n_is_bound:
            return f">= {self.n_low:.3g}"
        return f"{self.n:.3g} [{self.n_low:.3g} - {self.n_high:.3g}]"


def _speedup(alpha: float) -> float:
    return np.inf if alpha >= 1.0 - 1e-12 else 1.0 / (1.0 - alpha)


def fit_power_law(
    sizes: Sequence[float],
    amps: Sequence[float],
    weights: Optional[Sequence[float]] = None,
) -> PowerLawFit:
    """Weighted nonlinear least squares for A = c * |V|^alpha, alpha <= 1.

    ``weights`` are inverse variances; sigma for the fit is 1/sqrt(w).
    """
    sizes = np.asarray(sizes, dtype=float)
    amps = np.asarray(amps, dtype=float)
    if len(sizes) < 3:
        raise ValueError("need at least 3 points")
    sigma = None
    if weights is not None:
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        sigma = 1.0 / np.sqrt(w)
    # log-linear seed
    a0 = np.clip(np.polyfit(np.log(sizes), np.log(np.maximum(amps, 1e-300)), 1)[0],
                 -5.0, ALPHA_UPPER)
    c0 = float(np.exp(np.mean(np.log(np.maximum(amps, 1e-300))
                              - a0 * np.log(sizes))))
    try:
        popt, pcov = curve_fit(
            lambda v, c, a: c * v**a, sizes, amps, p0=[c0, a0], sigma=sigma,
            absolute_sigma=False, bounds=([0.0, -np.inf], [np.inf, ALPHA_UPPER]),
            maxfev=20000,
        )
    except RuntimeError as exc:
        raise RuntimeError(f"power-law fit failed: {exc}") from exc
    c, alpha = popt
    perr = np.sqrt(np.maximum(np.diag(pcov), 0.0))
    c_err, a_err = Z95 * perr[0], Z95 * perr[1]
    pred = c * sizes**alpha
    resid = amps - pred
    if sigma is not None:
        wsum = 1.0 / sigma**2
        ss_res = float(np.sum(wsum * resid**2))
        mean = float(np.sum(wsum * amps) / np.sum(wsum))
        ss_tot = float(np.sum(wsum * (amps - mean) ** 2))
    else:
        ss_res = float(np.sum(resid**2))
        ss_tot = float(np.sum((amps - np.mean(amps)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    alpha_lo, alpha_hi = alpha - a_err, alpha + a_err
    n_low = _speedup(alpha_lo)
    n_is_bound = alpha_hi >= 1.0 - 1e-12
    n_high = np.inf if n_is_bound else _speedup(alpha_hi)
    return PowerLawFit(
        c=float(c), alpha=float(alpha), c_err=float(c_err),
        alpha_err=float(a_err), r_squared=r2, n=_speedup(alpha),
        n_low=n_low, n_high=n_high, n_is_bound=n_is_bound,
    )


def grover_reference(subspace_size: int, p: int) -> float:
    """Success of p Grover iterations with one marked element of |V|."""
    if p < 1:
        raise ValueError("p must be >= 1")
    theta = np.arcsin(1.0 / np.sqrt(subspace_size))
    return float(np.sin((2 * p + 1) * theta) ** 2)


def _target_population(amps: np.ndarray, target_indices: np.ndarray) -> float:
    return float(np.sum(np.abs(amps[target_indices]) ** 2))


def quench_coherent(
    state: StateVector,
    gen: WalkGenerator,
    tau_grid: Sequence[float],
    target_indices: Sequence[int],
) -> np.ndarray:
    """Evolve the prepared state and record target population at each tau."""
    idx = np.asarray(target_indices, dtype=int)
    out = np.empty(len(tau_grid))
    for i, tau in enumerate(tau_grid):
        evolved = evolve_walk(state, gen, float(tau))
        out[i] = _target_population(evolved.amplitudes, idx)
    return out


def quench_incoherent(
    members: Sequence[StateVector],
    gen: WalkGenerator,
    tau_grid: Sequence[float],
    target_indices: Sequence[int],
) -> np.ndarray:
    """Average the population traces of the equal-weight mixture members."""
    w = 1.0 / len(members)
    total = np.zeros(len(tau_grid))
    for member in members:
        total += w * quench_coherent(member, gen, tau_grid, target_indices)
    return total


def quench_density_matrix(
    members: Sequence[StateVector],
    gen: WalkGenerator,
    tau_grid: Sequence[float],
    target_indices: Sequence[int],
) -> np.ndarray:
    """Oracle: evolve the equal-weight mixture as a dense density matrix."""
    w = 1.0 / len(members)
    basis = members[0].basis
    dim = len(basis)
    rho0 = np.zeros((dim, dim), dtype=complex)
    for member in members:
        rho0 += w * np.outer(member.amplitudes, member.amplitudes.conj())
    g = gen.dense()
    evals, evecs = np.linalg.eigh(g)
    idx = np.asarray(target_indices, dtype=int)
    out = np.empty(len(tau_grid))
    for i, tau in enumerate(tau_grid):
        u = (evecs * np.exp(-1j * tau * evals)) @ evecs.conj().T
        rho = u @ rho0 @ u.conj().T
        out[i] = float(np.real(np.trace(rho[np.ix_(idx, idx)])))
    return out


def amplification_csv(
    rows: Sequence[tuple], header: str = "n,subspace_size,success,amplification"
) -> str:
    """rows: (N, |V|, P, A)."""
    lines = [header]
    for n, v, p, a in rows:
        lines.append(f"{n},{v},{p:.6f},{a:.6f}")
    return "\n".join(lines) + "\n"
