"""Analytic seeding and local optimization of (tau0, tau1) for single-target runs.

The walk generator is split by the complement-mask pi-phasor of the target
string into a part that preserves the phasor's +1 eigenspace and a part that
couples out of it.  Norms of the two parts acting on the all-zeros state give
an effective two-parameter chain model whose closed-form optimum seeds a
Nelder-Mead refinement of the exact success probability.  Each pi-phasor layer
is the split's sign operator, so while the walk generator's largest momentum
block is at most ``EIGEN_BLOCK_CUTOFF`` (rings up to 18) the success
probability is evaluated in its factored eigenbasis, V = F blockdiag(U_k),
without forming V; larger blocks propagate the schedule with Krylov steps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.optimize
import scipy.sparse as sp

from .ctqw import (
    AnsatzSchedule,
    WalkGenerator,
    largest_block,
    run_ansatz,
    success_probability,
)
from .subspace import SubspaceBasis, popcount, popcount_array

__all__ = [
    "SubspaceSplit",
    "ChainModel",
    "ProductResult",
    "split_generator",
    "chain_parameters",
    "analytic_seed",
    "product_schedule",
    "optimize_product",
]

MAX_EVALS = 500
MAX_DEPTH = 5
SIMPLEX_SCALE = 0.05
CONVERGENCE_TOL = 1e-6
# Largest momentum block for which the objective decomposes G: the measured
# crossover of optimize_product (half target, depths 1-2, one BLAS thread).
# Ring 18 (block 654) runs 1.1-1.2x faster factored than with Krylov; ring 19
# (block 984) runs 2-2.5x slower factored and needs 2.6x the peak memory.
EIGEN_BLOCK_CUTOFF = 800


@dataclass(frozen=True)
class SubspaceSplit:
    """Generator split G = G_plus + G_minus induced by a diagonal sign operator.

    ``signs`` is the +-1 spectrum of the complement-mask pi-phasor of
    ``target``; ``g_plus`` commutes with it (maps the +1 eigenspace to
    itself) while ``g_minus`` anticommutes (couples +1 to -1).
    """

    basis: SubspaceBasis
    target: int
    signs: np.ndarray
    g_plus: sp.csr_matrix
    g_minus: sp.csr_matrix


@dataclass(frozen=True)
class ChainModel:
    """Effective transfer-chain parameters for a weight-k target.

    Couplings follow the closed form J_{j,j+1} = sqrt((k-j)(j+1)); ``j0z``
    is their geometric mean, the end-to-end effective coupling.  ``beta_plus``
    and ``beta_minus`` are the norms of the retained and leaking generator
    parts applied to the all-zeros state; ``kappa`` weighs leakage against
    retention when seeding tau0.
    """

    k: int
    couplings: tuple[float, ...]
    j0z: float
    beta_plus: float
    beta_minus: float
    kappa: float


@dataclass(frozen=True)
class ProductResult:
    tau0: float
    tau1: float
    success: float
    depth: int
    t_eff: float
    j_eff: float
    evaluations: int
    converged: bool


def split_generator(gen: WalkGenerator, z_star: int) -> SubspaceSplit:
    """Split ``gen`` into sign-preserving and sign-flipping parts.

    ``z_star`` must be a member of the basis.  The sign operator is the
    complement-mask pi-phasor, which leaves both the all-zeros state and
    ``z_star`` in its +1 eigenspace.
    """
    basis = gen.basis
    if z_star not in basis:
        raise ValueError(f"target state {z_star:b} not in subspace")
    mask = (~z_star) & ((1 << basis.n_bits) - 1)
    signs = 1.0 - 2.0 * (popcount_array(basis.states & np.uint64(mask)) % 2)
    # (G +- S G S) / 2 keeps the entries of G whose endpoints have equal
    # (for G_plus) or opposite (for G_minus) signs
    g = gen.matrix.tocoo()
    same = signs[g.row] == signs[g.col]
    g_plus, g_minus = (
        sp.csr_matrix((g.data[m], (g.row[m], g.col[m])), shape=g.shape)
        for m in (same, ~same))
    return SubspaceSplit(
        basis=basis, target=z_star, signs=signs, g_plus=g_plus, g_minus=g_minus
    )


def _estimate_kappa(split: SubspaceSplit) -> float:
    """Ratio of leaking to retained strength of the split commutator.

    Probes [G+, G-] on the first chain state (normalized G+|0>) and compares
    the component staying in the +1 sector against the component leaking out.
    Falls back to 1.0 when the estimate is degenerate.
    """
    basis = split.basis
    v0 = np.zeros(len(basis))
    v0[basis.index_of(0)] = 1.0
    w1 = split.g_plus @ v0
    nw1 = np.linalg.norm(w1)
    if nw1 < 1e-12:
        return 1.0
    w1 /= nw1
    comm = split.g_plus @ (split.g_minus @ w1) - split.g_minus @ (split.g_plus @ w1)
    plus_sel = split.signs > 0
    kappa_ret = np.linalg.norm(comm[plus_sel])
    kappa_leak = np.linalg.norm(comm[~plus_sel])
    if kappa_ret < 1e-12 or kappa_leak < 1e-12:
        return 1.0
    kappa = kappa_leak / kappa_ret
    if not np.isfinite(kappa) or kappa <= 0:
        return 1.0
    return float(kappa)


def chain_parameters(split: SubspaceSplit) -> ChainModel:
    """Closed-form chain couplings plus measured beta norms for the split."""
    k = popcount(split.target)
    if k < 1:
        raise ValueError("target must have Hamming weight >= 1")
    couplings = tuple(
        float(np.sqrt((k - j) * (j + 1))) for j in range(k)
    )
    j0z = float(np.prod(couplings) ** (1.0 / k))
    basis = split.basis
    v0 = np.zeros(len(basis))
    v0[basis.index_of(0)] = 1.0
    beta_plus = float(np.linalg.norm(split.g_plus @ v0))
    beta_minus = float(np.linalg.norm(split.g_minus @ v0))
    kappa = _estimate_kappa(split)
    return ChainModel(
        k=k,
        couplings=couplings,
        j0z=j0z,
        beta_plus=beta_plus,
        beta_minus=beta_minus,
        kappa=kappa,
    )


def _p_prime(p: int) -> int:
    """Layer count entering the effective transfer time: ceil(p/2)."""
    return (p + 1) // 2


def effective_coupling(model: ChainModel, tau0: float) -> float:
    """End-to-end coupling attenuated by the leakage-angle cosine at tau0."""
    if model.beta_plus <= 0:
        return model.j0z
    ratio = model.beta_minus**2 * tau0 / model.beta_plus**2
    return model.j0z / np.sqrt(1.0 + ratio * ratio)


def analytic_seed(model: ChainModel, p: int) -> tuple[float, float]:
    """Closed-form (tau0, tau1) starting point for a depth-p schedule.

    tau0 balances leakage against retention via kappa; tau1 fills the
    remaining effective transfer time pi/(2 J_eff).  When the kappa balance
    is undefined (beta_minus <= kappa^2 beta_plus) a small-tau0 fallback
    seed is used instead.
    """
    if p < 1:
        raise ValueError("depth must be >= 1")
    kappa = model.kappa
    denom = model.beta_minus**2 - kappa * kappa * model.beta_plus**2
    if denom > 1e-12:
        tau0 = float(kappa / np.sqrt(denom))
    else:
        tau0 = 0.1
    j_eff = effective_coupling(model, tau0)
    pp = _p_prime(p)
    tau1 = float((np.pi / (2.0 * j_eff) - tau0) / pp)
    if tau1 <= 0:
        tau1 = float(np.pi / (2.0 * model.j0z * pp))
    return tau0, tau1


def product_schedule(
    tau0: float, tau1: float, p: int, n_bits: int, z_star: int
) -> AnsatzSchedule:
    """Depth-p schedule: walk tau0, then p layers of (pi-phasor, walk tau1).

    The phasor puts phase pi on every site outside the target string, so the
    target is the unique +1 eigenstate reachable from the all-zeros start.
    """
    mask = (~z_star) & ((1 << n_bits) - 1)
    return AnsatzSchedule(
        tau0=tau0,
        layers=tuple((np.pi, tau1) for _ in range(p)),
        phasor_kind="local",
        target_mask=mask,
    )


def _product_success(
    basis: SubspaceBasis,
    gen: WalkGenerator,
    z_star: int,
    p: int,
    split: Optional[SubspaceSplit] = None,
):
    """Success probability of the depth-p pi-phasor schedule as a function
    ``success(tau0, tau1)``.

    Every pi-phasor layer is the sign operator S of the split.  While the
    generator's largest momentum block is at most ``EIGEN_BLOCK_CUTOFF``,
    the schedule runs in the factored eigenbasis G = V diag(w) V^T,
    V = F blockdiag(U_k) (``ctqw.Eigenbasis``): the coefficients start as
    the all-zeros row of V times exp(-i tau0 w), each layer is
    c <- exp(-i tau1 w) V^T (S V c), and the amplitude on the target is its
    row of V dotted with the coefficients.  V is applied as one sparse
    product and one batched block product each way and is never formed.
    Larger blocks evaluate each point with ``evaluate_product``, which takes
    Krylov steps on every ring above the cutoff.
    """
    if largest_block(gen) > EIGEN_BLOCK_CUTOFF:
        return functools.partial(evaluate_product, basis, gen, z_star, p)

    if split is None:
        split = split_generator(gen, z_star)
    eb = gen.eig()
    layer = eb.diagonal_operator(split.signs)
    start = eb.row(basis.index_of(0))
    end = eb.row(basis.index_of(z_star))

    def success(tau0: float, tau1: float) -> float:
        c = start * np.exp(-1j * tau0 * eb.w)
        walk = np.exp(-1j * tau1 * eb.w)
        for _ in range(p):
            c = walk * layer(c)
        return float(abs(end @ c) ** 2)
    return success


def evaluate_product(
    basis: SubspaceBasis,
    gen: WalkGenerator,
    z_star: int,
    p: int,
    tau0: float,
    tau1: float,
) -> float:
    """Success probability of the depth-p pi-phasor schedule at (tau0, tau1).

    One evaluation propagates the schedule with ``run_ansatz``.  Up to
    ``ctqw.DENSE_CUTOFF`` states that is the dense propagator, so even a
    single evaluation computes (and caches) the generator's momentum-blocked
    eigendecomposition ``gen.eig()``; larger bases propagate by Krylov.
    """
    sched = product_schedule(tau0, tau1, p, basis.n_bits, z_star)
    return success_probability(run_ansatz(sched, gen), [basis.index_of(z_star)])


def optimize_product(
    basis: SubspaceBasis,
    gen: WalkGenerator,
    z_star: int,
    p: int,
) -> ProductResult:
    """Locally optimize (tau0, tau1) from the analytic seed with Nelder-Mead."""
    if not 1 <= p <= MAX_DEPTH:
        raise ValueError(f"supported depths are 1..{MAX_DEPTH}")
    split = split_generator(gen, z_star)
    seed = analytic_seed(chain_parameters(split), p)
    success = _product_success(basis, gen, z_star, p, split)

    def objective(x: np.ndarray) -> float:
        return 1.0 - success(abs(x[0]), abs(x[1]))

    x0 = np.array(seed, dtype=float)
    simplex = np.array([x0, x0 + [SIMPLEX_SCALE, 0.0], x0 + [0.0, SIMPLEX_SCALE]])
    res = scipy.optimize.minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={
            "initial_simplex": simplex,
            "xatol": CONVERGENCE_TOL,
            "fatol": CONVERGENCE_TOL,
            "maxfev": MAX_EVALS,
        },
    )
    tau0, tau1 = float(abs(res.x[0])), float(abs(res.x[1]))
    success = 1.0 - float(res.fun)
    t_eff = tau0 + p * tau1
    j_eff = float(np.pi / (2.0 * t_eff))
    return ProductResult(
        tau0=tau0,
        tau1=tau1,
        success=success,
        depth=p,
        t_eff=t_eff,
        j_eff=j_eff,
        evaluations=int(res.nfev),
        converged=bool(res.success),
    )
