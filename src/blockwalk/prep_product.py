"""Analytic seeding and local optimization of (tau0, tau1) for single-target runs.

The walk generator is split by the complement-mask pi-phasor of the target
string into a part that preserves the phasor's +1 eigenspace and a part that
couples out of it.  Norms of the two parts acting on the all-zeros state give
an effective two-parameter chain model whose closed-form optimum seeds a
trust-region Newton refinement of the exact success probability, on its
exact gradient and Hessian in (tau0, tau1): forward-mode tangents carried
through the schedule's own layer recurrence.  Each pi-phasor layer is the
split's sign operator; the walk layers propagate as ``ctqw.factored`` picks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .ctqw import (
    AnsatzSchedule,
    StateVector,
    WalkGenerator,
    evolve_walk,
    factored,
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
SIMPLEX_SCALE = 0.05    # initial trust radius in (tau0, tau1)
CONVERGENCE_TOL = 1e-6  # step length at which the search stops
GRADIENT_TOL = 1e-10
TRUST_REGION_BISECTIONS = 60
ROUNDING = 10.0 * np.finfo(float).eps  # relative rounding level of f in rho


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
    """Success probability of the depth-p pi-phasor schedule with its exact
    gradient and Hessian, as a function ``success(tau0, tau1) -> (f, g, H)``.

    The state after each layer is c <- D S c with D = exp(tau1 W),
    W = -i G and S the split's sign operator, after c = exp(tau0 W) |0>.
    Its tangents travel with it as the columns of one stack
    (c, d0 c, d00 c, d1 c, d01 c, d11 c): D S acts on every column, then
    d1 c <- W c + d1 c, d01 c <- W d0 c + d01 c and
    d11 c <- W d1 c_new + W d1 c + d11 c, since d/dtau1 D = W D.  The target
    amplitude a and its derivatives are the target row of the stack, and
    f = |a|^2.  Where ``ctqw.factored`` holds, the stack lives in the
    factored eigenbasis G = V diag(w) V^T (``ctqw.Eigenbasis``), where W and
    D are diagonal and S is one ``diagonal_operator`` application to the
    whole stack: one sparse product with P = F^T S F and two batched block
    products, and V is never formed.  Elsewhere the stack stays in the
    subspace basis, where S is diagonal, W is the generator matvec and D is
    a Krylov step on each column.
    """
    if split is None:
        split = split_generator(gen, z_star)
    if not factored(gen):
        first = np.zeros(len(basis), dtype=complex)
        first[basis.index_of(0)] = 1.0
        end = np.zeros(len(basis))
        end[basis.index_of(z_star)] = 1.0
        signs = split.signs[:, None]

        def walk(x, tau):
            return evolve_walk(StateVector(basis, x), gen, tau,
                               "krylov").amplitudes

        def start(tau0):
            return walk(first, tau0)

        def W(x):
            return -1j * gen.matvec(x)

        def layer(x, tau1):
            return np.stack([walk(col, tau1) for col in (signs * x).T], axis=1)
    else:
        eb = gen.eig()
        sign_layer = eb.diagonal_operator(split.signs)
        first = eb.row(basis.index_of(0))
        end = eb.row(basis.index_of(z_star))
        w = -1j * eb.w

        def start(tau0):
            return first * np.exp(tau0 * w)

        def W(x):
            return w * x

        def layer(x, tau1):
            return np.exp(tau1 * w)[:, None] * sign_layer(x)

    def success(tau0: float, tau1: float):
        x = np.zeros((len(first), 6), dtype=complex)
        x[:, 0] = start(tau0)
        x[:, 1] = W(x[:, 0])
        x[:, 2] = W(x[:, 1])
        for _ in range(p):
            x = layer(x, tau1)
            c, r, _, t, q, u = x.T
            wc = W(c)
            u += W(wc + 2.0 * t)
            t += wc
            q += W(r)
        a = end @ x
        f = abs(a[0]) ** 2
        grad = 2.0 * np.array([(a[0].conjugate() * a[1]).real,
                               (a[0].conjugate() * a[3]).real])
        h01 = (a[1].conjugate() * a[3] + a[0].conjugate() * a[4]).real
        hess = 2.0 * np.array(
            [[abs(a[1]) ** 2 + (a[0].conjugate() * a[2]).real, h01],
             [h01, abs(a[3]) ** 2 + (a[0].conjugate() * a[5]).real]])
        return float(f), grad, hess
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

    One evaluation propagates the schedule with ``run_ansatz``, as
    ``ctqw.factored`` picks: in the factored eigenbasis, so even a single
    evaluation computes (and caches) ``gen.eig()``, or by Krylov steps.
    """
    sched = product_schedule(tau0, tau1, p, basis.n_bits, z_star)
    return success_probability(run_ansatz(sched, gen), [basis.index_of(z_star)])


def _trust_region_step(grad: np.ndarray, hess: np.ndarray,
                       radius: float) -> np.ndarray:
    """The exact minimiser s of the model grad.s + s.hess.s / 2 over
    |s| <= radius in 2-D (More & Sorensen, SIAM J. Sci. Stat. Comput. 4,
    553, 1983).

    In the eigenbasis of ``hess`` the step with shift sigma is
    -grad_i / (lambda_i + sigma), whose norm falls as sigma grows past
    -lambda_min.  The Newton step (sigma = 0) is taken when ``hess`` is
    positive definite and it lies inside the region; otherwise sigma is
    bisected to put the step on the boundary.  In the hard case, where grad
    has no component along the lowest eigenvector, the boundary is reached
    by adding that eigenvector.
    """
    lam, vecs = np.linalg.eigh(hess)
    g = vecs.T @ grad
    if lam[0] > 0.0 and np.hypot(*(g / lam)) <= radius:
        return -(vecs @ (g / lam))
    lo = max(0.0, -lam[0])
    hi = lo + np.hypot(*grad) / radius
    for _ in range(TRUST_REGION_BISECTIONS):
        mid = 0.5 * (lo + hi)
        if np.hypot(*(g / (lam + mid))) > radius:
            lo = mid
        else:
            hi = mid
    shifted = lam + hi
    s = -np.divide(g, shifted, out=np.zeros(2), where=shifted > 0.0)
    s[0] += np.copysign(np.sqrt(max(radius * radius - s @ s, 0.0)), s[0])
    return vecs @ s


def _bounded_step(x: np.ndarray, grad: np.ndarray, hess: np.ndarray,
                  radius: float) -> np.ndarray:
    """A trust-region ascent step s for f at x >= 0 that keeps x + s >= 0.

    The disc step (``_trust_region_step``) is taken when it stays feasible.
    Otherwise every coordinate it would take negative is put on its face,
    s_i = -x_i, and the free coordinate j gets the exact minimiser of the
    model of 1 - f along it, a t + c t^2 / 2 with a = -(grad + hess s)_j and
    c = -hess_jj, over the rest of the radius and clipped at its own bound
    (the face subproblem of Coleman & Li, SIAM J. Optim. 6, 418, 1996).
    """
    s = _trust_region_step(-grad, -hess, radius)
    hit = x + s < 0.0
    if not hit.any():
        return s
    s = np.where(hit, -x, 0.0)
    for j in np.flatnonzero(~hit):
        a, c = -(grad[j] + hess[j] @ s), -hess[j, j]
        room = np.sqrt(max(radius * radius - s @ s, 0.0))
        t = -a / c if c > 0.0 and abs(a) <= c * room else -np.copysign(room, a)
        s[j] = max(t, -x[j])
    return s


def optimize_product(
    basis: SubspaceBasis,
    gen: WalkGenerator,
    z_star: int,
    p: int,
) -> ProductResult:
    """Locally optimize (tau0, tau1) from the analytic seed by trust-region
    Newton on the exact success probability, gradient and Hessian.

    Each iteration takes the exact minimiser of the quadratic model of
    1 - f over a disc (``_trust_region_step``), whose radius starts at
    ``SIMPLEX_SCALE``, doubles after a boundary step with ratio of actual to
    predicted gain rho > 0.75 and is quartered when rho < 0.25; a step with
    rho > 0 is accepted.  Both gains in rho carry f's rounding level
    ``ROUNDING`` max(1, |f|) (Conn, Gould & Toint, Trust-Region Methods,
    2000, sec. 17.4.2), so a last step whose predicted gain is below it is
    not rejected for rounding in f.  The search stops, converged, at an
    evaluated step shorter than ``CONVERGENCE_TOL`` or at a gradient norm
    below ``GRADIENT_TOL``, and unconverged after ``MAX_EVALS`` evaluations;
    each evaluation computes (f, grad f, Hessian of f).  Walk times are
    bounded below by 0: a step that would cross a bound stops on it and
    moves along the face (``_bounded_step``), and the gradient test drops
    the components that push out through an active bound.
    """
    if not 1 <= p <= MAX_DEPTH:
        raise ValueError(f"supported depths are 1..{MAX_DEPTH}")
    split = split_generator(gen, z_star)
    seed = analytic_seed(chain_parameters(split), p)
    success = _product_success(basis, gen, z_star, p, split)

    def stationary(x, grad):
        return bool(np.hypot(*np.where((x <= 0.0) & (grad < 0.0), 0.0, grad))
                    < GRADIENT_TOL)

    x = np.array(seed, dtype=float)
    f, grad, hess = success(*x)
    evaluations = 1
    radius = SIMPLEX_SCALE
    converged = stationary(x, grad)
    while not converged and evaluations < MAX_EVALS:
        s = _bounded_step(x, grad, hess, radius)
        f_new, grad_new, hess_new = success(*(x + s))
        evaluations += 1
        gain = grad @ s + 0.5 * s @ hess @ s
        delta = ROUNDING * max(1.0, abs(f))
        rho = (f_new - f + delta) / (gain + delta) if gain > 0.0 else -1.0
        step = np.hypot(*s)
        if rho < 0.25:
            radius *= 0.25
        elif rho > 0.75 and step >= 0.999 * radius:
            radius *= 2.0
        if rho > 0.0:
            x, f, grad, hess = x + s, f_new, grad_new, hess_new
        converged = bool(step < CONVERGENCE_TOL or stationary(x, grad))
    tau0, tau1 = float(x[0]), float(x[1])
    t_eff = tau0 + p * tau1
    j_eff = float(np.pi / (2.0 * t_eff))
    return ProductResult(
        tau0=tau0,
        tau1=tau1,
        success=f,
        depth=p,
        t_eff=t_eff,
        j_eff=j_eff,
        evaluations=evaluations,
        converged=converged,
    )
