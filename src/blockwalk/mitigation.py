"""Reconstruct pre-measurement distributions from noisy shots.

The model mixes a full probability vector over the blockaded subspace with a
per-bit Bernoulli background for everything outside it, convolved with an
asymmetric per-bit readout channel.  Expectation-maximization recovers the
maximum-likelihood parameters; a nonparametric bootstrap gives confidence
intervals on target probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import json
import numpy as np

from .rydberg import ShotSet
from .subspace import SubspaceBasis, bits_to_str, popcount_array

__all__ = [
    "ReadoutChannel",
    "EMModel",
    "ReconstructionResult",
    "channel_likelihood",
    "em_reconstruct",
    "bootstrap_ci",
    "reconstruct_with_ci",
    "result_to_json",
]

PROB_FLOOR = 1e-300
PARAM_CLIP = 1e-12
DEFAULT_EPS = 1e-8
DEFAULT_MAX_ITER = 10_000
DEFAULT_RESAMPLES = 1000
# rows x bits x distinct shots per `_em_fit` call of the bootstrap
_EM_BLOCK_ELEMENTS = 1 << 19


@dataclass(frozen=True)
class ReadoutChannel:
    """Independent per-bit flips: p00 = P(read 0 | true 0), p11 = P(read 1 | true 1)."""

    p00: float = 0.99
    p11: float = 0.93

    def __post_init__(self):
        if not (0.0 <= self.p00 <= 1.0 and 0.0 <= self.p11 <= 1.0):
            raise ValueError("channel probabilities must lie in [0, 1]")


STANDARD_CHANNEL = ReadoutChannel(0.99, 0.93)
LOCAL_DETUNING_CHANNEL = ReadoutChannel(0.90, 0.93)


def channel_likelihood(z: int, s: int, n_bits: int, channel: ReadoutChannel) -> float:
    """K(z|s) = prod_j P(z_j | s_j)."""
    mask = (1 << n_bits) - 1
    n11 = bin(z & s).count("1")
    n10 = bin(s & ~z & mask).count("1")          # true 1 read 0
    n01 = bin(z & ~s & mask).count("1")          # true 0 read 1
    n00 = n_bits - n11 - n10 - n01
    return (
        channel.p00 ** n00
        * (1.0 - channel.p00) ** n01
        * (1.0 - channel.p11) ** n10
        * channel.p11 ** n11
    )


def _likelihood_matrix(
    z: np.ndarray, s: np.ndarray, n_bits: int, channel: ReadoutChannel
) -> np.ndarray:
    """L[k, i] = K(z_i | s_k), vectorized over bit-counting of masked overlaps."""
    mask = np.uint64((1 << n_bits) - 1)
    zz = z.astype(np.uint64)[None, :]
    sk = s.astype(np.uint64)[:, None]
    n11 = popcount_array(zz & sk)
    n10 = popcount_array(sk & ~zz & mask)
    n01 = popcount_array(zz & ~sk & mask)
    n00 = n_bits - n11 - n10 - n01
    with np.errstate(divide="ignore"):
        logs = (
            n00 * np.log(max(channel.p00, PROB_FLOOR))
            + n01 * np.log(max(1.0 - channel.p00, PROB_FLOOR))
            + n10 * np.log(max(1.0 - channel.p11, PROB_FLOOR))
            + n11 * np.log(max(channel.p11, PROB_FLOOR))
        )
    return np.exp(logs)


def _bit_tables(
    z: np.ndarray, subspace_states: np.ndarray, channel: ReadoutChannel,
    n_bits: int,
) -> tuple:
    """P(z_j | s_j=1) and P(z_j | s_j=0) per bit and shot, both (N, U), and
    the Rydberg-bit mask (N, |V|) of the subspace states.

    These depend only on the shots, the subspace and the channel, so one EM
    run computes them once and reuses them at every likelihood evaluation.
    Bits run along the first axis so the per-bit parameters broadcast over
    long rows.
    """
    shift = np.arange(n_bits, dtype=np.uint64)[:, None]
    z_on = ((z.astype(np.uint64)[None, :] >> shift) & np.uint64(1)) == 1
    p_given1 = np.where(z_on, channel.p11, 1.0 - channel.p11)
    p_given0 = np.where(z_on, 1.0 - channel.p00, channel.p00)
    s_on = ((subspace_states.astype(np.uint64)[None, :] >> shift)
            & np.uint64(1)) == 1
    return p_given1, p_given0, s_on


def _background_from_tables(
    phi_perp: np.ndarray,
    p_given1: np.ndarray,
    p_given0: np.ndarray,
    s_on: np.ndarray,
    L_sub: np.ndarray,
) -> tuple:
    """`_background_likelihood` on precomputed `_bit_tables`.

    `phi_perp` is (N,) or a stack (R, N); the outputs gain the same leading
    axis.  Also returns the (..., N, U) factors phi_j P(z_j|1) and
    phi_j P(z_j|1) + (1 - phi_j) P(z_j|0); their ratio is the posterior
    probability that bit j of shot z was a Rydberg excitation.
    """
    pp = phi_perp[..., :, None]
    qq = 1.0 - pp
    on = pp * p_given1
    per_bit = on + qq * p_given0
    # in-subspace correction: sum_k P_out(s_k) K(z_i|s_k)
    p_out = np.where(s_on, pp, qq).prod(axis=-2)           # (..., |V|)
    l_perp = np.maximum(per_bit.prod(axis=-2) - p_out @ L_sub, 0.0)
    return l_perp, p_out.sum(axis=-1), on, per_bit


def _background_likelihood(
    z: np.ndarray,
    phi_perp: np.ndarray,
    subspace_states: np.ndarray,
    L_sub: np.ndarray,
    channel: ReadoutChannel,
    n_bits: int,
) -> tuple:
    """(unnormalized complement likelihoods, Bernoulli mass on the subspace).

    The full-space convolution factorizes per bit; subtracting the |V| terms
    that belong to the subspace leaves the complement sum exactly.  Dividing
    by 1 - mass(V) normalizes the background into a proper component density.
    """
    l_perp, mass_v, _, _ = _background_from_tables(
        phi_perp, *_bit_tables(z, subspace_states, channel, n_bits), L_sub)
    return l_perp, float(mass_v)


@dataclass
class EMModel:
    basis: SubspaceBasis
    channel: ReadoutChannel
    phi_v: np.ndarray               # (|V|,)
    phi_perp: np.ndarray            # (N,)
    prior: tuple = (1.0, 1.0)
    eps: float = DEFAULT_EPS        # convergence threshold of the fit
    max_iter: int = DEFAULT_MAX_ITER
    log_likelihood: list = field(default_factory=list)
    objective: list = field(default_factory=list)   # likelihood + Beta penalty
    iterations: int = 0
    converged: bool = False

    @property
    def out_of_subspace_mass(self) -> float:
        return float(max(0.0, 1.0 - self.phi_v.sum()))

    def target_probability(self, target: Union[int, Sequence[int]]) -> float:
        if isinstance(target, (int, np.integer)):
            target = [int(target)]
        return float(sum(self.phi_v[self.basis.index_of(t)] for t in target))


def _em_fit(
    counts: np.ndarray,
    L: np.ndarray,
    tables: tuple,
    prior: tuple,
    eps: float,
    max_iter: int,
    record: bool = False,
) -> tuple:
    """Damped EM for R shot histograms over the same U distinct shots.

    `counts` is (R, U) (zero where a histogram lacks a shot), `L` the
    (|V|, U) likelihood matrix and `tables` the `_bit_tables` of the shots.
    Every row runs the iteration of `em_reconstruct` on its own: its own
    step halving, convergence test and iteration count; the rows only share
    numpy calls.  Returns (phi_v (R, |V|), phi_perp (R, N), iterations (R,),
    converged (R,), traces), where traces holds each row's
    (log-likelihood, objective) lists when `record` is set.
    """
    p1z, p0z, s_on = tables
    alpha, beta = prior
    n = p1z.shape[0]
    n_rows, n_v = counts.shape[0], L.shape[0]
    weights = counts.astype(float)
    total = weights.sum(axis=1)

    def _evaluate(w, pv, pp):
        l_perp, mass_v, on, per_bit = _background_from_tables(
            pp, p1z, p0z, s_on, L)
        bg = l_perp / np.maximum(1.0 - mass_v, PROB_FLOOR)[:, None]
        pi = np.maximum(1.0 - pv.sum(axis=1), PROB_FLOOR)
        m = np.maximum(pv @ L + pi[:, None] * bg, PROB_FLOOR)
        ll = (w * np.log(m)).sum(axis=1)
        obj = ll + (alpha * np.log(pp) + beta * np.log1p(-pp)).sum(axis=1)
        # posterior bit expectation by channel inversion, (R, N, U)
        post1 = on / np.maximum(per_bit, PROB_FLOOR)
        return [ll, obj, m, bg, pi, post1]

    out_v = np.full((n_rows, n_v), 1.0 / (n_v + 1))
    out_p = np.full((n_rows, n), 0.5)
    iterations = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    traces = [([], []) for _ in range(n_rows)] if record else None
    # the rows still iterating and their state
    rows = np.arange(n_rows)
    w, tot, phi_v, phi_perp = weights, total, out_v.copy(), out_p.copy()
    state = _evaluate(w, phi_v, phi_perp)
    it = 0
    for it in range(1, max_iter + 1):
        ll, obj, m, bg, pi_perp, post1 = state
        if record:
            for k, r in enumerate(rows):
                traces[r][0].append(float(ll[k]))
                traces[r][1].append(float(obj[k]))
        # responsibilities rho_ki = phi_k L_ki / m_i, summed over shots
        new_v = phi_v * ((w / m) @ L.T) / tot[:, None]
        # penalized mean of the posterior bit expectations
        w_perp = pi_perp[:, None] * bg / m * w
        denom = w_perp.sum(axis=1) + alpha + beta
        new_p = (np.matmul(post1, w_perp[:, :, None])[:, :, 0] + alpha) \
            / denom[:, None]
        new_v = np.clip(new_v, PARAM_CLIP, 1.0 - PARAM_CLIP)
        new_p = np.clip(new_p, PARAM_CLIP, 1.0 - PARAM_CLIP)
        # damped acceptance: halve a row's step until its objective is not
        # reduced (the complement renormalization spoils the exact M-step);
        # rows that never accept keep their parameters
        cand_v, cand_p, cand = phi_v, phi_perp, state
        accepted = np.zeros(len(rows), dtype=bool)
        pending = slice(None)                   # every row, on the full step
        lam = 1.0
        for _ in range(40):
            cv = phi_v[pending] + lam * (new_v[pending] - phi_v[pending])
            cp = phi_perp[pending] + lam * (new_p[pending] - phi_perp[pending])
            ev = _evaluate(w[pending], cv, cp)
            ok = ev[1] >= obj[pending] - 1e-12
            if isinstance(pending, slice):
                if ok.all():
                    cand_v, cand_p, cand = cv, cp, ev
                    accepted[:] = True
                    break
                cand_v, cand_p = phi_v.copy(), phi_perp.copy()
                cand = [x.copy() for x in state]
                pending = np.arange(len(rows))
            got = pending[ok]
            cand_v[got], cand_p[got] = cv[ok], cp[ok]
            for x, y in zip(cand, ev):
                x[got] = y[ok]
            accepted[got] = True
            pending = pending[~ok]
            if len(pending) == 0:
                break
            lam *= 0.5
        # a row with no improving direction is at a stationary point
        delta = (np.abs(cand_v - phi_v).sum(axis=1)
                 + np.abs(cand_p - phi_perp).sum(axis=1) / n)
        done = ~accepted | (delta < eps)
        phi_v, phi_perp, state = cand_v, cand_p, cand
        if done.any():
            fin = rows[done]
            out_v[fin], out_p[fin] = phi_v[done], phi_perp[done]
            iterations[fin] = it
            converged[fin] = True
            keep = ~done
            rows, w, tot = rows[keep], w[keep], tot[keep]
            phi_v, phi_perp = phi_v[keep], phi_perp[keep]
            state = [x[keep] for x in state]
            if len(rows) == 0:
                break
    # rows that ran out of iterations
    out_v[rows], out_p[rows] = phi_v, phi_perp
    iterations[rows] = it
    return out_v, out_p, iterations, converged, traces


def _shot_histogram(shots: ShotSet, basis: SubspaceBasis) -> tuple:
    """(distinct shots ascending, their counts) after validating the shots."""
    if len(shots) == 0:
        raise ValueError("no shots")
    if shots.n_bits != basis.n_bits:
        raise ValueError("shot width does not match basis")
    return np.unique(np.asarray(shots.shots, dtype=np.uint64),
                     return_counts=True)


def _em_inputs(uniq: np.ndarray, basis: SubspaceBasis,
               channel: ReadoutChannel) -> tuple:
    """(likelihood matrix (|V|, U), `_bit_tables`) of the distinct shots."""
    states = np.asarray(basis.states, dtype=np.uint64)
    return (_likelihood_matrix(uniq, states, basis.n_bits, channel),
            _bit_tables(uniq, states, channel, basis.n_bits))


def em_reconstruct(
    shots: ShotSet,
    basis: SubspaceBasis,
    channel: ReadoutChannel,
    prior: tuple = (1.0, 1.0),
    eps: float = DEFAULT_EPS,
    max_iter: int = DEFAULT_MAX_ITER,
) -> EMModel:
    """Expectation-maximization over subspace weights + Bernoulli background.

    The model is the proper mixture m = sum_k phi_k L_k + (1 - sum phi) B,
    where B is the Bernoulli background convolved with the channel and
    normalized over the complement of the subspace.  The phi_perp update is
    the exact M-step of the Beta-penalized objective for the unnormalized
    background; the complement renormalization makes it approximate, so each
    update is damped (step halving) until the penalized `objective` does not
    decrease.  `objective` is therefore non-decreasing by construction; the
    raw likelihood trace can still dip by the penalty's pull toward 1/2.
    """
    uniq, counts = _shot_histogram(shots, basis)
    L, tables = _em_inputs(uniq, basis, channel)
    phi_v, phi_perp, its, conv, traces = _em_fit(
        counts[None, :], L, tables, prior, eps, max_iter, record=True)
    return EMModel(
        basis=basis, channel=channel, phi_v=phi_v[0], phi_perp=phi_perp[0],
        prior=prior, eps=eps, max_iter=max_iter,
        log_likelihood=traces[0][0], objective=traces[0][1],
        iterations=int(its[0]), converged=bool(conv[0]),
    )


def background_likelihood_bruteforce(
    z: int, phi_perp: np.ndarray, basis: SubspaceBasis, channel: ReadoutChannel
) -> float:
    """Oracle: explicit sum over the complement of the subspace (2^N work)."""
    n = basis.n_bits
    total = 0.0
    for s in range(1 << n):
        if s in basis:
            continue
        p_out = 1.0
        for j in range(n):
            bit = (s >> j) & 1
            p_out *= phi_perp[j] if bit else (1.0 - phi_perp[j])
        total += channel_likelihood(z, s, n, channel) * p_out
    return total


@dataclass(frozen=True)
class ReconstructionResult:
    model: EMModel
    target: tuple
    point: float
    ci_low: float
    ci_high: float
    resamples: int

    def __post_init__(self):
        if not (self.ci_low <= self.point + 1e-12
                and self.point <= self.ci_high + 1e-12):
            raise ValueError("confidence interval does not bracket the point")


def bootstrap_ci(
    shots: ShotSet,
    model: EMModel,
    target: Union[int, Sequence[int]],
    resamples: int = DEFAULT_RESAMPLES,
    level: float = 0.95,
    seed: Optional[int] = None,
) -> tuple:
    """Percentile bootstrap over with-replacement shot resamples.

    ``model`` is the `em_reconstruct` fit of ``shots``: it gives the point
    estimate, and each resample is fitted with its basis, channel, prior,
    ``eps`` and ``max_iter``.
    """
    rng = np.random.default_rng(seed)
    basis, channel = model.basis, model.channel
    point = model.target_probability(target)
    arr = np.asarray(shots.shots, dtype=np.uint64)
    uniq, _ = _shot_histogram(shots, basis)
    # a resample is a histogram over the same distinct shots, so all of them
    # share one likelihood matrix and are fitted together, in row blocks of
    # bounded size
    hist = np.zeros((resamples, len(uniq)), dtype=np.int64)
    for r in range(resamples):
        sample = rng.choice(arr, size=len(arr), replace=True)
        hist[r] = np.bincount(np.searchsorted(uniq, sample),
                              minlength=len(uniq))
    L, tables = _em_inputs(uniq, basis, channel)
    block = max(1, _EM_BLOCK_ELEMENTS // (basis.n_bits * len(uniq)))
    phi_v = np.concatenate([
        _em_fit(hist[i:i + block], L, tables, model.prior, model.eps,
                model.max_iter)[0]
        for i in range(0, resamples, block)])
    tgt = [int(target)] if isinstance(target, (int, np.integer)) else target
    estimates = sum(phi_v[:, basis.index_of(t)] for t in tgt)
    tail = (1.0 - level) / 2.0
    low = float(np.quantile(estimates, tail))
    high = float(np.quantile(estimates, 1.0 - tail))
    # percentile intervals from finite resamples may not bracket the full-data
    # point estimate; widen to include it
    return min(low, point), point, max(high, point)


def reconstruct_with_ci(
    shots: ShotSet,
    basis: SubspaceBasis,
    channel: ReadoutChannel,
    target: Union[int, Sequence[int]],
    resamples: int = DEFAULT_RESAMPLES,
    level: float = 0.95,
    seed: Optional[int] = None,
) -> ReconstructionResult:
    model = em_reconstruct(shots, basis, channel)
    low, point, high = bootstrap_ci(shots, model, target, resamples, level,
                                    seed)
    tgt = (target,) if isinstance(target, (int, np.integer)) else tuple(target)
    return ReconstructionResult(model=model, target=tgt, point=point,
                                ci_low=low, ci_high=high, resamples=resamples)


def result_to_json(result: ReconstructionResult) -> str:
    basis = result.model.basis
    doc = {
        "states": {
            bits_to_str(int(s), basis.n_bits): float(p)
            for s, p in zip(basis.states, result.model.phi_v)
        },
        "target": [bits_to_str(int(t), basis.n_bits) for t in result.target],
        "target_probability": result.point,
        "ci": [result.ci_low, result.ci_high],
        "out_of_subspace_mass": result.model.out_of_subspace_mass,
        "iterations": result.model.iterations,
        "converged": result.model.converged,
    }
    return json.dumps(doc, indent=2, sort_keys=True)
