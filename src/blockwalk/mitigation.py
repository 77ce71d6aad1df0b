"""Reconstruct pre-measurement distributions from noisy shots.

The model mixes a full probability vector over the blockaded subspace with a
per-bit Bernoulli background for everything outside it, convolved with an
asymmetric per-bit readout channel.  Expectation-maximization recovers the
maximum-likelihood parameters; a nonparametric bootstrap gives confidence
intervals on target probabilities.

The readout channel has one encoding: a per-bit table, and every per-bit
product the EM needs comes from one matrix product of its logs.  A row's
table holds, per bit j, [P(read 1 | phi_j), P(read 0 | phi_j), phi_j,
1 - phi_j]; the logs of the tables of R rows, (R, 4N), times a fixed 0/1
design matrix (4N, U + |V| + 1) give in one exponential the full-space
convolution of each of the U distinct shots, the Bernoulli probability of
each subspace state, and (without the exponential) the Beta penalty.  The
likelihood matrix K(z|s) of the subspace states is the same product with
each state's bits as the parameters.  The design matrix depends only on the
shots, the subspace and the prior, so it is built once per fit.

The EM's Beta prior, convergence threshold and iteration cap and the
interval's level are the module constants PRIOR, EPS, MAX_ITER and LEVEL,
read when a fit runs.

The percentile interval reads only the two order statistics of the
resample estimates that np.quantile interpolates at each end.  So the
bootstrap also stops a resample's fit once its estimate, widened by a bound
B on its remaining movement, cannot take a rank the quantiles read.  B is
taken from the contraction the fit's steps show over the last few checks.
Order statistics are 1-Lipschitz in the sup norm, so a B that fails moves
the interval by at most that fit's remaining movement; when every B holds
the interval is the one of fits run to the EM's own stop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import json
import numpy as np

from .rydberg import ShotSet
from .subspace import SubspaceBasis, bits_to_str

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
PRIOR = (1.0, 1.0)      # Beta(alpha, beta) prior on each phi_perp bit
EPS = 1e-8              # convergence threshold of the EM
MAX_ITER = 10_000
LEVEL = 0.95            # of the bootstrap interval
DEFAULT_RESAMPLES = 1000
# rows x (distinct shots + subspace states), the largest `_em_fit`
# temporary, per call of the bootstrap
_EM_BLOCK_ELEMENTS = 1 << 19
# rows x shots per resample draw of the bootstrap
_DRAW_ELEMENTS = 1 << 15
# the bootstrap's rank stop: iterations between checks, checks a bound
# reads, and the safety factor of the bound
_RANK_CHECK = 8
_RANK_HISTORY = 4
_RANK_SAFETY = 10.0


@dataclass(frozen=True)
class ReadoutChannel:
    """Independent per-bit flips: p00 = P(read 0 | true 0), p11 = P(read 1 | true 1)."""

    p00: float = 0.99
    p11: float = 0.93

    def __post_init__(self):
        if not (0.0 <= self.p00 <= 1.0 and 0.0 <= self.p11 <= 1.0):
            raise ValueError("channel probabilities must lie in [0, 1]")


STANDARD_CHANNEL = ReadoutChannel()
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


def _design_tables(
    z: np.ndarray, subspace_states: np.ndarray, channel: ReadoutChannel,
    n_bits: int,
) -> tuple:
    """The per-bit tables of the readout channel for shots z and the
    subspace.

    Returns (design (4N, U + |V|), offset (4,), slope (4,)).  Row j of a
    parameter's table is offset + phi_j slope = [P(read 1 | phi_j),
    P(read 0 | phi_j), phi_j, 1 - phi_j].  Design row 4j + c is 1 where a
    column takes factor c of bit j: a shot column takes factor 0 where it
    read 1 and factor 1 where it read 0, a subspace-state column takes
    factor 2 where the state holds an excitation and factor 3 where not.
    These depend only on the shots, the subspace and the channel, so one EM
    run builds them once.
    """
    shift = np.arange(n_bits, dtype=np.uint64)[:, None]
    z_on = (z.astype(np.uint64)[None, :] >> shift) & np.uint64(1)
    s_on = (subspace_states.astype(np.uint64)[None, :] >> shift) \
        & np.uint64(1)
    u = z_on.shape[1]
    design = np.zeros((n_bits, 4, u + s_on.shape[1]))
    design[:, 0, :u] = z_on
    design[:, 1, :u] = 1 - z_on
    design[:, 2, u:] = s_on
    design[:, 3, u:] = 1 - s_on
    p00, p11 = channel.p00, channel.p11
    return (design.reshape(4 * n_bits, -1),
            np.array([1.0 - p00, p00, 0.0, 1.0]),
            np.array([p00 + p11 - 1.0, 1.0 - p00 - p11, 1.0, -1.0]))


def _table_logs(phi: np.ndarray, design: np.ndarray, offset: np.ndarray,
                slope: np.ndarray) -> tuple:
    """(tables (R, N, 4), log(table) @ design) of R rows of per-bit
    parameters `phi`.

    The tables are floored at PROB_FLOOR, which keeps 0 * log(0) = NaN out
    of the GEMM: a zero factor sends its product below PROB_FLOOR instead
    of to 0.
    """
    table = np.maximum(offset + phi[:, :, None] * slope, PROB_FLOOR)
    return table, np.log(table).reshape(len(table), -1) @ design


def _background(phi_perp: np.ndarray, tables: tuple,
                L1: np.ndarray) -> tuple:
    """(tables, log(table) @ design, unnormalized complement likelihoods
    (R, U), Bernoulli mass on the subspace (R, 1)) of R rows of `phi_perp`.

    `tables` are the shots' `_design_tables`, `L1` their likelihood matrix
    (|V|, U) with a ones column appended.  The exponential of the product
    holds each shot's full-space convolution prod_j P(z_j | phi_j) and each
    subspace state's P_out(s_k); subtracting the subspace terms
    sum_k P_out(s_k) K(z|s_k) leaves the complement sum exactly, and the
    ones column sums P_out over V.
    """
    table, logs = _table_logs(phi_perp, *tables)
    prods = np.exp(logs)
    u = L1.shape[1] - 1
    sub = prods[:, u:u + len(L1)] @ L1
    return (table, logs, np.maximum(prods[:, :u] - sub[:, :u], 0.0),
            sub[:, u:])


def _ones_column(a: np.ndarray) -> np.ndarray:
    return np.hstack([a, np.ones((len(a), 1))])


def _em_inputs(z: np.ndarray, basis: SubspaceBasis,
               channel: ReadoutChannel) -> tuple:
    """(likelihood matrix (|V|, U), `_design_tables`) of the shots z.

    L[k, i] = K(z_i | s_k) is the shots' table product with the bits of
    state s_k as the parameters; those bits are the design rows 4j + 2 of
    the state's column.
    """
    tables = _design_tables(z, np.asarray(basis.states, dtype=np.uint64),
                            channel, basis.n_bits)
    design, offset, slope = tables
    u = len(z)
    _, logs = _table_logs(design[2::4, u:].T, design[:, :u], offset, slope)
    return np.exp(logs), tables


def _background_likelihood(
    z: np.ndarray,
    phi_perp: np.ndarray,
    basis: SubspaceBasis,
    channel: ReadoutChannel,
) -> tuple:
    """(unnormalized complement likelihoods, Bernoulli mass on the subspace).

    Computed with the inputs and the evaluation `_em_fit` runs; dividing by
    1 - mass(V) normalizes the background into a proper component density.
    """
    L, tables = _em_inputs(z, basis, channel)
    _, _, l_perp, mass_v = _background(
        np.asarray(phi_perp, float)[None, :], tables, _ones_column(L))
    return l_perp[0], float(mass_v[0, 0])


def _target_indices(basis: SubspaceBasis,
                    target: Union[int, Sequence[int]]) -> tuple:
    """(target states as a tuple, their basis indices) of a target state or
    sequence of states."""
    states = ((target,) if isinstance(target, (int, np.integer))
              else tuple(target))
    return states, np.array([basis.index_of(int(t)) for t in states],
                            dtype=int)


@dataclass
class EMModel:
    basis: SubspaceBasis
    channel: ReadoutChannel
    phi_v: np.ndarray               # (|V|,)
    phi_perp: np.ndarray            # (N,)
    log_likelihood: list = field(default_factory=list)
    objective: list = field(default_factory=list)   # likelihood + Beta penalty
    iterations: int = 0
    converged: bool = False

    @property
    def out_of_subspace_mass(self) -> float:
        return float(max(0.0, 1.0 - self.phi_v.sum()))

    def target_probability(self, target: Union[int, Sequence[int]]) -> float:
        return float(self.phi_v[_target_indices(self.basis, target)[1]].sum())


@dataclass
class _RankStop:
    """The bootstrap's R target estimates, as far as its rank stop knows
    them.

    The interval reads the order statistics at positions a, a + 1 and
    b, b + 1 (ascending, from 0) of the estimates.  Each resample's final
    estimate, and the one a fit run to the EM's own stop would reach, lie in
    [low, high]: (-inf, inf) before its fit, a point once the EM's stop
    ends it, and otherwise e -+ B from its last check.  The rows whose
    intervals lie wholly below and wholly above a row's bound its rank; a
    rank range that holds none of the four positions is read by neither
    bound of the interval.
    """

    idx: np.ndarray          # basis indices of the target states
    a: int
    b: int
    low: np.ndarray          # (R,)
    high: np.ndarray         # (R,)
    stopped: np.ndarray      # (R,) whether the rank stop ended the fit

    @classmethod
    def reading(cls, idx: np.ndarray, resamples: int,
                quantiles: tuple) -> "_RankStop":
        """The rank stop of `resamples` estimates summed over `idx`, for
        the positions np.quantile reads at the two `quantiles`."""
        a, b = np.floor(np.quantile(np.arange(resamples), quantiles))
        return cls(idx, int(a), int(b),
                   np.full(resamples, -np.inf), np.full(resamples, np.inf),
                   np.zeros(resamples, dtype=bool))

    def unread(self, rows: np.ndarray) -> np.ndarray:
        """Whether the interval reads none of the ranks each of `rows` can
        take."""
        lo = np.searchsorted(np.sort(self.high), self.low[rows], "left")
        hi = np.searchsorted(np.sort(self.low), self.high[rows], "right") - 1
        return ((hi < self.a) | ((lo > self.a + 1) & (hi < self.b))
                | (lo > self.b + 1))


def _em_fit(
    counts: np.ndarray,
    L: np.ndarray,
    tables: tuple,
    rank: Optional[tuple] = None,
    record: bool = False,
) -> tuple:
    """Damped EM for R shot histograms over the same U distinct shots.

    `counts` is (R, U) (zero where a histogram lacks a shot), `L` the
    (|V|, U) likelihood matrix and `tables` the `_design_tables` of the
    shots.  Every row runs the iteration of `em_reconstruct` on its own: its
    own step halving, convergence test and iteration count; the rows only
    share numpy calls.  It reads PRIOR, EPS and MAX_ITER when called.  A
    row's parameters are one vector [phi_v | phi_perp] of length |V| + N.

    `rank` = (stop, first), a `_RankStop` and its row of counts' row 0,
    adds the bootstrap's rank stop to the EM's own.  Every _RANK_CHECK
    iterations, d is the distance a row moved since the last check in the
    step norm of the EM's stop, which bounds the move of its target estimate
    e.  With r the largest ratio of successive distances over the last
    _RANK_HISTORY checks, B = _RANK_SAFETY d r / (1 - r) bounds e's
    remaining movement (infinite unless r < 1); a row whose e -+ B the stop
    finds `unread` ends there.

    Returns (phi_v (R, |V|), phi_perp (R, N), iterations (R,), converged
    (R,), traces): converged is whether the EM's own stop ended the row,
    and traces holds each row's (log-likelihood, objective) lists when
    `record` is set: at the start and after every iteration, so the last
    entries are those of the returned parameters.
    """
    design, offset, slope = tables
    alpha, beta = PRIOR
    n_v, u = L.shape
    n = len(design) // 4
    n_rows = counts.shape[0]
    # one more design column: the Beta penalty sum_j a log phi_j
    # + b log(1 - phi_j)
    tables = (np.hstack([design,
                         np.tile([0.0, 0.0, alpha, beta], n)[:, None]]),
              offset, slope)
    L1 = _ones_column(L)
    LT = np.ascontiguousarray(L.T)
    # (U, 2N + 1): per bit, the shots that read 1 and those that read 0,
    # then ones; the posterior bit expectation takes one value on each
    reads = _ones_column(design[:, :u].reshape(n, 4, u)[:, :2]
                         .reshape(2 * n, u).T)
    given1 = offset[:2] + slope[:2]              # P(read 1 | 1), P(read 0 | 1)
    scale = np.repeat([1.0, 1.0 / n], [n_v, n])  # weights of the step size
    w = counts.astype(float)
    total = w.sum(axis=1, keepdims=True)

    def _evaluate(w, theta):
        table, logs, l_perp, mass_v = _background(theta[:, n_v:], tables, L1)
        fit = theta[:, :n_v] @ L1             # sum_k phi_k L_ki, sum_k phi_k
        pi = np.maximum(1.0 - fit[:, u:], PROB_FLOOR)
        # the background component, pi B
        bg = pi / np.maximum(1.0 - mass_v, PROB_FLOOR) * l_perp
        m = np.maximum(fit[:, :u] + bg, PROB_FLOOR)
        ll = (w * np.log(m)).sum(axis=1)
        return [ll, ll + logs[:, -1], m, bg, table]

    out = np.full((n_rows, n_v + n), 1.0 / (n_v + 1))
    out[:, n_v:] = 0.5
    iterations = np.zeros(n_rows, dtype=int)
    converged = np.zeros(n_rows, dtype=bool)
    traces = [([], []) for _ in range(n_rows)] if record else None
    # the halving ladder's trial rows per evaluation
    ladder_rows = max(1, _EM_BLOCK_ELEMENTS // (u + n_v))
    halvings = 0.5 ** np.arange(1, 40)

    def _record(ll, obj):
        for k, r in enumerate(live):
            traces[r][0].append(float(ll[k]))
            traces[r][1].append(float(obj[k]))

    # the rows still iterating and their state
    live = np.arange(n_rows)
    theta = out.copy()
    state = _evaluate(w, theta)
    if record:
        _record(*state[:2])
    if rank is not None:
        stop, first = rank
        # each live row's distance moved, in the stop's step norm, since
        # the last check and over each of the last _RANK_HISTORY checks
        path = np.zeros(n_rows)
        moves = np.full((_RANK_HISTORY, n_rows), np.nan)
    it = 0
    for it in range(1, MAX_ITER + 1):
        _, obj, m, bg, table = state
        # responsibilities rho_ki = phi_k L_ki / m_i, summed over shots
        ratio = w / m
        new_v = theta[:, :n_v] * (ratio @ LT) / total
        # penalized mean of the posterior bit expectations
        sums = (bg * ratio) @ reads
        post = (given1 / table[:, :, :2]) * sums[:, :-1].reshape(-1, n, 2)
        new_p = (theta[:, n_v:] * post.sum(axis=2) + alpha) \
            / (sums[:, -1:] + (alpha + beta))
        new = np.maximum(np.concatenate([new_v, new_p], axis=1), PARAM_CLIP)
        step = np.minimum(new, 1.0 - PARAM_CLIP) - theta
        # damped acceptance: a row takes the first of the steps 2^-k step,
        # k = 0 ... 39, that does not reduce its objective (the complement
        # renormalization spoils the exact M-step); the multiples of the
        # rows that reject the full step are evaluated together, a ladder
        # chunk at a time
        floor = obj - 1e-12
        cand = theta + step
        cand_state = _evaluate(w, cand)
        ok = cand_state[1] >= floor
        if np.count_nonzero(ok) < len(ok):
            pending, k0 = np.flatnonzero(~ok), 0
            while len(pending):
                if k0 == len(halvings):
                    # no multiple improves: the rows are at a stationary
                    # point, keep their parameters and so meet the stop
                    cand[pending] = theta[pending]
                    for x, y in zip(cand_state, state):
                        x[pending] = y[pending]
                    break
                ks = halvings[k0:k0 + max(1, ladder_rows // len(pending))]
                k0 += len(ks)
                trial = (theta[pending, None]
                         + ks[:, None] * step[pending, None]
                         ).reshape(-1, theta.shape[1])
                ev = _evaluate(np.repeat(w[pending], len(ks), axis=0),
                               trial)
                ok = (ev[1] >= np.repeat(floor[pending], len(ks))
                      ).reshape(-1, len(ks))
                got = ok.any(axis=1)
                pick = np.flatnonzero(got) * len(ks) + ok[got].argmax(axis=1)
                cand[pending[got]] = trial[pick]
                for x, y in zip(cand_state, ev):
                    x[pending[got]] = y[pick]
                pending = pending[~got]
        moved = np.abs(cand - theta) @ scale
        done = moved < EPS
        theta, state = cand, cand_state
        if record:
            _record(*state[:2])
        if rank is not None:
            path += moved
            if it % _RANK_CHECK == 0:
                est = theta[:, stop.idx].sum(axis=1)
                moves = np.vstack([moves[1:], path])
                path = np.zeros(len(live))
                with np.errstate(divide="ignore", invalid="ignore"):
                    r = (moves[1:] / moves[:-1]).max(axis=0)
                    bound = np.where(r < 1, _RANK_SAFETY * moves[-1] * r
                                     / (1 - r), np.inf)
                bound[done] = 0.0
                rows = first + live
                stop.low[rows], stop.high[rows] = est - bound, est + bound
                ranked = stop.unread(rows) & ~done
                stop.stopped[rows[ranked]] = True
                done |= ranked
            elif np.count_nonzero(done):
                rows = first + live[done]
                stop.low[rows] = stop.high[rows] = \
                    theta[done][:, stop.idx].sum(axis=1)
        if np.count_nonzero(done):
            fin = live[done]
            out[fin] = theta[done]
            iterations[fin] = it
            converged[fin] = True
            keep = ~done
            live, w, total = live[keep], w[keep], total[keep]
            theta = theta[keep]
            state = [x[keep] for x in state]
            if rank is not None:
                path, moves = path[keep], moves[:, keep]
            if len(live) == 0:
                break
    # rows that ran out of iterations
    out[live] = theta
    iterations[live] = it
    if rank is not None:
        converged &= ~stop.stopped[first:first + n_rows]
    return out[:, :n_v], out[:, n_v:], iterations, converged, traces


def _shot_histogram(shots: ShotSet, basis: SubspaceBasis) -> tuple:
    """(distinct shots ascending, each shot's index among them, their
    counts) after validating the shots."""
    if len(shots) == 0:
        raise ValueError("no shots")
    if shots.n_bits != basis.n_bits:
        raise ValueError("shot width does not match basis")
    return np.unique(np.asarray(shots.shots, dtype=np.uint64),
                     return_inverse=True, return_counts=True)


def em_reconstruct(
    shots: ShotSet,
    basis: SubspaceBasis,
    channel: ReadoutChannel,
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
    uniq, _, counts = _shot_histogram(shots, basis)
    L, tables = _em_inputs(uniq, basis, channel)
    phi_v, phi_perp, its, conv, traces = _em_fit(
        counts[None, :], L, tables, record=True)
    return EMModel(
        basis=basis, channel=channel, phi_v=phi_v[0], phi_perp=phi_perp[0],
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
    # each bootstrap resample's EM iteration count, whether the EM's own
    # stop ended its fit, and whether the rank stop did
    bootstrap_iterations: np.ndarray
    bootstrap_converged: np.ndarray
    bootstrap_rank_stopped: np.ndarray

    def __post_init__(self):
        if not (self.ci_low <= self.point + 1e-12
                and self.point <= self.ci_high + 1e-12):
            raise ValueError("confidence interval does not bracket the point")


def bootstrap_ci(
    shots: ShotSet,
    model: EMModel,
    target: Union[int, Sequence[int]],
    resamples: int = DEFAULT_RESAMPLES,
    seed: Optional[int] = None,
) -> ReconstructionResult:
    """Percentile bootstrap over with-replacement shot resamples.

    ``model`` is the `em_reconstruct` fit of ``shots``: it gives the point
    estimate, and each resample is fitted with its basis and channel.  The
    interval covers LEVEL of the resample estimates.  The result also
    carries each resample's EM iteration count and how its fit ended.

    The interval reads two order statistics of the estimates at each end,
    so a resample's fit can stop once its estimate, widened by a bound on
    its remaining movement, cannot be one of them (`_RankStop`, `_em_fit`).
    If every bound holds the interval is that of fits run to the EM's own
    stop.  If one fails, the interval still moves by at most that row's
    remaining movement: order statistics are 1-Lipschitz in the sup norm.
    """
    rng = np.random.default_rng(seed)
    basis, channel = model.basis, model.channel
    point = model.target_probability(target)
    uniq, inverse, _ = _shot_histogram(shots, basis)
    n, u = len(inverse), len(uniq)
    L, tables = _em_inputs(uniq, basis, channel)
    tgt, idx = _target_indices(basis, target)
    tail = (1.0 - LEVEL) / 2.0
    stop = _RankStop.reading(idx, resamples, (tail, 1.0 - tail))
    # a resample is a histogram over the same distinct shots, so all of them
    # share one likelihood matrix and are fitted together, in row blocks of
    # bounded size; a block's resamples are drawn a few rows at a time, the
    # same stream as one draw of len(shots) per resample
    block = max(1, _EM_BLOCK_ELEMENTS // (u + len(basis)))
    step = max(1, _DRAW_ELEMENTS // n)
    fits = []
    for i in range(0, resamples, block):
        hist = np.zeros((min(block, resamples - i), u), dtype=np.int64)
        for j in range(0, len(hist), step):
            rows = min(step, len(hist) - j)
            drawn = inverse[rng.choice(n, size=(rows, n))]
            drawn += u * np.arange(rows)[:, None]
            hist[j:j + rows] = np.bincount(
                drawn.ravel(), minlength=rows * u).reshape(rows, u)
        fits.append(_em_fit(hist, L, tables, (stop, i)))
    phi_v, its, conv = (np.concatenate([f[k] for f in fits])
                        for k in (0, 2, 3))
    estimates = phi_v[:, idx].sum(axis=1)
    low = float(np.quantile(estimates, tail))
    high = float(np.quantile(estimates, 1.0 - tail))
    # percentile intervals from finite resamples may not bracket the full-data
    # point estimate; widen to include it
    return ReconstructionResult(
        model=model, target=tgt, point=point, ci_low=min(low, point),
        ci_high=max(high, point), resamples=resamples,
        bootstrap_iterations=its, bootstrap_converged=conv,
        bootstrap_rank_stopped=stop.stopped)


def reconstruct_with_ci(
    shots: ShotSet,
    basis: SubspaceBasis,
    channel: ReadoutChannel,
    target: Union[int, Sequence[int]],
    resamples: int = DEFAULT_RESAMPLES,
    seed: Optional[int] = None,
) -> ReconstructionResult:
    model = em_reconstruct(shots, basis, channel)
    return bootstrap_ci(shots, model, target, resamples, seed)


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
