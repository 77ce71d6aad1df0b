"""Readout-channel EM reconstruction: oracles, monotonicity, coverage."""

import numpy as np
import pytest

from blockwalk import mitigation as mt, rydberg as ry, subspace as ss


def _basis(n):
    return ss.enumerate_subspace(ss.ring_graph(n))


def _mass_on_subspace(basis, phi_perp):
    """sum over V of prod_j phi_j^s_j (1 - phi_j)^(1 - s_j), state by state."""
    n = basis.n_bits
    return sum(np.prod(np.where([(int(s) >> j) & 1 for j in range(n)],
                                phi_perp, 1.0 - phi_perp))
               for s in basis.states)


def _shots_from_probs(basis, probs, n_shots, channel, seed):
    full = np.zeros(1 << basis.n_bits, dtype=complex)
    full[basis.states] = np.sqrt(probs)
    return ry.sample_shots(full, basis.n_bits, n_shots,
                           p00=channel.p00, p11=channel.p11, seed=seed)


def test_channel_validation():
    with pytest.raises(ValueError):
        mt.ReadoutChannel(p00=-0.1, p11=0.93)
    with pytest.raises(ValueError):
        mt.ReadoutChannel(p00=0.99, p11=1.2)
    assert mt.STANDARD_CHANNEL.p00 == 0.99
    assert mt.LOCAL_DETUNING_CHANNEL.p00 == 0.90


def test_channel_likelihood_factorizes():
    ch = mt.ReadoutChannel(p00=0.9, p11=0.93)
    n = 4
    # product over bits of P(z_j | s_j)
    for z, s in ((0b0101, 0b0101), (0b0000, 0b1111), (0b0011, 0b0101)):
        expected = 1.0
        for j in range(n):
            zj, sj = (z >> j) & 1, (s >> j) & 1
            if sj == 0:
                expected *= ch.p00 if zj == 0 else 1 - ch.p00
            else:
                expected *= ch.p11 if zj == 1 else 1 - ch.p11
        assert mt.channel_likelihood(z, s, n, ch) == pytest.approx(expected)


def test_identity_channel_recovers_frequencies():
    basis = _basis(6)
    rng = np.random.default_rng(0)
    probs = rng.dirichlet(np.ones(len(basis)))
    ch = mt.ReadoutChannel(p00=1.0 - 1e-9, p11=1.0 - 1e-9)
    shots = _shots_from_probs(basis, probs, 4000, ch, seed=1)
    model = mt.em_reconstruct(shots, basis, ch)
    counts = np.zeros(len(basis))
    for z in shots.shots:
        counts[basis.index_of(int(z))] += 1
    freq = counts / counts.sum()
    assert np.allclose(model.phi_v, freq, atol=5e-4)
    assert model.out_of_subspace_mass < 1e-3


@pytest.mark.parametrize("p00,p11,phi0", [(0.9, 0.93, None), (1.0, 0.93, 0.0),
                                          (0.9, 1.0, 1.0)],
                         ids=["noisy", "p00-one", "p11-one"])
def test_background_factorization_matches_bruteforce(p00, p11, phi0):
    # a perfect channel, with bit 0's phi at 0 or 1, puts zeros in the
    # per-bit tables: their floored logs must give zero products, not NaN;
    # an empty complement sum is the difference of two equal sums, so it
    # comes out as their rounding
    basis = _basis(7)
    ch = mt.ReadoutChannel(p00=p00, p11=p11)
    rng = np.random.default_rng(2)
    phi_perp = rng.uniform(0.05, 0.6, size=7)
    if phi0 is not None:
        phi_perp[0] = phi0
    zs = rng.integers(0, 1 << 7, size=40, dtype=np.uint64)
    fast, mass_v = mt._background_likelihood(zs, phi_perp, basis, ch)
    for i, z in enumerate(zs):
        slow = mt.background_likelihood_bruteforce(int(z), phi_perp, basis, ch)
        if slow == 0.0:
            assert 0.0 <= fast[i] <= 1e-15
        else:
            assert fast[i] == pytest.approx(slow, rel=1e-10, abs=1e-300)
    assert mass_v == pytest.approx(_mass_on_subspace(basis, phi_perp),
                                   rel=1e-12)


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("p00,p11", [(0.99, 0.93), (1.0, 0.93), (0.99, 1.0)],
                         ids=["standard", "p00-one", "p11-one"])
def test_likelihood_matrix_matches_channel_likelihood(n, p00, p11):
    # the EM's likelihood matrix is its table product at the subspace
    # states; a perfect channel puts zeros in the tables, whose floored logs
    # must leave products at most PROB_FLOOR, not NaN
    basis = _basis(n)
    ch = mt.ReadoutChannel(p00=p00, p11=p11)
    zs = np.arange(1 << n, dtype=np.uint64)
    L, _ = mt._em_inputs(zs, basis, ch)
    assert L.shape == (len(basis), len(zs)) and np.isfinite(L).all()
    for k, s in enumerate(basis.states):
        for i, z in enumerate(zs):
            ref = mt.channel_likelihood(int(z), int(s), n, ch)
            if ref == 0.0:
                assert 0.0 <= L[k, i] <= 2 * mt.PROB_FLOOR
            else:
                assert L[k, i] == pytest.approx(ref, rel=1e-12, abs=0)


def test_log_likelihood_matches_bruteforce_mixture():
    # the last log-likelihood of the fit is sum_i w_i log m_i at its fitted
    # parameters, with m_i summed state by state and the background over
    # the complement of the subspace by brute force
    basis = _basis(5)
    ch = mt.ReadoutChannel(0.95, 0.9)
    rng = np.random.default_rng(2)
    full = rng.standard_normal(1 << 5) + 0j      # mass outside the subspace
    full /= np.linalg.norm(full)
    shots = ry.sample_shots(full, 5, 500, p00=ch.p00, p11=ch.p11, seed=2)
    model = mt.em_reconstruct(shots, basis, ch)
    phi_v, phi_perp = model.phi_v, model.phi_perp
    mass_v = _mass_on_subspace(basis, phi_perp)
    uniq, counts = np.unique(np.asarray(shots.shots), return_counts=True)
    ll = 0.0
    for z, c in zip(uniq, counts):
        m = sum(p * mt.channel_likelihood(int(z), int(s), 5, ch)
                for p, s in zip(phi_v, basis.states))
        m += (1.0 - phi_v.sum()) * mt.background_likelihood_bruteforce(
            int(z), phi_perp, basis, ch) / (1.0 - mass_v)
        ll += c * np.log(m)
    assert model.converged and model.out_of_subspace_mass > 0.1
    assert len(model.log_likelihood) == model.iterations + 1
    assert model.log_likelihood[-1] == pytest.approx(ll, rel=0, abs=1e-10)


def test_objective_monotone():
    basis = _basis(6)
    ch = mt.LOCAL_DETUNING_CHANNEL
    for seed in range(5):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(len(basis)) * 0.3)
        shots = _shots_from_probs(basis, probs, 800, ch, seed=seed + 100)
        model = mt.em_reconstruct(shots, basis, ch)
        diffs = np.diff(model.objective)
        assert np.all(diffs >= -1e-9)
        assert model.converged


def test_batched_fit_matches_one_fit_per_resample(monkeypatch):
    # bootstrap_ci fits all resamples as rows of one _em_fit call; each row
    # must follow em_reconstruct on that resample alone: same iteration
    # count, convergence flag, objective trace and parameters
    basis = _basis(6)
    ch = mt.ReadoutChannel(0.95, 0.9)
    rng = np.random.default_rng(3)
    full = rng.standard_normal(1 << 6) + 0j      # mass outside the subspace
    full /= np.linalg.norm(full)
    shots = ry.sample_shots(full, 6, 400, p00=ch.p00, p11=ch.p11, seed=8)
    arr = np.asarray(shots.shots, dtype=np.uint64)
    uniq, _, _ = mt._shot_histogram(shots, basis)
    L, tables = mt._em_inputs(uniq, basis, ch)
    samples = [rng.choice(arr, size=len(arr), replace=True) for _ in range(12)]
    hist = np.stack([np.bincount(np.searchsorted(uniq, s),
                                 minlength=len(uniq)) for s in samples])
    for max_iter in (mt.MAX_ITER, 5):
        monkeypatch.setattr(mt, "MAX_ITER", max_iter)
        phi_v, phi_perp, its, conv, traces = mt._em_fit(hist, L, tables,
                                                        record=True)
        for r, sample in enumerate(samples):
            one = mt.em_reconstruct(
                ry.ShotSet(n_bits=6, shots=sample, p00=ch.p00, p11=ch.p11,
                           seed=None), basis, ch)
            assert its[r] == one.iterations
            assert conv[r] == one.converged
            assert np.allclose(phi_v[r], one.phi_v, rtol=0, atol=1e-8)
            assert np.allclose(phi_perp[r], one.phi_perp, rtol=0, atol=1e-8)
            assert np.allclose(traces[r][1], one.objective, rtol=1e-12, atol=0)


def test_halving_ladder_chunks_pick_the_first_accepted_step(monkeypatch):
    # the rejected rows' multiples 2^-1 ... 2^-39 are evaluated in chunks
    # of at most _EM_BLOCK_ELEMENTS trial rows; one multiple per chunk is
    # the plain halving loop, and every chunking takes the same steps
    basis = _basis(6)
    ch = mt.ReadoutChannel(0.95, 0.9)
    probs = np.random.default_rng(4).dirichlet(np.ones(len(basis)) * 0.3)
    shots = _shots_from_probs(basis, probs, 400, ch, seed=4)
    arr = np.asarray(shots.shots, dtype=np.uint64)
    uniq, _, _ = mt._shot_histogram(shots, basis)
    L, tables = mt._em_inputs(uniq, basis, ch)
    rng = np.random.default_rng(5)
    hist = np.stack([np.bincount(
        np.searchsorted(uniq, rng.choice(arr, size=len(arr))),
        minlength=len(uniq)) for _ in range(12)])
    fits = []
    for rows in (1, 7, 12 * 39):
        monkeypatch.setattr(mt, "_EM_BLOCK_ELEMENTS",
                            rows * (len(uniq) + len(basis)))
        fits.append(mt._em_fit(hist, L, tables, record=True))
    for phi_v, phi_perp, its, conv, traces in fits[1:]:
        assert np.array_equal(its, fits[0][2])
        assert np.array_equal(conv, fits[0][3])
        assert np.allclose(phi_v, fits[0][0], rtol=0, atol=1e-12)
        for trace, ref in zip(traces, fits[0][4]):
            assert np.allclose(trace[1], ref[1], rtol=1e-12, atol=0)


def test_bootstrap_rank_stop_across_row_blocks(monkeypatch):
    # rows of blocks not fitted yet count as unbounded, so a bootstrap
    # fitted in row blocks reads the interval of one fitted whole
    basis = _basis(5)
    ch = mt.LOCAL_DETUNING_CHANNEL
    z = ss.str_to_bits(ss.half_target(5))
    probs = 0.8 * np.random.default_rng(6).dirichlet(np.ones(len(basis)))
    probs[basis.index_of(z)] += 0.2
    shots = _shots_from_probs(basis, probs, 1000, ch, seed=6)
    model = mt.em_reconstruct(shots, basis, ch)
    whole = mt.bootstrap_ci(shots, model, z, resamples=150, seed=6)
    uniq, _, _ = mt._shot_histogram(shots, basis)
    monkeypatch.setattr(mt, "_EM_BLOCK_ELEMENTS",
                        40 * (len(uniq) + len(basis)))
    blocks = mt.bootstrap_ci(shots, model, z, resamples=150, seed=6)
    assert blocks.ci_low == pytest.approx(whole.ci_low, abs=1e-9)
    assert blocks.ci_high == pytest.approx(whole.ci_high, abs=1e-9)
    assert blocks.bootstrap_rank_stopped[:40].any()
    assert blocks.bootstrap_rank_stopped[40:].any()


def test_reconstruction_beats_raw_frequency():
    # with an asymmetric channel the EM estimate should sit closer to the
    # truth than the uncorrected empirical frequency
    basis = _basis(6)
    ch = mt.LOCAL_DETUNING_CHANNEL
    z = ss.str_to_bits("010101")
    probs = np.full(len(basis), 0.2 / (len(basis) - 1))
    probs[basis.index_of(z)] = 0.8
    shots = _shots_from_probs(basis, probs, 4000, ch, seed=9)
    model = mt.em_reconstruct(shots, basis, ch)
    raw = np.mean(np.asarray(shots.shots) == z)
    est = model.target_probability(z)
    assert abs(est - 0.8) < abs(raw - 0.8)
    assert abs(est - 0.8) < 0.05


def test_bootstrap_ci_brackets_point():
    basis = _basis(5)
    ch = mt.STANDARD_CHANNEL
    z = ss.str_to_bits("00101")
    probs = np.full(len(basis), 0.3 / (len(basis) - 1))
    probs[basis.index_of(z)] = 0.7
    shots = _shots_from_probs(basis, probs, 600, ch, seed=4)
    res = mt.reconstruct_with_ci(shots, basis, ch, z, resamples=100, seed=5)
    assert res.ci_low <= res.point <= res.ci_high
    assert 0.0 <= res.ci_low and res.ci_high <= 1.0


def test_reconstruct_with_ci_fits_full_data_once(monkeypatch):
    basis = _basis(5)
    ch = mt.STANDARD_CHANNEL
    z = ss.str_to_bits("00101")
    probs = np.full(len(basis), 0.3 / (len(basis) - 1))
    probs[basis.index_of(z)] = 0.7
    shots = _shots_from_probs(basis, probs, 600, ch, seed=4)
    expected = mt.bootstrap_ci(shots, mt.em_reconstruct(shots, basis, ch), z,
                               resamples=40, seed=5)
    fits = []
    original = mt.em_reconstruct
    monkeypatch.setattr(mt, "em_reconstruct",
                        lambda *a, **k: fits.append(1) or original(*a, **k))
    res = mt.reconstruct_with_ci(shots, basis, ch, z, resamples=40, seed=5)
    assert len(fits) == 1
    assert (res.ci_low, res.point, res.ci_high) == (
        expected.ci_low, expected.point, expected.ci_high)
    assert np.array_equal(res.bootstrap_iterations,
                          expected.bootstrap_iterations)
    assert res.point == res.model.target_probability(z)


def test_bootstrap_ci_fits_resamples_with_model_settings():
    # each resample is fitted with the full-data model's basis and channel,
    # so the interval matches em_reconstruct on the same draws
    basis = _basis(5)
    ch = mt.ReadoutChannel(0.95, 0.9)
    z = ss.str_to_bits("00101")
    probs = np.full(len(basis), 0.4 / (len(basis) - 1))
    probs[basis.index_of(z)] = 0.6
    shots = _shots_from_probs(basis, probs, 300, ch, seed=2)
    model = mt.em_reconstruct(shots, basis, ch)
    res = mt.bootstrap_ci(shots, model, z, resamples=20, seed=7)
    low, point, high = res.ci_low, res.point, res.ci_high
    rng = np.random.default_rng(7)
    arr = np.asarray(shots.shots, dtype=np.uint64)
    fits = [
        mt.em_reconstruct(
            ry.ShotSet(n_bits=5, shots=rng.choice(arr, size=len(arr)),
                       p00=ch.p00, p11=ch.p11, seed=None),
            basis, ch)
        for _ in range(20)]
    estimates = [fit.target_probability(z) for fit in fits]
    # the result carries each resample's iteration count and how its fit
    # ended: the rank stop ends some fits early, the others end as
    # em_reconstruct's do
    kept = ~res.bootstrap_rank_stopped
    assert kept.any() and not kept.all()
    assert not res.bootstrap_converged[~kept].any()
    assert (res.bootstrap_iterations[kept].tolist()
            == [f.iterations for f, k in zip(fits, kept) if k])
    assert (res.bootstrap_converged[kept].tolist()
            == [f.converged for f, k in zip(fits, kept) if k])
    assert point == model.target_probability(z)
    assert low == pytest.approx(min(np.quantile(estimates, 0.025), point),
                                abs=1e-10)
    assert high == pytest.approx(max(np.quantile(estimates, 0.975), point),
                                 abs=1e-10)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("channel", [mt.STANDARD_CHANNEL,
                                     mt.LOCAL_DETUNING_CHANNEL],
                         ids=["standard", "local-detuning"])
def test_bootstrap_rank_stop_matches_full_fits(n, channel):
    # the rank stop ends a resample's fit only where the interval cannot
    # read its estimate: the interval is the one of the same resamples
    # fitted to the EM's own stop, and the fits it does not end are those.
    # A fit's iteration count can depend on the rows it shares numpy calls
    # with (BLAS products round by call shape, and the step acceptance
    # floor is at rounding level), so one kept row may stop at another
    # iteration
    basis = _basis(n)
    z = ss.str_to_bits(ss.half_target(n))
    rng = np.random.default_rng(n)
    idx = basis.index_of(z)
    probs = 0.8 * rng.dirichlet(np.ones(len(basis)) * 0.4)
    probs[idx] += 0.2
    shots = _shots_from_probs(basis, probs, 1000, channel, seed=n)
    model = mt.em_reconstruct(shots, basis, channel)
    arr = np.asarray(shots.shots, dtype=np.uint64)
    uniq, _, _ = mt._shot_histogram(shots, basis)
    L, tables = mt._em_inputs(uniq, basis, channel)
    # a bootstrap of R resamples with seed n draws the first R of these
    draw = np.random.default_rng(n)
    hist = np.stack([np.bincount(
        np.searchsorted(uniq, draw.choice(arr, size=len(arr))),
        minlength=len(uniq)) for _ in range(200)])
    phi_v, _, its, conv, _ = mt._em_fit(hist, L, tables)
    stopped = 0
    for resamples in (20, 150, 200):
        res = mt.bootstrap_ci(shots, model, z, resamples=resamples, seed=n)
        low, high = np.quantile(phi_v[:resamples, idx], [0.025, 0.975])
        assert res.ci_low == pytest.approx(min(low, res.point), abs=1e-9)
        assert res.ci_high == pytest.approx(max(high, res.point), abs=1e-9)
        kept = ~res.bootstrap_rank_stopped
        assert np.count_nonzero(res.bootstrap_iterations[kept]
                                != its[:resamples][kept]) <= 1
        assert np.array_equal(res.bootstrap_converged,
                              kept & conv[:resamples])
        stopped += np.count_nonzero(~kept)
    assert stopped > 0


@pytest.mark.parametrize("n_shots", [37, 1001])
def test_bootstrap_ci_draws_one_resample_per_row(n_shots, monkeypatch):
    # the resamples are drawn three rows at a time into row blocks of 7;
    # each row's histogram is the one of rng.choice(shots, len(shots))
    # drawn resample by resample, and a short last block takes the rest
    basis = _basis(5)
    ch = mt.STANDARD_CHANNEL
    probs = np.full(len(basis), 1.0 / len(basis))
    shots = _shots_from_probs(basis, probs, n_shots, ch, seed=n_shots)
    monkeypatch.setattr(mt, "MAX_ITER", 2)
    model = mt.em_reconstruct(shots, basis, ch)
    uniq, _, _ = mt._shot_histogram(shots, basis)
    monkeypatch.setattr(mt, "_EM_BLOCK_ELEMENTS",
                        7 * (len(uniq) + len(basis)))
    monkeypatch.setattr(mt, "_DRAW_ELEMENTS", 3 * n_shots)
    fitted = []
    em_fit = mt._em_fit
    monkeypatch.setattr(mt, "_em_fit",
                        lambda counts, *a: fitted.append(counts) or
                        em_fit(counts, *a))
    mt.bootstrap_ci(shots, model, int(basis.states[1]), resamples=17, seed=3)
    assert [len(h) for h in fitted] == [7, 7, 3]
    rng = np.random.default_rng(3)
    arr = np.asarray(shots.shots, dtype=np.uint64)
    ref = [np.bincount(np.searchsorted(uniq, rng.choice(arr, size=len(arr))),
                       minlength=len(uniq)) for _ in range(17)]
    assert np.array_equal(np.concatenate(fitted), np.array(ref))


def test_coverage_smoke():
    # small version of the acceptance coverage property: >= 8 of 10 trials
    basis = _basis(6)
    ch = mt.ReadoutChannel(0.90, 0.93)
    z = ss.str_to_bits("000101")
    rng = np.random.default_rng(42)
    hits = 0
    for trial in range(10):
        probs = rng.dirichlet(np.ones(len(basis)) * 0.5)
        truth = probs[basis.index_of(z)]
        shots = _shots_from_probs(basis, probs, 600, ch, seed=1000 + trial)
        res = mt.reconstruct_with_ci(shots, basis, ch, z,
                                     resamples=60, seed=2000 + trial)
        if res.ci_low <= truth <= res.ci_high:
            hits += 1
    assert hits >= 8


def test_result_json_fields():
    import json

    basis = _basis(5)
    ch = mt.STANDARD_CHANNEL
    probs = np.full(len(basis), 1.0 / len(basis))
    shots = _shots_from_probs(basis, probs, 200, ch, seed=6)
    res = mt.reconstruct_with_ci(shots, basis, ch, int(basis.states[0]),
                                 resamples=50, seed=7)
    d = json.loads(mt.result_to_json(res))
    assert "ci" in d and "iterations" in d
