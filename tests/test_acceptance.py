"""Release gate: one test per numbered requirement.

Each test registers its verdict through record_acceptance, so a plain pytest
run ends with one PASS/FAIL line per requirement, then asserts.  The trained
toy network is shared between the score-accuracy and end-to-end tests through
a module fixture; training time counts against the first of them.
"""

import time
from functools import partial

import numpy as np
import pytest

from diffenh import em, metrics, noise_nmf, sampler, score, sde, signal
from oracles import GmmPrior, dsm_loss, gaussian_log_density, variance_ode_error

SEC = time.perf_counter


@pytest.fixture(scope="module")
def sched():
    return sde.SdeSchedule()


@pytest.fixture(scope="module")
def trained(sched):
    rng = np.random.default_rng(11)
    prior = score.AnalyticGaussianPrior(mean=np.zeros((16, 64)), var0=1.0, sched=sched)
    dataset = [prior.sample((16, 64), rng) for _ in range(64)]
    model = score.ToyScoreNet(hidden=(32, 32), seed=1234, sched=sched)
    cfg = score.TrainConfig(seed=99)  # the recipe `diffenh train` runs
    t0 = SEC()
    model, _ = score.train(model, dataset, cfg, sched)
    return model, prior, SEC() - t0


def _fd_score(log_density, s, t, eps=1e-6):
    # halved central differences per the half-gradient score convention
    out = np.zeros(s.shape, dtype=np.complex128)
    it = np.nditer(s, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        for unit in (1.0, 1.0j):
            plus = s.copy()
            plus[idx] += eps * unit
            minus = s.copy()
            minus[idx] -= eps * unit
            out[idx] += unit * (log_density(plus, t) - log_density(minus, t)) / (4 * eps)
        it.iternext()
    return out


def test_kernel_variance_closed_form_matches_ode(sched, record_acceptance):
    t0 = SEC()
    err = variance_ode_error(sched)
    dt = SEC() - t0
    ok = err < 1e-6 and dt < 1.0
    record_acceptance(1, "kernel variance vs ODE", ok, f"max rel err {err:.2e} in {dt:.2f}s")
    assert ok, f"err={err}, dt={dt}"


def test_perturbation_moments_match_kernel(sched, record_acceptance):
    t0 = SEC()
    rng = np.random.default_rng(2)
    n = 100_000
    s0 = np.full(n, 0.7 - 0.3j)
    worst_mean_se, worst_var_rel = 0.0, 0.0
    for t in (0.25, 0.5, 1.0):
        draws = sde.perturb(s0, t, sched, rng)
        mom = sde.kernel_moments(t, sched)
        se = np.sqrt(mom.var / n)
        mean_sigmas = abs(draws.mean() - mom.delta * s0[0]) / se
        var_rel = abs(np.var(draws) - mom.var) / mom.var
        worst_mean_se = max(worst_mean_se, mean_sigmas)
        worst_var_rel = max(worst_var_rel, var_rel)
    dt = SEC() - t0
    ok = worst_mean_se < 4.0 and worst_var_rel < 0.05 and dt < 10.0
    record_acceptance(
        2, "perturbation kernel moments", ok,
        f"mean off {worst_mean_se:.2f} SE, var off {worst_var_rel:.3%} in {dt:.1f}s",
    )
    assert ok, f"mean_se={worst_mean_se}, var_rel={worst_var_rel}, dt={dt}"


def test_analytic_scores_match_finite_differences(sched, record_acceptance):
    t0 = SEC()
    rng = np.random.default_rng(3)
    gauss = score.AnalyticGaussianPrior(mean=0.3 - 0.7j, var0=1.3, sched=sched)
    gmm = GmmPrior(
        components=[(0.5, 0.8 + 0.2j, 0.4), (0.3, -0.5j, 0.9), (0.2, -1.0 + 1.0j, 0.2)],
        sched=sched,
    )
    models = [(gauss, partial(gaussian_log_density, gauss)), (gmm, gmm.log_density)]
    worst = 0.0
    for probe in range(100):
        t = float(rng.uniform(sched.t_min, 1.0))
        for model, log_density in models:
            s = model.sample((2, 2), rng)
            exact = model.evaluate(s, t)
            approx = _fd_score(log_density, s, t)
            worst = max(worst, np.linalg.norm(exact - approx) / np.linalg.norm(approx))
    dt = SEC() - t0
    ok = worst < 1e-5 and dt < 5.0
    record_acceptance(
        3, "analytic scores vs finite differences", ok,
        f"worst rel err {worst:.2e} over 100 probes x 2 models in {dt:.1f}s",
    )
    assert ok, f"worst={worst}, dt={dt}"


def test_dsm_loss_oracle_zero_and_exact_gradient(sched, record_acceptance):
    t0 = SEC()
    rng = np.random.default_rng(4)
    prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=sched)
    dataset = [prior.sample((4, 12), rng) for _ in range(4)]
    batch = score.make_train_batch(dataset, 6, 8, sched, rng)

    class OracleTarget:
        def __init__(self, b):
            sig = np.sqrt([sde.kernel_moments(float(tt), sched).var for tt in b.t])
            self.value = -b.zeta / sig[:, None, None]
            self.times = [float(tt) for tt in b.t]

        def evaluate(self, s_t, t):
            return self.value[self.times.index(t)]

    oracle_loss = dsm_loss(OracleTarget(batch), batch, sched)

    net = score.ToyScoreNet(hidden=(16, 16), seed=5, dtype=np.float64, sched=sched)
    grad_batch = score.make_train_batch(dataset, 3, 4, sched, rng)
    _, analytic = score.dsm_loss_and_grad(net, grad_batch)
    base = net.theta.copy()
    idx = rng.choice(base.size, 60, replace=False)
    eps = 1e-6
    fd = np.zeros(len(idx))
    for j, i in enumerate(idx):
        # dsm_loss evaluates the EMA weights, so both vectors move together
        for sgn in (1.0, -1.0):
            net.theta[i] = net.ema_theta[i] = base[i] + sgn * eps
            fd[j] += sgn * dsm_loss(net, grad_batch, sched)
        net.theta[i] = net.ema_theta[i] = base[i]
        fd[j] /= 2 * eps
    rel = np.linalg.norm(analytic[idx] - fd) / np.linalg.norm(fd)
    dt = SEC() - t0
    ok = oracle_loss == 0.0 and net.n_params <= 1000 and rel < 1e-4 and dt < 30.0
    record_acceptance(
        4, "training objective and gradient", ok,
        f"oracle loss {oracle_loss}, grad rel err {rel:.2e} "
        f"({net.n_params} params) in {dt:.1f}s",
    )
    assert ok, f"oracle_loss={oracle_loss}, rel={rel}, dt={dt}"


def test_trained_net_tracks_analytic_score(sched, trained, record_acceptance):
    model, prior, train_sec = trained
    t0 = SEC()
    rng = np.random.default_rng(6)
    errs = {}
    for t in (0.1, 0.5, 1.0):
        num = den = 0.0
        for _ in range(32):
            s0 = prior.sample((16, 64), rng)
            s_t = sde.perturb(s0, t, sched, rng)
            ref = prior.evaluate(s_t, t)
            est = model.evaluate(s_t, t)
            num += float(np.sum(np.abs(est - ref) ** 2))
            den += float(np.sum(np.abs(ref) ** 2))
        errs[t] = (num / den) ** 0.5
    dt = train_sec + SEC() - t0
    worst = max(errs.values())
    ok = worst < 0.15 and dt < 600.0
    record_acceptance(
        5, "trained score accuracy", ok,
        "rel L2 " + ", ".join(f"{e:.3f} at t={t}" for t, e in errs.items())
        + f" (train+eval {dt:.0f}s)",
    )
    assert ok, f"errs={errs}, dt={dt}"


def test_unconditional_sampling_reproduces_prior_moments(sched, record_acceptance):
    t0 = SEC()
    mu0, var0 = 0.4 - 0.8j, 1.0
    prior = score.AnalyticGaussianPrior(mean=mu0, var0=var0, sched=sched)
    cfg = sampler.SamplerConfig()
    rng = np.random.default_rng(7)
    draws = np.stack(
        [sampler.unconditional_sample((8, 8), prior, sched, cfg, rng) for _ in range(500)]
    )
    mean_err = abs(draws.mean() - mu0) / var0**0.5
    var_rel = abs(np.var(draws) - var0) / var0
    dt = SEC() - t0
    ok = mean_err < 0.10 and var_rel < 0.10 and dt < 120.0
    record_acceptance(
        6, "unconditional sampling moments", ok,
        f"mean off {mean_err:.3f} of sigma0, var off {var_rel:.3%} "
        f"over 500 samples in {dt:.0f}s",
    )
    assert ok, f"mean_err={mean_err}, var_rel={var_rel}, dt={dt}"


def test_posterior_sampling_matches_conjugate_mean(sched, record_acceptance):
    t0 = SEC()
    rng = np.random.default_rng(8)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, (6, 10)))
    x = 3.0 * phases
    prior = score.AnalyticGaussianPrior(mean=np.zeros((6, 10)), var0=1.0, sched=sched)
    cfg = sampler.SamplerConfig()
    v = np.ones((6, 10))
    chains = np.stack(
        [sampler.posterior_sample(x, prior, sched, cfg, v, rng) for _ in range(200)]
    )
    post_mean = chains.mean(axis=0)
    rel = float(np.linalg.norm(post_mean - x / 2) / np.linalg.norm(x / 2))
    dt = SEC() - t0
    ok = rel < 0.10 and dt < 300.0
    record_acceptance(
        7, "posterior sampling conjugate oracle", ok,
        f"rel err {rel:.3f} vs x/2 over 200 chains in {dt:.0f}s",
    )
    assert ok, f"rel={rel}, dt={dt}"


def test_nmf_updates_monotone_and_recover_rank4(record_acceptance):
    t0 = SEC()
    rng = np.random.default_rng(9)
    violations = 0
    for trial in range(20):
        P = rng.uniform(0.01, 5.0, (8, 10))
        params = noise_nmf.init_nmf(8, 10, 3, float(P.mean()), seed=trial)
        prev = noise_nmf.is_objective(P, params)
        for _ in range(50):
            params = noise_nmf.m_step(P, params, 1)
            cur = noise_nmf.is_objective(P, params)
            if cur > prev + 1e-10:
                violations += 1
            prev = cur
    W = rng.uniform(0.2, 1.5, (12, 4))
    H = rng.uniform(0.2, 1.5, (4, 16))
    P = W @ H
    params = noise_nmf.init_nmf(12, 16, 4, float(P.mean()), seed=1)
    for _ in range(20_000):
        params = noise_nmf.m_step(P, params, 1)
    gap = noise_nmf.is_objective(P, params) - float(np.sum(1.0 + np.log(P)))
    dt = SEC() - t0
    ok = violations == 0 and gap < 1e-6 and dt < 30.0
    record_acceptance(
        8, "noise factorization updates", ok,
        f"{violations} objective increases over 20x50 updates, "
        f"rank-4 gap {gap:.2e} in {dt:.1f}s",
    )
    assert ok, f"violations={violations}, gap={gap}, dt={dt}"


def test_end_to_end_enhancement_gains_3db(sched, trained, record_acceptance):
    model, _, _ = trained
    t0 = SEC()
    toy = signal.StftConfig(window_len=64, hop=16, compress_alpha=1.0, compress_beta=1.0)
    deltas = []
    for i in range(20):
        rng = np.random.default_rng(1000 + i)
        clean = em.synth_clean_waveform(80, model, sched, toy, rng)
        noise = signal.Waveform(
            noise_nmf.synth_noise_waveform(len(clean), 4, rng), clean.sample_rate
        )
        noisy, _ = signal.mix_at_snr(clean, noise, 0.0, seed=i)
        enhanced = em.enhance_waveform(noisy, model, sched, toy, em.EnhancementConfig(seed=i))
        deltas.append(metrics.si_sdr(enhanced, clean) - metrics.si_sdr(noisy, clean))
    mean_delta = float(np.mean(deltas))
    dt = SEC() - t0
    ok = mean_delta >= 3.0 and dt < 1800.0
    record_acceptance(
        9, "end-to-end enhancement at 0 dB", ok,
        f"mean SI-SDR gain {mean_delta:+.2f} dB (min {min(deltas):+.2f}) "
        f"over 20 utterances in {dt:.0f}s",
    )
    assert ok, f"mean_delta={mean_delta}, dt={dt}"


def test_fixed_seed_bit_identical_outputs(sched, record_acceptance):
    prior = score.AnalyticGaussianPrior(mean=np.zeros((6, 8)), var0=1.0, sched=sched)
    cfg = sampler.SamplerConfig(n_steps=6)
    checks = []

    draws = [
        sampler.unconditional_sample((6, 8), prior, sched, cfg, np.random.default_rng(1))
        for _ in range(2)
    ]
    checks.append(np.array_equal(*draws))

    x = 2.0 * np.ones((6, 8), dtype=complex)
    posts = [
        sampler.posterior_sample(x, prior, sched, cfg, np.ones((6, 8)), np.random.default_rng(2))
        for _ in range(2)
    ]
    checks.append(np.array_equal(*posts))

    ecfg = em.EnhancementConfig(em_iters=2, batch=2, reverse_steps=6, seed=3)
    runs = [em.enhance_spectrogram(x, prior, sched, ecfg) for _ in range(2)]
    checks.append(np.array_equal(runs[0].s_hat, runs[1].s_hat))
    checks.append(np.array_equal(runs[0].nmf.W, runs[1].nmf.W))

    flat_prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=sched)
    dataset = [flat_prior.sample((6, 16), np.random.default_rng(4)) for _ in range(3)]
    tcfg = score.TrainConfig(lr=1e-3, batch_size=2, epochs=1, steps_per_epoch=20,
                             patch_frames=8, lr_decay="constant", seed=5)
    nets = []
    for _ in range(2):
        net = score.ToyScoreNet(hidden=(8,), seed=6, sched=sched)
        net, _ = score.train(net, dataset, tcfg, sched)
        nets.append(net.theta)
    checks.append(np.array_equal(*nets))

    mixes = [
        signal.mix_at_snr(
            signal.Waveform(np.sin(np.arange(400) / 10), 16000),
            signal.Waveform(np.cos(np.arange(700) / 7), 16000),
            3.0, seed=7,
        )[0].samples
        for _ in range(2)
    ]
    checks.append(np.array_equal(*mixes))

    ok = all(checks)
    record_acceptance(
        10, "seeded determinism", ok,
        f"{sum(checks)}/{len(checks)} pipelines bit-identical "
        "(sampling, posterior, EM, training, mixing)",
    )
    assert ok, f"checks={checks}"


def test_si_sdr_orthogonal_construction_exact(record_acceptance):
    n = 1024
    t = np.arange(n)
    ref = np.sin(2 * np.pi * 5 * t / n)
    dist = np.sin(2 * np.pi * 11 * t / n)
    ref_p = float(np.dot(ref, ref))
    dist_p = float(np.dot(dist, dist))
    worst = 0.0
    for target_db in (-7.5, 0.0, 12.5):
        g = (ref_p / dist_p * 10 ** (-target_db / 10.0)) ** 0.5
        got = metrics.si_sdr(
            signal.Waveform(ref + g * dist, 16000), signal.Waveform(ref, 16000)
        )
        worst = max(worst, abs(got - target_db))
    ok = worst < 1e-9
    record_acceptance(
        11, "SI-SDR orthogonal construction", ok, f"worst abs err {worst:.2e} dB"
    )
    assert ok, f"worst={worst}"
