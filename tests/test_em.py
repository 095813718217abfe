import math
import multiprocessing
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from diffenh import em
from diffenh.em import EnhancementConfig, enhance_spectrogram, enhance_waveform
from diffenh.noise_nmf import init_nmf, is_objective, m_step
from diffenh.sampler import SamplerConfig, posterior_sample
from diffenh.score import AnalyticGaussianPrior, ToyScoreNet
from diffenh.sde import SdeSchedule
from diffenh.signal import StftConfig, Waveform, mix_at_snr, rms


@pytest.fixture(scope="module")
def sched():
    return SdeSchedule()


def test_config_validation():
    with pytest.raises(ValueError, match=r"^em_iters must be >= 1, got 0$"):
        EnhancementConfig(em_iters=0)
    with pytest.raises(ValueError, match=r"^batch must be >= 1, got 0$"):
        EnhancementConfig(batch=0)
    assert EnhancementConfig().reverse_steps == 20
    with pytest.warns(DeprecationWarning, match=r"^posterior_every is ignored$"):
        cfg = EnhancementConfig(reverse_steps=12, posterior_every=3)
    assert cfg.reverse_steps == 12


def test_trace_structure_and_nmf_refit(sched):
    rng = np.random.default_rng(1)
    x = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
    prior = AnalyticGaussianPrior(mean=np.zeros((8, 12)), var0=1.0, sched=sched)
    cfg = EnhancementConfig(em_iters=3, batch=2, reverse_steps=8, seed=2)
    res = enhance_spectrogram(x, prior, sched, cfg)
    assert len(res.trace) == 3
    for entry in res.trace:
        assert set(entry) == {"residual_power", "m_step_objective"}
        assert np.isfinite(entry["residual_power"])
    assert res.s_hat.shape == x.shape
    assert res.nmf.variance().shape == x.shape
    # the last entry describes the returned estimate and noise factors exactly,
    # at the prior's scale x / g
    g = rms(x) / math.sqrt(2.0)
    power = np.abs(x / g - res.s_hat / g) ** 2
    assert res.trace[-1] == {"residual_power": float(np.mean(power)),
                             "m_step_objective": is_objective(power, res.nmf)}


def test_determinism(sched):
    rng = np.random.default_rng(3)
    x = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    prior = AnalyticGaussianPrior(mean=np.zeros((6, 9)), var0=1.0, sched=sched)
    cfg = EnhancementConfig(em_iters=2, batch=2, reverse_steps=6, seed=7)
    a = enhance_spectrogram(x, prior, sched, cfg)
    b = enhance_spectrogram(x, prior, sched, cfg)
    assert np.array_equal(a.s_hat, b.s_hat)
    assert np.array_equal(a.nmf.W, b.nmf.W)


def test_seed_changes_output(sched):
    rng = np.random.default_rng(4)
    x = rng.standard_normal((6, 9)) + 1j * rng.standard_normal((6, 9))
    prior = AnalyticGaussianPrior(mean=np.zeros((6, 9)), var0=1.0, sched=sched)
    a = enhance_spectrogram(x, prior, sched, EnhancementConfig(em_iters=1, batch=2, reverse_steps=6, seed=0))
    b = enhance_spectrogram(x, prior, sched, EnhancementConfig(em_iters=1, batch=2, reverse_steps=6, seed=1))
    assert not np.array_equal(a.s_hat, b.s_hat)


def test_enhance_waveform_preserves_length_and_rate(sched):
    rng = np.random.default_rng(5)
    clean = Waveform(rng.standard_normal(500), sample_rate=8000)
    noise = Waveform(rng.standard_normal(500), sample_rate=8000)
    noisy, _ = mix_at_snr(clean, noise, 0.0, seed=5)
    stft_cfg = StftConfig(window_len=64, hop=16)
    prior = AnalyticGaussianPrior(mean=np.zeros(1), var0=1.0, sched=sched)
    cfg = EnhancementConfig(em_iters=1, batch=1, reverse_steps=4, seed=0)
    out = enhance_waveform(noisy, prior, sched, stft_cfg, cfg)
    assert len(out) == len(noisy)
    assert out.sample_rate == noisy.sample_rate
    assert np.all(np.isfinite(out.samples))


# (level c, compression scale beta): the enhancement of c * y at beta, against c
# times that of y at the default 0.15.  The grid is scaled to the prior's scale
# by its own power, so neither reaches the output beyond rounding
LEVEL_CASES = [(c, 0.15) for c in (0.01, 0.1, 10.0, 100.0)] + [(1.0, b) for b in (0.3, 1.0, 1e-3)]


@pytest.mark.parametrize("c,beta", LEVEL_CASES, ids=[f"c={c:g},beta={b:g}" for c, b in LEVEL_CASES])
def test_enhancement_follows_the_input_level(c, beta, sched):
    rng = np.random.default_rng(11)
    clean = Waveform(0.3 * np.sin(2 * np.pi * 440 * np.arange(600) / 16000), 16000)
    y, _ = mix_at_snr(clean, Waveform(rng.standard_normal(600), 16000), 0.0, seed=1)
    net = ToyScoreNet(hidden=(8,), seed=0, sched=sched)
    cfg = EnhancementConfig(em_iters=2, batch=2, reverse_steps=4, seed=3)

    def enhance(w, beta):
        stft_cfg = StftConfig(window_len=64, hop=16, compress_beta=beta)
        return enhance_waveform(w, net, sched, stft_cfg, cfg).samples

    ref = c * enhance(y, 0.15)
    out = enhance(Waveform(c * y.samples, y.sample_rate), beta)
    # measured at most 2.8e-15
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("c", [1e-170, 1e-3, 1e100, 1e160])
def test_enhancement_follows_the_grid_level(c, sched):
    # the loop runs at the prior's scale whatever the grid's level: at 1e-170
    # |x|^2 underflows to zero, and at 1e160 it overflows
    prior = AnalyticGaussianPrior(mean=np.zeros((5, 7)), var0=1.0, sched=sched)
    x = _mixture((5, 7), 12)
    cfg = EnhancementConfig(em_iters=2, batch=2, reverse_steps=4, seed=1)
    ref = enhance_spectrogram(x, prior, sched, cfg).s_hat
    out = enhance_spectrogram(c * x, prior, sched, cfg).s_hat
    assert np.linalg.norm(out / c - ref) <= 1e-12 * np.linalg.norm(ref)


def test_grid_without_frames_gives_zeros(sched):
    # an empty grid has no level to scale by; the all-zero case is
    # test_silent_mixture_gives_silence
    prior = AnalyticGaussianPrior(mean=np.zeros((5, 0)), var0=1.0, sched=sched)
    res = enhance_spectrogram(np.zeros((5, 0), complex), prior, sched, EnhancementConfig())
    assert res.s_hat.shape == (5, 0)
    assert res.trace == []


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_grid_is_floating_point_error(value, sched):
    prior = AnalyticGaussianPrior(mean=np.zeros((5, 7)), var0=1.0, sched=sched)
    x = _mixture((5, 7), 12)
    x[2, 3] = value
    with pytest.raises(FloatingPointError, match=r"^the mixture grid holds non-finite values$"):
        enhance_spectrogram(x, prior, sched, EnhancementConfig(em_iters=1, batch=1))


def test_enhance_waveform_reaches_its_stages_through_the_module(sched, monkeypatch):
    # benchmarks/spans.py times the stages by rebinding these names on em, so
    # enhance_waveform must look each one up there, at call time
    calls = []
    for name in ("stft", "enhance_spectrogram", "istft"):
        def counting(*args, _name=name, _stage=getattr(em, name), **kwargs):
            calls.append(_name)
            return _stage(*args, **kwargs)

        monkeypatch.setattr(em, name, counting)
    noisy = Waveform(np.random.default_rng(5).standard_normal(300), sample_rate=8000)
    prior = AnalyticGaussianPrior(mean=np.zeros(1), var0=1.0, sched=sched)
    cfg = EnhancementConfig(em_iters=1, batch=1, reverse_steps=4)
    em.enhance_waveform(noisy, prior, sched, StftConfig(window_len=64, hop=16), cfg)
    assert calls == ["stft", "enhance_spectrogram", "istft"]


def _mixture(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _sequential_em(x, model, sched, cfg):
    """The EM loop with its chains drawn one after another, as first written."""
    g = rms(x) / math.sqrt(2.0)
    x = x / g
    scfg = SamplerConfig(n_steps=cfg.reverse_steps)
    params = init_nmf(*x.shape, cfg.nmf_rank, float(np.mean(np.abs(x) ** 2)), seed=cfg.seed)
    params = m_step(np.abs(x) ** 2, params, cfg.nmf_inner_updates)
    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.em_iters * cfg.batch)
    for k in range(cfg.em_iters):
        v_phi = params.variance()
        chains = [
            posterior_sample(x, model, sched, scfg, v_phi,
                             np.random.default_rng(seeds[k * cfg.batch + j]))
            for j in range(cfg.batch)
        ]
        s_hat = np.mean(chains, axis=0)
        params = m_step(np.abs(x - s_hat) ** 2, params, cfg.nmf_inner_updates)
    return s_hat * g, params


@pytest.mark.parametrize("batch", [1, 2, 3, 4, 5])
def test_pooled_chains_equal_sequential_loop(batch, sched):
    # the pooled E-step sums the chains into one array; the reference stacks
    # them and takes np.mean, and the two agree to the last bit, zero signs too
    x = _mixture((9, 14), batch)
    net = ToyScoreNet(hidden=(8,), seed=batch, sched=sched)
    cfg = EnhancementConfig(em_iters=2, batch=batch, reverse_steps=5, seed=21)
    res = enhance_spectrogram(x, net, sched, cfg)
    s_hat, params = _sequential_em(x, net, sched, cfg)
    assert np.array_equal(res.s_hat, s_hat) and res.s_hat.tobytes() == s_hat.tobytes()
    assert np.array_equal(res.nmf.W, params.W) and np.array_equal(res.nmf.H, params.H)


# every fake chain below returns this one array
_SHARED_CHAIN = np.full((4, 6), 0.5 - 0.25j)


def test_e_step_writes_into_no_chain_result(sched, monkeypatch):
    monkeypatch.setattr(em, "posterior_sample", lambda *args: _SHARED_CHAIN)
    before = _SHARED_CHAIN.copy()
    # a real grid of sqrt(2) has g = 1 exactly, so the estimate is the chains'
    # mean unscaled; the sum of 4 equal chains divided by 4 is each of them exactly
    x = np.full((4, 6), math.sqrt(2.0) + 0j)
    res = enhance_spectrogram(x, None, sched, EnhancementConfig(em_iters=2, batch=4))
    assert np.array_equal(_SHARED_CHAIN, before)
    assert np.array_equal(res.s_hat, _SHARED_CHAIN) and res.s_hat is not _SHARED_CHAIN


def test_concurrent_callers_equal_serial_calls(sched):
    net = ToyScoreNet(hidden=(8,), seed=0, sched=sched)
    jobs = [(_mixture((10, 12), i), EnhancementConfig(em_iters=2, batch=3, reverse_steps=4, seed=i))
            for i in range(3)]
    serial = [enhance_spectrogram(x, net, sched, cfg).s_hat for x, cfg in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often to shake out ordering bugs
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as callers:
            futures = [callers.submit(enhance_spectrogram, x, net, sched, cfg) for x, cfg in jobs]
            concurrent = [f.result(timeout=120).s_hat for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(serial, concurrent):
        assert np.array_equal(a, b)


class _FailsOnCall:
    """Score model proxy whose n-th evaluate raises FloatingPointError."""

    def __init__(self, model, n):
        self.model = model
        self.n = n
        self.calls = 0
        self._lock = threading.Lock()

    def evaluate(self, s_t, t):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call == self.n:
            raise FloatingPointError(f"injected failure on evaluate {call}")
        return self.model.evaluate(s_t, t)


def test_chain_failure_cancels_waiting_chains_and_pool_recovers(sched):
    x = _mixture((64, 64), 7)
    net = ToyScoreNet(hidden=(8,), seed=0, sched=sched)
    # more chains than workers, so some are still queued when the 5th evaluate fails
    cfg = EnhancementConfig(em_iters=1, batch=3 * em._usable_cpus() + 6, reverse_steps=20, seed=0)
    failing = _FailsOnCall(net, 5)
    with pytest.raises(FloatingPointError, match="injected failure on evaluate 5"):
        enhance_spectrogram(x, failing, sched, cfg)
    calls = failing.calls
    # about one chain per worker started; had the queued ones run too, nearly
    # batch * (2N + 1) evaluates would have been made
    assert calls <= (cfg.batch // 2) * (2 * cfg.reverse_steps + 1)
    time.sleep(0.2)
    assert failing.calls == calls  # the started chains finished before the raise
    small = EnhancementConfig(em_iters=1, batch=2, reverse_steps=4, seed=3)
    x_small = _mixture((6, 9), 8)
    res = enhance_spectrogram(x_small, net, sched, small)
    assert np.array_equal(res.s_hat, _sequential_em(x_small, net, sched, small)[0])


def test_failed_chain_cancels_queued_chains_and_waits_for_running_ones(sched, monkeypatch):
    started, finished = [], []

    def fake_posterior_sample(x, model, sched, cfg, v_phi, rng):
        chain = rng.bit_generator.seed_seq.spawn_key[-1]
        started.append(chain)
        if chain == 0:
            time.sleep(0.05)
            raise FloatingPointError("chain 0 failed")
        time.sleep(0.3)
        finished.append(chain)
        return x

    monkeypatch.setattr(em, "posterior_sample", fake_posterior_sample)
    workers = em._usable_cpus()
    cfg = EnhancementConfig(em_iters=1, batch=workers + 3, seed=0)
    with pytest.raises(FloatingPointError, match="chain 0 failed"):
        enhance_spectrogram(_mixture((4, 6), 0), None, sched, cfg)
    assert len(started) <= workers + 1  # at most one queued chain slipped in before the cancel
    assert sorted(finished) == sorted(set(started) - {0})  # no chain outlives the raise


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="no fork on this platform")
def test_forked_child_runs_chains_on_its_own_pool(sched):
    net = ToyScoreNet(hidden=(8,), seed=0, sched=sched)
    x = _mixture((6, 9), 9)
    cfg = EnhancementConfig(em_iters=1, batch=4, reverse_steps=4, seed=5)
    expected = enhance_spectrogram(x, net, sched, cfg).s_hat  # the pool's threads now exist
    with multiprocessing.get_context("fork").Pool(1) as child:
        got = child.apply_async(enhance_spectrogram, (x, net, sched, cfg)).get(timeout=30)
    assert np.array_equal(got.s_hat, expected)


def test_silent_mixture_gives_silence(sched):
    prior = AnalyticGaussianPrior(mean=np.zeros((5, 7)), var0=1.0, sched=sched)
    res = enhance_spectrogram(np.zeros((5, 7), complex), prior, sched, EnhancementConfig())
    assert np.array_equal(res.s_hat, np.zeros((5, 7)))
    assert res.trace == []


@pytest.mark.parametrize("frames", [0, 1])
def test_synth_clean_waveform_rejects_fewer_than_two_frames(frames, sched):
    # a waveform of (frames - 1) hops needs two frames; the check comes before
    # sampling, so no empty-slice warning or power underflow hides the cause
    stft_cfg = StftConfig(window_len=7, hop=1)
    prior = AnalyticGaussianPrior(mean=np.zeros((stft_cfg.f_bins, frames)), var0=1.0, sched=sched)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match=rf"^frames must be >= 2 .*, got {frames}$"):
            em.synth_clean_waveform(frames, prior, sched, stft_cfg, np.random.default_rng(0))
    assert caught == []
