"""Outer enhancement loop: alternate posterior sampling and noise fitting.

Each of the K iterations draws b posterior-sample chains under the current
noise variances, averages them elementwise into the clean estimate, then
refits the NMF noise model to the residual power |x - s_hat|^2.  Each chain
samples the posterior of the clean grid given the mixture and those variances
(see sampler.py), with no weight to tune; under a unit Gaussian prior that
E-step is exact.  Chain seeds come from a counter-based split of the master
seed so results do not depend on execution order.

At the defaults (K = 5, b = 4, N = 20 reverse steps) an utterance costs
K b (2N + 1) = 820 score evaluations.  N = 20, not the prior sampler's 30,
is the fewest of the steps tried (15, 20, 30) at which the posterior chains
stay within 10% of the conjugate answer's slope and variance at every noise
level tested (v in {0.1, 1, 10}; tests/test_sampler.py).

The chains of an E-step run concurrently on one process-wide thread pool with
one worker per usable CPU (numpy releases the interpreter lock in its
kernels).  Every caller shares that pool, so concurrent enhancements, such as
`diffenh benchmark --jobs`, queue their chains on it instead of adding
threads.  Results are collected in chain order, so the output is bit-identical
to running the chains one after another.  A chain must not itself submit work
to the pool: with every worker waiting on queued work, it would deadlock.

A pool per call instead of the shared one was measured and refused: over 4
alternating pairs of 30 s benchmark runs (2 vCPU), toy_corpus utt/s fell by
21-33% and peak RSS rose by 6.0-8.5% in every pair, because concurrent
callers then run more chain threads than there are cores.
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass

import numpy as np

from .noise_nmf import NmfParams, init_nmf, is_objective, m_step
from .sampler import SamplerConfig, posterior_sample, unconditional_sample
from .sde import SdeSchedule
from .signal import StftConfig, Waveform, istft, stft


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _start_chain_pool():
    """Create the shared chain pool; its threads start on first use, not here.

    A forked child gets a new pool: the parent's worker threads do not exist
    in it, and chains queued on the inherited pool would never run.
    """
    global _CHAIN_POOL
    _CHAIN_POOL = ThreadPoolExecutor(max_workers=_usable_cpus(), thread_name_prefix="diffenh-chain")


_start_chain_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_start_chain_pool)


@dataclass(frozen=True)
class EnhancementConfig:
    """posterior_every is accepted and ignored: every sampler step uses the
    posterior score.  It is kept only so that callers still passing it run."""

    em_iters: int = 5
    reverse_steps: int = 20
    posterior_every: int = 1
    nmf_rank: int = 4
    batch: int = 4
    seed: int = 0
    nmf_inner_updates: int = 20

    def __post_init__(self):
        for name in ("em_iters", "reverse_steps", "nmf_rank", "batch", "nmf_inner_updates"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.posterior_every != 1:
            warnings.warn("posterior_every is ignored", DeprecationWarning, stacklevel=3)


@dataclass
class EnhancementResult:
    s_hat: np.ndarray
    nmf: NmfParams
    trace: list  # one dict per EM iteration


def _run_chains(x, model, sched, scfg, v_phi, seeds) -> list:
    """One posterior chain per seed on the shared pool, results in seed order.

    The first failure in chain order is re-raised; the chains not yet started
    are then cancelled and the running ones waited for, so none outlives the call.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    # looked up on every call, so a rebinding of em.posterior_sample reaches the pool threads
    futures = [_CHAIN_POOL.submit(posterior_sample, x, model, sched, scfg, v_phi, r) for r in rngs]
    try:
        return [f.result() for f in futures]
    finally:
        for f in futures:
            f.cancel()  # no-op for chains that ran or are running
        wait(futures)


def enhance_spectrogram(
    x: np.ndarray,
    model,
    sched: SdeSchedule,
    cfg: EnhancementConfig,
) -> EnhancementResult:
    """Run the EM loop on a mixture spectrogram.

    An all-zero mixture holds neither speech nor noise to fit: the estimate
    is all zeros, the noise factors sit at their floor and no iteration runs
    (the trace is empty).  A nonzero mixture whose power underflows to zero,
    as a tiny amplitude compression scale makes it, or whose squared power
    overflows, as a huge one makes it, is a FloatingPointError.
    """
    f_bins, t_frames = x.shape
    if not np.any(x):
        floor = NmfParams(W=np.zeros((f_bins, cfg.nmf_rank)), H=np.zeros((cfg.nmf_rank, t_frames)))
        return EnhancementResult(s_hat=np.zeros(x.shape, dtype=np.complex128), nmf=floor, trace=[])
    scfg = SamplerConfig(n_steps=cfg.reverse_steps)
    with np.errstate(over="ignore"):
        power = np.abs(x) ** 2
        mean_power = float(np.mean(power))
    if mean_power == 0.0:
        raise FloatingPointError("the mixture's compressed power underflows to zero: "
                                 "the amplitude compression scales it below float64 range")
    peak = float(np.max(power))
    # the M-step squares noise variances of the power's size
    if not np.isfinite(peak * peak):
        raise FloatingPointError("the mixture's compressed power overflows: the amplitude "
                                 "compression scales its square beyond float64 range")
    params = init_nmf(f_bins, t_frames, cfg.nmf_rank, mean_power, seed=cfg.seed)
    # before any signal estimate exists the mixture itself is the best noise
    # bound, so fit the factors to its power (an M-step at s_hat = 0); the first
    # E-step then sees the mixture's spectral structure instead of flat noise
    params = m_step(power, params, cfg.nmf_inner_updates)
    # spawn counts on across calls: iteration k draws the children k * b to (k + 1) * b - 1
    root = np.random.SeedSequence(cfg.seed)
    trace = []
    for _ in range(cfg.em_iters):
        # the last power grid is freed before the chains run: held through
        # them, it raised the peak RSS of a 256 x 126 enhancement by 2 MB
        del power
        chains = _run_chains(x, model, sched, scfg, params.variance(), root.spawn(cfg.batch))
        s_hat = np.mean(chains, axis=0)
        power = np.abs(x - s_hat) ** 2
        params = m_step(power, params, cfg.nmf_inner_updates)
        trace.append({"residual_power": float(np.mean(power)),
                      "m_step_objective": is_objective(power, params)})
    return EnhancementResult(s_hat=s_hat, nmf=params, trace=trace)


def enhance_waveform(
    noisy: Waveform,
    model,
    sched: SdeSchedule,
    stft_cfg: StftConfig,
    cfg: EnhancementConfig,
) -> Waveform:
    """stft, spectrogram enhancement, istft back at the original length."""
    x = stft(noisy, stft_cfg)
    result = enhance_spectrogram(x, model, sched, cfg)
    return istft(result.s_hat, stft_cfg, len(noisy), sample_rate=noisy.sample_rate)


def synth_clean_waveform(
    frames: int,
    model,
    sched: SdeSchedule,
    stft_cfg: StftConfig,
    rng: np.random.Generator,
) -> Waveform:
    """A clean utterance of (frames - 1) * hop samples, drawn from the prior at
    the prior sampler's own N whatever an enhancer's reverse_steps.

    Synthesis projects the sampled spectrogram onto its overlap-add
    consistent subspace, shrinking per-entry variance below the unit scale
    the prior was trained at; the waveform is rescaled so that its analysis
    has unit mean power again and matches the prior.  A sample whose
    decompressed waveform has no power left, as a huge compression scale
    makes it, is a FloatingPointError: there is no level to rescale or mix at.
    """
    out_len = (frames - 1) * stft_cfg.hop
    spec = unconditional_sample((stft_cfg.f_bins, frames), model, sched, SamplerConfig(), rng)
    raw = istft(spec, stft_cfg, out_len)
    # analysis undoes the decompression, so a waveform with power has a var in range
    if not np.mean(raw.samples ** 2) > 0.0:
        raise FloatingPointError(
            f"the prior sample's power underflows: undoing the amplitude compression "
            f"(alpha {stft_cfg.compress_alpha:g}, beta {stft_cfg.compress_beta:g}) "
            "scales it below float64 range")
    var = float(np.mean(np.abs(stft(raw, stft_cfg)) ** 2))
    return Waveform(raw.samples * var ** (-0.5 / stft_cfg.compress_alpha), raw.sample_rate)
