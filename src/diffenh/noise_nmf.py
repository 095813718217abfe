"""Low-rank noise-variance model and its multiplicative updates.

The noise variance over the (F, T) grid is V = W @ H with nonnegative
factors.  The M-step minimizes sum(P/V + log V) for the residual power P,
the Itakura-Saito objective up to constants, via the standard multiplicative
updates, which never increase it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS_NMF = 1e-10


@dataclass
class NmfParams:
    W: np.ndarray  # (F, r)
    H: np.ndarray  # (r, T)

    def __post_init__(self):
        self.W = np.asarray(self.W, dtype=np.float64)
        self.H = np.asarray(self.H, dtype=np.float64)
        if self.W.ndim != 2 or self.H.ndim != 2 or self.W.shape[1] != self.H.shape[0]:
            raise ValueError(f"factor shapes disagree: {self.W.shape}, {self.H.shape}")
        if np.any(self.W < 0) or np.any(self.H < 0):
            raise ValueError("factors must be nonnegative")
        self.W = np.maximum(self.W, EPS_NMF)
        self.H = np.maximum(self.H, EPS_NMF)

    @property
    def shape(self) -> tuple[int, int]:
        """(F, T), the grid of the variance and of any power grid fitted to it."""
        return self.W.shape[0], self.H.shape[1]

    def variance(self) -> np.ndarray:
        return np.maximum(self.W @ self.H, EPS_NMF)


def init_nmf(f_bins: int, t_frames: int, rank: int, power_scale: float, seed: int) -> NmfParams:
    """Seeded uniform-positive factors rescaled so mean(W @ H) = power_scale."""
    if rank < 1 or rank > min(f_bins, t_frames):
        raise ValueError(f"rank must lie in [1, {min(f_bins, t_frames)}], got {rank}")
    if power_scale <= 0:
        raise ValueError(f"power_scale must be positive, got {power_scale}")
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.0, (f_bins, rank))
    h = rng.uniform(0.1, 1.0, (rank, t_frames))
    c = math.sqrt(power_scale / float(np.mean(w @ h)))
    return NmfParams(W=c * w, H=c * h)


def _check_grid(P: np.ndarray, params: NmfParams):
    if P.shape != params.shape:
        raise ValueError(f"power grid shape {P.shape} does not match factors {params.shape}")


def is_objective(P: np.ndarray, params: NmfParams) -> float:
    """sum over the grid of P/V + log V with V = W @ H."""
    _check_grid(P, params)
    v = params.variance()
    return float(np.sum(P / v + np.log(v)))


def update_step(P: np.ndarray, params: NmfParams) -> NmfParams:
    """One multiplicative update of W then H, refreshing V in between."""
    v = params.variance()
    num = (P / v**2) @ params.H.T
    den = (1.0 / v) @ params.H.T
    w = np.maximum(params.W * num / np.maximum(den, EPS_NMF), EPS_NMF)
    v = np.maximum(w @ params.H, EPS_NMF)
    num = w.T @ (P / v**2)
    den = w.T @ (1.0 / v)
    h = np.maximum(params.H * num / np.maximum(den, EPS_NMF), EPS_NMF)
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(h))):
        raise FloatingPointError("non-finite NMF factors")
    return NmfParams(W=w, H=h)


def m_step(P: np.ndarray, params: NmfParams, n_updates: int) -> NmfParams:
    """Fit the noise variance to the residual power grid P, such as |x - s_hat|^2."""
    _check_grid(P, params)
    for _ in range(n_updates):
        params = update_step(P, params)
    return params


def synth_noise_waveform(n_samples: int, rank: int, rng: np.random.Generator) -> np.ndarray:
    """Time-domain noise whose spectrogram power factorizes at the given rank.

    rank - 1 components are narrowband (a Gaussian bump in normalized
    frequency) gated on and off in blocks with lognormal amplitudes; the last
    component is a broadband floor.  Building the signal in the time domain
    keeps the structure intact under any STFT analysis; drawing independent
    spectrogram entries and synthesizing them instead would largely cancel in
    overlap-add and come out nearly flat.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    width, gate_p, amp_sigma, block, floor = 0.03, 0.55, 0.4, 128, 0.08
    out = floor * rng.standard_normal(n_samples)
    n_tones = rank - 1
    if n_tones == 0:
        return out
    white = rng.standard_normal((n_tones, n_samples))
    spec = np.fft.rfft(white, axis=1)
    fgrid = np.fft.rfftfreq(n_samples)
    centers = rng.uniform(0.06, 0.44, n_tones)
    mask = np.exp(-0.5 * ((fgrid[None, :] - centers[:, None]) / width) ** 2)
    comp = np.fft.irfft(spec * mask, n=n_samples, axis=1)
    comp /= np.sqrt(np.mean(comp**2, axis=1, keepdims=True))
    n_blocks = -(-n_samples // block)
    amps = rng.lognormal(0.0, amp_sigma, (n_tones, n_blocks))
    gates = np.where(rng.random((n_tones, n_blocks)) < gate_p, amps, 0.0)
    env = np.repeat(gates, block, axis=1)[:, :n_samples]
    return out + np.sum(comp * env, axis=0)
