"""Audio ingestion and the time-frequency frontend.

Spectrograms are plain 2-D complex numpy arrays of shape (F, T).  The
analysis transform applies an amplitude compression beta * |c|**alpha to every
coefficient (phase kept), and the synthesis transform inverts it exactly
before overlap-add, so stft followed by istft is an identity up to float
rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

_WINSUM_FLOOR = 1e-12


@dataclass
class Waveform:
    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"waveform must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")

    def __len__(self):
        return len(self.samples)

    def power(self) -> float:
        return float(np.mean(self.samples**2)) if len(self) else 0.0


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis parameters.

    The window is a periodic Hann of window_len samples and the FFT length
    equals it (no zero padding), so window_len=510 gives F = 510//2 + 1 = 256
    bins.  compress_alpha in (0, 1] and compress_beta > 0 control the
    amplitude compression.
    """

    window_len: int = 510
    hop: int = 128
    compress_alpha: float = 0.5
    compress_beta: float = 0.15

    def __post_init__(self):
        if not 0 < self.hop <= self.window_len:
            raise ValueError(f"need 0 < hop <= window_len, got {self.hop}, {self.window_len}")
        if not 0 < self.compress_alpha <= 1:
            raise ValueError(f"compress_alpha must lie in (0, 1], got {self.compress_alpha}")
        if self.compress_beta <= 0:
            raise ValueError(f"compress_beta must be positive, got {self.compress_beta}")

    @property
    def f_bins(self) -> int:
        return self.window_len // 2 + 1


def _window(cfg: StftConfig) -> np.ndarray:
    # periodic Hann: period window_len, not window_len - 1
    n = np.arange(cfg.window_len)
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * n / cfg.window_len))


def compress(spec: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Amplitude compression c -> beta * |c|**alpha * exp(i angle(c))."""
    mag = np.abs(spec)
    phase = np.exp(1j * np.angle(spec))
    return cfg.compress_beta * mag**cfg.compress_alpha * phase


def decompress(spec: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Exact inverse of compress (0 maps to 0)."""
    mag = np.abs(spec)
    phase = np.exp(1j * np.angle(spec))
    return (mag / cfg.compress_beta) ** (1.0 / cfg.compress_alpha) * phase


def n_frames(n_samples: int, cfg: StftConfig) -> int:
    pad = cfg.window_len // 2
    return 1 + (n_samples + 2 * pad - cfg.window_len) // cfg.hop


def stft(w: Waveform, cfg: StftConfig = StftConfig()) -> np.ndarray:
    """Windowed DFT analysis followed by amplitude compression.

    The signal is zero-padded by window_len//2 on both sides so frame m is
    centred at m*hop.  Returns an (F, T) complex array.
    """
    x = w.samples
    if len(x) == 0:
        raise ValueError("stft: empty waveform")
    if not np.all(np.isfinite(x)):
        raise ValueError("stft: non-finite samples")
    pad = cfg.window_len // 2
    if len(x) + 2 * pad < cfg.window_len:
        raise ValueError(f"stft: waveform too short for window_len {cfg.window_len}")
    xp = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    win = _window(cfg)
    frames = n_frames(len(x), cfg)
    idx = np.arange(cfg.window_len)[None, :] + cfg.hop * np.arange(frames)[:, None]
    spec = np.fft.rfft(xp[idx] * win, n=cfg.window_len, axis=1).T
    return compress(spec, cfg)


def istft(spec: np.ndarray, cfg: StftConfig, out_len: int, sample_rate: int = 16000) -> Waveform:
    """Decompression then squared-window overlap-add synthesis.

    out_len is the original sample count; the window_len//2 analysis padding
    is stripped.  Raises if the spectrogram does not cover out_len samples or
    the bin count does not match cfg.
    """
    if spec.ndim != 2 or spec.shape[0] != cfg.f_bins:
        raise ValueError(f"istft: expected {cfg.f_bins} bins, got shape {spec.shape}")
    frames = spec.shape[1]
    pad = cfg.window_len // 2
    total = (frames - 1) * cfg.hop + cfg.window_len
    if out_len + pad > total:
        raise ValueError(f"istft: {frames} frames cover {total} samples, need {out_len + pad}")
    win = _window(cfg)
    raw = np.fft.irfft(decompress(spec, cfg).T, n=cfg.window_len, axis=1)
    out = np.zeros(total)
    norm = np.zeros(total)
    for m in range(frames):
        lo = m * cfg.hop
        out[lo : lo + cfg.window_len] += raw[m] * win
        norm[lo : lo + cfg.window_len] += win**2
    out /= np.maximum(norm, _WINSUM_FLOOR)
    return Waveform(out[pad : pad + out_len], sample_rate)


def mix_at_snr(clean: Waveform, noise: Waveform, snr_db: float, seed: int = 0):
    """Scale noise to hit the requested SNR and add it to clean.

    Noise longer than clean is cropped at a seeded random offset; shorter
    noise is tiled then cropped.  Returns (mixture, scale) where
    mixture = clean + scale * noise_segment.
    """
    if clean.sample_rate != noise.sample_rate:
        raise ValueError("mix_at_snr: sample rates differ")
    n = noise.samples
    if len(n) < len(clean):
        reps = -(-len(clean) // len(n))
        n = np.tile(n, reps)
    if len(n) > len(clean):
        rng = np.random.default_rng(seed)
        off = int(rng.integers(0, len(n) - len(clean) + 1))
        n = n[off : off + len(clean)]
    p_clean = float(np.mean(clean.samples**2))
    p_noise = float(np.mean(n**2))
    if p_clean <= 0 or p_noise <= 0:
        raise ValueError("mix_at_snr: zero-power input")
    scale = math.sqrt(p_clean / p_noise) * 10.0 ** (-snr_db / 20.0)
    return Waveform(clean.samples + scale * n, clean.sample_rate), scale


def load_wav(path) -> Waveform:
    """Read a mono RIFF WAV with PCM16 or IEEE float32 samples.

    PCM16 maps to [-1, 1) by division by 32768.
    """
    try:
        rate, data = wavfile.read(path)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ValueError(f"{path}: not a readable WAV file ({exc})") from exc
    if data.ndim != 1:
        raise ValueError(f"{path}: expected mono audio, got {data.shape[1]} channels")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise ValueError(f"{path}: unsupported sample format {data.dtype}, need PCM16 or float32")
    if not np.all(np.isfinite(samples)):
        raise ValueError(f"{path}: waveform contains non-finite samples")
    return Waveform(samples, int(rate))


def save_wav(path, w: Waveform) -> int:
    """Write a mono float32 WAV, clipping to [-1, 1]; returns the number of
    samples clipped."""
    wavfile.write(path, w.sample_rate, np.clip(w.samples, -1.0, 1.0).astype(np.float32))
    return int(np.count_nonzero(np.abs(w.samples) > 1.0))


def dump_spectrogram(path, spec: np.ndarray):
    """Debug dump: u32-LE header (F, T), then little-endian complex128
    (interleaved re, im float64), row-major."""
    f, t = spec.shape
    with open(path, "wb") as fh:
        fh.write(np.asarray([f, t], dtype="<u4").tobytes())
        fh.write(np.asarray(spec, dtype="<c16").tobytes())


def load_spectrogram(path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(8)
        if len(head) < 8:
            raise ValueError(f"{path}: truncated grid header")
        f, t = (int(v) for v in np.frombuffer(head, dtype="<u4"))
        body = fh.read()
    if len(body) != 16 * f * t:
        raise ValueError(f"{path}: expected {16 * f * t} bytes of {f}x{t} complex128 values "
                         f"after the header, found {len(body)}")
    return np.frombuffer(body, dtype="<c16").reshape(f, t).astype(np.complex128)
