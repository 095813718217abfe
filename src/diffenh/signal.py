"""Audio ingestion and the time-frequency frontend.

Spectrograms are plain 2-D complex numpy arrays of shape (F, T).  The
analysis transform applies an amplitude compression beta * |c|**alpha to every
coefficient (phase kept), and the synthesis transform inverts it exactly
before overlap-add, so stft followed by istft is an identity up to float
rounding.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

_WINSUM_FLOOR = 1e-12

# the widest mixture SNR, in dB either way: float64 resolves 2.2e-16 of a value, 313 dB in
# amplitude, so past about 300 dB the weaker signal sinks below the stronger one's rounding
MAX_SNR_DB = 300.0


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
        if not 0 < self.compress_beta < math.inf:
            raise ValueError(f"compress_beta must be finite and positive, got {self.compress_beta}")

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
    xp = np.concatenate([np.zeros(pad), x, np.zeros(pad)])
    win = _window(cfg)
    frames = n_frames(len(x), cfg)
    idx = np.arange(cfg.window_len)[None, :] + cfg.hop * np.arange(frames)[:, None]
    spec = np.fft.rfft(xp[idx] * win, n=cfg.window_len, axis=1).T
    return compress(spec, cfg)


def istft(spec: np.ndarray, cfg: StftConfig, out_len: int, sample_rate: int = 16000) -> Waveform:
    """Decompression then squared-window overlap-add synthesis.

    out_len is the original sample count; the window_len//2 analysis padding
    is stripped.  Raises ValueError if the spectrogram does not cover out_len
    samples or the bin count does not match cfg, and FloatingPointError if
    undoing the compression overflows, as a tiny alpha or beta makes it.
    """
    if spec.ndim != 2 or spec.shape[0] != cfg.f_bins:
        raise ValueError(f"istft: expected {cfg.f_bins} bins, got shape {spec.shape}")
    frames = spec.shape[1]
    pad = cfg.window_len // 2
    total = (frames - 1) * cfg.hop + cfg.window_len
    if out_len + pad > total:
        raise ValueError(f"istft: {frames} frames cover {total} samples, need {out_len + pad}")
    win = _window(cfg)
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.fft.irfft(decompress(spec, cfg).T, n=cfg.window_len, axis=1)
    if not np.isfinite(raw).all():
        raise FloatingPointError(
            f"istft: undoing the amplitude compression (alpha {cfg.compress_alpha:g}, "
            f"beta {cfg.compress_beta:g}) overflows to non-finite samples")
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
    mixture = clean + scale * noise_segment.  Raises ValueError when scale is
    not finite and positive, as an snr_db far beyond +-MAX_SNR_DB makes it.
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
    try:
        scale = math.sqrt(p_clean / p_noise) * 10.0 ** (-snr_db / 20.0)
    except OverflowError:
        scale = math.inf
    if not 0 < scale < math.inf:
        raise ValueError(f"mix_at_snr: {snr_db} dB gives the noise a gain of {scale}")
    return Waveform(clean.samples + scale * n, clean.sample_rate), scale


# WAV format codes, and the (code, bits per sample) pairs load_wav reads
_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 1, 3, 0xFFFE
_WAV_DTYPES = {(_WAVE_PCM, 16): "<i2", (_WAVE_FLOAT, 32): "<f4"}
# bytes 4..15 of the KSDATAFORMAT SubFormat GUID whose first 4 bytes are a format code
_WAVE_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _wav_format(fmt: memoryview) -> tuple[int, str]:
    """(sample rate, numpy dtype) from the body of a fmt chunk."""
    if len(fmt) < 16:
        raise ValueError(f"fmt chunk of {len(fmt)} bytes, need at least 16")
    code, channels, rate, _, block_align, bits = struct.unpack("<HHIIHH", fmt[:16])
    if code == _WAVE_EXTENSIBLE:
        if len(fmt) < 40 or fmt[28:40] != _WAVE_GUID_TAIL:
            raise ValueError("WAVE_FORMAT_EXTENSIBLE fmt chunk without a standard SubFormat")
        code = int.from_bytes(fmt[24:28], "little")
    if channels != 1:
        raise ValueError(f"expected mono audio, got {channels} channels")
    dtype = _WAV_DTYPES.get((code, bits))
    if dtype is None or block_align != bits // 8:
        raise ValueError(f"unsupported sample format (format code {code}, {bits}-bit, "
                         f"{block_align}-byte blocks), need PCM16 or float32")
    return rate, dtype


def _decode_wav(blob: bytes) -> Waveform:
    """Walk the chunks of a WAV file's bytes up to the first data chunk."""
    view = memoryview(blob)
    if len(view) < 12 or view[:4] != b"RIFF" or view[8:12] != b"WAVE":
        # RIFX (big-endian) and RF64 (64-bit sizes) end here too
        raise ValueError(f"not a little-endian RIFF/WAVE file (it starts {bytes(view[:12])!r})")
    pos, fmt = 12, None
    while pos + 8 <= len(view):
        chunk = bytes(view[pos : pos + 4])
        size = int.from_bytes(view[pos + 4 : pos + 8], "little")
        body = view[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{chunk!r} chunk claims {size} bytes, the file holds {len(body)}")
        if chunk == b"fmt ":
            fmt = _wav_format(body)
        elif chunk == b"data":
            if fmt is None:
                raise ValueError("no fmt chunk before the data chunk")
            rate, dtype = fmt
            width = np.dtype(dtype).itemsize
            samples = np.frombuffer(body[: size - size % width], dtype=dtype)
            if dtype == "<i2":
                return Waveform(samples.astype(np.float64) / 32768.0, rate)
            return Waveform(samples, rate)
        pos += 8 + size + size % 2  # an odd-sized chunk is followed by a pad byte
    raise ValueError("no data chunk" if fmt else "no fmt chunk")


def load_wav(path) -> Waveform:
    """Read a mono little-endian RIFF WAV with PCM16 or IEEE float32 samples.

    The fmt chunk may be plain or WAVE_FORMAT_EXTENSIBLE; chunks other than
    fmt and data (LIST, fact, ...) are skipped.  PCM16 maps to [-1, 1) by
    division by 32768.  Any other container, format, bit depth or channel
    count, a missing or truncated chunk, or a non-finite sample is a
    ValueError whose message starts with the path.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return _decode_wav(blob)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_wav(path, w: Waveform) -> int:
    """Write a mono float32 WAV, clipping to [-1, 1]; returns the number of
    samples clipped.

    The layout is the common one for float WAVs: an 18-byte fmt chunk (IEEE
    float, cbSize 0), a fact chunk holding the sample count, then the data.
    """
    data = np.clip(w.samples, -1.0, 1.0).astype("<f4")
    # the RIFF size counts every byte after its own field: 50 header bytes, then the data
    header = struct.pack("<4sI4s4sIHHIIHHH4sII4sI", b"RIFF", 50 + data.nbytes, b"WAVE",
                         b"fmt ", 18, _WAVE_FLOAT, 1, w.sample_rate, 4 * w.sample_rate, 4, 32, 0,
                         b"fact", 4, len(data), b"data", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(data.tobytes())
    return int(np.count_nonzero(np.abs(w.samples) > 1.0))

