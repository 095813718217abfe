import io
import re
import struct

import numpy as np
import pytest

from diffenh import signal
from diffenh.signal import StftConfig, Waveform


def _chirpish(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 16000.0
    return Waveform(np.sin(2 * np.pi * 440 * t) + 0.3 * rng.standard_normal(n), 16000)


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.zeros((2, 3)), 16000)
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ValueError):
        Waveform(np.zeros(4), 0)


def test_stft_rejects_empty_and_non_finite_samples():
    with pytest.raises(ValueError, match="empty waveform"):
        signal.stft(Waveform(np.zeros(0), 16000))
    # Waveform checks its samples when built, not when they are changed later
    w = Waveform(np.zeros(600), 16000)
    w.samples[7] = np.inf
    with pytest.raises(ValueError, match="non-finite samples"):
        signal.stft(w)


def test_stft_config_validation():
    with pytest.raises(ValueError):
        StftConfig(window_len=510, hop=0)
    with pytest.raises(ValueError):
        StftConfig(window_len=510, hop=511)
    with pytest.raises(ValueError):
        StftConfig(compress_alpha=0.0)
    for beta in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            StftConfig(compress_beta=beta)


def test_f_bins_default():
    assert StftConfig().f_bins == 256


def test_periodic_hann_window():
    win = signal._window(StftConfig(window_len=8, hop=2))
    expected = 0.5 * (1.0 - np.cos(2 * np.pi * np.arange(8) / 8))
    assert np.allclose(win, expected, atol=1e-15)
    assert win[0] == 0.0


def test_compress_decompress_inverse():
    cfg = StftConfig()
    rng = np.random.default_rng(3)
    c = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
    back = signal.decompress(signal.compress(c, cfg), cfg)
    assert np.allclose(back, c, atol=1e-12)
    # magnitudes follow beta * |c|**alpha, phase is untouched
    comp = signal.compress(c, cfg)
    assert np.allclose(np.abs(comp), cfg.compress_beta * np.abs(c) ** cfg.compress_alpha)
    assert np.allclose(np.angle(comp), np.angle(c))


def test_stft_roundtrip_default_config():
    w = _chirpish(5000)
    spec = signal.stft(w)
    assert spec.shape[0] == 256
    back = signal.istft(spec, StftConfig(), len(w))
    assert np.max(np.abs(back.samples - w.samples)) < 1e-6


@pytest.mark.parametrize("n", [123, 510, 1000, 4097])
def test_stft_roundtrip_odd_lengths(n):
    cfg = StftConfig(window_len=64, hop=16)
    w = _chirpish(n, seed=n)
    back = signal.istft(signal.stft(w, cfg), cfg, n)
    assert np.max(np.abs(back.samples - w.samples)) < 1e-6


def test_roundtrip_is_linear_in_scale():
    cfg = StftConfig()
    w = _chirpish(3000)
    half = Waveform(0.5 * w.samples, w.sample_rate)
    back = signal.istft(signal.stft(half, cfg), cfg, len(half))
    assert np.max(np.abs(back.samples - 0.5 * w.samples)) < 1e-6


def test_n_frames_matches_stft():
    cfg = StftConfig(window_len=64, hop=16)
    for n in (100, 624, 999):
        w = Waveform(np.zeros(n), 16000)
        assert signal.stft(w, cfg).shape[1] == signal.n_frames(n, cfg)


def test_istft_rejects_short_spectrogram():
    cfg = StftConfig(window_len=64, hop=16)
    spec = np.zeros((cfg.f_bins, 10), complex)
    with pytest.raises(ValueError):
        signal.istft(spec, cfg, 10_000)
    with pytest.raises(ValueError):
        signal.istft(np.zeros((7, 10), complex), cfg, 100)


def test_mix_at_snr_hits_target():
    clean = _chirpish(4000, seed=1)
    noise = _chirpish(4000, seed=2)
    for snr in (-5.0, 0.0, 5.0):
        mix, scale = signal.mix_at_snr(clean, noise, snr)
        seg = (mix.samples - clean.samples) / scale
        measured = 10 * np.log10(np.mean(clean.samples**2) / np.mean((scale * seg) ** 2))
        assert measured == pytest.approx(snr, abs=1e-9)


def test_mix_at_snr_tiles_short_noise():
    clean = _chirpish(4000)
    noise = _chirpish(900, seed=5)
    mix, _ = signal.mix_at_snr(clean, noise, 0.0)
    assert len(mix) == len(clean)


def test_mix_at_snr_crops_long_noise_by_seed():
    clean = _chirpish(1000)
    noise = _chirpish(5000, seed=9)
    a, _ = signal.mix_at_snr(clean, noise, 0.0, seed=1)
    b, _ = signal.mix_at_snr(clean, noise, 0.0, seed=1)
    c, _ = signal.mix_at_snr(clean, noise, 0.0, seed=2)
    assert np.array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, c.samples)


def test_mix_at_snr_rejects_silence():
    clean = _chirpish(100)
    with pytest.raises(ValueError):
        signal.mix_at_snr(clean, Waveform(np.zeros(100), 16000), 0.0)
    with pytest.raises(ValueError):
        signal.mix_at_snr(clean, Waveform(np.zeros(100), 8000), 0.0)


def test_mix_at_snr_rejects_a_gain_that_is_not_finite_and_positive():
    clean = _chirpish(100)
    noise = _chirpish(100, seed=2)
    # 10 ** (7000 / 20) overflows, 10 ** (-7000 / 20) underflows to 0
    for snr in (-7000.0, 7000.0, np.nan):
        with pytest.raises(ValueError, match="gain"):
            signal.mix_at_snr(clean, noise, snr)
    for snr in (-signal.MAX_SNR_DB, signal.MAX_SNR_DB):
        _, scale = signal.mix_at_snr(clean, noise, snr)
        assert 0 < scale < np.inf


def test_wav_roundtrip_float32(tmp_path):
    raw = _chirpish(2000)
    w = Waveform(raw.samples / np.max(np.abs(raw.samples)), raw.sample_rate)
    path = tmp_path / "a.wav"
    signal.save_wav(path, w)
    back = signal.load_wav(path)
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.samples - w.samples)) < 1e-6


def test_wav_roundtrip_pcm16(tmp_path):
    from scipy.io import wavfile

    w = Waveform(0.25 * np.sin(np.linspace(0, 20, 500)), 8000)
    path = tmp_path / "b.wav"
    wavfile.write(path, w.sample_rate, np.round(w.samples * 32767.0).astype(np.int16))
    back = signal.load_wav(path)
    assert np.max(np.abs(back.samples - w.samples)) < 1.0 / 32768.0


def test_save_wav_clips(tmp_path):
    path = tmp_path / "c.wav"
    assert signal.save_wav(path, Waveform(np.array([2.0, -3.0, 0.5, 1.0, -1.0]), 16000)) == 2
    back = signal.load_wav(path)
    assert np.allclose(back.samples, [1.0, -1.0, 0.5, 1.0, -1.0])
    assert signal.save_wav(path, Waveform(np.array([0.5, -1.0]), 16000)) == 0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_load_wav_names_the_file_for_non_finite_samples(bad, tmp_path):
    from scipy.io import wavfile

    path = tmp_path / "bad.wav"
    wavfile.write(path, 16000, np.array([0.1, bad, 0.2], dtype=np.float32))
    with pytest.raises(ValueError, match=re.escape(f"{path}: waveform contains non-finite")):
        signal.load_wav(path)


def test_load_wav_rejects_stereo_and_garbage(tmp_path):
    from scipy.io import wavfile

    stereo = tmp_path / "st.wav"
    wavfile.write(stereo, 16000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(ValueError, match="2 channels"):
        signal.load_wav(stereo)

    junk = tmp_path / "junk.wav"
    junk.write_bytes(b"not audio at all")
    with pytest.raises(ValueError):
        signal.load_wav(junk)

    with pytest.raises(FileNotFoundError):
        signal.load_wav(tmp_path / "missing.wav")


def _chunk(name: bytes, body: bytes) -> bytes:
    return name + struct.pack("<I", len(body)) + body + b"\0" * (len(body) % 2)


def _riff(*chunks: bytes) -> bytes:
    body = b"WAVE" + b"".join(chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def _fmt(code, bits, rate=16000, channels=1, extensible=False, block=None):
    block = block or channels * bits // 8
    head = struct.pack("<HHIIHH", 0xFFFE if extensible else code, channels, rate,
                       rate * block, block, bits)
    if not extensible:
        return _chunk(b"fmt ", head)
    guid = struct.pack("<I", code) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return _chunk(b"fmt ", head + struct.pack("<HHI", 22, bits, 4) + guid)


_PCM16 = np.random.default_rng(5).integers(-32768, 32768, 301).astype("<i2")
_F32 = np.random.default_rng(6).uniform(-1, 1, 300).astype("<f4")
_WAV_LAYOUTS = {
    "plain": lambda fmt, data: _riff(fmt, _chunk(b"data", data)),
    "list before data": lambda fmt, data: _riff(
        fmt, _chunk(b"LIST", b"INFOISFT\x06\x00\x00\x00tests\x00"), _chunk(b"data", data)),
    "odd unknown chunk": lambda fmt, data: _riff(
        _chunk(b"junk", b"abc"), fmt, _chunk(b"fact", b"\x2c\x01\x00\x00"),
        _chunk(b"data", data)),
}


@pytest.mark.filterwarnings(r"ignore:Chunk \(non-data\) not understood")
@pytest.mark.parametrize("extensible", [False, True], ids=["fmt", "extensible"])
@pytest.mark.parametrize("layout", list(_WAV_LAYOUTS))
@pytest.mark.parametrize("code,bits,data", [(1, 16, _PCM16), (3, 32, _F32)],
                         ids=["pcm16", "float32"])
def test_load_wav_matches_scipy(code, bits, data, layout, extensible, tmp_path):
    from scipy.io import wavfile

    path = tmp_path / "x.wav"
    path.write_bytes(_WAV_LAYOUTS[layout](_fmt(code, bits, 22050, extensible=extensible),
                                          data.tobytes()))
    rate, ref = wavfile.read(path)
    assert ref.dtype == data.dtype
    back = signal.load_wav(path)
    assert back.sample_rate == rate == 22050
    expected = ref.astype(np.float64) / 32768.0 if code == 1 else ref.astype(np.float64)
    assert np.array_equal(back.samples, expected)


@pytest.mark.parametrize("n", [0, 1, 2000])
def test_save_wav_writes_scipy_bytes(n, tmp_path):
    from scipy.io import wavfile

    x = 1.5 * np.random.default_rng(n).standard_normal(n)
    ours, ref = tmp_path / "ours.wav", tmp_path / "ref.wav"
    signal.save_wav(ours, Waveform(x, 16000))
    wavfile.write(ref, 16000, np.clip(x, -1.0, 1.0).astype(np.float32))
    assert ours.read_bytes() == ref.read_bytes()


def _rejected_wav(case) -> tuple[bytes, str]:
    """The bytes of one malformed or unsupported WAV, and a part of its error."""
    from scipy.io import wavfile

    def scipy_bytes(data):
        buf = io.BytesIO()
        wavfile.write(buf, 16000, data)
        return buf.getvalue()

    good = scipy_bytes(np.zeros(10, dtype=np.int16))
    return {
        "stereo": (scipy_bytes(np.zeros((10, 2), dtype=np.int16)),
                   "expected mono audio, got 2 channels"),
        "pcm8": (scipy_bytes(np.full(10, 128, dtype=np.uint8)), "8-bit"),
        "float64": (scipy_bytes(np.zeros(10)), "64-bit"),
        "pcm24": (_riff(_fmt(1, 24), _chunk(b"data", bytes(30))), "24-bit"),
        "pcm16 in 4-byte blocks": (_riff(_fmt(1, 16, block=4), _chunk(b"data", bytes(40))),
                                   "4-byte blocks"),
        "extensible, unknown subformat": (
            _riff(_fmt(1, 16, extensible=True)[:-1] + b"\x00", _chunk(b"data", bytes(20))),
            "SubFormat"),
        "rifx": (b"RIFX" + good[4:], "RIFX"),
        "rf64": (b"RF64" + good[4:], "RF64"),
        "truncated header": (good[:30], "fmt "),
        "truncated data": (good[:-1], "data"),
        "no data": (_riff(_fmt(1, 16)), "no data chunk"),
        "data before fmt": (_riff(_chunk(b"data", bytes(4)), _fmt(1, 16)), "no fmt chunk"),
    }[case]


@pytest.mark.parametrize("case", ["stereo", "pcm8", "float64", "pcm24", "pcm16 in 4-byte blocks",
                                  "extensible, unknown subformat", "rifx", "rf64",
                                  "truncated header", "truncated data", "no data",
                                  "data before fmt"])
def test_load_wav_rejects_naming_the_path(case, tmp_path):
    blob, reason = _rejected_wav(case)
    path = tmp_path / "bad.wav"
    path.write_bytes(blob)
    with pytest.raises(ValueError) as excinfo:
        signal.load_wav(path)
    assert str(excinfo.value).startswith(f"{path}: ")
    assert reason in str(excinfo.value)
