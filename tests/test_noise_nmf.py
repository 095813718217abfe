import re

import numpy as np
import pytest

from diffenh import noise_nmf
from diffenh.noise_nmf import (
    EPS_NMF,
    NmfParams,
    init_nmf,
    is_objective,
    m_step,
    synth_noise_waveform,
)


def test_params_validation_and_floor():
    with pytest.raises(ValueError):
        NmfParams(W=np.ones((3, 2)), H=np.ones((3, 5)))  # inner dims disagree
    for W, H in ((-np.ones((3, 2)), np.ones((2, 5))), (np.ones((3, 2)), -np.ones((2, 5)))):
        with pytest.raises(ValueError, match="nonnegative"):
            NmfParams(W=W, H=H)
    p = NmfParams(W=np.zeros((3, 2)), H=np.zeros((2, 4)))
    assert np.all(p.W >= EPS_NMF) and np.all(p.H >= EPS_NMF)
    assert p.shape == p.variance().shape == (3, 4)


def test_init_nmf_power_and_determinism():
    p = init_nmf(8, 12, 3, 2.5, seed=4)
    assert np.mean(p.variance()) == pytest.approx(2.5, rel=1e-12)
    q = init_nmf(8, 12, 3, 2.5, seed=4)
    assert np.array_equal(p.W, q.W) and np.array_equal(p.H, q.H)
    with pytest.raises(ValueError):
        init_nmf(8, 12, 0, 1.0, seed=0)
    with pytest.raises(ValueError):
        init_nmf(8, 12, 9, 1.0, seed=0)
    with pytest.raises(ValueError):
        init_nmf(8, 12, 2, 0.0, seed=0)


def test_objective_closed_forms():
    rng = np.random.default_rng(0)
    p = init_nmf(5, 7, 2, 1.0, seed=1)
    V = p.variance()
    assert is_objective(V, p) == pytest.approx(float(np.sum(1.0 + np.log(V))), rel=1e-12)
    assert is_objective(np.zeros((5, 7)), p) == pytest.approx(float(np.sum(np.log(V))), rel=1e-12)
    P = rng.uniform(0.1, 2.0, (5, 7))
    brute = 0.0
    for f in range(5):
        for t in range(7):
            brute += P[f, t] / V[f, t] + np.log(V[f, t])
    assert is_objective(P, p) == pytest.approx(brute, rel=1e-12)
    with pytest.raises(ValueError, match="does not match factors"):
        is_objective(P.T, p)


def test_m_step_fixed_point():
    p = init_nmf(6, 9, 2, 1.0, seed=2)
    P = p.variance().copy()
    q = m_step(P, p, 1)
    assert np.max(np.abs(q.W - p.W)) < 1e-12
    assert np.max(np.abs(q.H - p.H)) < 1e-12


def test_m_step_rejects_non_finite_factors():
    # an infinite residual power drives W to inf and then H to nan; a longer fit
    # raises after the same floating-point work as a single update, so every
    # invalid operation it reports is one that the first update reports too
    p = init_nmf(4, 5, 2, 1.0, seed=0)
    P = np.ones((4, 5))
    P[1, 2] = np.inf
    reported = {1: [], 5: []}
    for n, seen in reported.items():
        with np.errstate(invalid="call", call=lambda kind, flag, seen=seen: seen.append(kind)):
            with pytest.raises(FloatingPointError, match="non-finite NMF factors"):
                m_step(P, p, n)
    assert reported[1] and reported[5] == reported[1]


def test_m_step_equals_chained_single_updates():
    rng = np.random.default_rng(8)
    P = rng.uniform(0.01, 5.0, (9, 11))
    p = init_nmf(9, 11, 3, float(P.mean()), seed=4)
    q = m_step(P, p, 3)
    for _ in range(3):
        p = m_step(P, p, 1)
    assert np.array_equal(q.W, p.W) and np.array_equal(q.H, p.H)


def test_m_step_monotone_on_random_problems():
    rng = np.random.default_rng(3)
    violations = 0
    for trial in range(20):
        P = rng.uniform(0.01, 5.0, (8, 10))
        p = init_nmf(8, 10, 3, float(P.mean()), seed=trial)
        prev = is_objective(P, p)
        for _ in range(50):
            p = m_step(P, p, 1)
            cur = is_objective(P, p)
            if cur > prev + 1e-10:
                violations += 1
            prev = cur
    assert violations == 0


def test_rank_one_exact_recovery():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 2.0, (10, 1))
    h = rng.uniform(0.5, 2.0, (1, 14))
    P = w @ h
    p = init_nmf(10, 14, 1, float(P.mean()), seed=0)
    for _ in range(2000):
        p = m_step(P, p, 1)
    rel = np.linalg.norm(p.variance() - P) / np.linalg.norm(P)
    assert rel < 1e-8


def test_rank_four_recovery_reaches_lower_bound():
    rng = np.random.default_rng(6)
    W = rng.uniform(0.2, 1.5, (12, 4))
    H = rng.uniform(0.2, 1.5, (4, 16))
    P = W @ H
    p = init_nmf(12, 16, 4, float(P.mean()), seed=1)
    for _ in range(20_000):
        p = m_step(P, p, 1)
    bound = float(np.sum(1.0 + np.log(P)))
    assert is_objective(P, p) - bound < 1e-6


def test_m_step_contract():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
    P = np.abs(x - 0.5 * x) ** 2
    p = init_nmf(6, 8, 2, 1.0, seed=0)
    before = is_objective(P, p)
    q = m_step(P, p, 20)
    assert is_objective(P, q) <= before
    # exact shapes only: grids numpy would broadcast against (6, 8) are refused too
    for bad in (P[:, :4], P.T, P[:, :1], P[:1], P[0]):
        with pytest.raises(ValueError, match=re.escape(f"power grid shape {bad.shape} does not")):
            m_step(bad, p, 20)


def test_m_step_zero_residual_drives_variance_down():
    p = init_nmf(5, 6, 2, 1.0, seed=0)
    q = m_step(np.zeros((5, 6)), p, n_updates=200)
    assert np.mean(q.variance()) < 1e-6


def test_synth_noise_waveform_contract():
    rng = np.random.default_rng(11)
    w = synth_noise_waveform(4000, 4, rng)
    assert w.shape == (4000,)
    assert np.all(np.isfinite(w))
    a = synth_noise_waveform(4000, 4, np.random.default_rng(3))
    b = synth_noise_waveform(4000, 4, np.random.default_rng(3))
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        synth_noise_waveform(4000, 0, rng)
    with pytest.raises(ValueError):
        synth_noise_waveform(0, 4, rng)


def test_synth_noise_waveform_rank_one_is_broadband():
    rng = np.random.default_rng(12)
    w = synth_noise_waveform(8000, 1, rng)
    spec = np.abs(np.fft.rfft(w)) ** 2
    # no narrowband components: energy should not concentrate in a few bins
    top = np.sort(spec)[-len(spec) // 20 :].sum()
    assert top / spec.sum() < 0.5


def test_synth_noise_waveform_tones_are_narrowband():
    def concentration(w):
        spec = np.abs(np.fft.rfft(w)) ** 2
        return np.sort(spec)[-len(spec) // 20 :].sum() / spec.sum()

    # iid noise puts ~0.2 of its power in the top 5% of bins; tones concentrate more
    rng = np.random.default_rng(13)
    with_tones = concentration(synth_noise_waveform(8000, 4, rng))
    floor_only = concentration(synth_noise_waveform(8000, 1, rng))
    assert with_tones > 1.5 * floor_only
