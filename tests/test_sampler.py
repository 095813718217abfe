import numpy as np
import pytest

from diffenh import sde, score, sampler
from diffenh.sampler import (
    GuidanceContext,
    SamplerConfig,
    corrector_step,
    posterior_sample,
    predictor_step,
    pseudo_likelihood_score,
    unconditional_sample,
)
from oracles import GmmPrior

SCHED = sde.SdeSchedule()


class ZeroScore(score.ScoreModel):
    def evaluate(self, s_t, t):
        return np.zeros_like(s_t)


class ConstScore(score.ScoreModel):
    def __init__(self, value):
        self.value = value

    def evaluate(self, s_t, t):
        return np.full_like(s_t, self.value)


class NanScore(score.ScoreModel):
    def evaluate(self, s_t, t):
        return np.full_like(s_t, np.nan)


class ZeroRng:
    """Stands in for a Generator; silences the stochastic terms."""

    def standard_normal(self, shape=None):
        return np.zeros(shape if shape is not None else ())


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_steps=0)
    with pytest.raises(ValueError):
        SamplerConfig(posterior_every=0)
    with pytest.raises(ValueError):
        SamplerConfig(guidance_weight=-0.5)


def test_guidance_context_validation():
    x = np.zeros((3, 4), complex)
    ctx = GuidanceContext(x=x, v_phi=np.float64(1.0))
    assert ctx.v_phi.shape == x.shape
    with pytest.raises(ValueError):
        GuidanceContext(x=x, v_phi=-np.ones((3, 4)))


def test_corrector_zero_score_zero_noise_is_identity():
    s = np.array([[1.0 + 2.0j, -0.5j]])
    out = corrector_step(s, 0.5, ZeroScore(), SCHED, ZeroRng())
    assert np.array_equal(out, s)


def test_corrector_step_size_at_one():
    # with a constant unit score and no noise, the displacement equals the
    # Langevin step size (sigma(1)/2)^2
    s = np.zeros((1,), complex)
    out = corrector_step(s, 1.0, ConstScore(1.0 + 0j), SCHED, ZeroRng())
    assert out[0].real == pytest.approx(0.15131 / 4.0, abs=2e-6)


def test_corrector_preserves_gaussian_marginal():
    # Langevin steps targeting the marginal at fixed tau should keep 1e4
    # chains distributed as that marginal, up to O(eps) discretization bias
    tau = 0.5
    prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    mu, var = prior.marginal(tau)
    rng = np.random.default_rng(123)
    s = mu + np.sqrt(var) * sde.complex_randn((10_000,), rng)
    for _ in range(20):
        s = corrector_step(s, tau, prior, SCHED, rng)
    assert abs(s.mean()) < 3.0 * np.sqrt(var / len(s))
    assert np.mean(np.abs(s - mu) ** 2) == pytest.approx(var, rel=0.05)


@pytest.mark.parametrize("gamma", [0.0, 1.5])
def test_predictor_zero_score_zero_gamma_is_identity(gamma):
    # with the score and noise silenced only the reverse of the drift -gamma*s
    # remains, so the step is s + gamma*s*dtau (the identity at gamma = 0)
    sched = sde.SdeSchedule(gamma=gamma)
    s = np.array([0.7 - 0.3j, 1.0 + 2.0j, -0.5j])
    dtau = 1.0 / 30
    out = predictor_step(s, 0.8, dtau, ZeroScore(), sched, ZeroRng())
    assert np.array_equal(out, s + gamma * s * dtau)


def test_predictor_moves_toward_perturbed_mean():
    prior = score.AnalyticGaussianPrior(mean=3.0 + 0j, var0=0.2, sched=SCHED)
    tau = 0.6
    s = np.zeros((4,), complex)
    out = predictor_step(s, tau, 1.0 / 30, prior, SCHED, ZeroRng())
    mu, _ = prior.marginal(tau)
    step = out - s
    assert np.all(np.real(step * np.conj(mu - s)) > 0)


def test_nonfinite_score_aborts():
    rng = np.random.default_rng(0)
    with pytest.raises(FloatingPointError):
        unconditional_sample((2, 2), NanScore(), SCHED, SamplerConfig(), rng)


def test_pseudo_likelihood_zero_at_mode():
    rng = np.random.default_rng(1)
    x = sde.complex_randn((3, 4), rng)
    ctx = GuidanceContext(x=x, v_phi=np.full((3, 4), 0.7))
    tau = 0.4
    delta = sde.kernel_moments(tau, SCHED).delta
    out = pseudo_likelihood_score(delta * x, tau, ctx, SCHED)
    assert np.max(np.abs(out)) < 1e-12


def test_pseudo_likelihood_matches_finite_differences():
    rng = np.random.default_rng(2)
    x = sde.complex_randn((2, 3), rng)
    v = rng.uniform(0.2, 2.0, (2, 3))
    ctx = GuidanceContext(x=x, v_phi=v)
    tau = 0.55
    mom = sde.kernel_moments(tau, SCHED)
    denom = mom.var / mom.delta**2 + v

    def logp(s):
        return float(np.sum(-np.abs(x - s / mom.delta) ** 2 / denom))

    s = sde.complex_randn((2, 3), rng)
    exact = pseudo_likelihood_score(s, tau, ctx, SCHED)
    eps = 1e-6
    fd = np.zeros_like(s)
    for idx in np.ndindex(s.shape):
        for unit in (1.0, 1.0j):
            plus, minus = s.copy(), s.copy()
            plus[idx] += eps * unit
            minus[idx] -= eps * unit
            fd[idx] += unit * (logp(plus) - logp(minus)) / (2 * eps) / 2.0
    assert np.linalg.norm(exact - fd) / np.linalg.norm(fd) < 1e-5


def test_pseudo_likelihood_vanishes_with_infinite_noise():
    x = np.ones((2, 2), complex)
    ctx = GuidanceContext(x=x, v_phi=np.full((2, 2), 1e12))
    out = pseudo_likelihood_score(np.zeros((2, 2), complex), 0.5, ctx, SCHED)
    assert np.max(np.abs(out)) < 1e-10


def test_posterior_conjugate_oracle():
    prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    rng = np.random.default_rng(5)
    x = 3.0 * np.exp(2j * np.pi * rng.random((6, 10)))
    v = np.ones_like(x.real)
    crng = np.random.default_rng(33)
    chains = [posterior_sample(x, prior, SCHED, SamplerConfig(), v, crng) for _ in range(200)]
    s_hat = np.mean(chains, axis=0)
    rel = np.linalg.norm(s_hat - x / 2) / np.linalg.norm(x / 2)
    assert rel < 0.10


def test_guidance_weight_increases_data_pull():
    prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    rng = np.random.default_rng(5)
    x = 3.0 * np.exp(2j * np.pi * rng.random((4, 8)))
    v = np.ones_like(x.real)
    dists = []
    for lam in (0.5, 1.5, 3.0):
        cfg = SamplerConfig(guidance_weight=lam)
        crng = np.random.default_rng(7)
        chains = [posterior_sample(x, prior, SCHED, cfg, v, crng) for _ in range(50)]
        dists.append(np.linalg.norm(np.mean(chains, axis=0) - x))
    assert dists[0] > dists[1] > dists[2]


def test_zero_guidance_matches_unconditional_statistics():
    prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    cfg = SamplerConfig(guidance_weight=0.0, posterior_every=1)
    x = np.zeros((4000,), complex)
    v = np.ones(4000)
    post = posterior_sample(x, prior, SCHED, cfg, v, np.random.default_rng(11))
    unc = unconditional_sample((4000,), prior, SCHED, SamplerConfig(), np.random.default_rng(12))
    assert abs(post.mean()) < 0.05
    assert np.mean(np.abs(post) ** 2) == pytest.approx(np.mean(np.abs(unc) ** 2), rel=0.10)


def test_unconditional_gaussian_moments():
    mu0 = 0.4 - 0.8j
    prior = score.AnalyticGaussianPrior(mean=mu0, var0=1.0, sched=SCHED)
    rng = np.random.default_rng(21)
    samples = unconditional_sample((500,), prior, SCHED, SamplerConfig(), rng)
    assert abs(samples.mean() - mu0) < 0.1  # 10% of sigma_0 = 1
    assert np.mean(np.abs(samples - mu0) ** 2) == pytest.approx(1.0, rel=0.10)


def test_unconditional_determinism():
    prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    a = unconditional_sample((3, 5), prior, SCHED, SamplerConfig(), np.random.default_rng(9))
    b = unconditional_sample((3, 5), prior, SCHED, SamplerConfig(), np.random.default_rng(9))
    assert np.array_equal(a, b)


def test_gmm_component_occupancy():
    comps = [(0.7, 1.0 + 0j, 0.05), (0.3, -1.0 + 0j, 0.05)]
    prior = GmmPrior(comps, SCHED)
    rng = np.random.default_rng(17)
    cfg = SamplerConfig()
    hits = 0
    n = 1000
    for _ in range(n):
        s = unconditional_sample((1,), prior, SCHED, cfg, rng)
        hits += int(abs(s[0] - 1.0) < abs(s[0] + 1.0))
    assert abs(hits / n - 0.7) < 0.10
