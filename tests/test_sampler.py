import math
import tracemalloc

import numpy as np
import pytest

from diffenh import sde, score, sampler
from diffenh.em import EnhancementConfig
from diffenh.sampler import (
    SamplerConfig,
    corrector_step,
    posterior_sample,
    predictor_step,
    unconditional_sample,
)
from oracles import GmmPrior

SCHED = sde.SdeSchedule()


class ZeroScore:
    def evaluate(self, s_t, t):
        return np.zeros_like(s_t)


class ConstScore:
    def __init__(self, value):
        self.value = value

    def evaluate(self, s_t, t):
        return np.full_like(s_t, self.value)


class NanScore:
    def evaluate(self, s_t, t):
        return np.full_like(s_t, np.nan)


class CountingScore:
    """Counts the evaluations it passes on to the unit Gaussian prior's score."""

    def __init__(self):
        self.prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
        self.calls = 0

    def evaluate(self, s_t, t):
        self.calls += 1
        return self.prior.evaluate(s_t, t)


class ZeroRng:
    """Stands in for a Generator; silences the stochastic terms."""

    def standard_normal(self, shape=None):
        return np.zeros(shape if shape is not None else ())


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(n_steps=0)


def test_posterior_sample_broadcasts_and_checks_noise_variances():
    x = np.zeros((3, 4), complex)
    cfg = SamplerConfig(n_steps=2)
    prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    rng = np.random.default_rng(0)
    assert posterior_sample(x, prior, SCHED, cfg, np.float64(1.0), rng).shape == x.shape
    for bad in (-np.ones((3, 4)), np.nan, np.inf):
        with pytest.raises(ValueError, match="v_phi must be finite and nonnegative"):
            posterior_sample(x, prior, SCHED, cfg, bad, rng)


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


def _posterior_score(model, x, v, s, tau):
    return sampler._PosteriorScore(model, x, np.broadcast_to(v, x.shape), SCHED).evaluate(s, tau)


def test_posterior_score_equals_prior_score_at_tweedie_mean():
    # the likelihood term vanishes where delta * x = s + sigma^2 * S
    rng = np.random.default_rng(1)
    prior = score.AnalyticGaussianPrior(mean=0.3 - 0.2j, var0=1.7, sched=SCHED)
    s = sde.complex_randn((3, 4), rng)
    tau = 0.4
    mom = sde.kernel_moments(tau, SCHED)
    S = prior.evaluate(s, tau)
    x = (s + mom.var * S) / mom.delta
    out = _posterior_score(prior, x, np.full((3, 4), 0.7), s, tau)
    assert np.max(np.abs(out - S)) < 1e-12


def test_posterior_score_matches_finite_differences():
    # under the unit prior, the prior plus log N_C(x; delta s/m, sigma^2/m + v)
    rng = np.random.default_rng(2)
    x = sde.complex_randn((2, 3), rng)
    v = rng.uniform(0.2, 2.0, (2, 3))
    tau = 0.55
    mom = sde.kernel_moments(tau, SCHED)
    m = mom.delta**2 + mom.var
    prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)

    def logp(s):
        return float(np.sum(-np.abs(s) ** 2 / m
                            - np.abs(x - mom.delta * s / m) ** 2 / (mom.var / m + v)))

    s = sde.complex_randn((2, 3), rng)
    exact = _posterior_score(prior, x, v, s, tau)
    eps = 1e-6
    fd = np.zeros_like(s)
    for idx in np.ndindex(s.shape):
        for unit in (1.0, 1.0j):
            plus, minus = s.copy(), s.copy()
            plus[idx] += eps * unit
            minus[idx] -= eps * unit
            fd[idx] += unit * (logp(plus) - logp(minus)) / (2 * eps) / 2.0
    assert np.linalg.norm(exact - fd) / np.linalg.norm(fd) < 1e-5


def test_posterior_score_tends_to_prior_score_with_infinite_noise():
    prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    s = np.zeros((2, 2), complex)
    out = _posterior_score(prior, np.ones((2, 2), complex), 1e12, s, 0.5)
    assert np.max(np.abs(out - prior.evaluate(s, 0.5))) < 1e-10


@pytest.mark.parametrize("n_steps", sorted({SamplerConfig().n_steps,
                                             EnhancementConfig().reverse_steps}))
@pytest.mark.parametrize("v", [0.1, 1.0, 10.0])
def test_posterior_conjugate_oracle(v, n_steps):
    # x = s_0 + n with s_0 ~ N_C(0, 1), n ~ N_C(0, v): the posterior is
    # N_C(x/(1+v), v/(1+v)) at every noise level, not only where v = 1; held
    # at the prior sampler's N and at the N that enhancement ships with
    prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    rng = np.random.default_rng(0)
    x = np.sqrt(1 + v) * sde.complex_randn((16, 32), rng)
    v_phi = np.full((16, 32), v)
    cfg = SamplerConfig(n_steps=n_steps)
    chains = np.stack([posterior_sample(x, prior, SCHED, cfg, v_phi, rng) for _ in range(64)])
    slope = np.vdot(x, chains.mean(axis=0)).real / np.vdot(x, x).real
    variance = np.mean(np.var(chains, axis=0, ddof=1))
    assert slope == pytest.approx(1 / (1 + v), rel=0.10)
    assert variance == pytest.approx(v / (1 + v), rel=0.10)


def test_infinite_noise_matches_unconditional_statistics():
    prior = score.AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    x = np.zeros((4000,), complex)
    v = np.full(4000, 1e12)
    post = posterior_sample(x, prior, SCHED, SamplerConfig(), v, np.random.default_rng(11))
    unc = unconditional_sample((4000,), prior, SCHED, SamplerConfig(), np.random.default_rng(12))
    assert abs(post.mean()) < 0.05
    assert np.mean(np.abs(post) ** 2) == pytest.approx(np.mean(np.abs(unc) ** 2), rel=0.10)


@pytest.mark.parametrize("n_steps", [1, 5])
def test_each_chain_makes_2n_plus_1_evaluations(n_steps):
    cfg = SamplerConfig(n_steps=n_steps)
    rng = np.random.default_rng(0)
    model = CountingScore()
    posterior_sample(np.ones((3, 4), complex), model, SCHED, cfg, np.ones((3, 4)), rng)
    assert model.calls == 2 * n_steps + 1
    model = CountingScore()
    unconditional_sample((3, 4), model, SCHED, cfg, rng)
    assert model.calls == 2 * n_steps + 1


def _reference_unconditional(shape, model, sched, n_steps, rng):
    """The unguided predictor-corrector loop as first written, operation for operation."""
    s = math.sqrt(sde.kernel_moments(1.0, sched).var) * sde.complex_randn(shape, rng)
    t_min = sched.t_min
    dtau = (1.0 - t_min) / n_steps
    for i in range(n_steps, 0, -1):
        tau = t_min + (i / n_steps) * (1.0 - t_min)
        eps = (math.sqrt(sde.kernel_moments(tau, sched).var) / 2.0) ** 2
        score_c = model.evaluate(s, tau)
        s = s + eps * score_c + math.sqrt(2.0 * eps) * sde.complex_randn(s.shape, rng)
        g = sde.diffusion_coeff(tau, sched)
        score_p = model.evaluate(s, tau)
        noise = g * math.sqrt(dtau) * sde.complex_randn(s.shape, rng)
        s = s + sched.gamma * s * dtau + g**2 * score_p * dtau + noise
    mom = sde.kernel_moments(t_min, sched)
    return (s + mom.var * model.evaluate(s, t_min)) / mom.delta


@pytest.mark.parametrize("shape", [(1,), (5, 7), (33, 20)])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_steps", [1, 4, 30])
def test_unconditional_sample_equals_reference_loop_bit_for_bit(shape, seed, n_steps):
    # it draws the benchmark corpora and `diffenh sample` output, which must not move
    net = score.ToyScoreNet(hidden=(8, 8), seed=seed, sched=SCHED)
    cfg = SamplerConfig(n_steps=n_steps)
    got = unconditional_sample(shape, net, SCHED, cfg, np.random.default_rng(seed))
    want = _reference_unconditional(shape, net, SCHED, n_steps, np.random.default_rng(seed))
    assert np.array_equal(got, want)


class _ReferencePosteriorScore:
    """The posterior score as first written, out of place."""

    def __init__(self, model, x, v):
        self.model, self.x, self.v = model, x, v

    def evaluate(self, s, tau):
        mom = sde.kernel_moments(tau, SCHED)
        mv = mom.m * self.v
        out = mv * self.model.evaluate(s, tau)
        out += mom.delta * self.x
        out -= s
        out *= 1.0 / (mom.var + mv)
        return out


@pytest.mark.parametrize("shape", [(1,), (5, 7), (33, 20)])
@pytest.mark.parametrize("seed", [0, 1])
def test_posterior_sample_equals_reference_loop_bit_for_bit(shape, seed):
    # the in-place steps and posterior score keep every rounding of the loop above
    net = score.ToyScoreNet(hidden=(8, 8), seed=seed, sched=SCHED)
    rng = np.random.default_rng(100 + seed)
    x = sde.complex_randn(shape, rng)
    v = rng.uniform(0.1, 3.0, shape)
    got = posterior_sample(x, net, SCHED, SamplerConfig(n_steps=4), v, np.random.default_rng(seed))
    want = _reference_unconditional(shape, _ReferencePosteriorScore(net, x, v), SCHED, 4,
                                    np.random.default_rng(seed))
    assert got.tobytes() == want.tobytes()


def test_posterior_chain_working_set():
    # a chain's steps update the arrays they own in place, so at most the
    # state, one working grid and a noise draw (a grid and its two real
    # halves) are alive at once: about 4 complex grids.  The out-of-place
    # steps this guards against peaked at 5.02 grids here.
    shape = (256, 64)
    grid = np.empty(shape, dtype=np.complex128).nbytes
    net = score.ToyScoreNet(hidden=(8,), seed=0, sched=SCHED)
    x = sde.complex_randn(shape, np.random.default_rng(0))
    cfg = SamplerConfig(n_steps=4)
    posterior_sample(x, net, SCHED, cfg, 1.0, np.random.default_rng(1))  # warm-up
    tracemalloc.start()
    try:
        posterior_sample(x, net, SCHED, cfg, 1.0, np.random.default_rng(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * grid


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
