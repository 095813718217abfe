import math

import numpy as np
import pytest

from diffenh import sde
from diffenh.score import AnalyticGaussianPrior
from oracles import variance_ode_error


def test_schedule_defaults():
    s = sde.SdeSchedule()
    assert (s.gamma, s.sigma_min, s.sigma_max, s.t_min) == (1.5, 0.05, 0.5, 0.03)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"gamma": -0.1},
        {"gamma": float("nan")},
        {"gamma": float("inf")},
        {"sigma_min": 0.0},
        {"sigma_min": 0.6},  # must stay below sigma_max
        {"sigma_max": -1.0},
        {"sigma_max": float("inf")},
        {"t_min": 0.0},
        {"t_min": 1.5},
        # finite, but the kernel vanishes or overflows: sigma_min^2 underflows
        # and the ratio^2 overflows, delta(t_min) underflows, sigma_max/sigma_min overflows
        {"sigma_min": 1e-200},
        {"gamma": 1e308},
        {"sigma_max": 1e308},
    ],
)
def test_schedule_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        sde.SdeSchedule(**kwargs)


def test_schedule_allows_zero_gamma():
    s = sde.SdeSchedule(gamma=0.0)
    assert sde.kernel_moments(0.7, s).delta == 1.0


def test_schedule_allows_a_mean_that_vanishes_only_at_t_1():
    # nothing divides by delta(1), so its underflow to 0 is harmless
    s = sde.SdeSchedule(gamma=800.0)
    assert sde.kernel_moments(1.0, s).delta == 0.0
    assert sde.kernel_moments(s.t_min, s).delta > 0


def test_diffusion_coeff_endpoints():
    s = sde.SdeSchedule()
    scale = math.sqrt(2.0 * math.log(s.sigma_max / s.sigma_min))
    assert sde.diffusion_coeff(0.0, s) == pytest.approx(s.sigma_min * scale, rel=1e-12)
    assert sde.diffusion_coeff(1.0, s) == pytest.approx(s.sigma_max * scale, rel=1e-12)
    # numerically: 0.05 * sqrt(2 ln 10) and 0.5 * sqrt(2 ln 10)
    assert sde.diffusion_coeff(0.0, s) == pytest.approx(0.1072983, abs=1e-6)
    assert sde.diffusion_coeff(1.0, s) == pytest.approx(1.0729833, abs=1e-6)


def test_kernel_moments_at_zero():
    mom = sde.kernel_moments(0.0, sde.SdeSchedule())
    assert mom.delta == 1.0
    assert mom.var == 0.0


def test_kernel_moments_closed_form():
    s = sde.SdeSchedule()
    t = 0.6
    mom = sde.kernel_moments(t, s)
    assert mom.delta == pytest.approx(math.exp(-s.gamma * t), rel=1e-14)
    ratio = s.sigma_max / s.sigma_min
    expected = (
        s.sigma_min**2
        * (ratio ** (2 * t) - math.exp(-2 * s.gamma * t))
        * math.log(ratio)
        / (s.gamma + math.log(ratio))
    )
    assert mom.var == pytest.approx(expected, rel=1e-14)


def test_marginal_variance_at_one():
    # sigma(1)^2 for the default schedule, used by the corrector step size
    var = sde.kernel_moments(1.0, sde.SdeSchedule()).var
    assert var == pytest.approx(0.15131, abs=5e-6)


@pytest.mark.parametrize("t", [0.0, sde.SdeSchedule().t_min, 0.5, 1.0])
def test_unit_prior_marginal_variance_is_the_analytic_priors(t):
    sched = sde.SdeSchedule()
    prior = AnalyticGaussianPrior(mean=0.0, var0=1.0, sched=sched)
    assert sde.kernel_moments(t, sched).m == prior.marginal(t)[1]


def test_variance_ode_matches_closed_form():
    err = variance_ode_error(sde.SdeSchedule())
    assert err < 1e-6


def test_variance_ode_flags_wrong_leading_coefficient(monkeypatch):
    def sigma_max_led(t, sched):
        return sched.sigma_max * (sched.sigma_max / sched.sigma_min) ** t * math.sqrt(
            2.0 * sched.log_ratio
        )

    monkeypatch.setattr(sde, "diffusion_coeff", sigma_max_led)
    err = variance_ode_error(sde.SdeSchedule())
    assert err > 1.0


@pytest.mark.parametrize("n_steps", [0, -5])
def test_variance_ode_rejects_nonpositive_steps(n_steps):
    with pytest.raises(ValueError, match=f"got {n_steps}"):
        variance_ode_error(sde.SdeSchedule(), n_steps=n_steps)


def test_complex_randn_moments():
    rng = np.random.default_rng(42)
    z = sde.complex_randn((200_000,), rng)
    assert abs(z.mean()) < 0.01
    assert np.var(z.real) == pytest.approx(0.5, rel=0.05)
    assert np.var(z.imag) == pytest.approx(0.5, rel=0.05)
    assert np.mean(np.abs(z) ** 2) == pytest.approx(1.0, rel=0.02)


@pytest.mark.parametrize("shape", [(0,), (7,), (3, 5), (2, 3, 4), (256, 126)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_complex_randn_equals_scaled_complex_sum(shape, seed):
    # the draws scaled into the real and imaginary views give the bits of
    # the complex expression, signs of zeros included
    got = sde.complex_randn(shape, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    want = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    assert got.shape == want.shape and got.dtype == want.dtype
    for part in ("real", "imag"):
        g, w = getattr(got, part), getattr(want, part)
        assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


def test_perturb_moments():
    s = sde.SdeSchedule()
    rng = np.random.default_rng(7)
    s0 = np.full(100_000, 1.0 - 2.0j)
    t = 0.5
    st = sde.perturb(s0, t, s, rng)
    mom = sde.kernel_moments(t, s)
    assert abs(st.mean() - mom.delta * s0[0]) < 4 * math.sqrt(mom.var / len(s0))
    assert np.var(st.real) + np.var(st.imag) == pytest.approx(mom.var, rel=0.05)


def test_perturb_rejects_bad_time():
    s = sde.SdeSchedule()
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sde.perturb(np.zeros(3, complex), -0.1, s, rng)
    with pytest.raises(ValueError):
        sde.perturb(np.zeros(3, complex), 1.1, s, rng)
