"""Predictor-corrector reverse sampling, optionally guided toward a mixture.

The reverse loop walks a rescaled time grid tau_i = t_min + (i/N)(1 - t_min),
with t_min from the schedule, from i = N down to 1.  Each iteration runs an annealed Langevin corrector and
an Euler-Maruyama predictor; every posterior_every-th iteration additionally
applies a data-consistency update built from the pseudo-likelihood score.

Two choices here are load-bearing and pinned by the conjugate-Gaussian oracle
test rather than by formula transcription:

* The guidance update is scaled by the stride it stands in for,
  lambda * g(tau)^2 * (posterior_every * dtau).  Without the step factor the
  update is not a discretization of anything and blows up: its per-step gain
  exceeds 1 at the default schedule, and the chain drifts far past the target
  posterior mean.
* On guided iterations the corrector uses the guided score (prior score plus
  lambda times the likelihood score), so its stationary target is the
  posterior rather than the prior.  With the corrector left unguided the
  N=30 default underweights the data by roughly 2x.

The returned value is the conditional mean at t_min (one denoising step),
not the raw final state; the raw state still carries sigma(t_min)^2 of kernel
noise that the caller never wants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sde import SdeSchedule, complex_randn, diffusion_coeff, kernel_moments


@dataclass(frozen=True)
class SamplerConfig:
    n_steps: int = 30
    posterior_every: int = 2
    guidance_weight: float = 1.5

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if self.posterior_every < 1:
            raise ValueError(f"posterior_every must be >= 1, got {self.posterior_every}")
        if self.guidance_weight < 0:
            raise ValueError(f"guidance_weight must be >= 0, got {self.guidance_weight}")


@dataclass
class GuidanceContext:
    """Observed mixture and the current noise-variance grid."""

    x: np.ndarray
    v_phi: np.ndarray

    def __post_init__(self):
        self.v_phi = np.broadcast_to(np.asarray(self.v_phi, dtype=np.float64), self.x.shape)
        if np.any(self.v_phi < 0):
            raise ValueError("v_phi must be nonnegative")


def _check_finite(score: np.ndarray, tau: float) -> np.ndarray:
    if not np.all(np.isfinite(score)):
        raise FloatingPointError(f"non-finite score at tau={tau:.4f}")
    return score


def pseudo_likelihood_score(
    s: np.ndarray, tau: float, ctx: GuidanceContext, sched: SdeSchedule
) -> np.ndarray:
    """Half-gradient of log N_C(x; s/delta, sigma^2/delta^2 + v_phi) in s.

    Elementwise (1/delta) * (x - s/delta) / (sigma^2/delta^2 + v_phi); zero
    exactly when s = delta * x, and vanishing as v_phi grows.
    """
    mom = kernel_moments(tau, sched)
    if mom.delta <= 0:
        raise ValueError(f"mean scale must be positive at tau={tau}")
    denom = mom.var / mom.delta**2 + ctx.v_phi
    return (ctx.x - s / mom.delta) / (denom * mom.delta)


def corrector_step(
    s: np.ndarray,
    tau: float,
    model,
    sched: SdeSchedule,
    rng: np.random.Generator,
    ctx: GuidanceContext | None = None,
    weight: float = 0.0,
) -> np.ndarray:
    """One annealed Langevin step with step size (sigma(tau)/2)^2.

    With ctx given the step follows the guided score, the prior score plus
    weight times the pseudo-likelihood score, so it targets the posterior.
    """
    eps = (math.sqrt(kernel_moments(tau, sched).var) / 2.0) ** 2
    score = model.evaluate(s, tau)
    if ctx is not None:
        score = score + weight * pseudo_likelihood_score(s, tau, ctx, sched)
    _check_finite(score, tau)
    return s + eps * score + math.sqrt(2.0 * eps) * complex_randn(s.shape, rng)


def predictor_step(
    s: np.ndarray, tau: float, dtau: float, model, sched: SdeSchedule, rng: np.random.Generator
) -> np.ndarray:
    """One Euler-Maruyama step of the reverse SDE.

    The forward drift is -gamma*s, so the reverse step adds gamma*s*dtau.
    """
    g = diffusion_coeff(tau, sched)
    score = _check_finite(model.evaluate(s, tau), tau)
    noise = g * math.sqrt(dtau) * complex_randn(s.shape, rng)
    return s + sched.gamma * s * dtau + g**2 * score * dtau + noise


def _denoise(s: np.ndarray, model, sched: SdeSchedule, t: float) -> np.ndarray:
    # conditional-mean readout: remove the residual kernel noise at t
    mom = kernel_moments(t, sched)
    return (s + mom.var * _check_finite(model.evaluate(s, t), t)) / mom.delta


def _pc_loop(
    s: np.ndarray,
    model,
    sched: SdeSchedule,
    cfg: SamplerConfig,
    ctx: GuidanceContext | None,
    rng: np.random.Generator,
) -> np.ndarray:
    t_min = sched.t_min
    dtau = (1.0 - t_min) / cfg.n_steps
    lam = cfg.guidance_weight
    for i in range(cfg.n_steps, 0, -1):
        tau = t_min + (i / cfg.n_steps) * (1.0 - t_min)
        guided = ctx is not None and i % cfg.posterior_every == 0
        s = corrector_step(s, tau, model, sched, rng, ctx if guided else None, lam)
        s = predictor_step(s, tau, dtau, model, sched, rng)
        if guided:
            step = lam * diffusion_coeff(tau, sched) ** 2 * (cfg.posterior_every * dtau)
            s = s + step * pseudo_likelihood_score(s, tau, ctx, sched)
    return _denoise(s, model, sched, t_min)


def posterior_sample(
    x: np.ndarray,
    model,
    sched: SdeSchedule,
    cfg: SamplerConfig,
    v_phi: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample the clean-state posterior given mixture x and noise variances."""
    ctx = GuidanceContext(x=x, v_phi=v_phi)
    s = x + complex_randn(x.shape, rng)
    return _pc_loop(s, model, sched, cfg, ctx, rng)


def unconditional_sample(
    shape, model, sched: SdeSchedule, cfg: SamplerConfig, rng: np.random.Generator
) -> np.ndarray:
    """Sample the prior: start at N_C(0, sigma(1)^2 I), run the reverse loop."""
    s = math.sqrt(kernel_moments(1.0, sched).var) * complex_randn(shape, rng)
    return _pc_loop(s, model, sched, cfg, None, rng)
