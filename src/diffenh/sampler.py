"""Predictor-corrector reverse sampling of the prior, or of the posterior given a mixture.

Every chain starts at sigma(1) * N_C(0, I) and walks a rescaled time grid
tau_i = t_min + (i/N)(1 - t_min), with t_min from the schedule, from i = N
down to 1.  Each iteration runs an annealed Langevin corrector and an
Euler-Maruyama predictor.  The returned value is the conditional mean at t_min
(one denoising step), not the raw final state; the raw state still carries
sigma(t_min)^2 of kernel noise that the caller never wants.  A chain makes
2N + 1 score evaluations.  The steps, the readout and the posterior score
work in place: each writes into the array that the score model's evaluate
returned (a new array the caller owns, see score.py) and into arrays it made
itself, never into the state it was given.  They keep the order of
operations of the plain expressions, so every rounding, and the order of the
random draws, is the same.

A posterior chain is unconditional_sample run on the posterior score given a
mixture x = s_0 + n, n ~ N_C(0, v): the prior score S plus the score of the
likelihood p(x | s_tau) under the Tweedie moments of the unit-variance prior
that the score net's residual map assumes.  With kernel moments delta and
sigma^2 and m = delta^2 + sigma^2 (KernelMoments.m), s_0 given s_tau has
mean (s + sigma^2 S)/delta, mean Jacobian delta/m and variance sigma^2/m,
and the posterior score folds to

    (m v S + delta x - s) / (sigma^2 + m v).

It needs only S, so a posterior chain also makes 2N + 1 evaluations.  For a
unit Gaussian prior the score is exact at every noise level, as in DPS (Chung
et al. 2023) and TMPD (Boys et al. 2023); for other priors the Tweedie moments
are an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sde import SdeSchedule, complex_randn, diffusion_coeff, kernel_moments


@dataclass(frozen=True)
class SamplerConfig:
    """n_steps is N.  The default of 30 serves prior sampling: `sample` and
    the clean speech of `benchmark --synthetic` draw at SamplerConfig(), which
    no flag changes.  Enhancement takes its N from
    EnhancementConfig.reverse_steps (20).  The step sweep behind that 20
    checked posterior chains only, and the seeded clean utterances that the
    tests and benchmarks score against are prior samples at this N."""

    n_steps: int = 30

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")


class _PosteriorScore:
    """The posterior score given mixture x and noise variances v, as a score model."""

    def __init__(self, model, x: np.ndarray, v: np.ndarray, sched: SdeSchedule):
        self.model, self.x, self.v, self.sched = model, x, v, sched

    def evaluate(self, s: np.ndarray, tau: float) -> np.ndarray:
        mom = kernel_moments(tau, self.sched)
        out = self.model.evaluate(s, tau)
        c = mom.m * self.v
        out *= c
        out += mom.delta * self.x
        out -= s
        c += mom.var
        np.divide(1.0, c, out=c)
        out *= c
        return out


def _check_finite(score: np.ndarray, tau: float) -> np.ndarray:
    # on the complex128 score's float64 parts, which numpy checks about twice as fast
    if not np.all(np.isfinite(score.reshape(-1).view(np.float64))):
        raise FloatingPointError(f"non-finite score at tau={tau:.4f}")
    return score


def corrector_step(
    s: np.ndarray, tau: float, model, sched: SdeSchedule, rng: np.random.Generator
) -> np.ndarray:
    """One annealed Langevin step along model's score with step size (sigma(tau)/2)^2."""
    eps = (math.sqrt(kernel_moments(tau, sched).var) / 2.0) ** 2
    score = _check_finite(model.evaluate(s, tau), tau)
    score *= eps
    score += s
    noise = complex_randn(s.shape, rng)
    noise *= math.sqrt(2.0 * eps)
    score += noise
    return score


def predictor_step(
    s: np.ndarray, tau: float, dtau: float, model, sched: SdeSchedule, rng: np.random.Generator
) -> np.ndarray:
    """One Euler-Maruyama step of the reverse SDE.

    The forward drift is -gamma*s, so the reverse step adds gamma*s*dtau.
    """
    g = diffusion_coeff(tau, sched)
    score = _check_finite(model.evaluate(s, tau), tau)
    score *= g**2
    score *= dtau
    out = sched.gamma * s
    out *= dtau
    out += s
    out += score
    del score  # freed before the draw, which holds two grids' worth at once
    noise = complex_randn(s.shape, rng)
    noise *= g * math.sqrt(dtau)
    out += noise
    return out


def _denoise(s: np.ndarray, model, sched: SdeSchedule, t: float) -> np.ndarray:
    # conditional-mean readout: remove the residual kernel noise at t
    mom = kernel_moments(t, sched)
    out = _check_finite(model.evaluate(s, t), t)
    out *= mom.var
    out += s
    out /= mom.delta
    return out


def unconditional_sample(
    shape, model, sched: SdeSchedule, cfg: SamplerConfig, rng: np.random.Generator
) -> np.ndarray:
    """Sample the distribution whose score model evaluates (the prior, or the
    posterior through _PosteriorScore), starting at N_C(0, sigma(1)^2 I)."""
    s = math.sqrt(kernel_moments(1.0, sched).var) * complex_randn(shape, rng)
    t_min = sched.t_min
    dtau = (1.0 - t_min) / cfg.n_steps
    for i in range(cfg.n_steps, 0, -1):
        tau = t_min + (i / cfg.n_steps) * (1.0 - t_min)
        s = corrector_step(s, tau, model, sched, rng)
        s = predictor_step(s, tau, dtau, model, sched, rng)
    return _denoise(s, model, sched, t_min)


def posterior_sample(
    x: np.ndarray,
    model,
    sched: SdeSchedule,
    cfg: SamplerConfig,
    v_phi: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample the clean-state posterior given mixture x and noise variances v_phi."""
    v = np.broadcast_to(np.asarray(v_phi, dtype=np.float64), x.shape)
    if not np.all((v >= 0) & (v < np.inf)):
        raise ValueError("v_phi must be finite and nonnegative")
    return unconditional_sample(x.shape, _PosteriorScore(model, x, v, sched), sched, cfg, rng)
