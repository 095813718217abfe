"""Variance-exploding forward SDE with linear mean decay.

The forward process is ds = -gamma * s dt + g(t) dw on complex-valued
time-frequency grids.  Its perturbation kernel is available in closed form,
which is what every other module builds on: sampling at arbitrary t needs no
integration.  The tests cross-check the closed-form variance against a
numerical solution of the variance ODE (tests/oracles.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class SdeSchedule:
    """Parameters of the noise schedule.

    gamma is the mean-decay rate, sigma_min/sigma_max bound the geometric
    noise growth, and t_min is the smallest process time used at inference
    (the kernel itself is defined on all of [0, 1]).
    """

    gamma: float = 1.5
    sigma_min: float = 0.05
    sigma_max: float = 0.5
    t_min: float = 0.03

    def __post_init__(self):
        # chained comparisons with math.inf also reject nan
        if not 0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if not 0 < self.sigma_min < self.sigma_max < math.inf:
            raise ValueError(
                f"need 0 < sigma_min < sigma_max < inf, got {self.sigma_min}, {self.sigma_max}"
            )
        if not 0 < self.t_min < 1:
            raise ValueError(f"t_min must lie in (0, 1), got {self.t_min}")
        # the sampler divides by delta(t_min) and sigma^2(t_min); sigma^2 rises
        # with t, so its two ends bound it on [t_min, 1]
        try:
            low, high = kernel_moments(self.t_min, self), kernel_moments(1.0, self)
            usable = (low.delta > 0 and low.var > 0 and math.isfinite(1 / low.var)
                      and math.isfinite(high.var))
        except OverflowError:
            usable = False
        if not usable:
            raise ValueError(f"gamma={self.gamma}, sigma_min={self.sigma_min}, sigma_max="
                             f"{self.sigma_max} and t_min={self.t_min} give a noise kernel that "
                             "vanishes or overflows in float64")

    @property
    def log_ratio(self) -> float:
        return math.log(self.sigma_max / self.sigma_min)


@dataclass(frozen=True)
class KernelMoments:
    """Mean scale and per-entry variance of the perturbation kernel at time t."""

    delta: float
    var: float

    @property
    def m(self) -> float:
        """delta^2 + var: the variance of s_t under a unit-variance s_0."""
        return self.delta**2 + self.var


def _check_time(t: float):
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"process time must lie in [0, 1], got {t}")


def diffusion_coeff(t: float, sched: SdeSchedule) -> float:
    """Diffusion magnitude g(t) = sigma_min * r^t * sqrt(2 log r), r = sigma_max/sigma_min.

    Leading with sigma_min is what makes the closed-form kernel variance the
    exact solution of the variance ODE (checked in tests/oracles.py); a sigma_max
    lead would make the sampler's steps disagree with kernel_moments.
    """
    _check_time(t)
    ratio = sched.sigma_max / sched.sigma_min
    return sched.sigma_min * ratio**t * math.sqrt(2.0 * sched.log_ratio)


def kernel_moments(t: float, sched: SdeSchedule) -> KernelMoments:
    """Closed-form kernel moments: delta = e^{-gamma t} and the variance.

    var(t) = sigma_min^2 * ((sigma_max/sigma_min)^{2t} - delta^2)
             * log(sigma_max/sigma_min) / (gamma + log(sigma_max/sigma_min))
    """
    _check_time(t)
    delta = math.exp(-sched.gamma * t)
    ratio = (sched.sigma_max / sched.sigma_min) ** (2.0 * t)
    var = (
        sched.sigma_min**2
        * (ratio - delta**2)
        * sched.log_ratio
        / (sched.gamma + sched.log_ratio)
    )
    # ratio - delta^2 can round to a tiny negative at t=0
    return KernelMoments(delta=delta, var=max(var, 0.0))


def complex_randn(shape, rng: np.random.Generator) -> np.ndarray:
    """Standard circularly-symmetric complex normal: Re and Im each var 1/2.

    Each draw is scaled straight into its half of the output.  numpy divides
    a complex array by a real scalar as a product with the reciprocal, so this
    equals (a + 1j * b) / sqrt(2) bit for bit, without its complex temporaries.
    Both draws come before the output is allocated: allocating it between
    them raised the benchmark's peak RSS by about 1.5 MB.
    """
    a, b = rng.standard_normal(shape), rng.standard_normal(shape)
    out = np.empty(shape, dtype=np.complex128)
    np.multiply(a, 1.0 / math.sqrt(2.0), out=out.real)
    np.multiply(b, 1.0 / math.sqrt(2.0), out=out.imag)
    return out


def perturb(s_0: np.ndarray, t: float, sched: SdeSchedule, rng: np.random.Generator) -> np.ndarray:
    """Draw s_t from the kernel: delta_t * s_0 + sigma(t) * zeta."""
    mom = kernel_moments(t, sched)
    return mom.delta * s_0 + math.sqrt(mom.var) * complex_randn(s_0.shape, rng)
