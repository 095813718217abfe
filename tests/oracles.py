"""Reference implementations the tests check the package against.

None of these is used by the pipeline: each is a slow or analytic oracle
that a test compares a fast or closed-form result with.  Module functions are
called through their modules, so a test that monkeypatches
sde.diffusion_coeff reaches variance_ode_error too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from diffenh import sde
from diffenh.score import AnalyticGaussianPrior, TrainBatch, _batch_coeffs
from diffenh.sde import SdeSchedule


def variance_ode_error(sched: SdeSchedule, n_steps: int = 10_000) -> float:
    """Max relative error of the closed-form variance against the variance ODE.

    Integrates d var/dt = -2 gamma var + g(t)^2 from 0 to 1 with fixed-step
    RK4 and compares to kernel_moments at every grid point.  The denominator
    is floored at a small fraction of the final variance so the t -> 0 region,
    where the variance itself vanishes, cannot divide by zero.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")

    def rhs(t, v):
        return -2.0 * sched.gamma * v + sde.diffusion_coeff(t, sched) ** 2

    h = 1.0 / n_steps
    v = 0.0
    floor = 1e-9 * sde.kernel_moments(1.0, sched).var
    worst = 0.0
    for i in range(n_steps):
        t = i * h
        k1 = rhs(t, v)
        k2 = rhs(t + h / 2, v + h / 2 * k1)
        k3 = rhs(t + h / 2, v + h / 2 * k2)
        k4 = rhs(t + h, v + h * k3)
        v = v + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        closed = sde.kernel_moments((i + 1) * h, sched).var
        worst = max(worst, abs(v - closed) / max(closed, floor))
    return worst


def gaussian_log_density(prior: AnalyticGaussianPrior, s_t: np.ndarray, t: float) -> float:
    """Log-density of an AnalyticGaussianPrior's perturbed marginal at time t."""
    mu, var = prior.marginal(t)
    var = np.broadcast_to(np.asarray(var, dtype=np.float64), s_t.shape)
    return float(np.sum(-np.log(np.pi * var) - np.abs(s_t - mu) ** 2 / var))


@dataclass
class GmmPrior:
    """Mixture of isotropic complex Gaussians over the whole grid.

    components is a list of (weight, mean, var) with positive weights summing
    to one; each mean broadcasts against the state shape and var is a scalar.
    """

    components: list
    sched: SdeSchedule

    def __post_init__(self):
        if not self.components:
            raise ValueError("GmmPrior: empty component list")
        w = np.array([c[0] for c in self.components], dtype=np.float64)
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-9:
            raise ValueError(f"component weights must be positive and sum to 1, got {w}")

    def _marginals(self, t: float, shape):
        mom = sde.kernel_moments(t, self.sched)
        out = []
        for w, mu, var in self.components:
            out.append((w, mom.delta * np.broadcast_to(mu, shape), mom.delta**2 * var + mom.var))
        return out

    def _log_joint(self, s_t: np.ndarray, t: float) -> np.ndarray:
        # per-component joint log density + log weight, stacked
        parts = []
        for w, mu, var in self._marginals(t, s_t.shape):
            n = s_t.size
            quad = float(np.sum(np.abs(s_t - mu) ** 2)) / var
            parts.append(math.log(w) - n * math.log(math.pi * var) - quad)
        return np.array(parts)

    def evaluate(self, s_t: np.ndarray, t: float) -> np.ndarray:
        logs = self._log_joint(s_t, t)
        logs -= logs.max()  # log-sum-exp stabilization
        resp = np.exp(logs)
        resp /= resp.sum()
        score = np.zeros(s_t.shape, dtype=np.complex128)
        for r, (w, mu, var) in zip(resp, self._marginals(t, s_t.shape)):
            score += r * (mu - s_t) / var
        return score

    def log_density(self, s_t: np.ndarray, t: float) -> float:
        logs = self._log_joint(s_t, t)
        peak = logs.max()
        return float(peak + math.log(np.sum(np.exp(logs - peak))))

    def sample(self, shape, rng: np.random.Generator) -> np.ndarray:
        w = np.array([c[0] for c in self.components])
        k = rng.choice(len(self.components), p=w)
        _, mu, var = self.components[k]
        return np.broadcast_to(mu, shape) + math.sqrt(var) * sde.complex_randn(shape, rng)


def batch_terms(batch: TrainBatch, sched: SdeSchedule):
    """The perturbed state and the target of the whole batch."""
    delta, sig, _ = _batch_coeffs(batch, sched)
    s_t = delta[:, None, None] * batch.s0 + sig[:, None, None] * batch.zeta
    target = -batch.zeta / sig[:, None, None]
    return s_t, target


def dsm_loss(model, batch: TrainBatch, sched: SdeSchedule) -> float:
    """Mean over the batch of the squared 2-norm of S(s_t, t) - (-zeta/sigma).

    The reference the gradient checks compare dsm_loss_and_grad against.  It
    scores each item with model.evaluate(s_t[i], t_i), so for a ToyScoreNet
    it uses the weights evaluate uses, the EMA ones."""
    s_t, target = batch_terms(batch, sched)
    scores = np.stack([model.evaluate(s_t[i], float(ti)) for i, ti in enumerate(batch.t)])
    resid = scores - target
    return float(np.mean(np.sum(np.abs(resid) ** 2, axis=tuple(range(1, resid.ndim)))))


def broadcast_forward(params, state, bias, outs=None):
    """ToyScoreNet._forward with each bias broadcast as a row over the block.

    bias holds the first-layer time bias, one row per item; the n rows split
    evenly among the items, in order.  The package adds tiles of each bias
    instead (score._add_tiled), which must give the same bits.
    """
    acts = [state]
    h = state
    last = len(params) - 1
    for i, (W, b) in enumerate(params):
        out = None if outs is None else outs[i]
        if i == 0:
            h = np.matmul(h, W[:2], out=out)
            per_item = h.reshape(len(bias), -1, h.shape[1])
            per_item += bias[:, None, :]
        else:
            h = np.matmul(h, W, out=out)
            h += b
        if i < last:
            np.tanh(h, out=h)
        acts.append(h)
    return h, acts
