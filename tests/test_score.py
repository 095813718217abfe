import re
import struct
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from diffenh import sde, score
from diffenh.score import (
    AnalyticGaussianPrior,
    TrainConfig,
    ToyScoreNet,
    dsm_loss_and_grad,
    load_checkpoint,
    make_train_batch,
    save_checkpoint,
    train,
)
from oracles import GmmPrior, batch_terms, broadcast_forward, dsm_loss, gaussian_log_density

SCHED = sde.SdeSchedule()


def fd_score(log_density, s, t, eps=1e-6):
    """Central finite differences of a log-density, halved to match the
    complex score convention (real/imag parts are half-gradients)."""
    out = np.zeros(s.shape, dtype=np.complex128)
    it = np.nditer(s, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        for unit, attr in ((1.0, "real"), (1.0j, "imag")):
            plus = s.copy()
            plus[idx] += eps * unit
            minus = s.copy()
            minus[idx] -= eps * unit
            grad = (log_density(plus, t) - log_density(minus, t)) / (2 * eps)
            out[idx] += unit * grad / 2.0
        it.iternext()
    return out


def test_gaussian_score_matches_finite_differences():
    prior = AnalyticGaussianPrior(mean=0.3 - 0.7j, var0=1.3, sched=SCHED)
    rng = np.random.default_rng(4)
    for t in (0.05, 0.4, 1.0):
        s = prior.sample((3, 4), rng)
        exact = prior.evaluate(s, t)
        approx = fd_score(partial(gaussian_log_density, prior), s, t)
        assert np.linalg.norm(exact - approx) / np.linalg.norm(approx) < 1e-5


def test_gaussian_prior_rejects_negative_variance():
    with pytest.raises(ValueError):
        AnalyticGaussianPrior(mean=0j, var0=-1.0, sched=SCHED)
    # var0 = 0 is allowed, but at t = 0 the perturbed variance is zero too
    point_mass = AnalyticGaussianPrior(mean=0j, var0=0.0, sched=SCHED)
    with pytest.raises(ValueError, match="zero total variance"):
        point_mass.evaluate(np.zeros(3, complex), 0.0)


def test_gmm_score_matches_finite_differences():
    comps = [(0.5, -2.0 + 0j, 0.3), (0.3, 1.5 + 1.0j, 0.5), (0.2, 0.5 - 2.0j, 0.2)]
    prior = GmmPrior(comps, SCHED)
    rng = np.random.default_rng(8)
    for t in (0.05, 0.5, 1.0):
        s = prior.sample((2, 3), rng)
        exact = prior.evaluate(s, t)
        approx = fd_score(prior.log_density, s, t)
        assert np.linalg.norm(exact - approx) / np.linalg.norm(approx) < 1e-5


def test_gmm_validation():
    with pytest.raises(ValueError):
        GmmPrior([], SCHED)
    with pytest.raises(ValueError):
        GmmPrior([(0.7, 0j, 1.0), (0.2, 1j, 1.0)], SCHED)  # weights sum to 0.9


def test_toy_net_shapes_and_param_count():
    net = ToyScoreNet(hidden=(32, 32), seed=0, sched=SCHED)
    # 11 inputs (re, im, t, 4 sin, 4 cos), two hidden tanh layers, 2 outputs
    assert net.sizes == (11, 32, 32, 2)
    assert net.n_params == 11 * 32 + 32 + 32 * 32 + 32 + 32 * 2 + 2
    s = np.zeros((5, 7), complex)
    assert net.evaluate(s, 0.5).shape == (5, 7)
    empty = net.evaluate(np.zeros((0, 7), complex), 0.5)
    assert empty.shape == (0, 7) and empty.dtype == np.complex128


def _feature_matrix_score(net, s, t):
    """The evaluation as first written: one 11-column feature row per point."""
    flat = s.reshape(-1)
    tf = score._time_features(np.full(flat.size, t), net.emb_freqs)
    h = np.concatenate([flat.real[:, None], flat.imag[:, None], tf], axis=1)
    last = len(net.ema_params) - 1
    for i, (W, b) in enumerate(net.ema_params):
        h = h @ W + b
        if i < last:
            h = np.tanh(h)
    m = sde.kernel_moments(t, net.sched).m
    return ((h[:, 0] + 1j * h[:, 1] - flat) / m).reshape(s.shape)


GRIDS = {
    "1": (1,),
    "5x7": (5, 7),
    "5x7 transposed": (7, 5),
    "block-1": (score.EVAL_BLOCK - 1,),
    "block": (score.EVAL_BLOCK,),
    "block+1": (score.EVAL_BLOCK + 1,),
    "256x126": (256, 126),
}


def _net_and_state(grid, hidden, dtype):
    rng = np.random.default_rng(len(hidden))
    net = ToyScoreNet(hidden=hidden, seed=2, dtype=dtype, sched=SCHED)
    # nonzero biases, set after construction as a loaded or trained net has them
    for _, b in net.ema_params:
        b[...] = rng.standard_normal(b.shape)
    shape = GRIDS[grid]
    s = 2.0 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    if grid.endswith("transposed"):
        s = s.T
        assert not s.flags.c_contiguous
    return net, s


HIDDEN = pytest.mark.parametrize("hidden", [(8,), (32, 32)], ids=["1 hidden", "2 hidden"])


@HIDDEN
@pytest.mark.parametrize("grid", GRIDS)
def test_evaluate_matches_feature_matrix_formula(grid, hidden):
    net, s = _net_and_state(grid, hidden, np.float64)
    for t in (SCHED.t_min, 0.5, 1.0):
        got = net.evaluate(s, t)
        assert got.shape == s.shape
        assert np.max(np.abs(got - _feature_matrix_score(net, s, t))) < 1e-12


@HIDDEN
@pytest.mark.parametrize("grid", GRIDS)
def test_float32_net_evaluate_is_close_to_float64_formula(grid, hidden):
    # a float32 net computes its MLP in float32 and only the residual map in
    # float64; measured deviation is ~2.3e-8 of the largest score
    net, s = _net_and_state(grid, hidden, np.float32)
    for t in (SCHED.t_min, 0.5, 1.0):
        got = net.evaluate(s, t)
        ref = _feature_matrix_score(net, s, t)
        assert got.shape == s.shape and got.dtype == np.complex128
        assert np.max(np.abs(got - ref)) <= 1e-6 * np.max(np.abs(ref))


@HIDDEN
@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-15), (np.float32, 1e-6)],
                         ids=["float64", "float32"])
def test_evaluate_is_pointwise_under_permutation(grid, hidden, dtype, tol):
    # an entry's score depends on that entry alone, though not bit for bit: a
    # row's BLAS rounding can depend on where it sits in a block (measured up
    # to 1.2e-16 of the largest score in float64 and 2.0e-8 in float32)
    net, s = _net_and_state(grid, hidden, dtype)
    perm = np.random.default_rng(3).permutation(s.size)
    for t in (SCHED.t_min, 0.5, 1.0):
        got = net.evaluate(s, t).reshape(-1)
        permuted = net.evaluate(s.reshape(-1)[perm].reshape(s.shape), t).reshape(-1)
        assert np.max(np.abs(permuted - got[perm])) <= tol * np.max(np.abs(got))


def _all_float64_blocked_score(net, s, t):
    """evaluate as it ran when every net computed in float64: the weights cast
    to float64 and the network output written straight into the score."""
    params = score._layers(net.ema_theta.astype(np.float64), net.sizes)
    _, bias = net._time_bias(params, float(t))
    m = sde.kernel_moments(float(t), net.sched).m
    state = score._state_rows(s)
    n = len(state)
    out = np.empty(n, dtype=np.complex128)
    rows = out.view(np.float64).reshape(n, 2)
    scratch = [np.empty((min(n, score.EVAL_BLOCK), W.shape[1])) for W, _ in params[:-1]]
    for lo in range(0, n, score.EVAL_BLOCK):
        hi = min(lo + score.EVAL_BLOCK, n)
        u = rows[lo:hi]
        broadcast_forward(params, state[lo:hi], bias, [a[: hi - lo] for a in scratch] + [u])
        u -= state[lo:hi]
        u /= m
    return out.reshape(s.shape)


@HIDDEN
@pytest.mark.parametrize("grid", ["5x7 transposed", "block+1", "256x126"])
def test_float64_net_evaluate_is_bit_identical_to_all_float64_path(grid, hidden):
    net, s = _net_and_state(grid, hidden, np.float64)
    for t in (SCHED.t_min, 0.5, 1.0):
        assert np.array_equal(net.evaluate(s, t), _all_float64_blocked_score(net, s, t))


def _broadcast_bias_score(net, s, t):
    """evaluate in the net's dtype with each bias broadcast as a row over the
    block, as it ran before the biases were tiled."""
    dt = net.dtype
    params = net.ema_params
    bias = net._time_bias(params, float(t))[1].astype(dt, copy=False)
    m = sde.kernel_moments(float(t), net.sched).m
    state = score._state_rows(s)
    n = len(state)
    out = np.empty(n, dtype=np.complex128)
    rows = out.view(np.float64).reshape(n, 2)
    for lo in range(0, n, score.EVAL_BLOCK):
        hi = min(lo + score.EVAL_BLOCK, n)
        u, _ = broadcast_forward(params, state[lo:hi].astype(dt, copy=False), bias)
        np.subtract(u, state[lo:hi], out=rows[lo:hi])
        rows[lo:hi] /= m
    return out.reshape(s.shape)


@HIDDEN
@pytest.mark.parametrize("grid", ["5x7 transposed", "block-1", "block+1", "256x126"])
def test_float32_net_evaluate_is_bit_identical_to_broadcast_bias_pass(grid, hidden):
    # float64 nets are held to the same pass by the all-float64 test above
    net, s = _net_and_state(grid, hidden, np.float32)
    for t in (SCHED.t_min, 0.5, 1.0):
        assert np.array_equal(net.evaluate(s, t), _broadcast_bias_score(net, s, t))


@pytest.mark.parametrize("hidden", [(0,), (32, 0), (8, -1)])
def test_toy_net_rejects_empty_hidden_layers(hidden):
    with pytest.raises(ValueError, match=re.escape(f"got {hidden}")):
        ToyScoreNet(hidden=hidden, sched=SCHED)


def test_toy_net_evaluate_is_deterministic():
    net = ToyScoreNet(seed=5, sched=SCHED)
    s = np.array([[0.3 - 0.2j, 1.0 + 1.0j]])
    a = net.evaluate(s, 0.37)
    b = net.evaluate(s, 0.37)
    assert np.array_equal(a, b)


def test_toy_net_far_field_follows_gaussian_tail():
    # the residual output map guarantees score -> -s/m(t) far from the data
    net = ToyScoreNet(seed=1, sched=SCHED)
    for t in (0.1, 1.0):
        m = sde.kernel_moments(t, net.sched).m
        s = np.array([[200.0 + 150.0j]])
        got = net.evaluate(s, t)
        assert np.abs(got + s / m) / np.abs(s / m) < 0.05


def test_ema_decays_geometrically():
    net = ToyScoreNet(seed=2, sched=SCHED)
    net.ema_theta[:] = 0.0
    n = 50
    for _ in range(n):
        net.update_ema()
    assert np.allclose(net.ema_theta, (1.0 - net.ema_decay**n) * net.theta, rtol=1e-5)


def test_make_train_batch_contract():
    rng = np.random.default_rng(0)
    prior = AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    ds = [prior.sample((4, 20), rng) for _ in range(3)]
    batch = make_train_batch(ds, 8, 5, SCHED, rng)
    assert batch.s0.shape == (8, 4, 5)
    assert np.all(batch.t >= SCHED.t_min) and np.all(batch.t <= 1.0)
    with pytest.raises(ValueError):
        make_train_batch(ds, 2, 64, SCHED, rng)  # patch longer than items
    s0, zeta = batch.s0[:2], batch.zeta[:2]
    with pytest.raises(ValueError, match="empty batch"):
        score.TrainBatch(s0=s0[:0], t=batch.t[:0], zeta=zeta[:0])
    for t, z in ((batch.t[:2], zeta[:, :3]), (batch.t[:3], zeta)):
        with pytest.raises(ValueError, match="batch field shapes disagree"):
            score.TrainBatch(s0=s0, t=t, zeta=z)
    net = ToyScoreNet(hidden=(4,), sched=SCHED)
    for t in (SCHED.t_min / 2, 1.5):
        outside = score.TrainBatch(s0=s0, t=np.array([0.5, t]), zeta=zeta)
        with pytest.raises(ValueError, match=re.escape("training times must lie in [t_min, 1]")):
            dsm_loss_and_grad(net, outside)


def test_dsm_loss_zero_when_oracle_injected():
    class OracleTarget:
        """Returns exactly the regression target of the batch item drawn at t."""

        def __init__(self, batch):
            sig = np.sqrt([sde.kernel_moments(float(t), SCHED).var for t in batch.t])
            self.value = -batch.zeta / sig[:, None, None]
            self.times = [float(t) for t in batch.t]

        def evaluate(self, s_t, t):
            return self.value[self.times.index(t)]

    rng = np.random.default_rng(1)
    prior = AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    ds = [prior.sample((4, 12), rng) for _ in range(4)]
    batch = make_train_batch(ds, 6, 8, SCHED, rng)
    assert dsm_loss(OracleTarget(batch), batch, SCHED) == 0.0


def test_dsm_loss_accepts_analytic_models():
    rng = np.random.default_rng(2)
    prior = AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    ds = [prior.sample((4, 12), rng) for _ in range(4)]
    batch = make_train_batch(ds, 4, 8, SCHED, rng)
    loss = dsm_loss(prior, batch, SCHED)
    assert np.isfinite(loss) and loss > 0.0


def _fd_gradient_error(item_shape, batch_size, patch_frames):
    """Relative error of dsm_loss_and_grad against central differences of
    dsm_loss, over 60 randomly chosen parameters."""
    net = ToyScoreNet(hidden=(16, 16), seed=3, dtype=np.float64, sched=SCHED)
    assert net.n_params <= 1000
    rng = np.random.default_rng(0)
    prior = AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    ds = [prior.sample(item_shape, rng) for _ in range(4)]
    batch = make_train_batch(ds, batch_size, patch_frames, SCHED, rng)

    _, analytic = dsm_loss_and_grad(net, batch)
    base = net.theta.copy()
    eps = 1e-6
    idx = rng.choice(base.size, 60, replace=False)
    fd = np.zeros(len(idx))
    for j, i in enumerate(idx):
        # dsm_loss evaluates the EMA weights, so both vectors move together
        for sgn in (1.0, -1.0):
            net.theta[i] = net.ema_theta[i] = base[i] + sgn * eps
            fd[j] += sgn * dsm_loss(net, batch, SCHED)
        net.theta[i] = net.ema_theta[i] = base[i]
        fd[j] /= 2 * eps
    return np.linalg.norm(analytic[idx] - fd) / np.linalg.norm(fd)


def test_dsm_gradient_matches_finite_differences():
    assert _fd_gradient_error((4, 8), 3, 4) < 1e-4


def test_dsm_gradient_matches_finite_differences_across_blocks():
    # items of 4 x 600 = 2400 points, each split over two blocks
    assert 4 * 600 > score.EVAL_BLOCK
    assert _fd_gradient_error((4, 640), 3, 600) < 1e-4


def test_dsm_loss_perturbs_and_maps_under_the_nets_schedule():
    other = sde.SdeSchedule(gamma=0.5, sigma_max=1.0)
    net = ToyScoreNet(hidden=(4,), seed=1, dtype=np.float64, sched=other)
    batch = _random_batch((3, 4, 4), np.random.default_rng(2))
    loss, _ = dsm_loss_and_grad(net, batch)
    # dsm_loss scores the EMA weights, which equal the live ones before any step
    assert loss == pytest.approx(dsm_loss(net, batch, other), rel=1e-12)
    assert loss != pytest.approx(dsm_loss(net, batch, SCHED), rel=1e-3)


def _unblocked_loss_and_grad(net, batch):
    """The gradient pass as first written: every layer over the whole batch."""
    s_t, target = batch_terms(batch, SCHED)
    b = s_t.shape[0]
    params = score._layers(net.theta.astype(np.float64), net.sizes)
    state = score._state_rows(s_t)
    tf, bias = net._time_bias(params, batch.t)
    out, acts = broadcast_forward(params, state, bias)
    m_items = [sde.kernel_moments(float(t), net.sched).m for t in batch.t]
    m = np.repeat(m_items, len(state) // b)[:, None]
    resid = (out - state) / m - score._state_rows(target)
    d = 2.0 * resid / m / b
    grad = np.zeros(net.n_params)
    grads = score._layers(grad, net.sizes)
    for i in range(len(params) - 1, 0, -1):
        grads[i][0][...], grads[i][1][...] = acts[i].T @ d, d.sum(axis=0)
        d = (d @ params[i][0].T) * (1.0 - acts[i] ** 2)
    per_item = d.reshape(b, -1, d.shape[1]).sum(axis=1)
    W1, b1 = grads[0]
    W1[:2], W1[2:], b1[...] = state.T @ d, tf.T @ per_item, d.sum(axis=0)
    return float(np.sum(resid**2) / b), grad


def _random_batch(shape, rng):
    t = rng.uniform(SCHED.t_min, 1.0, shape[0])
    return score.TrainBatch(s0=sde.complex_randn(shape, rng), t=t, zeta=sde.complex_randn(shape, rng))


# (items, bins, frames); EVAL_BLOCK is 2048 points
BATCHES = {
    "one block": (3, 4, 4),
    "4 items per block": (16, 16, 32),
    "ragged last block": (5, 4, 175),  # 700 points: blocks of 2, 2 and 1 items
    "item = block": (3, 2048, 1),
    "chunked items": (3, 4, 1100),  # 4400 points: chunks of 2048, 2048 and 304
}


def _net_and_batch(shape, hidden, dtype):
    rng = np.random.default_rng(len(hidden))
    net = ToyScoreNet(hidden=hidden, seed=2, dtype=dtype, sched=SCHED)
    # nonzero biases, set after construction as a loaded or trained net has them
    for _, b in net.params:
        b[...] = rng.standard_normal(b.shape)
    return net, _random_batch(BATCHES[shape], rng)


def _assert_gradient_close(net, batch, loss_tol, grad_tol):
    loss, grad = dsm_loss_and_grad(net, batch)
    ref_loss, ref_grad = _unblocked_loss_and_grad(net, batch)
    assert abs(loss - ref_loss) <= loss_tol * ref_loss
    assert grad.shape == net.theta.shape and grad.dtype == np.float64
    # each weight matrix and bias vector on its own
    for pair, ref_pair in zip(score._layers(grad, net.sizes), score._layers(ref_grad, net.sizes)):
        for g, ref in zip(pair, ref_pair):
            assert np.linalg.norm(g - ref) <= grad_tol * np.linalg.norm(ref)


@HIDDEN
@pytest.mark.parametrize("shape", BATCHES)
def test_blocked_gradient_matches_unblocked_formula(shape, hidden):
    net, batch = _net_and_batch(shape, hidden, np.float64)
    _assert_gradient_close(net, batch, 1e-12, 1e-12)


@HIDDEN
@pytest.mark.parametrize("shape", BATCHES)
def test_float32_net_gradient_is_close_to_float64_formula(shape, hidden):
    # a float32 net runs each block's products in float32 and sums them over
    # blocks in float64; measured deviation is at most 1.0e-6 relative for a
    # gradient array and 8.6e-9 for the loss
    net, batch = _net_and_batch(shape, hidden, np.float32)
    _assert_gradient_close(net, batch, 1e-7, 4e-6)


def _all_float64_loss_and_grad(model, batch):
    """dsm_loss_and_grad as it ran when every net trained in float64: the
    weights cast to float64 and the residual computed in the output buffer."""
    delta, sig, m = score._batch_coeffs(batch, model.sched)
    neg_inv_sig = -1.0 / sig
    b = len(batch.t)
    params = score._layers(model.theta.astype(np.float64), model.sizes)
    s0 = score._state_rows(batch.s0)
    zeta = score._state_rows(batch.zeta)
    tf, bias = model._time_bias(params, batch.t)
    n = len(s0) // b
    per_block = min(b, max(1, score.EVAL_BLOCK // n))
    rows = min(per_block * n, score.EVAL_BLOCK)
    acts = [np.empty((rows, W.shape[1])) for W, _ in params]
    deltas = [None] + [np.empty((rows, W.shape[0])) for W, _ in params[1:]]
    grad = np.zeros(model.n_params)
    grads = score._layers(grad, model.sizes)
    state_grad = grads[0][0][:2]
    per_item = np.zeros_like(bias)
    loss = 0.0
    for i in range(0, b, per_block):
        j = min(i + per_block, b)
        scale = m[i:j, None, None]
        for lo in range(i * n, j * n, rows):
            hi = min(lo + rows, j * n)
            z = zeta[lo:hi].reshape(j - i, -1, 2)
            x = delta[i:j, None, None] * s0[lo:hi].reshape(z.shape) + sig[i:j, None, None] * z
            x, target = x.reshape(-1, 2), (neg_inv_sig[i:j, None, None] * z).reshape(-1, 2)
            u, blk = broadcast_forward(params, x, bias[i:j], [buf[: hi - lo] for buf in acts])
            u_items = u.reshape(j - i, -1, 2)
            u -= x
            u_items /= scale
            u -= target
            loss += float(np.vdot(u, u))
            u *= 2.0
            u_items /= scale
            u /= b
            d = u
            for k in range(len(params) - 1, 0, -1):
                a, (gW, gb) = blk[k], grads[k]
                gW += a.T @ d
                gb += d.sum(axis=0)
                d = np.matmul(d, params[k][0].T, out=deltas[k][: hi - lo])
                np.multiply(a, a, out=a)
                np.subtract(1.0, a, out=a)
                d *= a
            state_grad += x.T @ d
            per_item[i:j] += d.reshape(j - i, -1, d.shape[1]).sum(axis=1)
    grads[0][0][2:], grads[0][1][...] = tf.T @ per_item, per_item.sum(axis=0)
    return loss / b, grad


@HIDDEN
@pytest.mark.parametrize("shape", ["4 items per block", "ragged last block", "chunked items"])
def test_float64_net_gradient_is_bit_identical_to_all_float64_pass(shape, hidden):
    net, batch = _net_and_batch(shape, hidden, np.float64)
    loss, grad = dsm_loss_and_grad(net, batch)
    ref_loss, ref_grad = _all_float64_loss_and_grad(net, batch)
    assert loss == ref_loss and np.array_equal(grad, ref_grad)


def _one_block_broadcast_pass(net, batch):
    """dsm_loss_and_grad for a batch that fits one block, in the net's dtype,
    with each bias broadcast as a row over the block, as it ran before the
    biases were tiled."""
    delta, sig, m = score._batch_coeffs(batch, SCHED)
    b = len(batch.t)
    params = net.params
    tf, bias = net._time_bias(params, batch.t)
    s0, zeta = score._state_rows(batch.s0), score._state_rows(batch.zeta)
    n = len(s0) // b
    assert b * n <= score.EVAL_BLOCK

    def per_row(a):
        return np.repeat(a, n)[:, None]

    x = per_row(delta) * s0 + per_row(sig) * zeta
    x_in = x.astype(net.dtype)
    u, acts = broadcast_forward(params, x_in, bias.astype(net.dtype))
    m = per_row(m)
    r = (u - x) / m - per_row(-1.0 / sig) * zeta
    d = (r * 2.0 / m / b).astype(net.dtype)
    grad = np.zeros(net.n_params)
    grads = score._layers(grad, net.sizes)
    for k in range(len(params) - 1, 0, -1):
        grads[k][0][...], grads[k][1][...] = acts[k].T @ d, d.sum(axis=0)
        d = (d @ params[k][0].T) * (1.0 - acts[k] * acts[k])
    per_item = d.reshape(b, -1, d.shape[1]).sum(axis=1).astype(np.float64)
    W1, b1 = grads[0]
    W1[:2], W1[2:], b1[...] = x_in.T @ d, tf.T @ per_item, per_item.sum(axis=0)
    return float(np.vdot(r, r)) / b, grad


@HIDDEN
def test_float32_net_gradient_is_bit_identical_to_broadcast_bias_pass(hidden):
    # float64 nets are held to the same pass, over several blocks, by the
    # all-float64 test above
    net, batch = _net_and_batch("one block", hidden, np.float32)
    loss, grad = dsm_loss_and_grad(net, batch)
    ref_loss, ref_grad = _one_block_broadcast_pass(net, batch)
    assert loss == ref_loss and np.array_equal(grad, ref_grad)


def _train_fixture(dtype):
    rng = np.random.default_rng(6)
    prior = AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    ds = [prior.sample((4, 32), rng) for _ in range(8)]
    net = ToyScoreNet(hidden=(16, 16), seed=7, dtype=dtype, sched=SCHED)
    return net, ds


def _record_gradients(monkeypatch) -> list:
    """The list that score.train's gradients are appended to, one per step."""
    seen = []

    def recording(model, batch):
        loss, grad = dsm_loss_and_grad(model, batch)
        seen.append(grad)
        return loss, grad

    monkeypatch.setattr(score, "dsm_loss_and_grad", recording)
    return seen


def _adam_replay(theta, grads, rates):
    """Adam from theta over recorded gradients at per-step rates, with float64
    moments and each step rounded to theta's dtype."""
    b1, b2 = 0.9, 0.999
    m, v = np.zeros(theta.shape), np.zeros(theta.shape)
    for step, (g, lr) in enumerate(zip(grads, rates), 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g**2
        theta = (theta - lr * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + 1e-8)
                 ).astype(theta.dtype)
    return theta


def test_float64_net_trains_bit_identically_to_all_float64_pass(monkeypatch):
    cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=2, steps_per_epoch=100,
                      patch_frames=16, lr_decay="cosine", seed=0)
    net, ds = _train_fixture(np.float64)
    _, hist = train(net, ds, cfg, SCHED)
    ref, _ = _train_fixture(np.float64)
    monkeypatch.setattr(score, "dsm_loss_and_grad", _all_float64_loss_and_grad)
    _, ref_hist = train(ref, ds, cfg, SCHED)
    assert net.step == 200 and hist == ref_hist
    for got, want in ((net.theta, ref.theta), (net.ema_theta, ref.ema_theta)):
        assert got.dtype == np.float64 and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["float32", "float64"])
def test_train_keeps_parameter_dtypes_and_float64_adam_state(dtype, monkeypatch):
    # the gradients are float64 whatever the net's dtype; the Adam moments
    # built from them stay float64, and only the updated weights are cast
    cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=10, steps_per_epoch=5, patch_frames=16,
                      lr_decay="constant", seed=0)
    net, ds = _train_fixture(dtype)
    theta = net.theta.copy()
    seen = _record_gradients(monkeypatch)
    train(net, ds, cfg, SCHED)
    assert all(g.dtype == np.float64 for g in seen)
    assert net.theta.dtype == net.ema_theta.dtype == dtype
    assert np.array_equal(_adam_replay(theta, seen, [cfg.lr] * len(seen)), net.theta)


@pytest.mark.parametrize("rates", [(1.0,), (1.0, 0.5)], ids=["one_step", "two_steps"])
def test_cosine_schedule_rates_start_at_lr(rates, monkeypatch):
    # step k of n runs at lr * (1 + cos(pi (k - 1) / n)) / 2: the first at lr
    # and none at 0, so even a one-step run moves the live weights
    cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=1, steps_per_epoch=len(rates),
                      patch_frames=16, lr_decay="cosine", seed=0)
    net, ds = _train_fixture(np.float64)
    theta = net.theta.copy()
    seen = _record_gradients(monkeypatch)
    train(net, ds, cfg, SCHED)
    assert not np.array_equal(net.theta, theta)
    assert np.array_equal(_adam_replay(theta, seen, [r * cfg.lr for r in rates]), net.theta)


def test_gradient_pass_peak_memory_at_256_frame_patches():
    # 16 patches of 256 frames on the CLI's 256-bin grid: a pass holding every
    # layer for all 1,048,576 points at once peaks near 1.6 GB; a blocked one
    # holds one block of states, targets, activations and deltas (about 2 MiB).
    net = ToyScoreNet(sched=SCHED)
    batch = _random_batch((16, 256, 256), np.random.default_rng(0))
    tracemalloc.start()
    try:
        dsm_loss_and_grad(net, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_gradient_pass_holds_no_batch_sized_array():
    # the perturbed state and the target are formed block by block, so one
    # call's peak stays below the size of one batch-shaped complex128 array
    net = ToyScoreNet(sched=SCHED)
    batch = _random_batch((4, 256, 256), np.random.default_rng(0))
    tracemalloc.start()
    try:
        dsm_loss_and_grad(net, batch)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < batch.s0.nbytes


def test_train_zero_epochs_leaves_parameters():
    net = ToyScoreNet(seed=4, sched=SCHED)
    before = net.theta.copy()
    rng = np.random.default_rng(0)
    prior = AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    ds = [prior.sample((4, 12), rng) for _ in range(2)]
    _, hist = train(net, ds, TrainConfig(epochs=0, patch_frames=8), SCHED)
    assert hist == [] and np.array_equal(net.theta, before)


def test_train_rejects_empty_dataset():
    with pytest.raises(ValueError):
        train(ToyScoreNet(sched=SCHED), [], TrainConfig(), SCHED)
    with pytest.raises(ValueError, match="frequency bin"):
        train(ToyScoreNet(sched=SCHED), [np.zeros((0, 16), complex)], TrainConfig(patch_frames=8),
              SCHED)


def test_train_refuses_non_finite_ema_weights():
    net = ToyScoreNet(hidden=(4,), seed=4, sched=SCHED)
    net.ema_theta[0] = np.inf  # the live weights stay finite
    rng = np.random.default_rng(0)
    prior = AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    ds = [prior.sample((4, 12), rng) for _ in range(2)]
    with pytest.raises(FloatingPointError, match="non-finite weights"):
        train(net, ds, TrainConfig(lr=1e-4, batch_size=2, epochs=10, steps_per_epoch=1,
                                   patch_frames=8, lr_decay="constant"), SCHED)


def test_train_smoke():
    rng = np.random.default_rng(6)
    prior = AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    ds = [prior.sample((4, 32), rng) for _ in range(8)]
    net = ToyScoreNet(hidden=(16, 16), seed=7, sched=SCHED)
    cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=2, steps_per_epoch=40,
                      patch_frames=16, lr_decay="cosine", seed=0)
    _, hist = train(net, ds, cfg, SCHED)
    assert len(hist) == 2 and all(np.isfinite(h) for h in hist)
    assert net.step == 80
    # even this short a run should pull the live weights toward the analytic
    # score (the EMA view lags far behind at 80 steps, so probe live weights)
    net.ema_theta[:] = net.theta
    pts = prior.sample((200,), rng)
    t = 0.5
    got = net.evaluate(pts, t)
    want = prior.evaluate(pts, t)
    assert np.linalg.norm(got - want) / np.linalg.norm(want) < 0.5


def test_resumed_training_takes_a_fresh_first_adam_step():
    # Adam's moments start at zero in every train call, so one step from the
    # same weights must not depend on how many steps the model took before
    rng = np.random.default_rng(2)
    prior = AnalyticGaussianPrior(mean=0j, var0=1.0, sched=SCHED)
    ds = [prior.sample((4, 16), rng) for _ in range(2)]
    cfg = TrainConfig(lr=1e-3, batch_size=2, epochs=1, steps_per_epoch=1, patch_frames=8,
                      lr_decay="constant")
    fresh = ToyScoreNet(hidden=(8,), seed=3, sched=SCHED)
    resumed = ToyScoreNet(hidden=(8,), seed=3, sched=SCHED)
    resumed.step = 1000
    train(fresh, ds, cfg, SCHED)
    train(resumed, ds, cfg, SCHED)
    assert (fresh.step, resumed.step) == (1, 1001)
    assert np.array_equal(fresh.theta, resumed.theta)


def test_train_config_validation():
    with pytest.raises(ValueError, match=r"lr must be finite and > 0, got 0.0"):
        TrainConfig(lr=0.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"lr must be finite and > 0, got {bad}"):
            TrainConfig(lr=bad)
    with pytest.raises(ValueError, match="batch_size must be >= 1, got 0"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="patch_frames must be >= 1, got 0"):
        TrainConfig(patch_frames=0)
    with pytest.raises(ValueError, match="unknown lr_decay 'linear'"):
        TrainConfig(lr_decay="linear")


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    net = ToyScoreNet(seed=9, sched=SCHED)
    net.step = 1234
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, SCHED, path)
    back, sched2 = load_checkpoint(path)
    assert sched2 == SCHED
    assert back.step == 1234
    probe = np.array([[0.4 - 1.2j, 2.0 + 0.1j]])
    for t in (0.05, 0.5, 1.0):
        assert np.array_equal(back.evaluate(probe, t), net.evaluate(probe, t))


def test_loading_a_checkpoint_draws_no_random_weights(tmp_path):
    # the loader reads every weight, so it builds the net without the draw of
    # __init__, whose first use of numpy.random would import it in a fresh process
    path = tmp_path / "model.ckpt"
    save_checkpoint(ToyScoreNet(seed=3, sched=SCHED), SCHED, path)
    code = ("import sys, diffenh; diffenh.load_checkpoint(sys.argv[1]); "
            "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_checkpoint_stores_schedule_fields(tmp_path):
    custom = sde.SdeSchedule(gamma=2.0, sigma_min=0.01, sigma_max=0.9, t_min=0.05)
    net = ToyScoreNet(seed=0, sched=custom)
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, custom, path)
    _, sched2 = load_checkpoint(path)
    assert (sched2.gamma, sched2.sigma_min, sched2.sigma_max, sched2.t_min) == (
        2.0, 0.01, 0.9, 0.05,
    )


def test_checkpoint_keeps_its_stored_time_frequencies(tmp_path):
    # a new net embeds time at DEFAULT_EMB_FREQS; a loaded one at the frequencies its file holds
    net = ToyScoreNet(seed=0, sched=SCHED)
    assert np.array_equal(net.emb_freqs, score.DEFAULT_EMB_FREQS)
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, SCHED, path)
    blob = bytearray(path.read_bytes())
    # magic, version, schedule (48), the sizes after their count, then the frequencies' count
    at = 48 + 4 + 4 * len(net.sizes) + 4
    freqs = (0.25, 3.0, 5.0, 7.5)
    struct.pack_into(f"<{len(freqs)}d", blob, at, *freqs)
    path.write_bytes(bytes(blob))
    back, _ = load_checkpoint(path)
    assert back.emb_freqs.tolist() == list(freqs)
    probe = np.array([[0.4 - 1.2j, 2.0 + 0.1j]])
    assert not np.array_equal(back.evaluate(probe, 0.5), net.evaluate(probe, 0.5))


def test_checkpoint_rejects_corruption(tmp_path):
    net = ToyScoreNet(seed=0, sched=SCHED)
    path = tmp_path / "model.ckpt"
    save_checkpoint(net, SCHED, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "magic.ckpt"
    bad_magic.write_bytes(b"WRONGMAG" + blob[8:])
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(bad_magic)

    bad_version = tmp_path / "ver.ckpt"
    bad_version.write_bytes(blob[:8] + (99).to_bytes(4, "little") + blob[12:])
    with pytest.raises(ValueError, match="version"):
        load_checkpoint(bad_version)

    cut = tmp_path / "cut.ckpt"
    cut.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(ValueError, match="truncated"):
        load_checkpoint(cut)

    padded = tmp_path / "pad.ckpt"
    padded.write_bytes(blob + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(padded)

    # a file shorter than the magic is a cut checkpoint; a longer one is tested for it
    for content, message in ((blob[:5], "truncated checkpoint"),
                             (bytes(range(100)), "bad magic bytes")):
        other = tmp_path / "other.bin"
        other.write_bytes(content)
        with pytest.raises(ValueError, match=f"{re.escape(str(other))}: {message}"):
            load_checkpoint(other)

    # a hidden width of 0 breaks the architecture rule before a net is built
    no_width = tmp_path / "width0.ckpt"
    no_width.write_bytes(blob[:56] + bytes(4) + blob[60:])
    with pytest.raises(ValueError, match="inconsistent architecture descriptor"):
        load_checkpoint(no_width)

    # magic, version, schedule (48), then the sizes and the frequencies after their counts
    at = 48 + 4 + 4 * len(net.sizes) + 4 + 8 * len(net.emb_freqs)
    assert struct.unpack_from("<d", blob, at) == (net.ema_decay,)
    for decay in (2.0, -0.5, np.nan):
        bad_decay = tmp_path / "decay.ckpt"
        bad_decay.write_bytes(blob[:at] + struct.pack("<d", decay) + blob[at + 8 :])
        with pytest.raises(ValueError, match=f"EMA decay {decay} outside"):
            load_checkpoint(bad_decay)


def test_checkpoint_round_trip_reproduces_the_benchmark_prior(tmp_path):
    prior = Path(__file__).resolve().parents[1] / "benchmarks" / "prior.ckpt"
    out = tmp_path / "prior.ckpt"
    save_checkpoint(*load_checkpoint(prior), out)
    assert out.read_bytes() == prior.read_bytes()
