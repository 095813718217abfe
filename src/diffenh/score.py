"""Score models: an analytic Gaussian prior and a small trainable network.

A score model is any object with evaluate(s_t, t), which returns the score
estimate at time t for the state s_t as an array of the same shape.  All
scores use one convention: a score is a complex array whose real and
imaginary parts are the half-gradients of the log-density with respect to the
real and imaginary parts of the state, so that for a complex Gaussian with
per-entry variance v the score is (mean - s) / v.  Finite-difference checks
against full real-pair gradients must therefore halve the differences.
"""

from __future__ import annotations

import math
import struct
from dataclasses import astuple, dataclass

import numpy as np

from .sde import SdeSchedule, complex_randn, kernel_moments

CHECKPOINT_MAGIC = b"DIFFENHC"
CHECKPOINT_VERSION = 1

DEFAULT_HIDDEN = (32, 32)
DEFAULT_EMB_FREQS = (0.5, 1.0, 2.0, 4.0)

# grid points pushed through the net at a time (_blocks), in the net's dtype;
# each block's activations, and in training its deltas (EVAL_BLOCK x width,
# 256 KB at width 32 in float32 and 512 KB in float64), stay in the per-core
# L2 cache instead of streaming full-grid layers through memory
EVAL_BLOCK = 2048

# rows of a bias tile: added down a block as a (rows / BIAS_ROWS, BIAS_ROWS,
# width) view, a tile this long is about as fast as one the block's length
# (10.5 against 9.4 us per 2048 x 32 float32 add, and 27 us for a broadcast
# row) and holds a quarter of its memory on each thread that evaluates
BIAS_ROWS = 512


# ---------------------------------------------------------------------------
# analytic prior


@dataclass
class AnalyticGaussianPrior:
    """Complex Gaussian prior with known mean and per-entry variance.

    The perturbed marginal at time t is Gaussian with mean delta_t * mu and
    per-entry variance delta_t^2 * var0 + sigma(t)^2, so the score is exact.
    """

    mean: np.ndarray
    var0: np.ndarray | float
    sched: SdeSchedule

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.complex128)
        if np.any(np.asarray(self.var0) < 0):
            raise ValueError("var0 must be nonnegative")

    def marginal(self, t: float):
        mom = kernel_moments(t, self.sched)
        return mom.delta * self.mean, mom.delta**2 * np.asarray(self.var0) + mom.var

    def evaluate(self, s_t: np.ndarray, t: float) -> np.ndarray:
        mu, var = self.marginal(t)
        if np.any(var <= 0):
            raise ValueError("AnalyticGaussianPrior: zero total variance (t=0 with var0=0)")
        return (mu - s_t) / var

    def sample(self, shape, rng: np.random.Generator) -> np.ndarray:
        mu = np.broadcast_to(self.mean, shape)
        return mu + np.sqrt(np.asarray(self.var0)) * complex_randn(shape, rng)


# ---------------------------------------------------------------------------
# trainable network


def _time_features(t: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """Raw t plus sinusoidal features.  Sub-integer base frequency keeps the
    embedding injective on [0, 1]; with integer-only frequencies t=0 and t=1
    would collide."""
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    ang = 2.0 * np.pi * np.outer(t, freqs)
    return np.concatenate([t[:, None], np.sin(ang), np.cos(ang)], axis=1)


def _layer_sizes(hidden, n_freqs) -> tuple:
    """The architecture rule: the input (re, im, t and a sine and a cosine per
    embedding frequency), the hidden widths, then the output (re, im)."""
    return (3 + 2 * n_freqs,) + tuple(hidden) + (2,)


def _n_weights(sizes) -> int:
    """Weights and biases of a net of these layer sizes, sum of (a + 1) * b."""
    return sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))


def _layers(vec: np.ndarray, sizes) -> list:
    """Per-layer (W, b) views of a flat weight vector in checkpoint order:
    for each layer, W row-major and then b."""
    views, off = [], 0
    for a, b in zip(sizes[:-1], sizes[1:]):
        views.append((vec[off : off + a * b].reshape(a, b), vec[off + a * b : off + a * b + b]))
        off += a * b + b
    return views


def _add_tiled(h: np.ndarray, tile: np.ndarray) -> None:
    """h += tile repeated down the rows of h; when len(tile) does not divide
    len(h), the last rows take the leading rows of tile."""
    whole = len(h) - len(h) % len(tile)
    runs = h[:whole].reshape(-1, *tile.shape)
    runs += tile
    h[whole:] += tile[: len(h) - whole]


def _blocks(params, bias, n, dt):
    """The one walk of the net over its points: len(bias) items of n points
    each, item k in rows k * n to (k + 1) * n - 1 with first-layer time bias
    bias[k].

    A block holds EVAL_BLOCK // n whole items (the last block the rest), or a
    chunk of one item of more than EVAL_BLOCK points.  Each block yields (i,
    j, lo, hi, biases, outs): items i to j - 1 and rows lo to hi - 1, then
    _forward's bias tiles in dt and its (hi - lo, width) buffers, which every
    block reuses.  The hidden biases are tiled once per walk and the time
    biases once per block of whole items; one item's time bias, chunked or
    not, is a tile of at most BIAS_ROWS rows.
    """
    if n == 0:
        return
    items = len(bias)
    per_block = min(items, max(1, EVAL_BLOCK // n))
    rows = min(per_block * n, EVAL_BLOCK)
    tile = min(rows, BIAS_ROWS)
    outs = [np.empty((rows, W.shape[1]), dt) for W, _ in params]
    time_rows = np.empty((rows if per_block > 1 else tile, bias.shape[1]), dt)
    biases = [time_rows] + [np.tile(b, (tile, 1)) for _, b in params[1:]]
    for i in range(0, items, per_block):
        j = min(i + per_block, items)
        filled = time_rows[: min((j - i) * n, len(time_rows))]
        filled.reshape(j - i, -1, filled.shape[1])[...] = bias[i:j, None, :]
        for lo in range(i * n, j * n, rows):
            hi = min(lo + rows, j * n)
            yield i, j, lo, hi, biases, [a[: hi - lo] for a in outs]


def _state_rows(s: np.ndarray) -> np.ndarray:
    """s as (n, 2) float64 (re, im) rows in C order; a view of s itself when
    it is already a C-contiguous complex128 array."""
    return np.ascontiguousarray(s, dtype=np.complex128).reshape(-1).view(np.float64).reshape(-1, 2)


class ToyScoreNet:
    """Pointwise MLP scorer: (re, im, time embedding) -> (score re, score im).

    The network output u is mapped to the score as (u - s) / m(t), where
    m(t) = delta_t^2 + sigma(t)^2 is the perturbed marginal variance of a
    unit-variance prior (sde.KernelMoments.m under the net's sched).  A raw
    MLP saturates outside the training radius and stops pulling large states
    back; this residual form keeps the exact Gaussian tail score -s/m(t) at
    any radius (the ideal u for unit Gaussian data is simply zero).

    The first layer sees (re, im) through W1[:2] and the time embedding
    through W1[2:].  The time part depends on t alone, so it is computed once
    per distinct t as a first-layer bias, _time_features(t) @ W1[2:] + b1
    (FiLM-style conditioning), instead of once per grid point.  evaluate()
    (EMA weights, one t) and dsm_loss_and_grad() (live weights, one t per
    item) both run this forward pass over the blocks of _blocks.

    dtype is the compute dtype of evaluate and of the training pass: a loaded
    checkpoint or a default net (float32) runs its weights, time bias, input
    rows, activations and back-propagated deltas in float32, and a float64
    net, as the finite-difference tests build, in float64.  The residual map
    (u - s) / m(t) is always float64, so float32 rounding of u is never
    amplified by a small m(t); so are the training loss and the gradient
    sums over blocks.

    The live and EMA weights are two flat vectors in dtype, theta and
    ema_theta, in checkpoint order (per layer, W row-major and then b), so a
    float32 checkpoint round-trips bit-exactly.  params and ema_params are
    their per-layer (W, b) views; writing a view writes the vector.
    """

    def __init__(self, hidden=DEFAULT_HIDDEN, seed=0, dtype=np.float32, sched=None):
        self._set_shape(hidden, DEFAULT_EMB_FREQS, dtype, sched)
        rng = np.random.default_rng(seed)
        self.theta = np.zeros(_n_weights(self.sizes), dtype)
        for W, _ in self.params:
            W[...] = rng.standard_normal(W.shape) / math.sqrt(W.shape[0])
        self.ema_theta = self.theta.copy()

    def _set_shape(self, hidden, emb_freqs, dtype, sched):
        """Everything but the weights, which __init__ draws and load_checkpoint reads."""
        if any(w < 1 for w in hidden):
            raise ValueError(f"hidden widths must be at least 1, got {tuple(hidden)}")
        self.emb_freqs = np.asarray(emb_freqs, dtype=np.float64)
        self.sched = sched if sched is not None else SdeSchedule()
        self.sizes = _layer_sizes(hidden, len(self.emb_freqs))
        self.ema_decay = 0.999
        self.dtype = np.dtype(dtype)
        self.step = 0

    @property
    def params(self) -> list:
        return _layers(self.theta, self.sizes)

    @property
    def ema_params(self) -> list:
        return _layers(self.ema_theta, self.sizes)

    @property
    def n_params(self) -> int:
        return self.theta.size

    def _time_bias(self, params, t) -> tuple[np.ndarray, np.ndarray]:
        """Time features of each t and the first-layer bias they give,
        shapes (len(t), in_dim - 2) and (len(t), width of layer 1)."""
        W, b = params[0]
        tf = _time_features(t, self.emb_freqs)
        return tf, tf @ W[2:] + b

    @staticmethod
    def _forward(params, state, biases, outs):
        """Network output for (n, 2) (re, im) rows in the dtype of params,
        computed into outs, one (n, width) array of that dtype per layer.

        biases holds one tile per layer in that dtype, added down the rows
        after its product (_add_tiled): the first layer's time bias of each
        row's item, then each later layer's b; adding a tile is cheaper than
        broadcasting one row over the rows.  Returns the output and the
        activations [state, h1, ..., output] for backprop.
        """
        h = state
        for i, ((W, _), bias, out) in enumerate(zip(params, biases, outs)):
            h = np.matmul(h, W[:2] if i == 0 else W, out=out)
            _add_tiled(h, bias)
            if i < len(params) - 1:
                np.tanh(h, out=h)
        return h, [state, *outs]

    def evaluate(self, s_t: np.ndarray, t: float) -> np.ndarray:
        params = self.ema_params
        bias = self._time_bias(params, float(t))[1]
        m = kernel_moments(float(t), self.sched).m
        state = _state_rows(s_t)
        score = np.empty(len(state), dtype=np.complex128)
        rows = score.view(np.float64).reshape(-1, 2)
        for _, _, lo, hi, biases, outs in _blocks(params, bias, len(state), self.dtype):
            x = state[lo:hi]
            u, _ = self._forward(params, x.astype(self.dtype, copy=False), biases, outs)
            # the residual map in float64: float32 rounding of u is not divided by m
            np.subtract(u, x, out=rows[lo:hi])
            rows[lo:hi] /= m
        return score.reshape(s_t.shape)

    def update_ema(self):
        d = self.ema_decay
        self.ema_theta[...] = d * self.ema_theta + (1 - d) * self.theta


# ---------------------------------------------------------------------------
# objective and training


@dataclass
class TrainBatch:
    """Clean patches with per-item time draws and perturbation noise."""

    s0: np.ndarray  # (B, F, P) complex
    t: np.ndarray  # (B,)
    zeta: np.ndarray  # (B, F, P) complex

    def __post_init__(self):
        if self.s0.shape[0] == 0:
            raise ValueError("empty batch")
        if self.s0.shape != self.zeta.shape or len(self.t) != self.s0.shape[0]:
            raise ValueError("batch field shapes disagree")


def make_train_batch(
    dataset: list, batch_size: int, patch_frames: int, sched: SdeSchedule, rng: np.random.Generator
) -> TrainBatch:
    """Random items, random patch starts, t uniform on [t_min, 1]."""
    items = []
    for _ in range(batch_size):
        spec = dataset[rng.integers(0, len(dataset))]
        if spec.shape[1] < patch_frames:
            raise ValueError(f"item has {spec.shape[1]} frames, patch needs {patch_frames}")
        start = rng.integers(0, spec.shape[1] - patch_frames + 1)
        items.append(spec[:, start : start + patch_frames])
    s0 = np.stack(items)
    t = rng.uniform(sched.t_min, 1.0, batch_size)
    return TrainBatch(s0=s0, t=t, zeta=complex_randn(s0.shape, rng))


def _batch_coeffs(batch: TrainBatch, sched: SdeSchedule):
    """Per-item delta_t, sigma(t) and m(t): the perturbed state is
    delta_t * s0 + sigma(t) * zeta, the target is -zeta / sigma(t), and the
    net's residual map divides by m(t)."""
    if np.any(batch.t < sched.t_min) or np.any(batch.t > 1.0):
        raise ValueError("training times must lie in [t_min, 1]")
    moments = [kernel_moments(float(tt), sched) for tt in batch.t]
    return (np.array([mom.delta for mom in moments]), np.sqrt([mom.var for mom in moments]),
            np.array([mom.m for mom in moments]))


def dsm_loss_and_grad(model: ToyScoreNet, batch: TrainBatch):
    """Loss and its exact gradient with respect to the live weights, a
    float64 vector laid out like model.theta.  The perturbation and the
    residual map both follow model.sched.

    Walks the batch's items in the blocks of _blocks, forming each block's
    perturbed state and target there, so no batch-sized copy of either is
    ever built.  Each block computes in model.dtype, as evaluate does: the
    weights, time bias, input rows, activations, back-propagated deltas and
    the block's own gradient products and column sums.  The perturbed state,
    the target, the residual map (u - s) / m(t) and the loss are float64, and
    the block products are added in place into the float64 grad; the time
    rows' gradient is summed per item and mapped through the time features
    once at the end.  A float64 net computes everything in float64.
    """
    delta, sig, m = _batch_coeffs(batch, model.sched)
    # numpy divides a complex array by a real one as a product with the
    # reciprocal, so the target rows below equal -zeta / sigma bit for bit
    neg_inv_sig = -1.0 / sig
    b = len(batch.t)
    dt = model.dtype
    params = model.params
    s0 = _state_rows(batch.s0)
    zeta = _state_rows(batch.zeta)
    tf, bias = model._time_bias(params, batch.t)
    # a block's residual and deltas, in place; no block has more rows than this
    rows = min(len(s0), EVAL_BLOCK)
    resid = np.empty((rows, 2))
    deltas = [None] + [np.empty((rows, W.shape[0]), dt) for W, _ in params[1:]]
    grad = np.zeros(model.n_params)
    grads = _layers(grad, model.sizes)
    state_grad = grads[0][0][:2]
    per_item = np.zeros(bias.shape)
    loss = 0.0
    for i, j, lo, hi, biases, outs in _blocks(params, bias, len(s0) // b, dt):
        scale = m[i:j, None, None]
        z = zeta[lo:hi].reshape(j - i, -1, 2)
        x = delta[i:j, None, None] * s0[lo:hi].reshape(z.shape) + sig[i:j, None, None] * z
        x, target = x.reshape(-1, 2), (neg_inv_sig[i:j, None, None] * z).reshape(-1, 2)
        x_in = x.astype(dt, copy=False)
        u, acts = model._forward(params, x_in, biases, outs)
        # residual (u - s) / m - target, then its delta 2 * resid / m / b
        r = np.subtract(u, x, out=resid[: hi - lo])
        r_items = r.reshape(j - i, -1, 2)
        r_items /= scale
        r -= target
        loss += float(np.vdot(r, r))
        r *= 2.0
        r_items /= scale
        r /= b
        d = r.astype(dt, copy=False)
        for k in range(len(params) - 1, 0, -1):
            a, (gW, gb) = acts[k], grads[k]
            gW += a.T @ d
            gb += d.sum(axis=0)
            d = np.matmul(d, params[k][0].T, out=deltas[k][: hi - lo])
            # d *= 1 - a**2, through a, which no later step reads
            np.multiply(a, a, out=a)
            np.subtract(1.0, a, out=a)
            d *= a
        # first layer: the state rows here, the time rows once at the end
        state_grad += x_in.T @ d
        per_item[i:j] += d.reshape(j - i, -1, d.shape[1]).sum(axis=1)
    gW, gb = grads[0]
    gW[2:] = tf.T @ per_item
    gb[...] = per_item.sum(axis=0)
    return loss / b, grad


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 16
    epochs: int = 10
    steps_per_epoch: int = 100
    patch_frames: int = 256
    lr_decay: str = "constant"  # or "cosine"
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        lows = {"batch_size": 1, "epochs": 0, "steps_per_epoch": 1, "patch_frames": 1}
        for name, low in lows.items():
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if self.lr_decay not in ("constant", "cosine"):
            raise ValueError(f"unknown lr_decay {self.lr_decay!r}")


def train(model: ToyScoreNet, dataset: list, cfg: TrainConfig, sched: SdeSchedule):
    """Adam on the denoising objective with an EMA of the weights.

    Mutates and returns the model; returns (model, per-epoch mean losses).
    Raises FloatingPointError if the loss or, after the last step, the live
    or EMA weights go non-finite; numpy's overflow warnings are silenced,
    since that error reports the divergence.
    """
    if not dataset:
        raise ValueError("train: empty dataset")
    if any(spec.shape[0] < 1 for spec in dataset):
        raise ValueError("train: dataset items need at least one frequency bin")
    model.sched = sched  # dsm_loss_and_grad perturbs and maps the output under model.sched
    rng = np.random.default_rng(cfg.seed)
    # Adam moments, laid out like theta
    m = np.zeros(model.n_params)
    v = np.zeros(model.n_params)
    b1, b2, eps = 0.9, 0.999, 1e-8
    total = cfg.epochs * cfg.steps_per_epoch
    history = []
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(cfg.epochs):
            acc = 0.0
            for _ in range(cfg.steps_per_epoch):
                batch = make_train_batch(dataset, cfg.batch_size, cfg.patch_frames, sched, rng)
                loss, grad = dsm_loss_and_grad(model, batch)
                if not math.isfinite(loss):
                    raise FloatingPointError(f"training diverged at step {model.step}: loss={loss}")
                acc += loss
                done += 1
                if cfg.lr_decay == "cosine":
                    lr = cfg.lr * 0.5 * (1.0 + math.cos(math.pi * done / total))
                else:
                    lr = cfg.lr
                model.step += 1
                m = b1 * m + (1 - b1) * grad
                v = b2 * v + (1 - b2) * grad**2
                # the moments restart at zero in every call, so their bias
                # correction counts this call's steps, not model.step; the step
                # is float64, rounded once to the net's dtype by the subtraction
                model.theta -= lr * (m / (1 - b1**done)) / (np.sqrt(v / (1 - b2**done)) + eps)
                model.update_ema()
            history.append(acc / cfg.steps_per_epoch)
    if not (np.isfinite(model.theta).all() and np.isfinite(model.ema_theta).all()):
        raise FloatingPointError(f"training diverged at step {model.step}: non-finite weights")
    return model, history


# ---------------------------------------------------------------------------
# checkpoints, little-endian: _HEAD, the layer sizes (uint32) and the embedding frequencies
# (float64) each after a _COUNT, _TAIL, then the live and the EMA weights each a _BLOB_COUNT
_HEAD = struct.Struct("<8sIddddI")  # magic, version, schedule, g(t) code 0: led by sigma_min
_COUNT = struct.Struct("<I")
_TAIL = struct.Struct("<dQ")  # EMA decay, step
_BLOB_COUNT = struct.Struct("<Q")  # n, then n float32


def save_checkpoint(model: ToyScoreNet, sched: SdeSchedule, path):
    """Write the model and its schedule as a checkpoint, the weights in float32."""
    with open(path, "wb") as fh:
        fh.write(_HEAD.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, *astuple(sched), 0))
        for values, code in ((model.sizes, "I"), (model.emb_freqs, "d")):
            fh.write(_COUNT.pack(len(values)) + struct.pack(f"<{len(values)}{code}", *values))
        fh.write(_TAIL.pack(model.ema_decay, model.step))
        for vec in (model.theta, model.ema_theta):
            fh.write(_BLOB_COUNT.pack(vec.size) + vec.astype("<f4").tobytes())


def load_checkpoint(path):
    """(model, schedule) from a checkpoint; a malformed one is a ValueError naming it."""
    with open(path, "rb") as fh:
        data = fh.read(len(CHECKPOINT_MAGIC))
        if len(data) == len(CHECKPOINT_MAGIC) and data != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad magic bytes, not a checkpoint")
        data += fh.read()
    try:
        _, version, *schedule, g_code = _HEAD.unpack_from(data)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        if g_code != 0:
            raise ValueError(f"{path}: unknown diffusion-coefficient code {g_code}, expected 0")
        arrays, off = [], _HEAD.size
        for code in "Id":
            fmt = struct.Struct(f"<{_COUNT.unpack_from(data, off)[0]}{code}")
            arrays.append(fmt.unpack_from(data, off + _COUNT.size))
            off += _COUNT.size + fmt.size
        (sizes, freqs), (ema_decay, step) = arrays, _TAIL.unpack_from(data, off)
    except struct.error:  # a count that asks for more bytes than the file holds
        raise ValueError(f"{path}: truncated checkpoint") from None
    try:
        sched = SdeSchedule(*schedule)
    except ValueError as exc:
        raise ValueError(f"{path}: bad noise schedule: {exc}") from None
    if sizes != _layer_sizes(sizes[1:-1], len(freqs)) or 0 in sizes:
        raise ValueError(f"{path}: inconsistent architecture descriptor {sizes}")
    if not 0.0 <= ema_decay <= 1.0:
        raise ValueError(f"{path}: EMA decay {ema_decay} outside [0, 1]")
    n = _n_weights(sizes)
    blob, left = _BLOB_COUNT.size + 4 * n, len(data) - off - _TAIL.size
    if left != 2 * blob:
        raise ValueError(f"{path}: truncated checkpoint" if left < 2 * blob
                         else f"{path}: trailing bytes after checkpoint payload")
    starts = (len(data) - 2 * blob, len(data) - blob)
    for (count,) in (_BLOB_COUNT.unpack_from(data, at) for at in starts):
        if count != n:
            raise ValueError(f"{path}: parameter blob size {count} != {n}")
    weights = [np.frombuffer(data, "<f4", n, at + _BLOB_COUNT.size) for at in starts]
    if not np.isfinite(weights).all():
        raise ValueError(f"{path}: non-finite parameters")
    model = ToyScoreNet.__new__(ToyScoreNet)  # no random weights to overwrite
    model._set_shape(sizes[1:-1], freqs, np.float32, sched)
    model.theta, model.ema_theta = (w.astype(np.float32) for w in weights)
    model.ema_decay, model.step = ema_decay, step
    return model, sched
