"""diffenh benchmark: end-to-end and per-layer numbers on seeded workloads.

    python3 benchmarks/bench.py --workload speech_1s --seed 0 --seconds 30 --trace 0

Run from the repository root; the library is imported from ./src.  Every run
prints '#'-prefixed lines (platform record, per-phase detail, check results)
and, as its last line, one JSON object:

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}}}

With --trace 0 the metrics are the end-to-end ones (END_TO_END), measured with
no instrumentation.  With --trace 1 the same work runs with outside-in spans
(spans.py) and the metrics are the per-layer ones (PER_LAYER).

Each workload is a mix of two kinds of operation, enhancing an utterance and
training the score net, so that every metric is defined on every workload.
The workload's own kind runs first, in a closed loop for --seconds (always at
least one whole operation; another starts only if it is expected to finish in
time); the other kind follows as a small fixed companion job.  Why each
workload exists:

* speech_1s -- one client enhancing a 1 s utterance at the default settings
  (256x126 grid), one enhancement after another; repeats must agree bit for
  bit.  This is the reference
  shape: score.evaluate is ~90% of the time (1220 calls of ~22 ms), each
  layer's activations (~8 MB) exceed the per-core L2, and one utterance at a
  time leaves the other cores idle.  Per-evaluate cuts and chain-level
  parallelism both show here.  The job (mixture and sampler seed) is fixed
  and --seed does not change it: the work per utterance does not depend on
  the input, while a seeded mixture or sampler seed moves the one-utterance
  si_sdr_gain_db by about 10%, which would hide a quality loss that size.
* toy_corpus -- the acceptance-9 corpus (20 utterances, seeds 1000+i, 33x80
  grid, window 64, hop 16, no compression, 0 dB) through a closed loop of
  nproc worker threads, like `diffenh benchmark --jobs`.  The cores are
  already busy and the working set fits in L2, so chain-level parallelism
  should not raise utt_per_s here while per-evaluate cuts still do.  The
  corpus content is fixed so si_sdr_gain_db reproduces acceptance 9; --seed
  sets the order the utterances are submitted in.
* train_prior -- score.train at the acceptance-fixture shape, 100 steps per
  pass from a fresh net: the write side of the score layer (backward pass,
  live weights, one t per item, Adam, EMA).  A change confined to evaluate,
  NFE or chains should leave train_steps_per_s unchanged; a change to the
  shared _features/_forward moves it with the enhance workloads.  --seed
  draws the 64 training items.  BENCHMARK.json leaves it out to fit the
  run budget; the same training passes run as the companion job of the two
  enhance workloads.

Inputs are generated here from --seed and handed to the library.  The enhance
phases use benchmarks/prior.ckpt, checked against PRIOR_SHA256 first (see
build_prior.py).  Before numpy is imported, BLAS is pinned to BLAS_THREADS
and numpy's huge-page advice switched off through the environment, and glibc
malloc is set to keep freed memory (_pin_allocator).
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# numpy advises transparent huge pages for arrays of 4 MiB and more (every
# speech_1s activation).  Whether the kernel grants them depends on how
# fragmented memory happens to be, so the page size a run gets, and with it
# the speech_1s RTF, would differ from one process to the next.  With the
# advice off every run uses 4 KiB pages.
NUMPY_HUGEPAGE_ADVICE = 0
os.environ["NUMPY_MADVISE_HUGEPAGE"] = str(NUMPY_HUGEPAGE_ADVICE)


def _pin_allocator() -> dict:
    """Make glibc malloc keep freed memory for reuse instead of returning it.

    The score net allocates fresh activations on every evaluate (~8 MB each
    at the speech_1s grid).  With glibc's default thresholds each one is a
    new mapping, so every evaluate faults in ~35 MB of zeroed pages: about
    40% of speech_1s wall time, all of it in the kernel, and the part of
    the run that moved most with the load of the host (RTF 27-45 from one
    process to the next).  Pinned like the BLAS thread count, so that runs
    measure the library's own arithmetic; process.minor_faults in the
    traced run shows whether the pin holds.
    """
    import ctypes

    M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
    settings = {"mmap_threshold": 32 << 20, "trim_threshold": 1 << 30}
    try:
        libc = ctypes.CDLL(None)
        ok = (libc.mallopt(M_MMAP_THRESHOLD, settings["mmap_threshold"]) == 1
              and libc.mallopt(M_TRIM_THRESHOLD, settings["trim_threshold"]) == 1)
    except (OSError, AttributeError):
        ok = False
    return settings if ok else {"unpinned": "mallopt unavailable"}


MALLOC = _pin_allocator()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from concurrent.futures import ThreadPoolExecutor  # noqa: E402
from contextlib import ExitStack, nullcontext  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "diffenh")):
    raise SystemExit(f"bench: no library source at {SRC}; run from the root of a diffenh checkout")
sys.path[:0] = [SRC, HERE]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from diffenh import em, metrics, noise_nmf, sampler, score, sde, signal  # noqa: E402
from spans import CountingModel, Tracer, rebound, wrapper_cost_s  # noqa: E402

PRIOR_PATH = os.path.join(HERE, "prior.ckpt")
PRIOR_SHA256 = "fdc495e22603cf87121cae7f2b78039a91a671403fbd96234a8e4e9e68b1ea0f"

SAMPLE_RATE = 16000
SPEECH_SEED = 0
SETUP_REPEATS = 7
TRAIN_STEPS_PER_PASS = 100
TRAIN_POINTS = 16 * 16 * 32  # batch x bins x patch frames of one training step
COMPANION_TRAIN_PASSES = 20
COMPANION_UTTERANCES = (0, 1, 2)  # acceptance-9 corpus members
TOY_CORPUS_SIZE = 20
TOY_SEQUENTIAL_CHECKS = 1  # pooled outputs re-run on the sequential path
ACCEPTANCE9_FLOOR_DB = 3.0
ACCEPTANCE5_BOUND = 0.15

WORKLOADS = ("speech_1s", "toy_corpus", "train_prior")

END_TO_END = {
    # median over SETUP_REPEATS fresh interpreters of `import diffenh` plus
    # load_checkpoint (train_prior: plus ToyScoreNet construction)
    "setup_s": "s",
    # enhance wall seconds / audio seconds, median over the run's utterances
    # (the sample count is printed)
    "rtf": "ratio",
    # utterances completed / seconds spent enhancing them
    "utt_per_s": "1/s",
    # mean over utterances of SI-SDR(output) - SI-SDR(input)
    "si_sdr_gain_db": "dB",
    # optimizer steps / score.train wall seconds, summed over the passes (the
    # host's speed shifts between regimes ~25% apart for ~10 s at a time; a
    # median over passes jumps between them, the sum averages them)
    "train_steps_per_s": "1/s",
    # acceptance-5 probe of the score model the workload's own kind uses or
    # produces: the prior for the enhance workloads, the trained net for
    # train_prior
    "score_rel_l2": "ratio",
    # peak resident memory of the benchmark process
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "score.evaluate.calls": "count",
    "score.evaluate.calls_per_utt": "count",
    "score.evaluate.s": "s",
    "score.evaluate.ms_per_call": "ms",
    "score.evaluate.points_per_call": "count",
    "score.evaluate.gflop_per_s": "GFLOP/s",
    "score.evaluate.share": "ratio",
    "sampler.posterior_sample.calls": "count",
    "sampler.posterior_sample.s": "s",
    "sampler.posterior_sample.self_s": "s",
    "sampler.posterior_sample.concurrency": "ratio",
    "em.enhance_spectrogram.s": "s",
    "em.enhance_spectrogram.self_s": "s",
    "noise_nmf.m_step.calls": "count",
    "noise_nmf.m_step.s": "s",
    "signal.stft.s": "s",
    "signal.istft.s": "s",
    "score.train.s": "s",
    "score.train.self_s": "s",
    "score.dsm_loss_and_grad.calls": "count",
    "score.dsm_loss_and_grad.s": "s",
    "score.dsm_loss_and_grad.gflop_per_s": "GFLOP/s",
    "score.make_train_batch.s": "s",
    "import.s": "s",
    "score.load_checkpoint.s": "s",
    "score.train.rel_l2": "ratio",
    "process.user_s": "s",
    "process.sys_s": "s",
    "process.minor_faults": "count",
    "trace.rtf": "ratio",
    "trace.overhead_share": "ratio",
}


# ---------------------------------------------------------------------------
# computed operation counts


def mlp_cost(sizes, points: int, backward: bool = False) -> dict:
    """Computed (not measured) flops and bytes of the pointwise score MLP.

    sizes is ToyScoreNet.sizes.  Flops count each matmul multiply-add as 2,
    one per bias add and one per tanh, plus 4 per point for the residual
    output map; the time-feature build is not counted.  Bytes assume float64
    activations, each written once and read once by its consumer, plus the
    complex input and output; weights are negligible.  With backward, the
    gradient pass of dsm_loss_and_grad is added: per layer 2ab + b for the
    weight and bias gradients and, below the top layer, 2ab + 3a to carry the
    error back through the weights and tanh.
    """
    layers = list(zip(sizes[:-1], sizes[1:]))
    hidden = sum(b for _, b in layers[:-1])
    per_flops = sum(2 * a * b + b for a, b in layers) + hidden + 4
    per_bytes = 16 + 16 + 8 * 2 * sizes[0] + 8 * 2 * sum(b for _, b in layers)
    if backward:
        per_flops += sum(2 * a * b + b for a, b in layers)
        per_flops += sum(2 * a * b + 3 * a for a, b in layers[1:])
        per_bytes += 8 * sum(a + b for a, b in layers)
        per_bytes += 8 * sum(3 * a + b for a, b in layers[1:])
    return {"flops": per_flops * points, "bytes": per_bytes * points}


# ---------------------------------------------------------------------------
# platform record


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if level in ("2", "3") and kind == "Unified":
            out[f"L{level}"] = _read(os.path.join(base, entry, "size"))
    return out


def _commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(os.path.join(ROOT, ".git", ref))
        if not sha:
            for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown"


def platform_record(workers: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "caches": _caches(),
        "blas": {"vendor": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "numpy_madvise_hugepage": NUMPY_HUGEPAGE_ADVICE,
        "malloc": MALLOC,
        "thp": _read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "pool_workers": workers,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
    }


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes

_SETUP_CHILD = """
import time
t0 = time.perf_counter()
import sys
sys.path.insert(0, sys.argv[1])
import diffenh
from diffenh import score
t1 = time.perf_counter()
score.load_checkpoint(sys.argv[2])
t2 = time.perf_counter()
score.ToyScoreNet(hidden=(32, 32), seed=1234)
t3 = time.perf_counter()
print(t1 - t0, t2 - t1, t3 - t2)
"""


def measure_setup(workload: str) -> dict:
    """Median over fresh interpreters of import, checkpoint load and net build.

    setup_s is import + load_checkpoint for the enhance workloads and
    import + ToyScoreNet construction for train_prior."""
    rows = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, SRC, PRIOR_PATH],
            capture_output=True, text=True, timeout=120, check=True,
        )
        rows.append([float(v) for v in proc.stdout.split()])
    model_col = 2 if workload == "train_prior" else 1
    return {
        "setup_s": statistics.median(r[0] + r[model_col] for r in rows),
        "import.s": statistics.median(r[0] for r in rows),
        "score.load_checkpoint.s": statistics.median(r[1] for r in rows),
    }


# ---------------------------------------------------------------------------
# inputs


@dataclasses.dataclass
class Utterance:
    clean: object  # signal.Waveform
    noisy: object
    cfg: object  # em.EnhancementConfig
    points: int  # STFT grid points, the size of every score.evaluate input


def synthetic_utterance(model, sched, stft_cfg, frames, rng, mix_seed, enh_seed):
    """Clean speech drawn from the prior and rescaled the way the CLI's
    synthetic benchmark does it, mixed at 0 dB with rank-4 structured noise."""
    out_len = stft_cfg.hop * (frames - 1)
    spec = sampler.unconditional_sample(
        (stft_cfg.f_bins, frames), model, sched, sampler.SamplerConfig(), rng
    )
    raw = signal.istft(spec, stft_cfg, out_len)
    # synthesis projects onto the overlap-add consistent subspace and shrinks
    # spectral power; rescale so analysis matches the prior again
    var = float(np.mean(np.abs(signal.stft(raw, stft_cfg)) ** 2))
    clean = signal.Waveform(raw.samples * var ** (-0.5 / stft_cfg.compress_alpha),
                            raw.sample_rate)
    noise = signal.Waveform(noise_nmf.synth_noise_waveform(out_len, 4, rng), clean.sample_rate)
    noisy, _ = signal.mix_at_snr(clean, noise, 0.0, seed=mix_seed)
    return Utterance(clean, noisy, em.EnhancementConfig(seed=enh_seed), stft_cfg.f_bins * frames)


def toy_stft():
    return signal.StftConfig(window_len=64, hop=16, compress_alpha=1.0, compress_beta=1.0)


def acceptance9_utterance(model, sched, i: int) -> Utterance:
    """Member i of the acceptance-9 corpus, built exactly as that test does."""
    rng = np.random.default_rng(1000 + i)
    return synthetic_utterance(model, sched, toy_stft(), 80, rng, mix_seed=i, enh_seed=i)


def speech_utterance(model, sched) -> Utterance:
    """The speech_1s job: 1 s at the default STFT, mixture and sampler seed
    fixed by SPEECH_SEED."""
    rng = np.random.default_rng(SPEECH_SEED)
    cfg = signal.StftConfig()
    frames = signal.n_frames(SAMPLE_RATE, cfg)
    return synthetic_utterance(model, sched, cfg, frames, rng,
                               mix_seed=SPEECH_SEED, enh_seed=SPEECH_SEED)


def fixture_dataset(sched, seed: int):
    """64 unit complex Gaussian 16x64 grids, the acceptance fixture's shape."""
    rng = np.random.default_rng(seed)
    prior = score.AnalyticGaussianPrior(mean=np.zeros((16, 64)), var0=1.0, sched=sched)
    return prior, [prior.sample((16, 64), rng) for _ in range(64)]


# ---------------------------------------------------------------------------
# operations


@dataclasses.dataclass
class Run:
    """Everything one benchmark run measured and checked."""

    tracer: object = None
    utt_walls: list = dataclasses.field(default_factory=list)
    utt_audio_s: list = dataclasses.field(default_factory=list)
    gains: list = dataclasses.field(default_factory=list)
    enhance_wall: float = 0.0
    train_walls: list = dataclasses.field(default_factory=list)
    train_steps: list = dataclasses.field(default_factory=list)
    train_digests: list = dataclasses.field(default_factory=list)
    rel_l2: float = float("nan")  # score_rel_l2 as the workload defines it
    train_rel_l2: float = float("nan")
    utt_points: int = 0  # STFT grid points of the utterances enhanced
    rusage: dict = dataclasses.field(default_factory=dict)
    utt_attempted: int = 0
    utt_failed: int = 0
    steps_attempted: int = 0
    steps_failed: int = 0
    failures: list = dataclasses.field(default_factory=list)

    def check(self, ok: bool, what: str):
        print(f"# check {'PASS' if ok else 'FAIL'}: {what}")
        if not ok:
            self.failures.append(what)


def _enhance_model(model, run: Run):
    return CountingModel(model, run.tracer) if run.tracer else model


def _em_spans(run: Run):
    if not run.tracer:
        return nullcontext()
    return rebound(run.tracer, em, {
        "stft": "signal.stft",
        "istft": "signal.istft",
        "enhance_spectrogram": "em.enhance_spectrogram",
        "posterior_sample": "sampler.posterior_sample",
        "m_step": "noise_nmf.m_step",
    })


def enhance(utt: Utterance, model, sched, stft_cfg, run: Run):
    """Enhance one utterance; returns (output samples or None, wall seconds).
    An exception counts as a failed utterance, not a crash of the harness."""
    span = run.tracer.span("em.enhance_waveform") if run.tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with span:
            out = em.enhance_waveform(utt.noisy, model, sched, stft_cfg, utt.cfg)
    except Exception:
        traceback.print_exc()
        return None, time.perf_counter() - t0
    return out, time.perf_counter() - t0


def record_utterance(utt: Utterance, out, wall: float, run: Run) -> None:
    run.utt_attempted += 1
    if out is None:
        run.utt_failed += 1
        return
    ok = len(out) == len(utt.noisy) and bool(np.all(np.isfinite(out.samples)))
    if not ok:
        run.check(False, "enhanced waveform finite and as long as its input")
        return
    run.utt_walls.append(wall)
    run.utt_audio_s.append(len(utt.noisy) / utt.noisy.sample_rate)
    run.utt_points = utt.points
    run.gains.append(metrics.si_sdr(out, utt.clean) - metrics.si_sdr(utt.noisy, utt.clean))


def rel_l2_probe(model, prior, sched) -> float:
    """The acceptance-5 probe: worst relative L2 error of model.evaluate
    against the analytic score at t in {0.1, 0.5, 1.0}."""
    rng = np.random.default_rng(6)
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        num = den = 0.0
        for _ in range(32):
            s_t = sde.perturb(prior.sample((16, 64), rng), t, sched, rng)
            ref = prior.evaluate(s_t, t)
            num += float(np.sum(np.abs(model.evaluate(s_t, t) - ref) ** 2))
            den += float(np.sum(np.abs(ref) ** 2))
        worst = max(worst, (num / den) ** 0.5)
    return worst


def train_pass(dataset, sched, run: Run):
    """One score.train call from a fresh net: fixture settings, fixed steps.
    Returns the trained model, or None if training raised."""
    model = score.ToyScoreNet(hidden=(32, 32), seed=1234, sched=sched)
    cfg = score.TrainConfig(
        lr=1.5e-3, batch_size=16, epochs=1, steps_per_epoch=TRAIN_STEPS_PER_PASS,
        patch_frames=32, lr_decay="cosine", seed=99,
    )
    run.steps_attempted += TRAIN_STEPS_PER_PASS
    with ExitStack() as stack:
        if run.tracer:
            stack.enter_context(rebound(run.tracer, score, {
                "make_train_batch": "score.make_train_batch",
                "dsm_loss_and_grad": "score.dsm_loss_and_grad",
            }))
            stack.enter_context(run.tracer.span("score.train"))
        t0 = time.perf_counter()
        try:
            score.train(model, dataset, cfg, sched)
        except Exception:
            traceback.print_exc()
            run.steps_failed += TRAIN_STEPS_PER_PASS
            return None
        wall = time.perf_counter() - t0
    run.train_walls.append(wall)
    run.train_steps.append(TRAIN_STEPS_PER_PASS)
    return model


def _weights_digest(model) -> str:
    h = hashlib.sha256()
    for W, b in model.params + model.ema_params:
        h.update(W.tobytes())
        h.update(b.tobytes())
    return h.hexdigest()


def training_phase(sched, seed: int, run: Run, seconds: float | None, passes: int = 0):
    """Training passes: for `seconds` in a closed loop, or exactly `passes`.
    Checks that every pass trained bit-identically and sets run.train_rel_l2
    to the acceptance-5 probe of the trained net."""
    prior, dataset = fixture_dataset(sched, 11 + seed)
    model = None
    start = time.perf_counter()
    for attempt in itertools.count(1):
        trained = train_pass(dataset, sched, run)
        if trained is not None:
            model = trained
            run.train_digests.append(_weights_digest(trained))
        if seconds is None:
            if attempt >= passes:
                break
        elif time.perf_counter() - start + _median_or(run.train_walls, 0.0) > seconds:
            break
    run.check(len(set(run.train_digests)) <= 1,
              f"{len(run.train_digests)} training passes from the same seeds give identical weights")
    run.train_rel_l2 = rel_l2_probe(model, prior, sched) if model else float("nan")


def _median_or(values, default):
    return statistics.median(values) if values else default


# ---------------------------------------------------------------------------
# workloads


def load_prior():
    with open(PRIOR_PATH, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    if digest != PRIOR_SHA256:
        raise SystemExit(f"bench: {PRIOR_PATH} has sha256 {digest}, expected {PRIOR_SHA256}; "
                         "refusing to measure on a different prior")
    return score.load_checkpoint(PRIOR_PATH)


def check_prior(model, sched, run: Run) -> float:
    prior, _ = fixture_dataset(sched, 11)
    err = rel_l2_probe(model, prior, sched)
    run.check(err < ACCEPTANCE5_BOUND,
              f"prior score rel L2 {err:.4f} < {ACCEPTANCE5_BOUND} (acceptance 5)")
    return err


def run_speech(model, sched, seconds: float, run: Run):
    stft_cfg = signal.StftConfig()
    emodel = _enhance_model(model, run)
    utt = speech_utterance(model, sched)
    first = None
    start = time.perf_counter()
    with _em_spans(run):
        while True:
            out, wall = enhance(utt, emodel, sched, stft_cfg, run)
            run.enhance_wall += wall
            record_utterance(utt, out, wall, run)
            if out is not None:
                if first is None:
                    first = out.samples
                elif not np.array_equal(first, out.samples):
                    run.check(False, "repeated speech_1s enhancement is bit-identical")
            if time.perf_counter() - start + _median_or(run.utt_walls, wall) > seconds:
                break


def run_toy_corpus(model, sched, seed: int, seconds: float, workers: int, run: Run):
    stft_cfg = toy_stft()
    corpus = [acceptance9_utterance(model, sched, i) for i in range(TOY_CORPUS_SIZE)]
    order = [int(i) for i in np.random.default_rng(seed).permutation(TOY_CORPUS_SIZE)]
    emodel = _enhance_model(model, run)
    outputs = {}
    start = time.perf_counter()
    with _em_spans(run), ThreadPoolExecutor(max_workers=workers) as pool:
        while True:
            t0 = time.perf_counter()
            results = list(pool.map(
                lambda i: enhance(corpus[i], emodel, sched, stft_cfg, run), order))
            pass_wall = time.perf_counter() - t0
            run.enhance_wall += pass_wall
            gains_before = len(run.gains)
            for i, (out, wall) in zip(order, results):
                record_utterance(corpus[i], out, wall, run)
                if out is not None:
                    prev = outputs.setdefault(i, out.samples)
                    if not np.array_equal(prev, out.samples):
                        run.check(False, f"utterance {i} differs between pooled passes")
            if len(run.gains) - gains_before == TOY_CORPUS_SIZE:
                gain = float(np.mean(run.gains[gains_before:]))
                run.check(gain >= ACCEPTANCE9_FLOOR_DB,
                          f"toy corpus mean SI-SDR gain {gain:+.4f} dB >= "
                          f"+{ACCEPTANCE9_FLOOR_DB} dB (acceptance 9)")
            if time.perf_counter() - start + pass_wall > seconds:
                break
    # the pooled outputs must equal the sequential path bit for bit
    picks = [i for i in order if i in outputs][:TOY_SEQUENTIAL_CHECKS]
    for i in picks:
        out, _ = enhance(corpus[i], model, sched, stft_cfg, Run())
        run.check(out is not None and np.array_equal(out.samples, outputs[i]),
                  f"utterance {i}: pooled output bit-identical to sequential")


def run_companion_enhance(model, sched, run: Run):
    stft_cfg = toy_stft()
    emodel = _enhance_model(model, run)
    with _em_spans(run):
        for i in COMPANION_UTTERANCES:
            utt = acceptance9_utterance(model, sched, i)
            out, wall = enhance(utt, emodel, sched, stft_cfg, run)
            run.enhance_wall += wall
            record_utterance(utt, out, wall, run)


# ---------------------------------------------------------------------------
# metrics


def _rtf(run: Run) -> float:
    audio = statistics.median(run.utt_audio_s) if run.utt_audio_s else 1.0
    return _median_or(run.utt_walls, float("nan")) / audio


def end_to_end(run: Run, setup: dict) -> dict:
    return {
        "setup_s": setup["setup_s"],
        "rtf": _rtf(run),
        "utt_per_s": len(run.utt_walls) / run.enhance_wall if run.enhance_wall else 0.0,
        "si_sdr_gain_db": statistics.fmean(run.gains) if run.gains else float("nan"),
        "train_steps_per_s": sum(run.train_steps) / sum(run.train_walls)
        if run.train_walls else 0.0,
        "score_rel_l2": run.rel_l2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(run: Run, setup: dict, sizes, wrapper_cost: float, phase_wall: float) -> dict:
    tr = run.tracer

    def ratio(a, b):
        return a / b if b else 0.0

    evals = tr.calls("score.evaluate")
    eval_s = tr.seconds("score.evaluate")
    points = tr.counter("score.evaluate.points")
    dsm_calls = tr.calls("score.dsm_loss_and_grad")
    dsm_s = tr.seconds("score.dsm_loss_and_grad")
    dsm_flops = mlp_cost(sizes, TRAIN_POINTS, backward=True)["flops"] * dsm_calls
    return {
        "score.evaluate.calls": evals,
        "score.evaluate.calls_per_utt": ratio(evals, run.utt_attempted),
        "score.evaluate.s": eval_s,
        "score.evaluate.ms_per_call": 1e3 * ratio(eval_s, evals),
        "score.evaluate.points_per_call": ratio(points, evals),
        "score.evaluate.gflop_per_s": ratio(mlp_cost(sizes, points)["flops"], eval_s) / 1e9,
        "score.evaluate.share": ratio(eval_s, tr.seconds("em.enhance_waveform")),
        "sampler.posterior_sample.calls": tr.calls("sampler.posterior_sample"),
        "sampler.posterior_sample.s": tr.seconds("sampler.posterior_sample"),
        "sampler.posterior_sample.self_s": tr.self_seconds("sampler.posterior_sample"),
        "sampler.posterior_sample.concurrency": ratio(
            tr.seconds("sampler.posterior_sample"), tr.seconds("em.enhance_spectrogram")),
        "em.enhance_spectrogram.s": tr.seconds("em.enhance_spectrogram"),
        "em.enhance_spectrogram.self_s": tr.self_seconds("em.enhance_spectrogram"),
        "noise_nmf.m_step.calls": tr.calls("noise_nmf.m_step"),
        "noise_nmf.m_step.s": tr.seconds("noise_nmf.m_step"),
        "signal.stft.s": tr.seconds("signal.stft"),
        "signal.istft.s": tr.seconds("signal.istft"),
        "score.train.s": tr.seconds("score.train"),
        "score.train.self_s": tr.self_seconds("score.train"),
        "score.dsm_loss_and_grad.calls": dsm_calls,
        "score.dsm_loss_and_grad.s": dsm_s,
        "score.dsm_loss_and_grad.gflop_per_s": ratio(dsm_flops, dsm_s) / 1e9,
        "score.make_train_batch.s": tr.seconds("score.make_train_batch"),
        "import.s": setup["import.s"],
        "score.load_checkpoint.s": setup["score.load_checkpoint.s"],
        "score.train.rel_l2": run.train_rel_l2,
        "process.user_s": run.rusage["user_s"],
        "process.sys_s": run.rusage["sys_s"],
        "process.minor_faults": run.rusage["minor_faults"],
        "trace.rtf": _rtf(run),
        "trace.overhead_share": ratio(wrapper_cost * tr.total_calls(), phase_wall),
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    ap = argparse.ArgumentParser(description="diffenh benchmark (run from the repo root)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workers = min(len(os.sched_getaffinity(0)), 8)
    print("# platform " + json.dumps(platform_record(workers), sort_keys=True))
    model, sched = load_prior()
    setup = measure_setup(args.workload)
    run = Run(tracer=Tracer() if args.trace else None)
    prior_err = check_prior(model, sched, run)
    print(f"# prior sha256={PRIOR_SHA256[:16]} rel_l2={prior_err:.6f}")

    t0 = time.perf_counter()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    if args.workload == "train_prior":
        training_phase(sched, args.seed, run, seconds=args.seconds)
        run.rel_l2 = run.train_rel_l2
        run_companion_enhance(model, sched, run)
    else:
        # the host's speed shifts between regimes ~25% apart that last ~10 s,
        # so the companion passes run half before and half after the
        # measured phase: train_steps_per_s then samples two moments ~30 s
        # apart instead of one
        before = COMPANION_TRAIN_PASSES // 2
        training_phase(sched, args.seed, run, seconds=None, passes=before)
        if args.workload == "speech_1s":
            run_speech(model, sched, args.seconds, run)
        else:
            run_toy_corpus(model, sched, args.seed, args.seconds, workers, run)
        run.rel_l2 = prior_err
        training_phase(sched, args.seed, run, seconds=None,
                       passes=COMPANION_TRAIN_PASSES - before)
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    phase_wall = time.perf_counter() - t0
    run.rusage = {"user_s": ru1.ru_utime - ru0.ru_utime, "sys_s": ru1.ru_stime - ru0.ru_stime,
                  "minor_faults": ru1.ru_minflt - ru0.ru_minflt}

    print(f"# utterances {run.utt_attempted} attempted {run.utt_failed} failed; "
          f"rtf samples {len(run.utt_walls)}; training steps {run.steps_attempted} attempted "
          f"{run.steps_failed} failed in {len(run.train_walls)} passes")
    print("# computed " + json.dumps({
        "score.evaluate": {"points": run.utt_points, **mlp_cost(model.sizes, run.utt_points)},
        "score.dsm_loss_and_grad": {"points": TRAIN_POINTS,
                                    **mlp_cost(model.sizes, TRAIN_POINTS, backward=True)},
    }))
    if args.trace:
        values = per_layer(run, setup, model.sizes, wrapper_cost_s(), phase_wall)
        units = PER_LAYER
    else:
        values = end_to_end(run, setup)
        units = END_TO_END
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]}")
        if not math.isfinite(value):  # nothing completed to measure
            run.check(False, f"{name} is finite")
            values[name] = 0.0
    correct = not run.failures and run.utt_failed == 0 and run.steps_failed == 0
    result = {
        "correct": correct,
        "attempted": run.utt_attempted + run.steps_attempted,
        "failed": run.utt_failed + run.steps_failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
