"""Checks of the benchmark's own accounting (spans.py), not of the library.

The counting wrapper must report exactly K*b*(2N+1) score evaluations per
utterance even when a thread pool enhances several utterances at once, and a
span's self time must be its duration minus its children's on the same thread.
"""

import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from diffenh import em, sde  # noqa: E402
from spans import CountingModel, Tracer, rebound  # noqa: E402


class _UnitGaussianScore:
    """Exact score of a unit complex Gaussian marginal; cheap and finite."""

    def evaluate(self, s_t, t):
        return -s_t


def test_counting_wrapper_exact_under_thread_pool():
    tracer = Tracer()
    model = CountingModel(_UnitGaussianScore(), tracer)
    sched = sde.SdeSchedule()
    cfg = em.EnhancementConfig(em_iters=2, batch=3, reverse_steps=4, posterior_every=2,
                               nmf_rank=2, nmf_inner_updates=3)
    rng = np.random.default_rng(0)
    mixtures = [rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7)) for _ in range(12)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force frequent thread switches
    try:
        with rebound(tracer, em, {"posterior_sample": "sampler.posterior_sample",
                                  "m_step": "noise_nmf.m_step"}):
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(em.enhance_spectrogram, x, model, sched, cfg)
                           for x in mixtures]
                results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(old_interval)
    assert all(np.all(np.isfinite(r.s_hat)) for r in results)
    n = len(mixtures)
    k, b, steps = cfg.em_iters, cfg.batch, cfg.reverse_steps
    assert tracer.calls("score.evaluate") == n * k * b * (2 * steps + 1)
    assert tracer.counter("score.evaluate.points") == n * k * b * (2 * steps + 1) * 35
    assert tracer.calls("sampler.posterior_sample") == n * k * b
    assert tracer.calls("noise_nmf.m_step") == n * (k + 1)
    # the rebinding is undone on exit
    assert not hasattr(em.posterior_sample, "__wrapped__")
    assert not hasattr(em.m_step, "__wrapped__")


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
        time.sleep(0.005)

    tracer.wrap("outer", body)()
    assert tracer.calls("inner") == 2 and tracer.calls("outer") == 1
    assert math.isclose(tracer.self_seconds("outer"),
                        tracer.seconds("outer") - tracer.seconds("inner"), abs_tol=1e-12)
    assert tracer.self_seconds("outer") >= 0.005
    assert tracer.self_seconds("inner") == tracer.seconds("inner")


def test_spans_on_other_threads_are_not_children():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: time.sleep(0.01))
    with tracer.span("parent"):
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert tracer.calls("leaf") == 1
    assert tracer.self_seconds("parent") == tracer.seconds("parent")
