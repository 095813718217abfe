"""Outside-in tracing for the benchmark: spans, self time and call counts.

Nothing here touches the library's source.  Spans are recorded around the
calls into each layer by wrapping the objects and module-level names the
library looks up at call time:

* CountingModel wraps the score model handed to the EM loop, so every
  ``evaluate`` the sampler makes is counted and timed.
* ``rebound`` temporarily replaces module attributes (for example
  ``diffenh.em.posterior_sample``) with traced wrappers and restores them.

Each thread keeps its own stack of open spans, so a span's children are the
spans opened beneath it on the same thread, and its self time is its duration
minus theirs.  Totals are merged under a lock, so counts stay exact when a
thread pool runs several utterances at once.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager


class Tracer:
    """Per-name totals of calls, span seconds and self seconds."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self._totals: dict[str, list] = {}
        self._extra: dict[str, float] = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        children = [0.0]  # seconds covered by child spans on this thread
        stack.append(children)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            if stack:
                stack[-1][0] += dt
            with self._lock:
                tot = self._totals.setdefault(name, [0, 0.0, 0.0])
                tot[0] += 1
                tot[1] += dt
                tot[2] += dt - children[0]

    def wrap(self, name: str, fn):
        """fn with every call recorded as a span called name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def add(self, name: str, amount: float):
        """Accumulate a plain counter (for example grid points evaluated)."""
        with self._lock:
            self._extra[name] = self._extra.get(name, 0.0) + amount

    def calls(self, name: str) -> int:
        return self._totals.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name: str) -> float:
        return self._totals.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self._totals.get(name, [0, 0.0, 0.0])[2]

    def counter(self, name: str) -> float:
        return self._extra.get(name, 0.0)

    def total_calls(self) -> int:
        return sum(tot[0] for tot in self._totals.values())


class CountingModel:
    """Score model proxy: each evaluate is a 'score.evaluate' span, and the
    grid points it scored are added to the 'score.evaluate.points' counter."""

    def __init__(self, model, tracer: Tracer):
        self._model = model
        self._tracer = tracer

    def evaluate(self, s_t, t):
        with self._tracer.span("score.evaluate"):
            out = self._model.evaluate(s_t, t)
        self._tracer.add("score.evaluate.points", s_t.size)
        return out


@contextmanager
def rebound(tracer: Tracer, module, names: dict):
    """Within the block, module.<attr> is a traced wrapper named names[attr]."""
    saved = {attr: getattr(module, attr) for attr in names}
    try:
        for attr, span_name in names.items():
            setattr(module, attr, tracer.wrap(span_name, saved[attr]))
        yield
    finally:
        for attr, fn in saved.items():
            setattr(module, attr, fn)


def wrapper_cost_s(calls: int = 20000) -> float:
    """Measured seconds one traced call adds over a plain call, on this machine."""

    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max((time.perf_counter() - t0) - plain, 0.0) / calls
