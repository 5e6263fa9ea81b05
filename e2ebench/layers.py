"""Per-layer timing taken from outside the program.

:class:`LayerClock` rebinds a handful of public functions to timing
wrappers while a traced phase runs and restores the originals after it,
so untraced phases execute the program's own code objects.  Each wrapper
counts only the outermost call per thread (a re-entrant call into the
same layer is already inside the timed interval) and accumulates busy
time per ``(layer, thread)``, which is what lets the orchestrator check
that no layer was busy longer than the traced wall time of any thread it
ran on.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

import numpy as np

import repro.core.pipeline as pipeline
from repro.core.pipeline import QuantizedLinear
from repro.engine.engines import AqsEngine
from repro.engine.session import PanaceaSession
from repro.nn.transformer import CausalLM
from repro.serve.batching import MicroBatcher

# (layer, owner, attribute): the public call each layer is timed at.  The
# three ``nn`` entries share one layer so a forward is timed once whichever
# entry point reached it.
TIMED = (
    ("quant", pipeline, "quantize"),
    ("engine", AqsEngine, "execute"),
    ("core", QuantizedLinear, "forward"),
    ("nn", PanaceaSession, "run"),
    ("nn", PanaceaSession, "serve_coalesced"),
    ("nn", CausalLM, "forward_step"),
    ("batching", MicroBatcher, "serve"),
)
#: Layers whose individual call durations are kept for percentiles.
SAMPLED = ("batching", "decode_step")


class LayerClock:
    """Busy time, call counts and duration samples per layer."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.busy = defaultdict(float)      # (layer, thread id) -> seconds
        self.calls = defaultdict(int)       # layer -> outermost calls
        self.samples = defaultdict(list)    # layer -> call durations
        self.wall_s = 0.0
        self._originals = None
        self._t0 = 0.0

    def _wrap(self, layer: str, fn):
        local = self._local
        # A single-token forward_step is one batched decode step (prefills
        # feed the whole prompt suffix at once).
        is_forward_step = fn.__name__ == "forward_step"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            depth = local.__dict__
            if depth.get(layer):
                return fn(*args, **kwargs)
            depth[layer] = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                depth[layer] = False
                step = is_forward_step and np.shape(args[1])[1] == 1
                with self._lock:
                    self.busy[layer, threading.get_ident()] += dt
                    self.calls[layer] += 1
                    if layer in SAMPLED:
                        self.samples[layer].append(dt)
                    if step:
                        self.samples["decode_step"].append(dt)
        return timed

    def start(self) -> None:
        """Begin a traced phase: install the wrappers."""
        self._originals = [(owner, attr, owner.__dict__[attr])
                           for _, owner, attr in TIMED]
        for layer, owner, attr in TIMED:
            setattr(owner, attr, self._wrap(layer, owner.__dict__[attr]))
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        """End a traced phase: restore the program's own functions."""
        self.wall_s += time.perf_counter() - self._t0
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)
        self._originals = None

    def total(self, layer: str) -> float:
        return sum(s for (name, _), s in self.busy.items() if name == layer)

    def report(self) -> dict:
        """Raw totals for the orchestrator (JSON-serialisable)."""
        layers = sorted({name for name, _ in self.busy})
        return {
            "wall_s": self.wall_s,
            "busy_s": {name: self.total(name) for name in layers},
            "max_thread_busy_s": {
                name: max(s for (n, _), s in self.busy.items() if n == name)
                for name in layers},
            "calls": dict(self.calls),
            "p50_ms": {name: float(np.median(values)) * 1e3
                       for name, values in self.samples.items() if values},
        }
