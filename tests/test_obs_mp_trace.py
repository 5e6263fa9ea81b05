"""Cross-process trace propagation: span-tree parity and crash closure.

Spans are opened and closed on the *driver's* clock; the trace id crosses
into worker processes via the task envelope and the ShmRing frame header,
and worker-measured durations ride back as span attributes.  The contract
under test: a traced request served by ``backend="process"`` yields the
*same span tree* (names and parentage) as the thread backend, and a
worker killed mid-batch leaves an error-status span — never an unclosed
leak.

Everything that crosses the spawn boundary lives at module level (same
discipline as ``test_mp_server.py``).
"""

import os

import numpy as np
import pytest

from repro.core.pipeline import PtqConfig
from repro.engine import PanaceaSession
from repro.models.zoo import build_proxy, proxy_batches
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.obs import Trace
from repro.serve import BatchPolicy, ModelServer, WorkerCrashError

MODEL = "bert_base"
DIM = 8
MAGIC_ROWS = 7  # a forward seeing this many rows kills its process


class _CrashyMLP(Module):
    def __init__(self) -> None:
        super().__init__()
        self.fc = Linear(DIM, DIM, rng=np.random.default_rng(11))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] == MAGIC_ROWS:
            os._exit(3)
        return self.fc(x)


def _build_crashy():
    return _CrashyMLP()


def _crashy_session():
    session = PanaceaSession(_build_crashy(), PtqConfig.for_scheme("aqs"))
    rng = np.random.default_rng(1)
    session.calibrate([rng.standard_normal((3, DIM)) for _ in range(2)])
    return session


def _prepared_session(seed=0):
    model, _ = build_proxy(MODEL, seed=seed)
    session = PanaceaSession(model, PtqConfig.for_scheme("aqs"))
    session.calibrate(proxy_batches(MODEL, 2, 2, seed=seed + 1))
    return session


def _tree_shape(trace):
    """(name, parent-name) edge multiset — the backend-invariant shape."""
    by_id = {s.span_id: s for s in trace.spans}
    return sorted(
        (s.name, by_id[s.parent_id].name if s.parent_id else None)
        for s in trace.spans)


def _one_traced_request(server):
    x = proxy_batches(MODEL, 2, 1, seed=44)[0]
    ticket = server.submit("bert", x)
    out = ticket.result(timeout=120)
    assert ticket.trace is not None
    return ticket.trace, out


def test_process_span_tree_matches_thread_backend():
    policy = BatchPolicy(max_batch=1, max_delay_s=0.0)

    with ModelServer(policy) as server:
        server.register("bert", _prepared_session(seed=0), model_name=MODEL)
        thread_trace, thread_out = _one_traced_request(server)

    with ModelServer(policy, workers=2, backend="process") as server:
        server.register("bert", _prepared_session(seed=0), model_name=MODEL)
        proc_trace, proc_out = _one_traced_request(server)

    # Same spans, same parentage — the tree shape is backend-invariant.
    shape = _tree_shape(proc_trace)
    assert shape == _tree_shape(thread_trace)
    assert ("engine_execute", "bert") in shape
    assert ("queue_wait", "bert") in shape
    assert ("batch_release", "bert") in shape
    for trace in (thread_trace, proc_trace):
        assert trace.validate() == []
        assert trace.status == "ok"
    # Same answer too (tracing never perturbs the data path).
    assert np.array_equal(thread_out, proc_out)
    # The process-backend span crossed a real boundary: the worker's
    # own-clock execution time rode back as an attribute.
    span, = proc_trace.find("engine_execute")
    assert span.attrs["backend"] == "process"
    assert span.attrs["worker_exec_s"] > 0.0


def test_traced_request_survives_untraced_neighbours():
    """sample<1 on the process backend: traced and untraced requests share
    workers and rings without contaminating each other (trace_id=0 frames
    stay untraced)."""
    policy = BatchPolicy(max_batch=1, max_delay_s=0.0)
    with ModelServer(policy, workers=2, backend="process",
                     trace_sample=0.0) as server:
        server.register("bert", _prepared_session(seed=0), model_name=MODEL)
        stream = proxy_batches(MODEL, 2, 3, seed=45)
        untraced_a = server.submit("bert", stream[0])
        traced = server._get("bert").batcher.submit(
            stream[1], trace=server.traces.add(Trace("bert")))
        untraced_b = server.submit("bert", stream[2])
        for ticket in (untraced_a, traced, untraced_b):
            ticket.result(timeout=120)
        assert untraced_a.trace is None and untraced_b.trace is None
        assert traced.trace is not None
        assert traced.trace.validate() == []
        assert len(traced.trace.find("engine_execute")) == 1


def test_worker_kill_mid_batch_leaves_error_span_not_a_leak():
    policy = BatchPolicy(max_batch=1, max_delay_s=0.0)
    with ModelServer(policy, workers=2, backend="process") as server:
        server.register("crashy", _crashy_session(),
                        model_factory=_build_crashy)
        rng = np.random.default_rng(6)
        poison = rng.standard_normal((MAGIC_ROWS, DIM))
        with pytest.raises(WorkerCrashError):
            server.submit_async("crashy", poison).result(timeout=120)

        trace_ids = server.traces.ids()
        assert len(trace_ids) == 1
        trace = server.get_trace(trace_ids[0])
        assert trace.status == "error"
        assert trace.complete           # every span closed: nothing leaked
        assert trace.root.status == "error"
        error_spans = [s for s in trace.spans if s.status == "error"]
        assert any(s.name == "engine_execute" for s in error_spans)
        exec_span, = trace.find("engine_execute")
        assert "WorkerCrashError" in exec_span.attrs["exception"]

        # The pool recovered; a traced request after the respawn completes
        # with a clean ok tree on the replacement worker.
        good = rng.standard_normal((3, DIM))
        server.submit_async("crashy", good).result(timeout=120)
        after = [server.get_trace(tid) for tid in server.traces.ids()]
        assert len(after) == 2
        assert {t.status for t in after} == {"error", "ok"}
