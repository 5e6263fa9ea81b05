"""ModelServer(backend="process"): routing, exactness, crash recovery.

The crash tests use a module-level model whose forward hard-exits the
process on a magic batch row count — a deterministic stand-in for a
segfault/OOM-kill that always strikes *mid-batch*, inside the worker's
engine execution.  Everything that crosses the spawn boundary (the model
factory) lives at module level so the child can re-import it.
"""

import os

import numpy as np
import pytest

from repro.core.pipeline import PtqConfig
from repro.engine import PanaceaSession
from repro.models.zoo import build_proxy, proxy_batches
from repro.serve import (BackendCapabilityError, BatchPolicy, ModelServer,
                         PlanStore, WorkerCrashError)
from repro.nn.layers import Linear
from repro.nn.module import Module

MODEL = "bert_base"
DIM = 8
MAGIC_ROWS = 7  # a forward seeing this many rows kills its process


class _CrashyMLP(Module):
    """One quantizable Linear plus a deterministic kill switch."""

    def __init__(self) -> None:
        super().__init__()
        self.fc = Linear(DIM, DIM, rng=np.random.default_rng(11))

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[0] == MAGIC_ROWS:
            os._exit(3)
        return self.fc(x)


def _build_crashy():
    return _CrashyMLP()


def _crashy_batches(rows, n, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((rows, DIM)) for _ in range(n)]


def _prepared_session(seed=0):
    model, _ = build_proxy(MODEL, seed=seed)
    session = PanaceaSession(model, PtqConfig.for_scheme("aqs"))
    session.calibrate(proxy_batches(MODEL, 2, 2, seed=seed + 1))
    return session


def _crashy_session():
    session = PanaceaSession(_build_crashy(), PtqConfig.for_scheme("aqs"))
    session.calibrate(_crashy_batches(3, 2, seed=1))
    return session


def test_process_backend_bit_exact_vs_serial():
    reference_session = _prepared_session(seed=0)
    stream = proxy_batches(MODEL, 2, 5, seed=30)
    expected = [reference_session.run(x) for x in stream]
    policy = BatchPolicy(max_batch=3, max_delay_s=0.0)
    with ModelServer(policy, workers=2, backend="process") as server:
        server.deploy_proxy("bert", MODEL, scheme="aqs", seed=0)
        tickets = server.submit_many("bert", stream)
        server.flush("bert")
        for ticket, expect in zip(tickets, expected):
            assert np.array_equal(ticket.result(), expect)
        stats = server.stats("bert")
        assert stats["session"]["n_requests"] == len(stream)
        assert stats["scheduler"]["n_batches"] >= 2  # coalescing happened
        metrics = server.metrics()
        assert metrics.process_workers["backend"] == "process"
        assert metrics.process_workers["n_crashes"] == 0
        assert "process_workers" in metrics.summary()


def test_load_from_store_serves_in_workers(tmp_path):
    session = _prepared_session(seed=3)
    path = tmp_path / "bert.plans.npz"
    PlanStore(path).save(session, model_name=MODEL, seed=3)
    stream = proxy_batches(MODEL, 2, 3, seed=31)
    expected = [_prepared_session(seed=3).run(x) for x in stream]
    with ModelServer(workers=1, backend="process") as server:
        server.load("bert", path)
        outputs = [f.result() for f
                   in server.submit_many_async("bert", stream)]
    for got, expect in zip(outputs, expected):
        assert np.array_equal(got, expect)


def test_mid_batch_crash_fails_only_that_batch_then_recovers():
    policy = BatchPolicy(max_batch=1, max_delay_s=0.0)
    reference = _crashy_session()
    good = _crashy_batches(3, 4, seed=5)
    expected = [reference.run(x) for x in good]
    poison = _crashy_batches(MAGIC_ROWS, 1, seed=6)[0]
    with ModelServer(policy, workers=2, backend="process") as server:
        server.register("crashy", _crashy_session(),
                        model_factory=_build_crashy)
        before = [server.submit_async("crashy", x) for x in good[:2]]
        for future, expect in zip(before, expected[:2]):
            assert np.array_equal(future.result(timeout=60), expect)

        # The poison batch kills its worker mid-forward: only this batch
        # fails, and it fails typed.
        with pytest.raises(WorkerCrashError):
            server.submit_async("crashy", poison).result(timeout=60)

        # The pool respawned the worker and replayed the deployment spec:
        # requests after the crash serve bit-exact on a full complement.
        after = [server.submit_async("crashy", x) for x in good[2:]]
        for future, expect in zip(after, expected[2:]):
            assert np.array_equal(future.result(timeout=60), expect)

        metrics = server.metrics()
        assert metrics.n_failed == 1
        assert metrics.n_requests == 4  # the four good ones; poison failed
        assert metrics.process_workers["n_crashes"] >= 1
        assert metrics.process_workers["n_respawns"] >= 1
        pool = server.process_pool
        assert len([p for p in pool.pids if p is not None]) == 2


def test_unregister_unloads_from_workers():
    with ModelServer(workers=1, backend="process") as server:
        server.deploy_proxy("bert", MODEL, scheme="aqs", seed=0)
        assert "bert" in server
        server.unregister("bert")
        assert "bert" not in server
        # The workers dropped the deployment too: serving it now fails in
        # the child with an unknown-deployment error, not stale state.
        with pytest.raises(Exception, match="bert"):
            server.process_pool.serve(
                "bert", [proxy_batches(MODEL, 1, 1, seed=0)[0]])


def test_process_backend_rejects_auto_calibrate_sessions():
    model, _ = build_proxy(MODEL, seed=0)
    session = PanaceaSession(model, PtqConfig.for_scheme("aqs"),
                             auto_calibrate=True)
    with ModelServer(workers=1, backend="process") as server:
        # The one typed refusal for capability gaps — still a ValueError
        # subclass for historical handlers.
        with pytest.raises(BackendCapabilityError, match="prepared"):
            server.register("bert", session, model_name=MODEL)


def test_process_backend_needs_model_reference():
    with ModelServer(workers=1, backend="process") as server:
        with pytest.raises(ValueError, match="model_name"):
            server.register("anon", _crashy_session())


def test_process_backend_needs_workers():
    with pytest.raises(ValueError, match="workers"):
        ModelServer(backend="process")
    with pytest.raises(ValueError, match="backend"):
        ModelServer(workers=1, backend="gpu")
