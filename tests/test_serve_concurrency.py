"""Concurrency stress tests: many threads, one server, conserved metrics.

The contract under test: concurrency is a *scheduling* freedom, never a
numeric one.  However many threads hammer the server, every ticket is
served exactly once, lifetime accounting balances to what was submitted,
and each output is bit-identical to a serial replay of the same request.
"""

import threading
from concurrent.futures import Future

import numpy as np
import pytest

from repro.core.pipeline import PtqConfig
from repro.engine import PanaceaSession
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.serve import BatchPolicy, ModelServer

N_DEPLOYMENTS = 3
N_THREADS = 8
REQUESTS_PER_THREAD = 6


class TinyNet(Module):
    def __init__(self, seed=0, out_features=8):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.fc1 = Linear(16, 32, rng=rng)
        self.fc2 = Linear(32, out_features, rng=rng)

    def forward(self, x):
        return self.fc2(np.maximum(self.fc1(x), 0.0))


def _calibration(seed=0):
    rng = np.random.default_rng(seed)
    return [rng.normal(0, 1, (4, 16)) for _ in range(3)]


def _session(seed=0, **kwargs):
    return PanaceaSession(TinyNet(seed), PtqConfig(scheme="aqs"),
                          calibration=_calibration(seed=seed), **kwargs)


def _request(thread_id, i):
    rng = np.random.default_rng(1000 + 97 * thread_id + i)
    return rng.normal(0, 1, (2, 16))


def _deployment_for(thread_id, i):
    return f"m{(thread_id + i) % N_DEPLOYMENTS}"


def _reference_outputs():
    """Serial replay: one fresh solo session per deployment, run() only."""
    solo = {f"m{d}": _session(seed=d) for d in range(N_DEPLOYMENTS)}
    reference = {}
    for thread_id in range(N_THREADS):
        for i in range(REQUESTS_PER_THREAD):
            name = _deployment_for(thread_id, i)
            reference[(thread_id, i)] = solo[name].run(_request(thread_id, i))
    return reference


def _hammer(server, submit):
    """N_THREADS threads submitting interleaved requests; returns results
    keyed by (thread_id, request_index), any worker exceptions and the
    ``(deployment, ticket)`` of every submit."""
    results, errors, tickets = {}, [], []
    barrier = threading.Barrier(N_THREADS)

    def worker(thread_id):
        try:
            barrier.wait(timeout=10.0)
            handles = []
            for i in range(REQUESTS_PER_THREAD):
                name = _deployment_for(thread_id, i)
                handles.append((i, submit(server, name,
                                          _request(thread_id, i))))
            for i, handle in enumerate(handles):
                results[(thread_id, handle[0])] = handle[1].result()
                tickets.append((_deployment_for(thread_id, i),
                                getattr(handle[1], "ticket", handle[1])))
        except Exception as exc:  # noqa: BLE001 — surfaced to the assert
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(N_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(thread.is_alive() for thread in threads), "worker hung"
    return results, errors, tickets


def _assert_conserved(server, n_submitted, tickets):
    """No dropped or duplicated tickets anywhere in the accounting."""
    metrics = server.metrics()
    assert metrics.n_requests + metrics.n_cache_hits == n_submitted
    assert metrics.n_failed == 0
    for name, stats in metrics.deployments.items():
        sched, sess = stats["scheduler"], stats["session"]
        # Scheduler and session agree: every engine-served request of this
        # deployment ran exactly one session forward.
        assert sched["n_requests"] == sess["n_requests"], name
        assert sched["depth"] == 0, name
    # Session request ids are allocated once each: the records the
    # engine-served tickets carry hold every id exactly once.
    for entry_name in server.models():
        ids = sorted(t.record.request_id for name, t in tickets
                     if name == entry_name and t.record is not None)
        n_served = server.entry(entry_name).session.stats()["n_requests"]
        assert ids == list(range(n_served)), entry_name


@pytest.fixture(scope="module")
def reference():
    return _reference_outputs()


class TestBlockingSubmitStress:
    @pytest.mark.parametrize("workers", [0, 4])
    def test_hammered_server_matches_serial_replay(self, reference, workers):
        server = ModelServer(BatchPolicy(max_batch=4, max_delay_s=0.0),
                             workers=workers)
        with server:
            for d in range(N_DEPLOYMENTS):
                server.register(f"m{d}", _session(seed=d))
            results, errors, tickets = _hammer(
                server, lambda srv, name, x: srv.submit(name, x))
            assert not errors, errors
            assert len(results) == N_THREADS * REQUESTS_PER_THREAD
            for key, out in results.items():
                assert np.array_equal(out, reference[key]), key
            _assert_conserved(server, N_THREADS * REQUESTS_PER_THREAD,
                              tickets)


class TestAsyncSubmitStress:
    def test_async_hammer_matches_serial_replay(self, reference):
        server = ModelServer(BatchPolicy(max_batch=4, max_delay_s=0.0),
                             workers=4)
        with server:
            for d in range(N_DEPLOYMENTS):
                server.register(f"m{d}", _session(seed=d))
            results, errors, tickets = _hammer(
                server, lambda srv, name, x: srv.submit_async(name, x))
            assert not errors, errors
            assert len(results) == N_THREADS * REQUESTS_PER_THREAD
            for key, out in results.items():
                assert np.array_equal(out, reference[key]), key
            _assert_conserved(server, N_THREADS * REQUESTS_PER_THREAD,
                              tickets)

    def test_async_with_cache_matches_serial_replay(self, reference):
        """Caching on: duplicate payloads may short-circuit, totals still
        balance and outputs stay bit-exact."""
        server = ModelServer(BatchPolicy(max_batch=4, max_delay_s=0.0),
                             workers=4, cache_bytes=1 << 20)
        with server:
            for d in range(N_DEPLOYMENTS):
                server.register(f"m{d}", _session(seed=d))
            results, errors, tickets = _hammer(
                server, lambda srv, name, x: srv.submit_async(name, x))
            assert not errors, errors
            for key, out in results.items():
                assert np.array_equal(out, reference[key]), key
            _assert_conserved(server, N_THREADS * REQUESTS_PER_THREAD,
                              tickets)


class TestAsyncApi:
    def test_submit_async_returns_future_with_ticket(self):
        with ModelServer(BatchPolicy(max_batch=1), workers=2) as server:
            server.register("m", _session(seed=0))
            future = server.submit_async("m", _request(0, 0))
            assert isinstance(future, Future)
            out = future.result(timeout=30.0)
            assert out.shape == (2, 8)
            assert future.ticket.done
            assert future.ticket.record is not None

    def test_submit_async_without_pool_resolves_eagerly(self):
        server = ModelServer(BatchPolicy(max_batch=1))
        server.register("m", _session(seed=0))
        future = server.submit_async("m", _request(0, 1))
        assert future.done()
        assert future.result().shape == (2, 8)

    def test_submit_async_failure_lands_in_future(self):
        with ModelServer(BatchPolicy(max_batch=1), workers=2) as server:
            server.register("m", _session(seed=0))
            future = server.submit_async("m", np.zeros((2, 12)))  # bad dim
            with pytest.raises(Exception):
                future.result(timeout=30.0)

    def test_submit_async_inline_failure_lands_in_future_too(self):
        """workers=0 fires the batch on this thread; the error must still
        arrive through the future, never as a synchronous raise — the API
        contract is identical with and without a pool."""
        server = ModelServer(BatchPolicy(max_batch=1))
        server.register("m", _session(seed=0))
        future = server.submit_async("m", np.zeros((2, 12)))  # bad dim
        assert future.done()
        with pytest.raises(ValueError):
            future.result()

    def test_async_requests_coalesce_under_delay_policy(self):
        """The serving worker waits out max_delay_s for riders: quickly
        submitted async requests must fuse into one engine batch instead of
        degenerating to batches of one whenever a worker is free."""
        with ModelServer(BatchPolicy(max_batch=3, max_delay_s=0.25),
                         workers=1) as server:
            server.register("m", _session(seed=0))
            futures = [server.submit_async("m", _request(5, i))
                       for i in range(3)]
            for future in futures:
                future.result(timeout=30.0)
            assert all(f.ticket.batch_size == 3 for f in futures), \
                [f.ticket.batch_size for f in futures]
            assert server.entry("m").batcher.n_batches == 1

    def test_cancelled_future_dequeues_request(self):
        """future.cancel() before pickup must drop the payload too — a
        cancelled request never rides someone else's batch."""
        from concurrent.futures import CancelledError

        with ModelServer(BatchPolicy(max_batch=16, max_delay_s=60.0),
                         workers=1) as server:
            server.register("m", _session(seed=0))
            gate = threading.Event()
            blocker = server.pool.submit(gate.wait, 10.0)  # occupy worker
            future = server.submit_async("m", _request(6, 0))
            assert future.cancel()
            gate.set()
            blocker.result(timeout=30.0)
            batcher = server.entry("m").batcher
            assert batcher.depth == 0
            assert batcher.n_cancelled == 1
            with pytest.raises(CancelledError):
                future.ticket.result()
            assert server.metrics().n_cancelled == 1
            # The deployment stays serviceable after a cancellation (the
            # 60 s delay policy means a lone request waits for riders, so
            # force service exactly like an inline caller would).
            replacement = server.submit_async("m", _request(6, 1))
            server.flush("m")
            assert replacement.result(timeout=30.0).shape == (2, 8)

    def test_parallel_flush_drains_all_deployments(self):
        with ModelServer(BatchPolicy(max_batch=16, max_delay_s=60.0),
                         workers=3) as server:
            for d in range(N_DEPLOYMENTS):
                server.register(f"m{d}", _session(seed=d))
            tickets = [server.submit(_deployment_for(0, i), _request(3, i))
                       for i in range(9)]
            assert not all(t.done for t in tickets)
            served = server.flush()
            assert served == 9
            assert all(t.done for t in tickets)

    def test_close_is_idempotent_and_reusable_inline(self):
        server = ModelServer(workers=2)
        server.register("m", _session(seed=0))
        server.close()
        server.close()

    def test_close_with_poison_batch_still_drains_and_joins_pool(self):
        """A failing drain must not strand other deployments' queues or
        leak the pool's threads; the failure re-raises after cleanup."""
        server = ModelServer(BatchPolicy(max_batch=16, max_delay_s=60.0),
                             workers=2)
        server.register("bad", _session(seed=1))     # drains first
        server.register("good", _session(seed=0))
        server.entry("bad").batcher.submit(np.zeros((2, 12)),  # wrong dim
                                           fire=False)
        good_ticket = server.submit("good", _request(0, 0))
        with pytest.raises(ValueError, match="shape mismatch"):
            server.close()
        assert good_ticket.done                       # later queue drained
        with pytest.raises(RuntimeError, match="shut-down"):
            server.pool.submit(lambda: None)          # pool joined


class TestSessionThreadSafety:
    def test_concurrent_runs_on_one_session_conserve_accounting(self):
        """stats() must not race concurrent run() calls (shared counters
        under the lock), and serving keeps nothing in the shared trace."""
        session = _session(seed=0)
        n_threads, per_thread = 6, 8
        errors = []
        barrier = threading.Barrier(n_threads)

        def worker(thread_id):
            try:
                barrier.wait(timeout=10.0)
                for i in range(per_thread):
                    session.run(_request(thread_id, i))
                    session.stats()          # interleaved reader
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        stats = session.stats()
        assert stats["n_requests"] == n_threads * per_thread
        assert session.trace.records == []
        assert stats["n_layer_calls"] == 2 * n_threads * per_thread

    def test_concurrent_coalesced_runs_are_bit_exact(self):
        session = _session(seed=1)
        solo = _session(seed=1)
        streams = [[_request(t, i) for i in range(4)] for t in range(4)]
        expected = [[solo.run(x) for x in stream] for stream in streams]
        outputs = [None] * 4
        errors = []

        def worker(t):
            try:
                outputs[t] = session.run_coalesced(streams[t])
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors, errors
        for got, expect in zip(outputs, expected):
            for a, b in zip(got, expect):
                assert np.array_equal(a, b)
