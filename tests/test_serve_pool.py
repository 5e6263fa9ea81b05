"""Tests for WorkerPool: futures, ordering, accounting, shutdown."""

import threading
import time

import pytest

from repro.serve import WorkerPool


class TestSubmit:
    def test_result_round_trip(self):
        with WorkerPool(2) as pool:
            assert pool.submit(lambda: 41 + 1).result() == 42

    def test_args_and_kwargs(self):
        with WorkerPool(1) as pool:
            future = pool.submit(divmod, 7, 3)
            assert future.result() == (2, 1)
            future = pool.submit(int, "ff", base=16)
            assert future.result() == 255

    def test_exception_propagates_through_future(self):
        with WorkerPool(1) as pool:
            future = pool.submit(lambda: 1 / 0)
            with pytest.raises(ZeroDivisionError):
                future.result()

    def test_tasks_actually_overlap(self):
        """Two blocking tasks on two workers release each other — proof the
        pool runs them concurrently, not sequentially."""
        gate_a, gate_b = threading.Event(), threading.Event()

        def task_a():
            gate_a.set()
            assert gate_b.wait(5.0)
            return "a"

        def task_b():
            assert gate_a.wait(5.0)
            gate_b.set()
            return "b"

        with WorkerPool(2) as pool:
            fa, fb = pool.submit(task_a), pool.submit(task_b)
            assert fa.result(timeout=5.0) == "a"
            assert fb.result(timeout=5.0) == "b"

    def test_run_all_preserves_order(self):
        with WorkerPool(3) as pool:
            results = pool.run_all([lambda i=i: i * i for i in range(8)])
        assert results == [i * i for i in range(8)]

    def test_run_all_raises_first_error_after_draining(self):
        done = []

        def ok(i):
            done.append(i)
            return i

        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.run_all([
                    lambda: ok(0),
                    lambda: (_ for _ in ()).throw(RuntimeError("boom")),
                    lambda: ok(2),
                ])
        assert sorted(done) == [0, 2]    # later thunks were not abandoned


class TestAccounting:
    def test_stats_count_tasks_and_busy_time(self):
        with WorkerPool(2) as pool:
            pool.run_all([lambda: time.sleep(0.01) for _ in range(4)])
            stats = pool.stats()
        assert stats["workers"] == 2
        assert stats["n_tasks"] == 4
        assert stats["busy_s"] >= 0.04
        assert len(stats["per_worker"]) == 2
        assert sum(w["n_tasks"] for w in stats["per_worker"]) == 4

    def test_in_flight_task_counts_as_busy(self):
        """A worker mid-task must read busy, not idle — the slow-drain
        moment is exactly when the dashboard matters."""
        now = [0.0]
        started, release = threading.Event(), threading.Event()

        def task():
            started.set()
            release.wait(5.0)

        with WorkerPool(1, clock=lambda: now[0]) as pool:
            future = pool.submit(task)
            assert started.wait(5.0)         # task is now in flight
            now[0] = 2.0
            stats = pool.stats()
            release.set()
            future.result(timeout=5.0)
        assert stats["per_worker"][0]["busy_s"] == pytest.approx(2.0)
        assert stats["mean_utilization"] > 0.0

    def test_utilization_bounded(self):
        with WorkerPool(2) as pool:
            pool.run_all([lambda: time.sleep(0.005) for _ in range(4)])
            stats = pool.stats()
        for worker in stats["per_worker"]:
            assert 0.0 <= worker["utilization"] <= 1.0
        assert 0.0 <= stats["mean_utilization"] <= 1.0


class TestLifecycle:
    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            WorkerPool(0)

    def test_shutdown_waits_for_queued_tasks(self):
        pool = WorkerPool(1)
        results = []
        futures = [pool.submit(lambda i=i: results.append(i))
                   for i in range(5)]
        pool.shutdown(wait=True)
        assert all(f.done() for f in futures)
        assert sorted(results) == list(range(5))

    def test_submit_after_shutdown_rejected(self):
        from repro.serve import PoolShutdownError

        pool = WorkerPool(1)
        pool.shutdown()
        # The typed error lets supervisors distinguish "pool is gone" from
        # task failures; it stays a RuntimeError for older callers.
        with pytest.raises(PoolShutdownError, match="shut-down"):
            pool.submit(lambda: None)
        assert issubclass(PoolShutdownError, RuntimeError)

    def test_shutdown_idempotent(self):
        pool = WorkerPool(2)
        pool.shutdown()
        pool.shutdown()


class TestNestedSubmission:
    """A task may submit work to its own pool and wait on it while another
    worker is free to run it."""

    def test_nested_exception_propagates(self):
        with WorkerPool(2) as pool:
            def outer():
                return pool.run_all([lambda: 1 / 0])

            with pytest.raises(ZeroDivisionError):
                pool.run_all([outer])

    def test_wait_without_group_never_helps(self):
        """wait() on a worker is a plain block: the nested task runs on the
        other worker."""
        with WorkerPool(2) as pool:
            def outer():
                future = pool.submit(lambda: 42)
                pool.wait([future])
                return future.result()

            assert pool.submit(outer).result(timeout=30) == 42
