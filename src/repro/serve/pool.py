"""Worker-pool execution: drain micro-batches from many deployments at once.

:class:`WorkerPool` is the concurrency substrate of the serving runtime — a
fixed set of daemon threads consuming tasks from one FIFO queue.  The
:class:`~repro.serve.server.ModelServer` dispatches ``submit_async`` ticket
service onto it, so every deployment's engine can be busy simultaneously
while each *session* stays internally serialized (see
:class:`~repro.engine.session.PanaceaSession` — plans are shared read-only,
per-request accounting is under the session lock).  Explicit drains
(``flush``/``pump``) intentionally bypass the pool: a "drain now" request
must not queue behind serve tasks waiting out rider windows.

Unlike a bare ``ThreadPoolExecutor`` the pool keeps per-worker accounting:
tasks run, busy seconds, and utilization (busy / alive wall time), surfaced
through :meth:`stats` into :class:`~repro.serve.metrics.ServerMetrics`.
"Busy" means *executing a task*, including any time that task spends
waiting inside the serving stack (a deployment's service lock, a rider
wait) — it measures whether the workers have work, not whether the engines
overlap.  For engine-level overlap, compare the sum of per-deployment
``session.stats()['exec_s']`` against wall time.

**Nested submission.**  A task may submit work to its own pool and wait on
it, but :meth:`wait` is a plain block: the nested work needs a free worker,
so a task that waits on the pool must leave one (a fixed pool whose every
worker waits on queued tasks deadlocks).
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Protocol, runtime_checkable

__all__ = ["BackendCapabilityError", "ExecutorBackend", "PoolShutdownError",
           "WorkerPool", "WorkerStats"]


class PoolShutdownError(RuntimeError):
    """Submission refused: the pool's ``shutdown()`` already ran.

    Raised by :meth:`WorkerPool.submit` and
    :meth:`~repro.serve.procpool.ProcessWorkerPool.submit` alike, so
    callers can distinguish "the serving tier is going down" from any
    other runtime failure.  A ``RuntimeError`` subclass: pre-existing
    handlers keep working.
    """


class BackendCapabilityError(TypeError, ValueError):
    """A deployment asked an execution backend for something it cannot do.

    The one typed refusal for backend/capability mismatches — a server
    register that a backend cannot host, or a decode request on a
    deployment executing in worker processes.  Inherits both
    ``TypeError`` and ``ValueError`` (the historical type of
    ModelServer's register refusals), so pre-existing handlers of either
    keep working.
    """


@runtime_checkable
class ExecutorBackend(Protocol):
    """The execution surface shared by thread and process pools.

    :class:`WorkerPool` (threads) and
    :class:`~repro.serve.procpool.ProcessWorkerPool` (spawned processes)
    both implement this protocol; schedulers dispatch on the
    :attr:`crosses_process` capability flag instead of isinstance checks,
    so a new backend only has to declare what it can do.

    ``crosses_process=False`` means tasks share the caller's address space
    — closures and live objects are fine.  ``crosses_process=True`` means
    payloads cross a process boundary: tasks must be picklable and model
    state travels by plan store.
    """

    #: Capability flag: do this backend's tasks execute in another process?
    crosses_process: bool

    @property
    def workers(self) -> int: ...

    def submit(self, fn, /, *args, **kwargs) -> Future: ...

    def run_all(self, thunks) -> list: ...

    def wait(self, futures) -> None: ...

    def stats(self) -> dict: ...

    def shutdown(self, wait: bool = True) -> None: ...


@dataclass
class WorkerStats:
    """Lifetime accounting of one pool worker.

    ``busy_since`` marks an in-flight task's start; all views fold that
    partial time in, so a worker 30 s into a long batch reads as busy —
    exactly the slow-drain moment a dashboard must not report as idle.
    """

    worker_id: int
    n_tasks: int = 0
    busy_s: float = 0.0
    started_t: float = 0.0
    busy_since: float | None = None

    def _busy_total(self, now: float) -> float:
        in_flight = (now - self.busy_since) if self.busy_since is not None \
            else 0.0
        return self.busy_s + max(0.0, in_flight)

    def utilization(self, now: float) -> float:
        """Busy fraction of this worker's alive wall time, in [0, 1]."""
        alive = now - self.started_t
        return min(1.0, self._busy_total(now) / alive) if alive > 0 else 0.0

    def summary(self, now: float) -> dict:
        return {
            "worker_id": self.worker_id,
            "n_tasks": self.n_tasks,
            "busy_s": self._busy_total(now),
            "utilization": self.utilization(now),
        }


class WorkerPool:
    """Fixed thread pool with per-worker utilization accounting.

    ``submit`` returns a :class:`concurrent.futures.Future`; exceptions
    propagate through ``future.result()`` exactly as they would from a
    synchronous call.  ``shutdown`` drains (or abandons) the queue and joins
    the workers; the pool is a context manager for scoped use.
    """

    #: ExecutorBackend capability: tasks run in this process — closures
    #: and live sessions work.
    crosses_process = False

    def __init__(self, workers: int, *, clock=time.perf_counter,
                 name: str = "repro-serve") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.clock = clock
        self._tasks: queue.Queue = queue.Queue()
        self._shutdown = False
        self._lock = threading.Lock()
        now = self.clock()
        self._worker_stats = [WorkerStats(worker_id=i, started_t=now)
                              for i in range(workers)]
        self._threads = [
            threading.Thread(target=self._worker_loop, args=(i,),
                             name=f"{name}-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- task intake ----------------------------------------------------------
    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)``; returns its future."""
        return self._submit(None, fn, args, kwargs)

    def submit_traced(self, span, fn, /, *args, **kwargs) -> Future:
        """:meth:`submit` that annotates ``span`` with pool-side facts.

        When the task starts, the span (any open span of the request's
        trace — typically the root) gains ``pool_queue_wait_s`` (time
        spent queued behind other deployments' drains) and
        ``pool_worker``.  Attributes only: the pool adds no spans of
        its own, so the trace's span count stays identical whether a
        request was drained by a pool worker or served inline.
        """
        return self._submit(span, fn, args, kwargs)

    def _submit(self, span, fn, args, kwargs) -> Future:
        with self._lock:
            if self._shutdown:
                raise PoolShutdownError(
                    "cannot submit to a shut-down WorkerPool")
            future: Future = Future()
            traced = (span, self.clock()) if span is not None else None
            self._tasks.put((future, fn, args, kwargs, traced))
        return future

    def run_all(self, thunks) -> list:
        """Run callables concurrently, return results in order (barrier).

        Every thunk is queued before any result is awaited, so ``workers``
        of them execute at once.  The first exception propagates after all
        thunks finished or failed (no thunk is silently abandoned
        mid-flight).
        """
        futures = [self.submit(thunk) for thunk in thunks]
        self.wait(futures)
        results, first_error = [], None
        for future in futures:
            try:
                results.append(future.result())
            except Exception as exc:
                if first_error is None:
                    first_error = exc
                results.append(None)
        if first_error is not None:
            raise first_error
        return results

    def wait(self, futures) -> None:
        """Block until every future is done.

        Does not raise; collect results/exceptions from the futures
        afterwards.
        """
        futures_wait(list(futures))

    # -- worker side ----------------------------------------------------------
    def _worker_loop(self, worker_id: int) -> None:
        while True:
            task = self._tasks.get()
            if task is None:          # shutdown sentinel
                self._tasks.task_done()
                return
            self._run_task(worker_id, task)

    def _run_task(self, worker_id: int, task) -> None:
        """Execute one queued task, resolve its future, account its time."""
        stats = self._worker_stats[worker_id]
        future, fn, args, kwargs, traced = task
        if not future.set_running_or_notify_cancel():
            self._tasks.task_done()
            return
        t0 = self.clock()
        if traced is not None:
            span, t_submit = traced
            span.attrs["pool_queue_wait_s"] = max(0.0, t0 - t_submit)
            span.attrs["pool_worker"] = worker_id
        with self._lock:
            stats.busy_since = t0
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 — future carries it
            future.set_exception(exc)
        else:
            future.set_result(result)
        finally:
            elapsed = self.clock() - t0
            with self._lock:
                stats.n_tasks += 1
                stats.busy_s += elapsed
                stats.busy_since = None
            self._tasks.task_done()

    # -- lifecycle ------------------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._threads)

    def shutdown(self, wait: bool = True) -> None:
        """Stop the workers; idempotent.

        Already-queued tasks always run to completion either way — each
        worker exits when it reaches its sentinel, which is queued *after*
        all pending work.  ``wait=True`` additionally joins the workers so
        every queued future is resolved on return; ``wait=False`` only
        stops new submissions and returns immediately while the daemon
        workers keep draining in the background.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        for _ in self._threads:
            self._tasks.put(None)
        if wait:
            for thread in self._threads:
                thread.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    # -- observability --------------------------------------------------------
    def stats(self) -> dict:
        """Pool summary: totals plus the per-worker utilization list."""
        now = self.clock()
        with self._lock:
            per_worker = [w.summary(now) for w in self._worker_stats]
        n_tasks = sum(w["n_tasks"] for w in per_worker)
        busy_s = sum(w["busy_s"] for w in per_worker)
        return {
            "workers": self.workers,
            "n_tasks": n_tasks,
            "busy_s": busy_s,
            "mean_utilization": (sum(w["utilization"] for w in per_worker)
                                 / len(per_worker)),
            "queue_depth": self._tasks.qsize(),
            "per_worker": per_worker,
        }
