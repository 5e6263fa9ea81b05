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

**Nested submission.**  A task may itself submit downstream work to the
same pool and wait on it (a ``run_all`` inside a ``run_all``).  A naive
fixed pool deadlocks here
(every worker blocked waiting on queued tasks no worker is free to run), so
:meth:`wait` and :meth:`run_all` detect that they are on a pool worker and
*help*: they drain queued tasks inline while waiting.

Helping is **group-scoped**: the waiter only executes tasks submitted under
its own group tag (:meth:`submit_grouped`) and re-queues anything else.
Unscoped helping is a deadlock of its own — a serving worker waiting on
its nested tasks must not be handed another serve task that blocks on the
very service lock the waiter holds.  Its *own* nested tasks are safe by
construction: the waiter submitted them, so they cannot need a lock it
already took.  Helped tasks run inside the waiting task's already-ticking
busy window, so they count toward ``n_tasks`` (and the pool-level
``n_helped``) but add **no** ``busy_s`` — nested work must not report
more busy seconds than wall time exists.
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
    — closures and live objects are fine, and nested submission is safe
    through group-scoped helping.  ``crosses_process=True`` means payloads
    cross a process boundary: tasks must be picklable and model state
    travels by plan store.
    """

    #: Capability flag: do this backend's tasks execute in another process?
    crosses_process: bool

    @property
    def workers(self) -> int: ...

    def submit(self, fn, /, *args, **kwargs) -> Future: ...

    def run_all(self, thunks) -> list: ...

    def wait(self, futures, *, help_group=None) -> None: ...

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

    #: ExecutorBackend capability: tasks run in this process — closures,
    #: live sessions and nested helping all work.
    crosses_process = False

    def __init__(self, workers: int, *, clock=time.perf_counter,
                 name: str = "repro-serve") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.clock = clock
        self._tasks: queue.Queue = queue.Queue()
        self._shutdown = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._n_helped = 0
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
        return self._submit(None, None, fn, args, kwargs)

    def submit_grouped(self, group, fn, /, *args, **kwargs) -> Future:
        """Schedule a task under a help group (see :meth:`wait`).

        ``group`` is any token identifying a nested work set — typically a
        fresh ``object()`` per logical drain.  A :meth:`wait` with the same
        group may execute this task inline on the waiting worker; every
        other waiter leaves it to the worker loop.
        """
        return self._submit(group, None, fn, args, kwargs)

    def submit_traced(self, span, fn, /, *args, **kwargs) -> Future:
        """:meth:`submit` that annotates ``span`` with pool-side facts.

        When the task starts, the span (any open span of the request's
        trace — typically the root) gains ``pool_queue_wait_s`` (time
        spent queued behind other deployments' drains), ``pool_worker``
        and ``pool_helped``.  Attributes only: the pool adds no spans of
        its own, so the trace's span count stays identical whether a
        request was drained by a pool worker or served inline.
        """
        return self._submit(None, span, fn, args, kwargs)

    def _submit(self, group, span, fn, args, kwargs) -> Future:
        with self._lock:
            if self._shutdown:
                raise PoolShutdownError(
                    "cannot submit to a shut-down WorkerPool")
            future: Future = Future()
            traced = (span, self.clock()) if span is not None else None
            # Group stays the tuple's last slot: the helping scan keys on
            # ``task[-1]``.
            self._tasks.put((future, fn, args, kwargs, traced, group))
        return future

    def run_all(self, thunks) -> list:
        """Run callables concurrently, return results in order (barrier).

        Every thunk is queued before any result is awaited, so ``workers``
        of them execute at once.  The first exception propagates after all
        thunks finished or failed (no thunk is silently abandoned
        mid-flight).  Safe to call from a pool worker: the thunks are
        tagged as one help group and the waiting worker executes them
        inline (see :meth:`wait`), so nested ``run_all`` never deadlocks
        the fixed pool.
        """
        group = object()
        futures = [self.submit_grouped(group, thunk) for thunk in thunks]
        self.wait(futures, help_group=group)
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

    def wait(self, futures, *, help_group=None) -> None:
        """Block until every future is done, helping if on a pool worker.

        From a non-worker thread this is a plain wait.  From a pool worker
        with a ``help_group``, queued tasks of that group execute inline
        while any future is pending — the fix that makes nested submission
        (a task waiting on tasks it submitted) safe on a fixed pool.
        Helping is restricted to the waiter's own group because a foreign
        task may block on a lock the waiting task holds (a serve task of
        the deployment whose service lock the waiter took — the classic
        inversion); tasks the waiter submitted itself cannot.  Does not
        raise; collect results/exceptions from the futures afterwards.
        """
        futures = list(futures)
        if help_group is not None \
                and getattr(self._local, "worker_id", None) is not None:
            self._help_while_pending(futures, help_group)
        futures_wait(futures)

    def _help_while_pending(self, futures, help_group) -> None:
        """Run same-group queued tasks until the futures resolve.

        Helped tasks execute inside this worker's current busy window, so
        they are accounted with ``helped=True`` — counted, not re-timed.
        Foreign-group tasks are re-queued untouched (another worker — or
        their own group's waiter — runs them); after re-queueing, and when
        the queue runs dry while futures are still mid-flight on other
        workers, the loop falls back to short timed waits so it never
        spins hot.  A popped shutdown sentinel is put back and helping
        stops — the remaining futures resolve as the workers drain.
        """
        empty = object()
        while not all(f.done() for f in futures):
            try:
                task = self._tasks.get_nowait()
            except queue.Empty:
                task = empty
            if task is empty or task is None or task[-1] is not help_group:
                if task is not empty:
                    # Foreign task or shutdown sentinel: not ours to run
                    # (or eat) — put it back for the worker loop.
                    self._tasks.put(task)
                    self._tasks.task_done()
                pending = [f for f in futures if not f.done()]
                if pending:
                    futures_wait(pending, timeout=0.001)
                continue
            self._run_task(task, helped=True)

    # -- worker side ----------------------------------------------------------
    def _worker_loop(self, worker_id: int) -> None:
        self._local.worker_id = worker_id
        while True:
            task = self._tasks.get()
            if task is None:          # shutdown sentinel
                self._tasks.task_done()
                return
            self._run_task(task, helped=False)

    def _run_task(self, task, *, helped: bool) -> None:
        """Execute one queued task and resolve its future.

        ``helped=False`` is the worker-loop path: the task's wall time lands
        in the worker's ``busy_s``.  ``helped=True`` is the nested path — a
        worker executing a queued task *inside another task's* busy window
        (see :meth:`wait`): the task still runs and counts, but its time is
        already covered by the outer window, so ``busy_s`` is untouched
        (double-counting would report utilization above wall time).
        """
        stats = self._worker_stats[self._local.worker_id]
        future, fn, args, kwargs, traced, _group = task
        if not future.set_running_or_notify_cancel():
            self._tasks.task_done()
            return
        t0 = self.clock()
        if traced is not None:
            span, t_submit = traced
            span.attrs["pool_queue_wait_s"] = max(0.0, t0 - t_submit)
            span.attrs["pool_worker"] = self._local.worker_id
            span.attrs["pool_helped"] = helped
        if not helped:
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
                if helped:
                    self._n_helped += 1
                else:
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
            n_helped = self._n_helped
        n_tasks = sum(w["n_tasks"] for w in per_worker)
        busy_s = sum(w["busy_s"] for w in per_worker)
        return {
            "workers": self.workers,
            "n_tasks": n_tasks,
            "n_helped": n_helped,
            "busy_s": busy_s,
            "mean_utilization": (sum(w["utilization"] for w in per_worker)
                                 / len(per_worker)),
            "queue_depth": self._tasks.qsize(),
            "per_worker": per_worker,
        }
