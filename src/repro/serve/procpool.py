"""Process-backed worker pool: serving parallelism on real cores.

:class:`ProcessWorkerPool` mirrors the :class:`~repro.serve.pool.WorkerPool`
API (``submit``/``run_all``/``wait``/``stats``/context-manager shutdown)
but executes on **spawned worker processes**, so deployments run outside
the GIL — the refactor that turns the thread tier's 0.98x "concurrency"
into real multi-core throughput.

Architecture (one slot per worker):

* a spawned process running :func:`~repro.serve.procworker.worker_main`,
  its BLAS pools pinned to ``blas_threads`` via the parent's environment
  window around ``Process.start()`` (children inherit the capped
  environment; OpenBLAS/MKL/OMP read it at library load);
* a duplex control pipe carrying small tagged tuples — never ndarrays;
* a :class:`~repro.serve.shm.ShmRing` pair for request/response arrays
  (frame offsets cross the pipe, payload bytes never do), with automatic
  pipe fallback for frames bigger than a ring;
* a parent-side dispatcher thread that owns the slot's protocol: it pulls
  tasks (shared FIFO queue, or the slot's direct deque for targeted work
  like deployment loads), performs the round trip, and resolves the
  future.  One round trip in flight per worker is the ring's safety
  contract.

Deployments are **rehydrated, not pickled**: :meth:`load_deployment`
broadcasts a :class:`~repro.serve.store.PlanStore` path (plus the stored
proxy-zoo reference or a picklable ``model_factory``) and every worker
rebuilds the session locally, so any worker can serve any deployment.

Crash semantics: a worker dying mid-task (segfault, OOM-kill, ``os._exit``)
fails **only the in-flight task** — its future raises
:class:`WorkerCrashError` — then the slot respawns a fresh process, replays
the deployment loads, and keeps draining the queue.  A worker found dead
*before* a task was delivered is respawned and the task retried once
(nothing was executing, so the retry is safe even for non-idempotent work).
"""

from __future__ import annotations

import collections
import os
import queue
import threading
import time
from concurrent.futures import Future
from concurrent.futures import wait as futures_wait
from contextlib import contextmanager

import numpy as np

from .pool import PoolShutdownError, WorkerStats
from .procworker import BLAS_ENV_VARS, worker_main
from .shm import DEFAULT_RING_BYTES, ShmRing

__all__ = ["ProcessWorkerPool", "ProcessSessionProxy", "WorkerCrashError"]


class WorkerCrashError(RuntimeError):
    """A worker process died while a task was in flight.

    Only that task fails; the pool respawns the worker and later tasks
    proceed.  Riders of a crashed serving batch see this error through
    their tickets exactly like a poison-batch failure.
    """


class _SendCrash(Exception):
    """Internal: the child was dead before the task message was delivered."""


_SPAWN_ENV_LOCK = threading.Lock()


@contextmanager
def _spawn_blas_env(threads: int):
    """Cap BLAS env vars for the duration of a child spawn, then restore.

    The spawned interpreter inherits the capped environment, so its BLAS
    libraries come up pinned no matter what the child imports first — the
    only mechanism that also covers ``__main__`` re-imports pulling numpy
    during spawn bootstrap.
    """
    with _SPAWN_ENV_LOCK:
        saved = {var: os.environ.get(var) for var in BLAS_ENV_VARS}
        os.environ.update({var: str(int(threads))
                           for var in BLAS_ENV_VARS})
        try:
            yield
        finally:
            for var, old in saved.items():
                if old is None:
                    os.environ.pop(var, None)
                else:
                    os.environ[var] = old


class _Slot:
    """One worker's parent-side state; owned by its dispatcher thread."""

    __slots__ = ("worker_id", "process", "conn", "req_ring", "resp_ring",
                 "stats", "direct", "n_pipe_fallback")

    def __init__(self, worker_id: int, started_t: float) -> None:
        self.worker_id = worker_id
        self.process = None
        self.conn = None
        self.req_ring = None
        self.resp_ring = None
        self.stats = WorkerStats(worker_id=worker_id, started_t=started_t)
        self.direct: collections.deque = collections.deque()
        self.n_pipe_fallback = 0


class ProcessWorkerPool:
    """Fixed pool of spawned worker processes behind the WorkerPool API.

    ``submit`` accepts **picklable** callables (module-level functions and
    their picklable arguments) — the cross-process analogue of the thread
    pool's task path; serving traffic uses :meth:`load_deployment` /
    :meth:`serve`, which move model state by plan store and activations by
    shared memory.  ``blas_threads`` defaults to an even split of the machine's
    cores across the workers, the no-oversubscription point.
    """

    #: ExecutorBackend capability: tasks execute in spawned processes —
    #: payloads must pickle and model state travels by plan store.
    crosses_process = True

    def __init__(self, workers: int, *, blas_threads: int | None = None,
                 ring_bytes: int = DEFAULT_RING_BYTES,
                 name: str = "repro-procserve") -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        import multiprocessing

        # spawn, never fork: a forked child would clone the parent's
        # thread locks mid-state, and fork defeats the BLAS environment
        # window (the child inherits already-initialized thread pools).
        self._ctx = multiprocessing.get_context("spawn")
        if blas_threads is None:
            blas_threads = max(1, (os.cpu_count() or 1) // workers)
        self.blas_threads = int(blas_threads)
        self.ring_bytes = int(ring_bytes)
        self._name = name
        self._tasks: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._shutdown = False
        self._n_crashes = 0
        self._n_retried = 0
        self._deployments: dict[str, tuple] = {}
        now = time.perf_counter()
        self._slots = [_Slot(i, now) for i in range(workers)]
        for slot in self._slots:
            self._spawn(slot)
        self._threads = [
            threading.Thread(target=self._dispatch_loop, args=(slot,),
                             name=f"{name}-dispatch-{slot.worker_id}",
                             daemon=True)
            for slot in self._slots
        ]
        for thread in self._threads:
            thread.start()

    # -- child lifecycle ------------------------------------------------------
    def _spawn(self, slot: _Slot) -> None:
        """Stand up one worker: rings, pipe, pinned spawned process."""
        slot.req_ring = ShmRing(self.ring_bytes)
        slot.resp_ring = ShmRing(self.ring_bytes)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, slot.req_ring.name, slot.resp_ring.name,
                  slot.worker_id, self.blas_threads),
            name=f"{self._name}-{slot.worker_id}", daemon=True)
        with _spawn_blas_env(self.blas_threads):
            process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn

    def _teardown(self, slot: _Slot, *, timeout: float = 5.0) -> None:
        """Tear one worker down hard; safe on an already-dead child."""
        if slot.conn is not None:
            try:
                slot.conn.close()
            except OSError:
                pass
        if slot.process is not None:
            slot.process.join(timeout=timeout)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=timeout)
        for ring in (slot.req_ring, slot.resp_ring):
            if ring is not None:
                ring.close()
        slot.conn = slot.req_ring = slot.resp_ring = None

    def _respawn(self, slot: _Slot) -> None:
        """Replace a dead worker and replay its deployment loads."""
        with self._lock:
            self._n_crashes += 1
            specs = list(self._deployments.items())
        self._teardown(slot, timeout=1.0)
        self._spawn(slot)
        for deployment_name, (store_path, model_factory,
                              load_kwargs) in specs:
            try:
                self._round_trip(slot, ("load", deployment_name, store_path,
                                        model_factory, load_kwargs))
            except Exception:  # noqa: BLE001 — a serve will resurface it
                # The replacement worker serves what it could reload; a
                # deployment whose store went bad fails per-request with
                # the child's error instead of wedging the whole slot.
                continue

    # -- protocol -------------------------------------------------------------
    def _round_trip(self, slot: _Slot, message):
        """One send/recv exchange; crashes are typed for the caller."""
        try:
            slot.conn.send(message)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise _SendCrash(str(exc)) from exc
        try:
            reply = slot.conn.recv()
        except (EOFError, ConnectionError, OSError) as exc:
            raise WorkerCrashError(
                f"worker {slot.worker_id} (pid "
                f"{getattr(slot.process, 'pid', '?')}) died mid-task; "
                "only this task fails — the worker is respawned") from exc
        if reply[0] == "error":
            raise reply[1]
        return reply

    def _execute_once(self, slot: _Slot, kind: str, payload):
        """Build the wire message (fresh per attempt) and exchange it."""
        if kind == "serve":
            deployment_name, batches, pad_axis, pad_value, trace_id = payload
            arrays = [np.ascontiguousarray(np.asarray(b)) for b in batches]
            offset = slot.req_ring.write(slot.req_ring.n_frames, arrays,
                                         trace_id=trace_id)
            fallback = None
            if offset is None:
                slot.n_pipe_fallback += 1
                fallback = arrays
            # The trace id rides the pipe envelope too, so the pipe
            # fallback path propagates it even when no frame was written.
            reply = self._round_trip(
                slot, ("serve", deployment_name, pad_axis, pad_value,
                       offset, fallback, trace_id))
            _, out_offset, fb_outputs, metas = reply
            if out_offset is not None:
                # Copy out: the child reuses the response slot on its
                # next reply, so parent-held outputs must not alias it.
                _, _, outputs = slot.resp_ring.read(out_offset, copy=True)
            else:
                slot.n_pipe_fallback += 1
                outputs = fb_outputs
            return outputs, metas
        return self._round_trip(slot, (kind, *payload))[1]

    def _execute(self, slot: _Slot, kind: str, payload):
        """Run one task on the slot, absorbing a pre-delivery crash.

        A send that finds the pipe already broken means the child died
        *between* tasks — nothing was executing, so after a respawn the
        task retries once.  A crash after delivery (recv fails) is the
        real mid-task case: it propagates as :class:`WorkerCrashError`
        after the respawn, failing only this task.
        """
        try:
            return self._execute_once(slot, kind, payload)
        except _SendCrash:
            with self._lock:
                self._n_retried += 1
            self._respawn(slot)
            return self._execute_once(slot, kind, payload)
        except WorkerCrashError:
            self._respawn(slot)
            raise

    # -- dispatcher side ------------------------------------------------------
    def _dispatch_loop(self, slot: _Slot) -> None:
        while True:
            if slot.direct:
                task = slot.direct.popleft()
            else:
                try:
                    # Short poll: direct work (deployment loads and stats
                    # queries land in the slot's deque) must not wait out
                    # a long shared-queue timeout.
                    task = self._tasks.get(timeout=0.002)
                except queue.Empty:
                    # Idle liveness: a worker killed *between* tasks would
                    # otherwise go undetected until a send to it fails —
                    # and a busy sibling can drain the whole queue first,
                    # leaving the corpse listed in pids indefinitely.
                    if (slot.process is not None
                            and not slot.process.is_alive()
                            and not self._shutdown):
                        self._respawn(slot)
                    continue
                if task is None:          # shutdown sentinel
                    break
            self._run_task(slot, task)
        while slot.direct:                # targeted work queued pre-shutdown
            self._run_task(slot, slot.direct.popleft())
        try:
            self._round_trip(slot, None)  # polite goodbye
        except (_SendCrash, WorkerCrashError, Exception):  # noqa: BLE001
            pass
        self._teardown(slot)

    def _run_task(self, slot: _Slot, task) -> None:
        future, kind, payload = task
        if not future.set_running_or_notify_cancel():
            return
        t0 = time.perf_counter()
        with self._lock:
            slot.stats.busy_since = t0
        try:
            result = self._execute(slot, kind, payload)
        except BaseException as exc:  # noqa: BLE001 — future carries it
            if isinstance(exc, _SendCrash):
                exc = WorkerCrashError(
                    f"worker {slot.worker_id} died before task delivery "
                    f"(twice): {exc}")
            future.set_exception(exc)
        else:
            future.set_result(result)
        finally:
            with self._lock:
                slot.stats.n_tasks += 1
                slot.stats.busy_s += time.perf_counter() - t0
                slot.stats.busy_since = None

    # -- task intake (WorkerPool API) -----------------------------------------
    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)`` on some worker process.

        Everything crosses a process boundary, so ``fn`` and its arguments
        must pickle (module-level functions; no lambdas or closures) and
        the result travels back by value.
        """
        return self._enqueue("call", (fn, args, kwargs))

    def _enqueue(self, kind: str, payload) -> Future:
        with self._lock:
            if self._shutdown:
                raise PoolShutdownError(
                    "cannot submit to a shut-down ProcessWorkerPool")
            future: Future = Future()
            self._tasks.put((future, kind, payload))
        return future

    def run_all(self, thunks) -> list:
        """Run callables across the workers; results in order (barrier).

        Matches :meth:`WorkerPool.run_all`: every thunk is queued before
        any result is awaited and the first exception re-raises only after
        all thunks finished or failed.
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
        """Block until every future resolved (API parity with WorkerPool)."""
        futures_wait(list(futures))

    # -- serving surface ------------------------------------------------------
    @staticmethod
    def _prepare_store(store_path, load_kwargs: dict) -> None:
        """Pre-build the store's mmap blob once, parent-side.

        Workers load with ``mmap=True`` by default; extracting the array
        blob here means N workers map one ready sidecar instead of racing
        to build N.  Failures are left for the worker's load to surface —
        the typed store errors must keep coming from the child path.
        """
        if load_kwargs.get("mmap", True) is False:
            return
        from .store import PlanStore

        try:
            PlanStore(store_path).ensure_blob()
        except Exception:  # noqa: BLE001 — the worker load reports it
            pass

    def load_deployment(self, name: str, store_path, *,
                        model_factory=None,
                        load_kwargs: dict | None = None) -> None:
        """Rehydrate one deployment's session **in every worker**.

        ``store_path`` must point at a saved plan store; the float model
        comes from the store's proxy-zoo reference or ``model_factory``
        (a picklable zero-arg callable).  The spec is registered for
        crash-respawn replay, so a replacement worker comes back serving
        the same deployments.  Blocks until every worker loaded (or
        raises the first load failure — e.g. a
        :class:`~repro.serve.store.PlanStoreError` from a truncated file,
        re-raised here from the child).
        """
        kwargs = dict(load_kwargs or {})
        self._prepare_store(store_path, kwargs)
        spec = (os.fspath(store_path), model_factory, kwargs)
        with self._lock:
            if self._shutdown:
                raise PoolShutdownError(
                    "cannot submit to a shut-down ProcessWorkerPool")
            self._deployments[name] = spec
            futures = []
            for slot in self._slots:
                future: Future = Future()
                slot.direct.append((future, "load", (name, *spec)))
                futures.append(future)
        self.wait(futures)
        for future in futures:
            future.result()

    def unload_deployment(self, name: str) -> None:
        """Drop a deployment from every worker (and from respawn replay)."""
        with self._lock:
            self._deployments.pop(name, None)
            if self._shutdown:
                return
            futures = []
            for slot in self._slots:
                future: Future = Future()
                slot.direct.append((future, "unload", (name,)))
                futures.append(future)
        self.wait(futures)

    def serve_async(self, name: str, batches, *, pad_axis=None,
                    pad_value=0, trace_id: int = 0) -> Future:
        """Dispatch one coalesced group; future of ``(outputs, metas)``.

        ``trace_id`` (0 = untraced) stamps the request frame header and
        the control envelope so the group stays attributable to its trace
        on the worker side of the boundary.
        """
        return self._enqueue("serve", (name, list(batches), pad_axis,
                                       pad_value, trace_id))

    def serve(self, name: str, batches, *, pad_axis=None, pad_value=0,
              trace_id: int = 0):
        """Blocking :meth:`serve_async`; the session-proxy entry point."""
        return self.serve_async(name, batches, pad_axis=pad_axis,
                                pad_value=pad_value,
                                trace_id=trace_id).result()

    def deployment_stats(self, name: str) -> dict:
        """The deployment's session stats merged across all workers.

        Counters sum (requests, layer calls, engine batches, op ledgers);
        sparsity means re-weight by each worker's layer calls; shape-like
        fields (scheme, plan count) come from the first worker.
        """
        with self._lock:
            if self._shutdown:
                raise PoolShutdownError(
                    "cannot query a shut-down ProcessWorkerPool")
            futures = []
            for slot in self._slots:
                future: Future = Future()
                slot.direct.append((future, "stats", (name,)))
                futures.append(future)
        self.wait(futures)
        parts = [f.result() for f in futures]
        merged = dict(parts[0])
        summed = ("n_requests", "n_layer_calls",
                  "n_engine_batches", "exec_s", "mul4", "add",
                  "ema_nibbles")
        for key in summed:
            if key in merged:
                merged[key] = sum(p.get(key, 0) for p in parts)
        weights = [p.get("n_layer_calls", 0) for p in parts]
        total = sum(weights)
        for key in ("mean_rho_w", "mean_rho_x"):
            if key in merged and total:
                merged[key] = sum(p.get(key, 0.0) * w
                                  for p, w in zip(parts, weights)) / total
        merged["n_workers"] = len(parts)
        return merged

    def ping(self) -> list[dict]:
        """Each worker's pid and effective BLAS pinning (tests/benches)."""
        with self._lock:
            if self._shutdown:
                raise PoolShutdownError(
                    "cannot query a shut-down ProcessWorkerPool")
            futures = []
            for slot in self._slots:
                future: Future = Future()
                slot.direct.append((future, "ping", ()))
                futures.append(future)
        self.wait(futures)
        return [f.result() for f in futures]

    # -- lifecycle ------------------------------------------------------------
    @property
    def workers(self) -> int:
        return len(self._slots)

    @property
    def pids(self) -> list[int | None]:
        """Live worker pids (a respawn changes the slot's entry)."""
        return [slot.process.pid if slot.process is not None else None
                for slot in self._slots]

    def shutdown(self, wait: bool = True) -> None:
        """Stop workers and destroy the shared segments; idempotent.

        Queued tasks run to completion first (sentinels queue behind
        them), exactly like the thread pool's drain-then-join contract.
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

    def __enter__(self) -> "ProcessWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown(wait=True)

    # -- observability --------------------------------------------------------
    def stats(self) -> dict:
        """WorkerPool-shaped summary plus process-tier counters."""
        now = time.perf_counter()
        with self._lock:
            per_worker = [slot.stats.summary(now) for slot in self._slots]
            n_crashes = self._n_crashes
            n_retried = self._n_retried
            n_pipe_fallback = sum(s.n_pipe_fallback for s in self._slots)
        return {
            "backend": "process",
            "workers": self.workers,
            "n_tasks": sum(w["n_tasks"] for w in per_worker),
            "busy_s": sum(w["busy_s"] for w in per_worker),
            "mean_utilization": (sum(w["utilization"] for w in per_worker)
                                 / len(per_worker)),
            "queue_depth": self._tasks.qsize(),
            "per_worker": per_worker,
            "blas_threads": self.blas_threads,
            "n_crashes": n_crashes,
            "n_respawns": n_crashes,
            "n_retried_after_crash": n_retried,
            "n_pipe_fallback": n_pipe_fallback,
            "ring_bytes": self.ring_bytes,
        }


class ProcessSessionProxy:
    """Parent-side stand-in for a deployment executing in worker processes.

    Duck-compatible with the slice of :class:`PanaceaSession` the serving
    scheduler consumes (``prepared``/``auto_calibrate``/``serve_coalesced``
    /``stats``), so :class:`~repro.serve.batching.MicroBatcher`,
    :class:`~repro.serve.cache.ResultCache` and the server metrics run
    unchanged in the parent while the forward passes happen on real cores.
    Output arrays and per-request accounting come back through the shared
    rings; the records carry no layer traces (those live in the workers'
    sessions, merged on demand by :meth:`stats`).
    """

    prepared = True
    auto_calibrate = False

    def __init__(self, pool: ProcessWorkerPool, name: str) -> None:
        self._pool = pool
        self.name = name

    def serve_coalesced(self, batches, *, pad_axis=None, pad_value=0,
                        traces=None):
        from ..engine.session import RequestRecord

        # One fused group travels as one frame, so one representative
        # trace id stamps the envelope (the first traced rider's); every
        # rider's own span still gets the worker-measured attributes.
        trace_id = 0
        if traces:
            for span in traces:
                if span is not None:
                    trace_id = span.trace_id
                    break
        outputs, metas = self._pool.serve(self.name, batches,
                                          pad_axis=pad_axis,
                                          pad_value=pad_value,
                                          trace_id=trace_id)
        records = [RequestRecord(request_id=rid, batch_shape=tuple(shape),
                                 layers=[], latency_s=latency,
                                 coalesced=coalesced)
                   for rid, shape, latency, coalesced in metas]
        if traces:
            for span, record in zip(traces, records):
                if span is None:
                    continue
                span.attrs["backend"] = "process"
                span.attrs["worker_exec_s"] = record.latency_s
                span.attrs["coalesced"] = record.coalesced
        return outputs, records

    def run(self, x):
        """One request, no coalescing — convenience parity with sessions."""
        return self.serve_coalesced([x])[0][0]

    def stats(self) -> dict:
        return self._pool.deployment_stats(self.name)
