"""Sharded serving sessions: a prepared session split across pipeline stages.

:class:`ShardedSession` wraps a prepared
:class:`~repro.engine.session.PanaceaSession` with a
:class:`~repro.shard.plan.ShardPlan` and executes requests through a
:class:`~repro.shard.executor.PipelineExecutor`:

* :meth:`run` — one request through the stage chain on the calling thread
  (bit-exact with ``session.run``: the same layer modules in the same
  order, just composed from segments);
* :meth:`run_pipelined` / :meth:`serve_coalesced` — a request group
  streamed through the stages with bounded in-flight depth, stage *k* of
  request *i* overlapping stage *k-1* of request *i+1*.

The class exposes the serving surface
:class:`~repro.serve.batching.MicroBatcher` and
:class:`~repro.serve.server.ModelServer` consume (``prepared``,
``auto_calibrate``, ``config``, ``serve_coalesced``, ``stats``), so a
sharded deployment drops into the existing scheduler unchanged — except
that a "coalesced" group is *pipelined* rather than fused: each request
keeps its own engine batch (exactness for free) and throughput comes from
stage overlap instead of column fusion.

Trace accounting stays unified in the wrapped session: stage callables
capture their layer records thread-locally (see
:meth:`~repro.core.pipeline.ExecutionTrace.capture`) and every completed
request is folded back through
:meth:`~repro.engine.session.PanaceaSession.record_external`, so
``stats()`` and the lifetime op ledgers behave as if the inner session had
served the requests itself.
"""

from __future__ import annotations

import itertools
import os
import time
from typing import Any, Sequence

import numpy as np

from ..engine.session import PanaceaSession, RequestRecord
from ..serve.pool import BackendCapabilityError, ExecutorBackend, WorkerPool
from .executor import PipelineExecutor
from .graph import ShardError, model_segments
from .plan import ShardPlan, auto_partition

__all__ = ["ShardedSession"]

#: Distinct default names for remote stage registrations on one pool.
_STAGE_IDS = itertools.count()


class ShardedSession:
    """Pipeline-parallel execution of one prepared session.

    ``pool=None`` (the deployment default) creates an owned
    :class:`WorkerPool` sized to the stage count (capped at the core
    count; ``workers=`` overrides the sizing).  A shared pool is accepted,
    but its other tasks must never block on locks a pipeline driver can
    hold: stage tasks queued behind a blocked task starve, which is why
    :class:`~repro.serve.server.ModelServer` gives every sharded
    deployment its own stage pool rather than co-scheduling with serve
    tasks.  ``depth`` bounds in-flight micro-batches; ``depth=1`` disables
    overlap (the apples-to-apples baseline the pipeline benchmark compares
    against).

    The pool is consumed through the
    :class:`~repro.serve.pool.ExecutorBackend` protocol, dispatched on its
    ``crosses_process`` capability flag:

    * in-process backends (``WorkerPool``) run stage closures over this
      session's live segments — the historical thread pipeline;
    * cross-process backends
      (:class:`~repro.serve.procpool.ProcessWorkerPool`) run
      **process-per-stage**: stages are registered as serializable specs
      (``store_path`` + the shard plan's state + load config) that each
      owning worker rehydrates from its per-process cache, activations hop
      between stages over per-edge shm rings, and captured traces fold
      back into this session's ledger.  ``store_path`` (a saved
      :class:`~repro.serve.store.PlanStore`) is required — there is
      nothing picklable about a live stage closure — and
      ``model_factory`` identifies the float architecture when the store
      has no proxy-zoo reference.  The :class:`PipelineExecutor` itself
      still runs on an owned thread driver pool; its stage callables are
      one shm round trip each, so stage *k* of batch *i* overlaps stage
      *k-1* of batch *i+1* across real processes.
    """

    def __init__(self, session: PanaceaSession, plan: ShardPlan, *,
                 pool: ExecutorBackend | None = None, depth: int = 2,
                 workers: int | None = None, store_path=None,
                 model_factory=None, name: str | None = None) -> None:
        if not session.prepared:
            # auto_calibrate is no escape hatch here: stage fns call the
            # segments directly, bypassing run()'s calibrate-on-first-batch
            # hook, so an unprepared session would silently serve the raw
            # float model forever.
            raise ShardError(
                "ShardedSession needs a calibrated session: the shard plan "
                "partitions prepared layer plans (auto_calibrate sessions "
                "must calibrate before sharding)")
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.session = session
        self.plan = plan
        segments = model_segments(session.model)
        self._stage_segments = plan.stage_slices(segments)
        self._remote = bool(getattr(pool, "crosses_process", False))
        self._proc_pool = pool if self._remote else None
        self._stage_name: str | None = None
        if self._remote:
            if store_path is None:
                raise BackendCapabilityError(
                    "sharded stages on a cross-process backend are "
                    "rehydrated in the workers from a plan store — pass "
                    "store_path= (PlanStore.save the session first); live "
                    "stage closures cannot cross the process boundary")
            self._stage_name = name if name is not None \
                else f"shard-{next(_STAGE_IDS)}"
            pool.load_stages(self._stage_name, store_path,
                             plan.state_dict(), model_factory=model_factory,
                             depth=depth)
            # The executor needs an in-process driver (stage callables are
            # parent-side shm round trips; nested submission and helping
            # are thread-pool semantics) — always owned, sized like the
            # thread path.
            self._owns_pool = True
            self.pool = WorkerPool(self._pool_size(workers),
                                   name="repro-shard-driver")
            stage_fns = [self._remote_stage_fn(k)
                         for k in range(plan.n_stages)]
        else:
            if workers is not None and pool is not None:
                raise ValueError(
                    "workers= sizes the owned stage pool; it cannot resize "
                    "a shared pool passed via pool=")
            self._owns_pool = pool is None
            if pool is None:
                pool = WorkerPool(self._pool_size(workers),
                                  name="repro-shard")
            self.pool = pool
            stage_fns = [self._stage_fn(members)
                         for members in self._stage_segments]
        self.executor = PipelineExecutor(stage_fns, self.pool, depth=depth)

    def _pool_size(self, workers: int | None) -> int:
        """Owned-pool width: explicit ``workers=`` wins over the default
        ``min(n_stages, cpu_count)`` cap."""
        if workers is not None:
            return workers
        return max(1, min(self.plan.n_stages, os.cpu_count() or 1))

    @classmethod
    def partition(cls, session: PanaceaSession, n_stages: int, *,
                  sample=None, repeats: int = 1,
                  pool: ExecutorBackend | None = None, depth: int = 2,
                  workers: int | None = None, store_path=None,
                  model_factory=None,
                  name: str | None = None) -> "ShardedSession":
        """Auto-partition and wrap in one step (the deployment helper)."""
        plan = auto_partition(session, n_stages, sample=sample,
                              repeats=repeats)
        return cls(session, plan, pool=pool, depth=depth, workers=workers,
                   store_path=store_path, model_factory=model_factory,
                   name=name)

    def _stage_fn(self, members):
        """One stage callable: run the member segments, capture the trace."""
        def fn(x):
            with self.session.trace.capture() as records:
                for segment in members:
                    x = segment.fn(x)
            return x, records
        return fn

    def _remote_stage_fn(self, stage: int):
        """One remote stage callable: an shm round trip to the owning
        worker; the ``extra`` is the stage's serialized layer states.

        ``accepts_trace_id`` tells the executor to pass the batch's trace
        id through, so it rides the stage-edge frame header across the
        process boundary; the worker-clock exec time comes back as stage
        span attributes (third tuple element — see
        :meth:`PipelineExecutor.run`).
        """
        def fn(x, trace_id: int = 0):
            y, states, exec_s = self._proc_pool.run_stage(
                self._stage_name, stage, x, trace_id=trace_id)
            return y, states, {"worker_exec_s": exec_s, "transport": "shm"}
        fn.accepts_trace_id = True
        return fn

    # -- serving surface (duck-compatible with PanaceaSession) ---------------
    @property
    def prepared(self) -> bool:
        return self.session.prepared

    @property
    def auto_calibrate(self) -> bool:
        return self.session.auto_calibrate

    @property
    def config(self):
        return self.session.config

    @property
    def model(self):
        return self.session.model

    @property
    def plans(self) -> dict[str, Any]:
        return self.session.plans

    @property
    def n_stages(self) -> int:
        return self.plan.n_stages

    def stats(self) -> dict:
        """The wrapped session's lifetime stats plus the pipeline shape."""
        stats = self.session.stats()
        stats["n_stages"] = self.plan.n_stages
        return stats

    def stage_stats(self) -> dict:
        """Pipeline metrics: per-stage execution/stall latency, plan shape.

        Remote (process-per-stage) sessions also report the shm transport
        counters of their stage edges (frames, wraps, pipe fallbacks)."""
        stats = self.executor.stats()
        stats["source"] = self.plan.source
        stats["plan"] = self.plan.summary()
        if self._remote:
            stats["stage_edges"] = self._proc_pool.stage_edge_stats(
                self._stage_name).get(self._stage_name, [])
        return stats

    def run(self, batch: np.ndarray) -> np.ndarray:
        """One request through the stage chain; bit-exact vs ``session.run``."""
        out, _ = self._run_one(batch)
        return out

    def _run_one(self, batch: np.ndarray) -> tuple[np.ndarray, RequestRecord]:
        batch = np.asarray(batch)
        x = batch
        layers = []
        t0 = time.perf_counter()
        with self.session.trace.capture() as records:
            for members in self._stage_segments:
                for segment in members:
                    x = segment.fn(x)
        latency = time.perf_counter() - t0
        layers.extend(records)
        record = self.session.record_external(batch.shape, layers, latency)
        return x, record

    def run_pipelined(self, batches: Sequence[np.ndarray]) -> list:
        """Stream a request group through the pipeline; outputs in order."""
        return self.serve_coalesced(batches)[0]

    #: The batcher may pass per-request tracing spans via ``traces=``.
    accepts_traces = True

    def serve_coalesced(self, batches: Sequence[np.ndarray], *,
                        pad_axis: int | None = None, pad_value=0,
                        traces: Sequence | None = None,
                        ) -> tuple[list, list[RequestRecord]]:
        """The scheduler's entry point: pipelined group execution.

        Unlike the fused path, every request runs as its own micro-batch —
        no concatenation, so ``pad_axis``/``pad_value`` are accepted for
        scheduler compatibility but never needed (ragged groups pipeline
        naturally).  Outputs and records come back in submission order and
        each request's record carries its own pure-compute ``latency_s``
        (stage execution sum, excluding pipeline stalls), so coalesced-style
        latency accounting stays meaningful.

        ``traces`` (parallel to ``batches``) are per-request parent spans:
        the executor grows a ``stage[k]`` child under each as the request
        moves down the pipeline, thread- and process-hosted stages alike.
        """
        del pad_axis, pad_value  # each request is its own engine batch
        batches = [np.asarray(b) for b in batches]
        if not batches:
            return [], []
        results = self.executor.run(batches, spans=traces)
        outputs, records = [], []
        for i, (batch, result) in enumerate(zip(batches, results)):
            layers = [rec for stage_records in result.extras
                      for rec in (stage_records or [])]
            record = self.session.record_external(
                batch.shape, layers, result.exec_s)
            if traces is not None and traces[i] is not None:
                traces[i].attrs["request_id"] = record.request_id
                traces[i].attrs["n_stages"] = self.plan.n_stages
                traces[i].attrs["pipeline_exec_s"] = result.exec_s
                traces[i].attrs["pipeline_latency_s"] = result.latency_s
            outputs.append(result.output)
            records.append(record)
        return outputs, records

    def close(self) -> None:
        """Shut down the owned pool and unload remote stages; idempotent.

        Shared pools are left running (the owner shuts them down); remote
        stage registrations are released on their pool unless it is
        already shut down (in which case the edges died with it)."""
        if self._owns_pool:
            self.pool.shutdown(wait=True)
        if self._remote and self._stage_name is not None:
            from ..serve.pool import PoolShutdownError

            try:
                self._proc_pool.unload_stages(self._stage_name)
            except PoolShutdownError:
                pass
            self._stage_name = None

    def __enter__(self) -> "ShardedSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
