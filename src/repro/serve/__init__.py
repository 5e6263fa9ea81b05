"""Serving subsystem: persistent plans, micro-batching, concurrent hosting.

The online half of Panacea's offline/online split, grown to process scale:

* :mod:`repro.serve.store` — :class:`PlanStore`, persisting a converted
  model's layer plans + calibration records so a process restart serves
  with zero re-prepare work (load failures raise :class:`PlanStoreError`);
* :mod:`repro.serve.batching` — :class:`MicroBatcher`/:class:`BatchPolicy`,
  the dynamic micro-batching scheduler coalescing single requests into
  engine batches (bit-exact vs solo execution), and
  :class:`DecodeBatcher`/:class:`DecodePolicy`, the continuous-batching
  autoregressive decoder where requests join/leave the running batch per
  step over KV-cached incremental forwards;
* :mod:`repro.serve.server` — :class:`ModelServer`, many named deployments
  behind one submit API, with blocking (``submit``) and future-returning
  (``submit_async``) entry points;
* :mod:`repro.serve.pool` — :class:`WorkerPool`, the thread pool that
  drains all deployments' micro-batches in parallel;
* :mod:`repro.serve.procpool` / :mod:`repro.serve.shm` —
  :class:`ProcessWorkerPool` and the shared-memory array rings behind
  ``ModelServer(backend="process")``: deployments rehydrated from plan
  stores in spawned, BLAS-pinned worker processes (``mmap=True`` loads
  share one physical copy of the plan arrays through the page cache),
  activations framed through :class:`ShmRing` segments instead of
  pickles, crashes failing only the in-flight batch
  (:class:`WorkerCrashError`) before a respawn.  Pools expose
  the :class:`ExecutorBackend` protocol; capability refusals raise
  :class:`BackendCapabilityError`;
* :mod:`repro.serve.cache` — :class:`ResultCache`, the content-addressed
  per-deployment LRU result cache short-circuiting duplicate requests, and
  :class:`PrefixKVCache`, its autoregressive sibling seeding decode KV
  caches from the longest cached token prefix;
* :mod:`repro.serve.metrics` — :class:`LatencyStats` (the shared latency
  accumulator) and :class:`ServerMetrics` (the server-wide rollup);
  :mod:`repro.obs` adds request tracing (:class:`~repro.obs.Trace` span
  trees following one request through every layer, including across
  process boundaries), the unified callback-instrument
  :class:`~repro.obs.MetricsRegistry` and the Prometheus text exposition
  behind ``GET /metrics?format=prometheus``;
* :mod:`repro.serve.gateway` — :class:`Gateway`, the asyncio HTTP/1.1
  network front end over a :class:`ModelServer`, with
  :class:`AdmissionControl` (bounded per-deployment admission, per-tenant
  :class:`TokenBucket` quotas and priority classes, typed 429/503
  :class:`AdmissionError` backpressure) and deadline-aware micro-batch
  release via :class:`~repro.serve.batching.DeadlinePolicy`;
* :mod:`repro.serve.loadgen` — the seeded open-loop load generator
  (Poisson and bursty MMPP arrivals, heavy-tail request mixes,
  per-tenant traffic) that drives the gateway without ever slowing down
  when the server does, plus the latency/goodput summarizer.
"""

from .batching import (BatchPolicy, DeadlinePolicy, DecodeBatcher,
                       DecodePolicy, DecodeTicket, MicroBatcher, Ticket)
from .gateway import (AdmissionControl, AdmissionError, Gateway,
                      GatewayClosedError, GatewayHandle, QueueFullError,
                      QuotaExceededError, TenantQuota, TokenBucket)
from .loadgen import (MMPPArrivals, PlannedRequest, PoissonArrivals,
                      RequestOutcome, TenantSpec, build_schedule,
                      run_schedule, summarize)
from .cache import PrefixKVCache, ResultCache, request_key
from .metrics import LatencyStats, ServerMetrics
from .pool import (BackendCapabilityError, ExecutorBackend,
                   PoolShutdownError, WorkerPool, WorkerStats)
from .procpool import ProcessSessionProxy, ProcessWorkerPool, WorkerCrashError
from .server import ModelEntry, ModelServer
from .shm import ShmRing
from .store import PlanStore, PlanStoreError, STORE_FORMAT, STORE_VERSION

__all__ = [
    "BatchPolicy",
    "DeadlinePolicy",
    "MicroBatcher",
    "Ticket",
    "AdmissionControl",
    "AdmissionError",
    "Gateway",
    "GatewayClosedError",
    "GatewayHandle",
    "QueueFullError",
    "QuotaExceededError",
    "TenantQuota",
    "TokenBucket",
    "MMPPArrivals",
    "PlannedRequest",
    "PoissonArrivals",
    "RequestOutcome",
    "TenantSpec",
    "build_schedule",
    "run_schedule",
    "summarize",
    "DecodePolicy",
    "DecodeBatcher",
    "DecodeTicket",
    "PrefixKVCache",
    "ResultCache",
    "request_key",
    "LatencyStats",
    "ServerMetrics",
    "BackendCapabilityError",
    "ExecutorBackend",
    "PoolShutdownError",
    "WorkerPool",
    "WorkerStats",
    "ProcessWorkerPool",
    "ProcessSessionProxy",
    "WorkerCrashError",
    "ShmRing",
    "ModelEntry",
    "ModelServer",
    "PlanStore",
    "PlanStoreError",
    "STORE_FORMAT",
    "STORE_VERSION",
]
