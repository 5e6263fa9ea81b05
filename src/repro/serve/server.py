"""Multi-model serving front end over prepared sessions.

:class:`ModelServer` hosts many named deployments — any (model variant ×
scheme × exec_path) combination, each backed by its own prepared
:class:`~repro.engine.session.PanaceaSession` and
:class:`~repro.serve.batching.MicroBatcher` — behind one submit API:

    server = ModelServer(workers=4, cache_bytes=32 << 20)
    server.register("bert-aqs", session, policy=BatchPolicy(max_batch=8))
    ticket = server.submit("bert-aqs", request)
    out = ticket.result()                       # bit-exact vs solo runs
    future = server.submit_async("bert-aqs", request)   # concurrent path
    out = future.result()

Deployments can come from three sources: an already-prepared session
(:meth:`register`), a proxy-zoo build calibrated in place
(:meth:`deploy_proxy`), or a :class:`~repro.serve.store.PlanStore` file
(:meth:`load`) — the latter serving with zero re-prepare work.

``workers`` attaches a :class:`~repro.serve.pool.WorkerPool`: queue drains
(:meth:`flush`/:meth:`pump`) then fan out across deployments so every
engine is busy simultaneously, and :meth:`submit_async` service runs on the
pool instead of the submitting thread.  Sessions serialize themselves, so
concurrency never reorders accounting within a deployment — and outputs
stay bit-exact against serial execution (the conformance suite asserts it).
``cache_bytes`` gives every deployment whose policy did not choose its own
budget a content-addressed result cache of that size.

Lifetime metrics per deployment combine the session's op/sparsity
accounting with the scheduler's queue/latency view; :meth:`metrics` rolls
deployments, per-worker utilization and cache hit-rates into one
:class:`~repro.serve.metrics.ServerMetrics` snapshot.
"""

from __future__ import annotations

import random
import threading
from concurrent.futures import Future
from dataclasses import dataclass, replace

import numpy as np

from ..engine.session import PanaceaSession
from ..obs import MetricsRegistry, Trace, TraceBuffer
from .batching import (BatchPolicy, DecodeBatcher, DecodePolicy, DecodeTicket,
                       MicroBatcher, Ticket)
from .metrics import LatencyStats, ServerMetrics
from .pool import BackendCapabilityError, WorkerPool

__all__ = ["ModelServer", "ModelEntry"]


@dataclass
class ModelEntry:
    """One hosted deployment: a named session plus its scheduler.

    ``session`` is a :class:`PanaceaSession`, or on the process backend a
    :class:`~repro.serve.procpool.ProcessSessionProxy` exposing the same
    serving surface the scheduler consumes.
    """

    name: str
    session: PanaceaSession
    batcher: MicroBatcher
    #: Whole-deployment execution lives in the process pool (the session
    #: is a :class:`~repro.serve.procpool.ProcessSessionProxy`), so
    #: unregister must unload it from the workers.
    remote: bool = False
    #: The deployment's continuous-batching decoder, created lazily by the
    #: first ``submit_decode`` (None until then, and forever on deployments
    #: whose model has no incremental path).
    decoder: DecodeBatcher | None = None
    #: The decode policy the lazy decoder will be built with.
    decode_policy: DecodePolicy | None = None
    #: Per-deployment trace sampling override; ``None`` defers to the
    #: server-wide rate.
    trace_sample: float | None = None

    @property
    def policy(self) -> BatchPolicy:
        return self.batcher.policy

    @property
    def cache(self):
        """The deployment's result cache (None when caching is off)."""
        return self.batcher.cache

    def stats(self) -> dict:
        """Session lifetime accounting merged with scheduler metrics."""
        stats = {
            "name": self.name,
            "session": self.session.stats(),
            "scheduler": self.batcher.stats(),
        }
        if self.decoder is not None:
            stats["decode"] = self.decoder.stats()
        return stats


class ModelServer:
    """Hosts named model deployments behind a single submit API.

    ``workers=0`` (the default) keeps every call on the caller's thread —
    the exact historical behaviour.  ``workers >= 1`` starts a
    :class:`WorkerPool` used by :meth:`submit_async`, :meth:`flush` and
    :meth:`pump`; call :meth:`close` (or use the server as a context
    manager) to drain and join it.

    ``backend`` picks where deployment *execution* happens.  The default
    ``"thread"`` serves in-process; ``"process"`` additionally starts a
    :class:`~repro.serve.procpool.ProcessWorkerPool` of ``workers``
    spawned, BLAS-pinned worker processes and routes every registered
    deployment's forward passes to them (sessions rehydrated per worker
    from a plan-store snapshot, activations over shared memory), while
    the MicroBatcher, ResultCache and all metrics stay in the parent.
    Outputs are bit-exact across backends; a crashed worker fails only
    its in-flight batch and is respawned.
    """

    def __init__(self, default_policy: BatchPolicy | None = None, *,
                 clock=None, workers: int = 0, cache_bytes: int = 0,
                 backend: str = "thread",
                 blas_threads: int | None = None,
                 default_decode_policy: DecodePolicy | None = None,
                 trace_sample: float = 1.0,
                 trace_buffer: int = 256) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {cache_bytes}")
        if not 0.0 <= trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1], got {trace_sample}")
        if backend not in ("thread", "process"):
            raise ValueError(
                f"backend must be 'thread' or 'process', got {backend!r}")
        if backend == "process" and workers < 1:
            raise ValueError(
                "backend='process' needs workers >= 1 (the process pool "
                "size); workers=0 is inline thread serving")
        self.default_policy = default_policy or BatchPolicy()
        self.default_decode_policy = default_decode_policy or DecodePolicy()
        self.cache_bytes = cache_bytes
        self.backend = backend
        self._clock = clock
        #: Server-wide trace sampling rate (1.0 = trace every request);
        #: deployments may override via ``register(trace_sample=...)``.
        self.trace_sample = trace_sample
        #: Bounded trace store; a trace is registered here at ingress, so
        #: in-flight requests are already retrievable by id.
        self.traces = TraceBuffer(trace_buffer)
        self._trace_rng = random.Random()
        self._registry: MetricsRegistry | None = None
        self._entries: dict[str, ModelEntry] = {}
        # Guards deployment lifecycle vs iteration: register/unregister
        # from one thread must not crash a pump/flush/stats walking the
        # deployment dict on another.  Single-name lookups stay lock-free
        # (atomic in CPython); every iteration works on a snapshot.
        self._entries_lock = threading.Lock()
        # The thread pool stays even with the process backend: it runs the
        # scheduler (submit_async service honoring max_delay_s) while the
        # process pool runs the engines — one blocked round trip per
        # in-flight batch, so the two are sized together.
        self._pool = WorkerPool(workers) if workers else None
        self._proc_pool = None
        self._proc_store_dir: str | None = None
        if backend == "process":
            from .procpool import ProcessWorkerPool

            self._proc_pool = ProcessWorkerPool(workers,
                                                blas_threads=blas_threads)

    @property
    def pool(self) -> WorkerPool | None:
        """The attached worker pool (None when serving inline)."""
        return self._pool

    @property
    def process_pool(self):
        """The process execution tier (None for the thread backend)."""
        return self._proc_pool

    @property
    def workers(self) -> int:
        return self._pool.workers if self._pool is not None else 0

    # -- deployment lifecycle -------------------------------------------------
    def _effective_policy(self, policy: BatchPolicy | None) -> BatchPolicy:
        """Resolve a deployment policy against the server-wide defaults.

        The server's ``cache_bytes`` applies to any policy that did not
        choose its own budget, so one constructor knob turns on caching for
        every deployment.
        """
        base = policy or self.default_policy
        if self.cache_bytes > 0 and base.cache_bytes == 0:
            base = replace(base, cache_bytes=self.cache_bytes)
        return base

    def _snapshot_store(self, name: str, session: PanaceaSession,
                        model_name: str | None, model_seed: int):
        """Snapshot a session to a server-owned plan store for the workers."""
        import pathlib
        import tempfile

        from .store import PlanStore

        if self._proc_store_dir is None:
            self._proc_store_dir = tempfile.mkdtemp(prefix="repro-serve-")
        store_path = (pathlib.Path(self._proc_store_dir)
                      / f"{name.replace('/', '_')}.plans.npz")
        PlanStore(store_path).save(session, model_name=model_name,
                                   seed=model_seed)
        return store_path

    def _deploy_process(self, name: str, session: PanaceaSession,
                        model_name: str | None, model_factory,
                        store_path=None, model_seed: int = 0):
        """Move a deployment's execution into the worker processes.

        The session is snapshotted to a plan store under a server-owned
        temp directory (unless ``store_path`` already points at one, the
        :meth:`load` path) and every worker rehydrates it; the returned
        :class:`~repro.serve.procpool.ProcessSessionProxy` is what the
        parent-side scheduler drives.  Workers need the float architecture
        too, so either the store's proxy-zoo reference or a picklable
        ``model_factory`` must identify it.
        """
        from .procpool import ProcessSessionProxy

        if model_name is None and model_factory is None \
                and store_path is None:
            raise ValueError(
                f"deployment {name!r} on backend='process' needs "
                "model_name (a proxy-zoo reference) or model_factory (a "
                "picklable zero-arg callable) so the workers can rebuild "
                "the float model")
        if store_path is None:
            store_path = self._snapshot_store(name, session, model_name,
                                              model_seed)
        self._proc_pool.load_deployment(name, store_path,
                                        model_factory=model_factory)
        return ProcessSessionProxy(self._proc_pool, name)

    def register(self, name: str, session: PanaceaSession,
                 policy: BatchPolicy | None = None, *,
                 model_name: str | None = None, model_factory=None,
                 store_path=None, model_seed: int = 0,
                 decode_policy: DecodePolicy | None = None,
                 trace_sample: float | None = None) -> ModelEntry:
        """Host a prepared session under ``name``.

        The session must already be calibrated (or explicitly built with
        ``auto_calibrate=True``): a server must never silently calibrate on
        live traffic.

        On ``backend='process'`` the session is snapshotted and executed
        in the worker processes (:meth:`_deploy_process`);
        ``model_name``/``model_factory`` tell the
        workers how to rebuild the float model and are ignored by the
        thread backend.  Capability refusals raise
        :class:`~repro.serve.pool.BackendCapabilityError`.
        """
        if not session.prepared and not session.auto_calibrate:
            raise ValueError(
                f"session for {name!r} is not calibrated; calibrate it (or "
                "opt in with auto_calibrate=True) before registering")
        if trace_sample is not None and not 0.0 <= trace_sample <= 1.0:
            raise ValueError(
                f"trace_sample must be in [0, 1], got {trace_sample}")
        remote = False
        if self._proc_pool is not None:
            if not session.prepared:
                raise BackendCapabilityError(
                    f"deployment {name!r} on backend='process' needs a "
                    "prepared session: auto_calibrate cannot run in the "
                    "workers (plan stores snapshot calibrated plans only)")
            if name in self._entries:
                raise ValueError(f"model {name!r} is already registered")
            session = self._deploy_process(name, session, model_name,
                                           model_factory, store_path,
                                           model_seed)
            remote = True
        kwargs = {} if self._clock is None else {"clock": self._clock}
        entry = ModelEntry(
            name=name, session=session,
            batcher=MicroBatcher(session, self._effective_policy(policy),
                                 **kwargs),
            remote=remote,
            decode_policy=decode_policy or self.default_decode_policy,
            trace_sample=trace_sample)
        with self._entries_lock:
            if name in self._entries:
                raise ValueError(f"model {name!r} is already registered")
            self._entries[name] = entry
        return entry

    def deploy_proxy(self, name: str, model_name: str, *,
                     scheme: str = "aqs", exec_path: str = "fast",
                     seed: int = 0, n_calibration: int = 2,
                     calibration_batch: int = 2,
                     policy: BatchPolicy | None = None,
                     decode_policy: DecodePolicy | None = None) -> ModelEntry:
        """Build, calibrate and host one proxy-zoo model variant.

        The convenience path the CLI and benchmarks use: builds the runnable
        proxy, calibrates on synthetic batches matching its input modality,
        and registers the prepared session.  ``policy`` defaults to the
        server default with the proxy's natural ``pad_axis`` applied.
        ``decode_policy`` configures the deployment's continuous-batching
        decoder (LM proxies only; created lazily on first decode submit).
        """
        from ..core.pipeline import PtqConfig
        from ..models.zoo import PROXY_SPECS, build_proxy, proxy_batches

        if model_name not in PROXY_SPECS:
            raise KeyError(
                f"no runnable proxy for {model_name!r}; available: "
                f"{sorted(PROXY_SPECS)}")
        model, _ = build_proxy(model_name, seed=seed)
        config = PtqConfig.for_scheme(scheme, exec_path=exec_path)
        session = PanaceaSession(model, config)
        session.calibrate(proxy_batches(model_name, calibration_batch,
                                        n_calibration, seed=seed + 1))
        return self.register(name, session,
                             self._policy_for_proxy(policy, model_name),
                             model_name=model_name, model_seed=seed,
                             decode_policy=decode_policy)

    def _policy_for_proxy(self, policy: BatchPolicy | None,
                          model_name: str | None) -> BatchPolicy:
        """Apply a zoo model's natural ``pad_axis`` unless the policy chose.

        Shared by :meth:`deploy_proxy` and :meth:`load` so a causal LM keeps
        its ragged-sequence coalescing however its deployment arrived.
        """
        from ..models.zoo import PROXY_SPECS

        base = policy or self.default_policy
        spec = PROXY_SPECS.get(model_name) if model_name else None
        if spec is not None and spec.pad_axis is not None \
                and base.pad_axis is None:
            base = replace(base, pad_axis=spec.pad_axis)
        return base

    def load(self, name: str, path, *, model=None, model_factory=None,
             policy: BatchPolicy | None = None) -> ModelEntry:
        """Host a deployment rehydrated from a plan store (zero re-prepare).

        When the store references a proxy-zoo model, its natural
        ``pad_axis`` is applied exactly as :meth:`deploy_proxy` would.

        On ``backend='process'`` the workers rehydrate straight from
        ``path`` (no re-snapshot); a store saved without a proxy-zoo
        reference then needs ``model_factory`` (picklable) instead of an
        in-process ``model`` object, which cannot cross to the workers.
        """
        from .store import PlanStore

        store = PlanStore(path)
        if model is None and model_factory is not None:
            model = model_factory()
        session = store.load(model=model)
        model_name = store.describe().get("model_name")
        return self.register(name, session,
                             self._policy_for_proxy(policy, model_name),
                             model_name=model_name,
                             model_factory=model_factory, store_path=path)

    def unregister(self, name: str) -> None:
        """Drop a deployment after draining its queue."""
        entry = self._get(name)
        entry.batcher.flush()
        if entry.decoder is not None:
            entry.decoder.drain()
        with self._entries_lock:
            self._entries.pop(name, None)
        if entry.remote:
            self._proc_pool.unload_deployment(name)

    def _snapshot(self) -> list[ModelEntry]:
        """A stable view of the deployments for lock-free iteration."""
        with self._entries_lock:
            return list(self._entries.values())

    def close(self) -> None:
        """Drain every queue and join the worker pool (idempotent).

        A poison batch in one deployment must not leak the pool's threads
        or strand the other deployments' queues: every drain is attempted
        and the pool always shuts down; the first drain failure re-raises
        after cleanup.
        """
        first_error = None
        entries = self._snapshot()
        try:
            for entry in entries:
                try:
                    entry.batcher.flush()
                    if entry.decoder is not None:
                        entry.decoder.drain()
                except Exception as exc:  # noqa: BLE001 — re-raised below
                    if first_error is None:
                        first_error = exc
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True)
            if self._proc_pool is not None:
                self._proc_pool.shutdown(wait=True)
            if self._proc_store_dir is not None:
                import shutil

                shutil.rmtree(self._proc_store_dir, ignore_errors=True)
                self._proc_store_dir = None
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _drain_fanout(self, thunks) -> int:
        """Run drain thunks concurrently on dedicated threads, sum results.

        Deliberately *not* the worker pool: its FIFO queue may be full of
        ``serve`` tasks waiting out rider windows, and a "drain now" call
        (:meth:`flush`/:meth:`pump`) must never sit behind them for up to
        ``max_delay_s``.  Dedicated threads drain immediately; the fired
        batches resolve the waiting serve tasks through their tickets'
        done events.
        """
        results = [0] * len(thunks)
        errors: list[Exception] = []

        def runner(i, thunk):
            try:
                results[i] = thunk()
            except Exception as exc:  # noqa: BLE001 — re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=runner, args=(i, thunk),
                                    daemon=True)
                   for i, thunk in enumerate(thunks)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return sum(results)

    # -- request path ---------------------------------------------------------
    def _get(self, name: str) -> ModelEntry:
        if name not in self._entries:
            raise KeyError(
                f"unknown model {name!r}; registered: {self.models()}")
        return self._entries[name]

    def start_trace(self, name: str, *,
                    sample: float | None = None) -> Trace | None:
        """Start (or sample away) a trace for one request on ``name``.

        Sampling resolves ``sample`` (the caller's explicit rate) over the
        deployment's ``trace_sample`` over the server-wide default.  A
        started trace is registered in the trace buffer immediately, so
        ``get_trace`` finds in-flight requests.  Returns ``None`` when the
        request is not sampled — every traced path treats that as "tracing
        off" for this request.
        """
        entry = self._get(name)
        rate = sample
        if rate is None:
            rate = entry.trace_sample
        if rate is None:
            rate = self.trace_sample
        if rate <= 0.0:
            return None
        if rate < 1.0 and self._trace_rng.random() >= rate:
            return None
        return self.traces.add(Trace(name))

    def get_trace(self, trace_id) -> Trace | None:
        """Look up a trace by id (int or hex string); None when unknown
        or already evicted from the bounded buffer."""
        return self.traces.get(trace_id)

    def submit(self, name: str, x: np.ndarray) -> Ticket:
        """Enqueue one request for ``name``; returns its ticket.

        When the request is sampled (see :meth:`start_trace`) the ticket
        carries a :class:`~repro.obs.Trace` as ``ticket.trace`` and the
        span tree closes with the ticket.
        """
        entry = self._get(name)
        trace = self.start_trace(name)
        return entry.batcher.submit(x, trace=trace)

    def submit_async(self, name: str, x: np.ndarray) -> Future:
        """Enqueue one request; returns a future of its output array.

        With a worker pool, service happens on a pool thread — the caller
        never executes a batch, and the serving worker honors the
        deployment's ``max_delay_s`` (see :meth:`MicroBatcher.serve`), so
        async requests coalesce exactly like inline ones.  Without a pool
        the future is served eagerly on this thread and arrives already
        resolved, so the API (and its bit-exactness) is identical either
        way.  The underlying :class:`Ticket` rides on the future as
        ``future.ticket`` for callers that want scheduler metadata.
        Cancelling the future before a worker picks it up also dequeues
        the request, so a cancelled submission never rides someone else's
        batch.
        """
        entry = self._get(name)
        trace = self.start_trace(name)
        try:
            ticket = entry.batcher.submit(x, fire=self._pool is None,
                                          trace=trace)
        except Exception as exc:  # noqa: BLE001 — future carries it
            # Inline submits can fire (and fail) a batch on this thread;
            # the error must surface through the future exactly as the
            # pooled path would deliver it, never as a synchronous raise.
            future = Future()
            future.set_exception(exc)
            future.ticket = None
            return future
        if self._pool is not None and not ticket.done:
            future = self._pool.submit_traced(
                trace.root if trace is not None else None,
                entry.batcher.serve, ticket)
            future.add_done_callback(
                lambda f: entry.batcher.cancel(ticket)
                if f.cancelled() else None)
        else:
            future = Future()
            try:
                future.set_result(ticket.result())
            except Exception as exc:  # noqa: BLE001 — future carries it
                future.set_exception(exc)
        future.ticket = ticket
        return future

    # -- decode path ----------------------------------------------------------
    def _decoder(self, name: str) -> DecodeBatcher:
        """The deployment's decoder, created on first use.

        Decode runs the model's incremental ``forward_step`` against live
        KV state in the scheduler's process, so it is a thread-backend
        capability: process-backed deployments execute in worker processes
        that only expose one-shot forwards and refuse with
        :class:`BackendCapabilityError` rather than silently recomputing
        the prefix every step.
        """
        entry = self._get(name)
        if entry.decoder is None:
            if entry.remote or self._proc_pool is not None:
                raise BackendCapabilityError(
                    f"deployment {name!r} executes on backend='process'; "
                    "incremental decode needs in-process KV state — deploy "
                    "on the thread backend to decode")
            kwargs = {} if self._clock is None else {"clock": self._clock}
            entry.decoder = DecodeBatcher(entry.session, entry.decode_policy,
                                          **kwargs)
        return entry.decoder

    def submit_decode(self, name: str, prompt, *,
                      max_new_tokens: int | None = None) -> DecodeTicket:
        """Enqueue one prompt for autoregressive decoding on ``name``.

        Returns a :class:`DecodeTicket`: ``result()`` blocks for the full
        generation, ``iter_tokens()`` streams tokens as the continuous
        batch produces them.  Requests submitted together share the
        running batch step by step — joining and leaving mid-flight — and
        every sequence's tokens are exactly what it would produce decoding
        alone.
        """
        return self._decoder(name).submit(prompt,
                                          max_new_tokens=max_new_tokens)

    def decode_stream(self, name: str, prompt, *,
                      max_new_tokens: int | None = None):
        """Submit and stream: yields tokens as they are generated."""
        return self.submit_decode(
            name, prompt, max_new_tokens=max_new_tokens).iter_tokens()

    def cancel_decode(self, name: str, ticket: DecodeTicket) -> bool:
        """Abandon one in-flight decode request (a dropped client).

        Queued requests are dequeued; active ones are compacted out of the
        running batch at the next step boundary, leaving every other
        sequence's tokens bit-exact.  Returns False when the ticket already
        finished (nothing to cancel).
        """
        entry = self._get(name)
        if entry.decoder is None:
            return False
        return entry.decoder.cancel(ticket)

    def submit_many(self, name: str, xs) -> list[Ticket]:
        """Enqueue a request list (batches fire as they fill)."""
        return [self.submit(name, x) for x in xs]

    def submit_many_async(self, name: str, xs) -> list[Future]:
        """Async variant of :meth:`submit_many`; one future per request."""
        return [self.submit_async(name, x) for x in xs]

    def pump(self, now: float | None = None) -> int:
        """Run every deployment's delay policy once; returns requests served.

        With a worker pool the per-deployment pumps execute concurrently —
        one slow deployment no longer stalls the others' deadlines.
        """
        batchers = [entry.batcher for entry in self._snapshot()]
        if self._pool is not None and len(batchers) > 1:
            return self._drain_fanout(
                [lambda b=b: b.pump(now) for b in batchers])
        return sum(b.pump(now) for b in batchers)

    def flush(self, name: str | None = None) -> int:
        """Serve all queued requests (of one deployment, or all).

        With a worker pool, deployments drain in parallel — the concurrent
        runtime's core path: every deployment's engine executes its
        micro-batches simultaneously while each session stays internally
        serialized, so outputs are bit-exact vs a serial drain.

        Decode queues drain too (their running batches step to completion);
        the returned count covers one-shot requests only — decode progress
        is visible as tokens under ``stats()['decode']``.
        """
        if name is not None:
            entry = self._get(name)
            served = entry.batcher.flush()
            if entry.decoder is not None:
                entry.decoder.drain()
            return served
        entries = self._snapshot()

        def drain_entry(entry: ModelEntry) -> int:
            served = entry.batcher.flush()
            if entry.decoder is not None:
                entry.decoder.drain()
            return served

        if self._pool is not None and len(entries) > 1:
            return self._drain_fanout(
                [lambda e=e: drain_entry(e) for e in entries])
        return sum(drain_entry(e) for e in entries)

    # -- observability --------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def models(self) -> list[str]:
        """Registered deployment names, in registration order."""
        with self._entries_lock:
            return list(self._entries)

    def entry(self, name: str) -> ModelEntry:
        """The deployment behind ``name``."""
        return self._get(name)

    def stats(self, name: str | None = None) -> dict:
        """Per-deployment stats, or one deployment's when named."""
        if name is not None:
            return self._get(name).stats()
        return {entry.name: entry.stats() for entry in self._snapshot()}

    def queue_wait_rollup(self) -> LatencyStats:
        """Server-wide queue-wait view (merged across deployments)."""
        rollup = LatencyStats()
        for entry in self._snapshot():
            rollup = rollup.merge(entry.batcher.queue_wait_view())
        return rollup

    def metrics(self) -> ServerMetrics:
        """One server-wide snapshot: deployments, workers, cache hit-rate.

        Cache totals are summed from the same per-deployment stats embedded
        under ``deployments``, so the two views in one snapshot can never
        disagree.
        """
        deployments = self.stats()
        schedulers = [d["scheduler"] for d in deployments.values()]
        caches = [s["cache"] for s in schedulers if "cache" in s]
        cache_totals = None
        if caches:
            cache_totals = {
                key: sum(c[key] for c in caches)
                for key in ("entries", "bytes", "max_bytes", "hits",
                            "misses", "insertions", "evictions")}
            lookups = cache_totals["hits"] + cache_totals["misses"]
            cache_totals["hit_rate"] = (cache_totals["hits"] / lookups
                                        if lookups else 0.0)
        decoders = [d["decode"] for d in deployments.values()
                    if "decode" in d]
        decode_totals = None
        prefix_totals = None
        if decoders:
            decode_totals = {
                key: sum(dec[key] for dec in decoders)
                for key in ("n_requests", "n_steps", "n_prefills",
                            "n_tokens", "n_failed", "n_cancelled", "depth",
                            "n_active")}
            prefixes = [dec["prefix_cache"] for dec in decoders
                        if "prefix_cache" in dec]
            if prefixes:
                prefix_totals = {
                    key: sum(p[key] for p in prefixes)
                    for key in ("entries", "bytes", "max_bytes", "hits",
                                "misses", "insertions", "evictions",
                                "seeded_tokens")}
                lookups = prefix_totals["hits"] + prefix_totals["misses"]
                prefix_totals["hit_rate"] = (
                    prefix_totals["hits"] / lookups if lookups else 0.0)
        return ServerMetrics(
            n_deployments=len(deployments),
            n_requests=sum(s["n_requests"] for s in schedulers),
            n_batches=sum(s["n_batches"] for s in schedulers),
            n_failed=sum(s["n_failed"] for s in schedulers),
            n_cache_hits=sum(s["n_cache_hits"] for s in schedulers),
            n_cancelled=sum(s["n_cancelled"] for s in schedulers),
            queue_wait=self.queue_wait_rollup().summary(),
            deployments=deployments,
            workers=self._pool.stats() if self._pool is not None else None,
            process_workers=(self._proc_pool.stats()
                             if self._proc_pool is not None else None),
            cache=cache_totals,
            decode=decode_totals,
            prefix_cache=prefix_totals,
        )

    def metrics_registry(self) -> MetricsRegistry:
        """The server's unified instrument registry (built lazily, once).

        Every instrument is a *callback* over the live serving state —
        registering a deployment after the registry exists still shows up
        on the next collection, because the callbacks walk the deployment
        snapshot at read time.  The conservation invariants (the batcher
        submission ledger, the bounded trace buffer) ride along as checked
        registry properties; :func:`repro.obs.render_prometheus` turns a
        collection into exposition text.
        """
        if self._registry is None:
            self._registry = self._build_registry()
        return self._registry

    def _build_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()

        def per_entry(read):
            """Per-deployment sample list from one scheduler-stats key."""
            def collect():
                return [({"deployment": e.name}, read(e))
                        for e in self._snapshot()]
            return collect

        def per_batcher(key):
            return per_entry(lambda e: e.batcher.stats()[key])

        def per_cache(key):
            def collect():
                out = []
                for e in self._snapshot():
                    if e.cache is not None:
                        out.append(({"deployment": e.name},
                                    e.cache.stats()[key]))
                return out
            return collect

        def per_decoder(key):
            def collect():
                return [({"deployment": e.name}, e.decoder.stats()[key])
                        for e in self._snapshot() if e.decoder is not None]
            return collect

        def pool_stat(key):
            def collect():
                if self._pool is None:
                    return []
                return [({}, self._pool.stats()[key])]
            return collect

        def proc_stat(key):
            def collect():
                if self._proc_pool is None:
                    return []
                return [({}, self._proc_pool.stats()[key])]
            return collect

        reg.gauge("repro_server_deployments",
                  "Deployments currently registered.",
                  lambda: len(self._entries))
        reg.counter("repro_batcher_submitted_total",
                    "Requests ever submitted to the micro-batcher.",
                    per_batcher("n_submitted"))
        reg.counter("repro_batcher_requests_total",
                    "Requests served by engine execution.",
                    per_batcher("n_requests"))
        reg.counter("repro_batcher_batches_total",
                    "Engine batches fired.", per_batcher("n_batches"))
        reg.counter("repro_batcher_failed_total",
                    "Requests failed by a raising batch.",
                    per_batcher("n_failed"))
        reg.counter("repro_batcher_cache_hits_total",
                    "Requests answered by the result cache.",
                    per_batcher("n_cache_hits"))
        reg.counter("repro_batcher_cancelled_total",
                    "Requests dequeued by cancellation.",
                    per_batcher("n_cancelled"))
        reg.gauge("repro_batcher_queue_depth",
                  "Requests waiting in the micro-batch queue.",
                  per_batcher("depth"))
        reg.gauge("repro_batcher_inflight",
                  "Requests riding a batch being executed right now.",
                  per_batcher("n_inflight"))
        reg.histogram("repro_batcher_queue_wait_seconds",
                      "Submit-to-fire wait per request.",
                      per_entry(lambda e: e.batcher.queue_wait_view()))
        reg.histogram("repro_batcher_batch_exec_seconds",
                      "Engine execution time per fired batch.",
                      per_entry(lambda e: e.batcher.batch_exec_view()))
        reg.counter("repro_cache_hits_total", "Result-cache hits.",
                    per_cache("hits"))
        reg.counter("repro_cache_misses_total", "Result-cache misses.",
                    per_cache("misses"))
        reg.counter("repro_cache_insertions_total",
                    "Result-cache insertions.", per_cache("insertions"))
        reg.counter("repro_cache_evictions_total",
                    "Result-cache evictions.", per_cache("evictions"))
        reg.gauge("repro_cache_entries", "Result-cache resident entries.",
                  per_cache("entries"))
        reg.gauge("repro_cache_bytes", "Result-cache resident bytes.",
                  per_cache("bytes"))
        reg.counter("repro_decode_requests_total",
                    "Completed decode requests.",
                    per_decoder("n_requests"))
        reg.counter("repro_decode_steps_total",
                    "Continuous-batching engine steps.",
                    per_decoder("n_steps"))
        reg.counter("repro_decode_tokens_total", "Generated tokens.",
                    per_decoder("n_tokens"))
        reg.counter("repro_decode_failed_total", "Failed decode requests.",
                    per_decoder("n_failed"))
        reg.gauge("repro_decode_active",
                  "Sequences in the running decode batch.",
                  per_decoder("n_active"))
        reg.gauge("repro_pool_workers", "Worker-pool threads.",
                  pool_stat("workers"))
        reg.counter("repro_pool_tasks_total", "Tasks the pool executed.",
                    pool_stat("n_tasks"))
        reg.counter("repro_pool_busy_seconds_total",
                    "Summed busy seconds across pool workers.",
                    pool_stat("busy_s"))
        reg.gauge("repro_pool_mean_utilization",
                  "Mean busy fraction across pool workers.",
                  pool_stat("mean_utilization"))
        reg.gauge("repro_pool_queue_depth", "Tasks waiting for a worker.",
                  pool_stat("queue_depth"))
        reg.gauge("repro_process_pool_workers", "Worker processes.",
                  proc_stat("workers"))
        reg.counter("repro_process_pool_tasks_total",
                    "Tasks executed in worker processes.",
                    proc_stat("n_tasks"))
        reg.counter("repro_process_pool_crashes_total",
                    "Worker-process crashes (each respawned).",
                    proc_stat("n_crashes"))
        reg.counter("repro_process_pool_pipe_fallback_total",
                    "Transfers that fell back from shared memory to pipes.",
                    proc_stat("n_pipe_fallback"))
        reg.gauge("repro_server_trace_buffer_size",
                  "Traces resident in the bounded buffer.",
                  lambda: self.traces.stats()["size"])
        reg.counter("repro_server_trace_added_total",
                    "Traces ever started.",
                    lambda: self.traces.stats()["n_added"])
        reg.counter("repro_server_trace_evicted_total",
                    "Traces evicted from the bounded buffer.",
                    lambda: self.traces.stats()["n_evicted"])
        reg.invariant(
            "batcher_conserved",
            lambda: all(e.batcher.stats()["conserved"]
                        for e in self._snapshot()))
        reg.invariant(
            "trace_buffer_bounded",
            lambda: self.traces.stats()["size"] <= self.traces.capacity)
        return reg
