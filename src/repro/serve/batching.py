"""Dynamic micro-batching: coalesce single requests into engine batches.

The engines amortize weight-side work across a batch, but serving traffic
arrives one request at a time.  :class:`MicroBatcher` sits between the two:
``submit`` enqueues a request and returns a :class:`Ticket`; queued requests
are coalesced — FIFO, oldest first — into one
:meth:`~repro.engine.session.PanaceaSession.serve_coalesced` call when
either batching knob fires:

* ``max_batch`` — enough requests are waiting to fill a batch;
* ``max_delay_s`` — the oldest ticket has waited long enough (checked by
  :meth:`pump`, the caller's service loop hook).

``Ticket.result()`` forces service of everything up to and including that
ticket, so a synchronous caller can always block for its answer; coalesced
outputs are **bit-exact** against running each request alone (see
``run_coalesced``).  Every ticket carries its queue wait, the batch it rode
in and its :class:`RequestRecord`, so the scheduler, the session and the
benchmarks share one latency measurement path.

The batcher is thread-safe: the queue and metrics sit behind a short-lived
state lock, while a service lock serializes batch execution so FIFO order
and bit-exactness survive concurrent submitters and pool workers (the
session additionally serializes itself — see
:class:`~repro.engine.session.PanaceaSession`).  Single-threaded callers
keep the exact historical behaviour, and the ``clock`` injection point
keeps the delay policy testable.

A :class:`~repro.serve.cache.ResultCache` can sit in front of the queue
(enable with ``BatchPolicy.cache_bytes``): a byte-identical repeat of an
already-served request returns a completed ticket immediately, without
touching the engine — bit-exact because cached outputs *are* recorded
engine outputs.

:class:`DecodeBatcher` is the autoregressive sibling: instead of coalescing
one-shot forwards it runs a *continuous* decode batch, where requests join
and leave the running batch per step.  A finishing sequence's KV-cache slot
is compacted away and refilled from the queue on the very next step — the
batch never drains to admit work, which is what keeps the engine batch full
under heavy-tail length mixes (``refill="drain"`` disables refilling and
degenerates to static batching, the baseline the decode bench compares
against).  Per-step math is the model's ``forward_step`` over the batched
KV caches, so every sequence's tokens are exactly the tokens it would
produce decoding alone (see :mod:`repro.nn.attention`).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import CancelledError
from dataclasses import dataclass, field

import numpy as np

from ..engine.session import (PanaceaSession, ProfileReport, RequestRecord,
                              ServiceModel)
from .cache import PrefixKVCache, ResultCache, request_key
from .metrics import LatencyStats

__all__ = ["BatchPolicy", "DeadlinePolicy", "Ticket", "MicroBatcher",
           "DecodePolicy", "DecodeTicket", "DecodeBatcher"]


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the dynamic micro-batching scheduler.

    ``max_batch=1`` degenerates to per-request execution (the baseline the
    serving bench compares against).  ``max_delay_s`` bounds the latency a
    request can pay waiting for riders; ``0`` means a request never waits
    for the *clock* (it still coalesces with whatever is already queued when
    service happens).  ``pad_axis``/``pad_value`` enable the padded split
    path for ragged trailing axes (token-id sequence lengths on causal
    models); ``None`` requires equal trailing dims.  ``cache_bytes`` > 0
    puts a content-addressed result cache of that byte budget in front of
    the deployment's queue (``0`` disables caching).
    """

    max_batch: int = 8
    max_delay_s: float = 0.002
    pad_axis: int | None = None
    pad_value: int = 0
    cache_bytes: int = 0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_delay_s < 0:
            raise ValueError(
                f"max_delay_s must be >= 0, got {self.max_delay_s}")
        if self.cache_bytes < 0:
            raise ValueError(
                f"cache_bytes must be >= 0, got {self.cache_bytes}")

    def release_wait_s(self, depth: int) -> float:
        """Seconds after submission when the queue head becomes due.

        ``depth`` is the current queue depth; the fixed-delay policy
        ignores it (a full batch fires through the depth check in
        ``submit`` regardless).  :class:`DeadlinePolicy` overrides this
        with a deadline-slack rule.
        """
        return self.max_delay_s

    @property
    def max_wait_s(self) -> float:
        """Upper bound on any time-based release wait — the *real* wall
        clamp serving threads apply so an injected test clock can never
        wedge a pool worker."""
        return self.max_delay_s


@dataclass(frozen=True)
class DeadlinePolicy(BatchPolicy):
    """SLO-aware micro-batch release: hold for riders while slack allows.

    Every request carries an implicit deadline ``submitted_t + slo_s``.
    Instead of waiting a fixed ``max_delay_s`` for riders, the scheduler
    holds a queued batch exactly until the oldest ticket's remaining slack
    shrinks to the batch's *expected service time* — estimated from
    measured per-layer latency via
    :class:`~repro.engine.session.ServiceModel` — and releases then: the
    latest moment the head request can still meet its SLO.  Short queues
    therefore wait longer (collecting riders, raising goodput) and deep
    queues release early (their expected service time is already large),
    which is what flattens the p99 under open-loop load vs a fixed delay.

    ``service=None`` (no profile measured yet) falls back to the fixed
    ``max_delay_s`` rule — a deployment without measurements schedules
    exactly like :class:`BatchPolicy`.  An already-expired deadline gives
    zero wait: the head releases on the next pump/serve pass.
    """

    slo_s: float = 0.05
    service: ServiceModel | None = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.slo_s <= 0:
            raise ValueError(f"slo_s must be > 0, got {self.slo_s}")

    @classmethod
    def from_profile(cls, report: ProfileReport, **kwargs) -> \
            "DeadlinePolicy":
        """Build a deadline policy whose service estimate is fitted to one
        measured :meth:`~repro.engine.session.PanaceaSession.profile`."""
        return cls(service=ServiceModel.from_profile(report), **kwargs)

    def release_wait_s(self, depth: int) -> float:
        if self.service is None:
            return self.max_delay_s
        batch = min(max(depth, 1), self.max_batch)
        return max(0.0, self.slo_s - self.service.expected_s(batch))

    @property
    def max_wait_s(self) -> float:
        return self.slo_s if self.service is not None else self.max_delay_s


@dataclass
class Ticket:
    """One submitted request: a claim on a future coalesced execution."""

    ticket_id: int
    submitted_t: float
    _batcher: "MicroBatcher" = field(repr=False)
    done: bool = False
    #: Whether the result came straight from the deployment's result cache
    #: (the request then never entered the queue; ``batch_size`` stays 0).
    cached: bool = False
    #: Filled at service time.
    queue_wait_s: float = 0.0
    batch_size: int = 0
    queue_depth_at_submit: int = 0
    record: RequestRecord | None = field(default=None, repr=False)
    #: The exception that killed this ticket's batch, if service failed.
    error: Exception | None = field(default=None, repr=False)
    #: The request's :class:`~repro.obs.trace.Trace` (None = untraced).
    trace: object | None = field(default=None, repr=False)
    _queue_span: object | None = field(default=None, repr=False)
    _output: np.ndarray | None = field(default=None, repr=False)
    _done_event: threading.Event = field(default_factory=threading.Event,
                                         repr=False)

    def _finish(self, *, output=None, error=None) -> None:
        """Resolve the ticket (exactly once) and wake any waiter."""
        self._output = output
        self.error = error
        self.done = True
        if self.trace is not None and getattr(self.trace, "root_autoclose",
                                              True):
            # Direct submit()/submit_async() callers own no post-serve work,
            # so ticket resolution is the end of the request.  The gateway
            # flips root_autoclose off and closes the root after its own
            # ``respond`` span.
            self.trace.root.end(
                status="error" if error is not None else "ok")
        self._done_event.set()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """The request's output; forces service if still queued (FIFO).

        Safe to call from any thread: if another thread's batch already
        claimed this ticket, the call waits for that execution instead of
        double-serving.  Re-raises the service failure if the ticket's batch
        raised — every rider of a failed batch carries the exception, so no
        caller blocks on a ticket that can never complete.

        ``timeout`` bounds only that wait on a batch *another* thread is
        executing — it is not a latency SLO: when this ticket is still
        queued, the call first drains its predecessors synchronously
        (FIFO), and work this thread performs itself is never abandoned
        mid-batch.
        """
        if not self.done:
            self._batcher.flush(upto=self.ticket_id)
            if not self._done_event.wait(timeout):
                raise TimeoutError(
                    f"ticket {self.ticket_id} not served within {timeout} s")
        if self.error is not None:
            raise self.error
        return self._output


class MicroBatcher:
    """Coalesces queued requests into engine batches over one session."""

    def __init__(self, session: PanaceaSession,
                 policy: BatchPolicy | None = None, *,
                 clock=time.perf_counter,
                 cache: ResultCache | None = None) -> None:
        self.session = session
        self.policy = policy or BatchPolicy()
        self.clock = clock
        if cache is None and self.policy.cache_bytes > 0:
            cache = ResultCache(self.policy.cache_bytes)
        self.cache = cache
        # Queue entries carry the request's content hash (None when caching
        # is off) so the insert after service never re-hashes the payload.
        self._queue: deque[tuple[Ticket, np.ndarray, str | None]] = deque()
        self._next_id = 0
        # Queue + metric state (short critical sections) vs batch service
        # (one coalesced execution at a time, FIFO preserved).
        self._lock = threading.Lock()
        self._service_lock = threading.Lock()
        # Scheduler-side lifetime metrics.
        self.queue_wait = LatencyStats()
        self.batch_exec = LatencyStats()
        self.n_batches = 0
        self.n_requests = 0
        self.n_failed = 0
        self.n_cache_hits = 0
        self.n_cancelled = 0
        #: Requests popped off the queue whose batch has not resolved yet
        #: — the term that makes the submission ledger conserve at any
        #: instant, not just when the batcher is idle.
        self.n_inflight = 0
        self._batch_size_sum = 0
        self.peak_depth = 0

    # -- intake ---------------------------------------------------------------
    def submit(self, x: np.ndarray, *, fire: bool = True,
               trace=None) -> Ticket:
        """Enqueue one request; serves immediately once a batch fills.

        ``fire=False`` only enqueues — the async path uses it so the
        *submitting* thread never executes a batch; a pool worker (or the
        eventual ``result()`` call) serves it instead.  A result-cache hit
        returns a completed ticket without queueing at all.

        ``trace`` attaches a :class:`~repro.obs.trace.Trace`: the ticket
        opens a ``queue_wait`` span now and the batch that claims it adds
        ``batch_release``/``engine_execute`` spans at fire time.  The
        *root* span stays open — it belongs to whoever created the trace
        (gateway or server), who closes it after responding.
        """
        x = np.asarray(x)
        key = None
        hit = None
        if self.cache is not None:
            key = request_key(x)      # hashed once, reused at insert time
            # Read-only view, not a copy: the hit goes straight onto the
            # ticket, whose consumers get the same immutable array a put()
            # froze — the warm-replay path pays zero memcpy.
            hit = self.cache.get(x, key=key, copy=False)
        with self._lock:
            ticket = Ticket(ticket_id=self._next_id, submitted_t=self.clock(),
                            _batcher=self, trace=trace,
                            queue_depth_at_submit=len(self._queue))
            self._next_id += 1
            if hit is not None:
                ticket.cached = True
                self.n_cache_hits += 1
            else:
                self._queue.append((ticket, x, key))
                self.peak_depth = max(self.peak_depth, len(self._queue))
            depth = len(self._queue)
        if trace is not None:
            trace.root.attrs["ticket_id"] = ticket.ticket_id
            trace.root.attrs["cached"] = hit is not None
        if hit is not None:
            ticket._finish(output=hit)
            return ticket
        if trace is not None:
            span = trace.span("queue_wait")
            span.attrs["queue_depth_at_submit"] = \
                ticket.queue_depth_at_submit
            ticket._queue_span = span
        if fire and depth >= self.policy.max_batch:
            # Re-checked at pop time: if a concurrent fire already drained
            # the queue below a full batch, don't serve the stragglers
            # prematurely — their delay window still stands.
            self._fire(self.policy.max_batch,
                       eligible=lambda _, depth_now:
                       depth_now >= self.policy.max_batch)
        return ticket

    def pump(self, now: float | None = None) -> int:
        """Service-loop hook: fire if the oldest ticket's release is due.

        The policy decides what "due" means: a fixed rider window for
        :class:`BatchPolicy` (``max_delay_s``), remaining deadline slack vs
        expected service time for :class:`DeadlinePolicy`.  Returns the
        number of requests served (possibly across several batches when the
        queue ran deep).  Call this regularly from the serving loop;
        ``Ticket.result()`` and :meth:`flush` do not need it.
        """
        served = 0
        now = self.clock() if now is None else now

        def due(head: Ticket, depth: int) -> bool:
            return (now - head.submitted_t
                    >= self.policy.release_wait_s(depth))

        while True:
            with self._lock:
                ready = bool(self._queue) and due(self._queue[0][0],
                                                  len(self._queue))
            if not ready:
                return served
            # The predicate re-runs on whatever is at the head at pop time,
            # so a fresh not-yet-due ticket that slid forward while we
            # waited for the service lock is never fired prematurely.
            fired = self._fire(self.policy.max_batch, eligible=due)
            if not fired:
                return served
            served += fired

    def flush(self, upto: int | None = None) -> int:
        """Serve the queue now (up to and including ticket ``upto``).

        FIFO fairness: a ticket can only be served after everything
        submitted before it, so forcing one ticket drains its predecessors.
        """
        served = 0

        def wanted(head: Ticket, _depth: int) -> bool:
            return upto is None or head.ticket_id <= upto

        while True:
            with self._lock:
                ready = bool(self._queue) and wanted(self._queue[0][0], 0)
            if not ready:
                return served
            fired = self._fire(self.policy.max_batch, eligible=wanted)
            if not fired:
                return served
            served += fired

    def serve(self, ticket: Ticket) -> np.ndarray:
        """Delay-aware service of one ticket — the async path's entry point.

        Honors ``max_delay_s`` exactly like the inline path: while the
        ticket's deadline has not passed and the queue has not filled a
        batch, the serving thread waits for riders instead of firing a
        batch of one (the whole point of the scheduler).  The wait is
        additionally bounded by *real* wall time so an injected test clock
        can never wedge a pool worker.
        """
        if not ticket.done and self.policy.max_wait_s > 0:
            real_deadline = time.perf_counter() + self.policy.max_wait_s
            while not ticket.done:
                with self._lock:
                    depth = len(self._queue)
                    is_head = bool(self._queue) \
                        and self._queue[0][0] is ticket
                # The release point moves with the queue: a deadline policy
                # shortens the wait as riders deepen the expected batch, so
                # it is recomputed every pass instead of fixed at entry.
                deadline = (ticket.submitted_t
                            + self.policy.release_wait_s(depth))
                remaining = min(deadline - self.clock(),
                                real_deadline - time.perf_counter())
                if remaining <= 0 or depth >= self.policy.max_batch:
                    break
                # Only the queue-head's serving thread polls (riders
                # arriving do not signal the event, so it must notice a
                # filling batch); every other thread sleeps on its done
                # event until served or its own deadline — poll work
                # scales with deployments, not requests.
                ticket._done_event.wait(min(remaining, 1e-3)
                                        if is_head else remaining)
        return ticket.result()

    def cancel(self, ticket: Ticket) -> bool:
        """Drop a still-queued ticket; returns whether it was dequeued.

        The async path's cancellation hook: a cancelled future must not
        leave its payload riding someone else's batch later.  A ticket
        already served (or already claimed by an in-flight batch) is not
        cancellable — the engine work is spent either way.
        """
        with self._lock:
            for i, (queued, _, _) in enumerate(self._queue):
                if queued is ticket:
                    del self._queue[i]
                    self.n_cancelled += 1
                    break
            else:
                return False
        if ticket._queue_span is not None:
            ticket._queue_span.attrs["cancelled"] = True
            ticket._queue_span.end(status="error")
        ticket._finish(error=CancelledError())
        return True

    @property
    def depth(self) -> int:
        """Requests currently waiting."""
        return len(self._queue)

    # -- service --------------------------------------------------------------
    def _fire(self, max_batch: int, eligible=None) -> int:
        """Serve one coalesced batch from the queue head (FIFO).

        ``eligible(head_ticket, depth)`` re-validates the caller's firing
        condition *at pop time*, under the locks: between a caller's check
        and this pop, concurrent fires may have replaced the queue head
        with a ticket that should still wait (not due, beyond ``upto``, or
        short of a full batch) — firing it anyway would silently void the
        delay policy.
        """
        with self._service_lock:
            with self._lock:
                if not self._queue:
                    return 0
                if eligible is not None and not eligible(
                        self._queue[0][0], len(self._queue)):
                    return 0
                group = [self._queue.popleft()
                         for _ in range(min(max_batch, len(self._queue)))]
                self.n_inflight += len(group)
            tickets = [t for t, _, _ in group]
            payloads = [x for _, x, _ in group]
            # Span timing runs on time.perf_counter even when the batcher
            # has an injected test clock: span endpoints must share one
            # clock domain with every other span of the trace.
            traced = any(t.trace is not None for t in tickets)
            release_spans = []
            if traced:
                fire_t = time.perf_counter()
                for ticket in tickets:
                    if ticket.trace is None:
                        release_spans.append(None)
                        continue
                    if ticket._queue_span is not None:
                        ticket._queue_span.end(end_s=fire_t)
                    span = ticket.trace.span("batch_release", start_s=fire_t)
                    span.attrs["batch_size"] = len(group)
                    release_spans.append(span)
            engine_spans = None
            t0 = self.clock()
            try:
                if traced:
                    serve_t0 = time.perf_counter()
                    for span in release_spans:
                        if span is not None:
                            span.end(end_s=serve_t0)
                    engine_spans = [
                        t.trace.span("engine_execute", start_s=serve_t0)
                        if t.trace is not None else None for t in tickets]
                outputs, records = self.session.serve_coalesced(
                    payloads, pad_axis=self.policy.pad_axis,
                    pad_value=self.policy.pad_value, traces=engine_spans)
            except Exception as exc:
                # The group is already off the queue; fail every rider
                # rather than strand valid tickets (or retry a poison batch
                # forever).  The triggering caller sees the raise; the other
                # riders see it from Ticket.result().  Traced riders keep an
                # error-status span instead of an unclosed leak.
                for i, ticket in enumerate(tickets):
                    if ticket.trace is not None:
                        if engine_spans is not None \
                                and engine_spans[i] is not None:
                            engine_spans[i].attrs["exception"] = repr(exc)
                            engine_spans[i].end(status="error")
                        elif release_spans[i] is not None:
                            release_spans[i].end(status="error")
                    ticket._finish(error=exc)
                with self._lock:
                    self.n_failed += len(group)
                    self.n_inflight -= len(group)
                raise
            exec_s = self.clock() - t0
            if traced:
                serve_t1 = time.perf_counter()
                for span in engine_spans:
                    if span is not None:
                        span.end(end_s=serve_t1)
            now = self.clock()
            waits = []
            for ticket, out, record in zip(tickets, outputs, records):
                ticket.record = record
                ticket.batch_size = len(group)
                ticket.queue_wait_s = max(
                    0.0, now - ticket.submitted_t - exec_s)
                waits.append(ticket.queue_wait_s)
                ticket._finish(output=out)
            with self._lock:
                for wait in waits:
                    self.queue_wait.observe(wait)
                self.batch_exec.observe(exec_s)
                self.n_batches += 1
                self.n_requests += len(group)
                self.n_inflight -= len(group)
                self._batch_size_sum += len(group)
        # Cache inserts run outside the service lock (the cache has its
        # own) with the keys hashed at intake, so recording outputs never
        # extends the window in which no other batch can fire.
        if self.cache is not None:
            for (_, payload, key), out in zip(group, outputs):
                self.cache.put(payload, out, key=key)
        return len(group)

    # -- observability --------------------------------------------------------
    def queue_wait_view(self) -> LatencyStats:
        """A consistent copy of the queue-wait accumulator.

        Taken under the batcher lock so server-wide rollups never read a
        count whose total has not landed yet (a concurrent ``_fire`` is
        observing waits while rollups run).
        """
        with self._lock:
            return LatencyStats(max_samples=self.queue_wait.max_samples) \
                .merge(self.queue_wait)

    def batch_exec_view(self) -> LatencyStats:
        """A consistent copy of the batch-execution accumulator (same
        contract as :meth:`queue_wait_view`; the Prometheus histogram's
        source)."""
        with self._lock:
            return LatencyStats(max_samples=self.batch_exec.max_samples) \
                .merge(self.batch_exec)

    def stats(self) -> dict:
        """Scheduler summary: batch shapes, queue waits, execution times."""
        with self._lock:
            stats = {
                "n_requests": self.n_requests,
                "n_batches": self.n_batches,
                "n_failed": self.n_failed,
                "n_cache_hits": self.n_cache_hits,
                "n_cancelled": self.n_cancelled,
                "n_submitted": self._next_id,
                "n_inflight": self.n_inflight,
                # The submission ledger, checked live under the lock:
                # everything ever submitted is exactly one of served,
                # cache-answered, cancelled, failed, still queued, or
                # riding an in-flight batch.
                "conserved": (self._next_id
                              == self.n_requests + self.n_cache_hits
                              + self.n_cancelled + self.n_failed
                              + len(self._queue) + self.n_inflight),
                "mean_batch_size": (self._batch_size_sum / self.n_batches
                                    if self.n_batches else 0.0),
                "depth": len(self._queue),
                "peak_depth": self.peak_depth,
                "queue_wait": self.queue_wait.summary(),
                "batch_exec": self.batch_exec.summary(),
                "policy": {
                    "max_batch": self.policy.max_batch,
                    "max_delay_s": self.policy.max_delay_s,
                    "pad_axis": self.policy.pad_axis,
                    "cache_bytes": self.policy.cache_bytes,
                },
            }
            slo_s = getattr(self.policy, "slo_s", None)
            if slo_s is not None:
                stats["policy"]["slo_s"] = slo_s
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        return stats


@dataclass(frozen=True)
class DecodePolicy:
    """Knobs of the continuous-batching decode scheduler.

    ``max_batch`` is the number of concurrent decode slots (the batched KV
    cache's row count).  ``refill`` picks the admission discipline:
    ``"continuous"`` refills a freed slot from the queue on the next step
    (requests join/leave mid-flight); ``"drain"`` admits only into an empty
    batch and runs it to completion — classic static batching, kept as the
    measurable baseline.  ``max_new_tokens`` caps generation per request
    (per-submit override allowed); ``eos_token`` stops a sequence early.
    ``temperature == 0`` decodes greedily; a positive value samples from
    the scaled softmax with a per-request generator seeded by ``(seed,
    request id)``, so replays are deterministic and independent of batch
    composition.  ``prefix_cache_bytes`` > 0 puts a
    :class:`~repro.serve.cache.PrefixKVCache` in front of prefill: a
    longest-prefix hit seeds the request's KV rows and only the unseen
    suffix is prefilled.  ``capacity`` is the initial per-slot KV capacity
    (grows geometrically).
    """

    max_batch: int = 4
    max_new_tokens: int = 32
    refill: str = "continuous"
    temperature: float = 0.0
    seed: int = 0
    eos_token: int | None = None
    capacity: int = 64
    prefix_cache_bytes: int = 0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {self.max_new_tokens}")
        if self.refill not in ("continuous", "drain"):
            raise ValueError(
                f"refill must be 'continuous' or 'drain', got {self.refill!r}")
        if self.temperature < 0:
            raise ValueError(
                f"temperature must be >= 0, got {self.temperature}")
        if self.prefix_cache_bytes < 0:
            raise ValueError(
                f"prefix_cache_bytes must be >= 0, "
                f"got {self.prefix_cache_bytes}")


@dataclass
class DecodeTicket:
    """One decode request: a claim on a streaming token sequence.

    Tokens land in :attr:`tokens` as the running batch produces them;
    :meth:`iter_tokens` streams them (driving the batcher while waiting)
    and :meth:`result` blocks for the full generation.  ``seeded_tokens``
    reports how many prompt positions a prefix-cache hit skipped;
    ``n_steps`` counts the engine steps this request rode in (prefill
    included), so per-request engine cost is observable per ticket.
    """

    ticket_id: int
    prompt: np.ndarray
    max_new_tokens: int
    submitted_t: float
    _batcher: "DecodeBatcher" = field(repr=False)
    done: bool = False
    #: Set by :meth:`DecodeBatcher.cancel` (e.g. the gateway noticing a
    #: dropped client mid-stream); the ticket finishes with
    #: :class:`~concurrent.futures.CancelledError` and its KV slot is
    #: compacted away, leaving the rest of the running batch untouched.
    cancelled: bool = False
    seeded_tokens: int = 0
    queue_wait_s: float = 0.0
    n_steps: int = 0
    tokens: list[int] = field(default_factory=list)
    error: Exception | None = field(default=None, repr=False)
    _rng: np.random.Generator | None = field(default=None, repr=False)
    _done_event: threading.Event = field(default_factory=threading.Event,
                                         repr=False)

    def _finish(self, error: Exception | None = None) -> None:
        self.error = error
        self.done = True
        self._done_event.set()

    def iter_tokens(self):
        """Yield generated tokens as the batch produces them (streaming).

        Drives the batcher while this ticket is unfinished, so a caller
        iterating a single ticket makes progress without a separate pump
        thread; with a server service thread attached, the drive calls
        return immediately and this just streams.
        """
        emitted = 0
        while True:
            with self._batcher._lock:
                n, done, error = len(self.tokens), self.done, self.error
            while emitted < n:
                yield self.tokens[emitted]
                emitted += 1
            if done:
                if error is not None:
                    raise error
                return
            self._batcher.step()

    def result(self, timeout: float | None = None) -> np.ndarray:
        """The full generated token sequence (drives the batch if needed)."""
        deadline = (time.perf_counter() + timeout
                    if timeout is not None else None)
        while not self.done:
            self._batcher.step()
            if deadline is not None and time.perf_counter() > deadline \
                    and not self.done:
                raise TimeoutError(
                    f"decode ticket {self.ticket_id} unfinished after "
                    f"{timeout} s")
        if self.error is not None:
            raise self.error
        return np.asarray(self.tokens, dtype=np.int64)


class _DecodeSlot:
    """One active row of the running batch (internal to DecodeBatcher)."""

    __slots__ = ("ticket", "next_token", "fed")

    def __init__(self, ticket: DecodeTicket) -> None:
        self.ticket = ticket
        self.next_token: int | None = None  # sampled, not yet fed
        self.fed: list[int] = []            # tokens whose KV is cached


class DecodeBatcher:
    """Continuous-batching autoregressive decoder over one session.

    Owns a batched KV cache of ``policy.max_batch`` slots; active requests
    occupy the compacted row range ``[0, n_active)`` so every engine step
    is one ``forward_step`` over basic slices — no per-step gather.  When a
    sequence finishes, the *last* active row is copied into its slot (a
    bitwise K/V move) and the freed tail row is reset; under
    ``refill="continuous"`` the next :meth:`step` immediately admits from
    the queue into the open slot.

    Every model call — per-request prefill and each batched step — runs
    with the session trace captured and folds into the session ledger via
    :meth:`~repro.engine.session.PanaceaSession.record_external` (a batched
    step is one engine batch with ``coalesced=n_active``), so
    ``session.stats()`` conservation holds across mixed one-shot + decode
    traffic.

    Thread-safe with the MicroBatcher's discipline: queue/metrics behind a
    short state lock, a service lock serializing admission and stepping.
    """

    def __init__(self, session: PanaceaSession,
                 policy: DecodePolicy | None = None, *,
                 clock=time.perf_counter,
                 prefix_cache: PrefixKVCache | None = None) -> None:
        model = session.model
        if not (hasattr(model, "forward_step")
                and hasattr(model, "new_kv_cache")):
            raise TypeError(
                f"{type(model).__name__} has no forward_step/new_kv_cache: "
                "decode serving needs a causal model (e.g. CausalLM)")
        session._require_prepared("DecodeBatcher")
        self.session = session
        self.policy = policy or DecodePolicy()
        self.clock = clock
        if prefix_cache is None and self.policy.prefix_cache_bytes > 0:
            prefix_cache = PrefixKVCache(self.policy.prefix_cache_bytes)
        self.prefix_cache = prefix_cache
        self._caches = None                  # built lazily at first admit
        self._slots: list[_DecodeSlot] = []  # active rows, compacted
        self._queue: deque[DecodeTicket] = deque()
        self._next_id = 0
        self._lock = threading.Lock()
        self._service_lock = threading.Lock()
        # Scheduler-side lifetime metrics.
        self.queue_wait = LatencyStats()
        self.step_exec = LatencyStats()
        self.n_requests = 0      # completed decodes
        self.n_steps = 0         # batched decode steps (prefills excluded)
        self.n_prefills = 0
        self.n_tokens = 0        # tokens generated
        self.n_failed = 0
        self.n_cancelled = 0
        self._step_width_sum = 0
        self.peak_active = 0

    # -- intake ---------------------------------------------------------------
    def submit(self, prompt, *,
               max_new_tokens: int | None = None) -> DecodeTicket:
        """Enqueue one prompt for decoding; returns its streaming ticket.

        Nothing executes here — admission happens inside :meth:`step`
        (driven by ``iter_tokens``/``result`` or a server service loop), so
        submitters never run the batch.
        """
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        if prompt.size == 0:
            raise ValueError("decode needs a non-empty prompt")
        budget = (self.policy.max_new_tokens if max_new_tokens is None
                  else max_new_tokens)
        if budget < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {budget}")
        with self._lock:
            ticket = DecodeTicket(
                ticket_id=self._next_id, prompt=prompt,
                max_new_tokens=budget, submitted_t=self.clock(),
                _batcher=self)
            if self.policy.temperature > 0:
                ticket._rng = np.random.default_rng(
                    (self.policy.seed, ticket.ticket_id))
            self._next_id += 1
            self._queue.append(ticket)
        return ticket

    def cancel(self, ticket: DecodeTicket) -> bool:
        """Abandon one decode request; returns whether anything changed.

        A still-queued ticket is dequeued and finishes with
        :class:`~concurrent.futures.CancelledError`.  An *active* ticket
        (mid-stream — the gateway's dropped-client case) is retired
        immediately under the service lock: its KV slot compacts away
        exactly like a normal finish, so the remaining sequences keep
        decoding bit-exactly and the freed slot refills from the queue on
        the next step.  A ticket already done is not cancellable.
        """
        dequeued = False
        with self._lock:
            for i, queued in enumerate(self._queue):
                if queued is ticket:
                    del self._queue[i]
                    ticket.cancelled = True
                    self.n_cancelled += 1
                    dequeued = True
                    break
        if dequeued:
            ticket._finish(error=CancelledError())
            return True
        # Possibly active: the service lock serializes against a running
        # step, so the retire below never races a forward that still feeds
        # this slot's pending token.
        with self._service_lock:
            for row, slot in enumerate(self._slots):
                if slot.ticket is ticket and not ticket.done:
                    ticket.cancelled = True
                    self._retire([row])
                    return True
        return False

    @property
    def depth(self) -> int:
        """Requests waiting for a slot (not counting active ones)."""
        return len(self._queue)

    @property
    def n_active(self) -> int:
        """Sequences currently holding a slot in the running batch."""
        return len(self._slots)

    # -- service --------------------------------------------------------------
    def step(self) -> int:
        """Advance the running batch by one engine step.

        Admits queued requests into free slots first (per the refill
        policy), then feeds every active sequence's pending token through
        one batched ``forward_step``.  Returns the number of sequences that
        produced a token this call (0 = idle: queue empty and no active
        work).  Drive it in a loop — ``while batcher.step(): ...`` — or let
        ticket waiters drive it.
        """
        with self._service_lock:
            produced = self._admit()
            n = len(self._slots)
            if n == 0:
                return produced
            x = np.array([[slot.next_token] for slot in self._slots],
                         dtype=np.int64)
            for slot in self._slots:
                slot.fed.append(int(slot.next_token))
                slot.next_token = None
            session = self.session
            try:
                with session._lock:
                    with session.trace.capture() as records:
                        t0 = time.perf_counter()
                        logits = session.model.forward_step(
                            x, self._caches, rows=slice(0, n))
                        latency = time.perf_counter() - t0
                    session.record_external((n, 1), records, latency,
                                            coalesced=n)
            except Exception as exc:
                # An engine failure mid-step poisons every rider's cache row
                # (their pending tokens are already consumed): fail them all
                # rather than strand tickets that can never complete.
                self._fail_all(exc)
                raise
            finished = []
            for i, slot in enumerate(self._slots):
                tok = self._sample(slot.ticket, logits[i, -1])
                self._emit(slot, tok)
                if self._is_done(slot, tok):
                    finished.append(i)
                else:
                    slot.next_token = tok
            self._retire(finished)
            with self._lock:
                self.n_steps += 1
                self._step_width_sum += n
                self.step_exec.observe(latency)
                self.n_tokens += n
            return produced + n

    def drain(self) -> int:
        """Run the batch until queue and slots are empty; returns tokens
        produced."""
        total = 0
        while True:
            produced = self.step()
            if produced == 0:
                return total
            total += produced

    def _admit(self) -> int:
        """Move queued requests into free slots; returns tokens produced
        (each admission's prefill samples that request's first token).
        Caller holds the service lock."""
        produced = 0
        with self._lock:
            # Decide once per admit pass: static batching ("drain") opens
            # admission only when the batch comes up empty, but then fills
            # every slot — deciding per ticket would collapse it to
            # batches of one.
            can_refill = (self.policy.refill == "continuous"
                          or not self._slots)
        while True:
            with self._lock:
                if (not self._queue or not can_refill
                        or len(self._slots) >= self.policy.max_batch):
                    return produced
                ticket = self._queue.popleft()
            try:
                produced += self._prefill(ticket)
            except Exception as exc:
                ticket._finish(error=exc)
                with self._lock:
                    self.n_failed += 1
                raise

    def _ensure_caches(self):
        if self._caches is None:
            self._caches = self.session.model.new_kv_cache(
                self.policy.max_batch, capacity=self.policy.capacity)
        return self._caches

    def _prefill(self, ticket: DecodeTicket) -> int:
        """Admit one request into the next free row: seed from the prefix
        cache when possible, prefill the unseen suffix, sample its first
        token.  Caller holds the service lock."""
        caches = self._ensure_caches()
        row = len(self._slots)
        slot = _DecodeSlot(ticket)
        prompt = ticket.prompt
        seeded = 0
        if self.prefix_cache is not None:
            hit = self.prefix_cache.lookup(prompt)
            if hit is not None:
                seeded, snapshot = hit
                for cache, (k, v) in zip(caches, snapshot):
                    cache.load_row(row, k, v)
                ticket.seeded_tokens = seeded
        slot.fed.extend(int(t) for t in prompt[:seeded])
        suffix = prompt[seeded:]
        session = self.session
        try:
            with session._lock:
                with session.trace.capture() as records:
                    t0 = time.perf_counter()
                    logits = session.model.forward_step(
                        suffix.reshape(1, -1), caches,
                        rows=slice(row, row + 1))
                    latency = time.perf_counter() - t0
                session.record_external((1, int(suffix.size)), records,
                                        latency)
        except Exception:
            # The layers ahead of the failing one already appended this
            # row's K/V: free the row, as _fail_all does, so the next
            # request admitted into it starts from an empty cache.
            for cache in caches:
                cache.reset_row(row)
            raise
        slot.fed.extend(int(t) for t in suffix)
        now = self.clock()
        ticket.queue_wait_s = max(0.0, now - ticket.submitted_t)
        self._slots.append(slot)
        if self.prefix_cache is not None and seeded < prompt.size:
            # Record the full prompt's KV so future prompts sharing it
            # (conversation turns, shared system prompts) skip its prefill.
            self.prefix_cache.put(
                prompt, [cache.snapshot_row(row) for cache in caches])
        tok = self._sample(ticket, logits[0, -1])
        self._emit(slot, tok)
        with self._lock:
            self.n_prefills += 1
            self.queue_wait.observe(ticket.queue_wait_s)
            self.peak_active = max(self.peak_active, len(self._slots))
        if self._is_done(slot, tok):
            self._retire([len(self._slots) - 1])
        else:
            slot.next_token = tok
        return 1

    def _sample(self, ticket: DecodeTicket, logits: np.ndarray) -> int:
        if self.policy.temperature == 0.0:
            return int(np.argmax(logits))
        z = logits / self.policy.temperature
        z = z - np.max(z)
        p = np.exp(z)
        p /= p.sum()
        return int(ticket._rng.choice(len(p), p=p))

    def _emit(self, slot: _DecodeSlot, tok: int) -> None:
        with self._lock:
            slot.ticket.tokens.append(tok)
            slot.ticket.n_steps += 1

    def _is_done(self, slot: _DecodeSlot, tok: int) -> bool:
        return (slot.ticket.cancelled
                or len(slot.ticket.tokens) >= slot.ticket.max_new_tokens
                or tok == self.policy.eos_token)

    def _retire(self, rows: list[int]) -> None:
        """Finish and compact the given rows (ascending). Caller holds the
        service lock."""
        for row in sorted(rows, reverse=True):
            slot = self._slots[row]
            if self.prefix_cache is not None and slot.fed:
                # The completed sequence's cached positions are a reusable
                # prefix for any continuation of this conversation.
                self.prefix_cache.put(
                    slot.fed,
                    [cache.snapshot_row(row) for cache in self._caches])
            last = len(self._slots) - 1
            if row != last:
                for cache in self._caches:
                    cache.copy_row(last, row)
                self._slots[row] = self._slots[last]
            for cache in self._caches:
                cache.reset_row(last)
            self._slots.pop()
            if slot.ticket.cancelled:
                with self._lock:
                    self.n_cancelled += 1
                slot.ticket._finish(error=CancelledError())
            else:
                with self._lock:
                    self.n_requests += 1
                slot.ticket._finish()

    def _fail_all(self, exc: Exception) -> None:
        """Fail every active ticket after an engine error mid-step."""
        for slot in self._slots:
            slot.ticket._finish(error=exc)
        with self._lock:
            self.n_failed += len(self._slots)
        for cache in self._caches or []:
            for row in range(len(self._slots)):
                cache.reset_row(row)
        self._slots.clear()

    # -- observability --------------------------------------------------------
    def queue_wait_view(self) -> LatencyStats:
        """A consistent copy of the admission-wait accumulator."""
        with self._lock:
            return LatencyStats(max_samples=self.queue_wait.max_samples) \
                .merge(self.queue_wait)

    def stats(self) -> dict:
        """Scheduler summary: slots, step widths, waits, prefix-cache view."""
        with self._lock:
            stats = {
                "n_requests": self.n_requests,
                "n_steps": self.n_steps,
                "n_prefills": self.n_prefills,
                "n_tokens": self.n_tokens,
                "n_failed": self.n_failed,
                "n_cancelled": self.n_cancelled,
                "depth": len(self._queue),
                "n_active": len(self._slots),
                "peak_active": self.peak_active,
                "mean_step_width": (self._step_width_sum / self.n_steps
                                    if self.n_steps else 0.0),
                "queue_wait": self.queue_wait.summary(),
                "step_exec": self.step_exec.summary(),
                "policy": {
                    "max_batch": self.policy.max_batch,
                    "max_new_tokens": self.policy.max_new_tokens,
                    "refill": self.policy.refill,
                    "temperature": self.policy.temperature,
                    "eos_token": self.policy.eos_token,
                    "prefix_cache_bytes": self.policy.prefix_cache_bytes,
                },
            }
        if self.prefix_cache is not None:
            stats["prefix_cache"] = self.prefix_cache.stats()
        return stats
