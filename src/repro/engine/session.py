"""Batched inference sessions over prepared engines.

:class:`PanaceaSession` is the serving-side entry point of the two-phase
architecture: calibrate and convert a model once (every layer's
:class:`LayerPlan` is built at conversion time), then stream request batches
through :meth:`run` with zero per-request weight work.  Each request's
per-layer execution trace is folded into the session's lifetime counters
(:meth:`stats`, :meth:`total_ops`); the :class:`RequestRecord` itself goes
back to whichever caller asked for it (:meth:`serve_coalesced`,
:meth:`record_external`) and is not retained, so a session serves an
unbounded request stream in constant memory.

    session = PanaceaSession(model, PtqConfig(scheme="aqs"))
    session.calibrate(calibration_batches)      # offline phase
    for batch in request_stream:
        out = session.run(batch)                # online phase, plans cached

Three serving entry points share the cached plans:

* :meth:`run` — one request batch per call;
* :meth:`run_many` — lazily stream a batch iterable through :meth:`run`;
* :meth:`run_coalesced` — fuse several independent requests into one engine
  batch (the micro-batching scheduler's path) and split outputs and trace
  records back per request, bit-exactly.

``run`` on an uncalibrated session raises unless the session was built with
``auto_calibrate=True`` — calibrating on served traffic is a demo shortcut,
not a production behaviour, so it is opt-in.

**Thread safety.**  A session serializes itself: every serving entry point
(``run``/``run_coalesced``/``serve_coalesced``) and every accounting reader
(``stats``/``total_ops``) takes the session's re-entrant lock, so
concurrent callers see consistent lifetime counters.  The layer plans
are built once at calibration and shared read-only afterwards.  Parallelism
comes from running *different* sessions concurrently (one per deployment —
see :class:`~repro.serve.pool.WorkerPool`); two threads hammering one
session are correct but execute one forward at a time.
"""

from __future__ import annotations

import ctypes
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Sequence

import numpy as np

from ..gemm.workload import OpCounts

if TYPE_CHECKING:  # imported lazily at runtime to avoid a core<->engine cycle
    from ..core.pipeline import (ExecutionTrace, LayerExecution,
                                 LayerQuantRecord, PtqConfig)

__all__ = ["PanaceaSession", "DecodeSession", "RequestRecord",
           "LayerProfile", "ProfileReport", "ServiceModel"]


#: glibc ``mallopt`` parameter numbers (``<malloc.h>``).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_heap_kept = False


def keep_heap_mapped() -> None:
    """Keep freed MB-sized temporaries in the heap for reuse, process-wide.

    glibc serves blocks above its mmap threshold from fresh mappings and
    hands freed heap tops above its trim threshold back to the OS, so each
    forward re-faults the same numpy temporaries page by page.  Raising
    the thresholds to 32 MiB and 64 MiB (through ``mallopt``) keeps them
    mapped.  The setting holds for the whole process and every thread; the
    first call makes it, later calls return at once.  A no-op off glibc.
    """
    global _heap_kept
    if _heap_kept:
        return
    _heap_kept = True
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


@dataclass(frozen=True)
class ServiceModel:
    """Expected engine-batch service time as a function of batch size.

    The slack-estimation currency of SLO-aware scheduling: a
    :class:`~repro.serve.batching.DeadlinePolicy` holds a queued batch
    until the oldest ticket's remaining deadline slack shrinks to the
    batch's *expected service time*, and this model is where that
    expectation comes from — ``base_s`` is the per-forward overhead
    outside the GEMM layers (norms, softmax, Python dispatch) and
    ``per_item_s`` the measured GEMM cost of one batch row, both derived
    from the same :class:`LayerProfile` measurements the serving records
    carry (one measurement path, per the serving design).
    """

    base_s: float
    per_item_s: float

    def __post_init__(self) -> None:
        if self.base_s < 0 or self.per_item_s < 0:
            raise ValueError(
                f"service model times must be >= 0, got base_s={self.base_s} "
                f"per_item_s={self.per_item_s}")

    def expected_s(self, batch_size: int) -> float:
        """Expected wall seconds to serve one engine batch of ``batch_size``
        coalesced requests."""
        return self.base_s + self.per_item_s * max(0, batch_size)

    @classmethod
    def from_profile(cls, report: "ProfileReport") -> "ServiceModel":
        """Fit the model to one measured :meth:`PanaceaSession.profile`.

        GEMM time scales with the row count (the engines are row-linear in
        the fast path), so the profiled per-forward layer time divides by
        the profiled batch rows to give ``per_item_s``; everything outside
        the GEMM layers is batch-size-independent overhead and becomes
        ``base_s``.
        """
        repeats = max(1, report.repeats)
        rows = report.batch_shape[0] if report.batch_shape else 1
        per_forward_layer_s = report.layer_s / repeats
        return cls(base_s=report.other_s / repeats,
                   per_item_s=per_forward_layer_s / max(1, rows))


@dataclass
class LayerProfile:
    """Aggregated measurements of one GEMM layer across profiling passes."""

    name: str
    n_calls: int
    total_s: float
    ops: OpCounts
    scheme: str

    @property
    def mean_s(self) -> float:
        return self.total_s / self.n_calls if self.n_calls else 0.0


@dataclass
class ProfileReport:
    """One :meth:`PanaceaSession.profile` result.

    ``layers`` is in first-execution order (the model's layer chain);
    ``total_s`` is the summed wall time of the profiled forwards, so
    ``other_s`` — the time outside GEMM layers (norms, activations,
    attention softmax, Python dispatch) — is ``total_s`` minus the layer
    sum, never negative.
    """

    layers: list[LayerProfile]
    total_s: float
    repeats: int
    batch_shape: tuple[int, ...]

    @property
    def layer_s(self) -> float:
        return sum(layer.total_s for layer in self.layers)

    @property
    def other_s(self) -> float:
        return max(0.0, self.total_s - self.layer_s)

    def latency_by_layer(self) -> dict[str, float]:
        """Mean per-call wall seconds keyed by dotted layer name."""
        return {layer.name: layer.mean_s for layer in self.layers}

    def service_model(self) -> ServiceModel:
        """The deadline scheduler's slack estimator fitted to this profile
        (see :meth:`ServiceModel.from_profile`)."""
        return ServiceModel.from_profile(self)

    def total_ops(self) -> OpCounts:
        total = OpCounts()
        for layer in self.layers:
            total = total.merge(layer.ops)
        return total


@dataclass
class RequestRecord:
    """One served request: its batch shape and per-layer executions.

    ``latency_s`` is the wall-clock time of the engine forward that served
    the request; requests coalesced into one engine batch share the batch's
    wall time (``coalesced`` holds how many requests rode in that batch, so
    per-request cost is ``latency_s / coalesced`` and latencies must not be
    summed naively across riders).
    """

    request_id: int
    batch_shape: tuple[int, ...]
    layers: list["LayerExecution"] = field(default_factory=list)
    latency_s: float = 0.0
    coalesced: int = 1

    def total_ops(self) -> OpCounts:
        total = OpCounts()
        for rec in self.layers:
            total = total.merge(rec.ops)
        return total


def _apportion(total: int, weights: Sequence[int]) -> list[int]:
    """Split integer ``total`` proportionally to ``weights``, exactly.

    The cumulative-floor scheme guarantees the shares sum to ``total`` with
    each share within one unit of its exact proportional value, so per-layer
    op ledgers split across coalesced requests conserve the batch totals.
    """
    wsum = sum(weights)
    if wsum == 0:
        shares = [0] * len(weights)
        if weights:
            shares[-1] = total
        return shares
    shares, acc, run = [], 0, 0
    for w in weights:
        run += w
        nxt = total * run // wsum
        shares.append(nxt - acc)
        acc = nxt
    return shares


def _split_ops(ops: OpCounts, weights: Sequence[int]) -> list[OpCounts]:
    """Apportion one op ledger over coalesced requests (totals conserved)."""
    fields_ = ("mul4", "add", "ema_nibbles", "rle_index_bits",
               "comp_mul4", "comp_add")
    per_field = {f: _apportion(getattr(ops, f), weights) for f in fields_}
    return [OpCounts(**{f: per_field[f][i] for f in fields_})
            for i in range(len(weights))]


class PanaceaSession:
    """Two-phase inference session: prepare layer plans once, execute many.

    Owns the PTQ pipeline, the plan cache (one :class:`LayerPlan` per GEMM
    layer, built at conversion time) and the execution trace.  Serving
    entry points collect each request's layer records through
    :meth:`ExecutionTrace.capture` and fold them into the lifetime counters
    :meth:`stats` and :meth:`total_ops` report; no request record is kept.

    ``auto_calibrate`` opts in to the demo behaviour of calibrating on the
    first served batch; without it, :meth:`run` on an unprepared session
    raises :class:`RuntimeError`.
    """

    def __init__(self, model, config: "PtqConfig | None" = None, *,
                 calibration: Iterable | None = None,
                 count_ops: bool = True, keep_masks: bool = False,
                 auto_calibrate: bool = False) -> None:
        from ..core.pipeline import ExecutionTrace, PtqConfig, PtqPipeline

        keep_heap_mapped()
        self.config = config or PtqConfig()
        self.model = model
        self.pipeline = PtqPipeline(model, self.config)
        self.trace: "ExecutionTrace" = ExecutionTrace(keep_masks=keep_masks)
        self.count_ops = count_ops
        self.auto_calibrate = auto_calibrate
        self._prepared = False
        # Serializes execution and accounting; re-entrant because the
        # coalesced path degenerates to run() for single-request groups.
        self._lock = threading.RLock()
        # Lifetime accounting: the session's only request ledger.
        self._lifetime_requests = 0
        self._lifetime_layer_calls = 0
        self._lifetime_ops = OpCounts()
        self._lifetime_rho_w_sum = 0.0
        self._lifetime_rho_x_sum = 0.0
        # One engine batch per run()/run_coalesced() call; exec time is
        # summed per batch so coalesced riders do not overcount wall time.
        self._lifetime_batches = 0
        self._lifetime_exec_s = 0.0
        if calibration is not None:
            self.calibrate(calibration)

    @property
    def prepared(self) -> bool:
        """Whether calibration ran and the layer plans are built."""
        return self._prepared

    @property
    def lifetime_requests(self) -> int:
        """Requests served over the session lifetime (also the next id)."""
        return self._lifetime_requests

    def calibrate(self, batches: Iterable) -> "PanaceaSession":
        """Offline phase: observe ``batches``, convert, build all plans."""
        with self._lock:
            self.pipeline.calibrate(batches)
            self.model = self.pipeline.convert(trace=self.trace,
                                               count_ops=self.count_ops)
            self._prepared = True
        return self

    @classmethod
    def restore(cls, model, config: "PtqConfig",
                records: "dict[str, LayerQuantRecord]",
                plans: dict[str, Any], *, count_ops: bool = True,
                keep_masks: bool = False,
                auto_calibrate: bool = False) -> "PanaceaSession":
        """Rebuild a ready-to-serve session from persisted artifacts.

        ``records`` and ``plans`` come from a
        :class:`~repro.serve.store.PlanStore` load (or any equivalent
        snapshot of ``pipeline.records`` / ``session.plans``); conversion
        injects the given plans so no engine ``prepare`` runs — the restored
        session serves with zero re-prepare work.  ``model`` must be the
        same float architecture the records were calibrated on.
        """
        session = cls(model, config, count_ops=count_ops,
                      keep_masks=keep_masks, auto_calibrate=auto_calibrate)
        session.pipeline.records = dict(records)
        session.model = session.pipeline.convert(
            trace=session.trace, count_ops=count_ops, plans=plans)
        session._prepared = True
        return session

    @property
    def plans(self) -> dict[str, Any]:
        """The cached layer plans, keyed by dotted layer name."""
        return self.pipeline.plans()

    def _require_prepared(self, what: str) -> None:
        if not self._prepared:
            raise RuntimeError(
                f"{what} needs a calibrated session: call "
                "session.calibrate(held_out_batches) first, or construct "
                "PanaceaSession(..., auto_calibrate=True) to opt in to "
                "calibrating on the first served batch (demo shortcut; "
                "production callers should calibrate explicitly).")

    def run(self, batch: np.ndarray):
        """Serve one request batch; returns the model output.

        Executes only the per-request activation path — all weight-side work
        was done by :meth:`calibrate`.  An uncalibrated session raises unless
        it was built with ``auto_calibrate=True``, in which case it
        calibrates on this first batch.
        """
        with self._lock:
            out, _ = self._run_one(batch)
        return out

    def _run_one(self, batch: np.ndarray):
        """One request forward plus its accounting; caller holds the lock."""
        if not self._prepared:
            if not self.auto_calibrate:
                self._require_prepared("run()")
            self.calibrate([batch])
        with self.trace.capture() as layers:
            t0 = time.perf_counter()
            out = self.model(batch)
            latency = time.perf_counter() - t0
        record = RequestRecord(
            request_id=self._lifetime_requests,
            batch_shape=tuple(np.shape(batch)),
            layers=layers,
            latency_s=latency,
        )
        self._account_batch([record], latency)
        return out, record

    def _account_batch(self, records: Sequence[RequestRecord],
                       latency_s: float) -> None:
        """Fold one engine batch's request records into the lifetime
        counters; caller holds the lock."""
        for record in records:
            self._lifetime_requests += 1
            self._lifetime_layer_calls += len(record.layers)
            self._lifetime_ops = self._lifetime_ops.merge(record.total_ops())
            for rec in record.layers:
                self._lifetime_rho_w_sum += rec.rho_w
                self._lifetime_rho_x_sum += rec.rho_x
        self._lifetime_batches += 1
        self._lifetime_exec_s += latency_s

    def run_coalesced(self, batches: Sequence[np.ndarray], *,
                      pad_axis: int | None = None, pad_value=0) -> list:
        """Serve several requests as one fused engine batch, split results.

        The micro-batching path: the requests are concatenated along axis 0
        (batch sizes may be ragged) and pushed through the model in a single
        forward, paying one engine-batch overhead for all of them.  Every
        GEMM column belongs to exactly one request and quantization
        parameters are fixed after calibration, so each request's output is
        **bit-exact** against running it alone.

        ``pad_axis`` additionally pads a trailing axis (e.g. the sequence
        axis of token-id batches) to the longest request before fusing and
        slices outputs back afterwards.  Right-padding is exact for causal
        models — position ``i`` never attends past ``i`` — and is the only
        supported use; bidirectional models must coalesce equal-length
        requests.

        Trace attribution is per *request*: the coalesced forward's layer
        records are split into per-request :class:`LayerExecution` copies
        whose column counts and op ledgers are apportioned by each request's
        share of the fused batch (totals conserve the batch exactly).  Note
        the batch totals themselves are *not* the sum of solo-run ledgers:
        slice vectors tile ``v`` output columns, so fusing short requests
        packs vectors that solo runs would pad — coalescing genuinely
        lowers the modeled hardware work.  Activation masks span vector
        groups that straddle request boundaries, so split records carry the
        layer-static weight mask but no per-request activation mask.

        Returns the per-request outputs in submission order.
        """
        return self.serve_coalesced(batches, pad_axis=pad_axis,
                                    pad_value=pad_value)[0]

    def serve_coalesced(self, batches: Sequence[np.ndarray], *,
                        pad_axis: int | None = None, pad_value=0,
                        traces: Sequence | None = None,
                        ) -> tuple[list, list[RequestRecord]]:
        """:meth:`run_coalesced` plus the per-request records, atomically.

        The scheduler's entry point: outputs and records come back
        positionally matched under one lock acquisition, so a concurrent
        caller on another thread can never interleave its own requests
        between this group's execution and its record attribution.  The
        returned records are the only copy: the session keeps just the
        lifetime counters they were folded into.

        ``traces`` holds one tracing span (or ``None``) per request; each
        span gains request attribution attributes only — the fused path
        opens no child spans.
        """
        batches = [np.asarray(b) for b in batches]
        if not batches:
            return [], []
        with self._lock:
            outputs, records = self._serve_coalesced(batches, pad_axis,
                                                     pad_value)
        if traces is not None:
            for span, record in zip(traces, records):
                if span is None:
                    continue
                span.attrs["request_id"] = record.request_id
                span.attrs["batch_shape"] = list(record.batch_shape)
                span.attrs["n_layers"] = len(record.layers)
                span.attrs["coalesced"] = record.coalesced
        return outputs, records

    def _serve_coalesced(self, batches: list, pad_axis: int | None,
                         pad_value) -> tuple[list, list[RequestRecord]]:
        """Fused execution body; caller holds the lock."""
        if len(batches) == 1:
            out, record = self._run_one(batches[0])
            return [out], [record]
        if not self._prepared:
            if not self.auto_calibrate:
                self._require_prepared("run_coalesced()")
            # Same opt-in demo semantics as run(): calibrate on the first
            # served traffic.  Calibration feeds batches through the float
            # model one at a time, so ragged shapes need no padding here.
            self.calibrate(batches)

        ndim = batches[0].ndim
        if any(b.ndim != ndim for b in batches):
            raise ValueError(
                "coalesced requests must share a rank; got "
                f"{sorted({b.ndim for b in batches})}")
        if pad_axis is not None:
            if not 0 < pad_axis < ndim:
                raise ValueError(
                    f"pad_axis must be a trailing axis in [1, {ndim - 1}], "
                    f"got {pad_axis}")
            target = max(b.shape[pad_axis] for b in batches)
            lengths = [b.shape[pad_axis] for b in batches]
            padded = []
            for b in batches:
                widths = [(0, 0)] * ndim
                widths[pad_axis] = (0, target - b.shape[pad_axis])
                padded.append(np.pad(b, widths, constant_values=pad_value)
                              if b.shape[pad_axis] < target else b)
        else:
            target, lengths, padded = None, None, batches
        trailing = {b.shape[1:] for b in padded}
        if len(trailing) > 1:
            raise ValueError(
                "coalesced requests must share trailing dims (pass pad_axis "
                f"to pad a ragged axis); got {sorted(trailing)}")

        sizes = [b.shape[0] for b in padded]
        fused = np.concatenate(padded, axis=0)
        with self.trace.capture() as fused_layers:
            t0 = time.perf_counter()
            out = self.model(fused)
            latency = time.perf_counter() - t0

        # Column shares: every GEMM flattens leading dims, so request i's
        # columns are a contiguous block proportional to its row share.
        per_request_layers: list[list] = [[] for _ in batches]
        for rec in fused_layers:
            ns = _apportion(rec.n, sizes)
            ops_split = (_split_ops(rec.ops, sizes) if self.count_ops
                         else [OpCounts() for _ in sizes])
            for i, (n_i, ops_i) in enumerate(zip(ns, ops_split)):
                per_request_layers[i].append(replace(
                    rec, n=n_i, ops=ops_i, ux_mask=None))

        outputs, records = [], []
        row = 0
        for i, b in enumerate(batches):
            out_i = out[row:row + sizes[i]]
            if (pad_axis is not None and pad_axis < out_i.ndim
                    and out_i.shape[pad_axis] == target):
                index = [slice(None)] * out_i.ndim
                index[pad_axis] = slice(0, lengths[i])
                out_i = out_i[tuple(index)]
            outputs.append(out_i)
            records.append(RequestRecord(
                request_id=self._lifetime_requests + i,
                batch_shape=tuple(b.shape),
                layers=per_request_layers[i],
                latency_s=latency,
                coalesced=len(batches),
            ))
            row += sizes[i]
        self._account_batch(records, latency)
        return outputs, records

    def record_external(self, batch_shape: Sequence[int],
                        layers: "Sequence[LayerExecution]",
                        latency_s: float, *,
                        coalesced: int = 1) -> RequestRecord:
        """Fold an externally-executed request into the session's ledger.

        The decode scheduler executes this session's layer modules with the
        trace *captured* (see :meth:`ExecutionTrace.capture`), so nothing
        lands in the shared accounting during execution.  This method is
        where those captured layer records become a first-class
        :class:`RequestRecord` — id assignment and lifetime counters behave
        exactly as if :meth:`run` had served the request.  Taken under the
        session lock.
        """
        with self._lock:
            record = RequestRecord(
                request_id=self._lifetime_requests,
                batch_shape=tuple(batch_shape),
                layers=list(layers),
                latency_s=latency_s,
                coalesced=coalesced,
            )
            self._account_batch([record], latency_s)
            return record

    def profile(self, batch: np.ndarray, *, repeats: int = 1) -> ProfileReport:
        """Measure per-layer wall-clock latency and op counts on ``batch``.

        Runs ``repeats`` forwards with the trace captured, so profiling is a
        pure measurement: nothing is added to the request ledger or the
        lifetime counters.  Each GEMM layer's latency comes from the layer
        itself (``LayerExecution.latency_s`` — the same number every serving
        record carries), which is the one measurement path the profile CLI
        and the serving records share.

        Layer aggregation is by dotted name, in first-execution order.
        """
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        self._require_prepared("profile()")
        with self._lock:
            order: list[str] = []
            totals: dict[str, LayerProfile] = {}
            total_s = 0.0
            for _ in range(repeats):
                with self.trace.capture() as records:
                    t0 = time.perf_counter()
                    self.model(batch)
                    total_s += time.perf_counter() - t0
                for rec in records:
                    if rec.name not in totals:
                        order.append(rec.name)
                        totals[rec.name] = LayerProfile(
                            name=rec.name, n_calls=0, total_s=0.0,
                            ops=OpCounts(), scheme=rec.scheme)
                    layer = totals[rec.name]
                    layer.n_calls += 1
                    layer.total_s += rec.latency_s
                    layer.ops = layer.ops.merge(rec.ops)
            return ProfileReport(
                layers=[totals[name] for name in order],
                total_s=total_s, repeats=repeats,
                batch_shape=tuple(np.shape(batch)))

    def run_many(self, batches: Iterable) -> Iterator:
        """Stream request batches through :meth:`run`, yielding outputs.

        Lazy: each batch executes when consumed, against the same cached
        layer plans — the whole stream pays the weight path zero times.
        """
        for batch in batches:
            yield self.run(batch)

    def total_ops(self) -> OpCounts:
        """Merged lifetime op ledger over every request ever served.

        Returns a copy; mutating it cannot corrupt the session's accounting.
        """
        with self._lock:
            return self._lifetime_ops.merge(OpCounts())

    def stats(self) -> dict:
        """Serving summary: request/layer counts, ops and mean sparsities.

        All values are exact lifetime counters.  ``n_engine_batches``/
        ``exec_s`` count fused forwards once, so coalesced riders never
        overcount wall time.

        Taken under the session lock, so a concurrent reader sees one
        consistent snapshot (never, say, a request counted whose ops have
        not landed yet).
        """
        with self._lock:
            n_calls = self._lifetime_layer_calls
            ops = self._lifetime_ops
            return {
                "scheme": self.config.scheme,
                "n_requests": self._lifetime_requests,
                "n_layer_calls": n_calls,
                "n_plans": len(self.plans),
                "n_engine_batches": self._lifetime_batches,
                "exec_s": self._lifetime_exec_s,
                "mul4": ops.mul4,
                "add": ops.add,
                "ema_nibbles": ops.ema_nibbles,
                "mean_rho_w": (self._lifetime_rho_w_sum / n_calls
                               if n_calls else 0.0),
                "mean_rho_x": (self._lifetime_rho_x_sum / n_calls
                               if n_calls else 0.0),
            }


class DecodeSession:
    """Per-request incremental decode state over one :class:`PanaceaSession`.

    A decode session owns the request-side state an autoregressive request
    accumulates across submits — the per-layer KV caches, the absolute
    position, and the sampling configuration — while the underlying
    :class:`PanaceaSession` keeps owning the model, the layer plans and the
    accounting ledger.  Each :meth:`prefill`/:meth:`step` runs the model's
    ``forward_step`` with the shared trace *captured* (nothing lands in the
    session ledger mid-flight) and then folds the layer records in via
    :meth:`PanaceaSession.record_external`, so ``session.stats()`` stays
    conserved whether traffic arrives through ``run()``, the micro-batcher,
    or a decode loop.

    The wrapped model must expose the incremental API
    (``forward_step``/``new_kv_cache`` — :class:`repro.nn.CausalLM` does);
    anything else raises :class:`TypeError` up front.

    Sampling is greedy (argmax) at ``temperature == 0.0``; a positive
    temperature samples from the scaled softmax with a generator seeded by
    ``seed``, so decodes replay deterministically.

    Not thread-safe per instance — one request's decode is inherently
    sequential.  Distinct :class:`DecodeSession` instances over one
    underlying session may run from different threads: every model call is
    taken under the session lock, serializing against ``run()`` and other
    decoders exactly like any other session entry point.
    """

    def __init__(self, session: PanaceaSession, *, capacity: int = 16,
                 temperature: float = 0.0, seed: int = 0,
                 eos_token: int | None = None) -> None:
        model = session.model
        if not (hasattr(model, "forward_step")
                and hasattr(model, "new_kv_cache")):
            raise TypeError(
                f"{type(model).__name__} has no forward_step/new_kv_cache: "
                "incremental decode needs a causal model (e.g. CausalLM)")
        if temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {temperature}")
        session._require_prepared("DecodeSession")
        self.session = session
        self.temperature = temperature
        self.eos_token = eos_token
        self._rng = np.random.default_rng(seed)
        self._capacity = capacity
        self.caches = None          # built lazily at first prefill/seed
        self.position = 0           # tokens currently cached
        self.tokens: list[int] = []  # full sequence: prompt + generated
        self.n_seeded = 0           # prefix positions seeded from a cache

    def _ensure_caches(self):
        if self.caches is None:
            self.caches = self.session.model.new_kv_cache(
                1, capacity=self._capacity)
        return self.caches

    def _forward(self, ids: np.ndarray) -> np.ndarray:
        """One captured+accounted ``forward_step`` over ``(1, tq)`` ids."""
        caches = self._ensure_caches()
        session = self.session
        with session._lock:
            with session.trace.capture() as records:
                t0 = time.perf_counter()
                logits = session.model.forward_step(ids, caches)
                latency = time.perf_counter() - t0
            session.record_external(ids.shape, records, latency)
        self.position += ids.shape[1]
        return logits

    def sample(self, logits: np.ndarray) -> int:
        """Next token from one ``(vocab,)`` logits row."""
        if self.temperature == 0.0:
            return int(np.argmax(logits))
        z = logits / self.temperature
        z = z - np.max(z)
        p = np.exp(z)
        p /= p.sum()
        return int(self._rng.choice(len(p), p=p))

    def prefill(self, prompt: Sequence[int] | np.ndarray) -> np.ndarray:
        """Run the prompt through the model in one chunk; returns the last
        position's ``(vocab,)`` logits.

        Callable repeatedly — each call appends its tokens after the current
        position (chunked prefill), which is also how a prefix-cache hit
        continues: :meth:`seed` the cached prefix, then prefill only the
        unseen suffix.
        """
        ids = np.asarray(prompt, dtype=np.int64).reshape(1, -1)
        if ids.shape[1] == 0:
            raise ValueError("prefill needs at least one token")
        logits = self._forward(ids)
        self.tokens.extend(int(t) for t in ids[0])
        return logits[0, -1]

    def step(self, token: int) -> np.ndarray:
        """Feed one token, return the next position's ``(vocab,)`` logits."""
        if self.position == 0:
            raise RuntimeError("step() before prefill(): the cache is empty")
        logits = self._forward(np.array([[token]], dtype=np.int64))
        self.tokens.append(int(token))
        return logits[0, -1]

    def generate(self, prompt: Sequence[int] | np.ndarray,
                 max_new_tokens: int) -> list[int]:
        """Prefill then greedily/sampled-decode up to ``max_new_tokens``.

        Stops early on ``eos_token``.  Returns the generated tokens only
        (the prompt is not echoed); the full sequence stays in
        :attr:`tokens`.
        """
        if max_new_tokens < 1:
            raise ValueError(
                f"max_new_tokens must be >= 1, got {max_new_tokens}")
        next_tok = self.sample(self.prefill(prompt))
        out = [next_tok]
        # The final sampled token is returned un-stepped (its KV is never
        # cached); self.tokens tracks cached positions only.
        while len(out) < max_new_tokens and next_tok != self.eos_token:
            next_tok = self.sample(self.step(next_tok))
            out.append(next_tok)
        return out

    def snapshot(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Owned per-layer ``(K, V)`` copies of the cached prefix — the
        currency of :class:`~repro.serve.cache.PrefixKVCache`."""
        if self.caches is None:
            return []
        return [cache.snapshot_row(0) for cache in self.caches]

    def seed(self, snapshot: Sequence[tuple[np.ndarray, np.ndarray]],
             tokens: Sequence[int]) -> None:
        """Adopt a cached prefix: per-layer K/V snapshots covering ``tokens``.

        Only valid on a fresh session (nothing cached yet).  After seeding,
        :meth:`prefill` the *remaining* prompt suffix — the seeded positions
        are never recomputed, which is the prefix cache's entire win.
        """
        if self.position != 0:
            raise RuntimeError("seed() needs a fresh session; this one has "
                               f"{self.position} cached positions")
        caches = self._ensure_caches()
        if len(snapshot) != len(caches):
            raise ValueError(
                f"snapshot has {len(snapshot)} layers, model has "
                f"{len(caches)}")
        n = snapshot[0][0].shape[1] if snapshot else 0
        for cache, (k, v) in zip(caches, snapshot):
            if k.shape[1] != n or v.shape[1] != n:
                raise ValueError("snapshot layers disagree on prefix length")
            cache.load_row(0, k, v)
        if len(tokens) != n:
            raise ValueError(
                f"snapshot covers {n} positions but {len(tokens)} tokens "
                "were given")
        self.position = n
        self.n_seeded = n
        self.tokens.extend(int(t) for t in tokens)
