"""Request tracing: spans, traces, and the bounded in-process buffer.

One served request becomes one :class:`Trace` — a tree of :class:`Span`
intervals on the *driver's* monotonic clock (``time.perf_counter``):

.. code-block:: text

    request                         <- root, closed after the response
    ├── queue_wait                  <- submit() .. batch fire
    ├── batch_release               <- fire .. engine dispatch
    ├── engine_execute              <- the fused forward
    └── respond                     <- serialization / socket write

Worker *processes* have their own ``perf_counter`` epoch, so remote
timings never become span endpoints directly: ``engine_execute`` is opened
and closed driver-side around the round trip, and the worker-measured
duration rides back as a span attribute.  That keeps every span on one clock — the
tree validates without cross-process clock translation — and makes the
tree *shape* identical between the thread and process backends.

Ids are nonzero random u64s so they fit the ShmRing frame header and the
process-pool task envelope as plain integers; the HTTP/CLI surface renders
them as 16-digit hex (:func:`format_trace_id`).
"""

from __future__ import annotations

import json
import random
import threading
import time
from collections import OrderedDict

__all__ = [
    "Span",
    "Trace",
    "TraceBuffer",
    "format_trace_id",
    "new_id",
    "parse_trace_id",
]

#: Slack for float comparisons in :meth:`Trace.validate`.  Spans built from
#: a shared measurement (e.g. ``engine_execute`` children derived from the
#: same ``perf_counter`` reads) can disagree by rounding only.
_EPS = 1e-6

_rng = random.Random()


def new_id() -> int:
    """A nonzero random u64 — shared id space for traces and spans."""
    while True:
        value = _rng.getrandbits(64)
        if value:
            return value


def format_trace_id(trace_id: int) -> str:
    """Render an id for the HTTP/CLI surface: fixed-width lowercase hex."""
    return f"{trace_id & 0xFFFF_FFFF_FFFF_FFFF:016x}"


def parse_trace_id(value) -> int:
    """Accept an id as an int or the hex string :func:`format_trace_id`
    produced; raises ``ValueError`` on anything else."""
    if isinstance(value, bool):
        raise ValueError(f"not a trace id: {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return int(value, 16)
    raise ValueError(f"not a trace id: {value!r}")


class Span:
    """One timed interval in a trace, on the driver's monotonic clock.

    ``end()`` is idempotent — the first call wins, so error paths can end
    a span defensively without clobbering a measured close.  Attributes
    stay mutable after the span closes: process-backed spans are annotated
    with worker-side durations only after the round trip returns.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start_s",
                 "end_s", "status", "attrs", "_trace")

    def __init__(self, name: str, *, parent_id: int | None = None,
                 start_s: float | None = None, span_id: int | None = None):
        self.trace_id = 0  # set when registered into a Trace
        self.span_id = span_id if span_id is not None else new_id()
        self.parent_id = parent_id
        self.name = name
        self.start_s = time.perf_counter() if start_s is None else start_s
        self.end_s: float | None = None
        self.status = "open"
        self.attrs: dict = {}
        self._trace: "Trace | None" = None  # back-ref, set on registration

    def child(self, name: str, *, start_s: float | None = None) -> "Span":
        """Open a child of this span, registered into the owning trace.

        The executor-facing convenience: layers that only hold a parent
        span (not the trace) can still grow the tree under it.
        """
        span = Span(name, parent_id=self.span_id, start_s=start_s)
        if self._trace is not None:
            self._trace._register(span)
        else:
            span.trace_id = self.trace_id
        return span

    def end(self, *, status: str = "ok", end_s: float | None = None) -> None:
        """Close the span; later calls are no-ops (first close wins)."""
        if self.end_s is not None:
            return
        self.end_s = time.perf_counter() if end_s is None else end_s
        self.status = status

    @property
    def closed(self) -> bool:
        return self.end_s is not None

    @property
    def duration_s(self) -> float | None:
        if self.end_s is None:
            return None
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        """JSON-ready view; ids rendered as hex for the wire."""
        return {
            "trace_id": format_trace_id(self.trace_id),
            "span_id": format_trace_id(self.span_id),
            "parent_id": (format_trace_id(self.parent_id)
                          if self.parent_id else None),
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __repr__(self) -> str:
        dur = f"{self.duration_s * 1e3:.3f}ms" if self.closed else "open"
        return (f"Span({self.name!r}, id={format_trace_id(self.span_id)}, "
                f"{dur}, status={self.status})")


class Trace:
    """A request's span tree: one root plus registered descendants.

    Span registration is append-only under a lock (spans arrive from the
    batcher thread and pool workers concurrently);
    reads take a snapshot.  The root span is created with the trace and
    carries the deployment name.
    """

    def __init__(self, name: str, *, trace_id: int | None = None):
        self.trace_id = trace_id if trace_id is not None else new_id()
        self.name = name
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        #: When True (the default) the batcher's ticket completion closes
        #: the root span.  The gateway flips it off and closes the root
        #: itself, after the ``respond`` span — whoever owns the request's
        #: last mile owns the root.
        self.root_autoclose = True
        self.root = Span(name)
        self._register(self.root)

    def _register(self, span: Span) -> Span:
        span.trace_id = self.trace_id
        span._trace = self
        with self._lock:
            self._spans.append(span)
        return span

    def span(self, name: str, *, parent: Span | None = None,
             start_s: float | None = None) -> Span:
        """Open and register a child span (of the root by default)."""
        parent_id = (parent or self.root).span_id
        return self._register(Span(name, parent_id=parent_id,
                                   start_s=start_s))

    def add_span(self, span: Span) -> Span:
        """Register an externally-constructed span into this trace."""
        if span.parent_id is None:
            span.parent_id = self.root.span_id
        return self._register(span)

    @property
    def spans(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def children(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    @property
    def complete(self) -> bool:
        return all(s.closed for s in self.spans)

    @property
    def status(self) -> str:
        """``error`` if any span errored, else ``open``/``ok``."""
        spans = self.spans
        if any(s.status == "error" for s in spans):
            return "error"
        if any(not s.closed for s in spans):
            return "open"
        return "ok"

    def validate(self) -> list[str]:
        """Structural checks; an empty list means the tree is well-formed.

        Checks: every span closed; exactly one root; every parent id
        resolves; children nest inside their parent's interval; siblings
        do not overlap (all modulo ``_EPS`` of float slack).
        """
        problems: list[str] = []
        spans = self.spans
        by_id = {s.span_id: s for s in spans}
        roots = [s for s in spans if s.parent_id is None]
        if len(roots) != 1:
            problems.append(f"expected exactly 1 root span, got {len(roots)}")
        for s in spans:
            if not s.closed:
                problems.append(f"span {s.name!r} never closed")
            if s.parent_id is not None:
                parent = by_id.get(s.parent_id)
                if parent is None:
                    problems.append(f"span {s.name!r} has unknown parent "
                                    f"{format_trace_id(s.parent_id)}")
                elif parent.closed and s.closed:
                    if (s.start_s < parent.start_s - _EPS
                            or s.end_s > parent.end_s + _EPS):
                        problems.append(
                            f"span {s.name!r} "
                            f"[{s.start_s:.6f}, {s.end_s:.6f}] escapes "
                            f"parent {parent.name!r} "
                            f"[{parent.start_s:.6f}, {parent.end_s:.6f}]")
        by_parent: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent_id is not None and s.closed:
                by_parent.setdefault(s.parent_id, []).append(s)
        for siblings in by_parent.values():
            siblings.sort(key=lambda s: s.start_s)
            for a, b in zip(siblings, siblings[1:]):
                if b.start_s < a.end_s - _EPS:
                    problems.append(
                        f"sibling spans {a.name!r} and {b.name!r} overlap "
                        f"({a.end_s:.6f} > {b.start_s:.6f})")
        return problems

    def to_dict(self) -> dict:
        spans = self.spans
        return {
            "trace_id": format_trace_id(self.trace_id),
            "name": self.name,
            "status": self.status,
            "n_spans": len(spans),
            "spans": [s.to_dict() for s in spans],
        }

    def to_jsonl(self) -> str:
        """One JSON object per span, each carrying the trace id — the
        export format the gateway serves and CI archives."""
        return "\n".join(json.dumps(s.to_dict(), sort_keys=True)
                         for s in self.spans)

    def __repr__(self) -> str:
        return (f"Trace({self.name!r}, id={format_trace_id(self.trace_id)}, "
                f"{len(self.spans)} spans, status={self.status})")


class TraceBuffer:
    """Bounded in-memory trace store: insertion-ordered, oldest evicted.

    The serving path registers a trace at ingress (before any span beyond
    the root exists), so a trace is retrievable while still in flight —
    ``GET /v1/trace/<id>`` on a live request shows the open spans.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._traces: OrderedDict[int, Trace] = OrderedDict()
        self.n_added = 0
        self.n_evicted = 0

    def add(self, trace: Trace) -> Trace:
        with self._lock:
            self._traces[trace.trace_id] = trace
            self.n_added += 1
            while len(self._traces) > self.capacity:
                self._traces.popitem(last=False)
                self.n_evicted += 1
        return trace

    def get(self, trace_id) -> Trace | None:
        key = parse_trace_id(trace_id)
        with self._lock:
            return self._traces.get(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def ids(self) -> list[int]:
        with self._lock:
            return list(self._traces)

    def stats(self) -> dict:
        with self._lock:
            return {"capacity": self.capacity, "size": len(self._traces),
                    "n_added": self.n_added, "n_evicted": self.n_evicted}
