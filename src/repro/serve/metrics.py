"""Serving-side measurement primitives.

:class:`LatencyStats` is the one accumulator every serving layer uses for
wall-clock observations — queue waits, engine-batch execution, end-to-end
request latency.  It keeps exact lifetime count/total/min/max plus a bounded
reservoir for percentiles, so an unbounded request stream accounts in
constant memory (like :class:`PanaceaSession`'s lifetime counters:
lifetime totals never stop, detail is bounded).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["LatencyStats", "ServerMetrics"]


@dataclass
class LatencyStats:
    """Streaming latency accumulator with bounded percentile detail.

    ``observe`` is O(1); percentiles come from the newest ``max_samples``
    observations (a sliding window, the usual serving-dashboard view), while
    ``count``/``mean_s``/``min_s``/``max_s`` are exact over the lifetime.
    """

    max_samples: int = 4096
    count: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0
    _samples: list[float] = field(default_factory=list, repr=False)
    _head: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.max_samples < 1:
            raise ValueError(
                f"max_samples must be >= 1, got {self.max_samples}")

    def observe(self, seconds: float) -> None:
        """Record one wall-clock observation (in seconds)."""
        if seconds < 0:
            raise ValueError(f"latency must be >= 0, got {seconds}")
        self.count += 1
        self.total_s += seconds
        self.min_s = min(self.min_s, seconds)
        self.max_s = max(self.max_s, seconds)
        if len(self._samples) < self.max_samples:
            self._samples.append(seconds)
        else:  # ring buffer: overwrite the oldest retained sample
            self._samples[self._head] = seconds
            self._head = (self._head + 1) % self.max_samples

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile over the retained window (p in [0, 100])."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"p must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def samples(self) -> list[float]:
        """The retained reservoir, oldest-to-newest (ring unrolled).

        The public view the Prometheus histogram serializer scales up to
        the lifetime count; also what :meth:`merge` pools, so "newest
        kept" is literal even after the ring has wrapped.
        """
        return self._samples[self._head:] + self._samples[:self._head]

    def merge(self, other: "LatencyStats") -> "LatencyStats":
        """Combined view of two accumulators (server-level rollups).

        Lifetime aggregates add *exactly* — count and total sum, min/max
        take extrema — so merging is associative and merging with a fresh
        accumulator is the identity on every exact field.  The percentile
        window concatenates in time order (each ring unrolled oldest to
        newest) and re-bounds to ``max_samples``, newest kept — the usual
        approximation for merged dashboards, and itself exact whenever
        the pooled reservoirs fit the bound.
        """
        merged = LatencyStats(max_samples=self.max_samples)
        merged.count = self.count + other.count
        merged.total_s = self.total_s + other.total_s
        merged.min_s = min(self.min_s, other.min_s)
        merged.max_s = max(self.max_s, other.max_s)
        pool = self.samples() + other.samples()
        merged._samples = pool[-merged.max_samples:]
        return merged

    def summary(self) -> dict:
        """Dashboard dict: count, mean/p50/p95/max in milliseconds."""
        return {
            "count": self.count,
            "mean_ms": self.mean_s * 1e3,
            "p50_ms": self.percentile(50.0) * 1e3,
            "p95_ms": self.percentile(95.0) * 1e3,
            "max_ms": (self.max_s if self.count else 0.0) * 1e3,
        }


@dataclass
class ServerMetrics:
    """One consistent server-wide snapshot: deployments, workers, caches.

    Built by :meth:`~repro.serve.server.ModelServer.metrics`; the rollup the
    operator dashboard reads.  ``n_requests`` counts engine-served requests,
    ``n_cache_hits`` the requests a deployment's result cache answered
    instead, ``n_failed`` the riders of batches that raised and
    ``n_cancelled`` the async submissions dequeued by cancellation — so
    ``n_requests + n_cache_hits + n_failed + n_cancelled`` accounts for
    everything submitted (the first two alone only when nothing failed or
    was cancelled);
    ``workers`` is the :class:`~repro.serve.pool.WorkerPool` summary (or
    ``None`` when the server runs inline) whose per-worker utilization list
    answers "are my workers actually overlapping?"; ``process_workers`` is
    the :class:`~repro.serve.procpool.ProcessWorkerPool` summary on
    ``backend='process'`` servers (``None`` otherwise) — its
    ``n_crashes``/``n_pipe_fallback`` counters are the crash-recovery and
    shared-memory-transport health view; ``cache`` sums every
    deployment's cache counters into one server-wide hit-rate;
    ``decode`` sums every deployment's
    continuous-batching decoder counters (completed decodes, engine steps,
    generated tokens, failures — ``None`` when nothing decoded) and
    ``prefix_cache`` the decoders' longest-prefix KV caches, whose
    ``hits``/``misses``/``seeded_tokens`` are conserved against the
    per-deployment stats embedded under ``deployments``.
    """

    n_deployments: int
    n_requests: int
    n_batches: int
    n_failed: int
    n_cache_hits: int
    n_cancelled: int
    queue_wait: dict
    deployments: dict
    workers: dict | None = None
    process_workers: dict | None = None
    cache: dict | None = None
    decode: dict | None = None
    prefix_cache: dict | None = None

    @property
    def cache_hit_rate(self) -> float:
        """Server-wide hit fraction over every deployment's lookups."""
        if not self.cache:
            return 0.0
        lookups = self.cache["hits"] + self.cache["misses"]
        return self.cache["hits"] / lookups if lookups else 0.0

    def summary(self) -> dict:
        """Flat dashboard dict (deployment detail under ``deployments``)."""
        return {
            "n_deployments": self.n_deployments,
            "n_requests": self.n_requests,
            "n_batches": self.n_batches,
            "n_failed": self.n_failed,
            "n_cache_hits": self.n_cache_hits,
            "n_cancelled": self.n_cancelled,
            "cache_hit_rate": self.cache_hit_rate,
            "queue_wait": self.queue_wait,
            "workers": self.workers,
            "process_workers": self.process_workers,
            "cache": self.cache,
            "decode": self.decode,
            "prefix_cache": self.prefix_cache,
            "deployments": self.deployments,
        }
