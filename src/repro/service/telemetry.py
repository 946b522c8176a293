"""Service-lifetime telemetry: rolling latency percentiles, route mix,
slow-query log, and the per-request record ring.

Two observability scopes coexist in the service:

* **request scope** — every request gets a fresh
  :class:`~repro.observability.metrics.MetricsRegistry` and
  :class:`~repro.observability.tracing.TraceContext` (isolated via the
  ambient contextvars, so two concurrent requests never observe each
  other's counters); their payloads are returned in the response and
  kept in the request ring for per-request chrome-trace export;
* **service scope** — this module: aggregates across requests.
  Latency lands in :class:`WindowedHistogram`\\ s (per endpoint and per
  route) read out as p50/p95/p99 via the bucket-interpolated
  :func:`~repro.observability.metrics.percentile_from_buckets`;
  requests slower than a configurable threshold additionally land in
  the slow-query log.

Latency is wall-clock by nature — the one quantity a resident service
cannot express in op counts — so unlike the experiment runtime these
histograms are *not* byte-reproducible across machines; everything
else in a snapshot (route mix, cache counters, op totals) still is.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from collections.abc import Sequence

from ..observability.metrics import (
    Histogram,
    MetricsRegistry,
    percentile_from_buckets,
)

#: Fixed latency bucket bounds in milliseconds. Pinned like every other
#: histogram in the repo (DESIGN.md): two snapshots of the same service
#: are comparable bucket by bucket.
LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0,
    1000.0, 2500.0,
)

#: Quantiles every snapshot and dashboard surfaces.
SERVICE_QUANTILES: tuple[tuple[float, str], ...] = (
    (0.50, "p50"), (0.95, "p95"), (0.99, "p99"),
)


class WindowedHistogram:
    """A rolling fixed-bucket histogram: current + previous window.

    Observations land in the *current* window; when it fills up
    (``window`` observations) it becomes the *previous* window and a
    fresh one starts. Readouts merge both, so a percentile always
    reflects between ``window`` and ``2·window`` most recent requests
    — old traffic ages out instead of dominating the tail forever.
    Rotation is count-based, not wall-time-based, so the data structure
    itself stays deterministic under replayed traffic.
    """

    __slots__ = ("name", "window", "_current", "_previous")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = LATENCY_BUCKETS_MS,
        window: int = 1024,
    ) -> None:
        self.name = name
        self.window = window
        self._current = Histogram(name, buckets)
        self._previous: Histogram | None = None

    def observe(self, value: float) -> None:
        if self._current.count >= self.window:
            self._previous = self._current
            self._current = Histogram(self.name, self._current.bounds)
        self._current.observe(value)

    @property
    def count(self) -> int:
        """Observations currently inside the rolling window."""
        merged = self._current.count
        if self._previous is not None:
            merged += self._previous.count
        return merged

    @property
    def total_sum(self) -> float:
        merged = self._current.sum
        if self._previous is not None:
            merged += self._previous.sum
        return merged

    def merged_counts(self) -> list[int]:
        counts = list(self._current.counts)
        if self._previous is not None:
            counts = [a + b for a, b in zip(counts, self._previous.counts)]
        return counts

    def percentile(self, q: float) -> float:
        return percentile_from_buckets(
            self._current.bounds, self.merged_counts(), q, name=self.name
        )

    def to_payload(self) -> dict:
        """Serialized like a plain histogram (merged window counts)."""
        counts = self.merged_counts()
        return {
            "buckets": [float(b) for b in self._current.bounds],
            "counts": counts,
            "count": sum(counts),
            "sum": float(self.total_sum),
            "window": self.window,
        }

    def summary(self) -> dict:
        count = self.count
        stats = {
            "count": count,
            "mean_ms": (self.total_sum / count) if count else 0.0,
        }
        for q, label in SERVICE_QUANTILES:
            stats[f"{label}_ms"] = self.percentile(q)
        return stats


@dataclass(frozen=True)
class SlowQuery:
    """One entry of the slow-query log."""

    request_id: str
    endpoint: str
    route: str
    elapsed_ms: float
    ops: int
    detail: str

    def to_payload(self) -> dict:
        return {
            "request_id": self.request_id,
            "endpoint": self.endpoint,
            "route": self.route,
            "elapsed_ms": self.elapsed_ms,
            "ops": self.ops,
            "detail": self.detail,
        }


@dataclass
class RequestRecord:
    """Everything the service remembers about one finished request."""

    request_id: str
    endpoint: str
    route: str
    status: int
    ops: int
    elapsed_ms: float
    detail: str = ""
    spans: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    #: Owning worker shard for dispatched queries; -1 = evaluated (or
    #: served) in the parent process.
    shard: int = -1
    #: How the response was produced: inline / worker / coalesced
    #: ("" for non-query endpoints).
    source: str = ""

    def to_payload(self) -> dict:
        return {
            "request_id": self.request_id,
            "endpoint": self.endpoint,
            "route": self.route,
            "status": self.status,
            "ops": self.ops,
            "elapsed_ms": self.elapsed_ms,
            "detail": self.detail,
            "shard": self.shard,
            "source": self.source,
        }


def _by_prefix(counters: dict[str, int], prefix: str) -> dict[str, int]:
    """The counters named ``prefix + key``, keyed by ``key``."""
    return {
        name[len(prefix):]: value
        for name, value in counters.items()
        if name.startswith(prefix)
    }


class ServiceTelemetry:
    """The service-scope aggregate: registry + windows + logs + ring.

    ``registry`` is a service-lifetime
    :class:`~repro.observability.metrics.MetricsRegistry` holding the
    monotone counters (requests per endpoint, per route, errors, shed)
    and gauges (queue depth, registered databases); it is deliberately
    *never* installed as the ambient registry — request scopes get
    their own, and this one is only written through explicit calls.
    """

    def __init__(
        self,
        slow_ms: float = 50.0,
        window: int = 1024,
        ring_size: int = 512,
        slow_log_size: int = 128,
    ) -> None:
        self.registry = MetricsRegistry()
        self.slow_ms = slow_ms
        self.window = window
        self.endpoint_latency: dict[str, WindowedHistogram] = {}
        self.route_latency: dict[str, WindowedHistogram] = {}
        self.slow_log: deque[SlowQuery] = deque(maxlen=slow_log_size)
        self.ring_size = ring_size
        self._requests: OrderedDict[str, RequestRecord] = OrderedDict()

    # -- observation ---------------------------------------------------

    def _latency(
        self, table: dict[str, WindowedHistogram], key: str
    ) -> WindowedHistogram:
        hist = table.get(key)
        if hist is None:
            hist = table[key] = WindowedHistogram(key, window=self.window)
        return hist

    def observe_request(self, record: RequestRecord) -> None:
        """Fold one finished request into every aggregate view."""
        self.registry.counter("requests.total").inc()
        self.registry.counter(f"requests.endpoint.{record.endpoint}").inc()
        if record.status >= 500:
            self.registry.counter("requests.errors").inc()
        elif record.status >= 400:
            self.registry.counter("requests.rejected").inc()
        self._latency(self.endpoint_latency, record.endpoint).observe(
            record.elapsed_ms
        )
        if record.route:
            self.registry.counter(f"requests.route.{record.route}").inc()
            self._latency(self.route_latency, record.route).observe(
                record.elapsed_ms
            )
        if record.elapsed_ms >= self.slow_ms and record.endpoint in (
            "query",
            "solve",
        ):
            self.slow_log.append(
                SlowQuery(
                    request_id=record.request_id,
                    endpoint=record.endpoint,
                    route=record.route,
                    elapsed_ms=record.elapsed_ms,
                    ops=record.ops,
                    detail=record.detail,
                )
            )
        self._requests[record.request_id] = record
        while len(self._requests) > self.ring_size:
            self._requests.popitem(last=False)

    # -- readout -------------------------------------------------------

    def request(self, request_id: str) -> RequestRecord | None:
        return self._requests.get(request_id)

    def recent_requests(self, limit: int | None = None) -> list[RequestRecord]:
        records = list(self._requests.values())
        return records if limit is None else records[-limit:]

    def snapshot(self) -> dict:
        """The ``/metrics`` payload: everything, JSON-safe, sorted keys.

        Serializes the registry once; ``route_mix`` and
        ``semiring_mix`` (aggregate-mode requests by semiring, empty
        until one) are views of its counters.
        """
        registry = self.registry.to_payload()
        counters = registry.get("counters", {})
        return {
            "counters": counters,
            "gauges": registry.get("gauges", {}),
            "endpoints": {
                name: hist.summary()
                for name, hist in sorted(self.endpoint_latency.items())
            },
            "routes": {
                name: hist.summary()
                for name, hist in sorted(self.route_latency.items())
            },
            "route_mix": _by_prefix(counters, "requests.route."),
            "semiring_mix": _by_prefix(counters, "requests.semiring."),
            "latency_histograms": {
                name: hist.to_payload()
                for name, hist in sorted(self.endpoint_latency.items())
            },
            "slow_queries": [entry.to_payload() for entry in self.slow_log],
            "slow_ms": self.slow_ms,
        }
