"""The resident query service (ROADMAP item 2).

``python -m repro.service serve`` boots an asyncio server (stdlib
only) exposing database registration and query/solve endpoints over a
persistent :class:`~repro.service.store.DatabaseStore`. Every request
runs inside a fresh request-scoped
:class:`~repro.observability.tracing.TraceContext` and
:class:`~repro.observability.metrics.MetricsRegistry`, so each
response carries its route decision
(``factorized``/``yannakakis``/``wcoj``; the ``count``, ``boolean``
and ``aggregate`` value modes share one rule, α-acyclic → ``yannakakis``
and cyclic → ``wcoj``), its op count, and an exportable chrome-trace
span tree — while the service-lifetime telemetry layer aggregates
rolling latency histograms (p50/p95/p99 per endpoint and per route),
plan-cache hit/miss/eviction counters, admission-control gauges, and
a slow-query log, all rendered live by the ``/dashboard`` endpoint.

For multi-core serving, ``--workers N`` shards the store across warm
worker processes (:class:`~repro.service.executor.ShardedExecutor`)
and dispatches evaluation to the owning shard; single-flight
coalescing (:mod:`repro.service.coalesce`) dedupes identical
in-flight work in front of admission. Both execution paths produce
byte-identical responses.
"""

from .admission import AdmissionController, RequestShedError
from .coalesce import SingleFlight
from .executor import ShardedExecutor
from .plan_cache import PlanCache, PreparedPlan
from .server import QueryService
from .store import DatabaseStore
from .telemetry import ServiceTelemetry, WindowedHistogram

__all__ = [
    "AdmissionController",
    "DatabaseStore",
    "PlanCache",
    "PreparedPlan",
    "QueryService",
    "RequestShedError",
    "ServiceTelemetry",
    "ShardedExecutor",
    "SingleFlight",
    "WindowedHistogram",
]
