"""Windowed latency histograms, the slow-query log, the request ring."""

import asyncio

import pytest

from repro.errors import InvalidInstanceError
from repro.service import QueryService
from repro.service.http import HttpRequest
from repro.service.telemetry import (
    LATENCY_BUCKETS_MS,
    RequestRecord,
    ServiceTelemetry,
    WindowedHistogram,
)


def record(rid, *, endpoint="query", route="wcoj", status=200, ops=10, ms=1.0):
    return RequestRecord(
        request_id=rid,
        endpoint=endpoint,
        route=route,
        status=status,
        ops=ops,
        elapsed_ms=ms,
        detail=f"detail-{rid}",
    )


class TestWindowedHistogram:
    def test_empty_percentile_is_zero(self):
        hist = WindowedHistogram("lat", window=4)
        assert hist.percentile(0.99) == 0.0
        assert hist.count == 0

    def test_invalid_quantile_rejected(self):
        hist = WindowedHistogram("lat", window=4)
        with pytest.raises(InvalidInstanceError):
            hist.percentile(0.0)

    def test_rotation_keeps_between_one_and_two_windows(self):
        hist = WindowedHistogram("lat", window=4)
        for i in range(10):
            hist.observe(float(i))
            assert hist.count <= 8
        # 10 observations with window 4: previous holds 4, current 2.
        assert hist.count == 6

    def test_old_traffic_ages_out_of_percentiles(self):
        hist = WindowedHistogram("lat", window=4)
        for _ in range(8):
            hist.observe(2000.0)  # overflow bucket
        for _ in range(8):
            hist.observe(0.1)
        # Two full rotations of fast traffic: the slow epoch is gone.
        assert hist.percentile(0.99) <= LATENCY_BUCKETS_MS[0]

    def test_payload_counts_match_window(self):
        hist = WindowedHistogram("lat", window=8)
        for value in (0.1, 3.0, 700.0):
            hist.observe(value)
        payload = hist.to_payload()
        assert payload["count"] == 3
        assert payload["window"] == 8
        assert sum(payload["counts"]) == 3
        assert len(payload["counts"]) == len(payload["buckets"]) + 1


class TestServiceTelemetry:
    def test_counters_latency_and_route_mix(self):
        telemetry = ServiceTelemetry(slow_ms=50.0)
        telemetry.observe_request(record("r1", route="wcoj", ms=1.0))
        telemetry.observe_request(record("r2", route="factorized", ms=2.0))
        telemetry.observe_request(
            record("r3", endpoint="metrics", route="", ms=0.1)
        )
        snapshot = telemetry.snapshot()
        assert snapshot["counters"]["requests.total"] == 3
        assert snapshot["counters"]["requests.endpoint.query"] == 2
        assert snapshot["route_mix"] == {"factorized": 1, "wcoj": 1}
        assert snapshot["endpoints"]["query"]["count"] == 2
        assert snapshot["routes"]["wcoj"]["count"] == 1
        assert set(snapshot["endpoints"]["query"]) == {
            "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
        }

    def test_slow_log_only_for_slow_queries(self):
        telemetry = ServiceTelemetry(slow_ms=10.0)
        telemetry.observe_request(record("fast", ms=1.0))
        telemetry.observe_request(record("slow", ms=25.0, ops=999))
        telemetry.observe_request(
            record("slow-metrics", endpoint="metrics", route="", ms=500.0)
        )
        entries = [s.to_payload() for s in telemetry.slow_log]
        assert [e["request_id"] for e in entries] == ["slow"]
        assert entries[0]["ops"] == 999

    def test_error_and_rejected_counters(self):
        telemetry = ServiceTelemetry()
        telemetry.observe_request(record("bad", status=400, route=""))
        telemetry.observe_request(record("boom", status=503, route=""))
        counters = telemetry.snapshot()["counters"]
        assert counters["requests.rejected"] == 1
        assert counters["requests.errors"] == 1

    def test_request_ring_evicts_oldest(self):
        telemetry = ServiceTelemetry(ring_size=2)
        for rid in ("r1", "r2", "r3"):
            telemetry.observe_request(record(rid))
        assert telemetry.request("r1") is None
        assert telemetry.request("r3") is not None
        assert [r.request_id for r in telemetry.recent_requests()] == ["r2", "r3"]


class TestRegistrySerialization:
    def test_one_scrape_serializes_the_registry_once(self, monkeypatch):
        service = QueryService()
        registry = service.telemetry.registry
        service.telemetry.observe_request(record("r1", route="wcoj"))
        registry.counter("requests.semiring.counting").inc()
        calls = []
        serialize = registry.to_payload

        def counting_to_payload():
            calls.append(1)
            return serialize()

        monkeypatch.setattr(registry, "to_payload", counting_to_payload)
        payload = service.metrics_payload()
        assert len(calls) == 1
        assert payload["telemetry"]["route_mix"] == {"wcoj": 1}
        assert payload["telemetry"]["semiring_mix"] == {"counting": 1}
        assert payload["coalesce"] == {"inflight": 0, "leaders": 0, "followers": 0}
        asyncio.run(service.dispatch(HttpRequest("GET", "/healthz")))
        assert len(calls) == 1

    def test_counter_value_creates_nothing(self):
        telemetry = ServiceTelemetry()
        assert telemetry.registry.counter_value("coalesce.leaders") == 0
        assert telemetry.registry.empty
        telemetry.registry.counter("coalesce.leaders").inc(3)
        assert telemetry.registry.counter_value("coalesce.leaders") == 3
