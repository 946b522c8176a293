"""Per-layer metrics from the launcher's spans and the client's samples.

Self time is a span's duration minus the durations of its own child
spans. Children are found through the recorded parent, never through
interval overlap, so the spans of concurrent requests are never
subtracted from each other. Every span belongs to the request of its
root ``server.dispatch`` span; only requests of the timed phase count.

Names ending in ``_ms`` are self time per timed request (summed, then
divided by the request count), so they add up: ``http.transport_ms``
(client latency minus the dispatch span) plus every ``_ms`` row except
the inclusive ``route.*.ms`` medians and the per-scrape
``telemetry.snapshot_ms`` equals ``trace.client_latency_ms``;
``trace.unaccounted_ms`` is what is left, and is zero up to rounding.
"""

from __future__ import annotations

import statistics

ROUTES = ("factorized", "yannakakis", "wcoj", "treewidth-dp")

#: Span label -> metric name, for every self-time row.
SELF_TIME = {
    "server.dispatch": "server.dispatch_ms",
    "server.payload": "server.payload_ms",
    "http.decode": "http.decode_ms",
    "http.encode": "http.encode_ms",
    "plan_cache.lookup": "plan_cache.lookup_ms",
    "plan_cache.decide_route": "plan_cache.decide_route_ms",
    "admission.wait": "admission.wait_ms",
    "coalesce.wait": "coalesce.wait_ms",
    "executor.evaluate": "executor.evaluate_ms",
    "executor.canonicalize": "executor.canonicalize_ms",
    "executor.dispatch": "executor.dispatch_ms",
    "executor.replicate": "executor.replicate_ms",
    "store.register": "store.register_ms",
    "store.fingerprint": "store.fingerprint_ms",
    "telemetry.observe": "telemetry.observe_ms",
    "router.run_route": "router.run_route_ms",
    "wcoj.generic_join": "wcoj.generic_join_ms",
    "wcoj.aggregate": "wcoj.aggregate_ms",
    "wcoj.boolean": "wcoj.boolean_ms",
    "yannakakis.full": "yannakakis.full_ms",
    "yannakakis.boolean": "yannakakis.boolean_ms",
    "factorized.build": "factorized.build_ms",
    "factorized.materialize": "factorized.materialize_ms",
    "factorized.count": "factorized.count_ms",
    "factorized.aggregate": "factorized.aggregate_ms",
    "algebra.project": "algebra.project_ms",
    "csp.reduce": "csp.reduce_ms",
    "csp.count": "csp.count_ms",
    "csp.solve": "csp.solve_ms",
    "kernels.index_build": "kernels.index_build_ms",
    "kernels.generic_join": "kernels.generic_join_ms",
    "kernels.pairwise_join": "kernels.pairwise_join_ms",
    "kernels.semijoin": "kernels.semijoin_ms",
}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(document: dict, timed: list, bodies: list, writer_conn: int | None):
    """Returns ``(metrics, problems)`` for one traced timed phase."""
    spans = {row[0]: row for row in document["spans"]}
    request_ids = {int(sid): rid for sid, rid in document["request_ids"].items()}
    timed_ids = {b["request_id"]: s for s, b in zip(timed, bodies) if b is not None}
    requests = len(timed)

    roots: dict[int, int] = {}

    def root_of(sid: int) -> int:
        """The enclosing ``server.dispatch`` span (0 outside any request)."""
        chain = []
        while sid in spans and sid not in roots and spans[sid][2] != "server.dispatch":
            chain.append(sid)
            sid = spans[sid][1]
        found = roots.get(sid, sid if sid in spans else 0)
        for step in chain:
            roots[step] = found
        return found

    children: dict[int, float] = {}
    mine = []
    for sid, row in spans.items():
        rid = request_ids.get(root_of(sid))
        if rid in timed_ids:
            mine.append((sid, row, rid))
            children[row[1]] = children.get(row[1], 0.0) + (row[4] - row[3])

    totals = {label: 0.0 for label in SELF_TIME}
    totals["telemetry.snapshot"] = totals["http.transport"] = 0.0
    route_times: dict[str, list[float]] = {route: [] for route in ROUTES}
    builds_by_request: dict[str, int] = {}
    problems = []
    hits = lookups = coalesced = flights = sheds = fallbacks = index_lookups = 0
    shards: dict[int, int] = {}
    register_bytes = most_negative = 0.0
    for sid, row, rid in mine:
        label, start, end, attributes = row[2:]
        attributes = attributes or {}
        duration = end - start
        own = duration - children.get(sid, 0.0)
        most_negative = min(most_negative, own)
        if label in totals:
            totals[label] += own
        if label == "server.dispatch":
            if attributes.get("path") == "/databases":
                register_bytes += attributes["bytes"]
            totals["http.transport"] += timed_ids[rid].latency_s - duration
        elif label == "plan_cache.lookup" and "hit" in attributes:
            lookups += 1
            hits += attributes["hit"]
        elif label == "coalesce.wait" and "coalesced" in attributes:
            flights += 1
            coalesced += attributes["coalesced"]
        elif label == "admission.wait" and attributes.get("error"):
            sheds += 1
        elif label == "executor.dispatch" and "shard" in attributes:
            if attributes["shard"] < 0:
                fallbacks += 1
            else:
                shards[attributes["shard"]] = shards.get(attributes["shard"], 0) + 1
        elif label == "router.run_route" and "route" in attributes:
            route_times[attributes["route"]].append(duration)
        elif label == "kernels.lookup":
            index_lookups += 1
        elif label == "kernels.index_build":
            builds_by_request[rid] = builds_by_request.get(rid, 0) + 1
    if most_negative < -1e-6:
        problems.append(f"a span has negative self time ({most_negative * 1e3:.4f} ms)")

    per_request_ms = lambda seconds: 1000.0 * seconds / requests  # noqa: E731
    metrics = {name: per_request_ms(totals[label]) for label, name in SELF_TIME.items()}
    scrapes = sum(1 for s in timed if s.request.kind == "metrics")
    metrics["telemetry.snapshot_ms"] = 1000.0 * _ratio(totals["telemetry.snapshot"], scrapes)
    metrics["http.transport_ms"] = per_request_ms(totals["http.transport"])
    metrics["http.request_kib"] = sum(s.sent_bytes for s in timed) / requests / 1024
    metrics["http.response_kib"] = sum(s.received_bytes for s in timed) / requests / 1024
    metrics["store.register_kib"] = register_bytes / requests / 1024
    metrics["plan_cache.hit_ratio"] = _ratio(hits, lookups)
    metrics["admission.shed"] = sheds
    metrics["coalesce.follower_share"] = _ratio(coalesced, flights)
    metrics["executor.fallbacks"] = fallbacks
    metrics["executor.shard_max_share"] = _ratio(
        max(shards.values(), default=0), sum(shards.values())
    )
    all_routes = sum(sum(times) for times in route_times.values())
    for route in ROUTES:
        times = route_times[route]
        metrics[f"route.{route}.ms"] = 1000.0 * statistics.median(times) if times else 0.0
        metrics[f"route.{route}.share"] = _ratio(sum(times), all_routes)
    answered = [
        b["ops"] for s, b in zip(timed, bodies)
        if b is not None and s.request.kind in ("query", "solve")
    ]
    metrics["router.ops_per_request"] = _ratio(sum(answered), len(answered))
    builds = sum(builds_by_request.values())
    metrics["kernels.index_builds"] = builds / requests
    metrics["kernels.index_hit_ratio"] = (
        1.0 - builds / index_lookups if index_lookups else 0.0
    )
    client_latency = sum(s.latency_s for s in timed)
    metrics["trace.client_latency_ms"] = per_request_ms(client_latency)
    accounted = sum(totals.values())
    metrics["trace.unaccounted_ms"] = per_request_ms(client_latency - accounted)

    if writer_conn is not None:
        writer = [
            (s, b) for s, b in zip(timed, bodies) if s.conn == writer_conn
        ]
        for index, (sample, _) in enumerate(writer[:-1]):
            if sample.request.kind == "register":
                after = writer[index + 1][1]
                if after is None or not builds_by_request.get(after["request_id"]):
                    problems.append("a write was not followed by an index build")
                    break
    return metrics, problems
