"""The live service dashboard: one snapshot, two renderers.

Reuses the report stack (:mod:`repro.observability.report`): the same
CSS, the same inline-SVG histogram mark, the same p50/p95/p99 summary
columns — a service snapshot reads like an experiment report, just
over requests instead of experiments. Both renderers are pure
functions of a :class:`~repro.service.server.QueryService` (or a saved
``/metrics`` payload via the ``*_from_payload`` variants), so the
``dashboard`` CLI subcommand can render a remote service it only
reaches over HTTP.
"""

from __future__ import annotations

import html as _html

from ..observability.report import _CSS, _svg_histogram, render_histogram_text


def _fmt(value: float) -> str:
    return f"{value:.3g}"


def _latency_rows(sections: dict) -> list[tuple[str, str, dict]]:
    """(scope, name, summary) rows for endpoints then routes."""
    rows = []
    for scope in ("endpoints", "routes"):
        for name, summary in sections.get(scope, {}).items():
            rows.append((scope[:-1], name, summary))
    return rows


def render_dashboard_text(service) -> str:
    """The terminal dashboard for a live service instance."""
    return render_dashboard_text_from_payload(service.metrics_payload())


def render_dashboard_text_from_payload(payload: dict) -> str:
    telemetry = payload.get("telemetry", {})
    counters = telemetry.get("counters", {})
    plan_cache = payload.get("plan_cache", {})
    admission = payload.get("admission", {})
    service = payload.get("service", {})
    coalesce = payload.get("coalesce", {})
    executor = payload.get("executor")
    lines = [
        "== repro query service ==",
        (
            f"backend {service.get('backend', '?')}, "
            f"databases {', '.join(service.get('databases', ())) or '(none)'}"
        ),
        (
            f"requests {counters.get('requests.total', 0)} "
            f"(errors {counters.get('requests.errors', 0)}, "
            f"rejected {counters.get('requests.rejected', 0)}, "
            f"shed {counters.get('admission.shed', 0)})"
        ),
        (
            f"plan cache: {plan_cache.get('size', 0)}/{plan_cache.get('capacity', 0)} "
            f"entries, hits {plan_cache.get('hits', 0)}, "
            f"misses {plan_cache.get('misses', 0)}, "
            f"evictions {plan_cache.get('evictions', 0)}, "
            f"hit ratio {plan_cache.get('hit_ratio', 0.0):.2f}"
        ),
        (
            f"admission: {admission.get('in_flight', 0)} in flight, "
            f"{admission.get('queued', 0)} queued "
            f"(max {admission.get('max_concurrent', '?')}, "
            f"queue limit {admission.get('queue_limit', '?')})"
        ),
        (
            f"coalesce: {coalesce.get('leaders', 0)} leaders, "
            f"{coalesce.get('followers', 0)} followers, "
            f"{coalesce.get('inflight', 0)} in flight"
        ),
    ]
    if executor is not None:
        lines.append(
            f"executor: {executor.get('workers', 0)} workers, "
            f"started {executor.get('started', False)}"
        )
        for shard, view in sorted(executor.get("shards", {}).items()):
            owned = ", ".join(view.get("databases", ())) or "(empty)"
            lines.append(
                f"  shard {shard}: {view.get('dispatched', 0)} dispatched  "
                f"{owned}"
            )
    lines.extend(["", "-- latency (ms) --"])
    rows = _latency_rows(telemetry)
    if rows:
        name_width = max(len(f"{scope} {name}") for scope, name, __ in rows)
        for scope, name, summary in rows:
            label = f"{scope} {name}".ljust(name_width)
            lines.append(
                f"{label}  count {summary.get('count', 0):>6}  "
                f"mean {_fmt(summary.get('mean_ms', 0.0)):>8}  "
                f"p50 {_fmt(summary.get('p50_ms', 0.0)):>8}  "
                f"p95 {_fmt(summary.get('p95_ms', 0.0)):>8}  "
                f"p99 {_fmt(summary.get('p99_ms', 0.0)):>8}"
            )
    else:
        lines.append("(no traffic yet)")
    route_mix = telemetry.get("route_mix", {})
    if route_mix:
        lines.append("")
        lines.append("-- route mix --")
        total = sum(route_mix.values()) or 1
        for route, count in sorted(route_mix.items()):
            lines.append(f"{route:<14} {count:>6}  ({100.0 * count / total:.1f}%)")
    semiring_mix = telemetry.get("semiring_mix", {})
    if semiring_mix:
        lines.append("")
        lines.append("-- semiring mix (aggregate mode) --")
        total = sum(semiring_mix.values()) or 1
        for name, count in sorted(semiring_mix.items()):
            lines.append(f"{name:<14} {count:>6}  ({100.0 * count / total:.1f}%)")
    for name, histogram in sorted(telemetry.get("latency_histograms", {}).items()):
        lines.append("")
        lines.append(render_histogram_text(f"latency[{name}] ms", histogram))
    slow = telemetry.get("slow_queries", [])
    lines.append("")
    lines.append(f"-- slow queries (>= {telemetry.get('slow_ms', '?')} ms) --")
    if slow:
        for entry in slow:
            lines.append(
                f"{entry.get('request_id')}  {entry.get('route'):<14} "
                f"{entry.get('elapsed_ms', 0.0):8.2f} ms  "
                f"{entry.get('ops', 0):>8} ops  {entry.get('detail', '')}"
            )
    else:
        lines.append("(none)")
    return "\n".join(lines) + "\n"


def render_dashboard_html(service) -> str:
    """The service dashboard as one self-contained HTML document."""
    return render_dashboard_html_from_payload(service.metrics_payload())


def render_dashboard_html_from_payload(payload: dict) -> str:
    telemetry = payload.get("telemetry", {})
    counters = telemetry.get("counters", {})
    plan_cache = payload.get("plan_cache", {})
    admission = payload.get("admission", {})
    service = payload.get("service", {})
    body: list[str] = []
    body.append(
        "<p>backend <code>{}</code> — databases: {}</p>".format(
            _html.escape(str(service.get("backend", "?"))),
            ", ".join(
                f"<code>{_html.escape(name)}</code>"
                for name in service.get("databases", ())
            )
            or "(none)",
        )
    )
    body.append(
        "<table><thead><tr><th>requests</th><th>errors</th><th>rejected</th>"
        "<th>shed</th><th>in flight</th><th>queued</th></tr></thead><tbody>"
        "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>"
        "<td>{}</td></tr></tbody></table>".format(
            counters.get("requests.total", 0),
            counters.get("requests.errors", 0),
            counters.get("requests.rejected", 0),
            counters.get("admission.shed", 0),
            admission.get("in_flight", 0),
            admission.get("queued", 0),
        )
    )
    body.append("<h2>Plan cache</h2>")
    body.append(
        "<table><thead><tr><th>size</th><th>capacity</th><th>hits</th>"
        "<th>misses</th><th>evictions</th><th>hit ratio</th></tr></thead><tbody>"
        "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>"
        "<td>{:.2f}</td></tr></tbody></table>".format(
            plan_cache.get("size", 0),
            plan_cache.get("capacity", 0),
            plan_cache.get("hits", 0),
            plan_cache.get("misses", 0),
            plan_cache.get("evictions", 0),
            plan_cache.get("hit_ratio", 0.0),
        )
    )
    coalesce = payload.get("coalesce", {})
    body.append("<h2>Coalescing</h2>")
    body.append(
        "<table><thead><tr><th>leaders</th><th>followers</th>"
        "<th>in flight</th></tr></thead><tbody>"
        "<tr><td>{}</td><td>{}</td><td>{}</td></tr></tbody></table>".format(
            coalesce.get("leaders", 0),
            coalesce.get("followers", 0),
            coalesce.get("inflight", 0),
        )
    )
    executor = payload.get("executor")
    if executor is not None:
        body.append(
            "<h2>Sharded executor ({} workers)</h2>".format(
                executor.get("workers", 0)
            )
        )
        shard_rows = "".join(
            "<tr><td>{}</td><td>{}</td><td>{}</td></tr>".format(
                _html.escape(str(shard)),
                view.get("dispatched", 0),
                ", ".join(
                    f"<code>{_html.escape(name)}</code>"
                    for name in view.get("databases", ())
                )
                or "(empty)",
            )
            for shard, view in sorted(executor.get("shards", {}).items())
        )
        body.append(
            "<table><thead><tr><th>shard</th><th>dispatched</th>"
            "<th>databases</th></tr></thead>"
            f"<tbody>{shard_rows}</tbody></table>"
        )
    body.append("<h2>Latency percentiles (ms)</h2>")
    rows = _latency_rows(telemetry)
    if rows:
        row_html = "".join(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td>"
            "<td>{}</td><td>{}</td></tr>".format(
                _html.escape(scope),
                _html.escape(name),
                summary.get("count", 0),
                _fmt(summary.get("mean_ms", 0.0)),
                _fmt(summary.get("p50_ms", 0.0)),
                _fmt(summary.get("p95_ms", 0.0)),
                _fmt(summary.get("p99_ms", 0.0)),
            )
            for scope, name, summary in rows
        )
        body.append(
            "<table><thead><tr><th>scope</th><th>name</th><th>count</th>"
            "<th>mean</th><th>p50</th><th>p95</th><th>p99</th></tr></thead>"
            f"<tbody>{row_html}</tbody></table>"
        )
    else:
        body.append("<p>(no traffic yet)</p>")
    route_mix = telemetry.get("route_mix", {})
    if route_mix:
        body.append("<h2>Route mix</h2>")
        mix_rows = "".join(
            f"<tr><td>{_html.escape(route)}</td><td>{count}</td></tr>"
            for route, count in sorted(route_mix.items())
        )
        body.append(
            "<table><thead><tr><th>route</th><th>requests</th></tr></thead>"
            f"<tbody>{mix_rows}</tbody></table>"
        )
    semiring_mix = telemetry.get("semiring_mix", {})
    if semiring_mix:
        body.append("<h2>Semiring mix (aggregate mode)</h2>")
        semiring_rows = "".join(
            f"<tr><td>{_html.escape(name)}</td><td>{count}</td></tr>"
            for name, count in sorted(semiring_mix.items())
        )
        body.append(
            "<table><thead><tr><th>semiring</th><th>requests</th></tr></thead>"
            f"<tbody>{semiring_rows}</tbody></table>"
        )
    histograms = sorted(telemetry.get("latency_histograms", {}).items())
    if histograms:
        body.append("<h2>Latency histograms</h2>")
        body.append(
            '<div class="charts">'
            + "".join(
                _svg_histogram(f"latency[{name}] ms", histogram)
                for name, histogram in histograms
            )
            + "</div>"
        )
    body.append(
        f"<h2>Slow queries (&ge; {telemetry.get('slow_ms', '?')} ms)</h2>"
    )
    slow = telemetry.get("slow_queries", [])
    if slow:
        slow_rows = "".join(
            "<tr><td>{}</td><td>{}</td><td>{:.2f}</td><td>{}</td>"
            "<td>{}</td></tr>".format(
                _html.escape(str(entry.get("request_id", "?"))),
                _html.escape(str(entry.get("route", "?"))),
                entry.get("elapsed_ms", 0.0),
                entry.get("ops", 0),
                _html.escape(str(entry.get("detail", ""))),
            )
            for entry in slow
        )
        body.append(
            "<table><thead><tr><th>request</th><th>route</th><th>ms</th>"
            "<th>ops</th><th>detail</th></tr></thead>"
            f"<tbody>{slow_rows}</tbody></table>"
        )
    else:
        body.append("<p>(none)</p>")
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        "<meta name='viewport' content='width=device-width, initial-scale=1'>"
        "<title>repro query service</title>"
        f"<style>{_CSS}</style></head>"
        '<body class="viz-root"><h1>repro query service</h1>'
        + "".join(body)
        + "</body></html>"
    )
