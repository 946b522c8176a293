"""The resident query service: asyncio server, request-scoped scopes.

Request lifecycle (the DESIGN.md "Service runtime" contract):

1. parse — :mod:`repro.service.http` reads one keep-alive request;
2. admit — ``POST /query`` passes through the
   :class:`~repro.service.admission.AdmissionController` (everything
   else — health, metrics, dashboard — is never shed, so the service
   stays observable under saturation);
3. prepare — the :class:`~repro.service.plan_cache.PlanCache` returns
   the route decision (hit) or runs the dichotomy case split (miss);
4. evaluate — inside a fresh request-scoped
   :class:`~repro.observability.tracing.TraceContext` (tracked by
   request id) and :class:`~repro.observability.metrics.MetricsRegistry`
   installed on the ambient contextvars, so two concurrent requests
   never observe each other's counters or spans;
5. record — latency, route, ops land in the service-lifetime
   :class:`~repro.service.telemetry.ServiceTelemetry`; the span tree is
   kept in the request ring for ``GET /trace/{request_id}`` export.

Evaluation is CPU-bound pure Python. With ``workers=0`` (the default)
it runs *inline* on the event loop — the server interleaves requests
at await points (admission, socket I/O), not mid-join. With
``workers=N`` the :class:`~repro.service.executor.ShardedExecutor`
dispatches it to the database's owning worker process instead, so the
loop stays free and evaluation uses all cores; both paths run the same
:func:`~repro.service.executor.evaluate_core`, so responses are
byte-identical either way. Single-flight coalescing
(:mod:`repro.service.coalesce`) sits in front of evaluation: identical
in-flight requests share one evaluation. Admission control is what
keeps tail latency bounded: beyond ``max_concurrent + queue_limit``
concurrent *evaluations* the service sheds with a 503 instead of
queueing without bound — coalesced followers never occupy an
admission slot.
"""

from __future__ import annotations

import asyncio
import json
import time

from ..counting import CostCounter
from ..csp.instance import Constraint, CSPInstance
from ..csp.solver import solve as solve_csp
from ..errors import ReproError, SchemaError
from ..observability.chrome_trace import record_to_chrome_trace
from ..observability.metrics import MetricsRegistry, activate_metrics
from ..observability.tracing import TraceContext, activate
from ..relational.query import Atom, JoinQuery
from ..relational.semiring import get_semiring
from .admission import AdmissionController, RequestShedError
from .coalesce import SingleFlight
from .executor import (
    ShardedExecutor,
    canonical_answers,
    evaluate_core,
    fault_traceback,
)
from .http import (
    HttpProtocolError,
    HttpRequest,
    json_response_bytes,
    read_request,
    response_bytes,
)
from .plan_cache import PlanCache
from .store import (
    DatabaseStore,
    _require_keys,
    _require_list,
    _require_scalar_rows,
    _require_scalars,
)
from .telemetry import RequestRecord, ServiceTelemetry

__all__ = [
    "QueryService",
    "canonical_answers",
    "csp_from_payload",
    "query_from_payload",
    "strip_volatile",
]

#: Schema tag stamped on exported per-request trace documents.
TRACE_SCHEMA = "repro-service-trace/v1"

#: The telemetry label of every request no endpoint serves, so unknown
#: paths cannot grow the service's counters and histograms.
UNKNOWN_ENDPOINT = "unknown"


def query_from_payload(payload: dict) -> JoinQuery:
    """Build a :class:`JoinQuery` from a request's ``atoms`` list."""
    atoms_payload = payload.get("atoms")
    if not isinstance(atoms_payload, list) or not atoms_payload:
        raise SchemaError("query payload needs a non-empty 'atoms' list")
    atoms = []
    for entry in atoms_payload:
        if not isinstance(entry, dict):
            raise SchemaError(f"atom entry must be an object, got {entry!r}")
        _require_keys(entry, "atom entry", ("relation", "attributes"))
        relation, attributes = entry["relation"], entry["attributes"]
        _require_list(attributes, "atom 'attributes'", str)
        atoms.append(Atom(relation, tuple(attributes)))
    return JoinQuery(atoms)


def csp_from_payload(payload: dict) -> CSPInstance:
    """Build a :class:`CSPInstance` from a ``/solve`` request payload.

    Expected shape: a non-empty ``domain`` list without repeats, a
    non-empty ``constraints`` list of ``{"scope": [...], "allowed":
    [[...]]}`` objects, and an optional explicit ``variables`` list
    (defaults to the scope variables in first-occurrence order); every
    value in them is a JSON scalar. Python equates ``true`` with ``1``,
    so those two are a repeat too.
    """
    domain = payload.get("domain")
    if not isinstance(domain, list) or not domain:
        raise SchemaError("solve payload needs a non-empty 'domain' list")
    _require_scalars(domain, "solve 'domain'")
    values: set = set()
    for value in domain:
        if value in values:
            raise SchemaError(f"solve 'domain' repeats the value {value!r}")
        values.add(value)
    constraints_payload = payload.get("constraints")
    if not isinstance(constraints_payload, list) or not constraints_payload:
        raise SchemaError("solve payload needs a non-empty 'constraints' list")
    constraints = []
    scope_order: list = []
    seen: set = set()
    for index, entry in enumerate(constraints_payload):
        if not isinstance(entry, dict):
            raise SchemaError(f"constraint entry must be an object, got {entry!r}")
        _require_keys(entry, "constraint entry", ("scope", "allowed"))
        scope, allowed = entry["scope"], entry["allowed"]
        _require_list(scope, "constraint 'scope'")
        _require_scalars(scope, f"constraint {index} 'scope'")
        _require_list(allowed, "constraint 'allowed'", list)
        _require_scalar_rows(allowed, f"constraint {index} 'allowed'")
        constraints.append(Constraint(tuple(scope), (tuple(t) for t in allowed)))
        for variable in scope:
            if variable not in seen:
                seen.add(variable)
                scope_order.append(variable)
    variables = payload.get("variables", scope_order)
    _require_list(variables, "solve 'variables'")
    _require_scalars(variables, "solve 'variables'")
    return CSPInstance(variables, domain, constraints)


#: Response fields that legitimately differ between service
#: configurations or between coalesced siblings of one evaluation.
#: Everything else — answers, counts, route, reason, ops, and the
#: request-scoped op-based metrics — is a pure function of (query,
#: database content) and must match byte for byte across ``--workers``
#: settings; the property suite and the cross-process ``serve`` test
#: both compare through this filter.
VOLATILE_FIELDS = frozenset({"request_id", "plan_cache", "coalesced"})


def strip_volatile(payload: dict) -> dict:
    """A ``/query`` response minus per-request/per-config fields."""
    return {
        key: value for key, value in payload.items() if key not in VOLATILE_FIELDS
    }


class QueryService:
    """One resident service instance: store + caches + telemetry + server."""

    def __init__(
        self,
        store: DatabaseStore | None = None,
        backend: str = "columnar",
        max_concurrent: int = 4,
        queue_limit: int = 16,
        plan_cache_capacity: int = 256,
        slow_ms: float = 50.0,
        window: int = 1024,
        debug_hold_ms: float = 0.0,
        workers: int = 0,
    ) -> None:
        self.store = store if store is not None else DatabaseStore(backend=backend)
        self.telemetry = ServiceTelemetry(slow_ms=slow_ms, window=window)
        self.plan_cache = PlanCache(
            plan_cache_capacity, registry=self.telemetry.registry
        )
        self.admission = AdmissionController(
            max_concurrent, queue_limit, registry=self.telemetry.registry
        )
        #: ``workers=0``: evaluate inline on the loop (single-process
        #: PR 8 behavior, byte-identical). ``workers=N``: dispatch to
        #: the owning shard's warm worker process.
        self.executor = (
            ShardedExecutor(self.store, workers, registry=self.telemetry.registry)
            if workers > 0
            else None
        )
        self.single_flight = SingleFlight(registry=self.telemetry.registry)
        #: Test seam: hold each admitted query this long (at an await
        #: point) so shed/queue behaviour is deterministic to provoke.
        self.debug_hold_ms = debug_hold_ms
        self._request_seq = 0
        self._server: asyncio.AbstractServer | None = None
        #: ``(method, path) -> (telemetry label, handler)``, matched on
        #: the path without its trailing slash; ``GET /trace/{id}`` is
        #: the one prefix rule (:meth:`_endpoint`).
        self._endpoints = {
            ("POST", "/databases"): ("register", self._handle_register),
            ("GET", "/databases"): ("databases", self._handle_databases),
            ("POST", "/query"): ("query", self._handle_query),
            ("POST", "/solve"): ("solve", self._handle_solve),
            ("GET", "/metrics"): ("metrics", self._handle_metrics),
            ("GET", "/healthz"): ("healthz", self._handle_healthz),
            ("GET", "/slowlog"): ("slowlog", self._handle_slowlog),
            ("GET", "/dashboard"): ("dashboard", self._handle_dashboard),
            ("GET", "/trace"): ("trace", self._handle_trace_all),
        }

    # -- request ids ----------------------------------------------------

    def next_request_id(self) -> str:
        """Monotone per-process ids (``r000001``, ...) — deterministic,
        unlike uuids, which the determinism policy forbids."""
        self._request_seq += 1
        return f"r{self._request_seq:06d}"

    # -- lifecycle ------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        await self.ensure_executor()
        self._server = await asyncio.start_server(
            self.handle_connection, host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def ensure_executor(self) -> None:
        """Warm the worker pools (no-op when ``workers=0`` or already
        warm). Socketless callers that use :meth:`dispatch` directly
        must await this before the first query."""
        if self.executor is not None and not self.executor.started:
            await self.executor.start()

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ReproError("service not started; call start() first")
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.executor is not None:
            self.executor.shutdown()

    # -- connection loop ------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_request(reader)
                except HttpProtocolError as exc:
                    writer.write(
                        json_response_bytes(
                            400, {"error": str(exc)}, keep_alive=False
                        )
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                data = await self.dispatch(request)
                writer.write(data)
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        except asyncio.CancelledError:
            # Server shutdown while parked on readline: close quietly.
            pass
        finally:
            writer.close()

    # -- dispatch -------------------------------------------------------

    def _endpoint(self, request: HttpRequest):
        """``(telemetry label, handler)`` of a request; ``handler`` is
        ``None``, and the label :data:`UNKNOWN_ENDPOINT`, on a miss."""
        path = request.path.rstrip("/") or "/"
        hit = self._endpoints.get((request.method, path))
        if hit is not None:
            return hit
        if request.method == "GET" and path.startswith("/trace/"):
            return "trace", self._handle_trace_one
        return UNKNOWN_ENDPOINT, None

    async def dispatch(self, request: HttpRequest) -> bytes:
        """Route one request; always returns serialized response bytes."""
        request_id = self.next_request_id()
        endpoint, handler = self._endpoint(request)
        started = time.perf_counter()
        status = 200
        route = ""
        ops = 0
        detail = ""
        spans: list = []
        metrics: dict = {}
        shard = -1
        source = ""
        try:
            if handler is None:
                status = 404
                body = json_response_bytes(
                    404, {"error": f"no such endpoint {request.method} {request.path}"}
                )
            else:
                status, body, extra = await handler(request, request_id)
                route = extra.get("route", "")
                ops = extra.get("ops", 0)
                detail = extra.get("detail", "")
                spans = extra.get("spans", [])
                metrics = extra.get("metrics", {})
                shard = extra.get("shard", -1)
                source = extra.get("source", "")
        except RequestShedError as exc:
            status = 503
            detail = str(exc)
            body = json_response_bytes(
                503,
                {"error": detail, "request_id": request_id, "shed": True},
                keep_alive=request.keep_alive,
            )
        except (HttpProtocolError, ReproError) as exc:
            status = 400
            detail = str(exc)
            body = json_response_bytes(
                400, {"error": detail, "request_id": request_id}
            )
        except (TypeError, ValueError, KeyError) as exc:
            status = 400
            detail = f"malformed request: {exc!r}"
            body = json_response_bytes(
                400, {"error": detail, "request_id": request_id}
            )
        except Exception as exc:
            # The boundary every request passes: a fault in an engine
            # still gets a response and a telemetry record, and the
            # connection stays open for the next request.
            # The body names only the exception's type: its message can
            # depend on where it was raised (a RecursionError's names the
            # C call site, which differs inline and in a shard worker),
            # and the record's traceback keeps it.
            status = 500
            detail = fault_traceback(exc)
            body = json_response_bytes(
                500,
                {
                    "error": "internal error",
                    "exception": type(exc).__name__,
                    "request_id": request_id,
                },
            )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.telemetry.observe_request(
            RequestRecord(
                request_id=request_id,
                endpoint=endpoint,
                route=route,
                status=status,
                ops=ops,
                elapsed_ms=elapsed_ms,
                detail=detail,
                spans=spans,
                metrics=metrics,
                shard=shard,
                source=source,
            )
        )
        return body

    # -- endpoint handlers ----------------------------------------------
    # Each returns (status, response_bytes, extras) where extras feeds
    # the telemetry record (route/ops/spans/metrics for query requests).

    async def _handle_register(self, request: HttpRequest, request_id: str):
        payload = request.json()
        if not isinstance(payload, dict):
            raise SchemaError("registration payload must be an object")
        _require_keys(payload, "registration payload", (), ("name", "relations"))
        name = payload.get("name")
        relations = payload.get("relations")
        if not isinstance(name, str):
            raise SchemaError("registration payload needs a string 'name'")
        fingerprint = self.store.register(name, relations)
        dropped = self.plan_cache.invalidate_database(name)
        if self.executor is not None and self.executor.started:
            await self.executor.replicate(name)
        self.telemetry.registry.gauge("store.databases").set(len(self.store))
        body = json_response_bytes(
            200,
            {
                "request_id": request_id,
                "database": name,
                "fingerprint": fingerprint,
                "backend": self.store.backend,
                "invalidated_plans": dropped,
            },
        )
        return 200, body, {}

    async def _handle_databases(self, request: HttpRequest, request_id: str):
        body = json_response_bytes(
            200, {"request_id": request_id, "databases": self.store.describe()}
        )
        return 200, body, {}

    async def _handle_query(self, request: HttpRequest, request_id: str):
        payload = request.json()
        if not isinstance(payload, dict):
            raise SchemaError("query payload must be an object")
        _require_keys(
            payload, "query payload", (), ("database", "atoms", "mode", "free", "semiring")
        )
        database_name = payload.get("database")
        if not isinstance(database_name, str):
            raise SchemaError("query payload needs a string 'database'")
        mode = payload.get("mode", "enumerate")
        free = payload.get("free")
        if free is not None:
            _require_list(free, "query 'free'", str)
        semiring_name = payload.get("semiring")
        if semiring_name is not None and mode != "aggregate":
            raise SchemaError(
                "the 'semiring' field is only valid with mode='aggregate'"
            )
        if mode == "aggregate":
            semiring_name = semiring_name if semiring_name is not None else "counting"
            if not isinstance(semiring_name, str):
                raise SchemaError("query 'semiring' must be a string")
            get_semiring(semiring_name)  # unknown names 400 before caching
        query = query_from_payload(payload)
        database = self.store.get(database_name)
        fingerprint = self.store.fingerprint(database_name)
        plan, was_hit = self.plan_cache.get_or_build(
            query,
            free,
            mode,
            database_name,
            fingerprint,
            self.store.backend,
            semiring_name,
        )
        if semiring_name is not None:
            self.telemetry.registry.counter(
                f"requests.semiring.{semiring_name}"
            ).inc()
        # The spec is the evaluation's full input: everything
        # evaluate_core needs, picklable, identical for inline and
        # worker paths. plan.key identifies it content-addressed.
        spec = {
            "atoms": [
                {"relation": atom.relation_name, "attributes": list(atom.attributes)}
                for atom in query.atoms
            ],
            "free": list(plan.free),
            "mode": mode,
            "semiring": semiring_name,
            "route": plan.decision.route,
            "reason": plan.decision.reason,
            "forests": plan.decision.forests,
            "order": plan.decision.order,
            "database": database_name,
            "fingerprint": fingerprint,
        }

        async def leader() -> dict:
            return await self._evaluate_leader(database, spec, request_id)

        core, coalesced = await self.single_flight.run(plan.key, leader)
        if coalesced:
            # Followers share the leader's result, not its
            # observability: fresh envelope, no borrowed spans.
            core = dict(core, spans=[], shard=-1)
            source = "coalesced"
        else:
            source = "worker" if core["shard"] >= 0 else "inline"
        result = {
            "request_id": request_id,
            "database": database_name,
            "fingerprint": fingerprint,
            "mode": mode,
            "free": list(plan.free),
            "route": core["route"],
            "reason": core["reason"],
            "ops": core["ops"],
            "coalesced": coalesced,
            "plan_cache": {"hit": was_hit, "key": plan.key},
            "metrics": core["metrics"],
        }
        for field in ("count", "nonempty", "semiring", "aggregate"):
            if field in core:
                result[field] = core[field]
        extras = {
            "route": core["route"],
            "ops": core["ops"],
            "detail": f"{database_name}: {len(query.atoms)} atoms, mode={mode}",
            "spans": core["spans"],
            "metrics": core["metrics"],
            "shard": core["shard"],
            "source": source,
        }
        body = json_response_bytes(200, result, answers=core.get("answers"))
        return 200, body, extras

    async def _evaluate_leader(
        self, database, spec: dict, request_id: str
    ) -> dict:
        """One admitted evaluation: worker dispatch with inline fallback.

        This is the only place `/query` work passes through admission —
        coalesced followers never reach it, so admission slots meter
        actual evaluations.
        """
        async with self.admission.admit():
            if self.debug_hold_ms > 0:
                await asyncio.sleep(self.debug_hold_ms / 1000.0)
            self.telemetry.registry.counter("evaluations.total").inc()
            core: dict | None = None
            if self.executor is not None and self.executor.started:
                core = await self.executor.dispatch(spec, request_id)
            if core is None:
                core = evaluate_core(database, spec, track=request_id)
                core["shard"] = -1
        return core

    async def _handle_solve(self, request: HttpRequest, request_id: str):
        """CSP workloads through the same admission/observability
        envelope as `/query` — a thin route over :mod:`repro.csp`."""
        payload = request.json()
        if not isinstance(payload, dict):
            raise SchemaError("solve payload must be an object")
        _require_keys(
            payload, "solve payload", (), ("domain", "constraints", "variables", "method")
        )
        method = payload.get("method", "auto")
        if not isinstance(method, str):
            raise SchemaError("solve 'method' must be a string")
        instance = csp_from_payload(payload)
        trace = TraceContext(track=request_id)
        registry = MetricsRegistry()
        counter = CostCounter()
        async with self.admission.admit():
            if self.debug_hold_ms > 0:
                await asyncio.sleep(self.debug_hold_ms / 1000.0)
            with activate(trace), activate_metrics(registry):
                assignment = solve_csp(instance, method=method, counter=counter)
        result = {
            "request_id": request_id,
            "method": method,
            "variables": list(instance.variables),
            "satisfiable": assignment is not None,
            "assignment": (
                sorted(([v, assignment[v]] for v in assignment), key=repr)
                if assignment is not None
                else None
            ),
            "ops": counter.total,
            "metrics": registry.to_payload(),
        }
        extras = {
            "route": f"csp-{method}",
            "ops": counter.total,
            "detail": (
                f"csp: {instance.num_variables} vars, "
                f"{instance.num_constraints} constraints, method={method}"
            ),
            "spans": trace.to_payload(),
            "metrics": registry.to_payload(),
        }
        return 200, json_response_bytes(200, result), extras

    async def _handle_metrics(self, request: HttpRequest, request_id: str):
        body = json_response_bytes(200, self.metrics_payload(request_id))
        return 200, body, {}

    def metrics_payload(self, request_id: str = "") -> dict:
        payload = {
            "service": {
                "backend": self.store.backend,
                "databases": self.store.names(),
                "workers": self.executor.workers if self.executor else 0,
            },
            "telemetry": self.telemetry.snapshot(),
            "plan_cache": self.plan_cache.to_payload(),
            "admission": self.admission.to_payload(),
            "coalesce": self.single_flight.to_payload(),
        }
        if self.executor is not None:
            payload["executor"] = self.executor.to_payload()
        if request_id:
            payload["request_id"] = request_id
        return payload

    async def _handle_healthz(self, request: HttpRequest, request_id: str):
        body = json_response_bytes(
            200,
            {
                "status": "ok",
                "request_id": request_id,
                "databases": len(self.store),
                "requests_total": self.telemetry.registry.counter_value(
                    "requests.total"
                ),
            },
        )
        return 200, body, {}

    async def _handle_slowlog(self, request: HttpRequest, request_id: str):
        body = json_response_bytes(
            200,
            {
                "request_id": request_id,
                "slow_ms": self.telemetry.slow_ms,
                "slow_queries": [
                    entry.to_payload() for entry in self.telemetry.slow_log
                ],
            },
        )
        return 200, body, {}

    async def _handle_dashboard(self, request: HttpRequest, request_id: str):
        from .dashboard import render_dashboard_html, render_dashboard_text

        if request.query.get("format") == "text":
            text = render_dashboard_text(self)
            body = response_bytes(200, text.encode(), content_type="text/plain")
        else:
            html = render_dashboard_html(self)
            body = response_bytes(
                200, html.encode(), content_type="text/html; charset=utf-8"
            )
        return 200, body, {}

    def trace_document(self, request_ids) -> dict:
        """A chrome-trace document covering the given request ids."""
        entries = []
        for rid in request_ids:
            record = self.telemetry.request(rid)
            if record is None:
                continue
            entries.append(
                {
                    "key": rid,
                    "status": "ok" if record.status < 400 else f"http-{record.status}",
                    "spans": record.spans,
                }
            )
        return record_to_chrome_trace(
            {"schema": TRACE_SCHEMA, "experiments": entries}
        )

    async def _handle_trace_one(self, request: HttpRequest, request_id: str):
        target = request.path.rstrip("/").rsplit("/", 1)[-1]
        if self.telemetry.request(target) is None:
            body = json_response_bytes(
                404,
                {
                    "error": f"no request {target!r} in the trace ring",
                    "request_id": request_id,
                },
            )
            return 404, body, {}
        document = self.trace_document([target])
        body = response_bytes(
            200, json.dumps(document, sort_keys=True).encode()
        )
        return 200, body, {}

    async def _handle_trace_all(self, request: HttpRequest, request_id: str):
        limit_text = request.query.get("limit", "32")
        try:
            limit = max(1, int(limit_text))
        except ValueError as exc:
            raise HttpProtocolError(f"bad limit {limit_text!r}") from exc
        # One merged entry: spans from different requests stay on their
        # own tracks (the per-request TraceContext stamped them), so the
        # export shows one timeline lane per request.
        records = [
            record
            for record in self.telemetry.recent_requests(limit)
            if record.spans
        ]
        merged: list = []
        for record in records:
            merged.extend(record.spans)
        document = record_to_chrome_trace(
            {
                "schema": TRACE_SCHEMA,
                "experiments": [
                    {"key": "service", "status": "ok", "spans": merged}
                ],
            }
        )
        body = response_bytes(
            200, json.dumps(document, sort_keys=True).encode()
        )
        return 200, body, {}
