"""End-to-end service tests over a real asyncio server on port 0."""

import asyncio
import dataclasses
import json

from repro.counting import CostCounter
from repro.relational.query import Atom, JoinQuery
from repro.relational.router import execute_route
from repro.service import QueryService
from repro.service import plan_cache as plan_cache_module
from repro.service import server as server_module
from repro.service.client import ServiceClient
from repro.service.http import HttpRequest
from repro.service.server import canonical_answers, strip_volatile
from repro.service.store import database_from_payload

EDGES = [[1, 2], [2, 3], [1, 3], [3, 4], [4, 1]]

RELATIONS = [
    {"name": name, "attributes": list(attrs), "tuples": EDGES}
    for name, attrs in (
        ("R1", ("a1", "a2")),
        ("R2", ("a1", "a3")),
        ("R3", ("a2", "a3")),
    )
]

TRIANGLE_ATOMS = [
    {"relation": "R1", "attributes": ["a1", "a2"]},
    {"relation": "R2", "attributes": ["a1", "a3"]},
    {"relation": "R3", "attributes": ["a2", "a3"]},
]

PATH_ATOMS = [
    {"relation": "R1", "attributes": ["a1", "a2"]},
    {"relation": "R3", "attributes": ["a2", "a3"]},
]


def route_counts(payload):
    """The route.* counters of one response's request-scoped metrics."""
    return {
        name: value
        for name, value in payload["metrics"]["counters"].items()
        if name.startswith("route.")
    }


def run_service(test_coroutine, **service_kwargs):
    """Boot a service on port 0, run the test body, tear down."""

    async def main():
        service = QueryService(**service_kwargs)
        host, port = await service.start()
        try:
            async with ServiceClient(host, port) as client:
                await client.register("demo", RELATIONS)
                return await test_coroutine(service, host, port, client)
        finally:
            await service.stop()

    return asyncio.run(main())


class TestQueryEndpoint:
    def test_response_carries_route_ops_and_identical_answers(self):
        async def body(service, host, port, client):
            status, payload = await client.query("demo", TRIANGLE_ATOMS)
            assert status == 200
            assert payload["route"] == "wcoj"
            assert "cyclic" in payload["reason"]
            assert payload["ops"] > 0
            database = database_from_payload(RELATIONS)
            direct = execute_route(
                JoinQuery(
                    Atom(a["relation"], tuple(a["attributes"]))
                    for a in TRIANGLE_ATOMS
                ),
                database,
            )
            assert payload["answers"] == canonical_answers(direct.relation.tuples)
            # The response's request-scoped metrics show exactly this
            # request's route decision (plus the engine's own counters).
            assert route_counts(payload) == {"route.wcoj": 1}
            return payload

        payload = run_service(body)
        assert payload["request_id"].startswith("r")

    def test_count_and_boolean_modes(self):
        async def body(service, host, port, client):
            __, count_payload = await client.query(
                "demo", TRIANGLE_ATOMS, mode="count"
            )
            __, bool_payload = await client.query(
                "demo", PATH_ATOMS, mode="boolean"
            )
            assert count_payload["route"] == "wcoj"
            assert bool_payload["route"] == "yannakakis"
            assert isinstance(count_payload["count"], int)
            assert bool_payload["nonempty"] is True
            return None

        run_service(body)

    def test_plan_cache_hit_on_repeat_and_invalidation_on_reregister(self):
        async def body(service, host, port, client):
            __, first = await client.query("demo", PATH_ATOMS)
            __, second = await client.query("demo", PATH_ATOMS)
            assert first["plan_cache"]["hit"] is False
            assert second["plan_cache"]["hit"] is True
            assert first["plan_cache"]["key"] == second["plan_cache"]["key"]
            assert first["answers"] == second["answers"]
            await client.register(
                "demo",
                [dict(r, tuples=EDGES + [[9, 9]]) for r in RELATIONS],
            )
            __, third = await client.query("demo", PATH_ATOMS)
            assert third["plan_cache"]["hit"] is False
            assert third["answers"] != second["answers"]
            return None

        run_service(body)

    def test_errors_are_400_and_unknown_endpoint_404(self):
        async def body(service, host, port, client):
            status, payload = await client.query("missing", PATH_ATOMS)
            assert status == 400 and "missing" in payload["error"]
            status, payload = await client.query("demo", PATH_ATOMS, mode="nope")
            assert status == 400
            status, payload = await client.query(
                "demo", TRIANGLE_ATOMS, free=["a1"], mode="count"
            )
            assert status == 400 and "projections" in payload["error"]
            status, __ = await client.request("GET", "/nope")
            assert status == 404
            metrics = await client.get_json("/metrics")
            # Three 400s plus the 404 all count as rejected.
            assert metrics["telemetry"]["counters"]["requests.rejected"] == 4
            return None

        run_service(body)


#: A 600-atom cycle: deeper than the interpreter's recursion limit, so
#: every engine must walk it iteratively. Its count runs variable
#: elimination; boolean and enumerate run Generic Join.
DEEP_CYCLE = [
    {"relation": "R1", "attributes": [f"v{i}", f"v{(i + 1) % 600}"]}
    for i in range(600)
]

#: A directed 4-cycle: a 600-atom cycle over it has exactly four
#: answers, one per start vertex (over ``EDGES`` it has about 10^52, too
#: many to enumerate).
RING = [{"name": "R1", "attributes": ["a1", "a2"], "tuples": [[1, 2], [2, 3], [3, 4], [4, 1]]}]


def closed_walks(edges, length: int) -> int:
    """trace(A^length) of the digraph ``edges``: its closed walks of
    ``length`` steps, in exact integers."""
    nodes = sorted({v for edge in edges for v in edge})
    index = {v: i for i, v in enumerate(nodes)}
    power = [[int(i == j) for j in range(len(nodes))] for i in range(len(nodes))]
    for _ in range(length):
        step = [[0] * len(nodes) for _ in nodes]
        for u, v in edges:
            for i in range(len(nodes)):
                step[i][index[v]] += power[i][index[u]]
        power = step
    return sum(power[i][i] for i in range(len(nodes)))


class TestDeepCycleCount:
    def test_a_600_atom_cycle_counts_exactly_at_every_workers_setting(self):
        """The count is trace(A^600), 173 bits: past ``int64``, so the
        elimination's exact big-int fallback answers it."""
        expected = closed_walks(EDGES, 600)
        assert expected == 9435764495112794310727101890221935041348549415889412
        assert expected.bit_length() == 173

        async def body(service, host, port, client):
            return await client.query("demo", DEEP_CYCLE, mode="count")

        responses = {}
        for workers in (0, 2):
            status, payload = run_service(body, workers=workers)
            assert status == 200, payload
            assert payload["count"] == expected
            assert payload["reason"].startswith("cyclic: variable elimination")
            responses[workers] = strip_volatile(payload)
        assert responses[2] == responses[0]

    def test_a_600_atom_cycle_decides_and_enumerates_at_every_workers_setting(self):
        """Generic Join keeps its own stack: boolean and enumerate over
        the 600-atom cycle answer 200, with the same bodies inline and
        from shard workers."""

        async def body(service, host, port, client):
            await client.register("ring", RING)
            return [
                await client.query("demo", DEEP_CYCLE, mode="boolean"),
                await client.query("ring", DEEP_CYCLE, free=["v0"]),
            ]

        responses = {}
        for workers in (0, 2):
            (status, boolean), (enum_status, enumerate_) = run_service(
                body, workers=workers
            )
            assert status == enum_status == 200, (boolean, enumerate_)
            assert boolean["nonempty"] is True and boolean["route"] == "wcoj"
            assert enumerate_["answers"] == [[1], [2], [3], [4]]
            responses[workers] = [strip_volatile(boolean), strip_volatile(enumerate_)]
        assert responses[2] == responses[0]


#: A 4-cycle's count runs variable elimination along the plan's order.
FOUR_CYCLE = [
    {"relation": "R1", "attributes": ["a1", "a2"]},
    {"relation": "R1", "attributes": ["a2", "a3"]},
    {"relation": "R1", "attributes": ["a3", "a4"]},
    {"relation": "R1", "attributes": ["a4", "a1"]},
]


class FaultyName(str):
    """An attribute name whose ordering comparison raises: an engine
    fault that travels inside a plan, so it fires wherever the plan is
    evaluated, inline or in a shard worker."""

    def __lt__(self, other):
        raise RuntimeError("injected engine fault")


def inject_engine_fault(monkeypatch) -> None:
    """Plan every query with its elimination order rebuilt from
    :class:`FaultyName`s: variable elimination sorts the order to check
    it, so a cyclic count raises there."""
    real = plan_cache_module.decide_route

    def faulty(*args, **kwargs):
        decision = real(*args, **kwargs)
        if decision.order is None:
            return decision
        return dataclasses.replace(
            decision, order=tuple(map(FaultyName, decision.order))
        )

    monkeypatch.setattr(plan_cache_module, "decide_route", faulty)


class TestUnexpectedExceptions:
    def test_engine_fault_is_500_with_a_record_and_the_connection_lives(
        self, monkeypatch
    ):
        inject_engine_fault(monkeypatch)

        async def body(service, host, port, client):
            before = service.telemetry.registry.counter_value("requests.total")
            status, payload = await client.query("demo", FOUR_CYCLE, mode="count")
            assert status == 500
            assert payload["exception"] == "RuntimeError"
            assert payload["error"] == "internal error"
            records = [
                r for r in service.telemetry.recent_requests() if r.status == 500
            ]
            assert [r.request_id for r in records] == [payload["request_id"]]
            assert "RuntimeError: injected engine fault" in records[0].detail
            assert "Traceback" in records[0].detail
            after = service.telemetry.registry.counter_value("requests.total")
            assert after == before + 1
            # The same keep-alive connection serves the next request.
            status, payload = await client.query("demo", PATH_ATOMS, mode="count")
            assert status == 200 and payload["count"] > 0
            return None

        run_service(body)


class TestWorkerEvaluationErrors:
    def test_worker_error_is_answered_once_as_inline(self, monkeypatch):
        """A query naming a relation the database lacks raises
        SchemaError inside the worker: the parent re-raises it, books no
        transport error and never evaluates the spec again inline."""
        atoms = [{"relation": "R9", "attributes": ["a1", "a2"]}]
        real = server_module.evaluate_core
        inline: list = []

        def spy(*args, **kwargs):
            inline.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(server_module, "evaluate_core", spy)

        async def body(service, host, port, client):
            status, payload = await client.query("demo", atoms)
            errors = service.telemetry.registry.counter_value("executor.errors")
            return status, payload, errors

        responses = {}
        for workers in (0, 2):
            inline.clear()
            status, payload, errors = run_service(body, workers=workers)
            responses[workers] = (status, payload)
            assert status == 400 and "R9" in payload["error"]
            assert errors == 0
            assert len(inline) == (0 if workers else 1)
        assert responses[2] == responses[0]

    def test_worker_runtime_error_is_not_a_transport_failure(self, monkeypatch):
        """An engine's RuntimeError is a RuntimeError, as BrokenProcessPool
        is: it comes back as the worker's result and is answered once,
        with a 500."""
        inject_engine_fault(monkeypatch)
        inline: list = []
        monkeypatch.setattr(
            server_module, "evaluate_core", lambda *args: inline.append(args)
        )

        async def body(service, host, port, client):
            status, payload = await client.query("demo", FOUR_CYCLE, mode="count")
            errors = service.telemetry.registry.counter_value("executor.errors")
            return status, payload, errors

        status, payload, errors = run_service(body, workers=2)
        assert (status, payload["exception"], errors, inline) == (
            500, "RuntimeError", 0, []
        )

    def test_worker_fault_record_keeps_the_engine_frames(self, monkeypatch):
        """Pickling drops ``__traceback__``: the worker formats its frames
        and the parent records them, so a fault's 500 record names the
        engine frame it was raised in at every ``--workers`` setting."""
        inject_engine_fault(monkeypatch)

        async def body(service, host, port, client):
            status, payload = await client.query("demo", FOUR_CYCLE, mode="count")
            [record] = [
                r for r in service.telemetry.recent_requests() if r.status == 500
            ]
            return status, payload, record.detail

        bodies = {}
        for workers in (0, 2):
            status, payload, detail = run_service(body, workers=workers)
            assert status == 500
            assert "variable_elimination" in detail, detail
            last = detail.rstrip().splitlines()[-1]
            assert last == "RuntimeError: injected engine fault", detail
            del payload["request_id"]
            bodies[workers] = payload
        assert bodies[2] == bodies[0] == {
            "error": "internal error",
            "exception": "RuntimeError",
        }


#: (endpoint, payload, the misspelt key its 400 must name). Each payload
#: is valid apart from that one key, which used to be ignored.
MISSPELT_KEYS = [
    ("/query", {"database": "demo", "atoms": TRIANGLE_ATOMS, "fre": ["a1"]}, "fre"),
    (
        "/query",
        {"database": "demo", "atoms": TRIANGLE_ATOMS, "mode": "aggregate", "semirng": "minplus"},
        "semirng",
    ),
    (
        "/query",
        {"database": "demo", "atoms": [{"relaton": "R1", "attributes": ["a1", "a2"]}]},
        "relaton",
    ),
    (
        "/solve",
        {"domain": [0, 1], "constraints": [{"scope": ["x", "y"], "allowed": [[0, 1]]}], "methd": "sat"},
        "methd",
    ),
    (
        "/solve",
        {"domain": [0, 1], "constraints": [{"scope": ["x", "y"], "alowed": [[0, 1]]}]},
        "alowed",
    ),
    ("/databases", {"name": "extra", "relations": RELATIONS, "backend": "naive"}, "backend"),
    (
        "/databases",
        {"name": "typo", "relations": [dict(RELATIONS[0], tupels=[])]},
        "tupels",
    ),
]


class TestMisspeltKeys:
    def test_every_unknown_key_is_400_naming_it(self):
        async def body(service, host, port, client):
            return [
                await client.request("POST", path, payload)
                for path, payload, _ in MISSPELT_KEYS
            ]

        responses = run_service(body)
        for (path, _, key), (status, payload) in zip(MISSPELT_KEYS, responses):
            assert status == 400, (path, key, payload)
            assert repr(key) in payload["error"], (path, key, payload)


def _registration(tuples) -> dict:
    return {"name": "bad", "relations": [dict(RELATIONS[0], tuples=tuples)]}


def _solve(domain=(0, 1), scope=("x",), allowed=((0,),), **extra) -> dict:
    constraint = {"scope": list(scope), "allowed": [list(row) for row in allowed]}
    return {"domain": list(domain), "constraints": [constraint], **extra}


#: (endpoint, payload, what its 400 must name). Each payload holds a
#: list or an object where only JSON scalars belong.
NON_SCALAR_VALUES = [
    ("/databases", _registration([[1, 2], [[1], 2]]), ("'R1'", "row 1", "[1]")),
    ("/databases", _registration([[{"x": 1}, 2]]), ("'R1'", "row 0", "{'x': 1}")),
    ("/solve", _solve(domain=[[0], [1]]), ("'domain'", "[0]")),
    ("/solve", _solve(scope=[["x"]]), ("'scope'", "['x']")),
    ("/solve", _solve(allowed=[[[0]]]), ("'allowed'", "row 0", "[0]")),
    ("/solve", _solve(variables=[["x"]]), ("'variables'", "['x']")),
]


class TestNonScalarValues:
    def test_every_non_scalar_value_is_a_400_naming_it(self):
        async def body(service, host, port, client):
            responses = [
                await client.request("POST", path, payload)
                for path, payload, _ in NON_SCALAR_VALUES
            ]
            return responses, service.store.names()

        responses, names = run_service(body)
        for (path, _, named), (status, payload) in zip(NON_SCALAR_VALUES, responses):
            assert status == 400, (path, payload)
            # Validation rejects it, not an unhashable-type TypeError.
            assert "JSON scalars" in payload["error"], (path, payload)
            for words in named:
                assert words in payload["error"], (path, words, payload)
        assert "bad" not in names


class TestStringShapedLists:
    """A string iterates like a list of its characters; the decoders
    reject it instead of reading ``"xy"`` as ``["x", "y"]``."""

    def test_string_attributes_are_400(self):
        async def body(service, host, port, client):
            status, payload = await client.request(
                "POST",
                "/query",
                {"database": "demo", "atoms": [{"relation": "R1", "attributes": "xy"}]},
            )
            assert status == 400 and "'attributes'" in payload["error"]
            return None

        run_service(body)

    def test_string_free_is_400(self):
        async def body(service, host, port, client):
            atoms = [{"relation": "R1", "attributes": ["x", "y"]}]
            status, payload = await client.request(
                "POST", "/query", {"database": "demo", "atoms": atoms, "free": "x"}
            )
            assert status == 400 and "'free'" in payload["error"]
            status, payload = await client.request(
                "POST", "/query", {"database": "demo", "atoms": atoms, "free": ["x"]}
            )
            assert status == 200 and payload["free"] == ["x"]
            return None

        run_service(body)

    def test_string_variables_is_400(self):
        async def body(service, host, port, client):
            solve = {
                "domain": [0, 1],
                "constraints": [{"scope": ["a", "b"], "allowed": [[0, 1]]}],
            }
            status, payload = await client.request(
                "POST", "/solve", dict(solve, variables="ab")
            )
            assert status == 400 and "'variables'" in payload["error"]
            status, payload = await client.request(
                "POST", "/solve", dict(solve, variables=["b", "a"])
            )
            assert status == 200 and payload["variables"] == ["b", "a"]
            return None

        run_service(body)


class TestEndpointLabels:
    def test_unknown_paths_and_wrong_methods_share_one_label(self):
        async def main():
            service = QueryService()
            requests = [HttpRequest("GET", f"/nope/{i}") for i in range(40)]
            requests += [HttpRequest("GET", "/query"), HttpRequest("GET", "/")]
            heads = []
            for request in requests:
                data = await service.dispatch(request)
                heads.append(data.partition(b"\r\n")[0])
            return service, heads

        service, heads = asyncio.run(main())
        assert heads == [b"HTTP/1.1 404 Not Found"] * 42
        snapshot = service.telemetry.snapshot()
        assert set(snapshot["endpoints"]) == {"unknown"}
        assert snapshot["endpoints"]["unknown"]["count"] == 42
        assert [
            name for name in snapshot["counters"]
            if name.startswith("requests.endpoint.")
        ] == ["requests.endpoint.unknown"]
        assert snapshot["counters"]["requests.endpoint.unknown"] == 42

    def test_served_endpoints_keep_their_labels(self):
        async def main():
            service = QueryService()
            for method, path in [
                ("GET", "/databases"),
                ("GET", "/metrics/"),
                ("GET", "/healthz"),
                ("GET", "/slowlog"),
                ("GET", "/trace"),
                ("GET", "/trace/r000001"),
            ]:
                await service.dispatch(HttpRequest(method, path))
            return service

        service = asyncio.run(main())
        labels = [r.endpoint for r in service.telemetry.recent_requests()]
        assert labels == [
            "databases", "metrics", "healthz", "slowlog", "trace", "trace",
        ]


class TestMalformedBodies:
    def test_over_deep_json_is_400_with_one_telemetry_record(self):
        async def main():
            service = QueryService()
            request = HttpRequest("POST", "/query", body=b"[" * 100_000)
            data = await service.dispatch(request)
            return service, data

        service, data = asyncio.run(main())
        head, __, body = data.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400")
        payload = json.loads(body)
        assert "nested too deeply" in payload["error"]
        records = service.telemetry.recent_requests()
        assert [r.request_id for r in records] == [payload["request_id"]]
        assert records[0].status == 400

    def test_coerced_registration_is_400(self):
        async def body(service, host, port, client):
            relations = [dict(RELATIONS[0], attributes="ab")]
            status, payload = await client.request(
                "POST", "/databases", {"name": "coerced", "relations": relations}
            )
            assert status == 400 and "'attributes'" in payload["error"]
            assert "request_id" in payload
            assert "coerced" not in service.store.names()
            return None

        run_service(body)


class TestRequestScopedIsolation:
    def test_concurrent_requests_never_observe_each_other(self):
        async def body(service, host, port, client):
            # Solo run establishes each query's op cost.
            __, solo_tri = await client.query("demo", TRIANGLE_ATOMS)
            __, solo_path = await client.query("demo", PATH_ATOMS)

            async def one(atoms):
                async with ServiceClient(host, port) as mine:
                    return await mine.query("demo", atoms)

            # debug_hold_ms keeps both requests in flight simultaneously.
            results = await asyncio.gather(
                *(one(TRIANGLE_ATOMS) for _ in range(2)),
                *(one(PATH_ATOMS) for _ in range(2)),
            )
            for status, payload in results[:2]:
                assert status == 200
                assert route_counts(payload) == {"route.wcoj": 1}
                assert payload["ops"] == solo_tri["ops"]
            for status, payload in results[2:]:
                assert status == 200
                assert route_counts(payload) == {"route.factorized": 1}
                assert payload["ops"] == solo_path["ops"]
            return None

        run_service(body, max_concurrent=4, debug_hold_ms=30.0)

    def test_trace_export_keeps_concurrent_requests_on_distinct_tracks(self):
        async def body(service, host, port, client):
            async def one(atoms):
                async with ServiceClient(host, port) as mine:
                    return await mine.query("demo", atoms)

            results = await asyncio.gather(
                one(TRIANGLE_ATOMS), one(PATH_ATOMS)
            )
            rids = [payload["request_id"] for __, payload in results]
            # Per-request export: one thread, named after the request.
            status, document = await client.request("GET", f"/trace/{rids[0]}")
            assert status == 200
            names = [
                e["args"]["name"]
                for e in document["traceEvents"]
                if e["name"] == "thread_name"
            ]
            assert names == [f"{rids[0]} (ok) · {rids[0]}"]
            # Merged export: one tid per request, span trees intact.
            status, merged = await client.request("GET", "/trace")
            assert status == 200
            tids_by_track = {}
            for event in merged["traceEvents"]:
                if event["name"] == "thread_name" and "·" in event["args"]["name"]:
                    track = event["args"]["name"].split("·")[-1].strip()
                    tids_by_track[track] = event["tid"]
            assert set(rids) <= set(tids_by_track)
            assert len({tids_by_track[r] for r in rids}) == 2
            route_events = [
                e for e in merged["traceEvents"] if e.get("name") == "route"
            ]
            assert {e["tid"] for e in route_events} >= {
                tids_by_track[r] for r in rids
            }
            status, __ = await client.request("GET", "/trace/r999999")
            assert status == 404
            return None

        run_service(body, max_concurrent=4, debug_hold_ms=20.0)


class TestAdmissionControl:
    def test_saturated_service_sheds_with_503(self):
        # Six *distinct* queries: identical ones would coalesce onto a
        # single admission slot instead of contending for it.
        variants = [
            {"atoms": PATH_ATOMS},
            {"atoms": PATH_ATOMS, "free": ["a1"]},
            {"atoms": PATH_ATOMS, "free": ["a2"]},
            {"atoms": PATH_ATOMS, "free": ["a3"]},
            {"atoms": PATH_ATOMS, "free": ["a1", "a2"]},
            {"atoms": PATH_ATOMS, "free": ["a2", "a3"]},
        ]

        async def body(service, host, port, client):
            async def one(spec):
                async with ServiceClient(host, port) as mine:
                    return await mine.query(
                        "demo", spec["atoms"], free=spec.get("free")
                    )

            results = await asyncio.gather(*(one(v) for v in variants))
            statuses = sorted(status for status, __ in results)
            assert statuses.count(200) >= 1
            assert statuses.count(503) >= 1
            shed_payloads = [p for s, p in results if s == 503]
            assert all(p["shed"] for p in shed_payloads)
            metrics = await client.get_json("/metrics")
            counters = metrics["telemetry"]["counters"]
            assert counters["admission.shed"] == statuses.count(503)
            assert metrics["admission"]["max_concurrent"] == 1
            return None

        run_service(body, max_concurrent=1, queue_limit=0, debug_hold_ms=80.0)

    def test_identical_saturating_requests_coalesce_instead_of_shedding(self):
        async def body(service, host, port, client):
            async def one():
                async with ServiceClient(host, port) as mine:
                    return await mine.query("demo", PATH_ATOMS)

            results = await asyncio.gather(*(one() for _ in range(6)))
            assert [status for status, __ in results] == [200] * 6
            bodies = {
                json.dumps(strip_volatile(payload), sort_keys=True)
                for __, payload in results
            }
            assert len(bodies) == 1
            assert sum(p["coalesced"] for __, p in results) == 5
            metrics = await client.get_json("/metrics")
            counters = metrics["telemetry"]["counters"]
            assert counters["evaluations.total"] == 1
            assert counters["coalesce.followers"] == 5
            assert counters.get("admission.shed", 0) == 0
            return None

        run_service(body, max_concurrent=1, queue_limit=0, debug_hold_ms=80.0)


class TestObservabilityEndpoints:
    def test_healthz_metrics_slowlog_dashboard(self):
        async def body(service, host, port, client):
            await client.query("demo", TRIANGLE_ATOMS)
            await client.query("demo", PATH_ATOMS)
            health = await client.get_json("/healthz")
            assert health["status"] == "ok" and health["databases"] == 1
            metrics = await client.get_json("/metrics")
            assert metrics["plan_cache"]["misses"] == 2
            assert metrics["telemetry"]["route_mix"] == {
                "factorized": 1,
                "wcoj": 1,
            }
            summary = metrics["telemetry"]["endpoints"]["query"]
            assert summary["count"] == 2
            assert summary["p99_ms"] >= summary["p50_ms"] >= 0.0
            # slow_ms=0 ⇒ every query lands in the slow log.
            slowlog = await client.get_json("/slowlog")
            assert len(slowlog["slow_queries"]) == 2
            assert {s["route"] for s in slowlog["slow_queries"]} == {
                "factorized",
                "wcoj",
            }
            status, text = await client.request("GET", "/dashboard?format=text")
            assert status == 200
            assert "p99" in text and "route mix" in text and "wcoj" in text
            status, html_doc = await client.request("GET", "/dashboard")
            assert status == 200
            assert "<table>" in html_doc and "p99" in html_doc
            assert "factorized" in html_doc
            return None

        run_service(body, slow_ms=0.0)
