"""End-to-end `/solve`: CSP workloads through the service envelope."""

import asyncio

from repro.service import QueryService
from repro.service.client import ServiceClient

#: x≠y over {0,1} as an allowed-tuples constraint.
NEQ = [[0, 1], [1, 0]]

#: 2-colorable path x—y—z.
PATH_CONSTRAINTS = [
    {"scope": ["x", "y"], "allowed": NEQ},
    {"scope": ["y", "z"], "allowed": NEQ},
]

#: Odd cycle x—y—z—x: not 2-colorable.
TRIANGLE_CONSTRAINTS = PATH_CONSTRAINTS + [
    {"scope": ["z", "x"], "allowed": NEQ},
]


def run_service(test_coroutine, **service_kwargs):
    async def main():
        service = QueryService(**service_kwargs)
        host, port = await service.start()
        try:
            async with ServiceClient(host, port) as client:
                return await test_coroutine(service, client)
        finally:
            await service.stop()

    return asyncio.run(main())


class TestSolveEndpoint:
    def test_satisfiable_instance_returns_a_checked_assignment(self):
        async def body(service, client):
            status, payload = await client.solve([0, 1], PATH_CONSTRAINTS)
            assert status == 200
            assert payload["satisfiable"] is True
            assert payload["method"] == "auto"
            assert payload["variables"] == ["x", "y", "z"]
            assert payload["ops"] > 0
            assignment = dict(
                (var, value) for var, value in payload["assignment"]
            )
            assert set(assignment) == {"x", "y", "z"}
            assert assignment["x"] != assignment["y"]
            assert assignment["y"] != assignment["z"]
            return None

        run_service(body)

    def test_unsatisfiable_instance_and_explicit_method(self):
        async def body(service, client):
            status, payload = await client.solve(
                [0, 1], TRIANGLE_CONSTRAINTS, method="backtracking"
            )
            assert status == 200
            assert payload["satisfiable"] is False
            assert payload["assignment"] is None
            assert payload["method"] == "backtracking"
            return None

        run_service(body)

    def test_explicit_variable_order_is_respected(self):
        async def body(service, client):
            status, payload = await client.solve(
                [0, 1], PATH_CONSTRAINTS, variables=["z", "y", "x"]
            )
            assert status == 200
            assert payload["variables"] == ["z", "y", "x"]
            return None

        run_service(body)

    def test_bad_requests_are_400(self):
        async def body(service, client):
            status, payload = await client.solve(
                [0, 1], PATH_CONSTRAINTS, method="oracle"
            )
            assert status == 400 and "oracle" in payload["error"]
            status, payload = await client.request(
                "POST", "/solve", {"domain": [0, 1]}
            )
            assert status == 400 and "constraints" in payload["error"]
            status, payload = await client.request(
                "POST", "/solve", {"constraints": PATH_CONSTRAINTS}
            )
            assert status == 400 and "domain" in payload["error"]
            return None

        run_service(body)

    def test_string_scope_is_400(self):
        async def body(service, client):
            status, payload = await client.solve(
                [0, 1], [{"scope": "xy", "allowed": NEQ}]
            )
            assert status == 400 and "'scope'" in payload["error"]
            return None

        run_service(body)

    def test_string_allowed_rows_are_400(self):
        async def body(service, client):
            for allowed in ("01", ["01", "10"]):
                status, payload = await client.solve(
                    ["0", "1"], [{"scope": ["x", "y"], "allowed": allowed}]
                )
                assert status == 400 and "'allowed'" in payload["error"]
            return None

        run_service(body)

    def test_solve_shares_admission_and_observability(self):
        async def body(service, client):
            await client.solve([0, 1], PATH_CONSTRAINTS)
            await client.solve([0, 1], TRIANGLE_CONSTRAINTS, method="sat")
            metrics = await client.get_json("/metrics")
            route_mix = metrics["telemetry"]["route_mix"]
            assert route_mix.get("csp-auto") == 1
            assert route_mix.get("csp-sat") == 1
            summary = metrics["telemetry"]["endpoints"]["solve"]
            assert summary["count"] == 2
            # slow_ms=0 ⇒ solves land in the slow log like queries do.
            slowlog = await client.get_json("/slowlog")
            routes = {s["route"] for s in slowlog["slow_queries"]}
            assert {"csp-auto", "csp-sat"} <= routes
            return None

        run_service(body, slow_ms=0.0)
