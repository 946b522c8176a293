"""End-to-end `/solve`: CSP workloads through the service envelope."""

import asyncio

from repro.service import QueryService
from repro.service.client import ServiceClient
from repro.service.server import csp_from_payload

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


#: x≠y over three colours.
NEQ3 = [[a, b] for a in range(3) for b in range(3) if a != b]


def path_colouring(n: int) -> list[dict]:
    """3-colouring of the path x0—x1—…—x(n-1): primal treewidth 1."""
    return [{"scope": [f"x{i}", f"x{i + 1}"], "allowed": NEQ3} for i in range(n - 1)]


def ladder_colouring(rungs: int) -> list[dict]:
    """3-colouring of the 2×rungs ladder: primal treewidth 2."""
    constraints = [
        {"scope": [f"a{i}", f"b{i}"], "allowed": NEQ3} for i in range(rungs)
    ]
    for rail in "ab":
        constraints += [
            {"scope": [f"{rail}{i}", f"{rail}{i + 1}"], "allowed": NEQ3}
            for i in range(rungs - 1)
        ]
    return constraints


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
            # A set would merge repeats: true equals 1, so x = true
            # would answer a value the client never allowed.
            status, payload = await client.request(
                "POST",
                "/solve",
                {
                    "domain": [True, 1, 0],
                    "constraints": [{"scope": ["x"], "allowed": [[1]]}],
                },
            )
            assert (status, payload["error"]) == (
                400, "solve 'domain' repeats the value 1"
            )
            status, payload = await client.solve([0, 0, 1], PATH_CONSTRAINTS)
            assert (status, payload["error"]) == (
                400, "solve 'domain' repeats the value 0"
            )
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


class TestDeepInstances:
    def test_long_paths_and_ladders_answer_with_a_solution(self):
        """Decomposition, DP and traceback hold no frame per tree level,
        so a long path or ladder answers instead of a RecursionError."""
        cases = [
            (path_colouring(600), "auto"),
            (path_colouring(600), "treewidth"),
            (path_colouring(2000), "auto"),
            (path_colouring(2000), "treewidth"),
            (ladder_colouring(300), "auto"),
        ]

        async def body(service, client):
            for constraints, method in cases:
                status, payload = await client.solve(
                    [0, 1, 2], constraints, method=method
                )
                assert status == 200 and payload["satisfiable"] is True
                instance = csp_from_payload(
                    {"domain": [0, 1, 2], "constraints": constraints}
                )
                assignment = {var: value for var, value in payload["assignment"]}
                assert instance.is_solution(assignment)
            return None

        run_service(body)

    def test_backtracking_keeps_its_own_stack(self):
        """Backtracking holds no frame per assigned variable: a
        1,200-variable path answers instead of a RecursionError."""
        constraints = path_colouring(1200)

        async def body(service, client):
            return await client.solve([0, 1, 2], constraints, method="backtracking")

        status, payload = run_service(body)
        assert status == 200 and payload["satisfiable"] is True, payload
        instance = csp_from_payload({"domain": [0, 1, 2], "constraints": constraints})
        assignment = {var: value for var, value in payload["assignment"]}
        assert instance.is_solution(assignment)
