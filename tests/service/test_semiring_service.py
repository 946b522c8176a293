"""The semiring field end to end: keying, caching, invalidation.

The plan cache keys on the requested semiring (two semirings over the
same query never share an entry), repeats hit it and answer the right
aggregate value, and re-registering the database eagerly invalidates
every semiring's entry, so a stale plan can never be replayed.
"""

import asyncio

from repro.relational.query import JoinQuery
from repro.service import QueryService
from repro.service.client import ServiceClient
from repro.service.plan_cache import plan_key

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


def run_service(test_coroutine, **service_kwargs):
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


class TestPlanKeySemiring:
    def test_semiring_distinguishes_keys(self):
        query = JoinQuery.triangle()
        args = (query, query.attributes, "aggregate", "demo", "f1", "columnar")
        keys = {plan_key(*args, semiring=name) for name in (
            None, "boolean", "counting", "minplus", "provenance"
        )}
        assert len(keys) == 5

    def test_semiring_keys_are_stable(self):
        query = JoinQuery.triangle()
        args = (query, query.attributes, "aggregate", "demo", "f1", "columnar")
        assert plan_key(*args, semiring="minplus") == plan_key(
            *args, semiring="minplus"
        )


class TestServiceSemiringCaching:
    def test_per_semiring_cache_entries_and_eager_invalidation(self):
        async def body(service, host, port, client):
            # Distinct plan-cache keys per semiring over the same query.
            payloads = {}
            for name in ("counting", "minplus", "provenance"):
                __, payload = await client.query(
                    "demo", TRIANGLE_ATOMS, mode="aggregate", semiring=name
                )
                assert payload["semiring"] == name
                assert payload["plan_cache"]["hit"] is False
                payloads[name] = payload
            keys = {p["plan_cache"]["key"] for p in payloads.values()}
            assert len(keys) == 3

            # Repeats hit the plan cache and answer the same value.
            __, again = await client.query(
                "demo", TRIANGLE_ATOMS, mode="aggregate", semiring="minplus"
            )
            assert again["plan_cache"]["hit"] is True
            assert again["aggregate"] == payloads["minplus"]["aggregate"]
            assert again["aggregate"]["cost"] == 3.0

            # Re-registration eagerly invalidates every semiring's entry;
            # the answered value reflects the new data, not the old plan.
            await client.register(
                "demo",
                [dict(r, tuples=[[1, 2], [2, 3], [1, 3]]) for r in RELATIONS],
            )
            for name, old in payloads.items():
                __, fresh = await client.query(
                    "demo", TRIANGLE_ATOMS, mode="aggregate", semiring=name
                )
                assert fresh["plan_cache"]["hit"] is False
                assert fresh["plan_cache"]["key"] != old["plan_cache"]["key"]
            __, count = await client.query(
                "demo", TRIANGLE_ATOMS, mode="aggregate", semiring="counting"
            )
            assert count["aggregate"] == 1
            return None

        run_service(body)

    def test_default_semiring_is_counting_and_mix_is_tracked(self):
        async def body(service, host, port, client):
            __, payload = await client.query(
                "demo", TRIANGLE_ATOMS, mode="aggregate"
            )
            assert payload["semiring"] == "counting"
            assert payload["aggregate"] == 1
            await client.query(
                "demo", TRIANGLE_ATOMS, mode="aggregate", semiring="boolean"
            )
            metrics = await client.get_json("/metrics")
            assert metrics["telemetry"]["semiring_mix"] == {
                "boolean": 1,
                "counting": 1,
            }
            return None

        run_service(body)

    def test_semiring_errors_are_400(self):
        async def body(service, host, port, client):
            status, payload = await client.query(
                "demo", TRIANGLE_ATOMS, semiring="counting"
            )
            assert status == 400 and "aggregate" in payload["error"]
            status, payload = await client.query(
                "demo", TRIANGLE_ATOMS, mode="aggregate", semiring="nope"
            )
            assert status == 400 and "unknown semiring" in payload["error"]
            status, payload = await client.query(
                "demo",
                TRIANGLE_ATOMS,
                mode="aggregate",
                free=["a1"],
                semiring="counting",
            )
            assert status == 400 and "projections" in payload["error"]
            return None

        run_service(body)
