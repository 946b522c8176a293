"""Units for the sharded executor: shard math, the worker replica
protocol (driven in-process), and real spawned-pool dispatch."""

import asyncio

import pytest

from repro.errors import ReproError
from repro.relational.query import Atom, JoinQuery
from repro.relational.router import execute_route
from repro.service.executor import (
    _SHARD,
    ShardedExecutor,
    _apply_drop,
    _apply_register,
    _worker_run_query,
    canonical_answers,
    evaluate_core,
    shard_for_fingerprint,
)
from repro.service.plan_cache import PlanCache
from repro.service.store import DatabaseStore, database_from_payload

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


def build_spec(store, name, atoms, mode="enumerate", free=None):
    """The same evaluation spec ``_handle_query`` builds, minus HTTP."""
    query = JoinQuery(
        Atom(a["relation"], tuple(a["attributes"])) for a in atoms
    )
    fingerprint = store.fingerprint(name)
    plan, __ = PlanCache().get_or_build(
        query, free, mode, name, fingerprint, store.backend
    )
    return {
        "atoms": atoms,
        "free": list(plan.free),
        "mode": mode,
        "route": plan.decision.route,
        "reason": plan.decision.reason,
        "database": name,
        "fingerprint": fingerprint,
    }


class TestShardPlacement:
    def test_deterministic_and_in_range(self):
        fingerprints = [f"{value:064x}" for value in (0, 1, 7, 2**63, 2**255)]
        for workers in (1, 2, 4, 7):
            for fingerprint in fingerprints:
                shard = shard_for_fingerprint(fingerprint, workers)
                assert 0 <= shard < workers
                assert shard == shard_for_fingerprint(fingerprint, workers)

    def test_one_worker_owns_everything(self):
        assert shard_for_fingerprint("ab" * 32, 1) == 0

    def test_nonpositive_worker_count_rejected(self):
        with pytest.raises(ReproError):
            shard_for_fingerprint("00" * 32, 0)
        with pytest.raises(ReproError):
            ShardedExecutor(DatabaseStore(), workers=0)


class TestEvaluateCore:
    def test_matches_direct_execution(self):
        store = DatabaseStore()
        store.register("demo", RELATIONS)
        spec = build_spec(store, "demo", TRIANGLE_ATOMS)
        core = evaluate_core(store.get("demo"), spec, track="t1")
        direct = execute_route(
            JoinQuery(
                Atom(a["relation"], tuple(a["attributes"]))
                for a in TRIANGLE_ATOMS
            ),
            database_from_payload(RELATIONS),
        )
        assert core["route"] == direct.decision.route == spec["route"]
        assert core["ops"] == direct.ops
        assert core["answers"] == canonical_answers(direct.relation.tuples)
        assert core["metrics"]["counters"]["route.wcoj"] == 1
        assert core["spans"]

    def test_count_and_boolean_modes_fill_their_fields(self):
        store = DatabaseStore()
        store.register("demo", RELATIONS)
        count_core = evaluate_core(
            store.get("demo"),
            build_spec(store, "demo", TRIANGLE_ATOMS, mode="count"),
            track="t2",
        )
        bool_core = evaluate_core(
            store.get("demo"),
            build_spec(store, "demo", TRIANGLE_ATOMS, mode="boolean"),
            track="t3",
        )
        assert isinstance(count_core["count"], int)
        assert "answers" not in count_core
        assert bool_core["nonempty"] is True


class TestWorkerProtocolInProcess:
    """Drive the worker-side functions directly — no pool needed to
    cover the replica/staleness state machine."""

    def teardown_method(self):
        _SHARD.databases.clear()

    def test_register_query_and_drop_cycle(self):
        store = DatabaseStore()
        store.register("demo", RELATIONS)
        # dispatch() stamps the worker track onto the spec it ships.
        spec = dict(build_spec(store, "demo", TRIANGLE_ATOMS), track="r1@w0")
        payload = store.canonical_payload("demo")
        assert _apply_register("demo", payload, spec["fingerprint"], "columnar") == (
            spec["fingerprint"]
        )
        result = _worker_run_query(spec)
        assert "stale" not in result
        assert result["route"] == spec["route"]
        assert result["answers"] == evaluate_core(
            store.get("demo"), spec, track="x"
        )["answers"]
        assert _apply_drop("demo") is True
        assert _apply_drop("demo") is False

    def test_missing_or_mismatched_replica_reports_stale(self):
        store = DatabaseStore()
        store.register("demo", RELATIONS)
        spec = dict(build_spec(store, "demo", TRIANGLE_ATOMS), track="r2@w0")
        assert _worker_run_query(spec) == {"stale": True}
        _apply_register(
            "demo", store.canonical_payload("demo"), "0" * 64, "columnar"
        )
        assert _worker_run_query(spec) == {"stale": True}


class TestShardedDispatch:
    """One spawned-pool lifecycle test: start, replicate, dispatch,
    re-register (fingerprint change), shutdown."""

    def test_dispatch_lifecycle(self):
        async def main():
            store = DatabaseStore()
            store.register("demo", RELATIONS)
            executor = ShardedExecutor(store, workers=2)
            spec = build_spec(store, "demo", TRIANGLE_ATOMS)
            # Not started: dispatch degrades to None (inline fallback).
            assert executor.started is False
            assert await executor.dispatch(spec, "r0") is None
            await executor.start()
            try:
                assert executor.started is True
                owner = executor.shard_for(spec["fingerprint"])
                payload = executor.to_payload()
                assert payload["shards"][str(owner)]["databases"] == ["demo"]

                inline = evaluate_core(store.get("demo"), spec, track="r1")
                core = await executor.dispatch(spec, "r1")
                assert core is not None
                assert core["shard"] == owner
                assert core["answers"] == inline["answers"]
                assert core["ops"] == inline["ops"]

                # Re-registration changes the fingerprint; a spec built
                # against the new content replicates on demand and the
                # old assignment is replaced.
                store.register(
                    "demo", [dict(r, tuples=EDGES + [[9, 9]]) for r in RELATIONS]
                )
                fresh = build_spec(store, "demo", TRIANGLE_ATOMS)
                assert fresh["fingerprint"] != spec["fingerprint"]
                fresh_core = await executor.dispatch(fresh, "r2")
                assert fresh_core is not None
                assert fresh_core["answers"] != core["answers"]
                new_owner = executor.shard_for(fresh["fingerprint"])
                payload = executor.to_payload()
                owners = [
                    shard
                    for shard, view in payload["shards"].items()
                    if view["databases"]
                ]
                assert owners == [str(new_owner)]

                counters = executor.registry.to_payload()["counters"]
                assert counters["executor.dispatched"] == 2
                assert counters["executor.replications"] >= 2
            finally:
                executor.shutdown()
            assert executor.started is False
            # After shutdown dispatch is a clean inline fallback again.
            assert await executor.dispatch(spec, "r3") is None

        asyncio.run(main())
