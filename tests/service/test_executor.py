"""Units for the sharded executor: shard math, the worker replica
protocol (driven in-process), and real dispatch to spawned workers over
their sockets: ordering, large frames, cancellation and respawn."""

import asyncio
import json
import os
import signal
import threading
import time

import pytest

from repro.errors import ReproError
from repro.relational.kernels import CodedRelation
from repro.relational.query import Atom, JoinQuery
from repro.relational.router import execute_route
from repro.service import QueryService
from repro.service.client import ServiceClient
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
from repro.service.http import HttpRequest, json_response_bytes
from repro.service.plan_cache import PlanCache
from repro.service.server import strip_volatile
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
        # The core carries the answers as the JSON text the response
        # splices in.
        assert json.loads(core["answers"]) == canonical_answers(direct.relation.tuples)
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


PATH_ATOMS = [
    {"relation": "R1", "attributes": ["a1", "a2"]},
    {"relation": "R3", "attributes": ["a2", "a3"]},
]


class TestCodedAnswers:
    """On the columnar backend evaluate_core writes the answers from
    their interned codes: it decodes no answer, and the response
    splices its text in where the sorted-key encoder puts ``answers``.
    The factorized build decodes nothing at all: it counts its reduced
    projections' keys from their views and buckets them only for a
    reader that walks tuples."""

    @pytest.mark.parametrize(
        "atoms, free, route",
        [
            (PATH_ATOMS, None, "factorized"),
            (PATH_ATOMS, ["a1", "a3"], "yannakakis"),
            (TRIANGLE_ATOMS, None, "wcoj"),
        ],
    )
    def test_evaluate_core_decodes_no_answer(self, monkeypatch, atoms, free, route):
        store = DatabaseStore()
        store.register("demo", RELATIONS)
        spec = build_spec(store, "demo", atoms, free=free)
        assert spec["route"] == route
        query = JoinQuery(Atom(a["relation"], tuple(a["attributes"])) for a in atoms)
        direct = execute_route(query, database_from_payload(RELATIONS), free=free)
        expected = canonical_answers(direct.relation.tuples)

        decode = CodedRelation._decode

        def refuse(relation):
            assert relation.name != "answer", f"decoded {relation!r}"
            assert route != "factorized", f"decoded {relation!r}"
            return decode(relation)

        monkeypatch.setattr(CodedRelation, "_decode", refuse)
        core = evaluate_core(store.get("demo"), spec, track="t")
        assert json.loads(core["answers"]) == expected
        assert core["answers"] == json.dumps(expected)

    def test_spliced_body_equals_encoding_the_lists(self):
        store = DatabaseStore()
        store.register("demo", RELATIONS)
        core = evaluate_core(
            store.get("demo"), build_spec(store, "demo", PATH_ATOMS), track="t"
        )
        envelope = {"request_id": "r000001", "ops": core["ops"], "metrics": core["metrics"]}
        spliced = json_response_bytes(200, envelope, answers=core["answers"])
        whole = dict(envelope, answers=json.loads(core["answers"]))
        assert spliced == json_response_bytes(200, whole)
        assert json_response_bytes(200, {}, answers="[]") == json_response_bytes(
            200, {"answers": []}
        )


class TestWorkerProtocolInProcess:
    """Drive the worker-side functions directly — no worker needed to
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
        assert json.loads(result["answers"]) == json.loads(
            evaluate_core(store.get("demo"), spec, track="x")["answers"]
        )
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
    """One spawned-worker lifecycle test: start, replicate, dispatch,
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
                # The worker ships the answers as their JSON text, one
                # string, not a pickled list of lists.
                assert isinstance(core["answers"], str)
                assert core["answers"] == inline["answers"]
                assert json.loads(core["answers"]) == json.loads(inline["answers"])
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
                assert json.loads(fresh_core["answers"]) != json.loads(core["answers"])
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
                processes = [worker.process for worker in executor._workers]
                executor.shutdown()
            assert executor.started is False
            # After shutdown dispatch is a clean inline fallback again.
            assert await executor.dispatch(spec, "r3") is None
            # Closing a worker's socket ends it.
            for process in processes:
                process.join(timeout=10)
                assert not process.is_alive()

        asyncio.run(main())


def run_with_executor(body, store: DatabaseStore, workers: int = 2):
    """Start an executor over ``store``, run ``body(executor)``, shut it
    down; the whole run times out after 120 s."""

    async def main():
        executor = ShardedExecutor(store, workers=workers)
        await executor.start()
        try:
            return await body(executor)
        finally:
            executor.shutdown()
            await executor.wait_closed()

    async def bounded():
        return await asyncio.wait_for(main(), timeout=120)

    return asyncio.run(bounded())


def comparable(core: dict) -> dict:
    """The fields of a core that do not depend on where it ran."""
    return {
        key: core[key]
        for key in ("route", "reason", "ops", "answers", "count", "nonempty")
        if key in core
    }


class TestSocketTransport:
    def test_start_adds_no_thread(self):
        store = DatabaseStore()
        store.register("demo", RELATIONS)

        async def main():
            executor = ShardedExecutor(store, workers=2)
            before = threading.active_count()
            await executor.start()
            try:
                return before, threading.active_count()
            finally:
                executor.shutdown()

        before, after = asyncio.run(main())
        assert after == before

    def test_megabyte_replication_and_answer_round_trip_intact(self):
        rows = [[i, f"{i:06d}" + "x" * 1000] for i in range(1100)]
        store = DatabaseStore()
        store.register(
            "big", [{"name": "R", "attributes": ["a", "b"], "tuples": rows}]
        )
        assert len(json.dumps(store.canonical_payload("big"))) >= 2**20
        spec = build_spec(store, "big", [{"relation": "R", "attributes": ["a", "b"]}])

        async def body(executor):
            return await executor.dispatch(spec, "r1")

        core = run_with_executor(body, store)
        assert core is not None
        assert len(core["answers"]) >= 2**20
        inline = evaluate_core(store.get("big"), spec, track="r1")
        assert core["answers"] == inline["answers"]
        assert json.loads(core["answers"]) == canonical_answers(map(tuple, rows))

    def test_concurrent_dispatches_each_get_their_own_result(self):
        store = DatabaseStore()
        for k in range(8):
            store.register(
                f"d{k}", [dict(r, tuples=EDGES + [[10 + k, 1]]) for r in RELATIONS]
            )
        specs = [
            build_spec(store, name, atoms, mode=mode)
            for name in store.names()
            for atoms in (TRIANGLE_ATOMS, PATH_ATOMS)
            for mode in ("enumerate", "count")
        ] * 2
        assert len(specs) == 64
        assert {shard_for_fingerprint(s["fingerprint"], 2) for s in specs} == {0, 1}

        async def body(executor):
            return await asyncio.gather(
                *(executor.dispatch(spec, f"r{i}") for i, spec in enumerate(specs))
            )

        cores = run_with_executor(body, store)
        for i, (spec, core) in enumerate(zip(specs, cores)):
            inline = evaluate_core(store.get(spec["database"]), spec, track=f"r{i}")
            assert core is not None
            assert comparable(core) == comparable(inline), i

    def test_a_cancelled_waiter_does_not_shift_the_next_reply(self):
        store = DatabaseStore()
        store.register("demo", RELATIONS)
        enumerate_spec = build_spec(store, "demo", TRIANGLE_ATOMS)
        count_spec = build_spec(store, "demo", PATH_ATOMS, mode="count")
        shard = shard_for_fingerprint(enumerate_spec["fingerprint"], 2)

        async def body(executor):
            worker = executor._workers[shard]
            task = asyncio.ensure_future(executor.dispatch(enumerate_spec, "r1"))
            for _ in range(1000):
                if worker._pending:
                    break
                await asyncio.sleep(0)
            assert worker._pending, "the first call was never sent"
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            core = await executor.dispatch(count_spec, "r2")
            return core, len(worker._pending), executor.registry.to_payload()

        core, pending, metrics = run_with_executor(body, store)
        inline = evaluate_core(store.get("demo"), count_spec, track="r2")
        assert comparable(core) == comparable(inline)
        assert "answers" not in core
        assert pending == 0
        assert "executor.errors" not in metrics["counters"]


class TestRespawn:
    def test_a_killed_worker_is_respawned_and_its_queries_answer(self):
        """SIGKILL the worker that owns ``demo``: every query to it still
        answers 200 with the inline body, the next dispatch spawns a
        fresh worker that the stale path re-replicates, and ``stop()``
        leaves no process."""
        query = {"database": "demo", "atoms": TRIANGLE_ATOMS, "mode": "count"}

        async def answers(client, count):
            bodies = []
            for _ in range(count):
                status, payload = await client.request("POST", "/query", query)
                assert status == 200, payload
                bodies.append(strip_volatile(payload))
            return bodies

        async def main():
            inline = QueryService(workers=0)
            host, port = await inline.start()
            try:
                async with ServiceClient(host, port) as client:
                    await client.register("demo", RELATIONS)
                    [expected] = await answers(client, 1)
            finally:
                await inline.stop()

            service = QueryService(workers=2)
            host, port = await service.start()
            counters = service.telemetry.registry.counter_value
            try:
                async with ServiceClient(host, port) as client:
                    await client.register("demo", RELATIONS)
                    assert await answers(client, 1) == [expected]
                    executor = service.executor
                    shard = executor.shard_for(service.store.fingerprint("demo"))
                    victim = executor._workers[shard].process
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join(timeout=10)
                    assert not victim.is_alive()
                    dispatched = counters("executor.dispatched")
                    assert await answers(client, 3) == [expected] * 3
                    assert counters("executor.dispatched") >= dispatched + 2
                    assert counters("executor.restarts") == 1
                    assert counters("executor.errors") <= 1
                    processes = [worker.process for worker in executor._workers]
                    assert victim not in processes
            finally:
                await service.stop()
            return processes

        async def bounded():
            return await asyncio.wait_for(main(), timeout=120)

        for process in asyncio.run(bounded()):
            process.join(timeout=10)
            assert not process.is_alive()

    def test_a_registration_racing_the_workers_death_answers(self):
        """SIGKILL both workers and register new content before their
        readers see EOF: the registration answers 200 with the new
        fingerprint, and the next query answers the new content from a
        respawned worker."""
        fresh = [dict(r, tuples=EDGES + [[3, 1], [4, 2]]) for r in RELATIONS]
        query = {"database": "demo", "atoms": TRIANGLE_ATOMS, "mode": "count"}
        expected = DatabaseStore()
        fingerprint = expected.register("demo", fresh)
        spec = build_spec(expected, "demo", TRIANGLE_ATOMS, mode="count")
        count = evaluate_core(expected.get("demo"), spec, track="x")["count"]

        async def main():
            service = QueryService(workers=2)
            await service.ensure_executor()
            executor = service.executor
            try:
                status, __ = await call(
                    service, "POST", "/databases", {"name": "demo", "relations": RELATIONS}
                )
                assert status == 200
                victims = [worker.process for worker in executor._workers]
                for victim in victims:
                    os.kill(victim.pid, signal.SIGKILL)
                # Without yielding to the loop: the readers see no EOF yet.
                time.sleep(0.05)
                status, registered = await call(
                    service, "POST", "/databases", {"name": "demo", "relations": fresh}
                )
                assert status == 200, registered
                assert registered["fingerprint"] == fingerprint
                while any(worker.alive for worker in executor._workers):
                    await asyncio.sleep(0.01)
                status, answered = await call(service, "POST", "/query", query)
                assert status == 200, answered
                record = service.telemetry.request(answered["request_id"])
                return answered, record, executor.registry.counter_value, victims
            finally:
                await service.stop()

        answered, record, counter, victims = asyncio.run(asyncio.wait_for(main(), 120))
        assert answered["count"] == count
        assert answered["fingerprint"] == fingerprint
        assert record.source == "worker"
        assert counter("executor.restarts") == 1
        # The registration's EOF healed through the stale path: no call
        # fell back inline, so nothing counts as an error.
        assert counter("executor.errors") == 0
        assert counter("executor.inline_fallbacks") == 0
        for victim in victims:
            victim.join(timeout=10)
            assert not victim.is_alive()

    def test_one_worker_death_counts_one_error(self):
        """An EOF that fails a replication frame and the query queued
        behind it counts ``executor.errors`` once, for the query that
        fell back inline, and the next dispatch re-replicates."""
        store = DatabaseStore()
        store.register("demo", RELATIONS)
        shard = shard_for_fingerprint(store.fingerprint("demo"), 2)
        fresh = content_on_shard(shard)
        spec, inline = expected_count(fresh)

        async def body(executor):
            await replicas_built(executor)
            victim = executor._workers[shard].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)  # without yielding: no EOF seen yet
            store.register("demo", fresh)
            await executor.replicate("demo", fresh)
            fallback = await executor.dispatch(spec, "r1")
            assigned = "demo" in executor._assignments
            core = await executor.dispatch(spec, "r2")
            return fallback, assigned, core, executor.registry.counter_value

        fallback, assigned, core, counter = run_with_executor(body, store)
        assert fallback is None
        assert not assigned
        assert comparable(core) == comparable(inline)
        assert counter("executor.errors") == 1
        assert counter("executor.restarts") == 1

    def test_a_failed_drop_keeps_the_new_owners_replica(self):
        """New content that moves a database to the other shard while its
        previous owner is dead: the drop sent to the dead owner fails,
        and the new owner's replica stays assigned and answers with no
        second replication and no error."""
        store = DatabaseStore()
        store.register("demo", RELATIONS)
        previous = shard_for_fingerprint(store.fingerprint("demo"), 2)
        fresh = content_on_shard(1 - previous)
        spec, inline = expected_count(fresh)

        async def body(executor):
            assert executor._assignments["demo"][1] == previous
            await replicas_built(executor)
            owner = executor._workers[previous]
            os.kill(owner.process.pid, signal.SIGKILL)
            owner.process.join(timeout=10)  # without yielding: no EOF seen yet
            store.register("demo", fresh)
            await executor.replicate("demo", fresh)
            assert len(owner._pending) == 1, "no drop was sent"
            while owner.alive:
                await asyncio.sleep(0.01)
            replications = executor.registry.counter_value("executor.replications")
            core = await executor.dispatch(spec, "r1")
            return core, replications, executor.registry.counter_value

        core, replications, counter = run_with_executor(body, store)
        assert comparable(core) == comparable(inline)
        assert core["shard"] == 1 - previous
        assert counter("executor.replications") == replications
        assert counter("executor.errors") == 0
        assert counter("executor.restarts") == 0

    def test_healthz_reports_each_shard(self):
        """``/healthz`` shows a shard dead once its reader saw its worker
        exit, and alive with one restart after the next dispatch to it.
        """
        query = {"database": "demo", "atoms": TRIANGLE_ATOMS, "mode": "count"}

        async def main():
            service = QueryService(workers=2)
            await service.ensure_executor()
            executor = service.executor
            try:
                await call(
                    service, "POST", "/databases", {"name": "demo", "relations": RELATIONS}
                )
                views = [(await call(service, "GET", "/healthz"))[1]["shards"]]
                shard = executor.shard_for(service.store.fingerprint("demo"))
                victim = executor._workers[shard]
                os.kill(victim.process.pid, signal.SIGKILL)
                while victim.alive:
                    await asyncio.sleep(0.01)
                views.append((await call(service, "GET", "/healthz"))[1]["shards"])
                status, __ = await call(service, "POST", "/query", query)
                assert status == 200
                views.append((await call(service, "GET", "/healthz"))[1]["shards"])
                return shard, views
            finally:
                await service.stop()

        shard, (before, dead, respawned) = asyncio.run(asyncio.wait_for(main(), 120))
        other = str(1 - shard)
        shard = str(shard)
        assert before == {
            "0": {"alive": True, "restarts": 0},
            "1": {"alive": True, "restarts": 0},
        }
        assert dead[shard] == {"alive": False, "restarts": 0}
        assert respawned[shard] == {"alive": True, "restarts": 1}
        assert dead[other] == respawned[other] == before[other]


async def replicas_built(executor) -> None:
    """Wait until every worker has answered every call sent to it: the
    replications ``start()`` sent are not awaited."""
    while any(worker._pending for worker in executor._workers):
        await asyncio.sleep(0.01)


def expected_count(relations: list[dict]) -> tuple[dict, dict]:
    """The triangle-count spec over ``relations`` registered as ``demo``,
    and its inline core."""
    store = DatabaseStore()
    store.register("demo", relations)
    spec = build_spec(store, "demo", TRIANGLE_ATOMS, mode="count")
    return spec, evaluate_core(store.get("demo"), spec, track="r1")


def content_on_shard(shard: int) -> list[dict]:
    """A variant of ``RELATIONS`` with one more edge whose fingerprint
    two workers place on ``shard``."""
    for extra in range(5, 100):
        relations = [dict(r, tuples=EDGES + [[extra, 1]]) for r in RELATIONS]
        store = DatabaseStore()
        if shard_for_fingerprint(store.register("demo", relations), 2) == shard:
            return relations
    raise AssertionError(f"no variant lands on shard {shard}")


async def call(service, method: str, path: str, payload=None):
    """One socketless request; returns (status, parsed JSON body)."""
    body = b"" if payload is None else json.dumps(payload).encode()
    data = await service.dispatch(HttpRequest(method=method, path=path, body=body))
    head, __, response_body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(response_body)
