"""Plan-cache keying: hits on repeats, invalidation on content change,
each lookup counted once on the service registry; structure is derived
once per miss and never on a hit."""

import asyncio
import json
import sys

import pytest

from repro.errors import InvalidInstanceError
from repro.generators.agm import uniform_random_database
from repro.hypergraph import acyclicity
from repro.observability.metrics import MetricsRegistry
from repro.relational.query import JoinQuery
from repro.relational.router import run_route
from repro.relational.semiring import get_semiring
from repro.service import QueryService
from repro.service.executor import evaluate_core
from repro.service.http import HttpRequest
from repro.service.plan_cache import PlanCache, plan_key
from repro.treewidth import heuristics


TRIANGLE = JoinQuery.triangle()
PATH = JoinQuery.path(3)
CYCLE5 = JoinQuery.cycle(5)


class TestPlanCache:
    def test_repeat_lookup_hits(self):
        cache = PlanCache(capacity=8)
        plan, hit = cache.get_or_build(
            TRIANGLE, None, "enumerate", "demo", "f1", "columnar"
        )
        assert not hit
        again, hit = cache.get_or_build(
            TRIANGLE, None, "enumerate", "demo", "f1", "columnar"
        )
        assert hit
        assert again is plan
        assert cache.to_payload()["hit_ratio"] == 0.5

    def test_fingerprint_change_misses(self):
        cache = PlanCache(capacity=8)
        cache.get_or_build(TRIANGLE, None, "enumerate", "demo", "f1", "columnar")
        __, hit = cache.get_or_build(
            TRIANGLE, None, "enumerate", "demo", "f2", "columnar"
        )
        assert not hit
        assert cache.to_payload()["misses"] == 2

    def test_mode_free_and_backend_all_key(self):
        cache = PlanCache(capacity=16)
        cache.get_or_build(PATH, None, "enumerate", "demo", "f1", "columnar")
        variants = [
            (PATH, None, "boolean", "demo", "f1", "columnar"),
            (PATH, ("a1",), "enumerate", "demo", "f1", "columnar"),
            (PATH, None, "enumerate", "demo", "f1", "naive"),
            (PATH, None, "enumerate", "other", "f1", "columnar"),
        ]
        for args in variants:
            __, hit = cache.get_or_build(*args)
            assert not hit
        payload = cache.to_payload()
        assert payload["misses"] == 1 + len(variants)
        assert payload["hits"] == 0

    def test_eviction_counts_and_respects_capacity(self):
        registry = MetricsRegistry()
        cache = PlanCache(capacity=2, registry=registry)
        for fingerprint in ("f1", "f2", "f3"):
            cache.get_or_build(
                TRIANGLE, None, "enumerate", "demo", fingerprint, "columnar"
            )
        assert len(cache) == 2
        # One count, two views: the cache's payload reads the registry.
        assert cache.to_payload()["evictions"] == 1
        assert registry.counter_value("plan_cache.evictions") == 1
        # The oldest entry is the evicted one.
        __, hit = cache.get_or_build(
            TRIANGLE, None, "enumerate", "demo", "f1", "columnar"
        )
        assert not hit

    def test_lru_touch_on_hit(self):
        cache = PlanCache(capacity=2)
        cache.get_or_build(TRIANGLE, None, "enumerate", "demo", "f1", "columnar")
        cache.get_or_build(TRIANGLE, None, "enumerate", "demo", "f2", "columnar")
        cache.get_or_build(TRIANGLE, None, "enumerate", "demo", "f1", "columnar")
        cache.get_or_build(TRIANGLE, None, "enumerate", "demo", "f3", "columnar")
        # f2 was least recently used and must be the evicted entry.
        __, hit = cache.get_or_build(
            TRIANGLE, None, "enumerate", "demo", "f1", "columnar"
        )
        assert hit

    def test_invalidate_database_drops_only_its_plans(self):
        cache = PlanCache(capacity=8)
        cache.get_or_build(TRIANGLE, None, "enumerate", "demo", "f1", "columnar")
        cache.get_or_build(PATH, None, "enumerate", "demo", "f1", "columnar")
        cache.get_or_build(PATH, None, "enumerate", "other", "f1", "columnar")
        assert cache.invalidate_database("demo") == 2
        assert len(cache) == 1

    def test_invalidate_database_counts_and_keeps_the_rest(self):
        cache = PlanCache(capacity=8)
        entries = [
            (query, name)
            for query in (TRIANGLE, PATH)
            for name in ("demo", "other")
        ]
        for query, name in entries:
            cache.get_or_build(query, None, "enumerate", name, "f1", "columnar")
        assert cache.invalidate_database("other") == 2
        assert cache.invalidate_database("other") == 0
        # Survivors stay reachable; the dropped plans are rebuilt.
        for query, name in entries:
            __, hit = cache.get_or_build(
                query, None, "enumerate", name, "f1", "columnar"
            )
            assert hit == (name == "demo")

    def test_invalid_instances_raise_and_are_not_cached(self):
        cache = PlanCache(capacity=8)
        with pytest.raises(InvalidInstanceError):
            cache.get_or_build(
                TRIANGLE, ("a1",), "count", "demo", "f1", "columnar"
            )
        assert len(cache) == 0
        assert cache.to_payload()["misses"] == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(InvalidInstanceError):
            PlanCache(capacity=0)

    def test_service_rejects_a_nonpositive_plan_cache(self):
        for capacity in (0, -1):
            with pytest.raises(InvalidInstanceError):
                QueryService(plan_cache_capacity=capacity)

    def test_service_metrics_count_each_event_once(self):
        """``/metrics`` shows plan-cache events twice — the ``plan_cache``
        section and the registry counters — and both read one count."""
        service = QueryService(plan_cache_capacity=1)
        edges = [[1, 2], [2, 3], [3, 1]]
        service.store.register(
            "demo",
            [
                {"name": atom.relation_name, "attributes": ["x", "y"], "tuples": edges}
                for atom in TRIANGLE.atoms
            ],
        )
        atoms = [
            {"relation": atom.relation_name, "attributes": list(atom.attributes)}
            for atom in TRIANGLE.atoms
        ]

        async def run():
            for mode in ("count", "count", "boolean"):  # miss, hit, evicting miss
                body = json.dumps({"database": "demo", "atoms": atoms, "mode": mode})
                data = await service.dispatch(
                    HttpRequest("POST", "/query", body=body.encode())
                )
                assert data.startswith(b"HTTP/1.1 200")
            return service.metrics_payload()

        metrics = asyncio.run(run())
        counters = metrics["telemetry"]["counters"]
        section = metrics["plan_cache"]
        assert (section["hits"], section["misses"], section["evictions"]) == (1, 2, 1)
        assert (
            counters["plan_cache.hits"],
            counters["plan_cache.misses"],
            counters["plan_cache.evictions"],
        ) == (1, 2, 1)
        assert sorted(section) == [
            "capacity", "evictions", "hit_ratio", "hits", "misses", "size"
        ]

    def test_plan_key_is_stable_and_content_addressed(self):
        key_a = plan_key(TRIANGLE, TRIANGLE.attributes, "enumerate", "d", "f", "columnar")
        key_b = plan_key(TRIANGLE, TRIANGLE.attributes, "enumerate", "d", "f", "columnar")
        key_c = plan_key(TRIANGLE, TRIANGLE.attributes, "enumerate", "d", "g", "columnar")
        assert key_a == key_b
        assert key_a != key_c
        assert len(key_a) == 64


def count_calls(target, fn, *args, **kwargs):
    """``(calls of target, result)`` of one call of ``fn``: every call of
    the function ``target``, however its caller imported it."""
    code = target.__code__
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return calls, result


def count_passes(fn, *args, **kwargs):
    """``(GYO passes run, result)`` of one call: every call of
    :func:`repro.hypergraph.acyclicity.gyo`."""
    return count_calls(acyclicity.gyo, fn, *args, **kwargs)


def count_orders(fn, *args, **kwargs):
    """``(min-fill orders computed, result)`` of one call."""
    return count_calls(heuristics.min_fill_order, fn, *args, **kwargs)


class TestStructurePasses:
    """One GYO pass per hypergraph a route needs on a miss; none after."""

    @pytest.mark.parametrize(
        "query, free, mode, route, passes",
        [
            (PATH, None, "enumerate", "factorized", 1),
            (PATH, ("a0", "a1"), "enumerate", "factorized", 3),
            (PATH, ("a0", "a3"), "enumerate", "yannakakis", 2),
            (PATH, None, "count", "yannakakis", 1),
            (PATH, ("a1",), "boolean", "yannakakis", 1),
            (TRIANGLE, None, "enumerate", "wcoj", 1),
            (TRIANGLE, ("a1",), "enumerate", "wcoj", 1),
            (TRIANGLE, None, "aggregate", "wcoj", 1),
            (CYCLE5, None, "count", "wcoj", 1),
            (CYCLE5, None, "aggregate", "wcoj", 1),
        ],
    )
    def test_miss_runs_one_pass_per_hypergraph_and_hits_run_none(
        self, query, free, mode, route, passes
    ):
        cache = PlanCache(capacity=8)
        semiring = "counting" if mode == "aggregate" else None
        key = (query, free, mode, "demo", "f1", "columnar", semiring)
        calls, (plan, hit) = count_passes(cache.get_or_build, *key)
        assert (plan.decision.route, hit, calls) == (route, False, passes)
        calls, (again, hit) = count_passes(cache.get_or_build, *key)
        assert (again is plan, hit, calls) == (True, True, 0)

        database = uniform_random_database(query, 12, 4, seed=3)
        calls, __ = count_passes(
            run_route,
            query,
            database,
            plan.decision,
            free=plan.free,
            semiring=get_semiring(semiring) if semiring else None,
        )
        assert calls == 0

    @pytest.mark.parametrize(
        "mode, semiring", [("count", None), ("aggregate", "minplus")]
    )
    def test_cyclic_value_plan_computes_one_order_per_miss(self, mode, semiring):
        """A miss computes the elimination order once; a hit, run_route
        and a worker spec compute none, and the spec's order gives the
        answer and ops the plan's decision gives."""
        cache = PlanCache(capacity=8)
        key = (CYCLE5, None, mode, "demo", "f1", "columnar", semiring)
        orders, (plan, hit) = count_orders(cache.get_or_build, *key)
        assert (plan.decision.route, hit, orders) == ("wcoj", False, 1)
        assert plan.decision.order == CYCLE5.attributes
        assert plan.decision.reason.endswith("min-fill order of width 2")
        orders, (again, hit) = count_orders(cache.get_or_build, *key)
        assert (again is plan, hit, orders) == (True, True, 0)

        database = uniform_random_database(CYCLE5, 12, 4, seed=3)
        orders, answer = count_orders(
            run_route,
            CYCLE5,
            database,
            plan.decision,
            semiring=get_semiring(semiring) if semiring else None,
        )
        assert orders == 0
        spec = {
            "atoms": [
                {"relation": atom.relation_name, "attributes": list(atom.attributes)}
                for atom in CYCLE5.atoms
            ],
            "free": list(plan.free),
            "mode": mode,
            "semiring": semiring,
            "route": plan.decision.route,
            "reason": plan.decision.reason,
            "forests": plan.decision.forests,
            "order": plan.decision.order,
        }
        orders, core = count_orders(evaluate_core, database, spec, "t")
        assert orders == 0
        assert core["ops"] == answer.ops
        if mode == "count":
            assert core["count"] == answer.count
        else:
            assert core["aggregate"] == get_semiring(semiring).to_payload(
                answer.aggregate
            )

    @pytest.mark.parametrize("free", [None, ("a0", "a1"), ("a0", "a3")])
    def test_worker_spec_evaluates_without_a_pass(self, free):
        atoms = [
            {"relation": atom.relation_name, "attributes": list(atom.attributes)}
            for atom in PATH.atoms
        ]
        plan, __ = PlanCache().get_or_build(
            PATH, free, "enumerate", "demo", "f1", "columnar"
        )
        spec = {
            "atoms": atoms,
            "free": list(plan.free),
            "mode": "enumerate",
            "route": plan.decision.route,
            "reason": plan.decision.reason,
            "forests": plan.decision.forests,
        }
        database = uniform_random_database(PATH, 12, 4, seed=5)
        calls, core = count_passes(evaluate_core, database, spec, "t")
        assert calls == 0
        # Without the plan's forests the engines derive the same ones.
        bare = {k: v for k, v in spec.items() if k != "forests"}
        calls, derived = count_passes(evaluate_core, database, bare, "t")
        assert calls > 0
        assert (derived["answers"], derived["ops"]) == (core["answers"], core["ops"])

    @pytest.mark.parametrize(
        "free, mode, passes", [(None, "count", 1), (("a0", "a1"), "enumerate", 3)]
    )
    def test_service_runs_passes_only_on_a_miss(self, free, mode, passes):
        """Through the server: the spec carries the plan's forests, so a
        miss runs only decide_route's passes and a hit runs none."""
        edges = [[1, 2], [2, 3], [3, 1], [2, 4]]
        service = QueryService()
        service.store.register(
            "demo",
            [
                {"name": atom.relation_name, "attributes": ["x", "y"], "tuples": edges}
                for atom in PATH.atoms
            ],
        )
        payload = {
            "database": "demo",
            "mode": mode,
            "atoms": [
                {"relation": atom.relation_name, "attributes": list(atom.attributes)}
                for atom in PATH.atoms
            ],
        }
        if free is not None:
            payload["free"] = list(free)
        request = HttpRequest("POST", "/query", body=json.dumps(payload).encode())

        def query():
            return asyncio.run(service.dispatch(request))

        for expected in (passes, 0):
            calls, data = count_passes(query)
            assert data.startswith(b"HTTP/1.1 200")
            assert calls == expected
