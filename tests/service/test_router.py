"""The dichotomy router: decisions, answers, and route instrumentation."""

import pytest

from repro.counting import CostCounter
from repro.errors import InvalidInstanceError
from repro.generators.agm import uniform_random_database
from repro.observability.metrics import MetricsRegistry, activate_metrics
from repro.observability.tracing import TraceContext, activate
from repro.relational.algebra import project
from repro.relational.factorized import factorize
from repro.relational.query import JoinQuery
from repro.relational.router import ROUTES, decide_route, execute_route, run_route
from repro.relational.wcoj import generic_join


def db_for(query, seed=3, size=20, domain=5):
    return uniform_random_database(query, size, domain, seed=seed)


class TestDecideRoute:
    def test_enumerate_dichotomy(self):
        path = JoinQuery.path(3)
        assert decide_route(path).route == "factorized"
        # a2 alone is connected but not free-connex for the 3-path.
        assert decide_route(path, free=("a2",)).route in ("factorized", "yannakakis")
        assert decide_route(JoinQuery.triangle()).route == "wcoj"

    def test_star_projection_routes_yannakakis(self):
        star = JoinQuery.star(3)
        leaves = tuple(a for a in star.attributes if a != "c")
        decision = decide_route(star, free=leaves)
        assert decision.route == "yannakakis"
        assert "not free-connex" in decision.reason

    def test_count_dichotomy(self):
        assert decide_route(JoinQuery.path(3), mode="count").route == "yannakakis"
        assert decide_route(JoinQuery.triangle(), mode="count").route == "wcoj"

    def test_value_modes_share_one_route_rule(self):
        assert ROUTES == ("factorized", "yannakakis", "wcoj")
        for query, route in (
            (JoinQuery.path(3), "yannakakis"),
            (JoinQuery.star(3), "yannakakis"),
            (JoinQuery.triangle(), "wcoj"),
            (JoinQuery.cycle(7), "wcoj"),
        ):
            decisions = [
                decide_route(query, mode=mode)
                for mode in ("count", "boolean", "aggregate")
            ]
            assert {d.route for d in decisions} == {route}
            assert len({d.reason for d in decisions}) == 1

    def test_boolean_dichotomy(self):
        assert decide_route(JoinQuery.path(3), mode="boolean").route == "yannakakis"
        assert decide_route(JoinQuery.triangle(), mode="boolean").route == "wcoj"

    def test_count_with_projection_rejected(self):
        with pytest.raises(InvalidInstanceError):
            decide_route(JoinQuery.triangle(), free=("a1",), mode="count")

    def test_unknown_mode_rejected(self):
        with pytest.raises(InvalidInstanceError):
            decide_route(JoinQuery.triangle(), mode="explain")


class TestExecuteRoute:
    @pytest.mark.parametrize("shape", ["triangle", "path", "star"])
    def test_enumerate_matches_flat_reference(self, shape):
        query = {
            "triangle": JoinQuery.triangle,
            "path": lambda: JoinQuery.path(3),
            "star": lambda: JoinQuery.star(3),
        }[shape]()
        database = db_for(query)
        answer = execute_route(query, database)
        reference = generic_join(query, database)
        assert sorted(answer.relation.tuples) == sorted(reference.tuples)
        assert answer.ops > 0
        assert answer.count is None and answer.nonempty is None

    def test_projection_matches_flat_reference(self):
        star = JoinQuery.star(3)
        database = db_for(star)
        free = tuple(a for a in star.attributes if a != "c")
        answer = execute_route(star, database, free=free)
        reference = project(generic_join(star, database), free)
        assert sorted(answer.relation.tuples) == sorted(reference.tuples)
        assert answer.decision.route == "yannakakis"

    def test_count_routes_agree_with_enumeration(self):
        for query in (JoinQuery.path(3), JoinQuery.triangle()):
            database = db_for(query)
            answer = execute_route(query, database, mode="count")
            assert answer.count == len(generic_join(query, database).tuples)

    def test_boolean_routes_agree_with_enumeration(self):
        for query in (JoinQuery.path(3), JoinQuery.triangle()):
            database = db_for(query)
            answer = execute_route(query, database, mode="boolean")
            assert answer.nonempty == bool(generic_join(query, database).tuples)

    def test_cached_decision_replay_is_identical(self):
        query = JoinQuery.path(4)
        database = db_for(query)
        decision = decide_route(query)
        cold = execute_route(query, database)
        warm = run_route(query, database, decision)
        assert sorted(cold.relation.tuples) == sorted(warm.relation.tuples)
        assert cold.decision == warm.decision


class TestRouteInstrumentation:
    def test_route_counter_and_span_on_ambient_scopes(self):
        query = JoinQuery.triangle()
        database = db_for(query)
        registry = MetricsRegistry()
        trace = TraceContext(track="r1")
        with activate(trace), activate_metrics(registry):
            answer = execute_route(query, database)
        counters = registry.to_payload()["counters"]
        route_counts = {k: v for k, v in counters.items() if k.startswith("route.")}
        assert route_counts == {"route.wcoj": 1}
        spans = trace.to_payload()
        route_spans = [s for s in spans if s["name"] == "route"]
        assert len(route_spans) == 1
        assert route_spans[0]["attributes"]["route"] == "wcoj"
        assert route_spans[0]["track"] == "r1"
        assert answer.ops > 0

    def test_no_ambient_scope_is_a_no_op(self):
        query = JoinQuery.path(3)
        database = db_for(query)
        answer = execute_route(query, database)
        assert answer.decision.route == "factorized"

    def test_ops_match_engine_charges(self):
        query = JoinQuery.path(3)
        database = db_for(query)
        counter = CostCounter()
        answer = execute_route(query, database, counter=counter)
        direct = CostCounter()
        factorize(query, database, counter=direct).materialize()
        assert answer.ops == counter.total
        assert answer.ops >= direct.total
