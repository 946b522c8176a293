"""Unit tests for the factorized engine, its routing, and the
delay-measurement contract."""

import pytest

from repro.counting import CostCounter
from repro.errors import SchemaError
from repro.generators.agm import uniform_random_database
from repro.relational.database import Database
from repro.relational.enumeration import (
    DelayProfile,
    enumerate_acyclic,
    enumerate_nested_loop,
    measure_delays,
)
from repro.relational.factorized import factorize, is_free_connex
from repro.relational.query import Atom, JoinQuery
from repro.relational.relation import Relation
from repro.relational.router import decide_route, execute_route


def hub_star(n):
    return Database(
        [
            Relation("R1", ("x", "y"), [(0, i) for i in range(n)]),
            Relation("R2", ("x", "y"), [(0, j) for j in range(n)]),
        ]
    )


class TestFactorize:
    def test_linear_nodes_quadratic_answers(self):
        query = JoinQuery.star(2)
        small = factorize(query, hub_star(20))
        large = factorize(query, hub_star(80))
        assert small.count() == 400 and large.count() == 6400
        # The size grows linearly: 4x the data, ~4x the nodes, 16x answers.
        assert large.num_nodes <= 4 * small.num_nodes + 8

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_size_on_the_hub_star(self, n):
        # Two projections of n tuples each, one bucket apiece: 2 union
        # nodes + 2n product nodes; 2n bucket->tuple links plus one
        # tuple->child-bucket link per tuple of the root projection.
        result = factorize(JoinQuery.star(2), hub_star(n))
        assert result.num_nodes == 2 * n + 2
        assert result.num_edges == 3 * n

    def test_count_without_enumeration(self):
        query = JoinQuery.path(3)
        database = uniform_random_database(query, 30, 4, seed=5)
        result = factorize(query, database)
        walked = list(result.enumerate())
        assert len(walked) == result.count()
        assert sorted(walked) == sorted(result.materialize().tuples)

    def test_materialize_attribute_order_is_free_order(self):
        query = JoinQuery.path(2)
        database = uniform_random_database(query, 10, 3, seed=0)
        result = factorize(query, database, free=("a1", "a0"))
        assert result.materialize().attributes == ("a1", "a0")

    def test_non_free_connex_raises(self):
        query = JoinQuery.star(2)
        database = hub_star(4)
        with pytest.raises(SchemaError):
            factorize(query, database, free=("l0", "l1"))

    def test_invalid_free_variables_rejected(self):
        query = JoinQuery.path(2)
        database = uniform_random_database(query, 5, 3, seed=0)
        with pytest.raises(SchemaError):
            factorize(query, database, free=())
        with pytest.raises(SchemaError):
            factorize(query, database, free=("a0", "a0"))
        with pytest.raises(SchemaError):
            factorize(query, database, free=("nope",))

    def test_empty_guard_component(self):
        # R2 is a boolean guard with no free variables; when it empties
        # the whole answer is empty regardless of R1.
        query = JoinQuery([Atom("R1", ("a", "b")), Atom("R2", ("c", "d"))])
        database = Database(
            [
                Relation("R1", ("x", "y"), [(1, 2)]),
                Relation("R2", ("x", "y")),
            ]
        )
        result = factorize(query, database, free=("a",))
        assert result.count() == 0
        assert list(result.enumerate()) == []
        assert len(result.materialize()) == 0

    def test_satisfied_guard_component(self):
        query = JoinQuery([Atom("R1", ("a", "b")), Atom("R2", ("c", "d"))])
        database = Database(
            [
                Relation("R1", ("x", "y"), [(1, 2), (3, 4)]),
                Relation("R2", ("x", "y"), [(9, 9)]),
            ]
        )
        result = factorize(query, database, free=("a",))
        assert sorted(result.materialize().tuples) == [(1,), (3,)]

    def test_disconnected_product(self):
        query = JoinQuery([Atom("R1", ("a", "b")), Atom("R2", ("c", "d"))])
        database = Database(
            [
                Relation("R1", ("x", "y"), [(1, 2), (3, 4)]),
                Relation("R2", ("x", "y"), [(5, 6), (7, 8)]),
            ]
        )
        result = factorize(query, database, free=("a", "c"))
        assert result.count() == 4
        assert sorted(result.materialize().tuples) == [
            (1, 5), (1, 7), (3, 5), (3, 7),
        ]

    def test_single_atom_projection(self):
        query = JoinQuery([Atom("R", ("a", "b"))])
        database = Database([Relation("R", ("x", "y"), [(1, 2), (1, 3), (4, 2)])])
        result = factorize(query, database, free=("a",))
        assert sorted(result.materialize().tuples) == [(1,), (4,)]


class TestRouter:
    def test_free_connex_routes_to_factorized(self):
        query = JoinQuery.path(3)
        assert decide_route(query, free=("a0", "a1")).route == "factorized"

    def test_bmm_projection_falls_back(self):
        query = JoinQuery.star(2)
        routed = execute_route(query, hub_star(6), free=("l0", "l1"))
        assert routed.decision.route == "yannakakis"
        assert len(routed.relation) == 36

    def test_cyclic_falls_back(self):
        query = JoinQuery.triangle()
        database = uniform_random_database(query, 12, 4, seed=3)
        assert execute_route(query, database).decision.route == "wcoj"


class TestEnumerateAcyclicProjection:
    def test_free_connex_projection_enumerates(self):
        query = JoinQuery.path(3)
        database = uniform_random_database(query, 20, 4, seed=7)
        got = sorted(set(enumerate_acyclic(query, database, free=("a0", "a1"))))
        full = set(enumerate_acyclic(query, database))
        expected = sorted({(t[0], t[1]) for t in full})
        assert got == expected

    def test_non_free_connex_projection_raises(self):
        query = JoinQuery.path(3)
        database = uniform_random_database(query, 10, 3, seed=1)
        with pytest.raises(SchemaError):
            list(enumerate_acyclic(query, database, free=("a0", "a3")))

    def test_full_free_tuple_uses_classic_path(self):
        query = JoinQuery.path(3)
        database = uniform_random_database(query, 10, 3, seed=4)
        c1, c2 = CostCounter(), CostCounter()
        a = sorted(enumerate_acyclic(query, database, c1))
        b = sorted(enumerate_acyclic(query, database, c2, free=query.attributes))
        assert a == b
        assert c1.total == c2.total


class TestDelayProfile:
    def test_setup_gaps_exhaustion_accounting(self):
        counter = CostCounter()

        def noisy():
            for _ in range(3):
                counter.charge()  # setup: 3 ops before the first answer
            yield 1
            counter.charge()  # one gap op
            yield 2
            for _ in range(5):
                counter.charge()  # exhaustion tail: 5 ops, no yield
        profile = measure_delays(noisy(), counter)
        assert profile == DelayProfile(
            setup=3, gaps=(1,), exhaustion=5, answers=2
        )
        assert profile.max_delay == 5

    def test_exhaustion_counts_toward_max_delay(self):
        # The old accounting ignored everything after the last yield; a
        # lazy tail could hide linear work there.
        counter = CostCounter()

        def lazy_tail():
            yield 1
            for _ in range(100):
                counter.charge()
        assert measure_delays(lazy_tail(), counter).max_delay == 100

    def test_empty_enumeration(self):
        counter = CostCounter()

        def empty():
            for _ in range(4):
                counter.charge()
            return
            yield  # pragma: no cover
        profile = measure_delays(empty(), counter)
        assert profile.answers == 0
        assert profile.setup == 4
        assert profile.max_delay == 0

    def test_naive_exhaustion_is_data_dependent(self):
        # enumerate_nested_loop keeps scanning after its last answer;
        # the new accounting makes that visible.
        from repro.experiments.exp_enumeration import dangling_database

        query = JoinQuery.path(3)
        maxima = []
        for n in (40, 160):
            counter = CostCounter()
            profile = measure_delays(
                enumerate_nested_loop(query, dangling_database(n), counter), counter
            )
            maxima.append(profile.max_delay)
        assert maxima[1] > 2 * maxima[0]

    def test_factorized_delay_data_independent(self):
        query = JoinQuery.star(2)
        maxima = []
        for n in (25, 100):
            counter = CostCounter()
            result = factorize(query, hub_star(n), counter=counter)
            profile = measure_delays(result.enumerate(counter), counter)
            assert profile.answers == n * n
            maxima.append(profile.max_delay)
        assert maxima[0] == maxima[1]
