"""Unit tests for the semiring layer: registry, reference fold, the
engines' error paths, and the shared reduced-forest helper's op parity."""

import pytest

from repro.counting import CostCounter
from repro.errors import InvalidInstanceError, SchemaError
from repro.generators.agm import uniform_random_database
from repro.hypergraph.acyclicity import join_tree
from repro.relational.database import Database
from repro.relational.factorized import factorize
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.semiring import (
    BOOLEAN,
    COUNTING,
    MIN_PLUS,
    PROVENANCE,
    Semiring,
    aggregate_relation,
    all_semirings,
    annotation_positions,
    fold_tuple,
    get_semiring,
    register_semiring,
)
from repro.relational.wcoj import generic_join, generic_join_aggregate
from repro.relational.yannakakis import (
    backend_relations,
    reduced_join_forest,
    semijoin_reduce,
    semiring_yannakakis,
    tree_links,
)


def triangle_db():
    edges = [(1, 2), (2, 3), (1, 3), (4, 5)]
    return Database(
        [
            Relation("R1", ("x", "y"), edges),
            Relation("R2", ("x", "y"), edges),
            Relation("R3", ("x", "y"), edges),
        ]
    )


class TestRegistry:
    def test_known_instances(self):
        names = [s.name for s in all_semirings()]
        assert names == ["boolean", "counting", "minplus", "provenance"]
        assert get_semiring("counting") is COUNTING

    def test_unknown_name_is_invalid_instance(self):
        with pytest.raises(InvalidInstanceError, match="unknown semiring"):
            get_semiring("tropical-typo")

    def test_duplicate_registration_rejected(self):
        clone = Semiring(
            name="boolean",
            zero=False,
            one=True,
            add=lambda a, b: a or b,
            mul=lambda a, b: a and b,
            idempotent_add=True,
            absorptive=True,
        )
        with pytest.raises(InvalidInstanceError, match="registered twice"):
            register_semiring(clone)

    def test_broken_identities_rejected_at_registration(self):
        broken = Semiring(
            name="broken-zero",
            zero=1,
            one=1,
            add=lambda a, b: a + b,
            mul=lambda a, b: a * b,
            idempotent_add=False,
            absorptive=False,
        )
        with pytest.raises(InvalidInstanceError, match="⊕-identity"):
            register_semiring(broken)
        assert "broken-zero" not in [s.name for s in all_semirings()]

    def test_repeat_add_guards(self):
        with pytest.raises(InvalidInstanceError, match="n >= 0"):
            COUNTING.repeat_add(1, -1)
        assert COUNTING.repeat_add(3, 0) == 0
        assert COUNTING.repeat_add(3, 4) == 12
        assert MIN_PLUS.repeat_add((2.0, ("e",)), 5) == (2.0, ("e",))


class TestReferenceFold:
    def test_annotation_positions_follow_atom_order(self):
        query = JoinQuery.triangle()
        plan = annotation_positions(query, query.attributes)
        assert plan == [("R1", (0, 1)), ("R2", (0, 2)), ("R3", (1, 2))]

    def test_fold_tuple_counting_is_one(self):
        query = JoinQuery.triangle()
        plan = annotation_positions(query, query.attributes)
        assert fold_tuple(COUNTING, plan, (1, 2, 3)) == 1

    def test_fold_tuple_minplus_builds_sorted_witness(self):
        query = JoinQuery.triangle()
        plan = annotation_positions(query, query.attributes)
        cost, witness = fold_tuple(MIN_PLUS, plan, (1, 2, 3))
        assert cost == 3.0
        assert witness == tuple(sorted(witness))
        assert witness == ("R1(1, 2)", "R2(1, 3)", "R3(2, 3)")

    def test_aggregate_relation_requires_full_answers(self):
        query = JoinQuery.triangle()
        partial = Relation("ans", ("a1", "a2"), [(1, 2)])
        with pytest.raises(InvalidInstanceError, match="full answers"):
            aggregate_relation(COUNTING, query, partial)

    def test_aggregate_relation_counting_counts(self):
        query = JoinQuery.triangle()
        full = generic_join(query, triangle_db())
        assert aggregate_relation(COUNTING, query, full) == len(full)

    def test_custom_annotation_threads_through(self):
        query = JoinQuery.triangle()
        database = triangle_db()

        def cost(relation_name, tup):
            return (float(sum(tup)), (f"{relation_name}{tup}",))

        expected = aggregate_relation(
            MIN_PLUS, query, generic_join(query, database), annotate=cost
        )
        got = generic_join_aggregate(query, database, MIN_PLUS, annotate=cost)
        assert got == expected


class TestEngines:
    def test_wcoj_aggregate_matches_fold_on_triangles(self):
        query = JoinQuery.triangle()
        database = triangle_db()
        full = generic_join(query, database)
        for semiring in all_semirings():
            expected = aggregate_relation(semiring, query, full)
            assert generic_join_aggregate(query, database, semiring) == expected

    def test_semiring_yannakakis_rejects_cyclic(self):
        with pytest.raises(SchemaError, match="alpha-acyclic"):
            semiring_yannakakis(JoinQuery.triangle(), triangle_db(), COUNTING)

    def test_semiring_yannakakis_empty_answer_is_zero(self):
        query = JoinQuery.path(2)
        database = Database(
            [
                Relation("R1", ("x", "y"), [(1, 2)]),
                Relation("R2", ("x", "y"), [(7, 8)]),
            ]
        )
        for semiring in all_semirings():
            assert semiring_yannakakis(query, database, semiring) == semiring.zero

    def test_semiring_yannakakis_forest_multiplies_roots(self):
        # Disconnected product query: value = value(R1) ⊗ value(R2).
        from repro.relational.query import Atom

        query = JoinQuery([Atom("R1", ("a", "b")), Atom("R2", ("c", "d"))])
        database = Database(
            [
                Relation("R1", ("x", "y"), [(1, 2), (1, 3)]),
                Relation("R2", ("x", "y"), [(5, 6), (7, 8), (9, 10)]),
            ]
        )
        assert semiring_yannakakis(query, database, COUNTING) == 6
        full = generic_join(query, database)
        for semiring in all_semirings():
            expected = aggregate_relation(semiring, query, full)
            assert semiring_yannakakis(query, database, semiring) == expected

    def test_factorized_aggregate_projection_needs_annotation_free(self):
        query = JoinQuery.path(3)
        database = uniform_random_database(query, 15, 4, seed=3)
        projected = factorize(query, database, free=("a0", "a1"))
        assert projected.aggregate(COUNTING) == projected.count()
        with pytest.raises(InvalidInstanceError, match="free = all"):
            projected.aggregate(MIN_PLUS)

    def test_factorized_full_aggregate_matches_fold(self):
        query = JoinQuery.star(3)
        database = uniform_random_database(query, 20, 4, seed=5)
        full = generic_join(query, database)
        factorized = factorize(query, database)
        for semiring in all_semirings():
            expected = aggregate_relation(semiring, query, full)
            assert factorized.aggregate(semiring) == expected
        assert factorized.count() == len(full)


class TestReducedForestParity:
    """Satellite: the shared helper charges exactly what the hand-rolled
    backend_relations → tree_links → semijoin_reduce sequence charges."""

    @pytest.mark.parametrize("backend", ["naive", "columnar"])
    @pytest.mark.parametrize("downward", [True, False])
    def test_helper_op_parity(self, backend, downward):
        for query in (JoinQuery.path(3), JoinQuery.star(3)):
            database = uniform_random_database(query, 20, 5, seed=7)
            if backend == "columnar":
                database = database.with_backend("columnar")

            helper_counter = CostCounter()
            forest = reduced_join_forest(
                query, database, helper_counter, downward=downward
            )

            hand_counter = CostCounter()
            relations, semi, join = backend_relations(query, database)
            children, __, roots = tree_links(
                len(relations), join_tree(query.hypergraph())
            )
            alive = semijoin_reduce(
                relations, children, roots, semi, hand_counter, downward=downward
            )

            assert helper_counter.total == hand_counter.total
            assert forest.alive == alive
            assert forest.children == children
            assert forest.roots == roots
            assert [len(r) for r in forest.relations] == [
                len(r) for r in relations
            ]

    def test_stop_when_empty_short_circuits(self):
        query = JoinQuery.path(2)
        database = Database(
            [
                Relation("R1", ("x", "y"), [(1, 2)]),
                Relation("R2", ("x", "y"), [(7, 8)]),
            ]
        )
        forest = reduced_join_forest(query, database, stop_when_empty=True)
        assert not forest.alive


class TestPayloads:
    def test_minplus_payload_round_trip(self):
        value = (2.5, ("R1(1, 2)", "R2(1, 3)"))
        assert MIN_PLUS.to_payload(value) == {
            "cost": 2.5,
            "witness": ["R1(1, 2)", "R2(1, 3)"],
        }
        assert MIN_PLUS.to_payload(MIN_PLUS.zero) == {
            "cost": None,
            "witness": None,
        }

    def test_provenance_payload_is_json_safe(self):
        value = PROVENANCE.add(PROVENANCE.one, PROVENANCE.one)
        assert PROVENANCE.to_payload(value) == [[[], 2]]

    def test_boolean_counting_pass_through(self):
        assert BOOLEAN.to_payload(True) is True
        assert COUNTING.to_payload(4) == 4
