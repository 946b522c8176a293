"""The counting problem across all four domains + #SAT."""

from itertools import product

import pytest

from repro.counting import CostCounter
from repro.csp.bruteforce import count_bruteforce
from repro.generators.agm import uniform_random_database
from repro.generators.sat_gen import random_ksat
from repro.csp.treewidth_dp import count_with_treewidth
from repro.reductions.query_to_csp import query_to_csp
from repro.relational.query import JoinQuery
from repro.relational.router import execute_route
from repro.relational.wcoj import generic_join
from repro.sat.cnf import CNF
from repro.sat.model_counting import count_models

from ..conftest import make_random_binary_csp


class TestCountAnswers:
    @pytest.mark.parametrize(
        "shape",
        [JoinQuery.triangle(), JoinQuery.path(3), JoinQuery.star(3), JoinQuery.cycle(4)],
        ids=["triangle", "path3", "star3", "cycle4"],
    )
    def test_matches_materialization(self, shape):
        for seed in range(4):
            database = uniform_random_database(shape, 20, 5, seed=seed)
            expected = len(generic_join(shape, database))
            assert execute_route(shape, database, mode="count").count == expected
            # An independent oracle: the Freuder counting DP over the
            # CSP translation.
            csp = query_to_csp(shape, database).target
            assert count_with_treewidth(csp) == expected

    def test_empty_database(self):
        from repro.relational.database import Database
        from repro.relational.relation import Relation

        query = JoinQuery.path(2)
        database = Database(
            [Relation("R1", ("x", "y")), Relation("R2", ("x", "y"))]
        )
        assert execute_route(query, database, mode="count").count == 0

    def test_counting_cheaper_than_enumeration_on_paths(self):
        """A long path query can have huge answers; counting stays
        linear in the data (one sum-product pass along the join tree)."""
        query = JoinQuery.path(6)
        database = uniform_random_database(query, 40, 6, seed=1)
        counter = CostCounter()
        answer = execute_route(query, database, mode="count", counter=counter)
        count = answer.count
        answer_size = len(generic_join(query, database))
        assert count == answer_size
        if answer_size > 0:
            # Counting ops per answer tuple shrink as answers multiply.
            assert counter.total < 60 * 40 * 40 + 10_000


class TestCountModels:
    def test_empty(self):
        assert count_models(CNF(0)) == 1

    def test_free_variables_double(self):
        assert count_models(CNF(3)) == 8
        assert count_models(CNF(3, [[1]])) == 4

    def test_contradiction(self):
        assert count_models(CNF.from_clauses([[1], [-1]])) == 0

    def test_matches_enumeration(self, rng):
        for __ in range(15):
            n = rng.randrange(1, 6)
            clauses = []
            for __ in range(rng.randrange(0, 8)):
                width = rng.randrange(1, min(3, n) + 1)
                variables = rng.sample(range(1, n + 1), width)
                clauses.append(
                    [v if rng.random() < 0.5 else -v for v in variables]
                )
            formula = CNF(n, clauses)
            expected = sum(
                1
                for values in product((False, True), repeat=n)
                if formula.evaluate(dict(zip(range(1, n + 1), values)))
            )
            assert count_models(formula) == expected

    def test_xor_chain_has_two_models(self):
        # x1 ⊕ x2, x2 ⊕ x3 as CNF: exactly 2 models.
        formula = CNF.from_clauses([[1, 2], [-1, -2], [2, 3], [-2, -3]])
        assert count_models(formula) == 2


class TestCountingConsistencyAcrossDomains:
    def test_csp_query_sat_counts_agree(self, rng):
        """One CSP's solution count through the query and (where the
        domain is Boolean) SAT routes."""
        from repro.reductions.query_to_csp import csp_to_query

        for __ in range(6):
            inst = make_random_binary_csp(
                rng, num_variables=4, domain_size=2, num_constraints=4
            )
            expected = count_bruteforce(inst)
            query, database = csp_to_query(inst).target
            assert execute_route(query, database, mode="count").count == expected
