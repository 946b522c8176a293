"""Property-based tests for CDCL, SAT-encoded CSP, and enumeration."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csp.bruteforce import count_bruteforce, solve_bruteforce
from repro.csp.instance import Constraint, CSPInstance
from repro.csp.sat_encoding import solve_via_sat
from repro.generators.agm import uniform_random_database
from repro.relational.enumeration import enumerate_acyclic, enumerate_nested_loop
from repro.relational.query import JoinQuery
from repro.relational.router import execute_route
from repro.relational.wcoj import generic_join
from repro.sat.cdcl import solve_cdcl
from repro.sat.cnf import CNF
from repro.sat.dpll import solve_dpll
from repro.sat.model_counting import count_models


@st.composite
def cnf_formulas(draw, max_vars=6, max_clauses=10):
    n = draw(st.integers(1, max_vars))
    num_clauses = draw(st.integers(0, max_clauses))
    clauses = []
    for __ in range(num_clauses):
        width = draw(st.integers(1, min(3, n)))
        variables = draw(
            st.lists(st.integers(1, n), min_size=width, max_size=width, unique=True)
        )
        signs = draw(st.lists(st.booleans(), min_size=width, max_size=width))
        clauses.append([v if s else -v for v, s in zip(variables, signs)])
    return CNF(n, clauses)


@st.composite
def csp_instances(draw, max_vars=4, max_domain=3):
    num_vars = draw(st.integers(2, max_vars))
    domain_size = draw(st.integers(1, max_domain))
    variables = [f"v{i}" for i in range(num_vars)]
    domain = list(range(domain_size))
    all_pairs = list(product(domain, repeat=2))
    constraints = []
    for __ in range(draw(st.integers(0, 5))):
        pair = draw(
            st.lists(st.integers(0, num_vars - 1), min_size=2, max_size=2, unique=True)
        )
        relation = draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs)))
        constraints.append(
            Constraint((variables[pair[0]], variables[pair[1]]), relation)
        )
    return CSPInstance(variables, domain, constraints)


class TestCDCLProperties:
    @given(cnf_formulas())
    @settings(max_examples=80, deadline=None)
    def test_cdcl_matches_dpll(self, formula):
        cdcl = solve_cdcl(formula)
        dpll = solve_dpll(formula)
        assert (cdcl is None) == (dpll is None)
        if cdcl is not None:
            assert formula.evaluate(cdcl)

    @given(cnf_formulas(max_vars=5))
    @settings(max_examples=50, deadline=None)
    def test_model_count_consistent_with_solvers(self, formula):
        count = count_models(formula)
        satisfiable = solve_cdcl(formula) is not None
        assert (count > 0) == satisfiable
        assert count <= 2**formula.num_variables


class TestSatEncodedCSPProperties:
    @given(csp_instances())
    @settings(max_examples=50, deadline=None)
    def test_sat_route_matches_bruteforce(self, inst):
        oracle = solve_bruteforce(inst)
        got = solve_via_sat(inst)
        assert (got is None) == (oracle is None)
        if got is not None:
            assert inst.is_solution(got)


class TestEnumerationProperties:
    @given(
        shape=st.sampled_from(["path2", "path3", "star2", "star3"]),
        size=st.integers(1, 20),
        domain=st.integers(1, 5),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=50, deadline=None)
    def test_enumerators_complete_and_duplicate_free(self, shape, size, domain, seed):
        query = {
            "path2": lambda: JoinQuery.path(2),
            "path3": lambda: JoinQuery.path(3),
            "star2": lambda: JoinQuery.star(2),
            "star3": lambda: JoinQuery.star(3),
        }[shape]()
        database = uniform_random_database(query, size, domain, seed=seed)
        answer = generic_join(query, database)
        idx = [answer.attributes.index(a) for a in query.attributes]
        expected = {tuple(t[i] for i in idx) for t in answer.tuples}

        acyclic = list(enumerate_acyclic(query, database))
        naive = list(enumerate_nested_loop(query, database))
        assert set(acyclic) == expected
        assert set(naive) == expected
        assert len(acyclic) == len(expected)
        assert execute_route(query, database, mode="count").count == len(expected)
