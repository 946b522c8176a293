"""Property-based tests for CSP solvers and translations."""

from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting import CostCounter
from repro.csp.backtracking import solve_backtracking
from repro.csp.bruteforce import count_bruteforce, solve_bruteforce
from repro.csp.consistency import propagate_domains
from repro.csp.instance import Constraint, CSPInstance
from repro.csp.treewidth_dp import (
    _run_dp,
    count_with_treewidth,
    solve_with_treewidth,
)
from repro.observability.metrics import MetricsRegistry, activate_metrics
from repro.treewidth.heuristics import treewidth_min_degree, treewidth_min_fill

from ..csp.freuder_reference import (
    reference_count,
    reference_run_dp,
    reference_solve,
)


@st.composite
def csp_instances(draw, max_vars=5, max_domain=3, max_constraints=6):
    num_vars = draw(st.integers(2, max_vars))
    domain_size = draw(st.integers(1, max_domain))
    variables = [f"v{i}" for i in range(num_vars)]
    domain = list(range(domain_size))
    all_pairs = list(product(domain, repeat=2))
    num_constraints = draw(st.integers(0, max_constraints))
    constraints = []
    for __ in range(num_constraints):
        indices = draw(
            st.lists(
                st.integers(0, num_vars - 1), min_size=2, max_size=2, unique=True
            )
        )
        relation = draw(st.lists(st.sampled_from(all_pairs), max_size=len(all_pairs)))
        constraints.append(
            Constraint((variables[indices[0]], variables[indices[1]]), relation)
        )
    return CSPInstance(variables, domain, constraints)


class TestSolverAgreement:
    @given(csp_instances())
    @settings(max_examples=60, deadline=None)
    def test_three_solvers_agree(self, inst):
        bf = solve_bruteforce(inst)
        bt = solve_backtracking(inst)
        dp = solve_with_treewidth(inst)
        assert (bf is None) == (bt is None) == (dp is None)
        for solution in (bf, bt, dp):
            if solution is not None:
                assert inst.is_solution(solution)

    @given(csp_instances(max_vars=4))
    @settings(max_examples=50, deadline=None)
    def test_counting_agrees(self, inst):
        assert count_bruteforce(inst) == count_with_treewidth(inst)

    @given(csp_instances())
    @settings(max_examples=50, deadline=None)
    def test_count_zero_iff_unsat(self, inst):
        count = count_with_treewidth(inst)
        assert (count == 0) == (solve_bruteforce(inst) is None)


#: Variable names: ints and strings whose reprs are pairwise distinct
#: and sort differently from the ints' natural order ('10' < '9').
NAMES = [0, 1, 2, 9, 10, 11, "1", "a", "b10", "b9", "Z"]

#: Domain values; tuples may also hold :data:`OUTSIDE`, no domain value.
VALUES = [0, 1, 2, 10]
OUTSIDE = 7


@st.composite
def dp_instances(draw):
    """CSPs for comparing Freuder's DP against its reference: unary,
    binary and ternary constraints, repeated scope variables, isolated
    variables, empty relations and empty domains, and tuples holding
    values outside the domain."""
    variables = draw(st.lists(st.sampled_from(NAMES), max_size=6, unique=True))
    domain = draw(st.lists(st.sampled_from(VALUES), max_size=3, unique=True))
    constraints = []
    if variables:
        for __ in range(draw(st.integers(0, 5))):
            arity = draw(st.integers(1, 3))
            scope = draw(
                st.lists(st.sampled_from(variables), min_size=arity, max_size=arity)
            )
            row = st.tuples(*[st.sampled_from(domain + [OUTSIDE])] * arity)
            relation = draw(st.lists(row, max_size=12))
            constraints.append(Constraint(scope, relation))
    return CSPInstance(variables, domain, constraints)


def _tables_as_pairs(orders, tables):
    """The positional tables spelled as the reference spells them:
    tuples of (variable, value) pairs, in insertion order."""
    return [
        [(tuple(zip(order, key)), ways) for key, ways in table.items()]
        for order, table in zip(orders, tables)
    ]


class TestFreuderDPMatchesReference:
    @given(dp_instances(), st.sampled_from([None, "min_fill", "min_degree"]))
    @settings(max_examples=200, deadline=None)
    def test_same_witness_count_charges_metrics_and_tables(self, inst, heuristic):
        decomposition = None
        if heuristic == "min_fill":
            __, decomposition = treewidth_min_fill(inst.primal_graph())
        elif heuristic == "min_degree":
            __, decomposition = treewidth_min_degree(inst.primal_graph())
        for run, reference in (
            (solve_with_treewidth, reference_solve),
            (count_with_treewidth, reference_count),
        ):
            outcomes = []
            for fn in (run, reference):
                counter, registry = CostCounter(), MetricsRegistry()
                with activate_metrics(registry):
                    result = fn(inst, decomposition, counter)
                if isinstance(result, dict):
                    result = list(result.items())
                outcomes.append((result, counter.total, registry.to_payload()))
            assert outcomes[0] == outcomes[1]

        dp = _run_dp(inst, decomposition, None)
        ref_tables, __ = reference_run_dp(inst, decomposition, None)
        if dp is None:
            assert ref_tables is None
        else:
            __, orders, tables = dp
            assert _tables_as_pairs(orders, tables) == [
                list(table.items()) for table in ref_tables
            ]


class TestGACProperties:
    @given(csp_instances())
    @settings(max_examples=50, deadline=None)
    def test_gac_preserves_satisfiability(self, inst):
        domains = propagate_domains(inst)
        satisfiable = solve_bruteforce(inst) is not None
        if domains is None:
            assert not satisfiable
        elif satisfiable:
            # Any solution survives inside the filtered domains.
            solution = solve_bruteforce(inst)
            for var, val in solution.items():
                assert val in domains[var]

    @given(csp_instances())
    @settings(max_examples=40, deadline=None)
    def test_gac_domains_shrink_only(self, inst):
        domains = propagate_domains(inst)
        if domains is not None:
            for var in inst.variables:
                assert domains[var] <= set(inst.domain)


class TestInstanceProperties:
    @given(csp_instances())
    @settings(max_examples=40, deadline=None)
    def test_restrict_components_preserves_solutions(self, inst):
        """Solving per connected component and merging equals solving
        whole — the decomposition the Special CSP solver relies on."""
        components = inst.primal_graph().connected_components()
        merged: dict = {}
        for comp in components:
            sub = inst.restrict(comp)
            solution = solve_bruteforce(sub)
            if solution is None:
                assert solve_bruteforce(inst) is None
                return
            merged.update(solution)
        assert inst.is_solution(merged)

    @given(csp_instances())
    @settings(max_examples=40, deadline=None)
    def test_primal_graph_covers_scopes(self, inst):
        primal = inst.primal_graph()
        for c in inst.constraints:
            scope = [v for v in c.variables()]
            for i, u in enumerate(scope):
                for v in scope[i + 1:]:
                    assert primal.has_edge(u, v)
