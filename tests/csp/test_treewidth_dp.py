"""Focused tests for Freuder's DP (Theorem 4.2)."""

import random
from itertools import product

import pytest

from repro.counting import CostCounter
from repro.csp.bruteforce import count_bruteforce, solve_bruteforce
from repro.csp.instance import Constraint, CSPInstance
from repro.csp.treewidth_dp import (
    _extract_solution,
    _run_dp,
    count_with_treewidth,
    solve_with_treewidth,
)
from repro.errors import BudgetExceededError, SolverError
from repro.generators.csp_gen import bounded_treewidth_csp
from repro.graphs.graph import Graph
from repro.observability.metrics import MetricsRegistry, activate_metrics
from repro.reductions.sat_to_coloring import coloring_as_csp
from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.heuristics import treewidth_min_fill
from repro.treewidth.nice import FORGET, INTRODUCE


class TestWithExplicitDecomposition:
    def test_path_instance(self):
        eq = [(0, 0), (1, 1)]
        inst = CSPInstance(
            ["a", "b", "c"],
            [0, 1],
            [Constraint(("a", "b"), eq), Constraint(("b", "c"), eq)],
        )
        dec = TreeDecomposition(
            bags={0: ["a", "b"], 1: ["b", "c"]}, tree_edges=[(0, 1)]
        )
        solution = solve_with_treewidth(inst, dec)
        assert solution is not None
        assert solution["a"] == solution["b"] == solution["c"]
        assert count_with_treewidth(inst, dec) == 2

    def test_invalid_decomposition_rejected(self):
        from repro.errors import InvalidDecompositionError

        inst = CSPInstance(["a", "b"], [0], [Constraint(("a", "b"), [(0, 0)])])
        bad = TreeDecomposition(bags={0: ["a"]})
        with pytest.raises(InvalidDecompositionError):
            solve_with_treewidth(inst, bad)


class TestCounting:
    def test_unsat_counts_zero(self):
        inst = CSPInstance(["x"], [0], [Constraint(("x",), [])])
        assert count_with_treewidth(inst) == 0

    def test_independent_variables_multiply(self):
        inst = CSPInstance(["x", "y", "z"], [0, 1], [])
        assert count_with_treewidth(inst) == 8

    def test_disconnected_components_multiply(self):
        ne = [(0, 1), (1, 0)]
        inst = CSPInstance(
            ["a", "b", "c", "d"],
            [0, 1],
            [Constraint(("a", "b"), ne), Constraint(("c", "d"), ne)],
        )
        # Each component has 2 solutions: 2*2 = 4.
        assert count_with_treewidth(inst) == 4
        assert count_bruteforce(inst) == 4

    def test_larger_instance_matches_bruteforce(self):
        inst = bounded_treewidth_csp(8, 3, 2, tightness=0.4, seed=17)
        assert count_with_treewidth(inst) == count_bruteforce(inst)

    def test_duplicate_constraints_dont_double_count(self):
        eq = [(0, 0), (1, 1)]
        inst = CSPInstance(
            ["x", "y"],
            [0, 1],
            [Constraint(("x", "y"), eq), Constraint(("x", "y"), eq)],
        )
        assert count_with_treewidth(inst) == 2


class TestComplexityShape:
    def test_cost_bounded_by_theorem(self):
        """The DP's operation count stays within a small factor of the
        |V|·|D|^{k+1} envelope (constants absorbed by the nice
        decomposition's node count)."""
        for d in (2, 4, 8):
            inst = bounded_treewidth_csp(10, d, 2, tightness=0.2, seed=3)
            width, dec = treewidth_min_fill(inst.primal_graph())
            counter = CostCounter()
            solve_with_treewidth(inst, dec, counter)
            envelope = 40 * inst.num_variables * d ** (width + 1)
            assert counter.total <= envelope

    def test_dp_beats_bruteforce_on_wide_instances(self):
        inst = bounded_treewidth_csp(12, 3, 1, tightness=0.25, seed=5)
        dp_counter, bf_counter = CostCounter(), CostCounter()
        dp = solve_with_treewidth(inst, counter=dp_counter)
        bf = solve_bruteforce(inst, bf_counter)
        assert (dp is None) == (bf is None)
        if bf is None:
            # Unsatisfiable: brute force had to scan everything.
            assert dp_counter.total < bf_counter.total


class _SameRepr:
    """Distinct variables whose reprs tie."""

    def __repr__(self) -> str:
        return "v"


def _path_colouring(n: int) -> CSPInstance:
    return coloring_as_csp(Graph(edges=[(i, i + 1) for i in range(n - 1)]))


class TestVariableOrder:
    def test_variables_sharing_a_repr_count_like_bruteforce(self):
        """Every node lists its bag in one fixed order, so a join's
        children spell each assignment alike even when reprs tie."""
        rng = random.Random(20)
        for __ in range(300):
            variables = [_SameRepr() for __ in range(rng.randrange(3, 7))]
            domain = list(range(rng.randrange(1, 4)))
            pairs = list(product(domain, repeat=2))
            constraints = [
                Constraint(
                    rng.sample(variables, 2),
                    rng.sample(pairs, rng.randrange(len(pairs) + 1)),
                )
                for __ in range(rng.randrange(len(variables) + 3))
            ]
            inst = CSPInstance(variables, domain, constraints)
            count = count_bruteforce(inst)
            assert count_with_treewidth(inst) == count
            solution = solve_with_treewidth(inst)
            assert (solution is None) == (count == 0)
            assert solution is None or inst.is_solution(solution)


class TestCharges:
    def test_budget_stops_at_a_node_boundary_before_its_work(self):
        """A node charges its whole count before its loop: a budget
        that runs out inside a node stops the DP with every earlier
        node's table built, none of that node's work done, and the
        node's whole count charged (one charge per entry would stop at
        one op over the budget)."""
        inst = _path_colouring(6)
        __, decomposition = treewidth_min_fill(inst.primal_graph())
        nice, __, tables = _run_dp(inst, decomposition, None)
        charges = []
        for node in nice.nodes:
            child_size = len(tables[node.children[0]]) if node.children else 0
            charges.append(child_size * 3 if node.kind == INTRODUCE else child_size)
        spent = 0
        for index, amount in enumerate(charges):
            if amount and spent + amount > sum(charges) // 2:
                break
            spent += amount
        counter = CostCounter(budget=spent)
        registry = MetricsRegistry()
        with activate_metrics(registry), pytest.raises(BudgetExceededError):
            solve_with_treewidth(inst, decomposition, counter)
        assert amount > 1 and counter.total == spent + amount
        tables_built = registry.to_payload()["histograms"]["treewidth.table_size"]
        assert tables_built["count"] == index

    def test_traceback_guard_is_a_solver_error(self):
        inst = _path_colouring(4)
        __, decomposition = treewidth_min_fill(inst.primal_graph())
        nice, orders, tables = _run_dp(inst, decomposition, None)
        forget = next(i for i, node in enumerate(nice.nodes) if node.kind == FORGET)
        tables[nice.nodes[forget].children[0]].clear()
        with pytest.raises(SolverError, match="forget node"):
            _extract_solution(inst, nice, orders, tables)
