"""Reference implementation of Freuder's DP for equivalence tests.

The dict-per-entry recurrence that :mod:`repro.csp.treewidth_dp` ran
before its tables became positional: every bag assignment is a tuple of
``(variable, value)`` pairs sorted by ``repr``, rebuilt through a dict
at each node, and every entry is charged on its own. The property
suite checks that the positional DP builds the same tables in the same
insertion order, charges the same total and returns the same witness.
Variables are assumed to have pairwise distinct reprs: where two tie,
``_canon`` keeps whichever order they were inserted in, so a join's
children can spell one assignment two ways and this reference miscounts.
"""

from __future__ import annotations

from repro.counting import charge
from repro.errors import InvalidInstanceError
from repro.observability.metrics import SMALL_BUCKETS, current_metrics
from repro.treewidth.heuristics import treewidth_min_fill
from repro.treewidth.nice import FORGET, INTRODUCE, JOIN, LEAF, make_nice


def _canon(assignment):
    return tuple(sorted(assignment.items(), key=lambda item: repr(item[0])))


def reference_run_dp(instance, decomposition, counter):
    """Bottom-up DP; returns (tables, nice), tables=None for an empty domain.

    Unlike the original, which dropped them, the tables are returned
    when the root table is empty too, so unsatisfiable instances can be
    compared table by table.
    """
    if decomposition is None:
        __, decomposition = treewidth_min_fill(instance.primal_graph())
    decomposition.validate(instance.primal_graph())
    nice = make_nice(decomposition)

    registry = current_metrics()
    bag_hist = table_hist = None
    if registry is not None:
        bag_hist = registry.histogram("treewidth.bag_size", SMALL_BUCKETS)
        table_hist = registry.histogram("treewidth.table_size")
        registry.gauge("treewidth.width").set_max(
            max((len(node.bag) for node in nice.nodes), default=1) - 1
        )
        for node in nice.nodes:
            bag_hist.observe(len(node.bag))

    domain = sorted(instance.domain, key=repr)
    if instance.num_variables and not domain:
        return None, nice

    constraints_of = {v: instance.constraints_on(v) for v in instance.variables}

    tables = []
    for node in nice.nodes:
        if node.kind == LEAF:
            tables.append({(): 1})
        elif node.kind == INTRODUCE:
            child_table = tables[node.children[0]]
            bag = node.bag
            v = node.vertex
            new_table = {}
            local = [
                c for c in constraints_of.get(v, ())
                if c.variables() <= bag
            ]
            for bag_assignment, ways in child_table.items():
                partial = dict(bag_assignment)
                for value in domain:
                    charge(counter)
                    partial[v] = value
                    if all(c.satisfied_by(partial) for c in local):
                        key = _canon(partial)
                        new_table[key] = new_table.get(key, 0) + ways
                del partial[v]
            tables.append(new_table)
        elif node.kind == FORGET:
            child_table = tables[node.children[0]]
            v = node.vertex
            new_table = {}
            for bag_assignment, ways in child_table.items():
                charge(counter)
                reduced = _canon({var: val for var, val in bag_assignment if var != v})
                new_table[reduced] = new_table.get(reduced, 0) + ways
            tables.append(new_table)
        elif node.kind == JOIN:
            left_table = tables[node.children[0]]
            right_table = tables[node.children[1]]
            new_table = {}
            for bag_assignment, left_ways in left_table.items():
                charge(counter)
                right_ways = right_table.get(bag_assignment)
                if right_ways is not None:
                    new_table[bag_assignment] = left_ways * right_ways
            tables.append(new_table)
        else:
            raise InvalidInstanceError(f"unexpected node kind {node.kind!r}")
        if table_hist is not None:
            table_hist.observe(len(tables[-1]))

    return tables, nice


def reference_extract_solution(instance, nice, tables):
    """Top-down traceback of one witness, one recursion per tree level."""
    solution = {}

    def descend(node_idx, required):
        node = nice.nodes[node_idx]
        if node.kind == LEAF:
            return
        if node.kind == INTRODUCE:
            solution.update(required)
            child_required = {
                var: val for var, val in required.items() if var != node.vertex
            }
            descend(node.children[0], child_required)
        elif node.kind == FORGET:
            child_table = tables[node.children[0]]
            for bag_assignment in child_table:
                candidate = dict(bag_assignment)
                if all(candidate.get(var) == val for var, val in required.items()):
                    solution.update(candidate)
                    descend(node.children[0], candidate)
                    return
            raise AssertionError("traceback failed at forget node")
        elif node.kind == JOIN:
            descend(node.children[0], required)
            descend(node.children[1], required)

    descend(nice.root, dict(next(iter(tables[nice.root]))))
    domain = sorted(instance.domain, key=repr)
    for v in instance.variables:
        if v not in solution:
            solution[v] = domain[0]
    assert instance.is_solution(solution)
    return solution


def reference_solve(instance, decomposition=None, counter=None):
    tables, nice = reference_run_dp(instance, decomposition, counter)
    if tables is None or not tables[nice.root]:
        return None
    return reference_extract_solution(instance, nice, tables)


def reference_count(instance, decomposition=None, counter=None):
    tables, nice = reference_run_dp(instance, decomposition, counter)
    if tables is None:
        return 0
    return sum(tables[nice.root].values())
