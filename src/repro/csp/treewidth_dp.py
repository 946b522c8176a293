"""Freuder's algorithm: CSP by dynamic programming over a tree
decomposition (Theorem 4.2, [37]).

Given a tree decomposition of the primal graph of width k, a CSP
instance is solved in O(|V| · |D|^{k+1}): every constraint scope is a
clique of the primal graph and hence contained in some bag, so checking
constraints bag-locally is complete. The implementation runs over a
*nice* decomposition, which makes both the decision and the counting
versions four-case recurrences.

Tables are positional. Every node lists its bag's variables in one
order, fixed once: by ``repr``, ties broken by position in
``instance.variables``. A node's table maps the tuple of its bag's
values in that order to the number of extensions to the variables
forgotten below it. An introduce node inserts the new value at one
position and tests each bag-local constraint by a single ``itemgetter``
over its scope's positions; a forget node drops a position and sums; a
join probes its right child's table. Each node charges its whole count
once, before it does its work.

``solve_with_treewidth`` is the upper bound whose optimality the
paper's Theorems 6.5–6.7 establish.
"""

from __future__ import annotations

from operator import itemgetter

from ..counting import CostCounter, charge
from ..errors import InvalidInstanceError, SolverError
from ..observability.metrics import SMALL_BUCKETS, current_metrics
from ..observability.tracing import span
from ..treewidth.decomposition import TreeDecomposition
from ..treewidth.heuristics import treewidth_min_fill
from ..treewidth.nice import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    NiceNode,
    NiceTreeDecomposition,
    make_nice,
)
from .instance import CSPInstance, Value, Variable

#: A node's table: the values of its bag, in the node's variable
#: order, mapped to their number of extensions.
Table = dict[tuple[Value, ...], int]


def solve_with_treewidth(
    instance: CSPInstance,
    decomposition: TreeDecomposition | None = None,
    counter: CostCounter | None = None,
) -> dict[Variable, Value] | None:
    """Solve ``instance`` by DP over a tree decomposition.

    Parameters
    ----------
    decomposition:
        A valid tree decomposition of the primal graph; computed with
        the min-fill heuristic when omitted.

    Complexity: O(|V| · |D|^{k+1} · |C|) for decomposition width k —
        Freuder's Theorem 4.2 bound, optimal under SETH (Theorem 7.2).
    """
    with span(
        "solve_with_treewidth", counter=counter, variables=instance.num_variables
    ):
        dp = _run_dp(instance, decomposition, counter)
        if dp is None:
            return None
        return _extract_solution(instance, *dp)


def count_with_treewidth(
    instance: CSPInstance,
    decomposition: TreeDecomposition | None = None,
    counter: CostCounter | None = None,
) -> int:
    """Count solutions by the counting variant of the same DP.

    Complexity: O(|V| · |D|^{k+1} · |C|) for decomposition width k,
        same DP with multiplicities.
    """
    dp = _run_dp(instance, decomposition, counter)
    if dp is None:
        return 0
    nice, __, tables = dp
    return sum(tables[nice.root].values())


def _run_dp(
    instance: CSPInstance,
    decomposition: TreeDecomposition | None,
    counter: CostCounter | None,
) -> tuple[NiceTreeDecomposition, list[tuple[Variable, ...]], list[Table]] | None:
    """Bottom-up DP; returns ``(nice, orders, tables)``, or ``None``
    when an empty domain leaves the variables no value (no table is
    built then).

    ``tables[t]`` maps the values of node t's bag, listed in the order
    ``orders[t]``, to the number of extensions to forgotten variables
    (kept in decision mode too). The root's bag is empty, so its table
    is empty exactly when the instance is unsatisfiable.
    """
    graph = instance.primal_graph()
    if decomposition is None:
        __, decomposition = treewidth_min_fill(graph)
    decomposition.validate(graph)
    nice = make_nice(decomposition)

    # DP-shape distributions (no-op outside the experiment runtime):
    # bag sizes bound the |D|^{k+1} factor per node, table sizes are
    # the realized (often far smaller) state counts.
    registry = current_metrics()
    table_hist = None
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
        return None

    rank = _variable_ranks(instance, nice).__getitem__
    orders: list[tuple[Variable, ...]] = []
    tables: list[Table] = []
    for node in nice.nodes:
        order = tuple(sorted(node.bag, key=rank))
        if node.kind == LEAF:
            table: Table = {(): 1}
        elif node.kind == INTRODUCE:
            child_table = tables[node.children[0]]
            charge(counter, len(child_table) * len(domain))
            p = order.index(node.vertex)
            values, checks = _local_checks(instance, node, order, domain)
            singles = [(value,) for value in values]
            table = {}
            for key, ways in child_table.items():
                head, tail = key[:p], key[p:]
                for single in singles:
                    new_key = head + single + tail
                    for picked, allowed in checks:
                        if picked(new_key) not in allowed:
                            break
                    else:
                        table[new_key] = ways
        elif node.kind == FORGET:
            child = node.children[0]
            child_table = tables[child]
            charge(counter, len(child_table))
            p = orders[child].index(node.vertex)
            table = {}
            for key, ways in child_table.items():
                reduced = key[:p] + key[p + 1:]
                table[reduced] = table.get(reduced, 0) + ways
        elif node.kind == JOIN:
            left_table = tables[node.children[0]]
            right_table = tables[node.children[1]]
            charge(counter, len(left_table))
            table = {
                key: ways * right_table[key]
                for key, ways in left_table.items()
                if key in right_table
            }
        else:  # pragma: no cover - make_nice validates the node kinds
            raise InvalidInstanceError(f"unexpected node kind {node.kind!r}")
        orders.append(order)
        tables.append(table)
        if table_hist is not None:
            table_hist.observe(len(table))

    return nice, orders, tables


def _variable_ranks(
    instance: CSPInstance, nice: NiceTreeDecomposition
) -> dict[Variable, int]:
    """Each bag vertex's place in the one variable order every node
    lists its bag in: by ``repr``, ties broken by position in
    ``instance.variables``, then (for a bag vertex that is no variable)
    by the first node that introduces it."""
    position = {v: i for i, v in enumerate(instance.variables)}
    for node in nice.nodes:
        if node.kind == INTRODUCE and node.vertex not in position:
            position[node.vertex] = len(position)
    ranked = sorted(position, key=lambda v: (repr(v), position[v]))
    return {v: i for i, v in enumerate(ranked)}


def _local_checks(
    instance: CSPInstance,
    node: NiceNode,
    order: tuple[Variable, ...],
    domain: list[Value],
) -> tuple[list[Value], list[tuple[itemgetter, frozenset]]]:
    """The values the introduced vertex may take, and the constraints
    to test on each new entry, as ``(itemgetter, relation)`` pairs.

    Only constraints on the introduced vertex whose scope lies inside
    the bag are local. One whose scope holds no other variable filters
    the value list once; every other one has a scope of two or more
    positions, so its ``itemgetter`` returns a tuple to look up.
    """
    position = {u: i for i, u in enumerate(order)}
    p = position[node.vertex]
    values = domain
    checks = []
    for c in instance.constraints_on(node.vertex):
        if not node.bag.issuperset(c.scope):
            continue
        positions = [position[u] for u in c.scope]
        if positions.count(p) == len(positions):
            values = [x for x in values if (x,) * len(positions) in c.relation]
        else:
            checks.append((itemgetter(*positions), c.relation))
    return values, checks


def _extract_solution(
    instance: CSPInstance,
    nice: NiceTreeDecomposition,
    orders: list[tuple[Variable, ...]],
    tables: list[Table],
) -> dict[Variable, Value] | None:
    """Top-down traceback of one witness through the DP tables, or
    ``None`` when the root table is empty.

    An explicit stack, left child first, visits the nodes in the order
    of a recursive descent. A forget node takes the first entry of its
    child's table, in insertion order, that agrees with the values
    required of its own bag.
    """
    root_table = tables[nice.root]
    if not root_table:
        return None
    solution: dict[Variable, Value] = {}
    stack = [(nice.root, next(iter(root_table)))]
    while stack:
        idx, required = stack.pop()
        node = nice.nodes[idx]
        if node.kind == INTRODUCE:
            order = orders[idx]
            solution.update(zip(order, required))
            p = order.index(node.vertex)
            stack.append((node.children[0], required[:p] + required[p + 1:]))
        elif node.kind == FORGET:
            child = node.children[0]
            p = orders[child].index(node.vertex)
            for key in tables[child]:
                if key[:p] + key[p + 1:] == required:
                    solution.update(zip(orders[child], key))
                    stack.append((child, key))
                    break
            else:
                raise SolverError(f"traceback found no entry below forget node {idx}")
        elif node.kind == JOIN:
            left, right = node.children
            stack.append((right, required))
            stack.append((left, required))

    # Bags cover every variable and the traceback visits every node, so
    # the witness is total.
    assert instance.is_solution(solution)
    return solution
