"""Backtracking search with MRV and forward checking.

The practical general-purpose solver: picks the variable with the
fewest remaining values (minimum remaining values), assigns, and prunes
neighbor domains through each touched constraint (forward checking).
Optionally preceded by GAC-3. Both heuristics can be switched off for
the ablation benchmark.
"""

from __future__ import annotations

from ..counting import CostCounter, charge
from ..observability.metrics import SMALL_BUCKETS, current_metrics
from ..observability.tracing import span
from .consistency import enforce_gac, initial_domains
from .instance import CSPInstance, Value, Variable


def solve_backtracking(
    instance: CSPInstance,
    counter: CostCounter | None = None,
    use_mrv: bool = True,
    use_forward_checking: bool = True,
    preprocess_gac: bool = False,
    maintain_gac: bool = False,
) -> dict[Variable, Value] | None:
    """Solve by backtracking; returns an assignment or ``None``.

    ``maintain_gac`` turns the search into MAC (maintained arc
    consistency): GAC-3 re-runs after every assignment. Much stronger
    pruning on propagation-heavy instances (e.g. coloring gadget
    graphs) at a higher per-node cost.

    Complexity: O(|D|^{|V|}) worst case; with MAC, each node also pays
        one GAC-3 pass, O(Σ_C |R_C| · arity(C)) per assignment.
    """
    if preprocess_gac or maintain_gac:
        domains = enforce_gac(instance, None, counter)
        if domains is None:
            return None
    else:
        domains = initial_domains(instance)

    assignment: dict[Variable, Value] = {}
    constraints_of = {
        v: instance.constraints_on(v) for v in instance.variables
    }

    # Search-shape distributions (no-op outside the experiment
    # runtime): how many children each node actually expands, and how
    # deep the search is when it falls back — the two quantities that
    # separate a near-backtrack-free run from thrashing.
    registry = current_metrics()
    branch_hist = backtrack_hist = node_counter = None
    if registry is not None:
        branch_hist = registry.histogram("backtracking.branching_factor", SMALL_BUCKETS)
        backtrack_hist = registry.histogram("backtracking.backtrack_depth", SMALL_BUCKETS)
        node_counter = registry.counter("backtracking.nodes")

    def pick_variable() -> Variable:
        unassigned = [v for v in instance.variables if v not in assignment]
        if use_mrv:
            return min(unassigned, key=lambda v: len(domains[v]))
        return unassigned[0]

    def scope_trial(c, extra_var: Variable, extra_val: Value) -> dict:
        """The assignment restricted to c's scope, plus one trial pair.
        Scopes are tiny, so this avoids copying the full assignment."""
        trial = {v: assignment[v] for v in c.scope if v in assignment}
        trial[extra_var] = extra_val
        return trial

    def consistent(variable: Variable, value: Value) -> bool:
        return all(
            c.consistent_with(scope_trial(c, variable, value))
            for c in constraints_of[variable]
        )

    def forward_check(variable: Variable) -> list[tuple[Variable, Value]] | None:
        """Prune neighbor domains; returns removals for undo, or None
        if some domain emptied."""
        removals: list[tuple[Variable, Value]] = []
        for c in constraints_of[variable]:
            for other in c.variables():
                if other in assignment:
                    continue
                for value in list(domains[other]):
                    charge(counter)
                    if not c.consistent_with(scope_trial(c, other, value)):
                        domains[other].discard(value)
                        removals.append((other, value))
                if not domains[other]:
                    for var, val in removals:
                        domains[var].add(val)
                    return None
        return removals

    def backtrack() -> dict[Variable, Value] | None:
        """Depth-first search with an explicit stack, one frame per
        assigned variable plus the one being tried: ``[variable, its
        values in order, next value, children expanded, undo]``, where
        ``undo`` restores what the child in progress changed (MAC: the
        domains before propagation; forward checking: the removals) and
        is ``None`` between children."""
        nonlocal domains
        stack: list[list] = []
        descend = True
        while True:
            if descend:
                if len(assignment) == instance.num_variables:
                    return dict(assignment)
                if node_counter is not None:
                    node_counter.inc()
                variable = pick_variable()
                stack.append([variable, sorted(domains[variable], key=repr), 0, 0, None])
            frame = stack[-1]
            variable, values, index, children_expanded, undo = frame
            if undo is not None:
                # The child in progress found nothing: take it back.
                if maintain_gac:
                    domains = undo
                else:
                    for var, val in undo:
                        domains[var].add(val)
                del assignment[variable]
                undo = None
            descend = False
            while index < len(values):
                value = values[index]
                index += 1
                charge(counter)
                if not consistent(variable, value):
                    continue
                children_expanded += 1
                assignment[variable] = value
                if maintain_gac:
                    snapshot = domains
                    pinned = {v: set(vals) for v, vals in domains.items()}
                    pinned[variable] = {value}
                    propagated = enforce_gac(instance, pinned, counter)
                    if propagated is not None:
                        domains, undo, descend = propagated, snapshot, True
                        break
                else:
                    removals: list[tuple[Variable, Value]] | None = []
                    if use_forward_checking:
                        removals = forward_check(variable)
                    if removals is not None:
                        undo, descend = removals, True
                        break
                del assignment[variable]
            frame[2:] = index, children_expanded, undo
            if not descend:
                if branch_hist is not None:
                    branch_hist.observe(children_expanded)
                    backtrack_hist.observe(len(assignment))
                stack.pop()
                if not stack:
                    return None

    with span(
        "solve_backtracking",
        counter=counter,
        variables=instance.num_variables,
        mrv=use_mrv,
        forward_checking=use_forward_checking,
    ):
        return backtrack()
