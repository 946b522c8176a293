"""CSP instances I = (V, D, C) (§2.2).

A constraint is a pair ⟨scope, relation⟩: the scope is a tuple of
variables, the relation the set of allowed value tuples. The instance
records the shared domain D (per the paper's definition); solvers may
internally shrink per-variable domains, but the instance itself is the
immutable problem statement.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from ..errors import InvalidInstanceError
from ..graphs.graph import Graph
from ..hypergraph.hypergraph import Hypergraph

Variable = Hashable
Value = Hashable


class Constraint:
    """One constraint ⟨s_i, R_i⟩.

    Examples
    --------
    >>> c = Constraint(("x", "y"), {(0, 1), (1, 0)})   # x ≠ y over {0,1}
    >>> c.satisfied_by({"x": 0, "y": 1})
    True
    """

    def __init__(self, scope: Iterable[Variable], relation: Iterable[tuple[Value, ...]]) -> None:
        self.scope: tuple[Variable, ...] = tuple(scope)
        if not self.scope:
            raise InvalidInstanceError("constraint scope cannot be empty")
        self.relation: frozenset[tuple[Value, ...]] = frozenset(
            tuple(t) for t in relation
        )
        for t in self.relation:
            if len(t) != len(self.scope):
                raise InvalidInstanceError(
                    f"tuple {t!r} does not match scope arity {len(self.scope)}"
                )

    @property
    def arity(self) -> int:
        return len(self.scope)

    @property
    def is_binary(self) -> bool:
        return self.arity == 2

    def variables(self) -> set[Variable]:
        return set(self.scope)

    def satisfied_by(self, assignment: Mapping[Variable, Value]) -> bool:
        """True if the (total on scope) assignment picks an allowed tuple."""
        try:
            picked = tuple(assignment[v] for v in self.scope)
        except KeyError as missing:
            raise InvalidInstanceError(f"assignment misses variable {missing}") from None
        return picked in self.relation

    def consistent_with(self, partial: Mapping[Variable, Value]) -> bool:
        """True if some allowed tuple agrees with the partial assignment."""
        bound = [(i, partial[v]) for i, v in enumerate(self.scope) if v in partial]
        if len(bound) == len(self.scope):
            return tuple(partial[v] for v in self.scope) in self.relation
        return any(all(t[i] == val for i, val in bound) for t in self.relation)

    def supports(self, variable: Variable, value: Value, domains: Mapping[Variable, set[Value]]) -> bool:
        """Generalized-arc-consistency support test: does some allowed
        tuple assign ``value`` to ``variable`` and values from the
        current ``domains`` to every other scope variable?"""
        positions = [i for i, v in enumerate(self.scope) if v == variable]
        if not positions:
            raise InvalidInstanceError(f"{variable!r} not in scope {self.scope}")
        for t in self.relation:
            if any(t[i] != value for i in positions):
                continue
            if all(
                t[i] in domains[v]
                for i, v in enumerate(self.scope)
                if v != variable
            ):
                return True
        return False

    def __repr__(self) -> str:
        return f"Constraint(scope={self.scope}, |relation|={len(self.relation)})"


class CSPInstance:
    """An instance I = (V, D, C).

    Parameters
    ----------
    variables:
        The ordered variable set V.
    domain:
        The shared domain D.
    constraints:
        The constraint set C; every scope variable must be in V.
    """

    def __init__(
        self,
        variables: Iterable[Variable],
        domain: Iterable[Value],
        constraints: Iterable[Constraint] = (),
    ) -> None:
        self.variables: tuple[Variable, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise InvalidInstanceError("duplicate variables in V")
        self.domain: frozenset[Value] = frozenset(domain)
        self.constraints: tuple[Constraint, ...] = tuple(constraints)
        # Each variable's constraints, in instance order, indexed once.
        self._constraints_of: dict[Variable, list[Constraint]] = {
            v: [] for v in self.variables
        }
        for c in self.constraints:
            scope = c.variables()
            unknown = scope - self._constraints_of.keys()
            if unknown:
                raise InvalidInstanceError(
                    f"constraint scope mentions unknown variables {sorted(map(repr, unknown))}"
                )
            for v in scope:
                self._constraints_of[v].append(c)

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def domain_size(self) -> int:
        return len(self.domain)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def is_binary(self) -> bool:
        """True iff every constraint is binary (footnote 1 of the paper:
        binary refers to constraint arity, not domain size)."""
        return all(c.is_binary for c in self.constraints)

    def primal_graph(self) -> Graph:
        """The Gaifman graph: variables adjacent iff they co-occur."""
        graph = Graph(vertices=self.variables)
        for c in self.constraints:
            scope = sorted(c.variables(), key=repr)
            for i, u in enumerate(scope):
                for v in scope[i + 1:]:
                    graph.add_edge(u, v)
        return graph

    def hypergraph(self) -> Hypergraph:
        """One hyperedge per constraint scope."""
        return Hypergraph(
            vertices=self.variables,
            edges=[c.variables() for c in self.constraints],
        )

    def is_solution(self, assignment: Mapping[Variable, Value]) -> bool:
        """Check a total assignment against all constraints and the domain."""
        for v in self.variables:
            if v not in assignment:
                return False
            if assignment[v] not in self.domain:
                return False
        return all(c.satisfied_by(assignment) for c in self.constraints)

    def restrict(self, keep: Iterable[Variable]) -> "CSPInstance":
        """The sub-instance induced by ``keep``: keeps constraints whose
        scope lies entirely inside ``keep``.

        Used by the Special CSP solver (§4) to split an instance along
        connected components of the primal graph; for component splits
        no constraint crosses, so this is lossless.
        """
        keep_set = set(keep)
        kept_vars = tuple(v for v in self.variables if v in keep_set)
        kept_constraints = [
            c for c in self.constraints if c.variables() <= keep_set
        ]
        return CSPInstance(kept_vars, self.domain, kept_constraints)

    def constraints_on(self, variable: Variable) -> list[Constraint]:
        """All constraints whose scope contains ``variable``, in instance
        order, from the index the constructor builds."""
        return list(self._constraints_of.get(variable, ()))

    def __repr__(self) -> str:
        return (
            f"CSPInstance(|V|={self.num_variables}, |D|={self.domain_size}, "
            f"|C|={self.num_constraints})"
        )
