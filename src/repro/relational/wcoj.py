"""Worst-case optimal join: Generic Join (Theorem 3.3, [54, 61]).

Generic Join evaluates one attribute at a time. For the current
attribute ``x`` it intersects the candidate value sets offered by every
atom containing ``x`` (iterating the smallest set and probing the
others), then descends with each binding. Ngo–Porat–Ré–Rudra [54] and
Veldhuizen's Leapfrog Triejoin [61] show this runs in O(N^ρ*(H)) — the
AGM bound — unlike any pairwise plan.

Both backends run one traversal,
:func:`~repro.relational.kernels.walk_generic_join`: an explicit stack
with one frame per bound attribute, over tries that index each atom's
tuples by every prefix of the attribute order (dicts on the naive
backend, sorted arrays on the columnar one). Each frame holds every
atom's current trie node, so extending a binding is one O(1) descent,
never a re-walk from the root, and no query is too long for the
interpreter's recursion limit. Materialization, semiring folding and
first-witness search are the kernel module's three entry points over
that one walk, called alike for either backend; this module checks the
order and builds its per-attribute atom lists and trie keys in one
linear pass.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..counting import CostCounter
from ..errors import SchemaError
from .database import Database
from .kernels import (
    aggregate_columnar,
    boolean_generic_join_columnar,
    generic_join_columnar,
)
from .query import JoinQuery
from .relation import Relation
from .semiring import Semiring


def _validate(
    query: JoinQuery,
    database: Database,
    attribute_order: Sequence[str] | None,
) -> tuple[tuple[str, ...], list[list[int]], list[tuple[int, ...]]]:
    """Shared validation and set-up for every entry point and both
    backends, linear in the query's size.

    Raises :class:`SchemaError` when the order is not a permutation of
    the query's attributes or an ordered attribute occurs in no atom —
    the same contract whether the caller wants the full answer or only
    emptiness. Returns the order, the atoms
    containing each ordered attribute (in atom order), and each atom's
    columns sorted by the order (its trie key).
    """
    query.validate_against(database)
    order = tuple(attribute_order) if attribute_order is not None else query.attributes
    if sorted(order) != sorted(query.attributes):
        raise SchemaError(
            f"attribute order {order} is not a permutation of {query.attributes}"
        )
    index = {attribute: pos for pos, attribute in enumerate(order)}
    relevant: list[list[int]] = [[] for _ in order]
    positions = []
    for i, atom in enumerate(query.atoms):
        ranks = [index[a] for a in atom.attributes]
        positions.append(tuple(sorted(range(atom.arity), key=ranks.__getitem__)))
        for pos in ranks:
            relevant[pos].append(i)
    for pos, atoms in enumerate(relevant):
        if not atoms:
            raise SchemaError(f"attribute {order[pos]!r} occurs in no atom")
    return order, relevant, positions


def generic_join(
    query: JoinQuery,
    database: Database,
    attribute_order: Sequence[str] | None = None,
    counter: CostCounter | None = None,
) -> Relation:
    """Evaluate ``query`` with Generic Join; returns the full answer.

    Parameters
    ----------
    attribute_order:
        The global variable order; defaults to the query's attribute
        order. Any order is worst-case optimal; good orders improve
        constants (ablated in benchmarks).

    Complexity: O(N^rho*(H)) data complexity — the AGM bound — with
    O(1) work per probe (one trie-edge descent per relevant atom).
    """
    order, relevant, positions = _validate(query, database, attribute_order)
    return generic_join_columnar(query, database, order, relevant, positions, counter)


def generic_join_aggregate(
    query: JoinQuery,
    database: Database,
    semiring: Semiring,
    attribute_order: Sequence[str] | None = None,
    counter: CostCounter | None = None,
    annotate=None,
) -> object:
    """SumProd by Generic Join: ⊕ over full answers of their ⊗-weights,
    accumulated during the traversal — no answer relation ever exists.

    The generic sum-product core for cyclic queries: identical
    traversal, charges and instrumentation to :func:`generic_join`,
    but each complete assignment folds into a running semiring
    accumulator instead of being materialized. With the counting
    instance this computes |Q(D)|, with boolean non-emptiness (without
    the early exit — use :func:`boolean_generic_join` for that), with
    min-plus the cheapest witness, with provenance the full lineage
    polynomial. Values equal :func:`~repro.relational.semiring.aggregate_relation`
    over the materialized answer byte for byte (the repo invariant).

    Parameters
    ----------
    annotate:
        Optional ``(relation_name, tuple) -> value`` override of the
        semiring's default per-tuple annotation. Passing one disables
        the annotation-free fast path, which only counts answers.

    Complexity: O(N^rho*(H)) data complexity — the AGM bound — with
    O(1) extra work per answer.
    """
    order, relevant, positions = _validate(query, database, attribute_order)
    return aggregate_columnar(
        query, database, semiring, order, relevant, positions, counter, annotate
    )


def boolean_generic_join(
    query: JoinQuery,
    database: Database,
    attribute_order: Sequence[str] | None = None,
    counter: CostCounter | None = None,
) -> bool:
    """Decide emptiness of the answer (Boolean Join Query) by Generic
    Join with early exit on the first witness: the walk seeks one
    match at a time and stops at its first answer.

    On empty answers the walk runs to the end and charges exactly what
    :func:`generic_join` charges; otherwise it charges only the
    candidates examined up to the witness.

    Complexity: O(N^rho*(H)) worst case (AGM bound), O(1) per probe;
    exits on the first satisfying assignment.
    """
    _, relevant, positions = _validate(query, database, attribute_order)
    return boolean_generic_join_columnar(query, database, relevant, positions, counter)
