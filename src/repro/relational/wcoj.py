"""Worst-case optimal join: Generic Join (Theorem 3.3, [54, 61]).

Generic Join evaluates one attribute at a time. For the current
attribute ``x`` it intersects the candidate value sets offered by every
atom containing ``x`` (iterating the smallest set and probing the
others), then recurses with each binding. Ngo–Porat–Ré–Rudra [54] and
Veldhuizen's Leapfrog Triejoin [61] show this runs in O(N^ρ*(H)) — the
AGM bound — unlike any pairwise plan.

The implementation indexes each atom's tuples by every prefix of the
chosen attribute order (a hash-trie) and threads each atom's current
trie node down the recursion, so candidate sets and filters are O(1)
per probe — no per-probe re-walk from the trie root. Materialization,
semiring folding and first-witness search are sinks over that one walk.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..counting import CostCounter, charge
from ..errors import SchemaError
from ..observability.metrics import SMALL_BUCKETS, current_metrics
from ..observability.tracing import span
from .database import Database
from .kernels import (
    aggregate_columnar,
    boolean_generic_join_columnar,
    generic_join_columnar,
)
from .query import JoinQuery
from .relation import Relation, Value
from .semiring import Semiring, annotation_positions, fold_tuple


def _validate(
    query: JoinQuery,
    database: Database,
    attribute_order: Sequence[str] | None,
) -> tuple[tuple[str, ...], list[list[int]]]:
    """Shared validation for every entry point and both backends.

    Raises :class:`SchemaError` when the order is not a permutation of
    the query's attributes or an ordered attribute occurs in no atom —
    the same contract whether the caller wants the full answer or only
    emptiness.
    """
    query.validate_against(database)
    order = tuple(attribute_order) if attribute_order is not None else query.attributes
    if sorted(order) != sorted(query.attributes):
        raise SchemaError(
            f"attribute order {order} is not a permutation of {query.attributes}"
        )
    atom_attrs = [set(atom.attributes) for atom in query.atoms]
    # For each position in the order, the atoms whose attribute set
    # contains that attribute.
    relevant: list[list[int]] = [
        [i for i, attrs in enumerate(atom_attrs) if order[pos] in attrs]
        for pos in range(len(order))
    ]
    for pos, atoms_here in enumerate(relevant):
        if not atoms_here:
            raise SchemaError(f"attribute {order[pos]!r} occurs in no atom")
    return order, relevant


def _walk(
    query: JoinQuery,
    database: Database,
    order: tuple[str, ...],
    relevant: list[list[int]],
    counter: CostCounter | None,
    sink,
    span_name: str,
) -> int:
    """The naive backend's one Generic Join traversal.

    Hands every answer to ``sink(prefix)`` — ``prefix`` the live list of
    values bound for ``order`` (copy it to keep it). A sink that returns
    a true value stops the walk. Materialization, semiring folding and
    first-witness search are the three sinks over this one traversal,
    which is what keeps their charge streams identical unit for unit:
    one per candidate examined, per trie-edge descent and per answer.
    The walk examines candidates one at a time, so a stopped walk pays
    only for what it examined. Returns the number of answers emitted.
    """
    # Each atom's current trie node, threaded down the recursion: an
    # atom's node always sits at depth = number of its own attributes
    # bound so far, so extending a binding is a single O(1) dict hop
    # (charged below) instead of an O(depth) re-walk from the root. The
    # tries come from the database's kernel-state cache, keyed by
    # (relation, column positions) and the relation's version.
    nodes: list[dict] = []
    for atom in query.atoms:
        positions = tuple(
            atom.attributes.index(a) for a in order if a in atom.attributes
        )
        relation = database.relation(atom.relation_name)
        nodes.append(database.kernels.hash_trie(relation, positions))

    # Distribution instrumentation (no-op outside the experiment
    # runtime): probes charged between consecutive answers, and the
    # size of the smallest candidate set at each trie descent. Ngo's
    # survey point: a WCOJ execution is certified by the *distribution*
    # of probes per answer staying flat, not by the total.
    registry = current_metrics()
    probe_hist = candidate_hist = None
    if registry is not None:
        probe_hist = registry.histogram("wcoj.probes_per_answer", SMALL_BUCKETS)
        candidate_hist = registry.histogram("wcoj.candidate_set_size")
        registry.counter("wcoj.joins").inc()
    nattrs = len(order)
    prefix: list[Value] = []
    probes_since_answer = 0
    emitted = 0

    def recurse(pos: int) -> bool:
        """Walk the subtree below ``pos``; True once the sink stopped."""
        nonlocal probes_since_answer, emitted
        if pos == nattrs:
            charge(counter)
            emitted += 1
            if probe_hist is not None:
                probe_hist.observe(probes_since_answer)
                probes_since_answer = 0
            return bool(sink(prefix))
        atoms_here = relevant[pos]
        # Candidate sets: children of each relevant atom's current node.
        # Intersect, iterating the smallest set and probing the rest.
        candidate_nodes = sorted((nodes[i] for i in atoms_here), key=len)
        smallest, rest = candidate_nodes[0], candidate_nodes[1:]
        if candidate_hist is not None:
            candidate_hist.observe(len(smallest))
        for value in smallest:
            charge(counter)
            probes_since_answer += 1
            if all(value in other for other in rest):
                saved = [nodes[i] for i in atoms_here]
                for i in atoms_here:
                    charge(counter)
                    nodes[i] = nodes[i][value]
                prefix.append(value)
                stopped = recurse(pos + 1)
                prefix.pop()
                for i, node in zip(atoms_here, saved):
                    nodes[i] = node
                if stopped:
                    return True
        return False

    with span(span_name, counter=counter, atoms=len(nodes), attrs=nattrs):
        recurse(0)
    if registry is not None:
        registry.counter("wcoj.answers").inc(emitted)
    return emitted


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
    order, relevant = _validate(query, database, attribute_order)
    if database.backend == "columnar":
        return generic_join_columnar(query, database, order, relevant, counter)
    answer = Relation("answer", order)

    def sink(prefix: list[Value]) -> None:
        answer.add(prefix)

    _walk(query, database, order, relevant, counter, sink, "generic_join")
    return answer


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
        the annotation-free block fast path in the columnar kernel.

    Complexity: O(N^rho*(H)) data complexity — the AGM bound — with
    O(1) extra work per answer.
    """
    order, relevant = _validate(query, database, attribute_order)
    if database.backend == "columnar":
        return aggregate_columnar(
            query, database, semiring, order, relevant, counter, annotate
        )
    plan = annotation_positions(query, order)
    trivial = annotate is None and semiring.annotation_free
    add = semiring.add
    one = semiring.one
    acc = semiring.zero

    def sink(prefix: list[Value]) -> None:
        nonlocal acc
        if trivial:
            acc = add(acc, one)
        else:
            acc = add(acc, fold_tuple(semiring, plan, tuple(prefix), annotate))

    _walk(query, database, order, relevant, counter, sink, "generic_join_aggregate")
    return acc


def boolean_generic_join(
    query: JoinQuery,
    database: Database,
    attribute_order: Sequence[str] | None = None,
    counter: CostCounter | None = None,
) -> bool:
    """Decide emptiness of the answer (Boolean Join Query) by Generic
    Join with early exit on the first witness: a sink that stops the
    walk at its first answer.

    On empty answers the walk runs to the end and charges exactly what
    :func:`generic_join` charges; otherwise it charges only the
    candidates examined up to the witness.

    Complexity: O(N^rho*(H)) worst case (AGM bound), O(1) per probe;
    exits on the first satisfying assignment.
    """
    order, relevant = _validate(query, database, attribute_order)
    if database.backend == "columnar":
        return boolean_generic_join_columnar(query, database, order, relevant, counter)
    emitted = _walk(
        query,
        database,
        order,
        relevant,
        counter,
        lambda prefix: True,
        "boolean_generic_join",
    )
    return emitted > 0
