"""Yannakakis' algorithm for α-acyclic queries.

The polynomial-time case the paper contrasts with cyclic queries: a
full reducer pass of semijoins along a join tree (leaves up, then root
down) removes every dangling tuple, after which joining bottom-up never
materializes more than |answer| · poly tuples.

The tree bookkeeping and the reducer sweep are shared with the other
acyclic evaluators (:mod:`~repro.relational.enumeration`,
:mod:`~repro.relational.factorized`) via :func:`tree_links`,
:func:`leaves_first` and :func:`semijoin_reduce`, so every path runs
the *same* leaves-first-then-root-down pass, along the join forest the
router's plan carries.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from ..counting import CostCounter, charge
from ..errors import SchemaError
from ..hypergraph.acyclicity import Links, gyo
from . import kernels
from .algebra import project, semijoin
from .database import Database
from .joins import hash_join
from .query import JoinQuery
from .relation import Relation
from .semiring import Semiring


def join_forest(query: JoinQuery) -> Links:
    """The join forest of ``query``'s hypergraph (SchemaError if cyclic)."""
    reduction = gyo(query.hypergraph())
    if reduction.residue:
        raise SchemaError("the query is not alpha-acyclic: it has no join forest")
    return reduction.forest()


def tree_links(
    num_nodes: int, links: Links
) -> tuple[dict[int, list[int]], dict[int, int], list[int]]:
    """Children/parent/roots bookkeeping for a join forest.

    ``links`` is the ``(child, parent)`` edge list returned by
    :func:`~repro.hypergraph.acyclicity.join_tree`; nodes are edge
    indices ``0..num_nodes-1``. Returns ``(children, parent, roots)``
    with ``children`` defined (possibly empty) for every node.
    """
    children: dict[int, list[int]] = {i: [] for i in range(num_nodes)}
    parent: dict[int, int] = {}
    for child, par in links:
        children[par].append(child)
        parent[child] = par
    roots = [i for i in range(num_nodes) if i not in parent]
    return children, parent, roots


def leaves_first(children: dict[int, list[int]], roots: list[int]) -> list[int]:
    """Nodes ordered so children always precede parents."""
    order: list[int] = []
    stack = [(r, False) for r in roots]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in children[node])
    return order


def semijoin_reduce(
    relations: list,
    children: dict[int, list[int]],
    roots: list[int],
    semi: Callable,
    counter: CostCounter | None = None,
    *,
    downward: bool = True,
    stop_when_empty: bool = False,
) -> bool:
    """The full-reducer sweep, shared by every acyclic evaluator.

    Mutates ``relations`` in place: an upward (leaves-first) pass of
    ``parent ⋉ child`` semijoins, then — when ``downward`` — the
    mirrored root-down ``child ⋉ parent`` pass. The upward pass alone
    makes the roots dangling-free (enough for the boolean answer); both
    passes make *every* bag dangling-free, which projection and
    enumeration rely on.

    Returns ``False`` (stopping early) if ``stop_when_empty`` and some
    bag empties — the answer is certainly empty; ``True`` otherwise.
    """
    bottom_up = leaves_first(children, roots)
    for node in bottom_up:
        for child in children[node]:
            relations[node] = semi(relations[node], relations[child], counter)
            if stop_when_empty and not len(relations[node]):
                return False
    if downward:
        for node in reversed(bottom_up):
            for child in children[node]:
                relations[child] = semi(relations[child], relations[node], counter)
    return True


def _atom_views(query: JoinQuery, database: Database) -> list:
    """Per-atom columnar views (cached tables relabeled to query attrs)."""
    state = database.kernels
    return [
        kernels.atom_view(
            state, database.relation(atom.relation_name), atom.attributes
        )
        for atom in query.atoms
    ]


def backend_relations(
    query: JoinQuery, database: Database
) -> tuple[list, Callable, Callable]:
    """Per-atom relations plus the matching ``(semijoin, join)`` kernels.

    The naive and columnar backends expose op-count-identical semijoin
    and join primitives; this helper picks the pair so callers stay
    backend-agnostic.
    """
    if database.backend == "columnar":
        return _atom_views(query, database), kernels.semijoin, kernels.pairwise_join
    relations = [query.bound_relation(atom, database) for atom in query.atoms]
    return relations, semijoin, hash_join


@dataclass
class ReducedForest:
    """A semijoin-reduced join forest, ready for joining or a DP sweep.

    ``relations`` are the per-atom backend relations after the reducer
    pass (mutated in place); ``semi``/``join`` are the backend's
    kernels; ``alive`` is ``False`` when ``stop_when_empty`` tripped
    (the answer is certainly empty).
    """

    relations: list
    children: dict[int, list[int]]
    roots: list[int]
    semi: Callable
    join: Callable
    alive: bool


def reduced_join_forest(
    query: JoinQuery,
    database: Database,
    counter: CostCounter | None = None,
    *,
    links: Links | None = None,
    downward: bool = True,
    stop_when_empty: bool = False,
) -> ReducedForest:
    """Backend relations + join forest + full-reducer sweep, in one call.

    The shared front half of every acyclic evaluator — full and
    boolean Yannakakis, the semiring DP, and the factorized build all
    start with exactly this sequence (``backend_relations`` →
    ``tree_links`` → :func:`semijoin_reduce`). Charges are identical
    to running the parts by hand: this helper adds no operations of
    its own (the op-count-parity test pins that).

    Parameters
    ----------
    links:
        The join forest to sweep along, as the router's plan carries it
        (:class:`~repro.relational.router.RouteDecision`); the
        factorized build passes its extended forest without the free
        edge. By default :func:`join_forest` derives the query's own.
    """
    relations, semi, join = backend_relations(query, database)
    links = links if links is not None else join_forest(query)
    children, __, roots = tree_links(len(relations), links)
    alive = semijoin_reduce(
        relations,
        children,
        roots,
        semi,
        counter,
        downward=downward,
        stop_when_empty=stop_when_empty,
    )
    return ReducedForest(relations, children, roots, semi, join, alive)


def yannakakis(
    query: JoinQuery,
    database: Database,
    counter: CostCounter | None = None,
    project_to: tuple[str, ...] | None = None,
    *,
    links: Links | None = None,
) -> Relation:
    """Evaluate an α-acyclic ``query`` with the Yannakakis algorithm.

    Parameters
    ----------
    project_to:
        Optionally project the final answer to these attributes (free
        variables); defaults to all query attributes (full join).
    links:
        The query's join forest from the caller's plan
        (:func:`reduced_join_forest`).

    Raises
    ------
    SchemaError
        If no ``links`` are given and the query hypergraph is not
        α-acyclic.
    """
    query.validate_against(database)
    columnar = database.backend == "columnar"
    forest = reduced_join_forest(
        query, database, counter, links=links, downward=True
    )
    relations, children, roots = forest.relations, forest.children, forest.roots
    join = forest.join

    # Bottom-up join; after full reduction intermediates stay bounded by
    # the final answer size times the number of atoms.
    bottom_up = leaves_first(children, roots)
    joined: dict = {}
    for node in bottom_up:
        current = relations[node]
        for child in children[node]:
            current = join(current, joined[child], counter)
        joined[node] = current

    answer = joined[roots[0]]
    for extra_root in roots[1:]:
        answer = join(answer, joined[extra_root], counter)

    attrs = project_to if project_to is not None else query.attributes
    if columnar:
        return kernels.to_relation(
            kernels.project_view(answer, attrs), database.kernels.interner, "answer"
        )
    return project(
        Relation("answer", answer.attributes, answer.tuples), attrs, name="answer"
    )


def boolean_yannakakis(
    query: JoinQuery,
    database: Database,
    counter: CostCounter | None = None,
    *,
    links: Links | None = None,
) -> bool:
    """Decide answer non-emptiness for an α-acyclic query.

    Only the upward semijoin pass is needed: the answer is nonempty iff
    every fully-reduced relation is nonempty. ``links`` is the query's
    join forest from the caller's plan (:func:`reduced_join_forest`).

    Complexity: O(‖D‖ · |A|) data complexity — one upward semijoin
    sweep over the join tree, |A| atoms, no materialization.
    """
    query.validate_against(database)
    forest = reduced_join_forest(
        query, database, counter, links=links, downward=False, stop_when_empty=True
    )
    if not forest.alive:
        return False
    return all(len(forest.relations[r]) for r in forest.roots)


def semiring_yannakakis(
    query: JoinQuery,
    database: Database,
    semiring: Semiring,
    counter: CostCounter | None = None,
    annotate=None,
    *,
    links: Links | None = None,
) -> object:
    """SumProd over an α-acyclic full query by message passing along a
    join tree — the semiring generalization of Yannakakis.

    Per node ``j`` and surviving tuple ``t``,

        val_j(t) = ann_j(t) ⊗ ⨂_{c child of j} ⨁_{t' ∈ R_c, t' ~ t} val_c(t')

    computed leaves-first; the query's SumProd value is the product
    over tree roots of their tuple sums. Distributivity makes this
    equal — value-identical, byte for byte on canonical values — to
    folding the materialized answer flat, without ever joining.
    Per-group ⊕-folds go through the per-semiring vectorized
    :func:`~repro.relational.kernels.segment_fold` (``np.add.reduceat``
    segment sums for counting, ``np.minimum.reduceat`` for min-plus).
    ``links`` is the query's join forest from the caller's plan
    (:func:`reduced_join_forest`).

    Complexity: O(‖D‖ · |A|) data complexity — one upward semijoin
    sweep plus one DP pass touching each tuple once per tree edge.
    """
    query.validate_against(database)
    columnar = database.backend == "columnar"
    forest = reduced_join_forest(
        query, database, counter, links=links, downward=False
    )
    if columnar:
        relations = [
            kernels.to_relation(
                view, database.kernels.interner, query.atoms[i].relation_name
            )
            for i, view in enumerate(forest.relations)
        ]
    else:
        relations = forest.relations

    ann = annotate if annotate is not None else semiring.annotate
    trivial = annotate is None and semiring.annotation_free
    one, zero, mul = semiring.one, semiring.zero, semiring.mul

    values: dict[int, dict[tuple, object]] = {}
    for node in leaves_first(forest.children, forest.roots):
        rel = relations[node]
        name = query.atoms[node].relation_name
        node_vals: dict[tuple, object] = {}
        for t in rel.tuples:
            charge(counter)
            node_vals[t] = one if trivial else ann(name, t)
        for child in forest.children[node]:
            crel = relations[child]
            shared = [a for a in crel.attributes if a in rel.attributes]
            cpos = [crel.position(a) for a in shared]
            buckets: dict[tuple, list] = {}
            for t, v in values.pop(child).items():
                buckets.setdefault(tuple(t[p] for p in cpos), []).append(v)
            flat: list = []
            starts: list[int] = []
            for group in buckets.values():
                starts.append(len(flat))
                flat.extend(group)
            folded = kernels.segment_fold(
                semiring, kernels.value_array(semiring, flat), starts
            )
            message = dict(zip(buckets, folded.tolist()))
            ppos = [rel.position(a) for a in shared]
            for t in node_vals:
                charge(counter)
                incoming = message.get(tuple(t[p] for p in ppos), zero)
                node_vals[t] = mul(node_vals[t], incoming)
        values[node] = node_vals

    result = one
    for root in forest.roots:
        totals = list(values[root].values())
        if not totals:
            return zero
        total = kernels.segment_fold(
            semiring, kernels.value_array(semiring, totals), [0]
        )
        result = mul(result, total.tolist()[0])
    return result

