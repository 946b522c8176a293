"""Factorized query results: d-representations and the free-connex dichotomy.

The §4–§5 size bounds only tell half the story while answers are
materialized flat: a *d-representation* — a DAG of union and product
nodes over attribute/value leaves — can be exponentially smaller than
the answer set it denotes. Berkholz's dichotomy (PAPERS.md, *Factorised
Representations of Join Queries*) pins down exactly when that pays off:

* **free-connex acyclic** queries (the query hypergraph *and* the
  hypergraph extended with one hyperedge over the free variables are
  both α-acyclic) admit a linear-size d-representation, built here by
  one semijoin-reduced Yannakakis pass over a join tree of the extended
  hypergraph, from which :meth:`FactorizedResult.enumerate` yields
  answers with constant delay and :meth:`FactorizedResult.count` counts
  them without enumeration;
* everything else falls back to worst-case-optimal materialization
  (:func:`~repro.relational.wcoj.generic_join`) — the
  :func:`evaluate` router implements exactly this dichotomy, and the
  BMM reduction in :mod:`repro.reductions.bmm_to_enumeration` is the
  matching conditional lower bound.

Construction sketch (all steps charged to the ``CostCounter``):

1. Build ``T+``, a join tree of the extended hypergraph, re-rooted at
   the free-variable edge ``F``. By the running intersection property
   every subtree hanging off a depth-1 atom contributes no free
   variables of its own, so a single leaves-first semijoin sweep
   absorbs it into its depth-1 ancestor as a pure filter.
2. Project each depth-1 atom to its free variables. The projections
   form a *derived* full join query over the free variables whose
   answer is exactly π_F(Q); its hypergraph is again α-acyclic, so a
   standard full reducer makes it globally consistent.
3. Fold the reduced derived query into a memoized union/product DAG:
   one union node per (atom, parent-key) pair, one product node per
   tuple (a child's product is spliced into its parent's, never
   nested), one leaf per fresh attribute block. Distinct tuples behind a
   key differ on the fresh attributes, so union branches are disjoint
   and counting is a sum/product sweep over the DAG.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from ..counting import CostCounter, charge
from ..errors import InvalidInstanceError, SchemaError
from ..hypergraph.acyclicity import is_alpha_acyclic, join_tree
from ..hypergraph.hypergraph import Hypergraph
from ..observability.metrics import SMALL_BUCKETS, inc, observe
from .algebra import project
from .database import Database
from .query import JoinQuery
from .relation import Relation, Value
from .semiring import COUNTING, Semiring, aggregate_relation, fold_tuple
from .wcoj import generic_join
from . import kernels
from .yannakakis import reduced_join_forest, semijoin_reduce, tree_links


# -- d-representation nodes -------------------------------------------


class _Leaf:
    """A block of attribute/value bindings: one singleton relation."""

    __slots__ = ("attributes", "values")

    def __init__(self, attributes: tuple[str, ...], values: tuple[Value, ...]):
        self.attributes = attributes
        self.values = values


class _Product:
    """Cartesian product of independent sub-representations."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self.parts = parts


class _Union:
    """Disjoint union of alternative sub-representations."""

    __slots__ = ("branches",)

    def __init__(self, branches: tuple):
        self.branches = branches


def _dag_stats(root) -> tuple[int, int]:
    """(node count, edge count) of the d-representation DAG."""
    seen: set[int] = set()
    nodes = edges = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes += 1
        kids = ()
        if isinstance(node, _Product):
            kids = node.parts
        elif isinstance(node, _Union):
            kids = node.branches
        edges += len(kids)
        stack.extend(kids)
    return nodes, edges


def _assignments(node, counter: CostCounter | None) -> Iterator[dict[str, Value]]:
    """Yield the assignments a d-rep node denotes; one charge per visit.

    After full reduction every node is nonempty, so the recursion is
    backtrack-free: between consecutive yields it touches at most one
    root-to-leaf slice of the DAG, whose size depends on the query
    only — that is the constant-delay guarantee ``measure_delays``
    verifies empirically.
    """
    charge(counter)
    if isinstance(node, _Leaf):
        yield dict(zip(node.attributes, node.values))
    elif isinstance(node, _Union):
        for branch in node.branches:
            yield from _assignments(branch, counter)
    else:
        yield from _product_assignments(node.parts, 0, counter)


def _product_assignments(
    parts: tuple, idx: int, counter: CostCounter | None
) -> Iterator[dict[str, Value]]:
    if idx == len(parts):
        yield {}
        return
    for head in _assignments(parts[idx], counter):
        for rest in _product_assignments(parts, idx + 1, counter):
            merged = dict(head)
            merged.update(rest)
            yield merged


def _dag_count(root) -> int:
    """Answer count by one sum/product sweep (memoized on shared nodes)."""
    memo: dict[int, int] = {}

    def walk(node) -> int:
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, _Leaf):
            total = 1
        elif isinstance(node, _Union):
            total = sum(walk(b) for b in node.branches)
        else:
            total = 1
            for part in node.parts:
                total *= walk(part)
        memo[key] = total
        return total

    return walk(root)


def _getter(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """``row -> tuple(row[p] for p in positions)`` at C speed."""
    if len(positions) > 1:
        return itemgetter(*positions)
    if positions:
        (p,) = positions
        return lambda row: (row[p],)
    return lambda row: ()


def _expand(state: _AggState, free: tuple[str, ...]) -> Iterable[tuple]:
    """The answer tuples of the reduced derived query, in ``free`` order.

    Per root of the derived join forest, starts from the root
    projection's tuples and extends every partial tuple, parents before
    children, by the fresh attributes of the child bucket its key
    selects; the roots' answers then combine by cross product. Full
    reduction made the projections globally consistent, so every key
    finds its bucket and every partial tuple extends. Fresh attributes
    are new to the partial tuple: by running intersection, a child
    shares with the nodes above it only its parent's attributes, which
    are its key.
    """
    projections, buckets = state.projections, state.buckets
    key_attrs, g_children = state.key_attrs, state.g_children
    parts: list[tuple[tuple[str, ...], list[tuple]]] = []
    for r in state.g_roots:
        attrs = projections[r].attributes
        rows = list(projections[r].tuples)
        stack = list(g_children[r])
        while stack:
            c = stack.pop()
            stack.extend(g_children[c])
            rel = projections[c]
            fresh = tuple(a for a in rel.attributes if a not in key_attrs[c])
            tail_of = _getter([rel.position(a) for a in fresh])
            tails = {
                key: [tail_of(t) for t in group] for key, group in buckets[c].items()
            }
            key_of = _getter([attrs.index(a) for a in key_attrs[c]])
            rows = [row + tail for row in rows for tail in tails[key_of(row)]]
            attrs += fresh
        parts.append((attrs, rows))
    attrs, rows = parts[0]
    for more_attrs, more_rows in parts[1:]:
        rows = [row + more for row in rows for more in more_rows]
        attrs += more_attrs
    if attrs == free:
        return rows
    return map(_getter([attrs.index(a) for a in free]), rows)


@dataclass
class _AggState:
    """Build-side state retained for post-hoc semiring sweeps.

    The d-representation DAG alone loses which *atom* each tuple came
    from, which annotated semirings (min-plus witnesses, provenance)
    need. So the build keeps its derived-query scaffolding — the
    reduced projections, their grouping buckets and the derived join
    tree — plus, for full queries, per-top annotation ``plans``: for
    top atom ``j``, the ``(relation_name, positions)`` of its own atom
    and every atom absorbed into it (attributes of an absorbed atom are
    a subset of its depth-1 ancestor's, by running intersection through
    the free edge, so ``positions`` index into the projection tuple).
    ``plans`` is ``None`` when ``free`` is a strict subset of the query
    attributes — annotated aggregation is undefined for projections.
    """

    query: JoinQuery
    full_free: bool
    projections: list[Relation] | None = None
    buckets: list[dict[tuple, list[tuple]]] | None = None
    key_attrs: list[tuple[str, ...]] | None = None
    g_children: dict[int, list[int]] | None = None
    g_roots: list[int] | None = None
    plans: list[list[tuple[str, tuple[int, ...]]]] | None = None


@dataclass
class FactorizedResult:
    """The answer to a join query, held factorized (or flat, post-fallback).

    Attributes
    ----------
    free:
        Output attributes, in enumeration order.
    method:
        ``"factorized"`` when a d-representation was built (free-connex
        case), ``"wcoj"`` when the router fell back to worst-case
        optimal materialization.
    num_nodes / num_edges:
        Size of the d-representation DAG (0 for the fallback) — the
        quantity the "factorized-size" lower bound constrains.
    """

    free: tuple[str, ...]
    method: str
    num_nodes: int = 0
    num_edges: int = 0
    _root: object | None = field(default=None, repr=False)
    _flat: Relation | None = field(default=None, repr=False)
    _count: int | None = field(default=None, repr=False)
    _state: _AggState | None = field(default=None, repr=False)

    def count(self) -> int:
        """Number of answers, computed without enumerating them.

        This *is* the counting-semiring sweep: ``aggregate(COUNTING)``
        over the retained build state (falling back to the plain DAG
        sum/product sweep for results built without state).
        """
        if self._count is None:
            if self._flat is not None:
                self._count = len(self._flat)
            elif self._root is None:
                self._count = 0
            elif self._state is None or self._state.projections is None:
                self._count = _dag_count(self._root)
            else:
                self._count = self.aggregate(COUNTING)
        return self._count

    def aggregate(self, semiring: Semiring, annotate=None) -> object:
        """SumProd over the answers by one memoized sweep — no enumeration.

        Runs the semiring DP over the derived join tree retained from
        the build: per top atom ``j`` and parent key, ⊕ over bucketed
        tuples of (⊗-weight of the tuple's own and absorbed atoms) ⊗
        the children's sums. Memoization mirrors the d-rep DAG node
        sharing, so the sweep is linear in the DAG size and — like
        :meth:`count` — charges nothing. Values equal
        :func:`~repro.relational.semiring.aggregate_relation` over the
        materialized answer byte for byte (the repo invariant).

        Annotated semirings (min-plus, provenance, or an explicit
        ``annotate``) require a *full* query (``free`` = all query
        attributes): under a projection the multiplicity a bound atom
        contributes is not a function of the output tuple.

        Raises
        ------
        InvalidInstanceError
            If the semiring carries annotations but ``free`` is a
            strict subset of the query attributes.
        """
        trivial = annotate is None and semiring.annotation_free
        add, mul = semiring.add, semiring.mul
        one, zero = semiring.one, semiring.zero
        state = self._state
        if self._flat is not None:
            if state is not None and state.full_free:
                return aggregate_relation(
                    semiring, state.query, self._flat, annotate
                )
            if not trivial:
                raise InvalidInstanceError(
                    "annotated aggregation requires free = all query attributes"
                )
            return semiring.repeat_add(one, len(self._flat))
        if self._root is None:
            return zero
        if state is None or state.projections is None:
            if not trivial:
                raise InvalidInstanceError(
                    "annotated aggregation needs the build-side state; "
                    "this result was constructed without it"
                )
            return semiring.repeat_add(one, _dag_count(self._root))
        if not trivial and state.plans is None:
            raise InvalidInstanceError(
                "annotated aggregation requires free = all query attributes"
            )

        projections = state.projections
        buckets, key_attrs = state.buckets, state.key_attrs
        g_children, plans = state.g_children, state.plans
        memo: dict[tuple[int, tuple], object] = {}

        def weight(j: int, key: tuple) -> object:
            cached = memo.get((j, key))
            if cached is not None:
                return cached
            rel = projections[j]
            total = zero
            for t in buckets[j][key]:
                w = (
                    one
                    if trivial
                    else fold_tuple(semiring, plans[j], t, annotate)
                )
                for c in g_children[j]:
                    child_key = tuple(t[rel.position(a)] for a in key_attrs[c])
                    w = mul(w, weight(c, child_key))
                total = add(total, w)
            memo[(j, key)] = total
            return total

        result = one
        for r in state.g_roots:
            result = mul(result, weight(r, ()))
        return result

    def enumerate(
        self, counter: CostCounter | None = None
    ) -> Iterator[tuple[Value, ...]]:
        """Yield answer tuples in ``free`` order, charging per node visit.

        On the factorized path the op-count gap between consecutive
        yields is O(query size), independent of the data — the
        d-representation is backtrack-free after full reduction.
        """
        if self._flat is not None:
            for t in self._flat.tuples:
                charge(counter)
                yield t
            return
        if self._root is None:
            return
        last = counter.total if counter is not None else 0
        for assignment in _assignments(self._root, counter):
            if counter is not None:
                observe("factorized.delay", counter.total - last, SMALL_BUCKETS)
                last = counter.total
            yield tuple(assignment[a] for a in self.free)

    def materialize(self, name: str = "answer") -> Relation:
        """Flatten into an ordinary :class:`Relation` over ``free``.

        On the factorized path this expands the reduced derived query
        kept from the build (:func:`_expand`) instead of walking the
        d-representation. Like :meth:`count`, it charges nothing and
        observes nothing; :meth:`enumerate` stays the constant-delay
        walk, and a result built without state drains it.

        Complexity: O(|answer| · |free|) on the factorized path.
        """
        if self._flat is not None:
            return Relation(name, self.free, self._flat.tuples)
        state = self._state
        if state is None or state.projections is None:
            return Relation(name, self.free, self.enumerate())
        out = Relation(name, self.free)
        out.tuples.update(_expand(state, self.free))
        out.version += 1
        return out


# -- eligibility ------------------------------------------------------


def _validated_free(
    query: JoinQuery, free: Sequence[str] | None
) -> tuple[str, ...]:
    if free is None:
        return query.attributes
    out = tuple(free)
    if not out:
        raise SchemaError("free-variable tuple must not be empty")
    if len(set(out)) != len(out):
        raise SchemaError(f"duplicate free variables in {out!r}")
    unknown = [a for a in out if a not in query.attributes]
    if unknown:
        raise SchemaError(f"free variables {unknown!r} not in query attributes")
    return out


def extended_hypergraph(query: JoinQuery, free: Sequence[str]) -> Hypergraph:
    """The query hypergraph plus one hyperedge over the free variables."""
    return Hypergraph(
        vertices=query.attributes,
        edges=[atom.attributes for atom in query.atoms] + [tuple(free)],
    )


def is_free_connex(query: JoinQuery, free: Sequence[str] | None = None) -> bool:
    """Is ``(query, free)`` free-connex acyclic (Berkholz dichotomy)?

    True iff the query hypergraph is α-acyclic *and* stays α-acyclic
    after adding one hyperedge over the free variables. With
    ``free=None`` (full query) this degenerates to plain α-acyclicity.
    This predicate is the eligibility test of the :func:`evaluate`
    router and of projected :func:`~repro.relational.enumeration.enumerate_acyclic`.
    """
    free_t = _validated_free(query, free)
    if not is_alpha_acyclic(query.hypergraph()):
        return False
    return is_alpha_acyclic(extended_hypergraph(query, free_t))


# -- construction -----------------------------------------------------


def _rooted_at(
    num_nodes: int, links: list[tuple[int, int]], root: int
) -> tuple[dict[int, list[int]], dict[int, int], list[int]]:
    """Re-orient a join forest so ``root``'s component hangs below it.

    Components not containing ``root`` keep their original orientation.
    """
    adjacency: dict[int, list[int]] = {i: [] for i in range(num_nodes)}
    for child, par in links:
        adjacency[child].append(par)
        adjacency[par].append(child)
    children: dict[int, list[int]] = {i: [] for i in range(num_nodes)}
    parent: dict[int, int] = {}
    seen = {root}
    queue = [root]
    while queue:
        node = queue.pop(0)
        for neighbor in adjacency[node]:
            if neighbor not in seen:
                seen.add(neighbor)
                parent[neighbor] = node
                children[node].append(neighbor)
                queue.append(neighbor)
    for child, par in links:
        if child not in seen and par not in seen:
            children[par].append(child)
            parent[child] = par
    roots = [i for i in range(num_nodes) if i not in parent]
    return children, parent, roots


def _empty_result(free: tuple[str, ...]) -> FactorizedResult:
    return FactorizedResult(free=free, method="factorized", _count=0)


def factorize(
    query: JoinQuery,
    database: Database,
    free: Sequence[str] | None = None,
    counter: CostCounter | None = None,
) -> FactorizedResult:
    """Build a d-representation of π_free(query) over ``database``.

    Requires ``(query, free)`` to be free-connex acyclic; use
    :func:`evaluate` for the router that falls back to
    :func:`~repro.relational.wcoj.generic_join` otherwise.

    Raises
    ------
    SchemaError
        If the query with these free variables is not free-connex.

    Complexity: O(‖D‖ · |A|) construction — one semijoin sweep over the
        extended join tree plus a full reducer on the derived query —
        yielding a DAG of O(‖D‖ · |A|) nodes.
    """
    free_t = _validated_free(query, free)
    query.validate_against(database)
    if not is_free_connex(query, free_t):
        raise SchemaError(
            "factorize requires a free-connex acyclic query: the hypergraph "
            "extended with the free-variable edge must stay alpha-acyclic"
        )

    columnar = database.backend == "columnar"
    f_index = len(query.atoms)
    links = join_tree(extended_hypergraph(query, free_t))
    children, parent, roots = _rooted_at(f_index + 1, links, f_index)
    tops = children[f_index]

    # Detach the (relation-less) free edge: its depth-1 atoms become
    # roots of their own subtrees, and components without free
    # variables stay intact as boolean guards. The upward-only sweep
    # is semijoin absorption: below depth 1 no new free variables
    # appear (running intersection through the F root), so subtrees
    # act purely as filters on their depth-1 ancestor.
    forest_children = {i: children[i] for i in range(f_index)}
    forest_roots = [r for r in roots if r != f_index] + list(tops)
    forest = reduced_join_forest(
        query,
        database,
        counter,
        forest=(forest_children, forest_roots),
        downward=False,
    )
    relations = forest.relations
    inc("factorized.builds")

    # Guard components (no free variables): empty root ⇒ empty answer.
    for r in forest_roots:
        if r not in tops and len(relations[r]) == 0:
            return _empty_result(free_t)

    # Derived full query over the free variables: one projection per
    # depth-1 atom. Its hypergraph is α-acyclic again (the flattening
    # step of the free-connex construction), so a standard full reducer
    # makes every projection globally consistent. The columnar backend
    # reduces it on views and decodes only the reduced projections.
    interfaces = [
        tuple(a for a in free_t if a in relations[t].attributes) for t in tops
    ]
    projections = [
        kernels.project_view(relations[t], interfaces[j])
        if columnar
        else project(relations[t], interfaces[j], name=f"A{j}")
        for j, t in enumerate(tops)
    ]
    if not projections:
        return _empty_result(free_t)
    derived = Hypergraph(vertices=free_t, edges=interfaces)
    if not is_alpha_acyclic(derived):  # pragma: no cover - by construction
        raise InvalidInstanceError(
            "derived free-variable hypergraph unexpectedly cyclic"
        )
    g_children, g_parent, g_roots = tree_links(
        len(projections), join_tree(derived)
    )
    semijoin_reduce(
        projections, g_children, g_roots, forest.semi, counter, downward=True
    )
    if any(len(rel) == 0 for rel in projections):
        return _empty_result(free_t)
    if columnar:
        projections = [
            kernels.to_relation(view, database.kernels.interner, f"A{j}")
            for j, view in enumerate(projections)
        ]

    # Fold into the union/product DAG, memoized per (atom, parent-key).
    key_attrs: list[tuple[str, ...]] = []
    fresh_attrs: list[tuple[str, ...]] = []
    buckets: list[dict[tuple, list[tuple]]] = []
    for j, rel in enumerate(projections):
        if j in g_parent:
            shared = tuple(
                a for a in rel.attributes
                if a in projections[g_parent[j]].attributes
            )
        else:
            shared = ()
        key_attrs.append(shared)
        fresh_attrs.append(tuple(a for a in rel.attributes if a not in shared))
        positions = [rel.position(a) for a in shared]
        bucket: dict[tuple, list[tuple]] = {}
        for t in rel.tuples:
            charge(counter)
            bucket.setdefault(tuple(t[p] for p in positions), []).append(t)
        buckets.append(bucket)

    memo: dict[tuple[int, tuple], object] = {}

    def build(j: int, key: tuple):
        node = memo.get((j, key))
        if node is not None:
            return node
        rel = projections[j]
        fresh_positions = [rel.position(a) for a in fresh_attrs[j]]
        branches = []
        for t in buckets[j][key]:
            charge(counter)
            parts = []
            if fresh_positions:
                parts.append(
                    _Leaf(fresh_attrs[j], tuple(t[p] for p in fresh_positions))
                )
            for c in g_children[j]:
                child_key = tuple(t[rel.position(a)] for a in key_attrs[c])
                child = build(c, child_key)
                # × is associative: splice a child product's factors in
                # instead of nesting it, so the walk enters one product
                # per tuple it extends.
                if isinstance(child, _Product):
                    parts.extend(child.parts)
                else:
                    parts.append(child)
            branches.append(parts[0] if len(parts) == 1 else _Product(tuple(parts)))
        node = branches[0] if len(branches) == 1 else _Union(tuple(branches))
        memo[(j, key)] = node
        return node

    root_parts = tuple(build(r, ()) for r in g_roots)
    root = root_parts[0] if len(root_parts) == 1 else _Product(root_parts)
    num_nodes, num_edges = _dag_stats(root)
    observe("factorized.drep_nodes", num_nodes)

    # Annotation plans for full queries: each atom lands in exactly one
    # top's subtree (with free = all attributes the extended tree has
    # no guard components), and an absorbed atom's attributes are a
    # subset of its depth-1 ancestor's, so its annotation is read off
    # the ancestor's projection tuple.
    plans: list[list[tuple[str, tuple[int, ...]]]] | None = None
    if free_t == query.attributes:
        plans = []
        for j, t in enumerate(tops):
            subtree = [t]
            stack = list(forest_children[t])
            while stack:
                d = stack.pop()
                subtree.append(d)
                stack.extend(forest_children[d])
            plans.append(
                [
                    (
                        query.atoms[a].relation_name,
                        tuple(
                            interfaces[j].index(attr)
                            for attr in query.atoms[a].attributes
                        ),
                    )
                    for a in sorted(subtree)
                ]
            )
    return FactorizedResult(
        free=free_t,
        method="factorized",
        num_nodes=num_nodes,
        num_edges=num_edges,
        _root=root,
        _state=_AggState(
            query=query,
            full_free=free_t == query.attributes,
            projections=projections,
            buckets=buckets,
            key_attrs=key_attrs,
            g_children=g_children,
            g_roots=g_roots,
            plans=plans,
        ),
    )


def evaluate(
    query: JoinQuery,
    database: Database,
    free: Sequence[str] | None = None,
    counter: CostCounter | None = None,
) -> FactorizedResult:
    """The dichotomy router: factorize when free-connex, else materialize.

    Free-connex acyclic instances get a linear-size d-representation
    with constant-delay enumeration; everything else — cyclic queries
    and acyclic-but-non-free-connex projections (e.g. the Boolean
    matrix multiplication query of
    :mod:`repro.reductions.bmm_to_enumeration`) — is materialized by
    :func:`~repro.relational.wcoj.generic_join` and projected flat.

    Complexity: O(N^rho*(H)) worst case (the materialization fallback
        pays the AGM bound); O(‖D‖ · |A|) on the free-connex path.
    """
    free_t = _validated_free(query, free)
    if is_free_connex(query, free_t):
        return factorize(query, database, free=free_t, counter=counter)
    inc("factorized.fallbacks")
    answer = generic_join(query, database, counter=counter)
    flat = project(answer, free_t, name="answer")
    return FactorizedResult(
        free=free_t,
        method="wcoj",
        _flat=flat,
        _state=_AggState(query=query, full_free=free_t == query.attributes),
    )
