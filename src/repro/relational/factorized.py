"""Factorized query results and the free-connex dichotomy.

The §4–§5 size bounds only tell half the story while answers are
materialized flat: a *factorized representation* — unions and products
of attribute/value blocks — can be exponentially smaller than the
answer set it denotes. Berkholz's dichotomy (PAPERS.md, *Factorised
Representations of Join Queries*) pins down exactly when that pays off:

* **free-connex acyclic** queries (the query hypergraph *and* the
  hypergraph extended with one hyperedge over the free variables are
  both α-acyclic) admit a linear-size representation, built here by
  one semijoin-reduced Yannakakis pass over a join tree of the extended
  hypergraph, from which :meth:`FactorizedResult.enumerate` yields
  answers with constant delay and :meth:`FactorizedResult.count` counts
  them without enumeration;
* everything else is materialized flat — the router
  (:mod:`repro.relational.router`) implements exactly this dichotomy,
  and the BMM reduction in :mod:`repro.reductions.bmm_to_enumeration`
  is the matching conditional lower bound.

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
3. Bucket each reduced projection's tuples by the key it shares with
   its parent in the derived join tree. The buckets *are* the
   representation: a bucket is the union of its tuples, and a tuple is
   the product of its fresh attributes with the one bucket per derived
   child that its key selects. Distinct tuples in a bucket differ on
   their fresh attributes, so unions are disjoint and counting is a
   sum/product sweep.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from operator import itemgetter

from ..counting import CostCounter, charge
from ..errors import InvalidInstanceError, SchemaError
from ..hypergraph.acyclicity import Links, gyo, is_alpha_acyclic
from ..hypergraph.hypergraph import Hypergraph
from ..observability.metrics import SMALL_BUCKETS, inc, observe
from .algebra import project
from .database import Database
from .query import JoinQuery
from .relation import Relation, Value
from .semiring import COUNTING, Semiring, fold_tuple
from . import kernels
from .yannakakis import join_forest, reduced_join_forest, semijoin_reduce, tree_links


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


def _expand_codes(state: _AggState) -> kernels.TableView:
    """The answer of the reduced derived query, from the projections'
    views on the columnar backend: :func:`_expand`'s joins, each one
    :func:`~repro.relational.kernels.join_gather` of the rows so far
    with the next projection, parents before children, charged to no
    counter. A child shares only its key with the rows so far, and a
    later root nothing, so its join is the cross product. The output
    columns are the projections' attributes in that order.
    """
    stack = list(reversed(state.g_roots))
    view = None
    while stack:
        j = stack.pop()
        stack.extend(state.g_children[j])
        part = state.projections[j].view
        view = part if view is None else kernels.join_gather(view, part)[0]
    return view


def _walk(
    state: _AggState, free: tuple[str, ...], counter: CostCounter | None
) -> Iterator[tuple]:
    """The answer tuples of the reduced derived query, one at a time.

    Entering a bucket charges one op, and so does each of its tuples:
    the tuple binds its fresh attributes and leaves one child bucket
    per derived child pending; pending buckets, like the roots, combine
    by product. Full reduction left every bucket the walk enters
    nonempty, so it never backtracks: between consecutive yields it
    advances one tuple and enters at most one bucket per projection,
    O(query size) ops whatever the data.
    """
    buckets, key_attrs = state.buckets, state.key_attrs
    slot = {a: i for i, a in enumerate(free)}
    binds: list[list[tuple[int, int]]] = []
    child_keys: list[list[tuple[int, Callable[[tuple], tuple]]]] = []
    for j, rel in enumerate(state.projections):
        fresh = [a for a in rel.attributes if a not in key_attrs[j]]
        binds.append([(rel.position(a), slot[a]) for a in fresh])
        child_keys.append(
            [
                (c, _getter([rel.position(a) for a in key_attrs[c]]))
                for c in state.g_children[j]
            ]
        )
    out: list[Value] = [None] * len(free)

    def product(pending: tuple) -> Iterator[None]:
        if not pending:
            yield None
            return
        (j, key), rest = pending[0], pending[1:]
        charge(counter)
        for t in buckets[j][key]:
            charge(counter)
            for position, index in binds[j]:
                out[index] = t[position]
            children = tuple((c, key_of(t)) for c, key_of in child_keys[j])
            yield from product(children + rest)

    for __ in product(tuple((r, ()) for r in state.g_roots)):
        yield tuple(out)


@dataclass
class _AggState:
    """The reduced derived query: the one factorized representation.

    ``projections[j]`` is top atom ``j`` projected onto its free
    interface and fully reduced (on the columnar backend a
    :class:`~repro.relational.kernels.CodedRelation`, whose view
    :meth:`FactorizedResult.materialize` joins); ``buckets[j]`` groups
    its tuples by
    ``key_attrs[j]``, the attributes it shares with its parent in the
    derived join forest ``(g_children, g_roots)``. Every reader of a
    :class:`FactorizedResult` works from these. Annotated semirings
    (min-plus witnesses, provenance) also need to know which *atoms*
    each tuple came from, so full queries keep per-top annotation
    ``plans``: for top atom ``j``, the ``(relation_name, positions)``
    of its own atom and every atom absorbed into it (attributes of an
    absorbed atom are a subset of its depth-1 ancestor's, by running
    intersection through the free edge, so ``positions`` index into
    the projection tuple). ``plans`` is ``None`` when ``free`` is a
    strict subset of the query attributes — annotated aggregation is
    undefined for projections.
    """

    projections: list[Relation]
    buckets: list[dict[tuple, list[tuple]]]
    key_attrs: list[tuple[str, ...]]
    g_children: dict[int, list[int]]
    g_roots: list[int]
    plans: list[list[tuple[str, tuple[int, ...]]]] | None


@dataclass
class FactorizedResult:
    """The answer to a free-connex acyclic query, held factorized.

    Attributes
    ----------
    free:
        Output attributes, in enumeration order.
    num_nodes / num_edges:
        Size of the representation — the quantity the
        "factorized-size" lower bound constrains. Each bucket is one
        union node and each projection tuple one product node; edges
        link every bucket to its tuples and every tuple to the one
        bucket per derived child that its key selects. Both are linear
        in the data.
    """

    free: tuple[str, ...]
    num_nodes: int = 0
    num_edges: int = 0
    _count: int | None = field(default=None, repr=False)
    #: The reduced derived query; ``None`` when the answer is empty.
    _state: _AggState | None = field(default=None, repr=False)

    def count(self) -> int:
        """Number of answers, computed without enumerating them.

        This *is* the counting-semiring sweep: ``aggregate(COUNTING)``.
        """
        if self._count is None:
            self._count = self.aggregate(COUNTING)
        return self._count

    def aggregate(self, semiring: Semiring, annotate=None) -> object:
        """SumProd over the answers by one memoized sweep — no enumeration.

        Runs the semiring DP over the derived join tree: per top atom
        ``j`` and parent key, ⊕ over bucketed tuples of (⊗-weight of
        the tuple's own and absorbed atoms) ⊗ the children's sums.
        Memoization is per bucket, so the sweep is linear in the
        representation's size and — like :meth:`count` — charges
        nothing. Values equal
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
        if state is None:
            return zero
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
        """Yield answer tuples in ``free`` order by the bucket walk.

        :func:`_walk` charges one op per bucket and per tuple it
        enters, so the op-count gap between consecutive yields is
        O(query size), independent of the data; each gap is observed
        into the ``factorized.delay`` histogram.
        """
        if self._state is None:
            return
        last = counter.total if counter is not None else 0
        for answer in _walk(self._state, self.free, counter):
            if counter is not None:
                observe("factorized.delay", counter.total - last, SMALL_BUCKETS)
                last = counter.total
            yield answer

    def materialize(self, name: str = "answer") -> Relation:
        """Flatten into a :class:`Relation` over ``free``.

        Expands the reduced derived query in bulk instead of walking
        it: on the columnar backend by joining the projections' views
        (:func:`_expand_codes`) into a
        :class:`~repro.relational.kernels.CodedRelation`, which decodes
        nothing until read; on the naive one over tuples
        (:func:`_expand`). Like :meth:`count`, it charges nothing and
        observes nothing; :meth:`enumerate` stays the constant-delay
        walk.

        Complexity: O(|answer| · |free| + ‖D‖ log ‖D‖).
        """
        state = self._state
        if state is None:
            return Relation(name, self.free)
        first = state.projections[0]
        if isinstance(first, kernels.CodedRelation):
            view = _expand_codes(state)
            positions = [view.attributes.index(a) for a in self.free]
            view = kernels.TableView(self.free, view.matrix[:, positions])
            return kernels.to_relation(view, first.interner, name)
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
    known = set(query.attributes)
    unknown = [a for a in out if a not in known]
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
    The router and :func:`factorize` make the same test while building
    their forests (:func:`free_connex_forests`).
    """
    free_t = _validated_free(query, free)
    if not is_alpha_acyclic(query.hypergraph()):
        return False
    return is_alpha_acyclic(extended_hypergraph(query, free_t))


# -- construction -----------------------------------------------------


def free_connex_forests(
    query: JoinQuery, free: tuple[str, ...], join: Links
) -> tuple[Links, Links] | None:
    """The join forests :func:`factorize` runs on, given the α-acyclic
    query's own (``join``); ``None`` if ``(query, free)`` is not free-connex.

    ``extended`` spans the extended hypergraph, rooted at the free edge
    ``F`` (index ``len(query.atoms)``); ``derived`` spans the free
    interfaces of ``F``'s children. A full query needs no GYO pass: the
    star around ``F`` is an extended forest and the derived hypergraph
    is the query's own. A strict projection runs one pass on each.
    """
    f_index = len(query.atoms)
    if len(free) == len(query.attributes):
        return tuple((i, f_index) for i in range(f_index)), join
    reduction = gyo(extended_hypergraph(query, free))
    if reduction.residue:
        return None
    extended, free_set = reduction.forest(root=f_index), set(free)
    interfaces = [
        free_set.intersection(query.atoms[child].attributes)
        for child, parent in extended
        if parent == f_index
    ]
    return extended, gyo(Hypergraph(vertices=free, edges=interfaces)).forest()


def factorize(
    query: JoinQuery,
    database: Database,
    free: Sequence[str] | None = None,
    counter: CostCounter | None = None,
    *,
    forests: tuple[Links, Links] | None = None,
) -> FactorizedResult:
    """Build a factorized representation of π_free(query) over ``database``.

    Requires ``(query, free)`` to be free-connex acyclic; use
    :func:`~repro.relational.router.execute_route` for the router that
    materializes every other instance flat. ``forests`` are the
    :func:`free_connex_forests` of the caller's plan; by default they
    are derived here.

    Raises
    ------
    SchemaError
        If no ``forests`` are given and the query with these free
        variables is not free-connex.

    Complexity: O(‖D‖ · |A|) construction — one semijoin sweep over the
        extended join tree plus a full reducer and one bucketing pass
        on the derived query — yielding O(‖D‖ · |A|) nodes.
    """
    free_t = _validated_free(query, free)
    query.validate_against(database)
    if forests is None:
        forests = free_connex_forests(query, free_t, join_forest(query))
    if forests is None:
        raise SchemaError(
            "factorize requires a free-connex acyclic query: the hypergraph "
            "extended with the free-variable edge must stay alpha-acyclic"
        )
    extended, derived = forests

    columnar = database.backend == "columnar"
    f_index = len(query.atoms)
    children, __, roots = tree_links(f_index + 1, extended)
    tops = children[f_index]

    # Detach the (relation-less) free edge: its depth-1 atoms become
    # roots of their own subtrees, and components without free
    # variables stay intact as boolean guards. The upward-only sweep
    # is semijoin absorption: below depth 1 no new free variables
    # appear (running intersection through the F root), so subtrees
    # act purely as filters on their depth-1 ancestor.
    forest = reduced_join_forest(
        query,
        database,
        counter,
        links=tuple(link for link in extended if link[1] != f_index),
        downward=False,
    )
    relations = forest.relations
    inc("factorized.builds")

    # Guard components (no free variables): empty root ⇒ empty answer.
    for r in roots:
        if r != f_index and len(relations[r]) == 0:
            return FactorizedResult(free_t)

    # Derived full query over the free variables: one projection per
    # depth-1 atom. Its hypergraph is α-acyclic again (the flattening
    # step of the free-connex construction), so a standard full reducer
    # makes every projection globally consistent. The columnar backend
    # reduces it on views and keeps each reduced projection as a coded
    # relation: bucketing decodes it, materialize joins its view.
    interfaces = [
        tuple(a for a in free_t if a in relations[t].attributes) for t in tops
    ]
    projections = [
        kernels.project_view(relations[t], interfaces[j])
        if columnar
        else project(relations[t], interfaces[j], name=f"A{j}")
        for j, t in enumerate(tops)
    ]
    g_children, g_parent, g_roots = tree_links(len(projections), derived)
    semijoin_reduce(
        projections, g_children, g_roots, forest.semi, counter, downward=True
    )
    if any(len(rel) == 0 for rel in projections):
        return FactorizedResult(free_t)
    if columnar:
        projections = [
            kernels.to_relation(view, database.kernels.interner, f"A{j}")
            for j, view in enumerate(projections)
        ]

    # Bucket each projection by the key it shares with its parent in
    # the derived join tree: one union node per bucket, one product
    # node per tuple, linked to its tuples and to one bucket per child.
    key_attrs: list[tuple[str, ...]] = []
    buckets: list[dict[tuple, list[tuple]]] = []
    num_nodes = num_edges = 0
    for j, rel in enumerate(projections):
        if j in g_parent:
            shared = tuple(
                a for a in rel.attributes
                if a in projections[g_parent[j]].attributes
            )
        else:
            shared = ()
        key_attrs.append(shared)
        positions = [rel.position(a) for a in shared]
        bucket: dict[tuple, list[tuple]] = {}
        for t in rel.tuples:
            charge(counter)
            bucket.setdefault(tuple(t[p] for p in positions), []).append(t)
        buckets.append(bucket)
        num_nodes += len(bucket) + len(rel)
        num_edges += len(rel) * (1 + len(g_children[j]))
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
            stack = list(forest.children[t])
            while stack:
                d = stack.pop()
                subtree.append(d)
                stack.extend(forest.children[d])
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
        num_nodes=num_nodes,
        num_edges=num_edges,
        _state=_AggState(
            projections=projections,
            buckets=buckets,
            key_attrs=key_attrs,
            g_children=g_children,
            g_roots=g_roots,
            plans=plans,
        ),
    )
