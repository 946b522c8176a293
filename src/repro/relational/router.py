"""The query router: one entry point, three dichotomy-guided engines.

The paper's operational story is a case split — free-connex acyclic
queries enumerate with constant delay from a factorized representation,
α-acyclic queries evaluate in polynomial time by Yannakakis, everything
else pays for its cycles: the AGM-bound worst-case-optimal join, or a
decomposition's width. The resident query service
(:mod:`repro.service`) serves every request through this module so
each response can carry *which* branch of the dichotomy it took and
what it cost.

Route labels (stable API, persisted in responses and metrics):

* ``"factorized"`` — free-connex d-representation
  (:mod:`~repro.relational.factorized`), constant-delay enumeration;
* ``"yannakakis"`` — α-acyclic: for ``enumerate`` when the projection
  is not free-connex (full join along the join tree, then project),
  and every acyclic value-mode request;
* ``"wcoj"`` — cyclic: Generic Join at the AGM bound, or, for the
  value modes of a query with more than one bag, variable elimination
  along a min-fill order.

Value modes. ``count``, ``boolean`` and ``aggregate`` are one
evaluation problem with the semiring as a parameter (Fan–Koutris,
PAPERS.md): ``count`` is a wire alias of ``aggregate`` over
``counting`` and ``boolean`` of ``aggregate`` over ``boolean``. They
route alike:

* α-acyclic → ``yannakakis``, a sum-product DP along a join tree
  (:func:`~repro.relational.yannakakis.semiring_yannakakis`);
* cyclic with one bag → ``wcoj``, whole-query Generic Join
  (:func:`~repro.relational.wcoj.generic_join_aggregate`);
* cyclic with several bags → ``wcoj``, variable elimination along the
  plan's min-fill order
  (:func:`~repro.relational.elimination.variable_elimination`).

A cyclic value-mode plan carries the min-fill elimination order of the
query's primal graph
(:func:`~repro.treewidth.heuristics.min_fill_order`), computed once per
plan. When the order's first bag — its first attribute and that
attribute's neighbours — already holds every attribute (the triangle,
any clique), the query is one bag and keeps whole-query Generic Join;
otherwise the plan's reason names the order's width, which bounds
every join the elimination builds (Freuder, Theorem 4.2). Each
response keeps its mode's field: ``count``, ``nonempty`` or
``aggregate``.

Boolean short-circuit. When the semiring is annotation-free and its ⊕
is idempotent (today only ``boolean``), every answer weighs ``one``
and any number of them sums to ``one``, so SumProd is ``one`` exactly
when an answer exists. The router then runs the first-witness engine
of the route — :func:`~repro.relational.yannakakis.boolean_yannakakis`
or :func:`~repro.relational.wcoj.boolean_generic_join` — which stops
at the first answer, whatever order the plan carries. The engines
themselves stay full traversals, so their op counts do not depend on
the semiring.

Each decision is also recorded on the ambient metrics registry
(``route.<label>`` counters, plus a ``semiring.<name>`` counter for
aggregate requests) and as a ``route`` span, so request-scoped
registries see exactly one route observation per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from ..counting import CostCounter
from ..errors import InvalidInstanceError
from ..hypergraph.acyclicity import Links, gyo
from ..observability.metrics import inc
from ..observability.tracing import span
from ..treewidth.heuristics import elimination_width, min_fill_order
from .database import Database
from .elimination import variable_elimination
from .factorized import _validated_free, factorize, free_connex_forests
from .query import JoinQuery
from .relation import Relation
from .semiring import BOOLEAN, COUNTING, Semiring
from .wcoj import boolean_generic_join, generic_join, generic_join_aggregate
from .yannakakis import boolean_yannakakis, semiring_yannakakis, yannakakis
from .algebra import project

#: Recognized request modes.
MODES = ("enumerate", "count", "boolean", "aggregate")

#: Recognized route labels, in dichotomy order.
ROUTES = ("factorized", "yannakakis", "wcoj")

#: The value modes that are wire aliases of ``aggregate``.
ALIASES = {"count": COUNTING, "boolean": BOOLEAN}


@dataclass(frozen=True)
class RouteDecision:
    """Which engine a (query, free, mode) instance is served by, and why,
    with the structure it runs on: the join forests — the query's own
    for ``yannakakis``,
    :func:`~repro.relational.factorized.free_connex_forests` for
    ``factorized`` (engines given none derive their own) — and, for a
    cyclic value-mode query of several bags, the elimination order
    (without one, ``wcoj`` folds by Generic Join)."""

    route: str
    mode: str
    reason: str
    forests: tuple[Links, ...] | None = None
    order: tuple[str, ...] | None = None


@dataclass(frozen=True)
class RoutedAnswer:
    """One routed evaluation: the decision plus the mode's result.

    Exactly one of ``relation`` (enumerate), ``count`` (count),
    ``nonempty`` (boolean) or ``aggregate`` is populated; ``ops`` is
    the operation total charged while executing the route.
    """

    decision: RouteDecision
    ops: int
    relation: Relation | None = None
    count: int | None = None
    nonempty: bool | None = None
    #: The semiring value for ``mode="aggregate"`` (may itself be a
    #: falsy value like ``0`` or ``False`` — test the mode, not this).
    aggregate: object | None = None


def decide_route(
    query: JoinQuery, free: Sequence[str] | None = None, mode: str = "enumerate"
) -> RouteDecision:
    """The dichotomy case split, without executing anything.

    Runs one GYO pass (:func:`~repro.hypergraph.acyclicity.gyo`) per
    hypergraph the route needs and keeps their join forests; a cyclic
    value-mode query also gets its min-fill elimination order, kept
    when the query has more than one bag.

    Complexity: O(r² · d · |A| + n · k⁴ + n log n) — at most three GYO
        passes, over |A| atoms of arity ≤ r whose attributes lie in ≤ d
        atoms each, and one min-fill order over n attributes whose
        degree in the fill-in graph stays ≤ k.
    """
    if mode not in MODES:
        raise InvalidInstanceError(f"unknown mode {mode!r}; expected one of {MODES}")
    free_t = _validated_free(query, free)
    hypergraph = query.hypergraph()
    shape = gyo(hypergraph)
    acyclic = not shape.residue
    join = shape.forest() if acyclic else ()
    if mode != "enumerate":
        # Non-emptiness ignores projections; counts and folds do not.
        if mode != "boolean" and free_t != query.attributes:
            raise InvalidInstanceError(
                f"{mode} mode folds full answers; projections are not supported"
            )
        if acyclic:
            reason = "alpha-acyclic: sum-product along a join tree"
            return RouteDecision("yannakakis", mode, reason, (join,))
        primal = hypergraph.primal_graph()
        order = tuple(min_fill_order(primal))
        if primal.degree(order[0]) + 1 < len(order):
            width = elimination_width(primal, order)
            reason = (
                "cyclic: variable elimination along a min-fill order "
                f"of width {width}"
            )
            return RouteDecision("wcoj", mode, reason, order=order)
        return RouteDecision(
            "wcoj", mode, "cyclic: generic join folding semiring values"
        )
    forests = free_connex_forests(query, free_t, join) if acyclic else None
    if forests is not None:
        reason = "free-connex acyclic: linear-size d-representation"
        return RouteDecision("factorized", mode, reason, forests)
    if acyclic:
        return RouteDecision(
            "yannakakis",
            mode,
            "alpha-acyclic but not free-connex: full join then project",
            (join,),
        )
    return RouteDecision("wcoj", mode, "cyclic: AGM-bound materialization")


def execute_route(
    query: JoinQuery,
    database: Database,
    free: Sequence[str] | None = None,
    mode: str = "enumerate",
    counter: CostCounter | None = None,
    semiring: Semiring | None = None,
) -> RoutedAnswer:
    """Decide and run: the service-facing evaluation entry point.

    Answers are byte-compatible with calling the underlying engine
    directly — the router adds observability (route counters, a
    ``route`` span) but never changes what is computed.

    Complexity: O(N^rho*(H)) worst case (the wcoj branch); O(‖D‖ · |A|)
        on the factorized and yannakakis branches.
    """
    decision = decide_route(query, free=free, mode=mode)
    return run_route(
        query, database, decision, free=free, counter=counter, semiring=semiring
    )


def run_route(
    query: JoinQuery,
    database: Database,
    decision: RouteDecision,
    free: Sequence[str] | None = None,
    counter: CostCounter | None = None,
    semiring: Semiring | None = None,
) -> RoutedAnswer:
    """Execute a pre-made :class:`RouteDecision` (the plan-cache hit path).

    The decision is a pure function of the query shape, the free
    variables, and the mode — never of the data — so a cached decision
    replayed against mutated data still computes the same answer set as
    a fresh :func:`execute_route` (the service's plan cache additionally
    keys on a database fingerprint to keep *routing statistics* honest).

    Complexity: O(N^rho*(H)) worst case (the wcoj branch); O(‖D‖ · |A|)
        on the factorized and yannakakis branches.
    """
    mode = decision.mode
    free_t = _validated_free(query, free)
    semiring = ALIASES.get(mode, semiring)
    if mode == "aggregate" and semiring is None:
        raise InvalidInstanceError("aggregate mode requires a semiring")
    counter = counter if counter is not None else CostCounter()
    started = counter.total
    inc(f"route.{decision.route}")
    if mode == "aggregate":
        inc(f"semiring.{semiring.name}")
    join_tree = decision.route == "yannakakis"
    links = decision.forests[0] if join_tree and decision.forests else None
    with span("route", counter=counter, route=decision.route, mode=mode):
        relation: Relation | None = None
        value: object | None = None
        if mode == "enumerate":
            if decision.route == "factorized":
                relation = factorize(
                    query, database, free_t, counter, forests=decision.forests
                ).materialize()
            elif join_tree:
                relation = yannakakis(
                    query, database, counter=counter, project_to=free_t, links=links
                )
            else:
                answer = generic_join(query, database, counter=counter)
                relation = project(answer, free_t, name="answer")
        elif semiring.annotation_free and semiring.idempotent_add:
            # The Boolean short-circuit: SumProd is `one` exactly when
            # an answer exists, so the route's first witness decides it.
            if join_tree:
                found = boolean_yannakakis(query, database, counter, links=links)
            else:
                found = boolean_generic_join(query, database, counter=counter)
            value = semiring.one if found else semiring.zero
        elif join_tree:
            value = semiring_yannakakis(
                query, database, semiring, counter=counter, links=links
            )
        elif decision.order is not None:
            value = variable_elimination(
                query, database, semiring, decision.order, counter=counter
            )
        else:
            value = generic_join_aggregate(query, database, semiring, counter=counter)
    return RoutedAnswer(
        decision=decision,
        ops=counter.total - started,
        relation=relation,
        count=value if mode == "count" else None,
        nonempty=value if mode == "boolean" else None,
        aggregate=value if mode == "aggregate" else None,
    )
