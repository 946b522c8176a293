"""α-acyclicity via GYO reduction, and join forests (§4).

Acyclic queries are the classical tractable case the paper contrasts
with bounded treewidth: an acyclic Boolean join query is solvable in
polynomial time (Yannakakis), and the GYO reduction both recognizes
acyclicity and produces the join tree that drives the semijoin program:
:func:`gyo` does both in one pass, which the query router runs once per
prepared plan (:func:`~repro.relational.router.decide_route`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidInstanceError
from .hypergraph import Hypergraph

#: A rooted join forest: ``(child, parent)`` edge-index links, by child.
Links = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class GYO:
    """One GYO reduction: removed edges in elimination order, each edge's
    witness (the live edge containing it when removed, else ``-1``), and
    the residue no rule removes — empty iff the input is α-acyclic."""

    order: tuple[int, ...]
    witness: tuple[int, ...]
    residue: tuple[int, ...]

    def forest(self, root: int | None = None) -> Links:
        """The witness links, each component rooted at its lowest-index
        edge (``root``'s at ``root``): on an α-acyclic input, a join forest
        (a removed edge shares with live edges only its witness's vertices)."""
        adjacent: list[list[int]] = [[] for _ in self.witness]
        for child, parent in enumerate(self.witness):
            if parent >= 0:
                adjacent[child].append(parent)
                adjacent[parent].append(child)
        parents: list[int | None] = [None] * len(adjacent)
        starts = ([] if root is None else [root]) + list(range(len(adjacent)))
        for start in starts:
            if parents[start] is None:
                parents[start], stack = -1, [start]
                while stack:
                    node = stack.pop()
                    for neighbor in adjacent[node]:
                        if parents[neighbor] is None:
                            parents[neighbor] = node
                            stack.append(neighbor)
        return tuple((c, p) for c, p in enumerate(parents) if p >= 0)


def gyo(hypergraph: Hypergraph) -> GYO:
    """The Graham–Yu–Özsoyoğlu reduction, recording its witnesses.

    Repeatedly (a) drop *ear* vertices that lie in one live edge only,
    and (b) remove a live edge that is empty or contained in another,
    its witness. A vertex → edge incidence index finds both without
    rescanning: (a) fires when a removal leaves a vertex one holder, and
    (b) re-tests an edge only after it lost a vertex (live edges only
    shrink). Edges are tested highest index first against the
    lowest-index container, so a star stays a star around its first
    edge; vertices are numbered in ``hypergraph`` order, so no result
    depends on set iteration order.

    Complexity: O(r² · d · |E|) for |E| edges of arity at most r whose
        vertices lie in at most d edges each — linear on paths, cycles
        and every other bounded-degree, bounded-arity query.
    """
    ids = {v: k for k, v in enumerate(hypergraph.vertices)}
    ordered = [sorted(ids[v] for v in edge) for edge in hypergraph.edges]
    live = [set(edge) for edge in ordered]
    holders: dict[int, dict[int, None]] = {}
    for i, edge in enumerate(ordered):
        for v in edge:
            holders.setdefault(v, {})[i] = None
    for v in [v for v, edges in holders.items() if len(edges) == 1]:
        live[next(iter(holders.pop(v)))].discard(v)
    witness = [-1] * len(live)
    order: list[int] = []
    pending = list(range(len(live)))
    while pending:
        i = pending.pop()
        edge = live[i]
        if edge is None:
            continue
        if edge:
            pivot = min(edge, key=lambda v: len(holders[v]))
            witness[i] = next(
                (j for j in holders[pivot] if j != i and edge <= live[j]), -1
            )
            if witness[i] < 0:
                continue
        live[i] = None
        order.append(i)
        for v in ordered[i]:
            if v in edge:
                del holders[v][i]
                if len(holders[v]) == 1:
                    j = next(iter(holders.pop(v)))
                    live[j].discard(v)
                    pending.append(j)
    residue = tuple(i for i, edge in enumerate(live) if edge is not None)
    return GYO(tuple(order), tuple(witness), residue)


def gyo_reduction(hypergraph: Hypergraph) -> tuple[list[frozenset], list[frozenset]]:
    """Run the GYO reduction (:func:`gyo`).

    Returns ``(eliminated, remaining)``: the edges removed (in
    elimination order) and the edges left when no rule applies. The
    hypergraph is α-acyclic iff nothing remains.
    """
    reduction, edges = gyo(hypergraph), hypergraph.edges
    return [edges[i] for i in reduction.order], [edges[i] for i in reduction.residue]


def is_alpha_acyclic(hypergraph: Hypergraph) -> bool:
    """True iff the GYO reduction eliminates every hyperedge."""
    return not gyo(hypergraph).residue


def join_tree(hypergraph: Hypergraph) -> list[tuple[int, int]]:
    """A join forest of an α-acyclic hypergraph.

    Returns the GYO witness links ``(child_edge_index,
    parent_edge_index)`` of :meth:`GYO.forest`, by child, each component
    rooted at its lowest-index edge; they satisfy running intersection.

    Raises
    ------
    InvalidInstanceError
        If the hypergraph is not α-acyclic.
    """
    reduction = gyo(hypergraph)
    if reduction.residue:
        raise InvalidInstanceError("join trees exist only for alpha-acyclic hypergraphs")
    return list(reduction.forest())
