"""Elimination-order heuristics for treewidth.

Any vertex elimination order yields a tree decomposition whose width is
the largest clique created during elimination. ``min_degree`` picks the
vertex of smallest current degree; ``min_fill`` picks the vertex whose
elimination adds the fewest fill edges. Both are classical and are the
ablation axis of benchmark E4/E8. Both keep a heap of vertex keys and
re-score only the vertices an elimination touched.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Sequence

from ..errors import InvalidInstanceError
from ..graphs.graph import Graph, Vertex
from .decomposition import TreeDecomposition

#: Working adjacency of a graph under elimination: vertex -> neighbours.
Adjacency = dict[Vertex, set[Vertex]]


def min_degree_order(graph: Graph) -> list[Vertex]:
    """Elimination order by repeatedly removing a min-degree vertex.

    Complexity: O(n · d³ + n log n) over n vertices whose degree in the
        fill-in graph stays ≤ d (:func:`_greedy_order`).
    """
    return _greedy_order(graph, _degree)


def min_fill_order(graph: Graph) -> list[Vertex]:
    """Elimination order by repeatedly removing a min-fill vertex.

    Complexity: O(n · d⁴ + n log n) over n vertices whose degree in the
        fill-in graph stays ≤ d (:func:`_greedy_order`): near-linear on
        graphs of bounded degree and width.
    """
    return _greedy_order(graph, _fill)


def _degree(adj: Adjacency, u: Vertex) -> int:
    return len(adj[u])


def _fill(adj: Adjacency, u: Vertex) -> int:
    """The number of non-adjacent neighbour pairs of ``u``."""
    nbrs = adj[u]
    d = len(nbrs)
    linked = sum(len(adj[w] & nbrs) for w in nbrs) // 2
    return d * (d - 1) // 2 - linked


def _greedy_order(
    graph: Graph, score: Callable[[Adjacency, Vertex], int]
) -> list[Vertex]:
    """Eliminate a vertex of least ``(score, repr, insertion index)``
    until none is left: the order of rescanning every live vertex with
    ``min`` at each step, which breaks ``(score, repr)`` ties by
    insertion order.

    A heap holds one key per live vertex. Eliminating ``v`` turns its
    neighbourhood into a clique, which changes the degree and fill
    count only of ``v``'s neighbours (their neighbourhoods changed) and
    of their neighbours (a fill edge may join two of theirs). Only
    those are re-scored, and a new key is pushed for each score that
    changed; a popped key that is no longer its vertex's current one is
    skipped.
    """
    adj = _adjacency(graph)
    rank = {v: (repr(v), i) for i, v in enumerate(adj)}
    current = {v: score(adj, v) for v in adj}
    heap = [(current[v], *rank[v], v) for v in adj]
    heapq.heapify(heap)
    order: list[Vertex] = []
    while heap:
        key, __, __, v = heapq.heappop(heap)
        if current.get(v) != key:
            continue
        del current[v]
        clique = _make_clique(adj, v)
        order.append(v)
        touched = set(clique)
        for u in clique:
            touched |= adj[u]
        for u in touched:
            new = score(adj, u)
            if new != current[u]:
                current[u] = new
                heapq.heappush(heap, (new, *rank[u], u))
    return order


def _adjacency(graph: Graph) -> Adjacency:
    return {v: graph.neighbors(v) for v in graph.vertices}


def _make_clique(adj: Adjacency, v: Vertex) -> set[Vertex]:
    """Delete ``v`` from ``adj`` and turn its neighbourhood into a
    clique; returns that neighbourhood, ``v``'s later neighbours in the
    fill-in graph."""
    clique = adj.pop(v)
    for u in clique:
        adj[u].discard(v)
        adj[u] |= clique
        adj[u].discard(u)
    return clique


def elimination_width(graph: Graph, order: Sequence[Vertex]) -> int:
    """The width of the elimination order ``order``: the most later
    neighbours a vertex has in the fill-in graph when it is eliminated,
    i.e. its bag's size minus one (−1 for the empty graph).

    Complexity: O(n · d²) over n vertices whose degree in the fill-in
        graph stays ≤ d.
    """
    adj = _adjacency(graph)
    return max((len(_make_clique(adj, v)) for v in order), default=-1)


def decomposition_from_elimination_order(
    graph: Graph, order: Sequence[Vertex]
) -> TreeDecomposition:
    """Build a tree decomposition from an elimination order.

    Bag of the i-th eliminated vertex v is {v} ∪ (later neighbors of v
    in the fill-in graph); each bag is linked to the bag of the earliest
    later vertex it contains, the standard construction.
    """
    if set(order) != set(graph.vertices):
        raise InvalidInstanceError("elimination order must be a permutation of V(G)")
    if not order:
        return TreeDecomposition(bags={0: frozenset()}, tree_edges=[])

    position = {v: i for i, v in enumerate(order)}
    adj = _adjacency(graph)
    bags = {i: {v} | _make_clique(adj, v) for i, v in enumerate(order)}

    tree_edges: list[tuple[int, int]] = []
    roots: list[int] = []
    for i, v in enumerate(order):
        later = bags[i] - {v}
        if later:
            parent = min(position[u] for u in later)
            tree_edges.append((i, parent))
        else:
            roots.append(i)
    # A disconnected graph yields one root bag per component; chain the
    # roots so the result is a single tree (occurrence subtrees stay
    # connected since no vertex occurs in two components).
    for a, b in zip(roots, roots[1:]):
        tree_edges.append((a, b))
    return TreeDecomposition(bags=bags, tree_edges=tree_edges)


def treewidth_lower_bound_degeneracy(graph: Graph) -> int:
    """The degeneracy (MMD) lower bound on treewidth.

    The maximum over the elimination process of the minimum degree:
    tw(G) ≥ degeneracy(G). Together with the heuristics' upper bounds
    this sandwiches the exact value, often certifying the heuristic as
    optimal without running the exponential exact algorithm.
    """
    work = graph.copy()
    best = 0
    while work.num_vertices:
        v = min(work.vertices, key=lambda u: (work.degree(u), repr(u)))
        best = max(best, work.degree(v))
        work.remove_vertex(v)
    return best


def treewidth_min_degree(graph: Graph) -> tuple[int, TreeDecomposition]:
    """(width, decomposition) from the min-degree heuristic."""
    decomposition = decomposition_from_elimination_order(graph, min_degree_order(graph))
    return decomposition.width, decomposition


def treewidth_min_fill(graph: Graph) -> tuple[int, TreeDecomposition]:
    """(width, decomposition) from the min-fill heuristic."""
    decomposition = decomposition_from_elimination_order(graph, min_fill_order(graph))
    return decomposition.width, decomposition
