"""Tests for elimination-order heuristics."""

import pytest

from repro.errors import InvalidInstanceError
from repro.graphs.graph import Graph
from repro.treewidth.heuristics import (
    decomposition_from_elimination_order,
    elimination_width,
    min_degree_order,
    min_fill_order,
    treewidth_min_degree,
    treewidth_min_fill,
)

from ..conftest import make_random_graph


def cycle_graph(n: int) -> Graph:
    return Graph(edges=[(i, (i + 1) % n) for i in range(n)])


def grid_graph(rows: int, cols: int) -> Graph:
    g = Graph()
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                g.add_edge((r, c), (r, c + 1))
            if r + 1 < rows:
                g.add_edge((r, c), (r + 1, c))
    return g


def _fill_count(graph: Graph, v) -> int:
    nbrs = list(graph.neighbors(v))
    return sum(
        1
        for i in range(len(nbrs))
        for j in range(i + 1, len(nbrs))
        if not graph.has_edge(nbrs[i], nbrs[j])
    )


def _rescan_order(graph: Graph, score) -> list:
    """The reference greedy order: rescan every live vertex with ``min``
    at each step, so ``(score, repr)`` ties break by insertion order."""
    work = graph.copy()
    order = []
    while work.num_vertices:
        v = min(work.vertices, key=lambda u: (score(work, u), repr(u)))
        nbrs = list(work.neighbors(v))
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1:]:
                work.add_edge(a, b)
        work.remove_vertex(v)
        order.append(v)
    return order


class _SameRepr:
    """Vertices whose reprs tie: only insertion order tells them apart."""

    def __repr__(self) -> str:
        return "v"


class TestOrders:
    def test_heap_orders_equal_the_rescanning_reference(self, rng):
        for trial in range(200):
            n = rng.randrange(0, 12)
            labels = [_SameRepr() for _ in range(n)] if trial % 5 == 0 else None
            if labels is None:
                labels = [rng.choice([i, str(i), f"x{i}"]) for i in range(n)]
                rng.shuffle(labels)
            g = make_random_graph(n, rng.random(), rng) if n else Graph()
            relabeled = Graph(vertices=labels)
            for u, v in g.edges():
                relabeled.add_edge(labels[u], labels[v])
            assert min_fill_order(relabeled) == _rescan_order(relabeled, _fill_count)
            assert min_degree_order(relabeled) == _rescan_order(
                relabeled, Graph.degree
            )

    def test_orders_are_permutations(self, rng):
        g = make_random_graph(8, 0.4, rng)
        for order_fn in (min_degree_order, min_fill_order):
            order = order_fn(g)
            assert sorted(order, key=repr) == sorted(g.vertices, key=repr)

    def test_empty_graph(self):
        assert min_degree_order(Graph()) == []
        assert min_fill_order(Graph()) == []


class TestEliminationWidth:
    def test_width_equals_the_decomposition_width(self, rng):
        for _ in range(20):
            g = make_random_graph(rng.randrange(1, 10), 0.4, rng)
            order = list(g.vertices)
            rng.shuffle(order)
            width = decomposition_from_elimination_order(g, order).width
            assert elimination_width(g, order) == width

    def test_cycle_and_empty_graph(self):
        assert elimination_width(cycle_graph(7), list(range(7))) == 2
        assert elimination_width(Graph(), []) == -1


class TestDecompositionFromOrder:
    def test_bad_order_rejected(self, triangle_graph):
        with pytest.raises(InvalidInstanceError):
            decomposition_from_elimination_order(triangle_graph, [0, 1])

    def test_empty_graph(self):
        dec = decomposition_from_elimination_order(Graph(), [])
        assert dec.width <= 0

    def test_any_order_yields_valid_decomposition(self, rng):
        for _ in range(10):
            g = make_random_graph(rng.randrange(2, 10), 0.4, rng)
            order = list(g.vertices)
            rng.shuffle(order)
            dec = decomposition_from_elimination_order(g, order)
            dec.validate(g)

    def test_disconnected_graph_gives_tree(self):
        g = Graph(vertices=[0, 1, 2, 3], edges=[(0, 1), (2, 3)])
        dec = decomposition_from_elimination_order(g, [0, 1, 2, 3])
        dec.validate(g)


class TestHeuristicWidths:
    def test_tree_width_one(self):
        star = Graph(edges=[(0, i) for i in range(1, 6)])
        width, dec = treewidth_min_degree(star)
        assert width == 1
        dec.validate(star)

    def test_cycle_width_two(self):
        for heuristic in (treewidth_min_degree, treewidth_min_fill):
            width, dec = heuristic(cycle_graph(6))
            assert width == 2
            dec.validate(cycle_graph(6))

    def test_clique_width_n_minus_one(self):
        k5 = Graph(edges=[(i, j) for i in range(5) for j in range(i + 1, 5)])
        width, __ = treewidth_min_fill(k5)
        assert width == 4

    def test_grid_3x3(self):
        g = grid_graph(3, 3)
        width, dec = treewidth_min_fill(g)
        assert width == 3  # tw(3x3 grid) = 3; min-fill achieves it
        dec.validate(g)

    def test_heuristics_always_valid(self, rng):
        for _ in range(10):
            g = make_random_graph(rng.randrange(2, 12), 0.35, rng)
            for heuristic in (treewidth_min_degree, treewidth_min_fill):
                width, dec = heuristic(g)
                dec.validate(g)
                assert dec.width == width
