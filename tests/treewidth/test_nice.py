"""Tests for nice tree decompositions."""

import pytest

from repro.errors import InvalidDecompositionError
from repro.graphs.graph import Graph
from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.heuristics import treewidth_min_fill
from repro.treewidth.nice import (
    FORGET,
    INTRODUCE,
    JOIN,
    LEAF,
    NiceNode,
    NiceTreeDecomposition,
    make_nice,
)

from ..conftest import make_random_graph


def _recursive_make_nice(decomposition):
    """The recursive construction :func:`make_nice` replaced: one Python
    frame per tree level."""
    if not decomposition.bags:
        return [NiceNode(LEAF, frozenset())], 0
    root_id = decomposition.nodes[0]
    children_map = decomposition.rooted_children(root_id)
    nodes = []

    def emit(node):
        nodes.append(node)
        return len(nodes) - 1

    def chain_from_empty(target):
        idx = emit(NiceNode(LEAF, frozenset()))
        bag = frozenset()
        for v in sorted(target, key=repr):
            bag = bag | {v}
            idx = emit(NiceNode(INTRODUCE, bag, [idx], vertex=v))
        return idx

    def morph(idx, source, target):
        bag = source
        for v in sorted(source - target, key=repr):
            bag = bag - {v}
            idx = emit(NiceNode(FORGET, bag, [idx], vertex=v))
        for v in sorted(target - source, key=repr):
            bag = bag | {v}
            idx = emit(NiceNode(INTRODUCE, bag, [idx], vertex=v))
        return idx

    def build(node_id):
        bag = decomposition.bag(node_id)
        child_ids = children_map[node_id]
        if not child_ids:
            return chain_from_empty(bag)
        prepared = [
            morph(build(child), decomposition.bag(child), bag)
            for child in child_ids
        ]
        idx = prepared[0]
        for other in prepared[1:]:
            idx = emit(NiceNode(JOIN, bag, [idx, other]))
        return idx

    top = morph(build(root_id), decomposition.bag(root_id), frozenset())
    return nodes, top


class TestMakeNice:
    def test_same_nodes_as_the_recursive_construction(self, rng):
        """Random trees with random bags, some bags empty or repeated,
        and node ids that are not in tree order."""
        for __ in range(300):
            n = rng.randrange(1, 14)
            ids = rng.sample(range(100), n)
            edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
            bags = {
                node: rng.sample(range(8), rng.randrange(4)) for node in ids
            }
            dec = TreeDecomposition(bags=bags, tree_edges=edges)
            nice = make_nice(dec)
            assert (nice.nodes, nice.root) == _recursive_make_nice(dec)

    def test_deep_tree_needs_no_recursion(self):
        n = 5000
        dec = TreeDecomposition(
            bags={i: [i, i + 1] for i in range(n)},
            tree_edges=[(i, i + 1) for i in range(n - 1)],
        )
        nice = make_nice(dec)
        assert nice.width == 1
        assert sum(node.kind == FORGET for node in nice.nodes) == n + 1

    def test_empty(self):
        nice = make_nice(TreeDecomposition(bags={}))
        assert nice.nodes[nice.root].kind == LEAF

    def test_single_bag(self):
        dec = TreeDecomposition(bags={0: [1, 2]})
        nice = make_nice(dec)
        nice.validate()
        assert nice.width == dec.width

    def test_width_preserved(self, rng):
        for _ in range(10):
            g = make_random_graph(rng.randrange(2, 10), 0.4, rng)
            __, dec = treewidth_min_fill(g)
            nice = make_nice(dec)
            nice.validate()
            assert nice.width == dec.width

    def test_root_bag_empty(self, rng):
        g = make_random_graph(6, 0.5, rng)
        __, dec = treewidth_min_fill(g)
        nice = make_nice(dec)
        assert nice.nodes[nice.root].bag == frozenset()

    def test_children_precede_parents(self, rng):
        g = make_random_graph(7, 0.4, rng)
        __, dec = treewidth_min_fill(g)
        nice = make_nice(dec)
        for i, node in enumerate(nice.nodes):
            assert all(c < i for c in node.children)

    def test_introduce_forget_bookkeeping(self, rng):
        """Live copies of a vertex merge at joins: #introduces equals
        #forgets plus #joins whose bag contains the vertex, and every
        vertex is introduced and forgotten at least once."""
        g = make_random_graph(8, 0.4, rng)
        __, dec = treewidth_min_fill(g)
        nice = make_nice(dec)
        from collections import Counter

        introduced: Counter = Counter()
        forgotten: Counter = Counter()
        joined: Counter = Counter()
        for node in nice.nodes:
            if node.kind == INTRODUCE:
                introduced[node.vertex] += 1
            elif node.kind == FORGET:
                forgotten[node.vertex] += 1
            elif node.kind == JOIN:
                for v in node.bag:
                    joined[v] += 1
        for v in g.vertices:
            assert introduced[v] >= 1
            assert forgotten[v] >= 1
            assert introduced[v] == forgotten[v] + joined[v]


class TestValidation:
    def test_bad_leaf(self):
        nice = NiceTreeDecomposition(
            nodes=[NiceNode(LEAF, frozenset({1}))], root=0
        )
        with pytest.raises(InvalidDecompositionError):
            nice.validate()

    def test_bad_introduce(self):
        nodes = [
            NiceNode(LEAF, frozenset()),
            NiceNode(INTRODUCE, frozenset({1, 2}), [0], vertex=1),  # adds 2 vertices
        ]
        with pytest.raises(InvalidDecompositionError):
            NiceTreeDecomposition(nodes=nodes, root=1).validate()

    def test_bad_forget(self):
        nodes = [
            NiceNode(LEAF, frozenset()),
            NiceNode(INTRODUCE, frozenset({1}), [0], vertex=1),
            NiceNode(FORGET, frozenset({1}), [1], vertex=2),  # forgets absent vertex
        ]
        with pytest.raises(InvalidDecompositionError):
            NiceTreeDecomposition(nodes=nodes, root=2).validate()

    def test_bad_join(self):
        nodes = [
            NiceNode(LEAF, frozenset()),
            NiceNode(INTRODUCE, frozenset({1}), [0], vertex=1),
            NiceNode(LEAF, frozenset()),
            NiceNode(JOIN, frozenset({1}), [1, 2]),  # children bags differ
        ]
        with pytest.raises(InvalidDecompositionError):
            NiceTreeDecomposition(nodes=nodes, root=3).validate()

    def test_forward_child_reference(self):
        nodes = [NiceNode(JOIN, frozenset(), [1, 1]), NiceNode(LEAF, frozenset())]
        with pytest.raises(InvalidDecompositionError):
            NiceTreeDecomposition(nodes=nodes, root=0).validate()

    def test_unknown_kind(self):
        nodes = [NiceNode("mystery", frozenset())]
        with pytest.raises(InvalidDecompositionError):
            NiceTreeDecomposition(nodes=nodes, root=0).validate()
