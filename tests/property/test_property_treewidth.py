"""Property-based tests for treewidth machinery."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidDecompositionError
from repro.graphs.graph import Graph
from repro.treewidth.decomposition import TreeDecomposition
from repro.treewidth.exact import treewidth_exact
from repro.treewidth.heuristics import (
    decomposition_from_elimination_order,
    min_degree_order,
    min_fill_order,
    treewidth_min_degree,
    treewidth_min_fill,
)
from repro.treewidth.nice import make_nice


@st.composite
def graphs(draw, max_vertices=8):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    g = Graph(vertices=range(n))
    if n >= 2:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs)))
        for u, v in chosen:
            g.add_edge(u, v)
    return g


class TestDecompositionProperties:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_heuristic_decompositions_valid(self, g):
        for heuristic in (treewidth_min_degree, treewidth_min_fill):
            width, dec = heuristic(g)
            dec.validate(g)
            assert dec.width == width

    @given(graphs(max_vertices=7))
    @settings(max_examples=40, deadline=None)
    def test_exact_at_most_heuristics(self, g):
        exact, dec = treewidth_exact(g)
        dec.validate(g)
        assert exact <= treewidth_min_degree(g)[0]
        assert exact <= treewidth_min_fill(g)[0]

    @given(graphs(max_vertices=7))
    @settings(max_examples=40, deadline=None)
    def test_exact_lower_bounded_by_clique_number(self, g):
        from repro.graphs.clique import max_clique

        exact, __ = treewidth_exact(g)
        assert exact >= len(max_clique(g)) - 1

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_nice_conversion_preserves_width(self, g):
        width, dec = treewidth_min_fill(g)
        nice = make_nice(dec)
        nice.validate()
        assert nice.width == width

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_orders_are_permutations(self, g):
        for order_fn in (min_degree_order, min_fill_order):
            order = order_fn(g)
            assert sorted(order) == sorted(g.vertices)

    @given(graphs(max_vertices=6), st.randoms())
    @settings(max_examples=40, deadline=None)
    def test_random_order_still_valid(self, g, rand):
        order = list(g.vertices)
        rand.shuffle(order)
        dec = decomposition_from_elimination_order(g, order)
        dec.validate(g)
        exact, __ = treewidth_exact(g)
        assert dec.width >= exact


def _reference_validate(dec: TreeDecomposition, graph: Graph) -> None:
    """The quadratic validation :meth:`TreeDecomposition.validate`
    replaced: every bag scanned per edge, one search per vertex."""
    tree = dec.tree
    if tree.num_vertices and (
        tree.num_edges != tree.num_vertices - 1
        or len(tree.connected_components()) != 1
    ):
        raise InvalidDecompositionError("decomposition's tree is not a tree")
    covered = set()
    for bag in dec.bags.values():
        covered |= bag
    missing = set(graph.vertices) - covered
    if missing:
        raise InvalidDecompositionError(
            f"vertices not covered by any bag: {sorted(map(repr, missing))}"
        )
    for u, v in graph.edges():
        if not any({u, v} <= bag for bag in dec.bags.values()):
            raise InvalidDecompositionError(f"edge ({u!r}, {v!r}) is in no bag")
    for v in graph.vertices:
        occ = {node for node, bag in dec.bags.items() if v in bag}
        start = next(iter(occ))
        seen, stack = {start}, [start]
        while stack:
            for nbr in tree.neighbors(stack.pop()):
                if nbr in occ and nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        if seen != occ:
            raise InvalidDecompositionError(
                f"occurrence set of vertex {v!r} is not connected in the tree"
            )


def _rewired(edges: list, cut: tuple) -> list:
    """``edges`` with ``cut`` replaced by an edge joining the same two
    sides elsewhere: still a tree, but occurrence sets may split."""
    rest = [e for e in edges if e != cut]
    side, stack = {cut[0]}, [cut[0]]
    while stack:
        node = stack.pop()
        for a, b in rest:
            for here, there in ((a, b), (b, a)):
                if here == node and there not in side:
                    side.add(there)
                    stack.append(there)
    anchor = max(side - {cut[1]}, key=repr)
    return rest + [(anchor, cut[1])]


def _outcome(validate, dec, graph):
    try:
        validate(dec, graph)
    except InvalidDecompositionError as exc:
        return str(exc)
    return None


class TestValidationMatchesReference:
    @given(graphs(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_corrupted_decompositions_fail_alike(self, g, data):
        heuristic = data.draw(st.sampled_from([treewidth_min_fill, treewidth_min_degree]))
        __, dec = heuristic(g)
        bags = {node: set(bag) for node, bag in dec.bags.items()}
        edges = list(dec.tree.edges())
        nodes = list(bags)
        for __ in range(data.draw(st.integers(0, 3))):
            corruption = data.draw(
                st.sampled_from(
                    ["drop vertex", "add vertex", "drop edge", "add edge", "rewire edge"]
                )
            )
            node = data.draw(st.sampled_from(nodes))
            if corruption == "drop vertex" and bags[node]:
                bags[node].discard(data.draw(st.sampled_from(sorted(bags[node]))))
            elif corruption == "add vertex":
                bags[node].add(data.draw(st.sampled_from(g.vertices)))
            elif corruption == "drop edge" and edges:
                edges.remove(data.draw(st.sampled_from(edges)))
            elif corruption == "rewire edge" and edges:
                edges = _rewired(edges, data.draw(st.sampled_from(edges)))
            elif corruption == "add edge" and len(nodes) > 1:
                other = data.draw(st.sampled_from([m for m in nodes if m != node]))
                edges.append((node, other))
        corrupted = TreeDecomposition(bags=bags, tree_edges=edges)
        assert _outcome(TreeDecomposition.validate, corrupted, g) == _outcome(
            _reference_validate, corrupted, g
        )
