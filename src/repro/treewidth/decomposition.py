"""Tree decompositions with full axiom validation (Definition 4.1)."""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from ..errors import InvalidDecompositionError
from ..graphs.graph import Graph, Vertex

NodeId = Hashable


class TreeDecomposition:
    """A tree decomposition ``(B, T)`` of a graph.

    Parameters
    ----------
    bags:
        Mapping from tree-node id to the bag (set of graph vertices).
    tree_edges:
        Edges of the tree ``T`` over the node ids.

    The three axioms of Definition 4.1 are checked by :meth:`validate`:
    vertex coverage, edge coverage, and connectivity of each vertex's
    occurrence set.
    """

    def __init__(
        self,
        bags: Mapping[NodeId, Iterable[Vertex]],
        tree_edges: Iterable[tuple[NodeId, NodeId]] = (),
    ) -> None:
        self.bags: dict[NodeId, frozenset[Vertex]] = {
            node: frozenset(bag) for node, bag in bags.items()
        }
        self.tree = Graph(vertices=self.bags)
        for a, b in tree_edges:
            if a not in self.bags or b not in self.bags:
                raise InvalidDecompositionError(
                    f"tree edge ({a!r}, {b!r}) references a node without a bag"
                )
            self.tree.add_edge(a, b)

    @property
    def width(self) -> int:
        """max |B_t| - 1 over all bags (−1 for the empty decomposition)."""
        if not self.bags:
            return -1
        return max(len(bag) for bag in self.bags.values()) - 1

    @property
    def nodes(self) -> list[NodeId]:
        return list(self.bags)

    def bag(self, node: NodeId) -> frozenset[Vertex]:
        return self.bags[node]

    def validate(self, graph: Graph) -> None:
        """Raise :class:`InvalidDecompositionError` on any axiom breach.

        The checks run in this order and the first breach is raised:
        the tree is a tree, every vertex is covered, every edge lies in
        some bag (the first uncovered edge of ``graph.edges()``), and
        every vertex's occurrence set is connected (the first
        disconnected vertex of ``graph.vertices``). The tree induces a
        forest on a vertex's occurrence set, which is connected iff it
        has |occ| − 1 tree edges; one pass over the tree edges counts
        them for every vertex at once.

        Complexity: O(|V(G)| + Σ_t |B_t| + Σ_{uv ∈ E(G)} min(|occ(u)|,
            |occ(v)|)), with occ(v) the bags holding v.
        """
        if not self._is_tree():
            raise InvalidDecompositionError("decomposition's tree is not a tree")

        occurrences: dict[Vertex, set[NodeId]] = {}
        for node, bag in self.bags.items():
            for v in bag:
                occurrences.setdefault(v, set()).add(node)
        missing = [v for v in graph.vertices if v not in occurrences]
        if missing:
            raise InvalidDecompositionError(
                f"vertices not covered by any bag: {sorted(map(repr, missing))}"
            )

        for u, v in graph.edges():
            if occurrences[u].isdisjoint(occurrences[v]):
                raise InvalidDecompositionError(f"edge ({u!r}, {v!r}) is in no bag")

        spanned = dict.fromkeys(occurrences, 0)
        for a, b in self.tree.edges():
            for v in self.bags[a] & self.bags[b]:
                spanned[v] += 1
        for v in graph.vertices:
            if spanned[v] != len(occurrences[v]) - 1:
                raise InvalidDecompositionError(
                    f"occurrence set of vertex {v!r} is not connected in the tree"
                )

    def is_valid(self, graph: Graph) -> bool:
        """Boolean form of :meth:`validate`."""
        try:
            self.validate(graph)
        except InvalidDecompositionError:
            return False
        return True

    def _is_tree(self) -> bool:
        n = self.tree.num_vertices
        if n == 0:
            return True
        if self.tree.num_edges != n - 1:
            return False
        return len(self.tree.connected_components()) == 1

    def rooted_children(self, root: NodeId) -> dict[NodeId, list[NodeId]]:
        """Orient the tree away from ``root``; children per node."""
        children: dict[NodeId, list[NodeId]] = {node: [] for node in self.bags}
        seen = {root}
        stack = [root]
        while stack:
            node = stack.pop()
            for nbr in self.tree.neighbors(node):
                if nbr not in seen:
                    seen.add(nbr)
                    children[node].append(nbr)
                    stack.append(nbr)
        return children

    def __repr__(self) -> str:
        return f"TreeDecomposition(nodes={len(self.bags)}, width={self.width})"
