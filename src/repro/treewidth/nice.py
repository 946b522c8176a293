"""Nice tree decompositions.

A *nice* decomposition restructures an arbitrary tree decomposition so
every node is a Leaf (empty bag), Introduce (adds one vertex), Forget
(removes one vertex), or Join (two children with identical bags). This
is the shape that makes dynamic programming (Theorem 4.2 and the §7
treewidth DPs) a four-case recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import InvalidDecompositionError
from ..graphs.graph import Vertex
from .decomposition import NodeId, TreeDecomposition

LEAF = "leaf"
INTRODUCE = "introduce"
FORGET = "forget"
JOIN = "join"


@dataclass
class NiceNode:
    """One node of a nice tree decomposition."""

    kind: str
    bag: frozenset[Vertex]
    children: list[int] = field(default_factory=list)
    #: The vertex introduced/forgotten, for those kinds.
    vertex: Vertex | None = None


@dataclass
class NiceTreeDecomposition:
    """A rooted nice tree decomposition, nodes stored in a flat list.

    ``nodes[root]`` is the root; children indices always point to
    earlier entries, so iterating ``nodes`` in order is a valid
    bottom-up schedule for dynamic programming.
    """

    nodes: list[NiceNode]
    root: int

    @property
    def width(self) -> int:
        if not self.nodes:
            return -1
        return max(len(node.bag) for node in self.nodes) - 1

    def validate(self) -> None:
        """Check the four-node-kind grammar."""
        for i, node in enumerate(self.nodes):
            for child in node.children:
                if child >= i:
                    raise InvalidDecompositionError("children must precede parents")
            if node.kind == LEAF:
                if node.children or node.bag:
                    raise InvalidDecompositionError("leaf nodes have empty bags, no children")
            elif node.kind == INTRODUCE:
                (child,) = node.children
                expected = self.nodes[child].bag | {node.vertex}
                if node.vertex in self.nodes[child].bag or node.bag != expected:
                    raise InvalidDecompositionError(f"bad introduce node {i}")
            elif node.kind == FORGET:
                (child,) = node.children
                expected = self.nodes[child].bag - {node.vertex}
                if node.vertex not in self.nodes[child].bag or node.bag != expected:
                    raise InvalidDecompositionError(f"bad forget node {i}")
            elif node.kind == JOIN:
                left, right = node.children
                if self.nodes[left].bag != node.bag or self.nodes[right].bag != node.bag:
                    raise InvalidDecompositionError(f"bad join node {i}")
            else:
                raise InvalidDecompositionError(f"unknown node kind {node.kind!r}")


def make_nice(decomposition: TreeDecomposition) -> NiceTreeDecomposition:
    """Convert any valid tree decomposition into a nice one.

    The width never increases; the number of nodes grows by at most an
    O(width · nodes) factor.
    """
    if not decomposition.bags:
        return NiceTreeDecomposition(nodes=[NiceNode(LEAF, frozenset())], root=0)

    root_id = decomposition.nodes[0]
    children_map = decomposition.rooted_children(root_id)
    nodes: list[NiceNode] = []

    def emit(node: NiceNode) -> int:
        nodes.append(node)
        return len(nodes) - 1

    def chain_from_empty(target: frozenset[Vertex]) -> int:
        """Leaf, then introduce target's vertices one at a time."""
        idx = emit(NiceNode(LEAF, frozenset()))
        bag: frozenset[Vertex] = frozenset()
        for v in sorted(target, key=repr):
            bag = bag | {v}
            idx = emit(NiceNode(INTRODUCE, bag, [idx], vertex=v))
        return idx

    def morph(idx: int, source: frozenset[Vertex], target: frozenset[Vertex]) -> int:
        """Forget then introduce to turn bag ``source`` into ``target``."""
        bag = source
        for v in sorted(source - target, key=repr):
            bag = bag - {v}
            idx = emit(NiceNode(FORGET, bag, [idx], vertex=v))
        for v in sorted(target - source, key=repr):
            bag = bag | {v}
            idx = emit(NiceNode(INTRODUCE, bag, [idx], vertex=v))
        return idx

    # Post-order over the rooted tree with an explicit stack, emitting
    # what a recursive build would: each child subtree, morphed up to
    # its parent's bag as soon as it is done, then the parent's
    # left-deep chain of joins over its prepared children (a leaf bag
    # is introduced from empty instead). A frame's ``prepared`` list
    # holds one entry per finished child, so its length is the index
    # of the next child to build.
    stack: list[tuple[NodeId, list[int]]] = [(root_id, [])]
    while True:
        node_id, prepared = stack[-1]
        child_ids = children_map[node_id]
        if len(prepared) < len(child_ids):
            stack.append((child_ids[len(prepared)], []))
            continue
        stack.pop()
        bag = decomposition.bag(node_id)
        if child_ids:
            top = prepared[0]
            for other in prepared[1:]:
                top = emit(NiceNode(JOIN, bag, [top, other]))
        else:
            top = chain_from_empty(bag)
        if not stack:
            break
        parent_id, parent_prepared = stack[-1]
        parent_prepared.append(morph(top, bag, decomposition.bag(parent_id)))

    # Finish by forgetting the root bag down to empty, so DP tables at
    # the root always aggregate over a single empty-bag entry.
    top = morph(top, decomposition.bag(root_id), frozenset())
    nice = NiceTreeDecomposition(nodes=nodes, root=top)
    nice.validate()
    return nice
