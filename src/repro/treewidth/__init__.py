"""Tree decompositions and treewidth (§4, Definition 4.1).

Treewidth is the structural parameter the paper's classifications hinge
on: bounded treewidth ⇔ polynomial CSP(G) (Theorem 5.2), and the ETH
makes Freuder's |D|^{k+1} algorithm essentially optimal (Theorems
6.5–6.7). Provides validated decompositions, elimination-order
heuristics (min-degree / min-fill), exact treewidth for small graphs,
and nice decompositions for dynamic programming.
"""

from .decomposition import TreeDecomposition
from .heuristics import (
    decomposition_from_elimination_order,
    elimination_width,
    min_degree_order,
    min_fill_order,
    treewidth_lower_bound_degeneracy,
    treewidth_min_degree,
    treewidth_min_fill,
)
from .exact import treewidth_exact
from .nice import NiceNode, NiceTreeDecomposition, make_nice

__all__ = [
    "NiceNode",
    "NiceTreeDecomposition",
    "TreeDecomposition",
    "decomposition_from_elimination_order",
    "elimination_width",
    "make_nice",
    "min_degree_order",
    "min_fill_order",
    "treewidth_exact",
    "treewidth_lower_bound_degeneracy",
    "treewidth_min_degree",
    "treewidth_min_fill",
]
