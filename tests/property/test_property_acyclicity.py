"""The GYO structure pass on random hypergraphs.

One pass (`repro.hypergraph.acyclicity.gyo`) decides α-acyclicity and
builds the join forest every acyclic engine runs on, so both of its
outputs are checked against their definitions rather than against
another implementation:

* on an acyclic input, the witness links form a forest over every edge
  and satisfy the running intersection property — a certificate of
  acyclicity;
* on a cyclic input, the residue is nonempty and irreducible: no GYO
  rule applies to it, so (GYO being confluent) the input is cyclic.

Route decisions built from the pass agree with `is_alpha_acyclic` and
`is_free_connex`, and carry forests that are join forests of the
hypergraphs their engines sweep.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidInstanceError
from repro.hypergraph.acyclicity import gyo, is_alpha_acyclic, join_tree
from repro.hypergraph.hypergraph import Hypergraph
from repro.relational.factorized import extended_hypergraph, is_free_connex
from repro.relational.query import Atom, JoinQuery
from repro.relational.router import MODES, decide_route

#: At most 7 vertices and 8 edges of arity 1–3; edges may repeat.
EDGE_LISTS = st.lists(
    st.sets(st.integers(0, 6), min_size=1, max_size=3), min_size=1, max_size=8
)


def assert_join_forest(edges, links, root=None):
    """``links`` is a forest over every edge with running intersection."""
    parent = {}
    for child, par in links:
        assert 0 <= child < len(edges) and 0 <= par < len(edges)
        assert child not in parent, "an edge has two parents"
        parent[child] = par
    for start in range(len(edges)):
        node, steps = start, 0
        while node in parent:
            node, steps = parent[node], steps + 1
            assert steps <= len(edges), "the links contain a cycle"
    if root is not None:
        assert root not in parent
    adjacent = {i: set() for i in range(len(edges))}
    for child, par in links:
        adjacent[child].add(par)
        adjacent[par].add(child)
    for v in set().union(*edges):
        holders = {i for i, edge in enumerate(edges) if v in edge}
        first = min(holders)
        reached, stack = {first}, [first]
        while stack:
            for neighbor in adjacent[stack.pop()] & holders:
                if neighbor not in reached:
                    reached.add(neighbor)
                    stack.append(neighbor)
        assert reached == holders, f"the edges holding {v!r} are not connected"


def assert_irreducible(edges, residue):
    """No GYO rule applies to the residue."""
    assert residue
    shared = {
        v
        for v in set().union(*(edges[i] for i in residue))
        if sum(v in edges[i] for i in residue) >= 2
    }
    live = {i: frozenset(edges[i]) & shared for i in residue}
    for i in residue:
        assert live[i], f"residue edge {i} is an ear"
        for j in residue:
            assert j == i or not live[i] <= live[j], f"edge {i} lies in edge {j}"


@settings(max_examples=400, deadline=None)
@given(edge_list=EDGE_LISTS)
def test_pass_certifies_its_answer(edge_list):
    hypergraph = Hypergraph(edges=edge_list)
    edges = hypergraph.edges
    reduction = gyo(hypergraph)
    assert sorted(reduction.order + reduction.residue) == list(range(len(edges)))
    if reduction.residue:
        assert not is_alpha_acyclic(hypergraph)
        assert_irreducible(edges, reduction.residue)
        with pytest.raises(InvalidInstanceError):
            join_tree(hypergraph)
    else:
        assert is_alpha_acyclic(hypergraph)
        links = join_tree(hypergraph)
        assert_join_forest(edges, links)
        # Each component hangs below its lowest-index edge.
        parent = dict(links)
        for node in range(len(edges)):
            top = node
            while top in parent:
                top = parent[top]
            assert top <= node
        for root in range(len(edges)):
            rerooted = reduction.forest(root=root)
            assert_join_forest(edges, rerooted, root=root)
            assert {frozenset(link) for link in rerooted} == {
                frozenset(link) for link in links
            }


def _query(edge_list):
    return JoinQuery(
        Atom(f"R{i}", tuple(f"v{v}" for v in sorted(edge)))
        for i, edge in enumerate(edge_list)
    )


@settings(max_examples=300, deadline=None)
@given(
    edge_list=EDGE_LISTS,
    mask=st.integers(0, 2**7 - 1),
    full=st.booleans(),
    mode=st.sampled_from(MODES),
)
def test_routes_agree_with_the_predicates(edge_list, mask, full, mode):
    query = _query(edge_list)
    free = None
    if not full:
        free = tuple(a for i, a in enumerate(query.attributes) if mask >> i & 1)
        free = free or query.attributes[:1]
    strict = free is not None and len(free) < len(query.attributes)
    if mode in ("count", "aggregate") and strict:
        with pytest.raises(InvalidInstanceError):
            decide_route(query, free=free, mode=mode)
        return
    decision = decide_route(query, free=free, mode=mode)
    acyclic = is_alpha_acyclic(query.hypergraph())
    if not acyclic:
        assert (decision.route, decision.forests) == ("wcoj", None)
    elif mode == "enumerate" and is_free_connex(query, free):
        assert decision.route == "factorized"
        free_t = free if free is not None else query.attributes
        extended, derived = decision.forests
        f_index = len(query.atoms)
        assert_join_forest(
            extended_hypergraph(query, free_t).edges, extended, root=f_index
        )
        tops = [child for child, parent in extended if parent == f_index]
        interfaces = [set(query.atoms[t].attributes) & set(free_t) for t in tops]
        assert_join_forest(interfaces, derived)
    else:
        assert decision.route == "yannakakis"
        (forest,) = decision.forests
        assert_join_forest(query.hypergraph().edges, forest)
