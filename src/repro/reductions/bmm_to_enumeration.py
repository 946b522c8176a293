"""Boolean matrix multiplication → star-query enumeration (§8, [13, 16]).

The hard side of the free-connex dichotomy. Given Boolean n×n matrices
A and B — encoded as a tripartite graph with layers I, K, J whose I–K
edges are the 1-entries of A and K–J edges those of B — the projected
star query

    π_{l0, l1} ( R1(c, l0) ⋈ R2(c, l1) )

with R1 = {(k, i) : A[i, k] = 1} and R2 = {(k, j) : B[k, j] = 1} has
answer set exactly the nonzero entries of A·B. The query hypergraph is
α-acyclic, but adding the free-variable edge {l0, l1} closes a cycle,
so the query is *not* free-connex: an enumerator with linear
preprocessing and constant delay would emit all of A·B in O(n² + out)
time, contradicting the combinatorial BMM conjecture. This is the
reduction behind the ``enum-delay-dichotomy`` lower bound, and the
reason the router (:func:`repro.relational.router.decide_route`) must
not take its ``factorized`` route here: it materializes the answer
flat instead.
"""

from __future__ import annotations

from ..errors import ReductionError
from ..graphs.graph import Graph
from ..relational.database import Database
from ..relational.factorized import extended_hypergraph, is_free_connex
from ..relational.query import Atom, JoinQuery
from ..relational.relation import Relation
from ..relational.router import execute_route
from ..hypergraph.acyclicity import is_alpha_acyclic
from ..transforms import GRAPH, QUERY, CertifiedReduction, make_bound, transform
from ..transforms.witnesses import bmm_tripartite_graph

FREE = ("l0", "l1")

LAYER_LEFT, LAYER_CENTER, LAYER_RIGHT = "i", "k", "j"


def _layered_edges(graph: Graph) -> tuple[list, list]:
    """Split tripartite edges into (I–K, K–J) lists, validating layers."""
    left_edges, right_edges = [], []
    for u, v in graph.edges():
        layers = {u[0], v[0]}
        by_layer = {vertex[0]: vertex for vertex in (u, v)}
        if layers == {LAYER_LEFT, LAYER_CENTER}:
            left_edges.append((by_layer[LAYER_CENTER], by_layer[LAYER_LEFT]))
        elif layers == {LAYER_CENTER, LAYER_RIGHT}:
            right_edges.append((by_layer[LAYER_CENTER], by_layer[LAYER_RIGHT]))
        else:
            raise ReductionError(
                f"edge {(u, v)!r} is not I–K or K–J; the BMM encoding "
                "requires a tripartite graph with layers tagged "
                f"{LAYER_LEFT!r}/{LAYER_CENTER!r}/{LAYER_RIGHT!r}"
            )
    return left_edges, right_edges


def _product_pairs(left_edges: list, right_edges: list) -> set[tuple]:
    """The nonzero entries of A·B, computed by the definition."""
    rights_by_center: dict = {}
    for center, right in right_edges:
        rights_by_center.setdefault(center, []).append(right)
    return {
        (left, right)
        for center, left in left_edges
        for right in rights_by_center.get(center, ())
    }


def _pair_back(answer: tuple) -> tuple:
    """A target answer (l0, l1) *is* a nonzero (i, j) entry of A·B."""
    return answer


@transform(
    name="bmm→star-enumeration",
    source=GRAPH,
    target=QUERY,
    source_format="tripartite-bmm",
    target_format="enumeration",
    guarantees=(
        "two atoms sharing the center attribute",
        "query is alpha-acyclic",
        "query plus free edge is not alpha-acyclic",
        "relation sizes equal matrix densities",
        "answers are the nonzero entries of A*B",
    ),
    parameter_bound=make_bound("k", lambda k: k),
    witness=bmm_tripartite_graph,
)
def bmm_graph_to_star_query(graph: Graph) -> CertifiedReduction:
    """Encode a BMM instance as a projected star query (Q, D, free).

    The target is the triple ``(query, database, free)``: evaluating
    π_free(query) over the database yields exactly the nonzero entries
    of the Boolean product. The certificates pin the two dichotomy
    facts — α-acyclic, yet not free-connex — plus answer correctness
    against a from-the-definition product.
    """
    left_edges, right_edges = _layered_edges(graph)
    query = JoinQuery([Atom("R1", ("c", "l0")), Atom("R2", ("c", "l1"))])
    database = Database(
        [
            Relation("R1", ("x", "y"), left_edges),
            Relation("R2", ("x", "y"), right_edges),
        ]
    )
    expected = _product_pairs(left_edges, right_edges)
    # The router must take a hard-side route (flat materialization).
    routed = execute_route(query, database, free=FREE)
    answers = set(routed.relation.tuples)

    n = max(
        (len({v for v in graph.vertices if v[0] == layer})
         for layer in (LAYER_LEFT, LAYER_CENTER, LAYER_RIGHT)),
        default=0,
    )
    reduction = CertifiedReduction(
        name="bmm→star-enumeration",
        source=graph,
        target=(query, database, FREE),
        map_solution_back=_pair_back,
        parameter_source=n,
        parameter_target=n,
    )
    reduction.certify_eq(
        "two atoms sharing the center attribute",
        [set(atom.attributes) & {"c"} for atom in query.atoms],
        [{"c"}, {"c"}],
    )
    reduction.certify_that(
        "query is alpha-acyclic",
        is_alpha_acyclic(query.hypergraph()),
    )
    reduction.certify_that(
        "query plus free edge is not alpha-acyclic",
        not is_alpha_acyclic(extended_hypergraph(query, FREE))
        and not is_free_connex(query, FREE)
        and routed.decision.route != "factorized",
        f"router route: {routed.decision.route}",
    )
    reduction.certify_eq(
        "relation sizes equal matrix densities",
        (len(database.relation("R1")), len(database.relation("R2"))),
        (len(left_edges), len(right_edges)),
    )
    reduction.certify_that(
        "answers are the nonzero entries of A*B",
        answers == expected,
        f"{len(answers)} answers vs {len(expected)} product entries",
    )
    return reduction
