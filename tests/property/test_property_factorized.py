"""Factorized results and routed answers agree byte-for-byte with the
flat engines.

The router (`repro.relational.router.execute_route`) must be
observationally equivalent to materialize-then-project on every query
— free-connex acyclic instances served from a factorized
representation, every other instance materialized flat — on both
backends, with identical op totals across backends. A factorized
result's `materialize()`, constant-delay `enumerate()` walk and
`count()` must agree with each other.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting import CostCounter
from repro.errors import SchemaError
from repro.generators.agm import uniform_random_database
from repro.observability.metrics import MetricsRegistry, activate_metrics
from repro.relational.algebra import project
from repro.relational.database import Database
from repro.relational.factorized import factorize, is_free_connex
from repro.relational.query import Atom, JoinQuery
from repro.relational.relation import Relation
from repro.relational.router import decide_route, execute_route
from repro.relational.wcoj import generic_join

SHAPES = {
    "triangle": JoinQuery.triangle,
    "cycle4": lambda: JoinQuery.cycle(4),
    "path3": lambda: JoinQuery.path(3),
    "path4": lambda: JoinQuery.path(4),
    "star3": lambda: JoinQuery.star(3),
    "lw3": lambda: JoinQuery.loomis_whitney(3),
}

ACYCLIC = {"path3", "path4", "star3"}


def _free_subset(query, mask):
    """A nonempty attribute subset selected by the bitmask, free order."""
    attrs = query.attributes
    picked = tuple(a for i, a in enumerate(attrs) if mask & (1 << i))
    return picked or attrs[:1]


def _reference(query, database, free):
    flat = project(generic_join(query, database), free)
    return repr(sorted(flat.tuples)).encode()


def _expected_route(shape, query, free):
    if is_free_connex(query, free):
        return "factorized"
    return "yannakakis" if shape in ACYCLIC else "wcoj"


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    mask=st.integers(1, 2**6 - 1),
    size=st.integers(1, 25),
    domain=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_router_matches_flat_projection_byte_for_byte(
    shape, mask, size, domain, seed
):
    query = SHAPES[shape]()
    free = _free_subset(query, mask)
    database = uniform_random_database(query, size, domain, seed=seed)
    expected = _reference(query, database, free)
    routed = execute_route(query, database, free=free)
    assert repr(sorted(routed.relation.tuples)).encode() == expected
    assert routed.decision.route == _expected_route(shape, query, free)
    if routed.decision.route == "factorized":
        result = factorize(query, database, free=free)
        assert repr(sorted(result.enumerate())).encode() == expected
        assert result.count() == len(routed.relation)


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    mask=st.integers(1, 2**6 - 1),
    size=st.integers(1, 20),
    domain=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_router_backend_parity(shape, mask, size, domain, seed):
    query = SHAPES[shape]()
    free = _free_subset(query, mask)
    naive = uniform_random_database(query, size, domain, seed=seed)
    columnar = naive.with_backend("columnar")
    c1, c2 = CostCounter(), CostCounter()
    r1 = execute_route(query, naive, free=free, counter=c1)
    r2 = execute_route(query, columnar, free=free, counter=c2)
    assert sorted(r1.relation.tuples) == sorted(r2.relation.tuples)
    assert r1.decision == r2.decision
    assert c1.total == c2.total
    if r1.decision.route == "factorized":
        f1 = factorize(query, naive, free=free)
        f2 = factorize(query, columnar, free=free)
        assert (f1.num_nodes, f1.num_edges) == (f2.num_nodes, f2.num_edges)
        assert f1.count() == f2.count() == len(r1.relation)


@given(
    shape=st.sampled_from(sorted(set(SHAPES) - ACYCLIC)),
    size=st.integers(1, 20),
    domain=st.integers(1, 5),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=30, deadline=None)
def test_cyclic_queries_route_to_wcoj(shape, size, domain, seed):
    query = SHAPES[shape]()
    database = uniform_random_database(query, size, domain, seed=seed)
    routed = execute_route(query, database)
    assert routed.decision.route == "wcoj"
    assert routed.relation.tuples == generic_join(query, database).tuples
    with pytest.raises(SchemaError):
        factorize(query, database)


@given(
    shape=st.sampled_from(sorted(ACYCLIC)),
    size=st.integers(1, 25),
    domain=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_full_acyclic_queries_factorize(shape, size, domain, seed):
    query = SHAPES[shape]()
    database = uniform_random_database(query, size, domain, seed=seed)
    result = factorize(query, database)
    assert decide_route(query).route == "factorized"
    expected = _reference(query, database, query.attributes)
    assert repr(sorted(result.materialize().tuples)).encode() == expected


# -- explicit dichotomy fixtures --------------------------------------


FREE_CONNEX_FIXTURES = [
    (JoinQuery.path(3), ("a0", "a1")),
    (JoinQuery.path(3), ("a1", "a2")),
    (JoinQuery.star(2), ("c", "l0")),
    (JoinQuery.star(3), ("c",)),
    (JoinQuery.path(2), ("a0", "a1", "a2")),
    # Disconnected free-connex product: answers are a cross product.
    (JoinQuery([Atom("R1", ("a", "b")), Atom("R2", ("c", "d"))]), ("a", "c")),
]

NON_FREE_CONNEX_FIXTURES = [
    # Endpoints of a path: the extended hypergraph closes a cycle.
    (JoinQuery.path(3), ("a0", "a3")),
    # The BMM star projection — acyclic yet hard (§8).
    (JoinQuery.star(2), ("l0", "l1")),
    (JoinQuery.star(3), ("l0", "l1", "l2")),
    # Cyclic query: never free-connex, whatever the projection.
    (JoinQuery.triangle(), JoinQuery.triangle().attributes),
]


def test_free_connex_fixtures():
    for query, free in FREE_CONNEX_FIXTURES:
        assert is_free_connex(query, free), (query, free)


def test_non_free_connex_fixtures():
    for query, free in NON_FREE_CONNEX_FIXTURES:
        assert not is_free_connex(query, free), (query, free)


def test_fixture_routing_and_agreement():
    for query, free in FREE_CONNEX_FIXTURES + NON_FREE_CONNEX_FIXTURES:
        database = uniform_random_database(query, 15, 4, seed=11)
        routed = execute_route(query, database, free=free)
        expected = _reference(query, database, free)
        assert repr(sorted(routed.relation.tuples)).encode() == expected
        fc = is_free_connex(query, free)
        assert (routed.decision.route == "factorized") == fc


# -- the bulk materialize against the constant-delay walk -------------


def _assert_bulk_matches_walk(query, database, free):
    """``materialize()`` holds exactly the answers the walk yields over
    ``free``, the walk yields each one once, and ``materialize()``
    neither charges the build's counter nor observes any metric."""
    counter = CostCounter()
    result = factorize(query, database, free=free, counter=counter)
    built = counter.total
    registry = MetricsRegistry()
    with activate_metrics(registry):
        flat = result.materialize()
    assert counter.total == built
    assert registry.to_payload() == {}
    assert flat.attributes == tuple(free)
    walked = list(result.enumerate())
    assert sorted(walked) == sorted(flat.tuples)
    assert len(walked) == result.count()
    return flat


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    mask=st.integers(1, 2**6 - 1),
    size=st.integers(1, 25),
    domain=st.integers(1, 8),
    seed=st.integers(0, 10**6),
    backend=st.sampled_from(["naive", "columnar"]),
)
@settings(max_examples=80, deadline=None)
def test_bulk_materialize_equals_the_walk(shape, mask, size, domain, seed, backend):
    query = SHAPES[shape]()
    free = _free_subset(query, mask)
    database = uniform_random_database(query, size, domain, seed=seed)
    database = database.with_backend(backend)
    if not is_free_connex(query, free):
        with pytest.raises(SchemaError):
            factorize(query, database, free=free)
        return
    _assert_bulk_matches_walk(query, database, free)


def test_bulk_materialize_on_fixtures_and_empty_answers():
    for query, free in FREE_CONNEX_FIXTURES:
        database = uniform_random_database(query, 15, 4, seed=11)
        for backend in ("naive", "columnar"):
            flat = _assert_bulk_matches_walk(
                query, database.with_backend(backend), free
            )
            assert flat.tuples
    # The disconnected product: answers are the full cross product of
    # the two roots' projections.
    query, free = FREE_CONNEX_FIXTURES[-1]
    database = uniform_random_database(query, 15, 4, seed=11)
    flat = _assert_bulk_matches_walk(query, database, free)
    assert flat.tuples == {
        (a, c)
        for a in database.relation("R1").column("a")
        for c in database.relation("R2").column("c")
    }
    # Empty answers: disjoint join values, and an empty guard relation.
    path = JoinQuery.path(3)
    disjoint = Database(
        [
            Relation(
                atom.relation_name, atom.attributes, [(i, i + 10 * k) for i in range(3)]
            )
            for k, atom in enumerate(path.atoms)
        ]
    )
    guarded = JoinQuery([Atom("R1", ("a", "b")), Atom("R2", ("c", "d"))])
    no_guard = Database(
        [Relation("R1", ("a", "b"), [(1, 2)]), Relation("R2", ("c", "d"))]
    )
    for backend in ("naive", "columnar"):
        for free in (path.attributes, ("a0", "a1")):
            flat = _assert_bulk_matches_walk(
                path, disjoint.with_backend(backend), free
            )
            assert not flat.tuples
        flat = _assert_bulk_matches_walk(
            guarded, no_guard.with_backend(backend), ("a",)
        )
        assert not flat.tuples
