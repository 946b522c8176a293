"""Semiring laws and the aggregate-equals-fold invariant.

This file is the law fixture every registered :class:`Semiring` points
at (``laws=``, checked by REP012): it property-checks the semiring
axioms plus the declared idempotence/absorption flags on
annotation-reachable values, and the repo-wide invariant that for
every (semiring, engine, backend) triple, aggregating through the
generic core is byte-identical to materializing the full answer and
folding it flat. It also pins the router's value modes: ``count`` and
``boolean`` are aliases of ``aggregate`` and share its route; cyclic
queries of several bags fold by variable elimination, with the same
ops on both backends and under every semiring.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.counting import CostCounter
from repro.generators.agm import uniform_random_database
from repro.relational.factorized import factorize
from repro.relational.elimination import variable_elimination
from repro.relational.query import Atom, JoinQuery
from repro.relational.router import decide_route, execute_route
from repro.relational.semiring import BOOLEAN, COUNTING, all_semirings, get_semiring
from repro.relational.wcoj import generic_join, generic_join_aggregate
from repro.relational.yannakakis import semiring_yannakakis


def _query(*atoms: str) -> JoinQuery:
    """``_query("ab", "bc")`` -> R1(a, b), R2(b, c)."""
    return JoinQuery(
        Atom(f"R{i + 1}", (pair[0], pair[1])) for i, pair in enumerate(atoms)
    )


SHAPES = {
    "triangle": JoinQuery.triangle,
    "cycle4": lambda: JoinQuery.cycle(4),
    "cycle5": lambda: JoinQuery.cycle(5),
    "cycle6": lambda: JoinQuery.cycle(6),
    "triangle-pendant": lambda: _query("ab", "bc", "ac", "cd"),
    "two-triangles": lambda: _query("ab", "bc", "ac", "bd", "cd"),
    "path2": lambda: JoinQuery.path(2),
    "path3": lambda: JoinQuery.path(3),
    "star2": lambda: JoinQuery.star(2),
    "star3": lambda: JoinQuery.star(3),
}

ACYCLIC = {"path2", "path3", "star2", "star3"}

#: Cyclic shapes whose min-fill order has more than one bag.
MULTI_BAG = {"cycle4", "cycle5", "cycle6", "triangle-pendant", "two-triangles"}

SEMIRING_NAMES = sorted(s.name for s in all_semirings())


def _wire(semiring, value) -> bytes:
    """The canonical wire bytes of a value — byte-for-byte comparisons."""
    return repr(semiring.to_payload(value)).encode()


# -- the repo invariant: generic core ≡ materialize-then-fold ----------


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    name=st.sampled_from(SEMIRING_NAMES),
    size=st.integers(1, 20),
    domain=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=80, deadline=None)
def test_every_engine_and_backend_matches_flat_fold(
    shape, name, size, domain, seed
):
    from repro.relational.semiring import aggregate_relation

    query = SHAPES[shape]()
    semiring = get_semiring(name)
    naive = uniform_random_database(query, size, domain, seed=seed)
    columnar = naive.with_backend("columnar")
    expected = _wire(
        semiring, aggregate_relation(semiring, query, generic_join(query, naive))
    )
    for database in (naive, columnar):
        assert _wire(
            semiring, generic_join_aggregate(query, database, semiring)
        ) == expected
        if shape in ACYCLIC:
            assert _wire(
                semiring, semiring_yannakakis(query, database, semiring)
            ) == expected
            assert _wire(
                semiring, factorize(query, database).aggregate(semiring)
            ) == expected


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    name=st.sampled_from(SEMIRING_NAMES),
    size=st.integers(1, 20),
    domain=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_aggregate_backend_parity_values_and_ops(shape, name, size, domain, seed):
    query = SHAPES[shape]()
    semiring = get_semiring(name)
    naive = uniform_random_database(query, size, domain, seed=seed)
    columnar = naive.with_backend("columnar")
    c1, c2 = CostCounter(), CostCounter()
    v1 = generic_join_aggregate(query, naive, semiring, counter=c1)
    v2 = generic_join_aggregate(query, columnar, semiring, counter=c2)
    assert _wire(semiring, v1) == _wire(semiring, v2)
    assert c1.total == c2.total


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    size=st.integers(1, 20),
    domain=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_routed_value_modes_match_flat_fold(shape, size, domain, seed):
    """``execute_route``'s ``count`` and ``aggregate`` answers are the
    flat fold's wire bytes under every semiring on both backends, with
    equal ops across backends. Multi-bag cyclic shapes run variable
    elimination, whose ops are the same under every semiring."""
    from repro.relational.semiring import aggregate_relation

    query = SHAPES[shape]()
    naive = uniform_random_database(query, size, domain, seed=seed)
    columnar = naive.with_backend("columnar")
    full = generic_join(query, naive)
    order = decide_route(query, mode="aggregate").order
    assert (order is not None) == (shape in MULTI_BAG)
    eliminated = set()
    for database in (naive, columnar):
        count = execute_route(query, database, mode="count")
        assert count.count == len(full)
        for name in SEMIRING_NAMES:
            semiring = get_semiring(name)
            routed = execute_route(query, database, mode="aggregate", semiring=semiring)
            expected = _wire(semiring, aggregate_relation(semiring, query, full))
            assert _wire(semiring, routed.aggregate) == expected, (name, database.backend)
            if order is not None:
                counter = CostCounter()
                value = variable_elimination(query, database, semiring, order, counter)
                assert _wire(semiring, value) == expected
                eliminated.add(counter.total)
                if name != "boolean":  # boolean takes the first-witness walk
                    assert routed.ops == counter.total
    backends = [
        execute_route(query, database, mode="count").ops
        for database in (naive, columnar)
    ]
    assert backends[0] == backends[1]
    assert len(eliminated) == (1 if order is not None else 0)


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    size=st.integers(1, 20),
    domain=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_op_counts_are_semiring_independent(shape, size, domain, seed):
    query = SHAPES[shape]()
    database = uniform_random_database(query, size, domain, seed=seed)
    totals = set()
    for name in SEMIRING_NAMES:
        counter = CostCounter()
        generic_join_aggregate(query, database, get_semiring(name), counter=counter)
        totals.add(counter.total)
    assert len(totals) == 1


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    size=st.integers(1, 20),
    domain=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=40, deadline=None)
def test_value_modes_are_aggregate_aliases_on_one_route(shape, size, domain, seed):
    query = SHAPES[shape]()
    naive = uniform_random_database(query, size, domain, seed=seed)
    route = "yannakakis" if shape in ACYCLIC else "wcoj"
    for database in (naive, naive.with_backend("columnar")):
        expected = len(generic_join(query, database))
        count = execute_route(query, database, mode="count")
        counted = execute_route(query, database, mode="aggregate", semiring=COUNTING)
        boolean = execute_route(query, database, mode="boolean")
        decided = execute_route(query, database, mode="aggregate", semiring=BOOLEAN)
        assert count.count == counted.aggregate == expected
        assert boolean.nonempty is decided.aggregate is (expected > 0)
        assert count.ops == counted.ops and boolean.ops == decided.ops
        answers = (count, counted, boolean, decided)
        assert {answer.decision.route for answer in answers} == {route}


# -- the semiring axioms on annotation-reachable values ----------------

_ATOM = st.tuples(
    st.sampled_from(["R", "S", "T"]),
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
)

#: Sum-of-products specs: every value an engine can reach is a ⊕ of
#: ⊗-products of tuple annotations (possibly empty: zero and one).
_SPEC = st.lists(st.lists(_ATOM, max_size=3), max_size=3)


def _value(semiring, spec):
    acc = semiring.zero
    for monomial in spec:
        weight = semiring.one
        for relation_name, tup in monomial:
            weight = semiring.mul(weight, semiring.annotate(relation_name, tup))
        acc = semiring.add(acc, weight)
    return acc


@given(
    name=st.sampled_from(SEMIRING_NAMES),
    sa=_SPEC,
    sb=_SPEC,
    sc=_SPEC,
)
@settings(max_examples=150, deadline=None)
def test_semiring_laws(name, sa, sb, sc):
    s = get_semiring(name)
    x, y, z = (_value(s, spec) for spec in (sa, sb, sc))
    # Commutative monoid under ⊕ with identity zero.
    assert s.add(x, y) == s.add(y, x)
    assert s.add(s.add(x, y), z) == s.add(x, s.add(y, z))
    assert s.add(x, s.zero) == x
    # Commutative monoid under ⊗ with identity one, annihilator zero.
    assert s.mul(x, y) == s.mul(y, x)
    assert s.mul(s.mul(x, y), z) == s.mul(x, s.mul(y, z))
    assert s.mul(x, s.one) == x
    assert s.mul(x, s.zero) == s.zero
    # ⊗ distributes over ⊕.
    assert s.mul(x, s.add(y, z)) == s.add(s.mul(x, y), s.mul(x, z))


@given(name=st.sampled_from(SEMIRING_NAMES), sa=_SPEC, sb=_SPEC)
@settings(max_examples=100, deadline=None)
def test_declared_flags_hold(name, sa, sb):
    s = get_semiring(name)
    x, y = _value(s, sa), _value(s, sb)
    if s.idempotent_add:
        assert s.add(x, x) == x
    if s.absorptive:
        assert s.add(x, s.mul(x, y)) == x
    if s.annotation_free:
        assert s.annotate("R", (1, 2)) == s.one


@given(
    name=st.sampled_from(SEMIRING_NAMES),
    sa=_SPEC,
    n=st.integers(0, 6),
)
@settings(max_examples=100, deadline=None)
def test_repeat_add_is_iterated_add(name, sa, n):
    s = get_semiring(name)
    x = _value(s, sa)
    acc = s.zero
    for _ in range(n):
        acc = s.add(acc, x)
    assert s.repeat_add(x, n) == acc
