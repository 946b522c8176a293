"""Planning scales linearly in the number of atoms.

Routing a query runs the GYO structure pass once per hypergraph the
route needs (:func:`~repro.relational.router.decide_route`), and the
acyclic engines run on the forests it records instead of re-deriving
them. With a vertex → edge incidence index the pass is linear on
bounded-degree queries, so the wall time of ``decide_route`` plus
``run_route`` must grow like the op count, linearly in the number of
atoms. An all-pairs GYO grows roughly as the cube here; this bench
fails if the fitted log-log exponent of the time over the atom count
exceeds :data:`MAX_EXPONENT`.

Four families, on the columnar backend unless stated:

* boolean path queries ``R_1(a_0, a_1), …, R_n(a_{n-1}, a_n)``, one
  100-edge relation per atom: ``decide_route`` + ``run_route``;
* cycle queries of the same lengths: ``decide_route`` alone (their
  Boolean evaluation is the Generic Join, whose cost is the data's);
* the same cycles in ``count`` mode: ``decide_route`` alone, which also
  computes the min-fill elimination order the plan carries — a
  rescanning min-fill order grows roughly as the square here;
* Generic Join on the same cycles, ``boolean`` and ``enumerate`` with
  ``free=[a0]``, on both backends: ``decide_route`` + ``run_route``
  with every relation a directed 4-cycle, so each query has exactly
  four answers and exact op counts of 3n + 1 and 12n + 4. A walk that
  recursed per attribute would fail here from 400 atoms, and a set-up
  that scanned every atom per attribute would grow as the square.

One more family times ``/solve``'s engine, :func:`repro.csp.solver.solve`
(``auto``: min-fill, then Freuder's DP over the nice decomposition and
its traceback), on 3-colourings of paths and of 2×(n/2) ladders with
n = 100…1,600 variables: primal widths 1 and 2, degrees at most 3.
Every witness is checked with ``is_solution`` and a path's op count
must be 15n − 9. A decomposition, DP or traceback that recursed per
tree level would fail here at 800 variables. Partial 2-trees
(``bounded_treewidth_csp``) are left out: they grow high-degree
vertices, on which the min-fill order's cost dominates.

Sizes, repeats and the bound are fixed here; the bench reads no
environment settings. Each time is the best of :data:`REPEATS` calls,
after a warm-up call that builds the per-relation indexes.
"""

import math
import random
import statistics
import time

import pytest

from repro.counting import CostCounter
from repro.csp.instance import CSPInstance
from repro.csp.solver import solve
from repro.graphs.graph import Graph
from repro.reductions.sat_to_coloring import coloring_as_csp
from repro.relational.database import Database
from repro.relational.query import JoinQuery
from repro.relational.relation import Relation
from repro.relational.router import decide_route, run_route

SIZES = (100, 200, 400, 800, 1600)
REPEATS = 3
MAX_EXPONENT = 1.3
EDGES_PER_RELATION = 100
DOMAIN = 30


def _path_database(atoms: int, rng: random.Random) -> Database:
    relations = []
    for i in range(atoms):
        edges: set[tuple[int, int]] = set()
        while len(edges) < EDGES_PER_RELATION:
            edges.add((rng.randrange(DOMAIN), rng.randrange(DOMAIN)))
        relations.append(Relation(f"R{i + 1}", ("x", "y"), sorted(edges)))
    return Database(relations).with_backend("columnar")


def _path_colouring(n: int) -> CSPInstance:
    return coloring_as_csp(Graph(edges=[(f"x{i}", f"x{i + 1}") for i in range(n - 1)]))


def _ladder_colouring(n: int) -> CSPInstance:
    """The 2×(n/2) ladder: two rails ``a``, ``b`` and a rung per column."""
    columns = range(n // 2)
    rungs = [(f"a{i}", f"b{i}") for i in columns]
    rails = [(f"{rail}{i}", f"{rail}{i + 1}") for rail in "ab" for i in columns[:-1]]
    return coloring_as_csp(Graph(edges=rungs + rails))


def _best_of(fn) -> float:
    best = math.inf
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _exponent(sizes, seconds) -> float:
    """Least-squares slope of log(seconds) over log(size)."""
    xs = [math.log(n) for n in sizes]
    ys = [math.log(s) for s in seconds]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
        (x - mx) ** 2 for x in xs
    )


def test_path_planning_and_evaluation_are_linear():
    rng = random.Random(16)
    seconds = []
    for n in SIZES:
        query = JoinQuery.path(n)
        database = _path_database(n, rng)
        decision = decide_route(query, mode="boolean")
        warm = run_route(query, database, decision)
        assert decision.route == "yannakakis" and warm.nonempty is not None

        def plan_and_run():
            run_route(query, database, decide_route(query, mode="boolean"))

        seconds.append(_best_of(plan_and_run))
        print(f"path n={n}: decide+run {seconds[-1] * 1e3:.1f} ms, ops {warm.ops}")
    exponent = _exponent(SIZES, seconds)
    print(f"path decide+run exponent {exponent:.2f} (bound {MAX_EXPONENT})")
    assert exponent <= MAX_EXPONENT, (
        f"decide_route + run_route grows as n^{exponent:.2f} over {SIZES} atoms"
    )


def test_cycle_routing_is_linear():
    seconds = []
    for n in SIZES:
        query = JoinQuery.cycle(n)
        assert decide_route(query, mode="boolean").route == "wcoj"
        seconds.append(_best_of(lambda: decide_route(query, mode="boolean")))
        print(f"cycle n={n}: decide {seconds[-1] * 1e3:.2f} ms")
    exponent = _exponent(SIZES, seconds)
    print(f"cycle decide exponent {exponent:.2f} (bound {MAX_EXPONENT})")
    assert exponent <= MAX_EXPONENT, (
        f"decide_route grows as n^{exponent:.2f} over {SIZES}-atom cycles"
    )


def test_cycle_count_planning_is_linear():
    seconds = []
    for n in SIZES:
        query = JoinQuery.cycle(n)
        decision = decide_route(query, mode="count")
        assert decision.route == "wcoj" and len(decision.order) == n
        seconds.append(_best_of(lambda: decide_route(query, mode="count")))
        print(f"cycle n={n}: count decide {seconds[-1] * 1e3:.2f} ms")
    exponent = _exponent(SIZES, seconds)
    print(f"cycle count decide exponent {exponent:.2f} (bound {MAX_EXPONENT})")
    assert exponent <= MAX_EXPONENT, (
        f"decide_route(mode='count') grows as n^{exponent:.2f} over "
        f"{SIZES}-atom cycles"
    )


#: A directed 4-cycle: a cycle query of length n = 0 mod 4 over it has
#: exactly four answers, one per start vertex.
RING = [(0, 1), (1, 2), (2, 3), (3, 0)]


@pytest.mark.parametrize("backend", ["naive", "columnar"])
@pytest.mark.parametrize(
    "mode, free, ops, answer",
    [
        ("boolean", None, lambda n: 3 * n + 1, True),
        ("enumerate", ("a0",), lambda n: 12 * n + 4, [(0,), (1,), (2,), (3,)]),
    ],
)
def test_cycle_generic_join_is_linear(backend, mode, free, ops, answer):
    seconds = []
    for n in SIZES:
        query = JoinQuery.cycle(n)
        database = Database(
            [Relation(f"R{i + 1}", ("x", "y"), RING) for i in range(n)]
        ).with_backend(backend)
        warm = run_route(query, database, decide_route(query, free, mode), free=free)
        assert warm.decision.route == "wcoj" and warm.ops == ops(n)
        if mode == "boolean":
            assert warm.nonempty is answer
        else:
            assert sorted(warm.relation.tuples) == answer

        def plan_and_run():
            run_route(query, database, decide_route(query, free, mode), free=free)

        seconds.append(_best_of(plan_and_run))
        print(f"cycle n={n} {backend} {mode}: decide+run {seconds[-1] * 1e3:.1f} ms")
    exponent = _exponent(SIZES, seconds)
    print(f"cycle {backend} {mode} exponent {exponent:.2f} (bound {MAX_EXPONENT})")
    assert exponent <= MAX_EXPONENT, (
        f"Generic Join ({backend}, {mode}) grows as n^{exponent:.2f} over "
        f"{SIZES}-atom cycles"
    )


@pytest.mark.parametrize(
    "family, build", [("path", _path_colouring), ("ladder", _ladder_colouring)]
)
def test_csp_solve_is_linear(family, build):
    seconds = []
    for n in SIZES:
        instance = build(n)
        counter = CostCounter()
        witness = solve(instance, counter=counter)
        assert witness is not None and instance.is_solution(witness)
        if family == "path":
            assert counter.total == 15 * n - 9
        seconds.append(_best_of(lambda: solve(instance)))
        print(f"{family} n={n}: solve {seconds[-1] * 1e3:.1f} ms, ops {counter.total}")
    exponent = _exponent(SIZES, seconds)
    print(f"{family} solve exponent {exponent:.2f} (bound {MAX_EXPONENT})")
    assert exponent <= MAX_EXPONENT, (
        f"solve grows as n^{exponent:.2f} over {SIZES}-variable {family} 3-colourings"
    )
