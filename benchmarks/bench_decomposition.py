"""Cycle counting by variable elimination against whole-query Generic Join.

A cyclic ``count`` request is served by variable elimination along the
min-fill order its plan carries
(:func:`~repro.relational.elimination.variable_elimination`), whose
joins the order's width bounds (Freuder, Theorem 4.2): on a k-cycle
the width is 2 for every k. Whole-query Generic Join
(:func:`~repro.relational.wcoj.generic_join_aggregate`) visits every
answer, so its ops grow with the count. This bench counts k-cycles
for k = 4…8 on one seeded 55-vertex digraph with in- and out-degree 6
— 330 edges, the shape of perfbench's ``analytic`` uniform graph —
both ways, on both backends.

It fails if any count differs from trace(A^k), the closed walks of
length k, or if variable elimination charges more ops than Generic
Join for any k ≥ 5 (at k = 4 the cycle is small enough that visiting
its answers is cheaper). One row per k and backend — count, ops and
the best-of-:data:`REPEATS` seconds of each method — is merged into
``BENCH_kernels.json`` under ``decomposition_sweep``. Sizes, seed and
repeats are fixed here; the bench reads no environment settings.
"""

import json
import os
import platform
import random
import time
from pathlib import Path

import numpy as np

from repro.counting import CostCounter
from repro.relational.database import Database
from repro.relational.elimination import variable_elimination
from repro.relational.query import Atom, JoinQuery
from repro.relational.relation import Relation
from repro.relational.router import decide_route
from repro.relational.semiring import COUNTING
from repro.relational.wcoj import generic_join_aggregate

LENGTHS = (4, 5, 6, 7, 8)
VERTICES = 55
DEGREE = 6
SEED = 7
REPEATS = 3
OUT = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"


def regular_digraph(rng: random.Random, vertices: int, degree: int) -> list[tuple]:
    """A digraph in which every vertex has in- and out-degree
    ``degree``, without loops: the union of ``degree`` random
    permutations, each repaired by swaps until it adds only new,
    loop-free edges."""
    edges: set[tuple[int, int]] = set()
    for _ in range(degree):
        image = list(range(vertices))
        rng.shuffle(image)
        while True:
            bad = [u for u in range(vertices) if image[u] == u or (u, image[u]) in edges]
            if not bad:
                break
            for u in bad:
                w = rng.randrange(vertices)
                image[u], image[w] = image[w], image[u]
        edges.update(enumerate(image))
    return sorted(edges)


def closed_walks(edges: list[tuple], vertices: int, length: int) -> int:
    """trace(A^length) in exact integers."""
    power = [[int(i == j) for j in range(vertices)] for i in range(vertices)]
    for _ in range(length):
        step = [[0] * vertices for _ in range(vertices)]
        for u, v in edges:
            for i in range(vertices):
                step[i][v] += power[i][u]
        power = step
    return sum(power[i][i] for i in range(vertices))


def cycle(length: int) -> JoinQuery:
    """E(v0, v1), E(v1, v2), …, E(v_{k-1}, v0): a self-join over E."""
    return JoinQuery(
        Atom("E", (f"v{i}", f"v{(i + 1) % length}")) for i in range(length)
    )


def _best_of(fn) -> tuple[float, object, int]:
    """(best seconds, value, ops) over :data:`REPEATS` calls."""
    best = float("inf")
    for _ in range(REPEATS):
        counter = CostCounter()
        start = time.perf_counter()
        value = fn(counter)
        best = min(best, time.perf_counter() - start)
    return best, value, counter.total


def test_variable_elimination_beats_generic_join_on_cycles():
    edges = regular_digraph(random.Random(SEED), VERTICES, DEGREE)
    naive = Database([Relation("E", ("src", "dst"), edges)])
    rows = []
    for k in LENGTHS:
        query = cycle(k)
        decision = decide_route(query, mode="count")
        expected = closed_walks(edges, VERTICES, k)
        for database in (naive, naive.with_backend("columnar")):
            ve_seconds, ve_count, ve_ops = _best_of(
                lambda c: variable_elimination(
                    query, database, COUNTING, decision.order, counter=c
                )
            )
            gj_seconds, gj_count, gj_ops = _best_of(
                lambda c: generic_join_aggregate(query, database, COUNTING, counter=c)
            )
            where = f"k={k} {database.backend}"
            assert ve_count == gj_count == expected, where
            if k >= 5:
                assert ve_ops <= gj_ops, f"{where}: VE {ve_ops} > GJ {gj_ops} ops"
            rows.append(
                {
                    "k": k,
                    "backend": database.backend,
                    "count": expected,
                    "reason": decision.reason,
                    "ve_ops": ve_ops,
                    "ve_seconds": ve_seconds,
                    "gj_ops": gj_ops,
                    "gj_seconds": gj_seconds,
                }
            )
            print(
                f"{where}: count {expected}, VE {ve_ops} ops {ve_seconds * 1e3:.1f} ms, "
                f"GJ {gj_ops} ops {gj_seconds * 1e3:.1f} ms"
            )
    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record["decomposition_sweep"] = {
        "schema": "repro-bench-decomposition/1",
        "query": "k-cycle self-join E(v0,v1), ..., E(v_{k-1},v0), counting",
        "graph": {
            "vertices": VERTICES,
            "in_out_degree": DEGREE,
            "edges": len(edges),
            "seed": SEED,
        },
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "repeats_best_of": REPEATS,
        "rows": rows,
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
