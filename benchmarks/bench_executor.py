"""What a shard dispatch costs on top of the evaluation it carries.

With ``--workers 2`` every query crosses to its shard's worker process
and back (:mod:`repro.service.executor`). This bench measures that
crossing on data shaped like perfbench's ``sharded`` workload: 24
seeded digraphs with 30 vertices and in- and out-degree 4, each asked
the six uniform-graph queries ``sharded`` sends, served by a
``ShardedExecutor`` with 2 workers. It measures

* the median round trip of a no-op call to a worker;
* the median round trip of one dispatch in flight;
* the median inline :func:`~repro.service.executor.evaluate_core` of
  the same specs in this process;

(each spec's best of :data:`PASSES`, and the median over the specs);
* dispatches per second with two in flight.

It fails if a dispatched evaluation core differs from the inline one
(spans, which carry timings, the shard, and the shape of histograms
that follow the interning order aside: see :func:`_comparable`), if ``start()``
starts a thread, or if the median round trip exceeds the median inline
evaluation by more than half of it. One row per query shape, and the
medians, are merged into ``BENCH_kernels.json`` under
``dispatch_sweep``. Sizes, seed and passes are fixed here; the bench
reads no environment settings.
"""

import asyncio
import json
import os
import platform
import random
import statistics
import threading
import time
from pathlib import Path

import numpy as np

from benchmarks.bench_decomposition import regular_digraph
from repro.relational.query import Atom, JoinQuery
from repro.service.executor import ShardedExecutor, _worker_ping, evaluate_core
from repro.service.plan_cache import PlanCache
from repro.service.store import DatabaseStore

GRAPHS = 24
VERTICES = 30
DEGREE = 4
SEED = 11
WORKERS = 2
PASSES = 15
PINGS = 200
#: A dispatch may cost at most this many inline evaluations.
MAX_RATIO = 1.5
OUT = Path(__file__).resolve().parents[1] / "BENCH_kernels.json"


def _atoms(*pairs: str) -> list[dict]:
    return [{"relation": "E", "attributes": [p[0], p[1]]} for p in pairs]


TRIANGLE = _atoms("ab", "bc", "ac")
CYCLE5 = _atoms("ab", "bc", "cd", "de", "ea")
PATH3 = _atoms("ab", "bc", "cd")

#: ``(label, atoms, mode, semiring, free)``: the six queries ``sharded``
#: sends each of its graphs.
QUERIES = (
    ("triangle-count", TRIANGLE, "count", None, None),
    ("triangle-minplus", TRIANGLE, "aggregate", "minplus", None),
    ("cycle5-counting", CYCLE5, "aggregate", "counting", None),
    ("path3-enumerate", PATH3, "enumerate", None, None),
    ("path3-endpoints", PATH3, "enumerate", None, ["a", "d"]),
    ("path3-boolean", PATH3, "boolean", None, None),
)


def build_specs(store: DatabaseStore) -> list[tuple[str, dict]]:
    """``(label, spec)`` per graph and query, built as ``/query`` builds
    them."""
    plans = PlanCache()
    specs = []
    for name in store.names():
        fingerprint = store.fingerprint(name)
        for label, atoms, mode, semiring, free in QUERIES:
            query = JoinQuery(Atom(a["relation"], tuple(a["attributes"])) for a in atoms)
            plan, __ = plans.get_or_build(
                query, free, mode, name, fingerprint, store.backend, semiring
            )
            spec = {
                "atoms": atoms,
                "free": list(plan.free),
                "mode": mode,
                "semiring": semiring,
                "route": plan.decision.route,
                "reason": plan.decision.reason,
                "forests": plan.decision.forests,
                "order": plan.decision.order,
                "database": name,
                "fingerprint": fingerprint,
            }
            specs.append((label, spec))
    return specs


def _comparable(core: dict) -> dict:
    """A core minus its spans, which carry timings, its shard, and its
    histograms. Some histograms (``wcoj.probes_per_answer``) follow the
    order of the interned codes, and a worker's replica interns the
    store's canonical payload while the parent's database interned the
    registration payload, so they differ in shape, not in sum."""
    comparable = {k: v for k, v in core.items() if k not in ("spans", "shard")}
    histograms = comparable["metrics"].get("histograms", {})
    comparable["metrics"] = dict(
        comparable["metrics"],
        histograms={name: (h["count"], h["sum"]) for name, h in histograms.items()},
    )
    return comparable


async def measure(store: DatabaseStore, specs: list[tuple[str, dict]]) -> dict:
    executor = ShardedExecutor(store, workers=WORKERS)
    threads = threading.active_count()
    await executor.start()
    try:
        assert threading.active_count() == threads, "start() started a thread"
        # Warm pass: every replica builds its indexes, as the parent's do.
        for i, (label, spec) in enumerate(specs):
            core = await executor.dispatch(spec, f"w{i}")
            inline = evaluate_core(store.get(spec["database"]), spec, track=f"w{i}")
            assert core is not None, label
            assert _comparable(core) == _comparable(inline), label

        pings = []
        for _ in range(PINGS):
            start = time.perf_counter()
            await executor._workers[0].submit(_worker_ping)
            pings.append(time.perf_counter() - start)

        # Each spec's best of PASSES; every pass dispatches the specs one
        # after another, then evaluates them inline, so a slow spell of
        # the host costs both alike.
        dispatch = [float("inf")] * len(specs)
        inline = [float("inf")] * len(specs)
        for p in range(PASSES):
            for i, (label, spec) in enumerate(specs):
                start = time.perf_counter()
                core = await executor.dispatch(spec, f"d{p}.{i}")
                dispatch[i] = min(dispatch[i], time.perf_counter() - start)
                assert core is not None, label
            for i, (label, spec) in enumerate(specs):
                database = store.get(spec["database"])
                start = time.perf_counter()
                evaluate_core(database, spec, track=f"d{p}.{i}")
                inline[i] = min(inline[i], time.perf_counter() - start)

        async def stream(offset: int) -> None:
            for p in range(PASSES):
                for i in range(len(specs)):
                    label, spec = specs[(i + offset) % len(specs)]
                    assert await executor.dispatch(spec, f"t{offset}.{p}.{i}") is not None

        start = time.perf_counter()
        await asyncio.gather(stream(0), stream(len(specs) // 2))
        two_in_flight = 2 * PASSES * len(specs) / (time.perf_counter() - start)
        errors = executor.registry.counter_value("executor.errors")
    finally:
        executor.shutdown()
    assert errors == 0, f"{errors} transport errors"
    return {
        "ping": pings,
        "dispatch": dispatch,
        "inline": inline,
        "two_in_flight_per_s": two_in_flight,
    }


def _ms(samples: list[float]) -> float:
    return statistics.median(samples) * 1e3


def test_dispatch_costs_at_most_half_an_evaluation_more():
    rng = random.Random(SEED)
    store = DatabaseStore()
    for g in range(GRAPHS):
        edges = regular_digraph(rng, VERTICES, DEGREE)
        store.register(
            f"g{g}",
            [{"name": "E", "attributes": ["src", "dst"], "tuples": [list(e) for e in edges]}],
        )
    specs = build_specs(store)
    result = asyncio.run(measure(store, specs))
    ping_ms = _ms(result["ping"])
    dispatch_ms, inline_ms = _ms(result["dispatch"]), _ms(result["inline"])
    rows = []
    for label, *_ in QUERIES:
        picked = [i for i, (l, __) in enumerate(specs) if l == label]
        row = {
            "query": label,
            "route": specs[picked[0]][1]["route"],
            "dispatch_ms": _ms([result["dispatch"][i] for i in picked]),
            "inline_ms": _ms([result["inline"][i] for i in picked]),
        }
        rows.append(row)
        print(
            f"{label}: {row['route']}, dispatch {row['dispatch_ms']:.2f} ms, "
            f"inline {row['inline_ms']:.2f} ms"
        )
    print(
        f"ping {ping_ms:.3f} ms, dispatch {dispatch_ms:.2f} ms, inline "
        f"{inline_ms:.2f} ms, two in flight {result['two_in_flight_per_s']:.0f}/s"
    )
    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record["dispatch_sweep"] = {
        "schema": "repro-bench-dispatch/1",
        "workload": "perfbench sharded's queries on its graph shape, workers=2",
        "graphs": {
            "count": GRAPHS,
            "vertices": VERTICES,
            "in_out_degree": DEGREE,
            "seed": SEED,
        },
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "best_of_passes": PASSES,
        "ping_ms": ping_ms,
        "dispatch_ms": dispatch_ms,
        "inline_evaluate_ms": inline_ms,
        "two_in_flight_dispatches_per_s": result["two_in_flight_per_s"],
        "rows": rows,
    }
    OUT.write_text(json.dumps(record, indent=2) + "\n")
    assert dispatch_ms <= MAX_RATIO * inline_ms, (
        f"a dispatch round trip ({dispatch_ms:.2f} ms) exceeds inline "
        f"evaluate_core ({inline_ms:.2f} ms) by more than half"
    )
