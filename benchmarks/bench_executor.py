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
* dispatches per second with two in flight;
* what a registration costs: a graph the size of perfbench's write
  probe (about 5,600 edges) registered through
  :meth:`~repro.service.server.QueryService.dispatch` at ``workers=2``
  and at ``workers=0``, each write followed at once by a query on it,
  best of :data:`WRITES` with a pause after each.

It fails if a dispatched evaluation core differs from the inline one
(spans, which carry timings, and the shard aside), if ``start()``
starts a thread, if the median round trip exceeds the median inline
evaluation by more than half of it, if a registration at ``workers=2``
costs more than :data:`MAX_WRITE_RATIO` inline ones, or if the query
sent right after a registration does not answer the new content from
the worker. One row per query shape, the medians and the registration
rows are merged into ``BENCH_kernels.json`` under ``dispatch_sweep``.
Sizes, seed and passes are fixed here; the bench reads no environment
settings.
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
from repro.service import QueryService
from repro.service.executor import ShardedExecutor, _worker_ping, evaluate_core
from repro.service.http import HttpRequest
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
#: The registration probe's graph: 5,600 edges, the size of perfbench's
#: write probe.
PROBE_VERTICES = 1400
PROBE_DEGREE = 4
WRITES = 9
#: The pause after each write and its read: time for a worker to build
#: its replica, so each write starts on an idle host.
PAUSE_S = 0.15
#: A registration at workers=2 may cost at most this many inline ones.
MAX_WRITE_RATIO = 1.5
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
    """A core minus its spans, which carry timings, and its shard."""
    return {k: v for k, v in core.items() if k not in ("spans", "shard")}


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
            reply = await executor._workers[0].submit(_worker_ping)
            await reply
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


def _merge_record(fields: dict) -> None:
    """Merge ``fields`` into ``BENCH_kernels.json``'s ``dispatch_sweep``."""
    record = json.loads(OUT.read_text()) if OUT.exists() else {}
    record.setdefault("dispatch_sweep", {}).update(fields)
    OUT.write_text(json.dumps(record, indent=2) + "\n")


def _machine() -> dict:
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


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
    _merge_record(
        {
            "schema": "repro-bench-dispatch/1",
            "workload": "perfbench sharded's queries on its graph shape, workers=2",
            "graphs": {
                "count": GRAPHS,
                "vertices": VERTICES,
                "in_out_degree": DEGREE,
                "seed": SEED,
            },
            "machine": _machine(),
            "best_of_passes": PASSES,
            "ping_ms": ping_ms,
            "dispatch_ms": dispatch_ms,
            "inline_evaluate_ms": inline_ms,
            "two_in_flight_dispatches_per_s": result["two_in_flight_per_s"],
            "rows": rows,
        }
    )
    assert dispatch_ms <= MAX_RATIO * inline_ms, (
        f"a dispatch round trip ({dispatch_ms:.2f} ms) exceeds inline "
        f"evaluate_core ({inline_ms:.2f} ms) by more than half"
    )


def _request(method: str, path: str, payload: dict) -> HttpRequest:
    return HttpRequest(method=method, path=path, body=json.dumps(payload).encode())


async def measure_writes(versions: list[list[dict]]) -> dict:
    """Alternate the registrations of ``versions`` on an inline and a
    two-worker service, each write followed at once by a count of the
    graph's edges; returns each side's write and read times, and what
    the reads answered and where."""
    services = {0: QueryService(), WORKERS: QueryService(workers=WORKERS)}
    for service in services.values():
        await service.ensure_executor()
    query = _request(
        "POST", "/query", {"database": "probe", "atoms": _atoms("ab"), "mode": "count"}
    )
    out = {
        workers: {"write": [], "read": [], "answers": []} for workers in services
    }
    try:
        for i in range(WRITES):
            relations = versions[i % len(versions)]
            write = _request("POST", "/databases", {"name": "probe", "relations": relations})
            for workers, service in services.items():
                start = time.perf_counter()
                registered = json.loads(await _body(service, write))
                wrote = time.perf_counter()
                answered = json.loads(await _body(service, query))
                read = time.perf_counter()
                record = service.telemetry.request(answered["request_id"])
                out[workers]["write"].append(wrote - start)
                out[workers]["read"].append(read - wrote)
                out[workers]["answers"].append(
                    (registered["fingerprint"], answered["count"], record.source)
                )
                await asyncio.sleep(PAUSE_S)
        counters = services[WORKERS].telemetry.registry.counter_value
        out["errors"] = counters("executor.errors")
        out["inline_fallbacks"] = counters("executor.inline_fallbacks")
    finally:
        for service in services.values():
            await service.stop()
    return out


async def _body(service: QueryService, request: HttpRequest) -> bytes:
    data = await service.dispatch(request)
    head, __, body = data.partition(b"\r\n\r\n")
    assert head.split()[1] == b"200", body
    return body


def test_registration_at_two_workers_costs_at_most_half_an_inline_one_more():
    rng = random.Random(SEED)
    edges = regular_digraph(rng, PROBE_VERTICES, PROBE_DEGREE)
    # The second version has three more edges, so a read that answers
    # the old content is seen.
    extra = [(PROBE_VERTICES + a, PROBE_VERTICES + b) for a, b in ((0, 1), (1, 2), (0, 2))]
    versions = [
        [{"name": "E", "attributes": ["src", "dst"], "tuples": [list(e) for e in graph]}]
        for graph in (edges, edges + extra)
    ]
    result = asyncio.run(measure_writes(versions))
    inline, sharded = result[0], result[WORKERS]
    rows = []
    for workers, side in ((0, inline), (WORKERS, sharded)):
        row = {
            "workers": workers,
            "edges": [len(edges), len(edges) + len(extra)],
            "write_ms": min(side["write"]) * 1e3,
            "read_after_ms": min(side["read"]) * 1e3,
            "write_then_read_ms": min(map(sum, zip(side["write"], side["read"]))) * 1e3,
        }
        rows.append(row)
        print(
            f"registration workers={workers}: write {row['write_ms']:.2f} ms, read "
            f"after {row['read_after_ms']:.2f} ms, both {row['write_then_read_ms']:.2f} ms"
        )
    _merge_record(
        {
            "registration": {
                "workload": "a 5,600-edge registration through QueryService.dispatch, "
                "then a count of its edges, alternating two versions",
                "machine": _machine(),
                "best_of_writes": WRITES,
                "pause_s": PAUSE_S,
                "rows": rows,
            }
        }
    )
    counts = {fingerprint: count for fingerprint, count, __ in inline["answers"]}
    assert len(set(counts.values())) == len(versions), counts
    for fingerprint, count, source in sharded["answers"]:
        assert (source, count) == ("worker", counts[fingerprint]), (
            "the read right after a registration did not answer the new content "
            "from the worker"
        )
    assert [a[0] for a in sharded["answers"]] == [a[0] for a in inline["answers"]]
    assert result["errors"] == result["inline_fallbacks"] == 0, result
    write_ms, inline_ms = rows[1]["write_ms"], rows[0]["write_ms"]
    assert write_ms <= MAX_WRITE_RATIO * inline_ms, (
        f"a registration at workers={WORKERS} ({write_ms:.2f} ms) costs more than "
        f"{MAX_WRITE_RATIO}x an inline one ({inline_ms:.2f} ms)"
    )
