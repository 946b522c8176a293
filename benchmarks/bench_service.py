"""Service load benchmark: concurrency sweep + worker scaling sweep.

Boots ``python -m repro.service serve`` as a real subprocess — once per
``--workers`` level — registers four distinct benchmark databases
(distinct content, so their fingerprints spread across shards), and
drives a repeated-query workload (every route: factorized /
yannakakis / wcoj) through the asyncio load generator.
Reports client-side p50/p95/p99 latency and throughput per level,
asserts the service contracts —

* every served answer is **byte-identical** to direct in-process
  evaluation through :func:`repro.relational.router.execute_route`;
* the full verification workload is byte-identical **across worker
  levels** (through :func:`repro.service.server.strip_volatile`, the
  filter that drops only per-request/per-config fields) — ``--workers
  N`` must answer exactly as ``--workers 0``;
* the plan-cache hit ratio on a repeated-query workload stays above a
  floor (default 0.5) at every worker level;
* with ``--workers N`` the sharded executor actually dispatches
  (non-zero worker evaluations);
* sharded throughput clears a **scaling gate** at the highest worker
  level and concurrency 8 — threshold 2.0x over inline on ≥4 effective
  cores, 1.3x on 2–3, record-only on a single core (where worker
  processes can only add overhead);

— and writes ``BENCH_service.json`` at the repo root.

Environment knobs (used by the ``service-smoke`` CI job):

* ``REPRO_BENCH_SERVICE_N`` — tuples per relation (default ``200``);
* ``REPRO_BENCH_SERVICE_CONCURRENCY`` — comma-separated levels for
  the single-boot latency sweep (default ``1,4,8``);
* ``REPRO_BENCH_SERVICE_WORKERS`` — comma-separated ``--workers``
  levels for the scaling sweep (default ``0,2,4``; must include 0,
  the inline baseline);
* ``REPRO_BENCH_SERVICE_SCALING_CONCURRENCY`` — concurrency levels of
  the scaling sweep (default ``1,4,8,16``);
* ``REPRO_BENCH_SERVICE_REQUESTS`` — requests per worker per level
  (default ``24``);
* ``REPRO_BENCH_SERVICE_MIN_HIT_RATIO`` — plan-cache floor (``0.5``);
* ``REPRO_BENCH_SERVICE_MIN_SCALING`` — scaling-gate threshold:
  ``auto`` (core-aware, above) or an explicit float (``0`` disables);
* ``REPRO_BENCH_SERVICE_RESPONSES`` — also dump the volatile-stripped
  verification responses here (CI runs the bench twice — workers 0
  and 2 — and diffs the two dumps byte for byte);
* ``REPRO_BENCH_SERVICE_OUT`` — output path for the JSON record;
* ``REPRO_BENCH_DASHBOARD`` — also save the live HTML dashboard here.
"""

import asyncio
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from repro.generators.agm import uniform_random_database
from repro.relational.query import Atom, JoinQuery
from repro.relational.router import ROUTES, execute_route
from repro.service.client import ServiceClient, run_load
from repro.service.server import canonical_answers, strip_volatile
from repro.service.store import database_from_payload, relations_payload

REPO_ROOT = Path(__file__).resolve().parents[1]

TRIANGLE_ATOMS = [
    {"relation": "R1", "attributes": ["a1", "a2"]},
    {"relation": "R2", "attributes": ["a1", "a3"]},
    {"relation": "R3", "attributes": ["a2", "a3"]},
]
PATH_ATOMS = [
    {"relation": "R1", "attributes": ["a1", "a2"]},
    {"relation": "R3", "attributes": ["a2", "a3"]},
]

#: (label, payload-sans-database, expected route) — every route.
WORKLOAD_SPEC = [
    ("triangle-enumerate", {"atoms": TRIANGLE_ATOMS}, "wcoj"),
    ("triangle-boolean", {"atoms": TRIANGLE_ATOMS, "mode": "boolean"}, "wcoj"),
    ("triangle-count", {"atoms": TRIANGLE_ATOMS, "mode": "count"}, "wcoj"),
    ("path-enumerate", {"atoms": PATH_ATOMS}, "factorized"),
    (
        "path-project",
        {"atoms": PATH_ATOMS, "free": ["a1", "a3"]},
        "yannakakis",
    ),
    ("path-count", {"atoms": PATH_ATOMS, "mode": "count"}, "yannakakis"),
]

#: Seeds of the four benchmark databases. Distinct seeds give distinct
#: content, hence distinct fingerprints — the sharded executor places
#: each database by fingerprint, so a multi-database workload exercises
#: more than one shard.
DATABASE_SEEDS = (11, 23, 37, 53)


def _int_levels(name, default):
    raw = os.environ.get(name, default)
    return tuple(int(part) for part in raw.split(",") if part.strip())


def _effective_cores():
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _scaling_gate():
    """Returns ``(threshold or None, description)`` for the gate.

    Worker processes only help when there are cores to run them on; on
    a single-core box the sweep is recorded but not enforced.
    """
    raw = os.environ.get("REPRO_BENCH_SERVICE_MIN_SCALING", "auto")
    cores = _effective_cores()
    if raw != "auto":
        threshold = float(raw)
        if threshold <= 0:
            return None, "disabled via REPRO_BENCH_SERVICE_MIN_SCALING"
        return threshold, f"explicit threshold {threshold}"
    if cores >= 4:
        return 2.0, f"auto: {cores} effective cores"
    if cores >= 2:
        return 1.3, f"auto: {cores} effective cores"
    return None, f"record-only: {cores} effective core"


def _bench_relations(n, seed):
    """A deterministic seeded triangle database as a wire payload."""
    query = JoinQuery.triangle()
    database = uniform_random_database(query, n, max(4, n // 8), seed=seed)
    return relations_payload(database)


def _boot_server(workers):
    """Start the service subprocess; returns (process, host, port)."""
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.service",
            "serve",
            "--port",
            "0",
            "--workers",
            str(workers),
            "--max-concurrency",
            str(max(8, 2 * workers)),
            "--queue-limit",
            "64",
            "--slow-ms",
            "50",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    deadline = time.perf_counter() + 60.0
    banner = ""
    while time.perf_counter() < deadline:
        banner = process.stdout.readline()
        if "listening on" in banner:
            break
        if process.poll() is not None:
            raise RuntimeError(f"server died during boot: {banner!r}")
    else:
        process.terminate()
        raise RuntimeError("server did not print its listen banner in 60s")
    address = banner.rsplit("http://", 1)[1].strip()
    host, port_text = address.rsplit(":", 1)
    return process, host, int(port_text)


async def _setup_and_verify(host, port, catalogs, workload):
    """Register the catalog; verify routes and byte-identity.

    Returns the volatile-stripped response of every workload entry —
    the cross-worker-level comparison material.
    """
    databases = {
        name: database_from_payload(relations)
        for name, relations in catalogs.items()
    }
    stripped = []
    async with ServiceClient(host, port) as client:
        for name, relations in catalogs.items():
            await client.register(name, relations)
        for label, entry, expected_route in workload:
            status, payload = await client.request("POST", "/query", entry)
            assert status == 200, f"{label}: {payload}"
            assert payload["route"] == expected_route, (
                f"{label}: routed {payload['route']}, expected {expected_route}"
            )
            assert payload["ops"] > 0, f"{label}: no ops charged"
            query = JoinQuery(
                Atom(a["relation"], tuple(a["attributes"]))
                for a in entry["atoms"]
            )
            direct = execute_route(
                query,
                databases[entry["database"]],
                free=tuple(entry["free"]) if "free" in entry else None,
                mode=entry.get("mode", "enumerate"),
            )
            if direct.relation is not None:
                assert payload["answers"] == canonical_answers(
                    direct.relation.tuples
                ), f"{label}: served answers differ from direct evaluation"
            if direct.count is not None:
                assert payload["count"] == direct.count, f"{label}: count differs"
            if direct.nonempty is not None:
                assert payload["nonempty"] == direct.nonempty, f"{label}: differs"
            stripped.append(strip_volatile(payload))
    return stripped


async def _collect_artifacts(host, port, dashboard_path):
    async with ServiceClient(host, port) as client:
        metrics = await client.get_json("/metrics")
        if dashboard_path:
            status, html_doc = await client.request("GET", "/dashboard")
            assert status == 200
            Path(dashboard_path).write_text(html_doc, encoding="utf-8")
    return metrics


def test_service_load_sweep():
    n = int(os.environ.get("REPRO_BENCH_SERVICE_N", "200"))
    legacy_levels = _int_levels("REPRO_BENCH_SERVICE_CONCURRENCY", "1,4,8")
    worker_levels = _int_levels("REPRO_BENCH_SERVICE_WORKERS", "0,2,4")
    scaling_levels = _int_levels(
        "REPRO_BENCH_SERVICE_SCALING_CONCURRENCY", "1,4,8,16"
    )
    per_worker = int(os.environ.get("REPRO_BENCH_SERVICE_REQUESTS", "24"))
    min_hit_ratio = float(
        os.environ.get("REPRO_BENCH_SERVICE_MIN_HIT_RATIO", "0.5")
    )
    out_path = Path(
        os.environ.get(
            "REPRO_BENCH_SERVICE_OUT", REPO_ROOT / "BENCH_service.json"
        )
    )
    dashboard_path = os.environ.get("REPRO_BENCH_DASHBOARD", "")
    responses_path = os.environ.get("REPRO_BENCH_SERVICE_RESPONSES", "")
    # Without the workers=0 baseline (CI's second, sharded-only run)
    # the sweep still verifies responses and dumps them for the
    # cross-run diff; speedups and the gate need the baseline.
    has_baseline = 0 in worker_levels

    catalogs = {
        f"bench{index}": _bench_relations(n, seed)
        for index, seed in enumerate(DATABASE_SEEDS)
    }
    workload = [
        (f"{name}/{label}", dict(spec, database=name), expected_route)
        for name in catalogs
        for label, spec, expected_route in WORKLOAD_SPEC
    ]
    payloads = [entry for __, entry, __ in workload]

    throughput = {}
    hit_ratios = {}
    shard_views = {}
    legacy_rows = []
    reference_stripped = None
    metrics_for_record = None

    for workers in worker_levels:
        process, host, port = _boot_server(workers)
        try:
            stripped = asyncio.run(
                _setup_and_verify(host, port, catalogs, workload)
            )
            if reference_stripped is None:
                reference_stripped = stripped
            else:
                assert stripped == reference_stripped, (
                    f"workers={workers} responses differ from the inline "
                    "baseline after volatile-field stripping"
                )

            # The inline boot also covers any legacy latency-sweep
            # levels that the scaling sweep does not already run.
            levels_to_run = list(scaling_levels)
            if workers == 0:
                levels_to_run += [
                    level for level in legacy_levels if level not in scaling_levels
                ]
            throughput[workers] = {}
            for concurrency in levels_to_run:
                summary = asyncio.run(
                    run_load(host, port, payloads, concurrency, per_worker)
                )
                assert summary["statuses"].get("200", 0) == summary["requests"], (
                    f"non-200 responses at workers={workers} "
                    f"c={concurrency}: {summary['statuses']}"
                )
                throughput[workers][concurrency] = summary["throughput_rps"]
                if workers == 0 and concurrency in legacy_levels:
                    legacy_rows.append(
                        {
                            "concurrency": concurrency,
                            "requests": summary["requests"],
                            "throughput_rps": summary["throughput_rps"],
                            "latency_ms": summary["latency_ms"],
                        }
                    )

            metrics = asyncio.run(
                _collect_artifacts(
                    host, port, dashboard_path if workers == 0 else ""
                )
            )
        finally:
            process.terminate()
            process.wait(timeout=10)

        hit_ratios[workers] = metrics["plan_cache"]["hit_ratio"]
        assert metrics["plan_cache"]["hit_ratio"] > min_hit_ratio, (
            f"workers={workers}: plan-cache hit ratio "
            f"{metrics['plan_cache']['hit_ratio']:.3f} below {min_hit_ratio} "
            "on a repeated-query workload"
        )
        assert set(metrics["telemetry"]["route_mix"]) == set(ROUTES)
        if workers > 0:
            shards = metrics["executor"]["shards"]
            shard_views[workers] = shards
            dispatched = sum(view["dispatched"] for view in shards.values())
            assert dispatched > 0, (
                f"workers={workers}: the sharded executor never dispatched "
                "(every evaluation fell back inline)"
            )
        if workers == 0 or metrics_for_record is None:
            metrics_for_record = metrics

    threshold, gate_description = _scaling_gate()
    gate_concurrency = 8 if 8 in scaling_levels else max(scaling_levels)
    peak_workers = max(worker_levels)
    speedups = {
        workers: {
            concurrency: (
                throughput[workers][concurrency] / throughput[0][concurrency]
                if throughput[0][concurrency] > 0
                else 0.0
            )
            for concurrency in scaling_levels
        }
        for workers in worker_levels
        if workers > 0 and has_baseline
    }

    scaling_record = {
        "worker_levels": list(worker_levels),
        "concurrency_levels": list(scaling_levels),
        "requests_per_worker": per_worker,
        "effective_cores": _effective_cores(),
        "gate": gate_description,
        "min_speedup": threshold if threshold is not None else 0.0,
        "gate_workers": peak_workers,
        "gate_concurrency": gate_concurrency,
        "throughput_rps": {
            str(workers): {
                str(concurrency): throughput[workers][concurrency]
                for concurrency in scaling_levels
            }
            for workers in worker_levels
        },
        "speedup_vs_inline": {
            str(workers): {
                str(concurrency): speedups[workers][concurrency]
                for concurrency in scaling_levels
            }
            for workers in speedups
        },
        "plan_cache_hit_ratio": {
            str(workers): hit_ratios[workers] for workers in worker_levels
        },
        "shards": {
            str(workers): shard_views[workers] for workers in shard_views
        },
        # In-run check: boots beyond the first were compared against it.
        # A single-level run relies on the cross-run dump diff instead.
        "byte_identical_across_workers": len(worker_levels) > 1,
    }

    plan_cache = metrics_for_record["plan_cache"]
    telemetry = metrics_for_record["telemetry"]
    record = {
        "schema": "repro-bench-service/2",
        "relation_tuples": n,
        "databases": sorted(catalogs),
        "workload": [label for label, __, __ in workload],
        "requests_per_worker": per_worker,
        "levels": legacy_rows,
        "scaling": scaling_record,
        "plan_cache": plan_cache,
        "route_mix": telemetry["route_mix"],
        "endpoint_p99_ms": {
            name: summary["p99_ms"]
            for name, summary in telemetry["endpoints"].items()
        },
        "slow_queries": len(telemetry["slow_queries"]),
        "answers_byte_identical": True,
    }
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    if responses_path:
        Path(responses_path).write_text(
            json.dumps(
                {
                    "workload": [label for label, __, __ in workload],
                    "responses": reference_stripped,
                },
                sort_keys=True,
                indent=2,
            )
            + "\n"
        )

    print()
    for row in legacy_rows:
        latency = row["latency_ms"]
        print(
            f"c={row['concurrency']}: {row['throughput_rps']:.0f} req/s, "
            f"p50 {latency['p50']:.2f} ms, p99 {latency['p99']:.2f} ms"
        )
    for workers in sorted(speedups):
        ratio_text = ", ".join(
            f"c={concurrency}: {speedups[workers][concurrency]:.2f}x"
            for concurrency in scaling_levels
        )
        print(f"workers={workers} speedup vs inline: {ratio_text}")
    print(f"scaling gate: {gate_description}")
    print(
        f"plan cache: hit ratio {plan_cache['hit_ratio']:.3f} "
        f"({plan_cache['hits']} hits / {plan_cache['misses']} misses)"
    )

    if threshold is not None and peak_workers > 0 and has_baseline:
        observed = speedups[peak_workers][gate_concurrency]
        assert observed >= threshold, (
            f"workers={peak_workers} at c={gate_concurrency} reached only "
            f"{observed:.2f}x over inline (gate {threshold}x, "
            f"{gate_description}; see {out_path})"
        )
