"""The repository benchmark: one workload against the resident service.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 26 --trace 0

With ``--trace 0`` the run boots the stock ``python -m repro.service
serve`` three times. Each boot is set up (spawn to the end of one
untimed pass over every distinct request), then timed for a third of
``--seconds``; every ``end_to_end`` metric of ``BENCHMARK.json`` is
printed, ``setup_s`` as the median of the three set-ups and the other
timings over the three timed phases pooled. With ``--trace 1`` the run
spends half the time on the stock server and half on the same server
booted through ``perfbench/launcher.py``, and prints every
``per_layer`` metric.

Every response is checked (``checks.py``). The stdout line before the
last carries a run stamp -- machine, versions, seed, sample counts,
steal time, shard placement -- and the last line is the JSON result.
``--smoke`` shrinks every workload to a few requests, for the
benchmark's tests. Exits 2 when the checkout holds no program.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUPS = 3
#: Workloads with a write probe split each timed phase into this many
#: slices and re-register the probe graph ``PROBE_WRITES`` times in the
#: pause after each, while nothing else runs (``write_p50_ms``).
PROBE_SLICES = 5
PROBE_WRITES = 4


if not (ROOT / "src" / "repro" / "service").is_dir():
    print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import numpy  # noqa: E402

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
from workloads import METRICS, WORKLOADS  # noqa: E402


def percentile(values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank ``q``-quantile and the number of samples beyond it."""
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index], len(ordered) - index - 1


async def _session(server, workload, seconds: float, phase: str, boot: int) -> dict:
    """Set-up (catalog, then the warm pass), the timed phase with the
    write probe's pauses, if the workload has one, and a /metrics scrape.
    ``boot`` (0 to ``SETUPS`` - 1) picks where the timed phase starts in
    the workload's pass orders."""
    conns = [
        harness.Connection(i, server.host, server.port)
        for i in range(len(workload.connections))
    ]
    for conn in conns:
        await conn.open()
    plans = workload.connections
    catalog = []
    for conn, plan in zip(conns, plans):
        samples, _ = await harness.run_phase([conn], [[plan.catalog]], f"{phase}-setup")
        catalog += samples
    warm, _ = await harness.run_phase(conns, [[p.warm] for p in plans], f"{phase}-setup")
    out = {"setup_s": time.perf_counter() - server.spawned, "setup": catalog + warm}
    slices = PROBE_SLICES if workload.write_probe else 1
    out.update(timed=[], wall=0.0, probes=[])
    meter = harness.Meter(server.pids())
    began = time.perf_counter()
    for k in range(slices):
        # Each slice of each boot starts at another of the seeded pass
        # orders, so a run replays many of them, and ends at the end of a
        # pass; a slice that overran shortens the next.
        left = began + seconds * (k + 1) / slices - time.perf_counter()
        start = (boot * slices + k) * len(plans[0].passes) // (SETUPS * slices)
        timed, wall = await harness.run_phase(
            conns, [p.passes[start:] + p.passes[:start] for p in plans], phase, max(0.0, left)
        )
        out["timed"] += timed
        out["wall"] += wall
        if workload.write_probe:
            probes, _ = await harness.run_phase(
                conns[:1], [[[workload.write_probe] * PROBE_WRITES]], f"{phase}-probe"
            )
            out["probes"] += probes
    out["env"] = meter.shares()
    out["rss_mib"] = harness.peak_rss_mib(server.pids())
    out["scrape"] = await conns[0].send(METRICS, f"{phase}-after")
    for conn in conns:
        await conn.close()
    return out


def _serve(workload, seconds: float, phase: str, boot: int = 0, spans_path=None):
    server = harness.Server(workload.server_args, spans_path)
    try:
        return asyncio.run(_session(server, workload, seconds, phase, boot))
    finally:
        server.stop()


def _latencies(samples, kinds) -> list[float]:
    return [s.latency_s * 1000.0 for s in samples if s.request.kind in kinds and not s.error]


def _placement(metrics: dict | None) -> dict:
    executor = (metrics or {}).get("executor")
    if not executor:
        return {}
    return {shard: view["databases"] for shard, view in executor["shards"].items()}


def _check(workload, run: dict, checker) -> list[str]:
    """Check every response of one boot, in the order it was sent;
    returns the self-check problems of its timed phase."""
    checker.check(run["setup"])
    run["bodies"] = checker.check(run["timed"])
    [run["scraped"]] = checker.check([run["scrape"]])
    checker.check(run["probes"])
    return checks.self_checks(workload, run)


def end_to_end(workload, seconds: float, checker) -> tuple[dict, dict, list]:
    """Three servers, each set up and then timed for a third of the run.

    ``setup_s`` and ``server_rss_mb`` are the medians of the three boots.
    The timed phases are pooled: throughput is every completed request
    over their summed wall time, and the latency percentiles are taken
    over every sample of the three. The machine's speed drifts over
    seconds, so the whole run averages it out where a median of three
    short slices would pick one slice's speed.
    """
    runs = [_serve(workload, seconds / SETUPS, "timed", boot) for boot in range(SETUPS)]
    problems = []
    for run in runs:
        problems += _check(workload, run, checker)
        run["reads"] = _latencies(run["timed"], ("query", "solve"))
    reads = [latency for run in runs for latency in run["reads"]]
    writes = _latencies([s for run in runs for s in run["timed"] + run["probes"]], ("register",))
    tail, beyond = percentile(reads, workload.tail)
    slices = {
        "throughput_rps": [len(run["timed"]) / run["wall"] for run in runs],
        "latency_p50_ms": [statistics.median(run["reads"]) for run in runs],
        "setup_s": [run["setup_s"] for run in runs],
        "server_rss_mb": [run["rss_mib"] for run in runs],
    }
    metrics = {
        "throughput_rps": sum(len(run["timed"]) for run in runs)
        / sum(run["wall"] for run in runs),
        "latency_p50_ms": statistics.median(reads),
        "latency_tail_ms": tail,
        "write_p50_ms": statistics.median(writes),
        "setup_s": statistics.median(slices["setup_s"]),
        "server_rss_mb": statistics.median(slices["server_rss_mb"]),
        "success_rate": 1.0 - checker.failed / checker.attempted,
    }
    stamp = {
        "slices": slices,
        "requests": [len(run["timed"]) for run in runs],
        "latency_samples": len(reads),
        "tail_percentile": workload.tail,
        "tail_samples_beyond": beyond,
        "write_samples": len(writes),
        "error_rate": checker.failed / checker.attempted,
        "env": [run["env"] for run in runs],
        "shard_placement": [_placement(run["scraped"]) for run in runs],
    }
    return metrics, stamp, problems


def traced(workload, seconds: float, checker) -> tuple[dict, dict, list]:
    """Half the run on the stock server, half through the launcher; the
    per-layer metrics come from the traced half."""
    half = seconds / 2.0
    plain = _serve(workload, half, "plain")
    spans_dir = ROOT / ".perfbench"
    spans_dir.mkdir(exist_ok=True)
    spans_path = spans_dir / f"spans-{os.getpid()}.json"
    try:
        trace = _serve(workload, half, "traced", spans_path=spans_path)
        document = json.loads(spans_path.read_text())
    finally:
        spans_path.unlink(missing_ok=True)
        try:
            spans_dir.rmdir()
        except OSError:
            pass
    problems = _check(workload, plain, checker) + _check(workload, trace, checker)
    writer = 0 if workload.writer_database else None
    metrics, found = layers.per_layer(document, trace["timed"], trace["bodies"], writer)
    problems += found
    if not workload.writer_database and metrics["kernels.index_builds"]:
        problems.append("indexes were built in the timed phase")
    metrics.update(trace["env"])
    plain_rps = len(plain["timed"]) / plain["wall"]
    traced_rps = len(trace["timed"]) / trace["wall"]
    metrics["trace.overhead"] = plain_rps / traced_rps
    stamp = {
        "requests": len(trace["timed"]),
        "untraced_rps": plain_rps,
        "traced_rps": traced_rps,
        "passthrough": not any(p.startswith("traced") for p in checker.failed_phases),
        "untraced_env": plain["env"],
        "shard_placement": _placement(trace["scraped"]),
    }
    return metrics, stamp, problems


def _machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    checker = checks.Checker(workload, checks.reference_answers(workload))
    steal_before = harness.cpu_times()
    measure = traced if args.trace else end_to_end
    values, stamp, problems = measure(workload, args.seconds, checker)
    steal_after = harness.cpu_times()

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        problems.append(f"metrics not computed: {missing}")
    stamp.update(
        _machine(),
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        run_steal_share=(steal_after[0] - steal_before[0])
        / max(1, steal_after[1] - steal_before[1]),
        failures=checker.failures[:10],
        problems=problems,
    )
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
