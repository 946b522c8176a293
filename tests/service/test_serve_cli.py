"""``python -m repro.service serve`` as a process.

SIGTERM shuts it down the way SIGINT does, leaving no shard worker
behind; and ``--workers 0`` and ``--workers 2`` answer byte-identically
over HTTP on both backends — the cross-process form of the contract
``tests/property/test_property_executor.py`` checks in one process.
"""

import contextlib
import http.client
import itertools
import json
import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.generators.agm import uniform_random_database
from repro.relational.query import Atom, JoinQuery
from repro.relational.router import execute_route
from repro.relational.semiring import get_semiring
from repro.service.server import canonical_answers, strip_volatile
from repro.service.store import database_from_payload, relations_payload
from tests.property.test_property_executor import shuffled_payload

SRC = Path(__file__).resolve().parents[2] / "src"

#: Child pids are read from ``/proc``; elsewhere they are not tracked.
PROC = Path("/proc/self/stat").exists()


def _stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` from the state field on, ``None`` once gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def _descendants(pid: int) -> set[int]:
    parents: dict[int, int] = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None:
                parents[int(entry.name)] = int(fields[1])
    found: set[int] = set()
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        for child, owner in parents.items():
            if owner == parent and child not in found:
                found.add(child)
                frontier.append(child)
    return found


def _alive(pid: int) -> bool:
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def _survivors(pids: set[int], timeout: float = 10) -> list[int]:
    """The pids still alive once all are gone or ``timeout`` passed."""
    deadline = time.monotonic() + timeout
    while any(map(_alive, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    return [pid for pid in pids if _alive(pid)]


def _read_line(stream, timeout: float) -> bytes:
    deadline = time.monotonic() + timeout
    line = b""
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([stream], [], [], remaining)[0]:
            raise AssertionError("the server did not report its port in time")
        chunk = os.read(stream.fileno(), 4096)
        if not chunk:
            raise AssertionError("the server exited before it started listening")
        line += chunk
    return line


@contextlib.contextmanager
def serving(*args: str):
    """Boot ``serve --port 0 *args``; yields ``(process, port, children)``.

    ``children`` are the processes the server had started when it began
    listening (its shard workers). On exit the server gets SIGTERM and
    is killed if it outlives 30 s, and every child still alive 10 s
    later is killed: nothing outlives the block.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", "--port", "0", *args],
        stdout=subprocess.PIPE,
        env=env,
    )
    children: set[int] = set()
    try:
        banner = _read_line(process.stdout, timeout=60)
        assert b"listening on" in banner, banner
        children = _descendants(process.pid) if PROC else set()
        yield process, int(banner.decode().rsplit(":", 1)[1]), children
    finally:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        process.stdout.close()
        for pid in _survivors(children):
            with contextlib.suppress(OSError):
                os.kill(pid, signal.SIGKILL)


@pytest.mark.skipif(not PROC, reason="reads child pids from /proc")
def test_sigterm_exits_zero_and_leaves_no_child():
    with serving("--workers", "2") as (process, __, children):
        assert len(children) >= 2, children  # both shard workers are up
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=30) == 0
        assert _survivors(children) == []


TRIANGLE_ATOMS = [
    {"relation": "R1", "attributes": ["a1", "a2"]},
    {"relation": "R2", "attributes": ["a1", "a3"]},
    {"relation": "R3", "attributes": ["a2", "a3"]},
]
PATH_ATOMS = [
    {"relation": "R1", "attributes": ["a1", "a2"]},
    {"relation": "R3", "attributes": ["a2", "a3"]},
]
#: A 5-cycle: several bags, so its value modes run variable elimination
#: along the order the plan carries to the worker.
CYCLE5_ATOMS = [
    {"relation": relation, "attributes": [f"a{i + 1}", f"a{(i + 1) % 5 + 1}"]}
    for i, relation in enumerate(("R1", "R3", "R2", "R1", "R3"))
]

#: ``(label, request minus its database, expected route)``: every route
#: and value mode, a triangle aggregate under each semiring, and 5-cycle
#: value modes.
REQUESTS = [
    ("triangle-enumerate", {"atoms": TRIANGLE_ATOMS}, "wcoj"),
    ("triangle-boolean", {"atoms": TRIANGLE_ATOMS, "mode": "boolean"}, "wcoj"),
    ("triangle-count", {"atoms": TRIANGLE_ATOMS, "mode": "count"}, "wcoj"),
    ("path-enumerate", {"atoms": PATH_ATOMS}, "factorized"),
    ("path-project", {"atoms": PATH_ATOMS, "free": ["a1", "a3"]}, "yannakakis"),
    ("path-count", {"atoms": PATH_ATOMS, "mode": "count"}, "yannakakis"),
    ("cycle5-count", {"atoms": CYCLE5_ATOMS, "mode": "count"}, "wcoj"),
] + [
    (
        f"triangle-aggregate-{name}",
        {"atoms": TRIANGLE_ATOMS, "mode": "aggregate", "semiring": name},
        "wcoj",
    )
    for name in ("boolean", "counting", "minplus", "provenance")
] + [
    (
        f"cycle5-aggregate-{name}",
        {"atoms": CYCLE5_ATOMS, "mode": "aggregate", "semiring": name},
        "wcoj",
    )
    for name in ("minplus", "provenance")
]

#: Distinct seeds give distinct content, hence distinct fingerprints,
#: which is what places the databases on shards.
SEEDS = (11, 23, 37, 53)

ANSWER_FIELDS = ("answers", "count", "nonempty", "semiring", "aggregate")


def _coloring(colors: int) -> dict:
    """A ``/solve`` body: ``colors``-color a triangle (2 is unsatisfiable)."""
    different = [[a, b] for a in range(colors) for b in range(colors) if a != b]
    return {
        "domain": list(range(colors)),
        "constraints": [
            {"scope": list(edge), "allowed": different}
            for edge in (("x", "y"), ("y", "z"), ("x", "z"))
        ],
    }


CSPS = {True: _coloring(3), False: _coloring(2)}


def _expected(catalog: dict, backend: str) -> dict:
    """``(database, label) -> answer fields`` of direct ``execute_route``."""
    expected = {}
    for name, relations in catalog.items():
        database = database_from_payload(relations, backend=backend)
        for label, request, __ in REQUESTS:
            query = JoinQuery(
                Atom(a["relation"], tuple(a["attributes"])) for a in request["atoms"]
            )
            semiring = (
                get_semiring(request["semiring"]) if "semiring" in request else None
            )
            answer = execute_route(
                query,
                database,
                free=request.get("free"),
                mode=request.get("mode", "enumerate"),
                semiring=semiring,
            )
            fields = {}
            if answer.relation is not None:
                fields["answers"] = canonical_answers(answer.relation.tuples)
            if answer.count is not None:
                fields["count"] = answer.count
            if answer.nonempty is not None:
                fields["nonempty"] = answer.nonempty
            if semiring is not None:
                fields["semiring"] = semiring.name
                # Through JSON, as the wire carries it.
                fields["aggregate"] = json.loads(
                    json.dumps(semiring.to_payload(answer.aggregate), default=repr)
                )
            expected[name, label] = fields
    return expected


def _stripped(body: dict) -> str:
    return json.dumps(strip_volatile(body), sort_keys=True)


def _traffic(backend: str, workers: int, catalog: dict, expected: dict):
    """Boot one server, check every response, and return what must not
    depend on ``--workers``: the registration fingerprints and the
    volatile-stripped bodies, in request order."""
    fingerprints, bodies = {}, []
    with serving("--backend", backend, "--workers", str(workers)) as (__, port, __):
        with contextlib.closing(
            http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        ) as connection:

            def call(method: str, path: str, payload=None):
                body = None if payload is None else json.dumps(payload)
                connection.request(method, path, body=body)
                response = connection.getresponse()
                status, decoded = response.status, json.loads(response.read())
                assert status == 200, (path, payload, decoded)
                return decoded

            for name, relations in catalog.items():
                registered = call(
                    "POST", "/databases", {"name": name, "relations": relations}
                )
                fingerprints[name] = registered["fingerprint"]
            for repeat, name, (label, request, route) in itertools.product(
                (False, True), catalog, REQUESTS
            ):
                body = call("POST", "/query", dict(request, database=name))
                where = f"workers={workers} {name} {label} repeat={repeat}"
                assert body["route"] == route, where
                if label.startswith("cycle5"):
                    assert "variable elimination" in body["reason"], where
                assert body["ops"] > 0, where
                assert body["plan_cache"]["hit"] is repeat, where
                answer = {f: body[f] for f in ANSWER_FIELDS if f in body}
                assert answer == expected[name, label], where
                bodies.append(_stripped(body))
            for satisfiable, csp in CSPS.items():
                body = call("POST", "/solve", csp)
                assert body["satisfiable"] is satisfiable
                bodies.append(_stripped(body))
            metrics = call("GET", "/metrics")
    counters = metrics["telemetry"]["counters"]
    assert counters["evaluations.total"] == 2 * len(catalog) * len(REQUESTS)
    if workers:
        # Every evaluation ran in a worker, none failed over to inline,
        # and the four databases spread over both shards.
        assert counters["executor.dispatched"] == counters["evaluations.total"]
        assert counters.get("executor.errors", 0) == 0
        assert counters.get("executor.inline_fallbacks", 0) == 0
        shards = metrics["executor"]["shards"].values()
        assert [view["dispatched"] > 0 for view in shards] == [True] * workers
    return fingerprints, bodies


@pytest.mark.parametrize("backend", ["columnar", "naive"])
def test_workers_answer_byte_identically_over_http(backend):
    # Rows out of canonical order, some repeated: the parent and the
    # worker must still build each database from one row order.
    catalog = {
        f"bench{index}": shuffled_payload(
            relations_payload(
                uniform_random_database(JoinQuery.triangle(), 100, 12, seed=seed)
            ),
            seed,
        )
        for index, seed in enumerate(SEEDS)
    }
    expected = _expected(catalog, backend)
    inline_fingerprints, inline_bodies = _traffic(backend, 0, catalog, expected)
    sharded_fingerprints, sharded_bodies = _traffic(backend, 2, catalog, expected)
    assert sharded_fingerprints == inline_fingerprints
    assert len(sharded_bodies) == len(inline_bodies)
    for index, (sharded, inline) in enumerate(zip(sharded_bodies, inline_bodies)):
        assert sharded == inline, f"body {index} differs across --workers"
