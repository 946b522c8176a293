"""The benchmark's three workloads: seeded catalogs and request sequences.

Every graph is one edge relation ``E(src, dst)`` and every query is a
self-join over it. Each workload is a list of per-connection plans; a
connection owns its databases, so no two in-flight requests ever share
a plan key and single-flight coalescing never fires.

A plan has three request lists:

* ``catalog`` -- the registrations made when the connection opens;
* ``passes`` -- the closed loop. The timed phase sends pass after pass
  (cycling) and stops only at the end of one, so a mixed sequence is
  never cut at an arbitrary point. Passes hold the same requests in
  different seeded orders, so the two connections' in-flight requests
  pair at random instead of in lockstep;
* ``warm`` -- the untimed pass over every distinct request that ends
  set-up (plan cache, indexes and worker replicas are then warm).

Everything is drawn from ``random.Random`` streams derived from the
``--seed`` argument; nothing here hard-codes a seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from repro.generators.csp_gen import bounded_treewidth_csp, random_binary_csp

EDGE = "E"


@dataclass(frozen=True)
class Request:
    """One pre-encoded HTTP request of a workload."""

    method: str
    path: str
    body: bytes
    kind: str  # register | query | solve | metrics
    label: str
    #: Which content of the target database the answer depends on: the
    #: registration version the request was sent after. Repeats are
    #: compared with the first response under the same (label, version).
    version: str = "v0"
    payload: dict | None = None

    def wire(self, host: str) -> bytes:
        head = (
            f"{self.method} {self.path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            f"Content-Length: {len(self.body)}\r\n"
            "Content-Type: application/json\r\n"
            "Connection: keep-alive\r\n\r\n"
        )
        return head.encode("latin-1") + self.body


@dataclass
class ConnectionPlan:
    catalog: list[Request]
    passes: list[list[Request]]
    warm: list[Request]


@dataclass
class Workload:
    name: str
    server_args: list[str]
    connections: list[ConnectionPlan]
    #: Tail percentile reported as ``latency_tail_ms``; it leaves well
    #: over ten samples beyond it in a default-length run (README.md says
    #: why each workload's is not the highest of p99/p95/p90 that does).
    tail: float
    #: ``name@version`` -> relations payload, for reference evaluation.
    databases: dict[str, list[dict]] = field(default_factory=dict)
    #: CSP instances (label -> CSPInstance) for reference checks.
    csps: dict = field(default_factory=dict)
    #: The database the first connection re-registers while timed
    #: (``churn``); every other workload is warm when timed.
    writer_database: str = ""
    #: Workloads that write nothing while timed re-register this graph,
    #: of ``churn``'s size, in pauses of the timed phase: ``write_p50_ms``.
    write_probe: Request | None = None


# -- graph generators ---------------------------------------------------


def regular_graph(rng: random.Random, vertices: int, degree: int) -> list[tuple]:
    """A random digraph in which every vertex has in- and out-degree
    ``degree``, without loops.

    The union of ``degree`` random permutations, each repaired by swaps
    until it adds only new, loop-free edges. Fixed degrees fix the
    number of answers of path-shaped queries (``vertices * degree**k``
    walks), so a new seed changes the data but hardly the work.
    """
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


def hub_graph(rng: random.Random, vertices: int, extra: int) -> list[tuple]:
    """Vertex 0 linked both ways to every other vertex, plus ``extra``
    random edges among the others: most edges touch one hub."""
    chosen = {(0, v) for v in range(1, vertices)} | {(v, 0) for v in range(1, vertices)}
    target = len(chosen) + extra
    while len(chosen) < target:
        u, v = rng.randrange(1, vertices), rng.randrange(1, vertices)
        if u != v:
            chosen.add((u, v))
    return sorted(chosen)


#: One witness gadget on vertices (w, x, y, z): the triangle w->x->y
#: with w->y, the reversed triangle y->w and the 4-cycle w->x->y->z->w.
GADGET = ((0, 1), (1, 2), (0, 2), (2, 0), (2, 3), (3, 0))


def witness_gadgets(rng: random.Random, vertices: int) -> set[tuple]:
    """A gadget on each quadruple of a seeded partition of the vertices.

    Cyclic boolean reads walk values in their interned order and stop at
    the first witness. In a sparse random graph the first one sits
    wherever the data put it, so a read cost 20 to 4,500 steps depending
    on the seed; with a witness on every fourth vertex each one stops
    within about 130 steps on every seed, and a cold read is its index
    build.
    """
    order = list(range(vertices))
    rng.shuffle(order)
    return {
        (order[q + i], order[q + j])
        for q in range(0, vertices - 3, 4)
        for i, j in GADGET
    }


def replace_edges(
    rng: random.Random, edges: list[tuple], vertices: int, share: float, keep: set[tuple]
) -> list[tuple]:
    """A new version of ``edges`` with ``share`` of them replaced; the
    edges in ``keep`` stay."""
    kept = set(edges)
    replaceable = [edge for edge in edges if edge not in keep]
    for edge in rng.sample(replaceable, round(len(edges) * share)):
        kept.discard(edge)
    while len(kept) < len(edges):
        u, v = rng.randrange(vertices), rng.randrange(vertices)
        if u != v and (u, v) not in edges:
            kept.add((u, v))
    return sorted(kept)


def relations(edges: list[tuple]) -> list[dict]:
    return [
        {"name": EDGE, "attributes": ["src", "dst"], "tuples": [list(e) for e in edges]}
    ]


# -- query shapes (self-joins over E) -------------------------------------


def atoms(*pairs: str) -> list[dict]:
    """``atoms("ab", "bc")`` -> E(a,b), E(b,c)."""
    return [{"relation": EDGE, "attributes": [p[0], p[1]]} for p in pairs]


TRIANGLE = atoms("ab", "bc", "ac")
TRIANGLE_REVERSED = atoms("ab", "bc", "ca")
CYCLE4 = atoms("ab", "bc", "cd", "da")
CYCLE5 = atoms("ab", "bc", "cd", "de", "ea")
PATH3 = atoms("ab", "bc", "cd")


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True).encode()


def register(name: str, rels: list[dict], version: str) -> Request:
    payload = {"name": name, "relations": rels}
    return Request(
        "POST", "/databases", _encode(payload), "register",
        f"{name}/register", version, payload,
    )


def query(
    database: str, label: str, shape: list[dict], version: str = "v0", **fields
) -> Request:
    payload = {"database": database, "atoms": shape, **fields}
    payload.setdefault("mode", "enumerate")
    return Request(
        "POST", "/query", _encode(payload), "query",
        f"{database}/{label}", version, payload,
    )


def solve(label: str, instance) -> Request:
    payload = {
        "domain": sorted(instance.domain),
        "variables": list(instance.variables),
        "constraints": [
            {"scope": list(c.scope), "allowed": sorted(list(t) for t in c.relation)}
            for c in instance.constraints
        ],
        "method": "auto",
    }
    return Request("POST", "/solve", _encode(payload), "solve", label, "v0", payload)


METRICS = Request("GET", "/metrics", b"", "metrics", "metrics")


# -- the workloads -------------------------------------------------------


def _aggregate(semiring: str) -> dict:
    return {"mode": "aggregate", "semiring": semiring}


def _uniform_queries(name: str) -> list[Request]:
    return [
        query(name, "triangle-enumerate", TRIANGLE),
        query(name, "triangle-count", TRIANGLE, mode="count"),
        query(name, "triangle-minplus", TRIANGLE, **_aggregate("minplus")),
        query(name, "triangle-boolean", TRIANGLE, mode="boolean"),
        query(name, "cycle5-counting", CYCLE5, **_aggregate("counting")),
        query(name, "path3-enumerate", PATH3),
        query(name, "path3-endpoints", PATH3, free=["a", "d"]),
        query(name, "path3-count", PATH3, mode="count"),
        query(name, "path3-minplus", PATH3, **_aggregate("minplus")),
        query(name, "path3-aggboolean", PATH3, **_aggregate("boolean")),
        query(name, "path3-boolean", PATH3, mode="boolean"),
    ]


def _skewed_queries(name: str) -> list[Request]:
    return [
        query(name, "triangle-enumerate", TRIANGLE),
        query(name, "triangle-count", TRIANGLE, mode="count"),
        query(name, "triangle-counting", TRIANGLE, **_aggregate("counting")),
        query(name, "path3-count", PATH3, mode="count"),
        query(name, "path3-boolean", PATH3, mode="boolean"),
    ]


#: (vertices, degree) of the first connection's uniform graph and
#: (vertices, extra edges) of its hub graph: 330 edges, and 300 edges of
#: which 80% touch the hub.
UNIFORM = (55, 6)
SKEWED = (121, 60)
#: ``sharded``: graphs per connection -- enough that placement by
#: content fingerprint averages out instead of deciding the run -- their
#: size, and which of the uniform-graph queries each one gets.
SHARDED_GRAPHS = 12
SHARDED_SIZE = (30, 4)
SHARDED_QUERIES = (1, 2, 4, 5, 6, 10)


#: Differently ordered passes per connection: enough that a run never
#: cycles back to an order it has sent, so the two connections' requests
#: keep pairing at random.
PASSES = 64


def _shuffled(rng: random.Random, requests: list[Request], passes: int = PASSES):
    orders = []
    for _ in range(passes):
        order = list(requests)
        rng.shuffle(order)
        orders.append(order)
    return orders


#: (vertices, degree) of ``churn``'s graphs and of the write probe: a
#: degree-3 random graph plus a witness gadget on every fourth vertex,
#: about 5,600 edges.
CHURN_GRAPH = (1250, 3)


def churn_graph(rng: random.Random, size: tuple[int, int], gadgets: set[tuple]) -> list[tuple]:
    return sorted(set(regular_graph(rng, *size)) | gadgets)


def _write_probe(rng: random.Random, smoke: bool) -> Request:
    size = _scaled(CHURN_GRAPH, smoke)
    graph = churn_graph(rng, size, witness_gadgets(rng, size[0]))
    return register("write_probe", relations(graph), "v0")


def _scaled(size: tuple[int, int], smoke: bool) -> tuple[int, int]:
    return (max(8, size[0] // 4), max(2, size[1] // 2)) if smoke else size


def analytic(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    plans = []
    databases = {}
    csps = {}
    for conn in range(2):
        uniform, skewed = f"c{conn}_uniform", f"c{conn}_skewed"
        # The second connection's graphs have 4/5 the vertices: the two
        # connections' costs interleave instead of repeating each other,
        # so the latency distribution has no wide gap at its median.
        share = 5 - conn
        vertices, degree = _scaled(UNIFORM, smoke)
        databases[f"{uniform}@v0"] = relations(regular_graph(rng, vertices * share // 5, degree))
        vertices, extra = _scaled(SKEWED, smoke)
        databases[f"{skewed}@v0"] = relations(
            hub_graph(rng, vertices * share // 5, extra * share // 5)
        )
        variables = 15 if smoke else 60
        tree_csp = bounded_treewidth_csp(variables, 4, 2, tightness=0.3, seed=rng)
        random_csp = random_binary_csp(variables // 3, 4, variables * 2 // 3, 0.3, seed=rng)
        csps[f"c{conn}/csp-treewidth"] = tree_csp
        csps[f"c{conn}/csp-random"] = random_csp
        distinct = _uniform_queries(uniform) + _skewed_queries(skewed) + [
            solve(f"c{conn}/csp-treewidth", tree_csp),
            solve(f"c{conn}/csp-random", random_csp),
        ]
        catalog = [
            register(name, databases[f"{name}@v0"], "v0") for name in (uniform, skewed)
        ]
        plans.append(ConnectionPlan(catalog, _shuffled(rng, distinct), distinct))
    return Workload(
        "analytic", [], plans, tail=0.90, databases=databases, csps=csps,
        write_probe=_write_probe(rng, smoke),
    )


def sharded(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    graphs = 2 if smoke else SHARDED_GRAPHS
    plans = []
    databases = {}
    for conn in range(2):
        distinct = []
        catalog = []
        for g in range(graphs):
            name = f"c{conn}_g{g}"
            databases[f"{name}@v0"] = relations(regular_graph(rng, *_scaled(SHARDED_SIZE, smoke)))
            catalog.append(register(name, databases[f"{name}@v0"], "v0"))
            distinct += [_uniform_queries(name)[i] for i in SHARDED_QUERIES]
        # Each pass ends with a /metrics scrape, as a monitoring poller
        # sends: one per 72 queries.
        passes = [order + [METRICS] for order in _shuffled(rng, distinct)]
        plans.append(ConnectionPlan(catalog, passes, distinct + [METRICS]))
    return Workload(
        "sharded", ["--workers", "2"], plans, tail=0.95, databases=databases,
        write_probe=_write_probe(rng, smoke),
    )


CHURN_READS = (
    ("triangle-boolean", TRIANGLE),
    ("rtriangle-boolean", TRIANGLE_REVERSED),
    ("path3-boolean", PATH3),
    ("cycle4-boolean", CYCLE4),
)


def _churn_reads(rng: random.Random, name: str, version: str) -> list[Request]:
    """The four reads in a seeded order, each sent twice: after a write,
    once cold and once warm."""
    reads = [query(name, label, shape, version, mode="boolean") for label, shape in CHURN_READS]
    rng.shuffle(reads)
    return [request for read in reads for request in (read, read)]


def churn(seed: int, smoke: bool = False) -> Workload:
    rng = random.Random(seed)
    size = vertices, _ = _scaled(CHURN_GRAPH, smoke)
    versions = 2 if smoke else 4
    writer, reader = "c0_churn", "c1_static"
    gadgets = witness_gadgets(rng, vertices)
    history = [churn_graph(rng, size, gadgets)]
    for _ in range(versions - 1):
        history.append(replace_edges(rng, history[-1], vertices, 0.05, gadgets))
    databases = {f"{writer}@v{i}": relations(g) for i, g in enumerate(history)}
    static = relations(churn_graph(rng, size, witness_gadgets(rng, vertices)))
    databases[f"{reader}@v0"] = static
    writes = [register(writer, databases[f"{writer}@v{i}"], f"v{i}") for i in range(versions)]
    writer_passes = [
        [r for i, write in enumerate(writes) for r in [write] + _churn_reads(rng, writer, f"v{i}")]
        for _ in range(PASSES)
    ]
    reader_passes = [_churn_reads(rng, reader, "v0") for _ in range(PASSES)]
    plans = [
        ConnectionPlan([writes[-1]], writer_passes, writer_passes[0]),
        ConnectionPlan([register(reader, static, "v0")], reader_passes, reader_passes[0]),
    ]
    return Workload(
        "churn", [], plans, tail=0.95, databases=databases,
        writer_database=writer,
    )


WORKLOADS = {
    "analytic": analytic,
    "churn": churn,
    "sharded": sharded,
}
