"""Sharded + coalesced responses ≡ inline responses.

The scaling machinery — worker-process dispatch and single-flight
coalescing — is allowed to change *when* and *where* an evaluation
runs, never *what it answers*. This suite drives two socketless
service instances per backend over random queries and stores: an
inline one (``workers=0``) and a sharded one (``workers=2`` spawned
pools), and asserts the ``/query`` responses are byte-identical
through :func:`strip_volatile` (the sanctioned filter: request ids,
the plan-cache marker, and the coalesced flag legitimately differ;
answers, counts, route, reason, ops, and request-scoped metrics must
not) — across all three modes and both kernel backends, through first
evaluation, a repeat served from a cached plan, and a concurrent
batch that may coalesce.

Worker pools spawn once per module (they are warm processes, exactly
as in production); every example re-registers the database, which
exercises replication and plan invalidation on the sharded service.
The registered rows are shuffled and some repeated, and values reach
two digits, where ``repr`` order and numeric order part: the parent
and the worker must build the database from one canonical row order,
or their interners hand out different codes and order-dependent
metrics (the ``wcoj.probes_per_answer`` histogram) differ.
"""

import asyncio
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.generators.agm import uniform_random_database
from repro.relational.query import JoinQuery
from repro.service import QueryService
from repro.service.http import HttpRequest
from repro.service.server import strip_volatile
from repro.service.store import relations_payload

SHAPES = {
    "triangle": JoinQuery.triangle,
    "path3": lambda: JoinQuery.path(3),
    "star3": lambda: JoinQuery.star(3),
    "cycle4": lambda: JoinQuery.cycle(4),
}

BACKENDS = ("naive", "columnar")


def _free_subset(query, mask):
    attrs = query.attributes
    picked = tuple(a for i, a in enumerate(attrs) if mask & (1 << i))
    return picked or attrs[:1]


async def _post(service, path, payload):
    """One socketless request; returns (status, parsed JSON body)."""
    body = json.dumps(payload).encode()
    data = await service.dispatch(
        HttpRequest(method="POST", path=path, body=body)
    )
    head, __, response_body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(response_body)


def _stripped(payload):
    """The byte-identity comparison form."""
    return json.dumps(strip_volatile(payload), sort_keys=True)


def shuffled_payload(relations: list[dict], seed: int) -> list[dict]:
    """``relations`` with each relation's rows in a seeded order and a
    few of them repeated: a registration in no canonical order."""
    rng = random.Random(seed)
    shuffled = []
    for entry in relations:
        rows = entry["tuples"] + rng.sample(entry["tuples"], min(3, len(entry["tuples"])))
        rng.shuffle(rows)
        shuffled.append(dict(entry, tuples=rows))
    return shuffled


@pytest.fixture(scope="module")
def harness():
    """One persistent loop + per-backend (inline, loaded) service pairs.

    A single loop for every example keeps the loaded services' worker
    pools and single-flight tasks on the loop that created them.
    """
    loop = asyncio.new_event_loop()
    pairs = {}
    for backend in BACKENDS:
        inline = QueryService(backend=backend)
        loaded = QueryService(backend=backend, workers=2)
        loop.run_until_complete(loaded.ensure_executor())
        pairs[backend] = (inline, loaded)
    yield loop, pairs
    for __, loaded in pairs.values():
        loop.run_until_complete(loaded.stop())
    loop.close()


@given(
    shape=st.sampled_from(sorted(SHAPES)),
    mask=st.integers(1, 2**6 - 1),
    mode=st.sampled_from(["enumerate", "count", "boolean"]),
    backend=st.sampled_from(BACKENDS),
    size=st.integers(1, 12),
    domain=st.integers(1, 30),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=20, deadline=None)
def test_loaded_service_is_byte_identical_to_inline(
    harness, shape, mask, mode, backend, size, domain, seed
):
    loop, pairs = harness
    inline, loaded = pairs[backend]
    query = SHAPES[shape]()
    relations = shuffled_payload(
        relations_payload(uniform_random_database(query, size, domain, seed=seed)), seed
    )
    request = {
        "database": "hdb",
        "atoms": [
            {"relation": atom.relation_name, "attributes": list(atom.attributes)}
            for atom in query.atoms
        ],
        "mode": mode,
    }
    if mode == "enumerate":
        request["free"] = list(_free_subset(query, mask))

    async def body():
        for service in (inline, loaded):
            status, __ = await _post(
                service, "/databases", {"name": "hdb", "relations": relations}
            )
            assert status == 200

        # First evaluation: inline on-loop vs. worker dispatch.
        status, reference = await _post(inline, "/query", request)
        assert status == 200
        status, first = await _post(loaded, "/query", request)
        assert status == 200
        assert _stripped(first) == _stripped(reference)

        # Repeat: a plan-cache hit, evaluated again, still identical.
        status, repeat = await _post(loaded, "/query", request)
        assert status == 200
        assert repeat["plan_cache"]["hit"] is True
        assert _stripped(repeat) == _stripped(reference)

        # A concurrent identical batch (coalesced or not — scheduling
        # decides): every response identical.
        batch = await asyncio.gather(
            *(_post(loaded, "/query", request) for _ in range(3))
        )
        for status, payload in batch:
            assert status == 200
            assert _stripped(payload) == _stripped(reference)

        # And the inline service repeats itself from its cached plan.
        status, again = await _post(inline, "/query", request)
        assert status == 200
        assert again["plan_cache"]["hit"] is True
        assert _stripped(again) == _stripped(reference)

    loop.run_until_complete(body())
