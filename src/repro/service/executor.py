"""Multi-core sharded execution: warm worker processes per store shard.

With ``--workers 0`` the service evaluates every query inline on the
asyncio event loop — correct, but one GIL-bound process caps
throughput at a single core no matter the concurrency level.
Evaluation is a pure function of (query shape, route, database
content), so it parallelizes across databases and across cores. This
module supplies the machinery:

* **Sharding** — :class:`ShardedExecutor` partitions
  :class:`~repro.service.store.DatabaseStore` entries across ``N``
  worker processes by content *fingerprint* (the same SHA-256 the
  plan cache keys on): ``shard(D) = int(fingerprint, 16) mod N``.
  Each shard is a ``ProcessPoolExecutor(max_workers=1)`` — one warm
  process whose FIFO queue doubles as the shard's consistency order
  (a replication submitted before a query is applied before it).
* **Replication** — the owning worker holds a replica of each of its
  databases (:data:`_SHARD`), built from the store's canonical
  payload and keyed by fingerprint; a re-registration changes the
  fingerprint, so the next dispatch observes a stale replica, re
  replicates, and retries. Replicas carry their own
  :class:`~repro.relational.kernels.KernelState`, so tries and
  interners built for the first query of a shape stay warm inside
  the worker exactly as they do in the parent.
* **Dispatch** — :meth:`ShardedExecutor.dispatch` runs
  :func:`evaluate_core` in the owning worker via
  ``loop.run_in_executor``, keeping the event loop free to parse and
  admit other requests while all cores evaluate. A transport failure
  (stale after retry, broken pool, pickling) returns ``None`` and the
  caller falls back to inline evaluation; an evaluation error comes
  back as the worker's result and is re-raised once, as inline
  evaluation raises it — ``--workers 0`` never creates a pool at all,
  preserving the single-process behavior byte for byte.

Worker processes use the ``spawn`` start method: forking a process
that already runs an event loop (and its helper threads) is the
classic deadlock, and spawn also guarantees workers import this
module fresh — their only state is the replica protocol below.

Worker-resident state lives behind :class:`WorkerShard`, mutated only
by the dispatch-protocol functions (:func:`_apply_register`,
:func:`_apply_drop`) — the sanctioned pattern REP010 checks for: raw
module-level containers mutated from worker-dispatch-reachable code
are flagged, state objects applied through an explicit replication
protocol are not (the process-pool analogue of the KernelState
version discipline).
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import pickle
import traceback
from concurrent.futures import ProcessPoolExecutor

from ..counting import CostCounter
from ..errors import ReproError
from ..observability.metrics import MetricsRegistry, activate_metrics
from ..observability.tracing import TraceContext, activate
from ..relational.kernels import CodedRelation, KernelState
from ..relational.query import Atom, JoinQuery
from ..relational.router import RouteDecision, run_route
from ..relational.semiring import get_semiring
from .store import DatabaseStore, database_from_payload

#: Hex digits of the fingerprint used for shard placement. 16 digits
#: (64 bits) is plenty of spread and avoids arbitrary-precision cost.
_SHARD_DIGITS = 16

#: Innermost frames of an evaluation fault's traceback kept in its
#: telemetry record: a RecursionError's full traceback runs to
#: thousands of lines, and the record ring holds ``window`` of them.
TRACEBACK_FRAMES = 30


def fault_traceback(exc: BaseException) -> str:
    """The innermost :data:`TRACEBACK_FRAMES` frames of ``exc``'s
    traceback, as formatted where it was raised.

    A fault evaluated in a worker reaches the parent by pickle, which
    drops ``__traceback__``; :func:`_worker_run_query` therefore formats
    the frames in the worker and they travel on the exception as
    ``worker_traceback``. An attribute, not ``add_note``, which needs
    Python 3.11.
    """
    shipped = getattr(exc, "worker_traceback", None)
    if shipped is not None:
        return shipped
    return "".join(
        traceback.format_exception(
            type(exc), exc, exc.__traceback__, limit=-TRACEBACK_FRAMES
        )
    )


def shard_for_fingerprint(fingerprint: str, workers: int) -> int:
    """The owning shard of a database fingerprint, in ``[0, workers)``.

    A pure function of the content fingerprint — re-registering a
    database with new content may move it to a different shard, which
    is exactly what invalidates the old worker's replica.
    """
    if workers < 1:
        raise ReproError(f"workers must be positive, got {workers}")
    return int(fingerprint[:_SHARD_DIGITS], 16) % workers


def canonical_answers(tuples) -> list[list]:
    """Answer tuples in the canonical wire order (sorted by ``repr``,
    mixed-type safe) — the order every byte-identity check and
    perfbench's reference answers use."""
    return [list(t) for t in sorted(tuples, key=repr)]


def answers_json(relation, kernels: KernelState) -> str:
    """The JSON text of an enumerate answer's :func:`canonical_answers`,
    as the response carries it.

    A columnar answer nobody has decoded is written from its codes by
    the database's :class:`~repro.relational.kernels.AnswerWriter`,
    which decodes nothing. Every other answer (the naive backend's, or
    one whose interner holds a value that is not a JSON scalar, or two
    values with one repr) is sorted by ``repr`` and encoded by
    ``json.dumps``; both write the same text.
    """
    view = relation.codes if isinstance(relation, CodedRelation) else None
    if view is not None and relation.interner is kernels.interner:
        writer = kernels.answer_writer()
        if writer is not None:
            return writer.write(view.matrix)
    return json.dumps(canonical_answers(relation.tuples), sort_keys=True, default=repr)


def evaluate_core(database, spec: dict, track: str) -> dict:
    """Evaluate one routed query spec; returns the *evaluation core*.

    The core is the part of a ``/query`` response that depends only on
    (query, route, database content): answer fields, op count, and the
    request-scoped metrics/span payloads. Its ``answers`` is already
    JSON text (:func:`answers_json`), which a worker ships as one
    string and the response splices in. Inline evaluation and worker
    dispatch both call this one function, which is what makes
    ``--workers N`` responses byte-identical to ``--workers 0``. The
    spec's ``forests`` and ``order`` are the plan's join forests and
    elimination order (:class:`~repro.relational.router.RouteDecision`),
    so evaluation analyses no query structure; a spec without forests
    has the engines derive their own, and one without an order folds a
    cyclic query by whole-query Generic Join.
    """
    query = JoinQuery(
        Atom(atom["relation"], tuple(atom["attributes"])) for atom in spec["atoms"]
    )
    decision = RouteDecision(
        route=spec["route"],
        mode=spec["mode"],
        reason=spec["reason"],
        forests=spec.get("forests"),
        order=spec.get("order"),
    )
    semiring = (
        get_semiring(spec["semiring"]) if spec.get("semiring") is not None else None
    )
    trace = TraceContext(track=track)
    registry = MetricsRegistry()
    counter = CostCounter()
    with activate(trace), activate_metrics(registry):
        answer = run_route(
            query,
            database,
            decision,
            free=tuple(spec["free"]),
            counter=counter,
            semiring=semiring,
        )
    core = {
        "route": answer.decision.route,
        "reason": answer.decision.reason,
        "ops": answer.ops,
        "metrics": registry.to_payload(),
        "spans": trace.to_payload(),
    }
    if answer.relation is not None:
        core["answers"] = answers_json(answer.relation, database.kernels)
    if answer.count is not None:
        core["count"] = answer.count
    if answer.nonempty is not None:
        core["nonempty"] = answer.nonempty
    if decision.mode == "aggregate":
        # The value itself can be falsy (0, False): key off the mode,
        # and ship the semiring's JSON-safe payload form on the wire.
        core["semiring"] = semiring.name
        core["aggregate"] = semiring.to_payload(answer.aggregate)
    return core


# ----------------------------------------------------------------------
# worker side — runs in the spawned shard processes
# ----------------------------------------------------------------------
class WorkerShard:
    """One worker's replica of its slice of the store.

    ``databases`` maps name → (fingerprint, Database). The Database
    object owns a worker-local KernelState, so indexes survive across
    queries; the fingerprint is the replica's version — a dispatch
    whose expected fingerprint differs is answered ``stale`` instead
    of being evaluated against the wrong content.
    """

    __slots__ = ("databases",)

    def __init__(self) -> None:
        self.databases: dict[str, tuple[str, object]] = {}


#: The per-process replica. Empty in the parent; populated in each
#: worker by :func:`_apply_register` submissions.
_SHARD = WorkerShard()


def _worker_ping() -> bool:
    """No-op submitted at boot to force the worker process to spawn."""
    return True


def _apply_register(name: str, payload: list[dict], fingerprint: str, backend: str) -> str:
    """Install (or replace) one database replica in this worker."""
    _SHARD.databases[name] = (
        fingerprint,
        database_from_payload(payload, backend=backend),
    )
    return fingerprint


def _apply_drop(name: str) -> bool:
    """Drop a replica (the database moved shards)."""
    return _SHARD.databases.pop(name, None) is not None


def _worker_run_query(spec: dict) -> dict | Exception:
    """Evaluate one spec against this worker's replica.

    Returns the evaluation core, or ``{"stale": True}`` when the
    replica is missing or its fingerprint does not match the spec —
    the parent then re-replicates and retries (once) or falls back to
    inline evaluation. An exception ``evaluate_core`` raises is
    returned as the result, carrying its formatted frames
    (:func:`fault_traceback`), for the parent to re-raise: only what the
    future itself raises is a transport failure.
    """
    entry = _SHARD.databases.get(spec["database"])
    if entry is None or entry[0] != spec["fingerprint"]:
        return {"stale": True}
    try:
        return evaluate_core(entry[1], spec, track=spec["track"])
    except Exception as exc:
        exc.worker_traceback = fault_traceback(exc)
        return exc


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class ShardedExecutor:
    """Partition a store across N warm worker processes by fingerprint."""

    def __init__(
        self,
        store: DatabaseStore,
        workers: int,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if workers < 1:
            raise ReproError(f"workers must be positive, got {workers}")
        self.store = store
        self.workers = workers
        self.registry = registry if registry is not None else MetricsRegistry()
        self._pools: list[ProcessPoolExecutor] = []
        self._assignments: dict[str, tuple[str, int]] = {}
        self._dispatched: list[int] = [0] * workers
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    def shard_for(self, fingerprint: str) -> int:
        return shard_for_fingerprint(fingerprint, self.workers)

    async def start(self) -> None:
        """Create and warm the shard pools, then replicate the store.

        Warm-up pings all shards concurrently, so boot pays one spawn
        latency, not N. Idempotent.
        """
        if self._started:
            return
        context = multiprocessing.get_context("spawn")
        self._pools = [
            ProcessPoolExecutor(max_workers=1, mp_context=context)
            for _ in range(self.workers)
        ]
        loop = asyncio.get_running_loop()
        await asyncio.gather(
            *(loop.run_in_executor(pool, _worker_ping) for pool in self._pools)
        )
        self._started = True
        self.registry.gauge("executor.workers").set(self.workers)
        for name in self.store.names():
            await self.replicate(name)

    async def replicate(self, name: str) -> int:
        """Ship ``name``'s current content to its owning shard.

        Returns the shard index. When new content moves the database to
        a different shard, the previous owner drops its replica.
        """
        payload = self.store.canonical_payload(name)
        fingerprint = self.store.fingerprint(name)
        shard = self.shard_for(fingerprint)
        loop = asyncio.get_running_loop()
        previous = self._assignments.get(name)
        await loop.run_in_executor(
            self._pools[shard],
            _apply_register,
            name,
            payload,
            fingerprint,
            self.store.backend,
        )
        if previous is not None and previous[1] != shard:
            await loop.run_in_executor(self._pools[previous[1]], _apply_drop, name)
        self._assignments[name] = (fingerprint, shard)
        self.registry.counter("executor.replications").inc()
        return shard

    async def dispatch(self, spec: dict, request_id: str) -> dict | None:
        """Run one evaluation in the owning worker; ``None`` = fall back.

        The spec's fingerprint decides the shard. A stale replica is
        re-replicated and the dispatch retried once — the one race this
        covers is a re-registration landing between the parent reading
        the fingerprint and the worker dequeuing the job. A transport
        failure degrades to ``None`` so the caller can evaluate inline;
        the service never fails a request because a worker did. An
        evaluation error is re-raised here, once, as inline evaluation
        would raise it.
        """
        if not self._started:
            return None
        name = spec["database"]
        fingerprint = spec["fingerprint"]
        shard = self.shard_for(fingerprint)
        worker_spec = dict(spec, track=f"{request_id}@w{shard}")
        loop = asyncio.get_running_loop()
        try:
            assigned = self._assignments.get(name)
            if assigned is None or assigned[0] != fingerprint:
                await self.replicate(name)
            result = await loop.run_in_executor(
                self._pools[shard], _worker_run_query, worker_spec
            )
            if isinstance(result, dict) and result.get("stale"):
                self.registry.counter("executor.stale_retries").inc()
                await self.replicate(name)
                result = await loop.run_in_executor(
                    self._pools[shard], _worker_run_query, worker_spec
                )
            if isinstance(result, dict) and result.get("stale"):
                self.registry.counter("executor.inline_fallbacks").inc()
                return None
        except (RuntimeError, OSError, EOFError, pickle.PickleError):
            # Worker crash (BrokenProcessPool is a RuntimeError), pool
            # shut down mid-dispatch, transport/pickling failure:
            # degrade to inline evaluation rather than fail the request.
            # Evaluation errors never land here: the worker returns them.
            self.registry.counter("executor.errors").inc()
            return None
        if isinstance(result, Exception):
            raise result
        self.registry.counter("executor.dispatched").inc()
        self._dispatched[shard] += 1
        result["shard"] = shard
        return result

    def shutdown(self) -> None:
        """Tear the pools down without waiting for queued work."""
        for pool in self._pools:
            pool.shutdown(wait=False, cancel_futures=True)
        self._pools = []
        self._started = False

    def to_payload(self) -> dict:
        """The ``/metrics`` view: shard ownership and dispatch counts."""
        return {
            "workers": self.workers,
            "started": self._started,
            "shards": {
                str(shard): {
                    "databases": sorted(
                        name
                        for name, (_, owner) in self._assignments.items()
                        if owner == shard
                    ),
                    "dispatched": self._dispatched[shard],
                }
                for shard in range(self.workers)
            },
        }
