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
  Each shard is one warm process and one :func:`socket.socketpair`.
* **Transport** — a call is one length-prefixed pickled ``(fn, args)``
  frame. The worker (:func:`_worker_main`) runs its calls one at a
  time, in arrival order, and answers each with one frame,
  ``(True, result)`` or ``(False, exception)``. In the parent,
  :meth:`_Worker.submit` writes the frame and appends a future to the
  shard's FIFO deque with no ``await`` in between, and one reader task
  per shard, on the event loop, resolves the deque's oldest future
  with each reply. So replies come back in the order the worker ran
  the calls, and the shard's stream is its consistency order: a
  replication sent before a query is applied before it. A waiter
  cancelled mid-call leaves its future in the deque, cancelled, and
  its reply is read and dropped. The parent runs no thread for this
  (DESIGN.md, "Sharded execution", says why there is no pool).
* **Replication** — the owning worker holds a replica of each of its
  databases (:data:`_SHARD`), keyed by fingerprint. A registration
  ships the payload the store validated, anything else (start, a
  respawned worker, a stale retry) the store's canonical payload, and
  :func:`~repro.service.store.database_from_payload` builds either
  from the one canonical row sequence the store's own database was
  built from, so replica and parent intern alike (values whose hash is
  not seeded per process). :meth:`ShardedExecutor.replicate` returns
  once its frames are drained, without waiting for the worker to build
  the replica: the shard's stream orders every later call behind
  them. A failed replication (an error reply, EOF, a frame that does
  not send) forgets the assignment, so it heals through the stale
  path: a re-registration changes the fingerprint too, and the next
  dispatch that observes a stale or unassigned replica re-replicates
  and retries. It counts ``executor.errors`` unless it is EOF, which
  each call the dead worker fails over to inline evaluation counts
  once. A failed ``_apply_drop`` needs no handling: a dead previous
  owner holds no replica. Replicas carry their
  own :class:`~repro.relational.kernels.KernelState`, so tries and
  interners built for the first query of a shape stay warm inside
  the worker exactly as they do in the parent.
* **Dispatch** — :meth:`ShardedExecutor.dispatch` runs
  :func:`evaluate_core` in the owning worker, keeping the event loop
  free to parse and admit other requests while all cores evaluate. A
  transport failure (EOF, ``OSError``, a frame that does not pickle)
  returns ``None`` and counts ``executor.errors``, a replica still
  stale after one retry returns ``None`` and counts
  ``executor.inline_fallbacks``, and the caller falls back to inline
  evaluation; an evaluation error comes back as the worker's result
  and is re-raised once, as inline evaluation raises it —
  ``--workers 0`` never starts a worker at all, preserving the
  single-process behavior byte for byte.
* **Respawn** — EOF on a shard's socket (its worker died) fails every
  call pending on it over to inline evaluation and marks the shard
  dead. The next call to the shard spawns a fresh worker and counts
  ``executor.restarts``; the fresh worker holds no replica, so the
  dispatch's stale path re-replicates what it needs.
  :meth:`ShardedExecutor.health` (``/healthz``) reports each shard's
  liveness and respawn count.

Worker processes use the ``spawn`` start method: forking a process
that already runs an event loop is the classic deadlock, and spawn
also guarantees workers import this module fresh — their only state
is the replica protocol below. They are daemonic: closing the sockets
(:meth:`ShardedExecutor.shutdown`) ends them without the loop waiting,
and an exiting parent reaps, or terminates, what is left.

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
import contextlib
import functools
import json
import multiprocessing
import pickle
import signal
import socket
import struct
import traceback
from collections import deque

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
# transport — one socket per shard, length-prefixed pickled frames
# ----------------------------------------------------------------------
#: A frame's length prefix: the pickle's size, unsigned 64-bit big-endian.
_HEADER = struct.Struct("!Q")

#: What pickling an object that does not pickle raises.
_PICKLING_ERRORS = (pickle.PicklingError, TypeError, AttributeError)

#: What unpickling a frame whose objects cannot be rebuilt raises.
_UNPICKLING_ERRORS = (
    pickle.UnpicklingError, AttributeError, ImportError, TypeError, EOFError
)


def _frame(message) -> bytes:
    """``message`` pickled, behind its length prefix.

    A message that does not pickle raises :class:`pickle.PicklingError`,
    which the parent treats as a transport failure.

    Complexity: O(size of the pickle).
    """
    try:
        body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    except _PICKLING_ERRORS as exc:
        raise pickle.PicklingError(f"frame does not pickle: {exc!r}") from exc
    return _HEADER.pack(len(body)) + body


def _unframe(body: bytes):
    """The message a frame's body holds. A body that does not unpickle
    raises :class:`pickle.UnpicklingError`.

    Complexity: O(len(body)).
    """
    try:
        return pickle.loads(body)
    except _UNPICKLING_ERRORS as exc:
        raise pickle.UnpicklingError(f"frame does not unpickle: {exc!r}") from exc


def _answer(body: bytes) -> bytes:
    """The reply frame to the call frame ``body``: ``(True, fn(*args))``,
    or ``(False, exc)`` when the call raised a library error or a frame
    did not pickle. Anything else the call raises is a bug: it ends the
    worker, whose death the parent handles as a transport failure.

    Complexity: the call's, plus O(size of both frames).
    """
    try:
        fn, args = _unframe(body)
        return _frame((True, fn(*args)))
    except (ReproError, pickle.PickleError) as exc:
        return _frame((False, exc))


def _worker_main(sock: socket.socket) -> None:
    """A shard worker's life: answer the call frames read from ``sock``,
    one at a time and in order, until the parent closes its end.

    SIGINT is ignored: a terminal's Ctrl-C reaches the whole process
    group, and the parent, which owns shutdown, closes the socket.

    Complexity: the calls', plus O(bytes read and written).
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with sock, sock.makefile("rb") as stream:
        try:
            while len(header := stream.read(_HEADER.size)) == _HEADER.size:
                (size,) = _HEADER.unpack(header)
                sock.sendall(_answer(stream.read(size)))
        except OSError:
            pass  # the parent closed its end mid-reply


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _ignore_reply(reply: asyncio.Future) -> None:
    """Read a reply nobody awaits, so asyncio does not log its error."""
    if not reply.cancelled():
        reply.exception()


class _Worker:
    """One shard's spawned worker process and the parent's end of its
    socket, read by one reader task on the event loop.

    ``alive`` turns false, for good, when the reader sees EOF or the
    parent closes the socket; the executor then spawns a new worker.
    """

    def __init__(self, process, reader, writer) -> None:
        self.process = process
        self.alive = True
        self._reader = reader
        self._writer = writer
        #: Futures of the calls sent and not yet answered, oldest first.
        self._pending: deque[asyncio.Future] = deque()
        self._task = asyncio.get_running_loop().create_task(self._read_replies())

    @classmethod
    async def spawn(cls, context) -> _Worker:
        """Start a worker in ``context`` and connect to it.

        Returns once the process is started, not booted: the first
        call's reply waits for the boot, so workers spawned one after
        another boot concurrently.

        Complexity: O(1) in the parent; the worker's boot is an
        interpreter start and an import.
        """
        ours, theirs = socket.socketpair()
        with theirs:
            # The worker gets its own copy of ``theirs``. Closing the
            # parent's is what turns the worker's death into EOF on ``ours``.
            process = context.Process(target=_worker_main, args=(theirs,), daemon=True)
            process.start()
        reader, writer = await asyncio.open_connection(sock=ours)
        return cls(process, reader, writer)

    async def submit(self, fn, *args) -> asyncio.Future:
        """Send ``fn(*args)`` to the worker; returns, once the frame is
        drained, the future of its reply. The future resolves to the
        call's result, or raises what it raised, and :class:`EOFError`
        once the worker is gone; ``submit`` itself raises
        :class:`EOFError` if it already is.

        The frame is written and its future queued with no ``await`` in
        between, so calls reach the worker, and replies their futures,
        in call order. ``drain`` applies the socket's flow control to
        large frames (a replication payload).

        Complexity: O(size of the frame) in the parent.
        """
        if not self.alive:
            raise EOFError("the shard worker is gone")
        frame = _frame((fn, args))
        future = asyncio.get_running_loop().create_future()
        self._writer.write(frame)
        self._pending.append(future)
        try:
            await self._writer.drain()
        except OSError:
            pass  # the connection is lost: the reader fails the future
        except asyncio.CancelledError:
            future.cancel()  # the reader drops its reply
            raise
        return future

    async def _read_replies(self) -> None:
        """Resolve the pending futures, oldest first, with the worker's
        replies. On EOF or a socket error, mark the worker dead, close the
        socket and fail every call still pending with :class:`EOFError`.

        Complexity: O(bytes read) over the worker's life.
        """
        pending, reader = self._pending, self._reader
        try:
            while True:
                header = await reader.readexactly(_HEADER.size)
                body = await reader.readexactly(_HEADER.unpack(header)[0])
                future = pending.popleft()
                if future.done():
                    continue  # its waiter was cancelled
                try:
                    ok, value = _unframe(body)
                except pickle.UnpicklingError as exc:
                    future.set_exception(exc)
                    continue
                if ok:
                    future.set_result(value)
                else:
                    future.set_exception(value)
        except (asyncio.IncompleteReadError, OSError):
            pass
        finally:
            self.alive = False
            self._writer.close()
            while pending:
                future = pending.popleft()
                if not future.done():
                    future.set_exception(EOFError("the shard worker exited"))

    async def wait_closed(self) -> None:
        """Wait until the reader has seen the socket close.

        Complexity: O(1) once the socket is closed.
        """
        await asyncio.wait([self._task])

    def close(self) -> None:
        """Shut the parent's end down now, without waiting: the worker
        reads EOF and exits, and the reader fails what is pending.

        ``writer.close()`` alone would close the socket only on the
        loop's next iteration, so a parent that stops right after would
        leave the worker waiting for EOF.

        Complexity: O(1).
        """
        self.alive = False
        with contextlib.suppress(OSError):
            self._writer.get_extra_info("socket").shutdown(socket.SHUT_RDWR)
        self._writer.close()


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
        self._context = multiprocessing.get_context("spawn")
        self._workers: list[_Worker] = []
        self._respawn: asyncio.Lock | None = None
        self._assignments: dict[str, tuple[str, int]] = {}
        self._dispatched: list[int] = [0] * workers
        self._restarts: list[int] = [0] * workers
        self._started = False

    @property
    def started(self) -> bool:
        return self._started

    def shard_for(self, fingerprint: str) -> int:
        return shard_for_fingerprint(fingerprint, self.workers)

    async def start(self) -> None:
        """Spawn and warm the shard workers, then replicate the store.

        Every worker is started before any is waited for, so boot pays
        one spawn latency, not N. Idempotent.
        """
        if self._started:
            return
        self._respawn = asyncio.Lock()
        self._workers = []
        for _ in range(self.workers):
            self._workers.append(await _Worker.spawn(self._context))
        pings = [await worker.submit(_worker_ping) for worker in self._workers]
        await asyncio.gather(*pings)
        self._started = True
        self.registry.gauge("executor.workers").set(self.workers)
        for name in self.store.names():
            await self.replicate(name)

    async def _worker(self, shard: int) -> _Worker:
        """``shard``'s worker, spawned afresh first if the last one died.

        Concurrent callers share one respawn. Raises :class:`EOFError`
        after :meth:`shutdown`.

        Complexity: O(1), or one worker spawn.
        """
        if not self._started:
            raise EOFError("the executor is shut down")
        worker = self._workers[shard]
        if worker.alive:
            return worker
        async with self._respawn:
            worker = self._workers[shard]
            if not worker.alive and self._started:
                worker = self._workers[shard] = await _Worker.spawn(self._context)
                self.registry.counter("executor.restarts").inc()
                self._restarts[shard] += 1
                if not self._started:
                    worker.close()  # the executor shut down while it spawned
        return worker

    async def replicate(self, name: str, relations: list[dict] | None = None) -> int:
        """Ship ``name``'s current content to its owning shard; returns
        the shard index.

        ``relations`` is the registration payload the store just built
        ``name`` from; without it the store's canonical payload is
        shipped. The worker builds its replica with
        :func:`~repro.service.store.database_from_payload`, which puts
        either into the row order the store's database was built from.
        When new content moves the database to a different shard, the
        previous owner drops its replica.

        Returns once the frames are drained, without waiting for the
        worker to build the replica: the shard's stream orders every
        later call behind them. A failed ``_apply_register`` (an error
        reply, the worker's EOF, a frame that does not send) forgets
        the assignment, so the next dispatch re-replicates (the stale
        path); no transport failure reaches the caller.
        """
        fingerprint = self.store.fingerprint(name)
        if relations is None:
            relations = self.store.canonical_payload(name)
        shard = self.shard_for(fingerprint)
        previous = self._assignments.get(name)
        try:
            worker = await self._worker(shard)
            registered = await worker.submit(
                _apply_register, name, relations, fingerprint, self.store.backend
            )
        except (OSError, EOFError, pickle.PickleError) as exc:
            self._replica_failed(name, fingerprint, exc)
            return shard
        self._assignments[name] = (fingerprint, shard)
        registered.add_done_callback(
            functools.partial(self._replica_reply, name, fingerprint)
        )
        if previous is not None and previous[1] != shard:
            # A dead previous owner holds no replica to drop, so a drop
            # that fails needs no handling.
            owner = self._workers[previous[1]]
            if owner.alive:
                (await owner.submit(_apply_drop, name)).add_done_callback(
                    _ignore_reply
                )
        self.registry.counter("executor.replications").inc()
        return shard

    def _replica_reply(self, name: str, fingerprint: str, reply: asyncio.Future) -> None:
        """The reply to an ``_apply_register`` frame: a failure fails the
        replication."""
        if not reply.cancelled() and reply.exception() is not None:
            self._replica_failed(name, fingerprint, reply.exception())

    def _replica_failed(self, name: str, fingerprint: str, exc: BaseException) -> None:
        """Forget ``name``'s assignment at ``fingerprint`` after a failed
        replication, unless a later one replaced it, and count the
        failure in ``executor.errors`` unless it is EOF: a worker's death
        is counted by each call it fails over to inline evaluation, and
        by its respawn."""
        if not isinstance(exc, EOFError):
            self.registry.counter("executor.errors").inc()
        if self._assignments.get(name, ("",))[0] == fingerprint:
            del self._assignments[name]

    async def dispatch(self, spec: dict, request_id: str) -> dict | None:
        """Run one evaluation in the owning worker; ``None`` = fall back.

        The spec's fingerprint decides the shard. A stale replica is
        re-replicated and the dispatch retried once — this covers a
        re-registration landing between the parent reading the
        fingerprint and the worker running the call, and a respawned
        worker, which holds no replica. A transport failure degrades to
        ``None`` so the caller can evaluate inline; the service never
        fails a request because a worker did. An evaluation error is
        re-raised here, once, as inline evaluation would raise it.
        """
        if not self._started:
            return None
        name = spec["database"]
        fingerprint = spec["fingerprint"]
        shard = self.shard_for(fingerprint)
        worker_spec = dict(spec, track=f"{request_id}@w{shard}")
        try:
            worker = await self._worker(shard)
            assigned = self._assignments.get(name)
            if assigned is None or assigned[0] != fingerprint:
                await self.replicate(name)
            reply = await worker.submit(_worker_run_query, worker_spec)
            result = await reply
            if isinstance(result, dict) and result.get("stale"):
                self.registry.counter("executor.stale_retries").inc()
                await self.replicate(name)
                reply = await worker.submit(_worker_run_query, worker_spec)
                result = await reply
            if isinstance(result, dict) and result.get("stale"):
                self.registry.counter("executor.inline_fallbacks").inc()
                return None
        except (OSError, EOFError, pickle.PickleError):
            # The worker died (EOF), the socket failed, a frame did not
            # pickle, or the executor shut down mid-dispatch: degrade to
            # inline evaluation rather than fail the request. Evaluation
            # errors never land here: the worker returns them.
            self.registry.counter("executor.errors").inc()
            return None
        if isinstance(result, Exception):
            raise result
        self.registry.counter("executor.dispatched").inc()
        self._dispatched[shard] += 1
        result["shard"] = shard
        return result

    def shutdown(self) -> None:
        """Close every worker's socket, without waiting: each worker
        reads EOF and exits, and calls still pending fall back inline."""
        self._started = False
        for worker in self._workers:
            worker.close()

    async def wait_closed(self) -> None:
        """After :meth:`shutdown`, wait until every shard's reader has
        seen its socket close and failed what was pending: a loop closed
        before then destroys the readers while they are still pending."""
        for worker in self._workers:
            await worker.wait_closed()

    def health(self) -> dict:
        """The ``/healthz`` view: per shard, whether its worker is alive
        and how many times it was respawned (``executor.restarts`` is
        their sum). A dead shard is respawned by the next call to it."""
        return {
            str(shard): {
                "alive": self._started and self._workers[shard].alive,
                "restarts": self._restarts[shard],
            }
            for shard in range(self.workers)
        }

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
