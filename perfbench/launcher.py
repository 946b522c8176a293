"""Boot the stock service with every layer's entry points wrapped.

Usage: ``python perfbench/launcher.py SPANS.json serve [serve options]``
(with ``src`` on ``PYTHONPATH``). Before serving, each entry point in
``SYNC``, ``ASYNC`` and ``EVENTS`` is replaced by a wrapper that
records a span -- label, start, end, parent span, attributes -- and
passes arguments, results and exceptions through unchanged. Each name
is wrapped where its caller looks it up: a ``from ... import`` copy is
replaced in the importing module, a method on its class. Spans stay in
memory and are written to ``SPANS.json`` when the service shuts down
(SIGINT). Nothing under ``src/`` changes, and shard worker processes
import the program afresh, so they run untraced.

The parent of a span is the span open in the calling context
(a ``ContextVar``): asyncio gives every connection task, and every
task it creates, its own copy, so spans of concurrent requests never
adopt each other even when their intervals interleave on the loop.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import sys
import time

_CURRENT: contextvars.ContextVar[int] = contextvars.ContextVar("span", default=0)
_IDS = itertools.count(1)
#: (span id, parent id, label, start, end, attributes or None)
SPANS: list[tuple] = []
#: dispatch span id -> the request id the service assigned
REQUEST_IDS: dict[int, str] = {}

#: (module, attribute path, span label) -- synchronous entry points.
SYNC = [
    ("repro.service.http", "HttpRequest.json", "http.decode"),
    ("repro.service.server", "json_response_bytes", "http.encode"),
    ("repro.service.server", "query_from_payload", "server.payload"),
    ("repro.service.server", "csp_from_payload", "server.payload"),
    ("repro.service.plan_cache", "PlanCache.get_or_build", "plan_cache.lookup"),
    ("repro.service.plan_cache", "decide_route", "plan_cache.decide_route"),
    ("repro.service.server", "evaluate_core", "executor.evaluate"),
    ("repro.service.executor", "canonical_answers", "executor.canonicalize"),
    ("repro.service.store", "DatabaseStore.register", "store.register"),
    ("repro.service.store", "DatabaseStore.fingerprint", "store.fingerprint"),
    ("repro.service.store", "fingerprint_payload", "store.fingerprint"),
    ("repro.service.telemetry", "ServiceTelemetry.observe_request", "telemetry.observe"),
    ("repro.service.telemetry", "ServiceTelemetry.snapshot", "telemetry.snapshot"),
    ("repro.service.executor", "run_route", "router.run_route"),
    ("repro.relational.router", "generic_join", "wcoj.generic_join"),
    ("repro.relational.router", "generic_join_aggregate", "wcoj.aggregate"),
    ("repro.relational.router", "boolean_generic_join", "wcoj.boolean"),
    ("repro.relational.router", "yannakakis", "yannakakis.full"),
    ("repro.relational.router", "boolean_yannakakis", "yannakakis.boolean"),
    ("repro.relational.router", "factorize", "factorized.build"),
    ("repro.relational.factorized", "FactorizedResult.materialize", "factorized.materialize"),
    ("repro.relational.factorized", "FactorizedResult.count", "factorized.count"),
    ("repro.relational.factorized", "FactorizedResult.aggregate", "factorized.aggregate"),
    ("repro.relational.router", "project", "algebra.project"),
    # The router imports these two inside its count branch, so it reads
    # them from their home modules on every call.
    ("repro.reductions.query_to_csp", "query_to_csp", "csp.reduce"),
    ("repro.csp.treewidth_dp", "count_with_treewidth", "csp.count"),
    ("repro.service.server", "solve_csp", "csp.solve"),
    ("repro.relational.kernels", "SortedTrieIndex.__init__", "kernels.index_build"),
    ("repro.relational.kernels", "ColumnarTable.__init__", "kernels.index_build"),
    ("repro.relational.kernels", "build_hash_trie", "kernels.index_build"),
    ("repro.relational.wcoj", "generic_join_columnar", "kernels.generic_join"),
    ("repro.relational.wcoj", "aggregate_columnar", "kernels.generic_join"),
    ("repro.relational.wcoj", "boolean_generic_join_columnar", "kernels.generic_join"),
    # yannakakis.py reads both through the module (``kernels.semijoin``).
    ("repro.relational.kernels", "pairwise_join", "kernels.pairwise_join"),
    ("repro.relational.kernels", "semijoin", "kernels.semijoin"),
]

#: Coroutine entry points: their self time is waiting, not work.
ASYNC = [
    ("repro.service.server", "QueryService.dispatch", "server.dispatch"),
    ("repro.service.coalesce", "SingleFlight.run", "coalesce.wait"),
    ("repro.service.executor", "ShardedExecutor.dispatch", "executor.dispatch"),
    ("repro.service.executor", "ShardedExecutor.replicate", "executor.replicate"),
]

#: Counted calls with no duration of their own.
EVENTS = [
    ("repro.relational.kernels", "KernelState.table", "kernels.lookup"),
    ("repro.relational.kernels", "KernelState.sorted_trie", "kernels.lookup"),
    ("repro.relational.kernels", "KernelState.hash_trie", "kernels.lookup"),
]


def _attributes(label: str, args: tuple, result) -> dict | None:
    """The few facts a span needs beyond its timing."""
    if label == "plan_cache.lookup":
        return {"hit": result[1]}
    if label == "coalesce.wait":
        return {"coalesced": result[1]}
    if label == "executor.dispatch":
        return {"shard": -1 if result is None else result["shard"]}
    if label == "router.run_route":
        return {"route": args[2].route}
    if label == "server.dispatch":
        return {"path": args[1].path, "bytes": len(args[1].body)}
    return None


def _record(sid: int, parent: int, label: str, start: float, attributes) -> None:
    SPANS.append((sid, parent, label, start, time.perf_counter(), attributes))


def _sync(fn, label: str):
    def wrapper(*args, **kwargs):
        sid, parent = next(_IDS), _CURRENT.get()
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            _CURRENT.reset(token)
            _record(sid, parent, label, start, {"error": True})
            raise
        _CURRENT.reset(token)
        _record(sid, parent, label, start, _attributes(label, args, result))
        return result

    return wrapper


def _async(fn, label: str):
    async def wrapper(*args, **kwargs):
        sid, parent = next(_IDS), _CURRENT.get()
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        try:
            result = await fn(*args, **kwargs)
        except BaseException:
            _CURRENT.reset(token)
            _record(sid, parent, label, start, {"error": True})
            raise
        _CURRENT.reset(token)
        _record(sid, parent, label, start, _attributes(label, args, result))
        return result

    return wrapper


def _event(fn, label: str):
    def wrapper(*args, **kwargs):
        now = time.perf_counter()
        SPANS.append((next(_IDS), _CURRENT.get(), label, now, now, None))
        return fn(*args, **kwargs)

    return wrapper


class _TimedAdmission:
    """``admit()``'s context manager with its entry (the wait) timed."""

    def __init__(self, manager) -> None:
        self.manager = manager

    async def __aenter__(self):
        sid, parent = next(_IDS), _CURRENT.get()
        token = _CURRENT.set(sid)
        start = time.perf_counter()
        try:
            value = await self.manager.__aenter__()
        except BaseException:
            _CURRENT.reset(token)
            _record(sid, parent, "admission.wait", start, {"error": True})
            raise
        _CURRENT.reset(token)
        _record(sid, parent, "admission.wait", start, None)
        return value

    async def __aexit__(self, *exc_info):
        return await self.manager.__aexit__(*exc_info)


def _next_request_id(fn):
    def wrapper(self):
        request_id = fn(self)
        REQUEST_IDS[_CURRENT.get()] = request_id
        return request_id

    return wrapper


def _replace(module_name: str, path: str, make) -> None:
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    setattr(owner, name, make(getattr(owner, name)))


def install() -> None:
    """Wrap every traced entry point in place."""
    for table, make in ((SYNC, _sync), (ASYNC, _async), (EVENTS, _event)):
        for module_name, path, label in table:
            _replace(module_name, path, lambda fn, label=label, make=make: make(fn, label))
    _replace(
        "repro.service.admission", "AdmissionController.admit",
        lambda fn: lambda self: _TimedAdmission(fn(self)),
    )
    _replace("repro.service.server", "QueryService.next_request_id", _next_request_id)


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    install()
    from repro.service.__main__ import main as serve

    try:
        return serve(serve_args)
    finally:
        document = {"spans": SPANS, "request_ids": REQUEST_IDS}
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
