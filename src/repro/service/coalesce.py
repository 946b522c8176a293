"""Single-flight request coalescing.

The demand-side optimization that pairs with the sharded executor's
supply-side parallelism. When N identical requests are in flight at
once, the first (the *leader*) evaluates; the other N−1 (*followers*)
await the leader's future and share its result. Under a hot-spot
workload this turns a thundering herd into one evaluation, and because
followers never enter admission, the admission slots they would have
occupied stay available for distinct queries.

Flights are keyed on the content-addressed plan key
(:func:`~repro.service.plan_cache.plan_key`), which already folds in
the query shape, mode, free tuple, backend, semiring and database
fingerprint, so *same key* provably means *same answer*. Coalescing
shares *results*, not response envelopes: each follower still gets its
own request id and a ``coalesced: true`` marker, and the shared core
is copied before per-request fields are added.
"""

from __future__ import annotations

import asyncio

from ..observability.metrics import MetricsRegistry


class SingleFlight:
    """Deduplicate concurrent identical work onto one leader evaluation.

    ``run(key, thunk)`` either becomes the leader (spawns ``thunk`` as
    a task every awaiter shares) or a follower (awaits the leader's
    task). The leader's exception — shed, evaluation failure — reaches
    every awaiter identically; the evaluation runs as its own task, so
    one awaiter being cancelled (client disconnect) never tears the
    flight down under the others. The key leaves the in-flight table
    the moment the task completes, so a request arriving afterwards
    starts a fresh flight; and because the key is content-addressed
    (fingerprint included), whatever a live flight returns is correct
    for every request that coalesced onto it.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._inflight: dict[str, asyncio.Task] = {}

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    async def run(self, key: str, thunk) -> tuple[object, bool]:
        """Returns ``(result, coalesced)`` — coalesced is True for followers."""
        existing = self._inflight.get(key)
        if existing is not None:
            self.registry.counter("coalesce.followers").inc()
            return await existing, True
        loop = asyncio.get_running_loop()
        task = loop.create_task(thunk())
        self._inflight[key] = task
        task.add_done_callback(lambda __: self._inflight.pop(key, None))
        self.registry.counter("coalesce.leaders").inc()
        return await task, False

    def to_payload(self) -> dict:
        return {
            "inflight": len(self._inflight),
            "leaders": self.registry.counter_value("coalesce.leaders"),
            "followers": self.registry.counter_value("coalesce.followers"),
        }
