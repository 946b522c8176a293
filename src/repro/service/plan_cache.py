"""The prepared-plan cache: route decisions keyed by content.

Deciding a route runs one GYO structure pass per hypergraph the route
needs (:func:`~repro.relational.router.decide_route`), and the
resulting :class:`~repro.relational.router.RouteDecision` carries the
join forests its engine runs on, so a query served from a cached plan
analyses no structure at all — on the parent or in a shard worker,
which receives the forests in its spec. A *cold* evaluation also
rebuilds per-database index structures. The service therefore caches
the decision — together with the validated free tuple — in a
:class:`PreparedPlan` under a content-addressed key, the same
discipline as the experiment result cache
(:mod:`repro.observability.cache`): the key is a SHA-256 over the
canonical JSON of everything the decision depends on, including the
database *fingerprint*, so re-registering a database with different
content invalidates every plan prepared against the old content.

Both service caches — this one and the query result cache
(:class:`~repro.service.coalesce.ResultCache`) — are bounded LRUs
keyed by the same content-addressed plan key, so they share one
mechanism: :class:`BoundedLruCache`. Hits, misses, and evictions are
counted so the dashboard can show hit ratios side by side.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import InvalidInstanceError
from ..relational.factorized import _validated_free
from ..relational.query import JoinQuery
from ..relational.router import RouteDecision, decide_route


def plan_key(
    query: JoinQuery,
    free: tuple[str, ...],
    mode: str,
    database_name: str,
    fingerprint: str,
    backend: str,
    semiring: str | None = None,
) -> str:
    """The content-addressed cache key for one prepared plan.

    Because the material includes the database fingerprint, this one
    key also identifies an *evaluation*: same key ⇒ same query shape,
    route inputs, database content — and, for aggregate mode, the
    semiring (a counting result must never serve a min-cost repeat) ⇒
    same answers. Single-flight coalescing and the result cache both
    key on it for exactly that reason.
    """
    material = {
        "atoms": [
            {"relation": atom.relation_name, "attributes": list(atom.attributes)}
            for atom in query.atoms
        ],
        "free": list(free),
        "mode": mode,
        "semiring": semiring,
        "database": database_name,
        "fingerprint": fingerprint,
        "backend": backend,
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class PreparedPlan:
    """A cached routing decision and its join forests, ready to hand to
    ``run_route``."""

    key: str
    decision: RouteDecision
    free: tuple[str, ...]
    database_name: str
    fingerprint: str


class BoundedLruCache:
    """A bounded LRU with hit/miss/eviction accounting.

    The shared substrate of the plan cache and the query result cache:
    string keys (content-addressed SHA-256 digests), move-to-end on
    hit, FIFO eviction of the least-recently-used entry past capacity.
    Values are never ``None`` — lookups use ``None`` as the miss
    sentinel.
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise InvalidInstanceError(
                f"{type(self).__name__} capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[str, object] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: str):
        """The cached value (refreshing recency) or ``None`` on miss."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def insert(self, key: str, value) -> None:
        if value is None:
            raise InvalidInstanceError(
                f"{type(self).__name__}: None is the miss sentinel, not a value"
            )
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def drop_where(self, predicate) -> int:
        """Evict every entry whose ``(key, value)`` satisfies ``predicate``."""
        stale = [
            key for key, value in self._entries.items() if predicate(key, value)
        ]
        for key in stale:
            del self._entries[key]
        return len(stale)

    def hit_ratio(self) -> float:
        """Hits over lookups since boot (0.0 before the first lookup)."""
        lookups = self.hits + self.misses
        return (self.hits / lookups) if lookups else 0.0

    def to_payload(self) -> dict:
        return {
            "capacity": self.capacity,
            "size": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": self.hit_ratio(),
        }


class PlanCache(BoundedLruCache):
    """Bounded LRU of :class:`PreparedPlan` with hit/miss/eviction counts."""

    def get_or_build(
        self,
        query: JoinQuery,
        free,
        mode: str,
        database_name: str,
        fingerprint: str,
        backend: str,
        semiring: str | None = None,
    ) -> tuple[PreparedPlan, bool]:
        """Return ``(plan, was_hit)``, preparing and caching on miss.

        A miss runs :func:`~repro.relational.router.decide_route` — so
        invalid instances (bad mode, projected count) raise here, before
        anything is cached.
        """
        free_t = _validated_free(query, free)
        key = plan_key(
            query, free_t, mode, database_name, fingerprint, backend, semiring
        )
        plan = self.lookup(key)
        if plan is not None:
            return plan, True
        decision = decide_route(query, free=free_t, mode=mode)
        plan = PreparedPlan(
            key=key,
            decision=decision,
            free=free_t,
            database_name=database_name,
            fingerprint=fingerprint,
        )
        self.insert(key, plan)
        return plan, False

    def invalidate_database(self, database_name: str) -> int:
        """Drop every plan prepared against ``database_name``.

        Fingerprint keying already makes stale plans unreachable; this
        additionally frees their slots eagerly on re-registration.
        """
        return self.drop_where(
            lambda __, plan: plan.database_name == database_name
        )
