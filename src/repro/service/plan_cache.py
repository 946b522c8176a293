"""The prepared-plan cache: route decisions keyed by content.

Deciding a route runs one GYO structure pass per hypergraph the route
needs (:func:`~repro.relational.router.decide_route`), and the
resulting :class:`~repro.relational.router.RouteDecision` carries the
join forests or the elimination order its engine runs on, so a query
served from a cached plan analyses no structure at all — on the parent
or in a shard worker, which receives them in its spec. A *cold* evaluation also
rebuilds per-database index structures. The service therefore caches
the decision — together with the validated free tuple — in a
:class:`PreparedPlan` under a content-addressed key, the same
discipline as the experiment result cache
(:mod:`repro.observability.cache`): the key is a SHA-256 over the
canonical JSON of everything the decision depends on, including the
database *fingerprint*, so re-registering a database with different
content invalidates every plan prepared against the old content.
Hits, misses and evictions are counted on the service registry, which
``/metrics`` and the dashboard read.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import InvalidInstanceError
from ..observability.metrics import MetricsRegistry
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
    same answers. Single-flight coalescing keys on it for exactly that
    reason.
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
    """A cached routing decision with its join forests or elimination
    order, ready to hand to ``run_route``."""

    key: str
    decision: RouteDecision
    free: tuple[str, ...]
    database_name: str
    fingerprint: str


class PlanCache:
    """Bounded LRU of :class:`PreparedPlan`, keyed by :func:`plan_key`.

    Move-to-end on hit, eviction of the least-recently-used plan past
    capacity. Hits, misses and evictions are counted once, on
    ``registry`` — the service-lifetime one, as for admission,
    coalescing and the executor — and :meth:`to_payload` reads them
    back from there.
    """

    def __init__(
        self, capacity: int = 256, registry: MetricsRegistry | None = None
    ) -> None:
        if capacity < 1:
            raise InvalidInstanceError(
                f"PlanCache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.registry = registry if registry is not None else MetricsRegistry()
        self._plans: OrderedDict[str, PreparedPlan] = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

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
        plan = self._plans.get(key)
        if plan is not None:
            self.registry.counter("plan_cache.hits").inc()
            self._plans.move_to_end(key)
            return plan, True
        self.registry.counter("plan_cache.misses").inc()
        decision = decide_route(query, free=free_t, mode=mode)
        plan = PreparedPlan(
            key=key,
            decision=decision,
            free=free_t,
            database_name=database_name,
            fingerprint=fingerprint,
        )
        self._plans[key] = plan
        if len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.registry.counter("plan_cache.evictions").inc()
        return plan, False

    def invalidate_database(self, database_name: str) -> int:
        """Drop every plan prepared against ``database_name``.

        Fingerprint keying already makes stale plans unreachable; this
        additionally frees their slots eagerly on re-registration.
        """
        stale = [
            key
            for key, plan in self._plans.items()
            if plan.database_name == database_name
        ]
        for key in stale:
            del self._plans[key]
        return len(stale)

    def to_payload(self) -> dict:
        """The ``/metrics`` view; ``hit_ratio`` is hits over lookups
        since boot (0.0 before the first lookup)."""
        hits = self.registry.counter_value("plan_cache.hits")
        misses = self.registry.counter_value("plan_cache.misses")
        lookups = hits + misses
        return {
            "capacity": self.capacity,
            "size": len(self._plans),
            "hits": hits,
            "misses": misses,
            "evictions": self.registry.counter_value("plan_cache.evictions"),
            "hit_ratio": (hits / lookups) if lookups else 0.0,
        }
