"""Deterministic metrics: counters, gauges, fixed-bucket histograms.

Totals (:class:`~repro.counting.CostCounter`) say *how much* work an
algorithm did; they cannot say how the work was *shaped*. Ngo's WCOJ
survey stresses that per-instance probe/branching distributions — not
sums — are what distinguish a genuinely worst-case-optimal execution
from a lucky one (see PAPERS.md). This module is the distribution
counterpart of :mod:`repro.counting`: solvers observe structural
quantities (trie probes per answer, branching factors, propagation
chain lengths, DP bag sizes) into a :class:`MetricsRegistry`, and the
registry serializes into the ``metrics`` section of a run record.

Everything here is machine-independent by construction:

* no wall-clock anywhere — every observed value is an operation count
  or a structural size;
* histogram buckets are *fixed at registration* (powers of two by
  default), never derived from the data, so two runs with the same
  seeds produce byte-identical payloads;
* payloads are emitted with sorted keys only.

Like tracing (:mod:`repro.observability.tracing`), instrumented solver
code reads the ambient registry from a :class:`contextvars.ContextVar`
via :func:`current_metrics` — one context-var read per solver entry,
and a no-op ``None`` outside the experiment runtime, so library calls
stay uninstrumented-fast.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from contextvars import ContextVar
from collections.abc import Iterator, Sequence

from ..errors import InvalidInstanceError

#: Default histogram bucket upper bounds: powers of two. Fixed, data
#: independent, and wide enough for every structural quantity the
#: solvers observe (values above the last bound land in the overflow
#: bucket). DESIGN.md explains why buckets are pinned, not fitted.
DEFAULT_BUCKETS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Compact bounds for quantities that are small by construction
#: (nesting depths, branching factors, bag sizes).
SMALL_BUCKETS: tuple[int, ...] = (0, 1, 2, 3, 4, 6, 8, 12, 16, 24, 32)


class Counter:
    """A monotone named tally (events seen, answers emitted, ...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise InvalidInstanceError(f"counter {self.name!r}: negative increment")
        self.value += amount

    def to_payload(self) -> int:
        return self.value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self.value})"


class Gauge:
    """A named level: last value set, plus the high-water mark.

    Gauges record quantities that vary over a run but are not summed —
    current DP table size, recursion depth. ``set`` overwrites;
    ``set_max`` keeps the high-water mark monotone for callers that
    only care about the peak.
    """

    __slots__ = ("name", "value", "maximum")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0
        self.maximum = 0

    def set(self, value: int | float) -> None:
        self.value = value
        if value > self.maximum:
            self.maximum = value

    def set_max(self, value: int | float) -> None:
        """Record ``value`` only if it exceeds the high-water mark."""
        if value > self.maximum:
            self.value = value
            self.maximum = value

    def to_payload(self) -> dict:
        return {"value": self.value, "max": self.maximum}

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self.value}, max={self.maximum})"


class Histogram:
    """Fixed-bucket distribution of a non-negative structural quantity.

    ``bounds`` are inclusive upper bounds; an observation lands in the
    first bucket whose bound is >= the value, or in the implicit
    overflow bucket past the last bound. ``counts`` therefore has
    ``len(bounds) + 1`` entries. Bounds are frozen at registration —
    never data-dependent — which is what makes two equal-seed runs
    byte-identical (the determinism tests pin this).
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(self, name: str, bounds: Sequence[int | float] = DEFAULT_BUCKETS) -> None:
        bounds = tuple(bounds)
        if not bounds or any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise InvalidInstanceError(
                f"histogram {name!r}: bucket bounds must be strictly increasing"
            )
        self.name = name
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0

    def observe(self, value: int | float) -> None:
        if value < 0:
            raise InvalidInstanceError(
                f"histogram {self.name!r}: negative observation {value!r}"
            )
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (``0 < q <= 1``), bucket-interpolated.

        Walks the cumulative counts to the first bucket covering rank
        ``q · count`` and interpolates linearly inside that bucket's
        ``(lower, upper]`` value range; observations in the overflow
        bucket are clamped to the last finite bound (a fixed-bucket
        histogram cannot see past it). An empty histogram reads 0.0.
        """
        return percentile_from_buckets(self.bounds, self.counts, q, name=self.name)

    def to_payload(self) -> dict:
        return {
            "buckets": [b if isinstance(b, int) else float(b) for b in self.bounds],
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum if isinstance(self.sum, int) else float(self.sum),
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, count={self.count}, sum={self.sum})"


def percentile_from_buckets(
    bounds: Sequence[int | float],
    counts: Sequence[int],
    q: float,
    name: str = "histogram",
) -> float:
    """Bucket-interpolated quantile over ``(bounds, counts)``.

    Shared by :meth:`Histogram.percentile` (live instruments) and the
    report/dashboard layers, which read serialized histogram payloads.
    Bucket ``i`` covers ``(bounds[i-1], bounds[i]]`` (``[0, bounds[0]]``
    for the first); the overflow bucket is clamped to the last finite
    bound rather than extrapolated.
    """
    if not 0.0 < q <= 1.0:
        raise InvalidInstanceError(
            f"{name}: quantile must be in (0, 1], got {q!r}"
        )
    total = sum(counts)
    if total == 0:
        return 0.0
    target = q * total
    cumulative = 0
    for index, bucket_count in enumerate(counts):
        if not bucket_count:
            continue
        if cumulative + bucket_count < target:
            cumulative += bucket_count
            continue
        if index >= len(bounds):
            return float(bounds[-1])
        upper = float(bounds[index])
        lower = float(bounds[index - 1]) if index else 0.0
        fraction = (target - cumulative) / bucket_count
        return lower + fraction * (upper - lower)
    return float(bounds[-1])


def payload_percentile(histogram: dict, q: float) -> float:
    """Quantile read off a serialized histogram payload (record JSON)."""
    return percentile_from_buckets(
        histogram.get("buckets", ()), histogram.get("counts", ()), q
    )


class MetricsRegistry:
    """Get-or-create registry of named counters, gauges, histograms.

    Registration is idempotent per name; re-registering a histogram
    with different bounds is an error rather than a silent re-bucket
    (bucket drift would break cross-run comparability).
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        existing = self._counters.get(name)
        if existing is None:
            existing = self._counters[name] = Counter(name)
        return existing

    def gauge(self, name: str) -> Gauge:
        existing = self._gauges.get(name)
        if existing is None:
            existing = self._gauges[name] = Gauge(name)
        return existing

    def histogram(
        self, name: str, buckets: Sequence[int | float] = DEFAULT_BUCKETS
    ) -> Histogram:
        existing = self._histograms.get(name)
        if existing is None:
            existing = self._histograms[name] = Histogram(name, buckets)
        elif existing.bounds != tuple(buckets):
            raise InvalidInstanceError(
                f"histogram {name!r} already registered with bounds "
                f"{existing.bounds}, not {tuple(buckets)}"
            )
        return existing

    def counter_value(self, name: str) -> int:
        """The value of counter ``name`` (0 if it was never created),
        read without creating it or serializing the registry."""
        existing = self._counters.get(name)
        return 0 if existing is None else existing.value

    @property
    def empty(self) -> bool:
        return not (self._counters or self._gauges or self._histograms)

    def to_payload(self) -> dict:
        """JSON-safe dict; sections with no instruments are omitted."""
        payload: dict = {}
        if self._counters:
            payload["counters"] = {
                name: c.to_payload() for name, c in sorted(self._counters.items())
            }
        if self._gauges:
            payload["gauges"] = {
                name: g.to_payload() for name, g in sorted(self._gauges.items())
            }
        if self._histograms:
            payload["histograms"] = {
                name: h.to_payload() for name, h in sorted(self._histograms.items())
            }
        return payload


#: The ambient registry; ``None`` outside an instrumented experiment run.
_ACTIVE_METRICS: ContextVar[MetricsRegistry | None] = ContextVar(
    "repro_active_metrics", default=None
)


def current_metrics() -> MetricsRegistry | None:
    """The registry activated for the current context, if any.

    Instrumented solvers call this once at entry and guard each
    observation on the result, so the uninstrumented path costs one
    context-var read total.
    """
    return _ACTIVE_METRICS.get()


@contextmanager
def activate_metrics(registry: MetricsRegistry) -> Iterator[MetricsRegistry]:
    """Make ``registry`` the ambient metrics sink for the enclosed block."""
    token = _ACTIVE_METRICS.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE_METRICS.reset(token)


def observe(name: str, value: int | float, buckets: Sequence[int | float] = DEFAULT_BUCKETS) -> None:
    """Observe into the ambient registry's histogram; no-op when inactive."""
    registry = _ACTIVE_METRICS.get()
    if registry is not None:
        registry.histogram(name, buckets).observe(value)


def inc(name: str, amount: int = 1) -> None:
    """Increment the ambient registry's counter; no-op when inactive."""
    registry = _ACTIVE_METRICS.get()
    if registry is not None:
        registry.counter(name).inc(amount)
