"""The metrics registry: counters, gauges and latency histograms.

Every subsystem used to keep its own ad-hoc counters (per-subsystem
dicts, bare integer attributes, per-queue stat methods); this module
replaces them with one registry of named instruments so ``stats()``
views, JSON artifacts and the harness all read from the same place.

Three instrument kinds cover everything the paper's evaluation needs:

* :class:`Counter` — monotonically increasing totals (ops, segments,
  bytes).  Float increments are allowed (fill ratios, simulated µs).
* :class:`Gauge` — a point-in-time value with min/max tracking
  helpers (queue high-water marks, minimum fill ratio).
* :class:`Histogram` — simulated-clock latency distributions over
  fixed log-spaced (power-of-two) microsecond buckets, so per-op disk
  latencies from different runs are always directly comparable.

Instrumentation must never perturb the simulation: no instrument
touches the :class:`~repro.disk.clock.SimClock` — neither advancing
it nor drawing ``tick()`` serials — so simulated timings are
byte-identical with metrics on, off, or absent.

The disabled fast path: a registry created with ``enabled=False``
hands out shared null instruments whose methods are no-ops, so hot
paths pay one attribute load plus one no-op call and nothing else.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Union

Number = Union[int, float]

#: Histogram bucket upper bounds in simulated microseconds: 1 µs to
#: 2^25 µs (~33.6 s) in powers of two, plus an implicit overflow
#: bucket.  Fixed for every histogram so distributions are comparable
#: across instruments, runs and PRs.
BUCKET_BOUNDS_US = tuple(float(2 ** exp) for exp in range(26))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self) -> None:
        self.value += 1

    def add(self, amount: Number) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value with min/max tracking helpers."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, initial: Optional[Number] = 0) -> None:
        self.name = name
        self.value: Optional[Number] = initial

    def set(self, value: Optional[Number]) -> None:
        self.value = value

    def update_max(self, value: Number) -> None:
        if self.value is None or value > self.value:
            self.value = value

    def update_min(self, value: Number) -> None:
        if self.value is None or value < self.value:
            self.value = value


class Histogram:
    """A latency distribution over the fixed log-spaced buckets."""

    __slots__ = ("name", "count", "total", "max", "counts")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.max = 0.0
        # One slot per bound plus the overflow bucket.
        self.counts = [0] * (len(BUCKET_BOUNDS_US) + 1)

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        self.counts[bisect_left(BUCKET_BOUNDS_US, value)] += 1

    def percentile(self, q: float) -> float:
        """Estimated q-quantile (``0 < q <= 1``) in microseconds.

        Linear interpolation inside the log-spaced bucket that holds
        the target rank; the overflow bucket reports the observed
        max.  Good to within one bucket's width — exactly the
        resolution the fixed bounds promise.
        """
        return percentile_from_snapshot(self.snapshot(), q)

    def snapshot(self) -> dict:
        """Summary plus the non-empty buckets (``le`` = upper bound in
        simulated µs, ``None`` for the overflow bucket)."""
        buckets: List[dict] = [
            {
                "le": (
                    BUCKET_BOUNDS_US[index]
                    if index < len(BUCKET_BOUNDS_US)
                    else None
                ),
                "count": count,
            }
            for index, count in enumerate(self.counts)
            if count
        ]
        return {
            "count": self.count,
            "total_us": self.total,
            "mean_us": (self.total / self.count) if self.count else 0.0,
            "max_us": self.max,
            "buckets": buckets,
        }


class _NullCounter:
    """No-op counter handed out by a disabled registry."""

    __slots__ = ()
    name = "<null>"
    value = 0

    def inc(self) -> None:
        pass

    def add(self, amount: Number) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    name = "<null>"
    value = 0

    def set(self, value: Optional[Number]) -> None:
        pass

    def update_max(self, value: Number) -> None:
        pass

    def update_min(self, value: Number) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    name = "<null>"
    count = 0
    total = 0.0
    max = 0.0

    def observe(self, value: Number) -> None:
        pass

    def snapshot(self) -> dict:
        return {
            "count": 0,
            "total_us": 0.0,
            "mean_us": 0.0,
            "max_us": 0.0,
            "buckets": [],
        }


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


def merge_histogram_snapshots(snapshots) -> dict:
    """Combine histogram snapshots into one distribution.

    All histograms share the fixed :data:`BUCKET_BOUNDS_US`, so
    merging is exact: bucket counts and totals sum, the max is the
    max.  This is how a sharded volume's per-shard ``lld.commit_us``
    histograms become one array-wide latency distribution.
    """
    merged_counts: Dict[Optional[float], int] = {}
    count = 0
    total = 0.0
    peak = 0.0
    for snap in snapshots:
        count += snap["count"]
        total += snap["total_us"]
        peak = max(peak, snap["max_us"])
        for bucket in snap["buckets"]:
            key = bucket["le"]
            merged_counts[key] = merged_counts.get(key, 0) + bucket["count"]
    bounds = [*BUCKET_BOUNDS_US, None]
    buckets = [
        {"le": bound, "count": merged_counts[bound]}
        for bound in bounds
        if bound in merged_counts
    ]
    return {
        "count": count,
        "total_us": total,
        "mean_us": (total / count) if count else 0.0,
        "max_us": peak,
        "buckets": buckets,
    }


def latency_summary(snapshot: dict) -> dict:
    """The tail-latency digest of a histogram snapshot.

    One flat dict — count, mean, max and the p50/p99/p999 estimates —
    in the snapshot's own time base (wall µs for front-end
    instruments, simulated µs for storage ones).  This is the shape
    the front end's ``stats()`` reports for every component of its
    decomposed request latency, and what the frozen frontend schema
    validates.
    """
    return {
        "count": snapshot["count"],
        "mean_us": snapshot["mean_us"],
        "max_us": snapshot["max_us"],
        "p50_us": (
            percentile_from_snapshot(snapshot, 0.50)
            if snapshot["count"]
            else 0.0
        ),
        "p99_us": (
            percentile_from_snapshot(snapshot, 0.99)
            if snapshot["count"]
            else 0.0
        ),
        "p999_us": (
            percentile_from_snapshot(snapshot, 0.999)
            if snapshot["count"]
            else 0.0
        ),
    }


def percentile_from_snapshot(snapshot: dict, q: float) -> float:
    """Estimated q-quantile (``0 < q <= 1``) of a histogram snapshot.

    Walks the cumulative bucket counts to the target rank and
    interpolates linearly inside the covering bucket; results are
    clamped to the observed max (the overflow bucket has no upper
    bound, and the top of a log-spaced bucket can overshoot it).
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must be in (0, 1], got {q}")
    total = snapshot["count"]
    if not total:
        return 0.0
    target = q * total
    cumulative = 0
    lower = 0.0
    for bucket in snapshot["buckets"]:
        inside = bucket["count"]
        if cumulative + inside >= target:
            upper = bucket["le"]
            if upper is None:
                return snapshot["max_us"]
            fraction = (target - cumulative) / inside
            estimate = lower + (upper - lower) * fraction
            return min(estimate, snapshot["max_us"])
        cumulative += inside
        if bucket["le"] is not None:
            lower = bucket["le"]
    return snapshot["max_us"]


class MetricsRegistry:
    """Named instruments, deduplicated by name.

    ``counter()``/``gauge()``/``histogram()`` create on first use and
    return the existing instrument afterwards (asking for an existing
    name with a different kind is an error).  A disabled registry
    returns the shared null instruments instead and records nothing.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_unique(self, name: str, kind: dict) -> None:
        for table in (self._counters, self._gauges, self._histograms):
            if table is not kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a different kind"
                )

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER  # type: ignore[return-value]
        found = self._counters.get(name)
        if found is None:
            self._check_unique(name, self._counters)
            found = self._counters[name] = Counter(name)
        return found

    def gauge(self, name: str, initial: Optional[Number] = 0) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE  # type: ignore[return-value]
        found = self._gauges.get(name)
        if found is None:
            self._check_unique(name, self._gauges)
            found = self._gauges[name] = Gauge(name, initial)
        return found

    def histogram(self, name: str) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM  # type: ignore[return-value]
        found = self._histograms.get(name)
        if found is None:
            self._check_unique(name, self._histograms)
            found = self._histograms[name] = Histogram(name)
        return found

    def value(self, name: str, default: Number = 0) -> Optional[Number]:
        """The current value of a counter or gauge, by full name."""
        found = self._counters.get(name) or self._gauges.get(name)
        return default if found is None else found.value

    def group_values(self, prefix: str) -> Dict[str, Number]:
        """``{suffix: value}`` for every counter/gauge under a prefix."""
        values: Dict[str, Number] = {}
        for table in (self._counters, self._gauges):
            for name, instrument in table.items():
                if name.startswith(prefix):
                    values[name[len(prefix):]] = instrument.value
        return values

    def snapshot(self) -> dict:
        """Everything, JSON-ready, sorted by name."""
        return {
            "enabled": self.enabled,
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value
                for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
        }


#: Shared disabled registry for components whose owner has no
#: observability attached (e.g. a file system over a bare JLD).
DISABLED_REGISTRY = MetricsRegistry(enabled=False)
