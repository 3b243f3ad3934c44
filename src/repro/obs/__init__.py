"""Unified observability: metrics registry + flight recorder.

:class:`Observability` is the per-system bundle a :class:`~repro.lld.
lld.LLD` (and everything hanging off it — disk, file system, cleaner,
scrubber, write-behind queue, recovery) shares: one
:class:`~repro.obs.registry.MetricsRegistry` of named instruments and
one :class:`~repro.obs.recorder.FlightRecorder` ring of structured
events.  See ``docs/OBSERVABILITY.md`` for the metric and event
taxonomy, and :mod:`repro.obs.schema` for the frozen ``stats()``
schema the registry backs.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.recorder import FlightRecorder
from repro.obs.registry import (
    DISABLED_REGISTRY,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    latency_summary,
    merge_histogram_snapshots,
    percentile_from_snapshot,
)
from repro.obs.schema import STATS_SCHEMA, validate_stats

__all__ = [
    "Observability",
    "MetricsRegistry",
    "FlightRecorder",
    "Counter",
    "Gauge",
    "Histogram",
    "DISABLED_REGISTRY",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "STATS_SCHEMA",
    "validate_stats",
    "latency_summary",
    "merge_histogram_snapshots",
    "percentile_from_snapshot",
]


class Observability:
    """One system's registry + recorder, plus the crash-dump hook.

    ``metrics=False`` swaps in the disabled-registry fast path (all
    instruments become shared no-ops); the recorder is always on —
    events are cheap and are what explains a failure after the fact.
    """

    def __init__(
        self,
        metrics: bool = True,
        dump_path: Optional[str] = None,
    ) -> None:
        self.metrics = MetricsRegistry(enabled=metrics)
        self.recorder = FlightRecorder()
        #: Where :meth:`crash_dump` writes the event tail (None
        #: disables automatic dumps).
        self.dump_path = dump_path

    def bind_clock(self, clock) -> None:
        self.recorder.bind_clock(clock)

    def record(self, kind: str, /, **fields) -> None:
        self.recorder.record(kind, **fields)

    def snapshot(self) -> dict:
        """JSON-ready snapshot of the registry and recorder state."""
        return {
            "metrics": self.metrics.snapshot(),
            "recorder": self.recorder.summary(),
        }

    def crash_dump(self, reason: str) -> Optional[str]:
        """Record a terminal event and dump the ring to ``dump_path``.

        Best-effort: a failing dump (bad path, read-only fs) must
        never mask the original failure, so I/O errors are swallowed.
        Returns the path written, or None.
        """
        self.record("crash_dump", reason=reason)
        if self.dump_path is None:
            return None
        try:
            self.recorder.dump_jsonl(self.dump_path)
        except OSError:
            return None
        return self.dump_path
