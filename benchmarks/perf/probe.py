"""Measuring a timed region from outside the program under test.

A :class:`Probe` brackets the timed region: simulated clock, public
``stats()`` counters and the bytes handed to the simulated disk are
sampled before and after, and the deltas become the workload's
:class:`Timed` result plus the stats-derived per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Dict, List, Optional

from repro.disk.simdisk import SimulatedDisk

#: Cost-model categories charged by the version/ARU machinery in
#: ``repro.core`` (alternative records, chains, the list-op log).
CORE_CPU = (
    "aru_begin_us",
    "aru_commit_us",
    "aru_alloc_us",
    "record_create_us",
    "record_transition_us",
    "chain_hop_us",
    "listop_log_us",
    "listop_replay_us",
)


class DiskBytes:
    """Counts the bytes handed to ``SimulatedDisk``'s three write
    calls, on every disk in the process (shards, mirrors and
    power-cycled survivors alike) — the numerator of ``write_amp``."""

    def __init__(self) -> None:
        self.written = 0
        self._mutex = threading.Lock()

    def _add(self, nbytes: int) -> None:
        with self._mutex:
            self.written += nbytes

    def install(self) -> None:
        write_segment = SimulatedDisk.write_segment
        write_many = SimulatedDisk.write_many
        write_at = SimulatedDisk.write_at
        add = self._add

        def counted_segment(disk, segment_no, data):
            add(len(data))
            return write_segment(disk, segment_no, data)

        def counted_many(disk, writes):
            add(sum(len(data) for _, data in writes))
            return write_many(disk, writes)

        def counted_at(disk, segment_no, offset, data):
            add(len(data))
            return write_at(disk, segment_no, offset, data)

        SimulatedDisk.write_segment = counted_segment
        SimulatedDisk.write_many = counted_many
        SimulatedDisk.write_at = counted_at


@dataclasses.dataclass
class Timed:
    """What one timed region did."""

    ops: int
    wall_s: float
    sim_us: float
    user_bytes: int
    disk_bytes: int
    #: Wall µs per op, one sample per timed chunk (or per request).
    latencies_us: List[float]
    failed: int = 0
    #: The part of the region ``wall_ops_per_s`` is taken over, when it
    #: is not the whole region (the front end's closed-loop phase).
    rate_ops: Optional[int] = None
    rate_wall_s: Optional[float] = None
    #: Stats-derived per-layer metrics and workload-specific scalars.
    layers: Dict[str, float] = dataclasses.field(default_factory=dict)


@dataclasses.dataclass
class Context:
    """What a workload's ``run`` needs from the harness."""

    disk_bytes: DiskBytes
    tracer: Optional[object] = None

    def probe(self, volume) -> "Probe":
        """Start the timed region on ``volume``."""
        return Probe(volume, self.disk_bytes, self.tracer)


def volume_stats(volume) -> dict:
    """LLD-shaped ``stats()`` of a volume; an array's summed view."""
    stats = volume.stats()
    return stats.get("aggregate", stats)


def _delta(after, before):
    if isinstance(after, dict):
        return {
            key: _delta(value, (before or {}).get(key))
            for key, value in after.items()
        }
    if isinstance(after, bool) or not isinstance(after, (int, float)):
        return after
    return after - (before or 0)


class Probe:
    """Brackets one timed region on one volume; spans are recorded
    only between construction and :meth:`finish`."""

    def __init__(self, volume, disk_bytes: DiskBytes, tracer=None) -> None:
        self.volume = volume
        self.disk_bytes = disk_bytes
        self.tracer = tracer
        self._stats0 = volume_stats(volume)
        self._bytes0 = disk_bytes.written
        self._sim0 = volume.clock.now_us
        self.latencies_us: List[float] = []
        if tracer is not None:
            tracer.enabled = True
        self._wall0 = time.perf_counter()

    def finish(self, ops: int, user_bytes: int, failed: int = 0) -> Timed:
        wall_s = time.perf_counter() - self._wall0
        if self.tracer is not None:
            self.tracer.enabled = False
        volume = self.volume
        sim_us = volume.clock.now_us - self._sim0
        disk_bytes = self.disk_bytes.written - self._bytes0
        timed = Timed(
            ops=ops,
            wall_s=wall_s,
            sim_us=sim_us,
            user_bytes=user_bytes,
            disk_bytes=disk_bytes,
            latencies_us=self.latencies_us,
            failed=failed,
        )
        timed.layers = stats_layers(self._stats0, volume_stats(volume), timed)
        return timed


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def stats_layers(before: dict, after: dict, timed: Timed) -> Dict[str, float]:
    """Per-layer metrics from two LLD-shaped ``stats()`` snapshots.  A
    JLD has only some of the sections; what it lacks reads as zero."""
    stats = _delta(after, before)
    disk = stats.get("disk", {})
    cpu_us = stats.get("cpu_us", {})
    counts = stats.get("cpu_counts", {})
    segments = stats.get("segments", {})
    writeback = stats.get("writeback", {})
    group = stats.get("group_commit", {})
    arus = stats.get("arus_begun", 0)
    sealed = segments.get("sealed", 0)

    def fill_total(snapshot: dict) -> float:
        section = snapshot.get("segments", {})
        return section.get("avg_fill", 0.0) * section.get("sealed", 0)

    hits = stats.get("cache_hits", 0)
    misses = stats.get("cache_misses", 0)
    ops = timed.ops
    return {
        "disk.write_requests": disk.get("writes", 0),
        "disk.read_requests": disk.get("reads", 0),
        "disk.bytes_written": timed.disk_bytes,
        "disk.bytes_read": max(
            0, disk.get("bytes_transferred", 0) - timed.disk_bytes
        ),
        "disk.sim_busy_us_per_op": _ratio(disk.get("busy_us", 0.0), ops),
        "disk.batched_runs": disk.get("batched_runs", 0)
        + disk.get("write_batched_runs", 0),
        # avg_fill is a running mean; this is the mean over the region.
        "segment.avg_fill": _ratio(
            fill_total(after) - fill_total(before), sealed
        ),
        "summary.entries_encoded": counts.get("summary_entry_us", 0),
        "summary.entries_decoded": counts.get("decode_entry_us", 0),
        "summary.bytes_per_user_kb": _ratio(
            segments.get("summary_bytes", 0), timed.user_bytes / 1024.0
        ),
        "writeback.drains": writeback.get("drains", 0),
        "writeback.auto_drains": writeback.get("auto_drains", 0),
        # A high-water mark, not a counter: report the absolute value.
        "writeback.max_depth_seen": after.get("writeback", {}).get(
            "max_depth_seen", 0
        ),
        "cleaner.runs": stats.get("cleanings", 0),
        "cache.hit_rate": _ratio(hits, hits + misses),
        "lld.sim_cpu_us_per_op": _ratio(sum(cpu_us.values()), ops),
        "lld.segments_flushed": stats.get("segments_flushed", 0),
        "lld.commits_per_group": _ratio(
            group.get("commits_grouped", 0), group.get("groups_flushed", 0)
        ),
        "core.sim_us_per_aru": _ratio(
            sum(cpu_us.get(name, 0.0) for name in CORE_CPU), arus
        ),
        "core.chain_hops_per_op": _ratio(counts.get("chain_hop_us", 0), ops),
        "core.records_per_aru": _ratio(
            counts.get("record_create_us", 0), arus
        ),
        "core.listop_replays": counts.get("listop_replay_us", 0),
    }
