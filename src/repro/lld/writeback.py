"""The bounded write-behind queue: pipelining segment writes.

LLD fills segments in main memory precisely so the disk can stream
them.  The serial write path (:meth:`~repro.lld.logwriter.LogWriter._write_buffer`
straight to the disk) still paid one synchronous disk operation per
sealed segment; this queue decouples sealing from writing.  A sealed
segment is *submitted* and parked here; when the queue reaches its
depth — or a barrier (``flush()``, ``write_checkpoint()``, the
cleaner's free-victims protocol) forces a drain — every parked segment
is issued in one scatter-gather
:meth:`~repro.disk.simdisk.SimulatedDisk.batch`, in log-sequence
order: each segment's data slots, then its chunk, never the free gap
between them (a segment that earlier flushes already wrote in place
parks only its closing slots and chunk).  Consecutively allocated
segments are physically adjacent, so the batch coalesces into long
sequential runs where the segments are full: one seek, then
media-bandwidth streaming.

Ordering invariants the queue is responsible for:

* **Log order.**  Segments are written in strictly increasing log
  sequence.  Commit records live in segments at or after the data
  they cover, so draining in order guarantees a commit record never
  reaches the disk before its ARU's data segments.
* **Durability only at drain points.**  ``_commit_on_disk``,
  ``_last_written_seq`` and the committed→persistent fold advance in
  :meth:`~repro.lld.logwriter.LogWriter._write_now` — i.e. only when the ranges actually
  reach the platter.  Nothing queued is ever treated as durable.
* **Readability while queued.**  A queued segment's blocks stay
  readable from the parked image (:meth:`get_buffer`); its usage
  state is :attr:`~repro.lld.usage.SegmentState.QUEUED`, which keeps
  the cleaner, the scrubber and log-copy salvage — all of which walk
  ``dirty_segments()`` — from reading the not-yet-written platter
  bytes underneath it.

Crash semantics: the fault injector gates every range of the drain
batch individually, so a crash plan tears exactly one range (a
segment's data or its chunk), the ranges behind it never reach the
disk, and
recovery sees the same reachable platter states a serial writer
produces (``tests/test_writeback.py`` proves byte-identity).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.lld.segment import SegmentBuffer


class WritebackQueue:
    """Bounded FIFO of sealed-but-unwritten segments.

    Args:
        lld: The owning logical disk, as a weak proxy (drains call
            back into ``lld._write_now``).
        depth: Maximum parked segments before an automatic drain.
            ``0`` disables write-behind entirely: submissions write
            through synchronously, byte-for-byte like the serial path.
    """

    def __init__(self, lld, depth: int) -> None:
        if depth < 0:
            raise ValueError(f"writeback depth must be >= 0, got {depth}")
        self.lld = lld
        self.depth = depth
        # Parked sealed buffers.  Each keeps its own frozen image
        # (seal() is zero-copy); the disk layer copies the ranges it
        # is handed at write time.
        self._pending: List[SegmentBuffer] = []
        self._by_segment: Dict[int, SegmentBuffer] = {}
        # Statistics (surfaced via lld.stats()["writeback"]), kept in
        # the owner's metrics registry.
        metrics = lld.obs.metrics
        self._c_submitted = metrics.counter("lld.writeback.submitted")
        self._c_drains = metrics.counter("lld.writeback.drains")
        self._c_auto_drains = metrics.counter("lld.writeback.auto_drains")
        self._g_max_depth = metrics.gauge("lld.writeback.max_depth_seen")

    @property
    def submitted(self) -> int:
        return self._c_submitted.value

    @property
    def drains(self) -> int:
        return self._c_drains.value

    @property
    def auto_drains(self) -> int:
        return self._c_auto_drains.value

    @property
    def max_depth_seen(self) -> int:
        return self._g_max_depth.value

    @property
    def enabled(self) -> bool:
        """True when write-behind is on (depth > 0)."""
        return self.depth > 0

    def __len__(self) -> int:
        return len(self._pending)

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def submit(self, buffer: SegmentBuffer) -> None:
        """Accept one sealed segment.

        With write-behind disabled this degenerates to the serial
        write path.  Otherwise the segment is parked (QUEUED in the
        usage table, image retained for reads) and the queue drains
        itself when it reaches its depth.
        """
        if not self.enabled:
            self.lld._write_now([buffer])
            return
        self._pending.append(buffer)
        self._by_segment[buffer.segment_no] = buffer
        self.lld.usage.mark_queued(
            buffer.segment_no, buffer.seq, buffer.unwritten_block_count
        )
        self._c_submitted.inc()
        self._g_max_depth.update_max(len(self._pending))
        if len(self._pending) >= self.depth:
            self._c_auto_drains.inc()
            self.drain()

    # ------------------------------------------------------------------
    # Drain side
    # ------------------------------------------------------------------

    def drain(self) -> int:
        """Write every parked segment in one batch; returns how many.

        This is the only place queued state becomes durable.  A crash
        mid-batch kills the instance (``lld._dead``); segments behind
        the tear point never reach the disk, which recovery handles
        exactly as it handles a serial writer's lost tail.
        """
        if not self._pending:
            return 0
        batch = self._pending
        self._pending = []
        self._by_segment = {}
        self._c_drains.inc()
        self.lld.obs.record("writeback.drain", segments=len(batch))
        self.lld._write_now(batch)
        return len(batch)

    # ------------------------------------------------------------------
    # Lookup (the read path and verification)
    # ------------------------------------------------------------------

    def get_buffer(self, segment_no: int) -> Optional[SegmentBuffer]:
        """The parked buffer targeting ``segment_no``, if any."""
        return self._by_segment.get(segment_no)

    def pending_segments(self) -> Set[int]:
        """Physical segment numbers currently parked."""
        return set(self._by_segment)

    def stats(self) -> dict:
        """Counters snapshot for ``lld.stats()``."""
        return {
            "depth": self.depth,
            "queued": len(self._pending),
            "submitted": self.submitted,
            "drains": self.drains,
            "auto_drains": self.auto_drains,
            "max_depth_seen": self.max_depth_seen,
        }
