"""Segment usage accounting for allocation and cleaning.

Tracks, for every physical segment, whether it is reserved for
checkpoints, free, the current in-memory buffer's target, or an
on-disk log segment — and for on-disk segments, how many of their
data slots are still *live* (pointed at by the block-number-map).
The segment cleaner picks victims from this table, and copies their
live slots by its slot tables: the block id and slot CRC of every data
slot a segment holds, copied in when the volume wrote it or when
recovery replayed it (:meth:`SegmentUsage.add_slots`).
"""

from __future__ import annotations

import enum
import heapq
from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import DiskFullError
from repro.lld.summary import KIND_WRITE


class SegmentState(enum.Enum):
    """Lifecycle states of a physical segment."""

    RESERVED = "reserved"  # checkpoint region, never part of the log
    FREE = "free"
    CURRENT = "current"  # target of the in-memory buffer
    QUEUED = "queued"  # sealed, waiting in the write-behind queue
    DIRTY = "dirty"  # on disk, part of the log
    QUARANTINED = "quarantined"  # failed media; never reused


#: Sentinel sequence number marking a quarantined segment in the
#: checkpoint's segment roster.  The roster's seq field is an
#: unsigned 64-bit slot, and real log sequence numbers start at 1,
#: so the all-ones value is wire-compatible with existing images.
QUARANTINE_SEQ = (1 << 64) - 1

#: Tails recovery's roll-forward walk reads at a time, at least.
#: :meth:`SegmentUsage.take_free` hands segments out lowest first and
#: they are written in that order, so a crash leaves the segments newer
#: than the checkpoint as a gap-free prefix of the ones its roster does
#: not list, and the first batch holding none of them lies beyond the
#: log's end.  A batch is never smaller than one write-behind drain
#: (``writeback_depth + 1`` segments), the unit a device that persists
#: out of order could leave gaps in.
WALK_BATCH = 8


class SegmentUsage:
    """Per-segment state, live-slot counts and log sequence numbers."""

    def __init__(self, num_segments: int, reserved: int = 0) -> None:
        if reserved >= num_segments:
            raise ValueError("cannot reserve every segment for checkpoints")
        self.num_segments = num_segments
        self.reserved_count = reserved
        self._state: List[SegmentState] = [
            SegmentState.RESERVED if seg < reserved else SegmentState.FREE
            for seg in range(num_segments)
        ]
        self._live: List[int] = [0] * num_segments
        self._total: List[int] = [0] * num_segments
        self._seq: List[int] = [-1] * num_segments
        #: Per segment, its slot table — the block id and the slot CRC
        #: of each data slot, in slot order, 12 bytes a slot — or None
        #: where none covers it: free, quarantined, or a segment the
        #: checkpoint attested at recovery, whose summaries no one has
        #: read since.
        self._slot_blocks: List[Optional[array]] = [None] * num_segments
        self._slot_crcs: List[Optional[array]] = [None] * num_segments
        #: Min-heap holding every free segment.  A free segment that is
        #: quarantined or restored to another state leaves a stale
        #: entry behind; :meth:`take_free` skips those by state.
        self._free: List[int] = list(range(reserved, num_segments))
        self._free_count = len(self._free)

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------

    @property
    def free_count(self) -> int:
        """Number of free segments available for new buffers."""
        return self._free_count

    def take_free(self, reserve: int = 0) -> int:
        """Allocate the lowest-numbered free segment as the next
        buffer target.

        Lowest first, because nothing is freed between checkpoints:
        the segments written since one are then the lowest its roster
        does not list, which is all recovery has to read.

        ``reserve`` segments are left untouchable: ordinary
        allocations keep them for the cleaner and for deletions, so
        a full disk remains recoverable (ENOSPC, not wedged).

        Raises:
            DiskFullError: If allocating would dip below ``reserve``.
        """
        if self._free_count <= reserve:
            raise DiskFullError(
                f"only {self._free_count} free segments remain "
                f"(reserve is {reserve})"
            )
        while self._free:
            seg = heapq.heappop(self._free)
            if self._state[seg] is SegmentState.FREE:
                self._state[seg] = SegmentState.CURRENT
                self._live[seg] = 0
                self._total[seg] = 0
                self._seq[seg] = -1
                self._drop_slots(seg)
                self._free_count -= 1
                return seg
        raise DiskFullError("no free segments remain")

    def _publish(
        self, seg: int, seq: int, live_slots: int, state: SegmentState
    ) -> None:
        """``live_slots`` more slots of ``seg`` are now spoken for.

        Counts accrue, because a segment written in place is published
        chunk by chunk; its sequence number stays its first chunk's,
        the one recovery classifies it by."""
        self._state[seg] = state
        if self._seq[seg] < 0:
            self._seq[seg] = seq
        self._live[seg] += live_slots
        self._total[seg] += live_slots

    def mark_written(self, seg: int, seq: int, live_slots: int) -> None:
        """The buffer's segment stops growing: on-disk log state.
        ``live_slots`` counts the slots this last write added."""
        self._publish(seg, seq, live_slots, SegmentState.DIRTY)

    def mark_in_place(self, seg: int, seq: int, live_slots: int) -> None:
        """A chunk with ``live_slots`` new slots was written in place;
        the segment stays the buffer's target and keeps filling."""
        self._publish(seg, seq, live_slots, SegmentState.CURRENT)

    def mark_queued(self, seg: int, seq: int, live_slots: int) -> None:
        """Transition a sealed buffer's segment to write-behind state.

        A QUEUED segment's last write exists only in the write-behind
        queue: its liveness is tracked (later writes may supersede
        slots while it waits), but it is invisible to
        :meth:`dirty_segments` — the cleaner, the scrubber and the
        log-copy salvage must never read it from the platter, because
        not everything is there yet.
        """
        self._publish(seg, seq, live_slots, SegmentState.QUEUED)

    def mark_durable(self, seg: int) -> None:
        """A QUEUED segment's image reached the disk: now plain DIRTY."""
        if self._state[seg] is not SegmentState.QUEUED:
            raise ValueError(
                f"segment {seg} is {self._state[seg].value}, not queued"
            )
        self._state[seg] = SegmentState.DIRTY

    def quarantine(self, seg: int) -> None:
        """Retire a failed segment permanently.

        A quarantined segment is never handed out by :meth:`take_free`
        (allocation checks the state), never yielded by
        :meth:`dirty_segments` (so the cleaner ignores it), and
        :meth:`free_segment` refuses it.  Quarantine persists across
        recovery via the checkpoint roster (:data:`QUARANTINE_SEQ`).
        """
        if self._state[seg] is SegmentState.RESERVED:
            raise ValueError(f"segment {seg} is reserved for checkpoints")
        if self._state[seg] is SegmentState.FREE:
            self._free_count -= 1  # its heap entry is now stale
        self._state[seg] = SegmentState.QUARANTINED
        self._live[seg] = 0
        self._total[seg] = 0
        self._seq[seg] = -1
        self._drop_slots(seg)

    def quarantined_segments(self) -> List[int]:
        """Segments retired by media failure, ascending."""
        return [
            seg
            for seg in range(self.num_segments)
            if self._state[seg] is SegmentState.QUARANTINED
        ]

    def free_segment(self, seg: int) -> None:
        """Return a cleaned (or invalid) segment to the free pool."""
        if self._state[seg] is SegmentState.RESERVED:
            raise ValueError(f"segment {seg} is reserved for checkpoints")
        if self._state[seg] is SegmentState.QUARANTINED:
            raise ValueError(f"segment {seg} is quarantined (failed media)")
        if self._state[seg] is not SegmentState.FREE:
            self._free_count += 1
            heapq.heappush(self._free, seg)
        self._state[seg] = SegmentState.FREE
        self._live[seg] = 0
        self._total[seg] = 0
        self._seq[seg] = -1
        self._drop_slots(seg)

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------

    def retire_slot(self, seg: int) -> None:
        """One slot of ``seg`` is no longer live (superseded/deleted)."""
        if self._live[seg] > 0:
            self._live[seg] -= 1

    def live_slots(self, seg: int) -> int:
        """Number of live data slots in ``seg``."""
        return self._live[seg]

    def set_live(self, seg: int, live: int) -> None:
        """Set a segment's live count (recovery rebuild)."""
        self._live[seg] = live

    def total_slots(self, seg: int) -> int:
        """Number of data slots written in ``seg`` (for readahead, and
        what a sound segment's chunk walk must account for)."""
        return self._total[seg]

    def state(self, seg: int) -> SegmentState:
        """Current lifecycle state of ``seg``."""
        return self._state[seg]

    def seq_of(self, seg: int) -> int:
        """Log sequence number of an on-disk segment (-1 if none)."""
        return self._seq[seg]

    def restore(
        self, seg: int, state: SegmentState, seq: int, live: int, total: int = 0
    ) -> None:
        """Install a segment's state wholesale (recovery rebuild); no
        slot table covers it until :meth:`add_slots` fills one."""
        was_free = self._state[seg] is SegmentState.FREE
        self._state[seg] = state
        self._seq[seg] = seq
        self._live[seg] = live
        self._total[seg] = total
        self._drop_slots(seg)
        now_free = state is SegmentState.FREE and seg >= self.reserved_count
        if now_free and not was_free:
            heapq.heappush(self._free, seg)
            self._free_count += 1
        elif was_free and not now_free:
            self._free_count -= 1

    # ------------------------------------------------------------------
    # Slot tables
    # ------------------------------------------------------------------

    def add_slots(self, seg: int, entries: Iterable[Tuple[int, ...]]) -> None:
        """Copy the WRITE entries of a chunk of ``seg`` into its slot
        table, opening one if none covers it.

        ``entries`` are summary entries or their field tuples
        ``(kind, tag, ts, block, slot, CRC)``, in log order, so a
        chunk's new slots come in slot order; an entry naming a slot
        the table holds already (a block rewritten in the buffer before
        its chunk was sealed) carries the same block and CRC."""
        blocks = self._slot_blocks[seg]
        if blocks is None:
            blocks = self._slot_blocks[seg] = array("Q")
            self._slot_crcs[seg] = array("I")
        crcs = self._slot_crcs[seg]
        for fields in entries:
            if fields[0] == KIND_WRITE and fields[4] == len(blocks):
                blocks.append(fields[3])
                crcs.append(fields[5])

    def slot_table(self, seg: int) -> Optional[Tuple[array, array]]:
        """``(block ids, slot CRCs)`` of ``seg``'s slots, indexed by
        slot, or None where no slot table covers ``seg``."""
        blocks = self._slot_blocks[seg]
        return None if blocks is None else (blocks, self._slot_crcs[seg])

    def slot_crc(self, seg: int, slot: int) -> Optional[int]:
        """The CRC-32 ``seg``'s slot table holds for ``slot``, if any."""
        crcs = self._slot_crcs[seg]
        return crcs[slot] if crcs is not None and slot < len(crcs) else None

    def _drop_slots(self, seg: int) -> None:
        self._slot_blocks[seg] = self._slot_crcs[seg] = None

    # ------------------------------------------------------------------
    # Cleaning support
    # ------------------------------------------------------------------

    def dirty_segments(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (segment, live slots, seq) for every on-disk log segment."""
        for seg in range(self.reserved_count, self.num_segments):
            if self._state[seg] is SegmentState.DIRTY:
                yield seg, self._live[seg], self._seq[seg]

    def utilization(self, seg: int, slots_per_segment: int) -> float:
        """Fraction of ``seg``'s data capacity still live."""
        if slots_per_segment <= 0:
            return 0.0
        return self._live[seg] / slots_per_segment

    def snapshot(self) -> Dict[int, Tuple[str, int, int]]:
        """Serializable view: seg -> (seq, live, total) for on-disk log
        segments (used by checkpoints).  Quarantined segments appear
        with the :data:`QUARANTINE_SEQ` sentinel so the retirement
        survives crashes and recoveries."""
        result = {}
        for seg in range(self.reserved_count, self.num_segments):
            if self._state[seg] is SegmentState.DIRTY:
                result[seg] = (self._seq[seg], self._live[seg], self._total[seg])
            elif self._state[seg] is SegmentState.QUARANTINED:
                result[seg] = (QUARANTINE_SEQ, 0, 0)
        return result
