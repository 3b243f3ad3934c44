"""The log writer: the one segment buffer being filled and the way
its contents reach the disk.

:class:`LogWriter` is the log-structured :class:`~repro.core.engine.LogSink`:
it turns the version engine's records into summary entries, places
block data in the current :class:`~repro.lld.segment.SegmentBuffer`,
rolls to the next segment when one is full, decides at a durability
point whether a segment is closed or keeps filling behind a chunk
written in place, flushes under group commit once per group of
commits, and — in :meth:`_write_now`, the only place bytes reach the
platter, always as the new data slots and then their chunk — advances
what is durable, copies the chunk's WRITE entries into the segment's
slot table and has the engine fold it into the persistent tables.
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Set

from repro.errors import DiskCrashedError, SegmentOverflowError
from repro.ld.types import PhysAddr
from repro.lld.segment import SegmentBuffer
from repro.lld.summary import EntryKind, SummaryEntry
from repro.lld.usage import SegmentState
from repro.lld.writeback import WritebackQueue


class LogWriter:
    """Owns ``_buffer``, ``_next_seq``, ``_last_written_seq``,
    ``_commit_on_disk``, ``_pending_commit_arus``, the open commit
    group and the write-behind queue.  :class:`~repro.lld.lld.LLD`
    extends it with the LD interface and supplies what it leaves
    open: ``engine`` (whose ``fold`` runs when a write lands),
    ``_run_cleaner()`` and ``_mark_dead(reason)``.
    """

    def __init__(self, disk, usage, cache, meter, obs, cfg) -> None:
        self.disk = disk
        self.geometry = disk.geometry
        self.usage = usage
        self.cache = cache
        self.meter = meter
        self._charge = meter.charge
        self.clock = meter.clock
        self.obs = obs
        self.config = cfg
        self._buffer: Optional[SegmentBuffer] = None
        self._next_seq = 1
        self._last_written_seq = 0
        self._commit_on_disk: Set[int] = set()
        self._pending_commit_arus: Set[int] = set()
        self._cleaning = False
        self._emergency = False
        #: Segments ordinary allocations may never consume: kept for
        #: the cleaner and for deletions, so a full disk stays
        #: recoverable instead of wedged.
        self.segment_reserve = min(
            2,
            max(0, self.geometry.num_segments - usage.reserved_count - 2),
        )
        # Cleaning must fire while ordinary allocations still have
        # headroom above the reserve, or the disk wedges at the
        # boundary.
        self.clean_low_water = max(cfg.clean_low_water, self.segment_reserve + 1)
        self.clean_high_water = max(
            cfg.clean_high_water, self.clean_low_water + 1
        )
        self._writeback = WritebackQueue(weakref.proxy(self), cfg.writeback_depth)
        #: Commits logged under group commit since the last flush.
        self._group_commits = 0
        #: Simulated deadline by which the open group must be flushed
        #: (None while it is empty).
        self._group_deadline_us: Optional[float] = None

        m = obs.metrics
        self._c_segments_flushed = m.counter("lld.segments.flushed")
        self._c_in_place_writes = m.counter("lld.segments.in_place_writes")
        self._c_commit_groups_flushed = m.counter(
            "lld.group_commit.groups_flushed"
        )
        self._c_commits_grouped = m.counter("lld.group_commit.commits_grouped")
        #: Fill accounting over every segment that stopped growing:
        #: data and summary bytes actually used, and the min/total
        #: fill ratio, so partial-segment waste from eager flushes is
        #: visible.
        self._c_fill_sealed = m.counter("lld.segments.sealed")
        self._c_fill_data_bytes = m.counter("lld.segments.data_bytes")
        self._c_fill_summary_bytes = m.counter("lld.segments.summary_bytes")
        self._c_fill_ratio_total = m.counter("lld.segments.fill_ratio_total")
        self._g_fill_min = m.gauge("lld.segments.min_fill", initial=None)

    # ==================================================================
    # The engine's sink
    # ==================================================================

    @property
    def log_seq(self) -> int:
        return self._buffer.seq

    def log_write(self, block_id, data, aru_tag, ts) -> PhysAddr:
        """Place data and its WRITE summary entry in the current
        segment buffer, rolling it if they do not fit."""
        if self._buffer is None:
            self._ensure_buffer()
        addr = self._buffer.append_write(block_id, data, aru_tag, ts)
        while addr is None:
            self._roll_buffer()
            addr = self._buffer.append_write(block_id, data, aru_tag, ts)
        charge = self._charge
        charge("block_copy_us")
        charge("summary_entry_us")
        return addr

    def log_link(self, aru_tag, ts, list_id, block_id, predecessor) -> None:
        self._emit_entry(
            SummaryEntry(
                EntryKind.LINK, aru_tag, ts, list_id, block_id, predecessor
            )
        )

    def log_delete_block(self, aru_tag, ts, block_id, list_id) -> None:
        self._emit_entry(
            SummaryEntry(EntryKind.DELETE_BLOCK, aru_tag, ts, block_id, list_id)
        )

    def log_delete_list(self, aru_tag, ts, list_id) -> None:
        self._emit_entry(
            SummaryEntry(EntryKind.DELETE_LIST, aru_tag, ts, list_id)
        )

    def retire_address(
        self, addr: PhysAddr, successor: Optional[PhysAddr] = None
    ) -> None:
        """One physical slot is no longer referenced by any version.

        Its cache entry goes, handing its standing to ``successor``
        (the block's new address, when a rewrite superseded it).  Only
        slots the usage table has counted are uncounted: all of an
        on-disk or queued segment's, and of the segment still being
        filled those a chunk written in place already published."""
        self.cache.invalidate(addr, successor)
        state = self.usage.state(addr.segment)
        if state in (SegmentState.DIRTY, SegmentState.QUEUED) or (
            state is SegmentState.CURRENT
            and addr.slot < self.usage.total_slots(addr.segment)
        ):
            self.usage.retire_slot(addr.segment)

    # ==================================================================
    # The segment buffer
    # ==================================================================

    def _emit_entry(self, entry: SummaryEntry) -> None:
        """Append a summary entry, rolling the buffer when full.

        Raises:
            SegmentOverflowError: If the entry could not fit even an
                *empty* segment's summary region — rolling the buffer
                can never help, so the record is rejected up front
                instead of consuming segments forever.
        """
        self._ensure_buffer()
        size = entry.encoded_size()
        if not self._buffer.has_room(0, size):
            if size > self.geometry.usable_size:
                raise SegmentOverflowError(
                    size,
                    self.geometry.usable_size,
                    f"summary entry {entry.kind.name}",
                )
            self._roll_buffer()
        self._buffer.add_entry(entry)

    def _clean_if_low(self) -> None:
        """Run the cleaner when free segments are at the low water
        mark (and it is not what is running)."""
        if not self._cleaning and self.usage.free_count <= self.clean_low_water:
            self._run_cleaner()

    def _ensure_buffer(self) -> None:
        """(Re)open the current buffer, cleaning first if space is low.

        May raise :class:`DiskFullError`, in which case no buffer is
        open and the interrupted operation has had no effect on the
        log — the instance stays usable, and deletions can free
        space.
        """
        if self._buffer is not None:
            return
        self._clean_if_low()
        # (The cleaner's own evacuation may already have opened one.)
        if self._buffer is None:
            self._open_new_buffer()

    def _open_new_buffer(self) -> None:
        """Start filling a fresh segment.

        Ordinary allocations honor the segment reserve; the cleaner
        and deletion paths may dip into it (they are the operations
        that get a full disk *out* of that state)."""
        reserve = (
            0 if (self._cleaning or self._emergency) else self.segment_reserve
        )
        segment_no = self.usage.take_free(reserve=reserve)
        self._buffer = SegmentBuffer(self.geometry, self._next_seq, segment_no)
        self._next_seq += 1

    def _roll_buffer(self) -> None:
        """Close the current segment and open the next, so the caller
        can keep appending."""
        self._close_buffer()
        self._ensure_buffer()

    def _write_buffer(self) -> None:
        """Durability point: send what the buffer holds and the disk
        does not on its way.

        A segment no chunk of which is on disk yet is closed iff its
        free space would take no longer to stream than the two
        positionings that coming back to it will cost (one for the next
        data slots, one for the chunk describing them) — asked of the
        disk model, once per segment.  Closing does not stream that
        space out (the disk gets the data slots and the chunk, never
        the gap), so the rule trades the space a closed segment gives
        up against two positionings later.  Otherwise the flush writes
        in place, the same two ranges, and the buffer keeps filling
        behind its chunk; every later flush of that segment is then in
        place by necessity.
        """
        buffer = self._buffer
        if buffer is None or not buffer.has_unwritten:
            return
        if not buffer.in_place:
            model = self.disk.timer.model
            positioning_us = model.request_us(0, sequential=False)
            if model.transfer_us(buffer.bytes_free()) <= 2 * positioning_us:
                self._roll_buffer()
                return
        # Log order: whatever is queued goes out ahead of this chunk,
        # in the same batch.
        with self.disk.batch():
            self._writeback.drain()
            buffer.seal(last=False)
            self._write_now([buffer])

    def _close_buffer(self) -> None:
        """The current segment stops growing.

        What it holds and the disk does not is sealed and handed to
        the write path: with write-behind disabled it is written
        synchronously (the serial path); otherwise it parks in the
        queue and reaches the disk at the next drain — either
        automatic (queue depth) or forced by a barrier.  No buffer is
        open afterwards; an empty one is left as it is.
        """
        buffer = self._buffer
        if buffer is None or buffer.is_empty:
            return
        self._buffer = None
        self._account_fill(buffer)
        if buffer.has_unwritten:
            buffer.seal()
            self._writeback.submit(buffer)
        else:
            # Every chunk is on disk already; nothing more to write.
            self.usage.mark_written(buffer.segment_no, buffer.seq, 0)

    def _account_fill(self, buffer: SegmentBuffer) -> None:
        """Record the fill of a segment that stops growing for
        ``stats()["segments"]``."""
        self._c_fill_sealed.inc()
        self._c_fill_data_bytes.add(
            buffer.block_count * self.geometry.block_size
        )
        self._c_fill_summary_bytes.add(buffer.summary_bytes)
        ratio = buffer.fill_ratio
        self._c_fill_ratio_total.add(ratio)
        self._g_fill_min.update_min(ratio)
        self.obs.record(
            "segment.seal",
            segment=buffer.segment_no,
            log_seq=buffer.seq,
            blocks=buffer.block_count,
            fill=round(ratio, 4),
        )

    def _segment_fill_stats(self) -> dict:
        """Fill-ratio accounting over every segment that stopped
        growing so far, and the log writes that reached the disk."""
        sealed = self._c_fill_sealed.value
        return {
            "sealed": sealed,
            "flushed": self._c_segments_flushed.value,
            "in_place_writes": self._c_in_place_writes.value,
            "data_bytes": self._c_fill_data_bytes.value,
            "summary_bytes": self._c_fill_summary_bytes.value,
            "avg_fill": (
                (self._c_fill_ratio_total.value / sealed) if sealed else 0.0
            ),
            "min_fill": self._g_fill_min.value,
        }

    # ==================================================================
    # Reaching the disk
    # ==================================================================

    def _write_now(self, batch: List[SegmentBuffer]) -> None:
        """Write sealed chunks to the disk — the only durability
        point of the write path.

        ``batch`` is in log-sequence order (enforced by construction:
        buffers are sealed in order and the queue is FIFO).  Every
        buffer goes out by one rule, closed or not: its
        :meth:`~repro.lld.segment.SegmentBuffer.unwritten_ranges`, the
        new data slots and then the chunk describing them, never the
        free gap between.  All of them go to the disk as one
        scatter-gather batch, submitted in that order, so an ARU's data
        always reaches the platter before the chunk carrying its commit
        record.  Only here do ``_last_written_seq``,
        ``_commit_on_disk`` and the committed→persistent fold advance;
        nothing queued is ever treated as durable.
        """
        if not batch:
            return
        queued = len(batch) > 1 or (
            self.usage.state(batch[0].segment_no) is SegmentState.QUEUED
        )
        disk = self.disk
        try:
            with disk.batch():
                for buffer in batch:
                    buffer.write_unwritten(disk)
        except DiskCrashedError:
            self._mark_dead("disk_crashed_mid_write")
            raise
        for buffer in batch:
            segment_no = buffer.segment_no
            self._c_segments_flushed.inc()
            self._last_written_seq = max(self._last_written_seq, buffer.seq)
            if self.usage.state(segment_no) is SegmentState.QUEUED:
                # Liveness was tracked while parked (later writes may
                # have superseded slots); keep it, just flip durable.
                self.usage.mark_durable(segment_no)
            elif buffer.is_sealed:
                self.usage.mark_written(
                    segment_no, buffer.seq, buffer.unwritten_block_count
                )
            else:
                self.usage.mark_in_place(
                    segment_no, buffer.seq, buffer.unwritten_block_count
                )
            # Write-behind caching: blocks that just left the buffer
            # stay readable without a disk access (they were readable
            # for free while in memory; dropping them at the write
            # boundary would charge phantom re-reads for hot
            # meta-data).
            for slot, data in buffer.unwritten_slots():
                self.cache.put(PhysAddr(segment_no, slot), data)
            # The slot table the cleaner copies by: its one feed.
            entries = buffer.unwritten_entries()
            self.usage.add_slots(segment_no, entries)
            for entry in entries:
                if entry.kind is EntryKind.COMMIT:
                    self._commit_on_disk.add(entry.aru_tag)
                    self._pending_commit_arus.discard(entry.aru_tag)
            if not buffer.is_sealed:
                self._c_in_place_writes.inc()
                self.obs.record(
                    "segment.write_in_place",
                    segment=segment_no,
                    log_seq=buffer.seq,
                    blocks=buffer.unwritten_block_count,
                    bytes=sum(e - s for s, e in buffer.unwritten_ranges()),
                )
                buffer.publish()
                self._next_seq = buffer.seq + 1
        if queued:
            # Completion bookkeeping overlaps the streamed transfer of
            # the rest of the batch: charge the critical-path share.
            self._charge("writeback_us", count=len(batch), lanes=len(batch))
        self.engine.fold(self._last_written_seq, self._commit_on_disk)

    # ==================================================================
    # Group commit: when a flush happens
    # ==================================================================

    def _join_group(self) -> None:
        """Count a commit, already logged, into the open group."""
        if not self._group_commits:
            self._group_deadline_us = (
                self.clock.now_us + self.config.group_commit_timeout_us
            )
        self._group_commits += 1

    def _maybe_release_group(self) -> None:
        """Flush the open group if its timer budget expired."""
        if (
            self._group_deadline_us is not None
            and self.clock.now_us >= self._group_deadline_us
        ):
            self._release_group()

    def _release_group(self) -> None:
        """Close the open commit group and make it durable — which is
        all a ``flush`` is.

        The group's commit records are in the log already, each after
        its ARU's entries; one segment write (plus a queue drain) now
        makes every one of them durable — the N-commits-one-write
        payoff.
        """
        if self._group_commits:
            self._c_commit_groups_flushed.inc()
            self._c_commits_grouped.add(self._group_commits)
            self.obs.record("group_commit.release", commits=self._group_commits)
            self._group_commits = 0
            self._group_deadline_us = None
        self._write_buffer()
        self._writeback.drain()
