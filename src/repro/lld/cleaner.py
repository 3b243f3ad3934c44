"""The segment cleaner: reclaiming disk space in the log.

When LLD runs out of free segments it copies the still-live blocks of
lightly-used segments into the current buffer and frees the victims
(Section 2: "If LLD runs out of disk space it uses a segment cleaner
to reclaim unused disk space").  Two victim-selection policies are
provided, following the LFS literature the paper builds on:

* ``greedy`` — always clean the segment with the fewest live blocks;
* ``cost_benefit`` — weigh free-space benefit against copying cost
  and favor older (colder) segments:
  ``(1 - u) * age / (1 + u)`` for utilization ``u``.

Cleaning costs what is live.  A segment the usage table counts no
live slot in has nothing to copy, and the checkpoint a pass ends in
supersedes its summaries like any victim's, so it is freed without
being read — every such segment, by whichever pass runs, since one
checkpoint pays for all of them.  Only when the dead fall short of
the target does the policy pick victims to copy from, and of those
the cleaner reads only what it copies.  Which block each slot of a
victim holds, and with what CRC, it takes from the victim's slot
table (:meth:`~repro.lld.usage.SegmentUsage.slot_table`), the WRITE
entries the volume copied in when it wrote the segment or recovery
when it replayed it; then it reads, in one batch, just the live
slots, each checked against its CRC before it is copied.  Only a
victim no table covers — one the checkpoint attested at recovery —
has its summary stack read first, from a tail window
(:func:`~repro.lld.segment.decode_stacks`, the loop recovery's scan
uses; ``CleanReport.summaries_read``).  A victim that cannot be read,
whose summary fails its CRC or whose chunk walk stops short, or one
of whose copied slots fails its CRC goes to the scrubber instead of
being freed.  A fault under dead data — a dead segment, a dead slot
of a live victim, or the summaries of a victim a table covers — is
the scrubber's to find (docs/SIMULATION.md): the cleaner never reads
it.

Correctness protocol: a block slot is copied only if the persistent
record still points at it *and* no committed record supersedes it (a
newer copy is already in the log stream ahead of us).  Victims are
freed only after (a) the copies have been flushed and (b) a
checkpoint has been written, so the summary history the victims
carried is no longer needed by recovery, and a crash at any point
leaves either the old or the new copy reachable.
"""

from __future__ import annotations

import dataclasses
import heapq
import zlib
from typing import Iterator, List, Set, Tuple

from repro.core.records import find_alt
from repro.core.versions import VersionState
from repro.disk.geometry import TRAILER_SIZE
from repro.errors import DiskFullError
from repro.ld.types import ARU_NONE, BlockId
from repro.lld.scrub import decode_dirty_body, scrub_segments
from repro.lld.segment import decode_stacks
from repro.lld.summary import KIND_WRITE


#: The ``lld.cleaner.*`` counters, in ``stats()["cleaner"]`` order.
CLEANER_COUNTERS = (
    "runs", "passes", "segments_freed", "segments_freed_unread",
    "summaries_read", "blocks_copied", "damaged",
)


@dataclasses.dataclass
class CleanReport:
    """What one cleaner run accomplished."""

    victims: List[int]
    blocks_copied: int
    segments_freed: int
    #: Of ``segments_freed``, the victims that held no live slot and
    #: were freed without being read.
    segments_freed_unread: int = 0
    #: Victims that turned out to be unreadable/corrupt; they were
    #: handed to the scrubber instead of freed.
    damaged: List[int] = dataclasses.field(default_factory=list)
    #: Evacuation passes the run took (one, unless the workspace
    #: budget truncated a pass or a victim was damaged).
    passes: int = 0
    #: Bytes the run's victim reads moved off the disk: summary
    #: stacks, live slots, bodies read whole and any gap the disk
    #: streamed between them.
    bytes_read: int = 0
    #: The victims read whole, their live slots (and tail) dearer.
    read_whole: List[int] = dataclasses.field(default_factory=list)
    #: Victims read by a tail window because no slot table covers
    #: them: the ones a checkpoint attested at recovery.
    summaries_read: int = 0


class SegmentCleaner:
    """Copies live data out of victim segments and frees them."""

    def __init__(self, lld, policy: str = "cost_benefit") -> None:
        if policy not in ("greedy", "cost_benefit"):
            raise ValueError(f"unknown cleaner policy {policy!r}")
        self.lld = lld
        self.policy = policy

    def _score(self, live: int, seq: int) -> float:
        """Lower score = better victim."""
        slots = self.lld.geometry.max_data_blocks
        utilization = live / slots if slots else 1.0
        if self.policy == "greedy":
            return utilization
        # Cost-benefit: maximize (1-u)*age/(1+u); minimize the negation.
        age = max(1, self.lld._next_seq - seq)
        return -((1.0 - utilization) * age / (1.0 + utilization))

    def _eligible(self, exclude: frozenset):
        """Yield (segment, live slots, seq) for every segment a pass
        may take: on disk, not the buffer's, not queued, not excluded."""
        current = self.lld._buffer
        queued = self.lld._writeback.pending_segments()
        for seg, live, seq in self.lld.usage.dirty_segments():
            if current is not None and seg == current.segment_no:
                continue
            # Queued segments are invisible to dirty_segments() via
            # their QUEUED state, but guard anyway: evacuating a
            # not-yet-written segment would read stale platter bytes.
            if seg in queued:
                continue
            if seg in exclude:
                continue
            yield seg, live, seq

    def select_victims(self, count: int, exclude: frozenset = frozenset()) -> List[int]:
        """Pick up to ``count`` victim segments by policy score."""
        # A fully live segment frees no space; copying it would just
        # thrash the log.
        slots = self.lld.geometry.max_data_blocks
        candidates = [
            (self._score(live, seq), live, seg)
            for seg, live, seq in self._eligible(exclude)
            if live < slots
        ]
        return [seg for _score, _live, seg in heapq.nsmallest(count, candidates)]

    def _size_pass(self, needed: int, exclude: frozenset) -> List[int]:
        """The policy's victims for a pass that must gain ``needed``
        segments, or [] when no affordable choice gains any.

        The free workspace bounds what may be copied: copies consume
        free segments before the victims are released, so an
        over-ambitious pass could wedge the disk."""
        lld = self.lld
        slots = lld.geometry.max_data_blocks
        free = lld.usage.free_count
        # The budget caps the copies at free - 1 segments, so
        # needed + 1 + (free - 1) victims always cover the shortfall;
        # no pass wants more.
        budget_slots = max(1, (free - 1) * slots)
        victims: List[int] = []
        copy_load = consumed = 0
        for seg in self.select_victims(needed + free, exclude):
            live = lld.usage.live_slots(seg)
            if victims and copy_load + live > budget_slots:
                break
            victims.append(seg)
            copy_load += live
            consumed = -(-copy_load // slots)  # segments the copies fill
            # Enough once the victims cover the shortfall, their
            # copies and the buffer the closing flush re-opens.
            if len(victims) - consumed - 1 >= needed:
                break
        # Net-positive or nothing: segments released must exceed
        # segments consumed by the copies, or cleaning would eat the
        # last workspace for nothing.
        return victims if len(victims) - consumed >= 1 else []

    def clean(self, target_free: int) -> CleanReport:
        """Clean until at least ``target_free`` segments are free.

        A pass frees every segment that holds no live slot, unread.
        When those alone do not reach the target it also evacuates
        the policy's victims — enough that what they release, less
        the segments their copies fill and the buffer the closing
        flush re-opens, covers the shortfall — and each pass ends in
        one checkpoint.  A pass evacuates only as much live data as
        the current free workspace can absorb, so on a tight disk (or
        after a damaged victim) further bounded passes run while they
        keep making progress, each enlarging the next one's budget.
        Returns an empty report when nothing can be cleaned (no
        victims, a moment no flush can make checkpoint-safe, or a
        disk genuinely full of live data).
        """
        lld = self.lld
        if lld._restore is not None:
            # Live counts are provisional and victim bodies may hold
            # unapplied summaries while an instant restore is pending;
            # finish it before reasoning about free space.
            lld.complete_restore()
        report = CleanReport([], 0, 0)
        if lld._prepared_xids or (not lld.concurrent and lld.arus.active_count):
            # A PREPAREd tag awaiting its DECIDE or an open sequential
            # ARU: no flush makes a checkpoint safe, and flushing
            # would only seal one more partly filled segment.
            return report
        damaged_all: set = set()
        while lld.usage.free_count < target_free:
            # Flushing first lands any pending commit records, which
            # is what makes checkpointing possible again.
            lld.flush()
            if not lld.checkpoint_safe():
                # Mid-commit: victims could not be freed afterwards
                # anyway, and the evacuation copies would *consume*
                # scarce space.
                break
            exclude = frozenset(damaged_all)
            # The usage table already says these have nothing to copy,
            # and the checkpoint below supersedes their summaries.
            dead = [seg for seg, live, _seq in self._eligible(exclude) if not live]
            needed = target_free - lld.usage.free_count
            # Copy only when the dead fall short.  The policy then
            # sizes the pass over every candidate, as it always has;
            # the dead it ranks low ride along at no cost.
            picked = [] if len(dead) >= needed else self._size_pass(needed, exclude)
            live = [seg for seg in picked if lld.usage.live_slots(seg)]
            if not dead and not live:
                break
            report.passes += 1
            free_before = lld.usage.free_count
            was_cleaning = lld._cleaning
            lld._cleaning = True
            try:
                copies, damaged_now = self._read_live(live, report)
                if damaged_now:
                    # Unreadable or failing a CRC: not ours to free —
                    # the scrubber must salvage what it can and
                    # quarantine the segment.
                    damaged_all.update(damaged_now)
                    lld._scrub_pending.update(damaged_now)
                    live = [s for s in live if s not in damaged_now]
                    if not dead and not live:
                        # Every victim was damaged; retry with the
                        # damaged set excluded from selection.
                        continue
                for block_id, persistent, data in copies:
                    ts = lld.clock.tick()
                    persistent.address = lld.log_write(block_id, data, 0, ts)
                    lld.bmap.mark_changed(block_id)
                victims = dead + live
                report.victims += victims
                report.blocks_copied += len(copies)
                # Make the copies durable, then supersede the victims'
                # summary history with a checkpoint; only then is
                # freeing them safe.
                lld.flush()
                if not lld.checkpoint_safe():
                    # An ARU committed mid-pass; keep the victims (the
                    # copies make the next pass free) and stop here.
                    break
                for seg in victims:
                    lld._read_stream.forget(seg)
                    lld.usage.free_segment(seg)
                lld._write_checkpoint()
            finally:
                lld._cleaning = was_cleaning
            report.segments_freed += len(victims)
            report.segments_freed_unread += len(dead)
            if lld.usage.free_count <= free_before:
                break  # no net progress: the survivors are too full
        if damaged_all:
            # Salvage and quarantine the damaged victims now, while
            # we still hold whatever free space the pass recovered.
            # On a disk too full even for salvage copies, leave them
            # pending for a later scrub.
            was_cleaning = lld._cleaning
            lld._cleaning = True
            try:
                scrub_segments(lld, sorted(damaged_all))
            except DiskFullError:
                pass
            finally:
                lld._cleaning = was_cleaning
            report.damaged = sorted(damaged_all)
        return report

    def _read_whole(self, victims: List[int], window: int) -> Set[int]:
        """The victims the disk model reads more cheaply whole than by
        a positioned read per live slot, plus a tail window where no
        slot table covers the victim: on small segments a few live
        slots already cost more positioning than the body."""
        lld = self.lld
        usage = lld.usage
        model = lld.disk.timer.model
        slot_us = model.request_us(lld.geometry.block_size, sequential=False)
        whole_us = model.batch_us([(0, lld.geometry.segment_size)])
        tail_spare_us = whole_us - model.batch_us([(0, window)])
        return {
            seg
            for seg in victims
            if usage.live_slots(seg) * slot_us
            > (whole_us if usage.slot_table(seg) is not None else tail_spare_us)
        }

    def _read_live(
        self, victims: List[int], report: CleanReport
    ) -> Tuple[List[Tuple[BlockId, object, bytes]], List[int]]:
        """Read what a pass copies out of ``victims``.

        A victim's slots — which block each holds, with what CRC — come
        from its slot table (:meth:`~repro.lld.usage.SegmentUsage.slot_table`).
        One batched read first fetches the bodies of the victims the
        disk model prices cheaper read whole (:meth:`_read_whole`) and
        the summary stack of each victim no table covers — one the
        checkpoint attested at recovery — from a tail window; a second
        fetches only the live slots of the victims not read whole, each
        checked against its CRC.  A body read whole has every slot
        checked: against the slot table, or, where none covers it, by
        :func:`~repro.lld.scrub.decode_dirty_body`.  Returns the copies
        as ``(block id, persistent record, data)``, and the damaged
        victims, of which nothing is copied: unreadable, a summary that
        fails its CRC, a chunk walk that stops short of the slots the
        usage table counted — every chunk of a DIRTY segment reached
        the disk through a successful write, so that means failed media
        — or a slot that fails its CRC.
        """
        if not victims:
            return [], []
        lld = self.lld
        disk = lld.disk
        usage = lld.usage
        size = lld.geometry.segment_size
        block_size = lld.geometry.block_size
        read_before = disk.timer.bytes_read
        window = min(size, max(TRAILER_SIZE, block_size))
        whole = self._read_whole(victims, window)
        report.read_whole += sorted(whole)
        tables = {seg: usage.slot_table(seg) for seg in victims}
        first = [seg for seg in victims if seg in whole or tables[seg] is None]
        report.summaries_read += len(first) - len(whole)
        raws = disk.read_many(
            [
                (seg, 0, size) if seg in whole else (seg, size - window, window)
                for seg in first
            ],
            errors="none",
        )
        # The (block id, slot, CRC) triples of each victim whose slots
        # are known and whose body, if read whole, held.
        slots = {
            seg: _table_triples(table)
            for seg, table in tables.items()
            if table is not None and seg not in whole
        }
        bodies, tails = {}, {}
        for seg, raw in zip(first, raws):
            if raw is None:
                continue
            if seg not in whole:
                tails[seg] = raw
                continue
            table = tables[seg]
            if table is None:
                decoded = decode_dirty_body(lld, seg, raw)
                if decoded is not None:
                    slots[seg] = _write_triples(decoded)
                    bodies[seg] = raw
            elif self._body_holds(raw, table[1]):
                slots[seg] = _table_triples(table)
                bodies[seg] = raw
        stacks = [
            decoded
            for decoded in decode_stacks(disk, tails)[0]
            if decoded.block_count >= usage.total_slots(decoded.segment_no)
        ]
        for decoded in stacks:
            slots[decoded.segment_no] = _write_triples(decoded)
        bmap = lld.bmap
        copies = []  # [segment, block id, persistent record, data]
        reads = []  # (copy, slot, CRC) of each slot read apart
        planned = set()
        for seg in sorted(slots, key=usage.seq_of):
            body = bodies.get(seg)
            for block, slot, crc in slots[seg]:
                if block in planned:
                    continue
                block_id = BlockId(block)
                persistent = bmap.persistent.get(block_id)
                # Live: the persistent record points at this slot, and
                # no committed record has a newer copy in the stream
                # ahead of us (the flush that ends the pass makes it
                # durable, so the old slot need not move).
                if (
                    persistent is None
                    or persistent.address != (seg, slot)
                    or find_alt(
                        bmap.alts.get(block_id), VersionState.COMMITTED, ARU_NONE
                    )
                    is not None
                ):
                    continue
                planned.add(block_id)
                copies.append([seg, block_id, persistent, None])
                if body is not None:
                    copies[-1][3] = body[slot * block_size : (slot + 1) * block_size]
                else:
                    reads.append((copies[-1], slot, crc))
        datas = disk.read_many(
            [(copy[0], slot * block_size, block_size) for copy, slot, _crc in reads],
            errors="none",
        )
        report.bytes_read += disk.timer.bytes_read - read_before
        stack_kb = sum(decoded.stack_len for decoded in stacks) / 1024.0
        lld.meter.charge("crc_kb_us", stack_kb + len(reads) * block_size / 1024.0)
        lld.meter.charge(
            "decode_entry_us", sum(decoded.entry_count for decoded in stacks)
        )
        good = set(slots)
        for (copy, _slot, crc), data in zip(reads, datas):
            if data is None or zlib.crc32(data) != crc:
                good.discard(copy[0])
            copy[3] = data
        return (
            [tuple(copy[1:]) for copy in copies if copy[0] in good],
            [seg for seg in victims if seg not in good],
        )

    def _body_holds(self, raw: bytes, crcs) -> bool:
        """True if every slot of the body ``raw`` has the CRC its slot
        table holds; the check is charged."""
        block_size = self.lld.geometry.block_size
        self.lld.meter.charge("crc_kb_us", len(crcs) * block_size / 1024.0)
        return all(
            zlib.crc32(raw[slot * block_size : (slot + 1) * block_size]) == crc
            for slot, crc in enumerate(crcs)
        )


def _table_triples(table) -> Iterator[Tuple[int, int, int]]:
    """(block id, slot, CRC) of each slot of a slot table."""
    blocks, crcs = table
    return zip(blocks, range(len(blocks)), crcs)


def _write_triples(decoded) -> List[Tuple[int, int, int]]:
    """(block id, slot, CRC) of each WRITE entry of ``decoded``."""
    return [
        (fields[3], fields[4], fields[5])
        for fields in decoded.entry_tuples
        if fields[0] == KIND_WRITE
    ]


def run_cleaner(lld) -> None:
    """One cleaner run to ``clean_high_water``, folded into the
    ``lld.cleaner.*`` counters, the ``cleaner.pass`` event and the
    ``lld.cleaner.run_us`` histogram: the volume's cleaning hook
    (``LLD._run_cleaner``)."""
    # The cleaner reasons from live counts and from summaries an
    # instant restore may not have applied yet; both are only final
    # once the restore has drained.
    lld.complete_restore()
    lld._cleaning = True
    pass_start_us = lld.clock.now_us
    try:
        cleaner = SegmentCleaner(lld, policy=lld.config.cleaner_policy)
        report = cleaner.clean(target_free=lld.clean_high_water)
        lld._cleaner_counters["runs"].inc()
        counts = {
            "passes": report.passes,
            "segments_freed": report.segments_freed,
            "blocks_copied": report.blocks_copied,
            "damaged": len(report.damaged),
            "summaries_read": report.summaries_read,
        }
        for name, count in counts.items():
            lld._cleaner_counters[name].add(count)
        unread = report.segments_freed_unread
        lld._cleaner_counters["segments_freed_unread"].add(unread)
        lld.obs.record(
            "cleaner.pass",
            victims=len(report.victims),
            unread=unread,
            bytes_read=report.bytes_read,
            read_whole=len(report.read_whole),
            **counts,
        )
        lld._h_cleaner_us.observe(lld.clock.now_us - pass_start_us)
    finally:
        lld._cleaning = False
