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
from typing import List, Optional

from repro.core.versions import VersionState
from repro.ld.types import ARU_NONE, BlockId
from repro.lld.segment import decode_segment
from repro.lld.summary import KIND_WRITE


@dataclasses.dataclass
class CleanReport:
    """What one cleaner run accomplished."""

    victims: List[int]
    blocks_copied: int
    segments_freed: int
    #: Victims that turned out to be unreadable/corrupt; they were
    #: handed to the scrubber instead of freed.
    damaged: List[int] = dataclasses.field(default_factory=list)
    #: Evacuation passes the run took (one, unless the workspace
    #: budget truncated a pass or a victim was damaged).
    passes: int = 0


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

    def select_victims(self, count: int, exclude: frozenset = frozenset()) -> List[int]:
        """Pick up to ``count`` victim segments by policy score."""
        candidates = []
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
            # A fully live segment frees no space; copying it would
            # just thrash the log.
            if live >= self.lld.geometry.max_data_blocks:
                continue
            candidates.append((self._score(live, seq), live, seg))
        return [seg for _score, _live, seg in heapq.nsmallest(count, candidates)]

    def clean(self, target_free: int) -> CleanReport:
        """Clean until at least ``target_free`` segments are free.

        A pass is sized to finish the run — enough victims that what
        they release, less the segments their copies fill and the
        buffer the closing flush re-opens, covers the shortfall — and
        each pass ends in one checkpoint.  A pass evacuates only as
        much live data as the current free workspace can absorb, so
        on a tight disk (or after a damaged victim) further bounded
        passes run while they keep making progress, each enlarging
        the next one's budget.  Returns an empty report when nothing
        can be cleaned (no victims, an unsafe moment, or a disk
        genuinely full of live data).
        """
        lld = self.lld
        if lld._restore is not None:
            # Live counts are provisional and victim bodies may hold
            # unapplied summaries while an instant restore is pending;
            # finish it before reasoning about free space.
            lld.complete_restore()
        all_victims: list = []
        total_copied = 0
        total_freed = 0
        passes = 0
        damaged_all: set = set()
        slots = lld.geometry.max_data_blocks
        while lld.usage.free_count < target_free:
            # Flushing first lands any pending commit records, which
            # is what makes checkpointing possible again.
            lld.flush()
            if not lld.checkpoint_safe():
                # Mid-commit (or an open sequential ARU): victims
                # could not be freed afterwards anyway, and the
                # evacuation copies would *consume* scarce space.
                break
            needed = target_free - lld.usage.free_count
            # The budget below caps the copies at free_count - 1
            # segments, so needed + 1 + (free_count - 1) = target_free
            # victims always cover the shortfall; no pass wants more.
            candidates = self.select_victims(
                target_free, exclude=frozenset(damaged_all)
            )
            if not candidates:
                break
            # Bound the evacuation volume by the workspace we have:
            # copies consume free segments before the victims are
            # released, so an over-ambitious pass could wedge the
            # disk.
            budget_slots = max(1, (lld.usage.free_count - 1) * slots)
            victims = []
            copy_load = consumed = 0
            for seg in candidates:
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
            # A pass must be net-positive: segments released must
            # exceed segments consumed by the copies, or cleaning
            # would eat the last workspace for nothing.
            if len(victims) - consumed < 1:
                break
            passes += 1
            free_before = lld.usage.free_count
            was_cleaning = lld._cleaning
            lld._cleaning = True
            try:
                # One scatter-gather read fetches every victim body;
                # victims clustered on disk coalesce into sequential
                # runs instead of paying one seek per segment.
                bodies = lld.disk.read_many(
                    [(seg, 0, lld.geometry.segment_size) for seg in victims],
                    errors="none",
                )
                copied = 0
                damaged_now = []
                for seg, raw in zip(victims, bodies):
                    evacuated = (
                        None if raw is None else self._evacuate(seg, raw)
                    )
                    if evacuated is None:
                        # Unreadable or failing its CRC: not ours to
                        # free — the scrubber must salvage what it can
                        # and quarantine the segment.
                        damaged_now.append(seg)
                        continue
                    copied += evacuated
                if damaged_now:
                    damaged_all.update(damaged_now)
                    lld._scrub_pending.update(damaged_now)
                    victims = [s for s in victims if s not in damaged_now]
                    if not victims:
                        # Every victim was damaged; retry with the
                        # damaged set excluded from selection.
                        continue
                # Make the copies durable, then supersede the victims'
                # summary history with a checkpoint; only then is
                # freeing them safe.
                lld.flush()
                if not lld.checkpoint_safe():
                    # An ARU committed mid-pass; keep the victims (the
                    # copies make the next pass free) and stop here.
                    all_victims += victims
                    total_copied += copied
                    break
                for seg in victims:
                    lld.cache.invalidate_segment(seg)
                    lld.usage.free_segment(seg)
                lld._write_checkpoint()
            finally:
                lld._cleaning = was_cleaning
            all_victims += victims
            total_copied += copied
            total_freed += len(victims)
            if lld.usage.free_count <= free_before:
                break  # no net progress: the survivors are too full
        if damaged_all:
            # Salvage and quarantine the damaged victims now, while
            # we still hold whatever free space the pass recovered.
            # On a disk too full even for salvage copies, leave them
            # pending for a later scrub.
            from repro.errors import DiskFullError
            from repro.lld.scrub import Scrubber

            was_cleaning = lld._cleaning
            lld._cleaning = True
            try:
                Scrubber(lld).scrub(sorted(damaged_all))
            except DiskFullError:
                pass
            finally:
                lld._cleaning = was_cleaning
        return CleanReport(
            all_victims, total_copied, total_freed, sorted(damaged_all), passes
        )

    def _evacuate(self, seg: int, raw: Optional[bytes] = None) -> Optional[int]:
        """Copy every live block of ``seg`` into the current buffer.

        ``raw`` is the segment body when the caller already fetched it
        (the batched victim read); otherwise it is read here.  Returns
        the number of blocks copied, or None when the body fails
        validation or its chunk walk stops short of the slots the
        usage table counted — every chunk of a DIRTY segment reached
        the disk through a successful write, so that means failed
        media, and the caller must route the segment to the scrubber
        rather than free it.
        """
        lld = self.lld
        if raw is None:
            raw = lld.disk.read_segment(seg)
        lld.meter.charge("crc_kb_us", lld.geometry.segment_size / 1024.0)
        decoded = decode_segment(raw, lld.geometry, seg)
        if decoded is None or decoded.block_count < lld.usage.total_slots(seg):
            return None
        lld.meter.charge("decode_entry_us", decoded.entry_count)
        copied = 0
        seen = set()
        # Hot loop: raw entry tuples (no SummaryEntry objects) and
        # zero-copy slot views — add_block consumes the view into the
        # new segment image immediately, so the only byte copy per
        # evacuated block is the one into the destination buffer.
        for fields in decoded.entry_tuples:
            if fields[0] != KIND_WRITE:
                continue
            block_id = BlockId(fields[3])
            slot = fields[4]
            if (block_id, slot) in seen:
                continue
            seen.add((block_id, slot))
            root = lld.bmap.root(block_id)
            if root is None or root.persistent is None:
                continue
            persistent = root.persistent
            if persistent.address is None or persistent.address.segment != seg:
                continue
            if persistent.address.slot != slot:
                continue
            # A committed record means a newer copy is already in the
            # stream ahead of us; the flush below makes it durable,
            # so the old slot need not move.
            if root.find(VersionState.COMMITTED, ARU_NONE) is not None:
                continue
            data = decoded.slot_view(slot)
            ts = lld.clock.tick()
            addr = lld._append_block_data(block_id, data, 0, ts)
            persistent.address = addr
            copied += 1
        return copied
