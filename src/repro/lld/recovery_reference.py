"""Reference recovery: the paper's procedure as a minimal
implementation would write it.

:func:`reference_recover` is the differential oracle for
:func:`repro.lld.recovery.recover`.  It peeks and decodes **one
segment at a time** (no batched reads, no decode lanes), replays the
``SummaryEntry`` *objects* of the reference codec onto plain
dict-of-lists state, and installs the result itself.  It shares no
rule code with production — classification, COMMIT/PREPARE/DECIDE
resolution, replay rules, orphan sweep and install are all written
out again here — so a bug in one cannot hide in the other.  The
crash-sweep tests recover one platter with both and compare
everything recovery rebuilds; ``bench_recovery``/``bench_wallclock``
gate production against it.  Rebuilt state is byte-identical;
simulated *time* is not (this scan seeks to every trailer and
decodes serially).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from repro.core.records import BlockVersion, ListVersion
from repro.core.versions import VersionState
from repro.disk.geometry import TRAILER_SIZE
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskFullError, MediaError
from repro.ld.types import SYSTEM_ID_BASE, BlockId, ListId, PhysAddr
from repro.lld.checkpoint import FLAG_HAS_ADDR, CheckpointData
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.recovery import RecoveryReport
from repro.lld.segment import DecodedSegment, decode_segment, parse_trailer
from repro.lld.summary import EntryKind, SummaryEntry
from repro.lld.usage import QUARANTINE_SEQ, SegmentState


class _ReplayState:
    """Mutable table state during replay (plain dicts of lists)."""

    def __init__(self) -> None:
        # block id -> [allocated, addr(seg,slot) | None, successor|0,
        #              list_id|0, timestamp]
        self.blocks: Dict[int, List] = {}
        # list id -> [allocated, first|0, last|0, count, timestamp]
        self.lists: Dict[int, List] = {}
        self.max_block = 0
        self.max_list = 0
        self.max_aru = 0

    def load_checkpoint(self, ckpt: CheckpointData) -> None:
        for block_id, successor, list_id, ts, segment, slot, flags in ckpt.blocks:
            addr = (segment, slot) if flags & FLAG_HAS_ADDR else None
            self.blocks[block_id] = [True, addr, successor, list_id, ts]
        for list_id, first, last, count, ts in ckpt.lists:
            self.lists[list_id] = [True, first, last, count, ts]
        self.max_block = ckpt.next_block_id - 1
        self.max_list = ckpt.next_list_id - 1
        self.max_aru = ckpt.next_aru_id - 1

    def apply(self, entry: SummaryEntry, segment_no: int) -> bool:
        """Apply one summary entry; False on conflict."""
        kind = entry.kind
        if kind is EntryKind.WRITE:
            blk = self.blocks.get(entry.a)
            if blk is None or not blk[0]:
                return False
            blk[1] = (segment_no, entry.b)
            blk[4] = entry.timestamp
            return True
        if kind is EntryKind.ALLOC_BLOCK:
            self.blocks[entry.a] = [True, None, 0, 0, entry.timestamp]
            if entry.a < SYSTEM_ID_BASE:
                self.max_block = max(self.max_block, entry.a)
            return True
        if kind is EntryKind.DELETE_BLOCK:
            return self._apply_delete_block(entry.a)
        if kind is EntryKind.NEW_LIST:
            self.lists[entry.a] = [True, 0, 0, 0, entry.timestamp]
            if entry.a < SYSTEM_ID_BASE:
                self.max_list = max(self.max_list, entry.a)
            return True
        if kind is EntryKind.DELETE_LIST:
            return self._apply_delete_list(entry.a)
        if kind is EntryKind.LINK:
            return self._apply_link(entry.a, entry.b, entry.c, entry.timestamp)
        return True  # COMMIT/PREPARE/DECIDE carry no table state

    def _apply_delete_block(self, block_id: int) -> bool:
        blk = self.blocks.get(block_id)
        if blk is None or not blk[0]:
            return False
        list_id = blk[3]
        if list_id:
            lst = self.lists.get(list_id)
            if lst is not None and lst[0]:
                self._unlink(lst, block_id)
        del self.blocks[block_id]
        return True

    def _apply_delete_list(self, list_id: int) -> bool:
        lst = self.lists.get(list_id)
        if lst is None or not lst[0]:
            return False
        cursor = lst[1]
        while cursor:
            member = self.blocks.get(cursor)
            nxt = member[2] if member else 0
            if member is not None:
                del self.blocks[cursor]
            cursor = nxt
        del self.lists[list_id]
        return True

    def _apply_link(
        self, list_id: int, block_id: int, pred_id: int, timestamp: int
    ) -> bool:
        lst = self.lists.get(list_id)
        blk = self.blocks.get(block_id)
        if lst is None or not lst[0] or blk is None or not blk[0]:
            return False
        if blk[3]:
            return False  # already in a list
        if pred_id == 0:
            blk[2] = lst[1]
            if not lst[1]:
                lst[2] = block_id
            lst[1] = block_id
        else:
            pred = self.blocks.get(pred_id)
            if pred is None or not pred[0] or pred[3] != list_id:
                return False
            blk[2] = pred[2]
            pred[2] = block_id
            if lst[2] == pred_id:
                lst[2] = block_id
        blk[3] = list_id
        lst[3] += 1
        lst[4] = timestamp
        return True

    def _unlink(self, lst: List, block_id: int) -> None:
        """Remove ``block_id`` from list state ``lst`` (best effort)."""
        target = self.blocks.get(block_id)
        successor = target[2] if target else 0
        if lst[1] == block_id:
            lst[1] = successor
            if lst[2] == block_id:
                lst[2] = 0
            lst[3] -= 1
            return
        cursor = lst[1]
        while cursor:
            node = self.blocks.get(cursor)
            if node is None:
                return
            if node[2] == block_id:
                node[2] = successor
                if lst[2] == block_id:
                    lst[2] = cursor
                lst[3] -= 1
                return
            cursor = node[2]

    def sweep_orphans(self) -> List[int]:
        """Free allocated blocks that are members of no list."""
        members: Set[int] = set()
        for lst in self.lists.values():
            cursor = lst[1]
            while cursor and cursor not in members:
                members.add(cursor)
                node = self.blocks.get(cursor)
                cursor = node[2] if node else 0
        orphans = [
            bid
            for bid, blk in self.blocks.items()
            if blk[0] and bid not in members and not blk[3]
        ]
        for bid in orphans:
            del self.blocks[bid]
        return orphans


def reference_recover(
    disk: SimulatedDisk,
    config: Optional[LLDConfig] = None,
    decided_xids: Optional[Set[int]] = None,
) -> Tuple[LLD, RecoveryReport]:
    """Recover an :class:`LLD` from ``disk`` the slow, obvious way.

    Same contract as eager :func:`repro.lld.recovery.recover` (see
    there for ``decided_xids``); recovery writes
    nothing, so the same platter can be recovered by both and the
    results compared.
    """
    wall_start = time.perf_counter()
    geometry = disk.geometry
    clock = disk.clock
    start_us = clock.now_us
    lld = LLD(disk, config=config, _defer_init=True)
    ckpt = lld.checkpoints.load()
    report = RecoveryReport(checkpoint_seq=ckpt.ckpt_seq)
    state = _ReplayState()
    state.load_checkpoint(ckpt)

    # ---- scan: one segment at a time, trailer peek then body decode ---
    raw_kb = geometry.segment_size / 1024.0
    replayable: List[DecodedSegment] = []
    ckpt_segments: Dict[int, Tuple[int, int, int]] = {}
    invalid: List[int] = []
    quarantined: List[int] = []
    decode_us = 0.0
    scan_start = clock.now_us
    for seg in range(lld.checkpoints.reserved_segments, geometry.num_segments):
        report.segments_scanned += 1
        roster = ckpt.segments.get(seg)
        if roster is not None and roster[0] == QUARANTINE_SEQ:
            # An earlier scrub retired this segment; whatever the
            # platter holds now must never be trusted — don't read it.
            quarantined.append(seg)
            continue
        try:
            trailer = parse_trailer(
                disk.read(
                    seg, geometry.segment_size - TRAILER_SIZE, TRAILER_SIZE
                )
            )
        except MediaError:
            # The hardware reports the fault, so the retirement can be
            # made permanent (unlike a failed CRC, which could just be
            # a torn rewrite of a freed segment).
            report.segments_unreadable += 1
            quarantined.append(seg)
            continue
        if trailer is None:
            report.segments_invalid += 1
            invalid.append(seg)
        elif trailer[0] > ckpt.last_log_seq:
            try:
                raw = disk.read_segment(seg)
            except MediaError:
                report.segments_unreadable += 1
                quarantined.append(seg)
                continue
            mark = clock.now_us
            decoded = decode_segment(raw, geometry, seg)
            lld.meter.charge("crc_kb_us", raw_kb)
            if decoded is not None and decoded.entry_count:
                lld.meter.charge("decode_entry_us", decoded.entry_count)
            decode_us += clock.now_us - mark
            if decoded is None:
                # Valid-looking trailer but a torn/corrupt body.
                report.segments_invalid += 1
                invalid.append(seg)
            else:
                replayable.append(decoded)
        elif roster is not None and roster[0] == trailer[0]:
            ckpt_segments[seg] = roster
        else:
            # Valid trailer but freed before the checkpoint: stale.
            invalid.append(seg)
    report.phase_us["scan"] = clock.now_us - scan_start - decode_us
    report.phase_us["decode"] = decode_us
    report.segments_quarantined = len(quarantined)
    replayable.sort(key=lambda d: d.seq)

    # ---- pass 1: committed ARUs and coordinator decisions ----------
    replay_start = clock.now_us
    committed: Set[int] = set()
    prepared: Dict[int, int] = {}
    own_decided: Set[int] = set(ckpt.decided_xids)
    for decoded in replayable:
        for entry in decoded.entries:
            if entry.kind is EntryKind.COMMIT:
                committed.add(entry.aru_tag)
            elif entry.kind is EntryKind.PREPARE:
                prepared[entry.aru_tag] = entry.b
            elif entry.kind is EntryKind.DECIDE:
                own_decided.add(entry.a)
    decided = own_decided | (decided_xids or set())
    rolled_forward: Set[int] = set()
    undecided: Set[int] = set()
    for tag, xid in prepared.items():
        if xid in decided:
            committed.add(tag)
            rolled_forward.add(xid)
        else:
            undecided.add(xid)
    report.arus_prepared = len(prepared)
    report.xids_decided = sorted(own_decided)
    report.xids_rolled_forward = sorted(rolled_forward)
    report.xids_discarded = sorted(undecided)
    report.max_xid = max([0, *prepared.values(), *own_decided])
    report.arus_committed = len(committed)

    # ---- pass 2: replay in log order --------------------------------
    discarded_arus: Set[int] = set()
    for decoded in replayable:
        report.segments_replayed += 1
        for entry in decoded.entries:
            tag = entry.aru_tag
            state.max_aru = max(state.max_aru, tag)
            if (
                tag
                and tag not in committed
                and entry.kind is not EntryKind.COMMIT
            ):
                report.entries_discarded += 1
                discarded_arus.add(tag)
                continue
            if state.apply(entry, decoded.segment_no):
                report.entries_replayed += 1
            else:
                report.replay_conflicts += 1
    report.arus_discarded = len(discarded_arus)
    report.discarded_aru_ids = sorted(discarded_arus)
    report.orphan_blocks_freed = sorted(state.sweep_orphans())
    report.phase_us["replay"] = clock.now_us - replay_start

    # ---- install tables, usage, counters ------------------------------
    install_start = clock.now_us
    live_counts: Dict[int, int] = {}
    for bid, blk in state.blocks.items():
        addr = blk[1]
        if addr is not None:
            live_counts[addr[0]] = live_counts.get(addr[0], 0) + 1
        lld.bmap.install_persistent(
            BlockVersion(
                BlockId(bid),
                VersionState.PERSISTENT,
                allocated=True,
                address=PhysAddr(*addr) if addr is not None else None,
                successor=BlockId(blk[2]) if blk[2] else None,
                list_id=ListId(blk[3]) if blk[3] else None,
                timestamp=blk[4],
            )
        )
    for lid, lst in state.lists.items():
        lld.ltable.install_persistent(
            ListVersion(
                ListId(lid),
                VersionState.PERSISTENT,
                allocated=True,
                first=BlockId(lst[1]) if lst[1] else None,
                last=BlockId(lst[2]) if lst[2] else None,
                count=lst[3],
                timestamp=lst[4],
            )
        )
    max_seq = ckpt.last_log_seq
    for seg in invalid:
        lld.usage.restore(seg, SegmentState.FREE, -1, 0, 0)
    for seg in quarantined:
        lld.usage.restore(seg, SegmentState.QUARANTINED, -1, 0, 0)
    for seg, (seq, _live, total) in ckpt_segments.items():
        lld.usage.restore(
            seg, SegmentState.DIRTY, seq, live_counts.get(seg, 0), total
        )
    for decoded in replayable:
        lld.usage.restore(
            decoded.segment_no,
            SegmentState.DIRTY,
            decoded.seq,
            live_counts.get(decoded.segment_no, 0),
            decoded.block_count,
        )
        lld.usage.add_slots(decoded.segment_no, decoded.entry_tuples)
        max_seq = max(max_seq, decoded.last_seq)
    lld._next_block_id = state.max_block + 1
    lld._next_list_id = state.max_list + 1
    lld.arus.set_next_id(state.max_aru + 1)
    lld._next_seq = max_seq + 1
    lld._last_written_seq = max_seq
    lld._ckpt_seq = ckpt.ckpt_seq
    lld._commit_on_disk = committed
    lld._decided_xids = own_decided
    try:
        lld._open_new_buffer()
    except DiskFullError:
        pass  # a completely full disk recovers with no open buffer
    report.phase_us["install"] = clock.now_us - install_start

    report.recovery_time_us = clock.now_us - start_us
    report.ttfr_us = report.recovery_time_us
    report.wall_seconds = time.perf_counter() - wall_start
    return lld, report
