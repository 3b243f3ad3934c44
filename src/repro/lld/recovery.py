"""Crash recovery: rebuilding LLD's state from the disk.

Recovery is always to the most recent *persistent* version
(Section 3.1).  The procedure:

1. Load the newest valid checkpoint (or start from the empty state).
2. Roll forward from it: read the segments its roster does not list,
   lowest first, until none is newer than the checkpoint; keep those
   whose trailer and CRC validate, the rest is free space.  Damage a
   power cut alone cannot cause makes the scan read every segment.
3. First pass over the surviving summaries: collect the set of ARU
   identifiers with a flushed COMMIT record.
4. Second pass, in log order: replay entries.  Simple entries
   (tag 0) and block/list *allocations* always apply; entries tagged
   with an ARU apply only if that ARU's commit record was found —
   this is the undo of uncommitted ARUs, by never redoing them.
5. Rebuild the segment-usage table and free anything invalid.
6. Consistency sweep: blocks that remain allocated but belong to no
   list were allocated by ARUs that never committed; free them
   ("A disk consistency check during recovery should free such
   blocks").

The result is a fully operational :class:`~repro.lld.lld.LLD` plus a
:class:`RecoveryReport` describing what was found.

:func:`recover` runs that procedure as **one pipeline**, each rule
written once: :func:`_scan` (steps 1–2) → :func:`_resolve_outcomes`
(step 3) → :class:`ReplayRules` (steps 4 and 6) → :func:`_install`
(step 5).  ``mode`` changes two things and nothing else: *what the
scan reads of a segment and how it decodes* (eager: the whole body,
whole-segment CRC, decoded on the calling thread and charged at the
critical-path share of ``workers`` simulated lanes; instant: one tail
window, summary CRC), and *where the records live and when replay
runs* (eager: plain dicts, replayed before the volume opens, then
bulk-installed; instant: the checkpoint bulk-installed, then the live
tables, replayed on demand by a :class:`RestoreController` behind a
log-order watermark).
docs/RECOVERY.md tells the whole story;
:func:`repro.lld.recovery_reference.reference_recover` is the
differential oracle and shares none of this module's rule code.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import threading
import time
import weakref
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.records import BlockVersion, ListVersion
from repro.core.versions import VersionState
from repro.disk.clock import CostModel
from repro.disk.geometry import TRAILER_SIZE
from repro.disk.simdisk import SimulatedDisk
from repro.errors import DiskFullError
from repro.ld.types import ARU_NONE, SYSTEM_ID_BASE, PhysAddr
from repro.lld.checkpoint import FLAG_HAS_ADDR, CheckpointData
from repro.lld.config import LLDConfig
from repro.lld.lld import LLD
from repro.lld.segment import (
    DecodedSegment,
    decode_segment,
    decode_segment_tail,
    parse_trailer,
)
from repro.lld.summary import (
    KIND_ALLOC_BLOCK,
    KIND_COMMIT,
    KIND_DECIDE,
    KIND_DELETE_BLOCK,
    KIND_DELETE_LIST,
    KIND_LINK,
    KIND_NEW_LIST,
    KIND_PREPARE,
    KIND_WRITE,
)
from repro.lld.usage import QUARANTINE_SEQ, WALK_BATCH, SegmentState


#: Simulated decode lanes of the recovery scan unless
#: ``recover(workers=)`` says otherwise: the cost model charges the
#: CRC + summary decode at ``1 / lanes``.  The decode itself runs on
#: the calling thread.
DEFAULT_WORKERS = 4


class _CollectorPause(contextlib.ContextDecorator):
    """Keep the cyclic garbage collector off while recovery builds its
    tables.

    Everything recovery allocates — a ``BlockVersion``, a ``PhysAddr``
    and a table root per block — is the state it returns, so a
    collector pass during the build frees nothing and only walks the
    growing tables.  Reentrant and thread-safe (callers may recover
    volumes on threads of their own): the first caller in pauses the collector,
    the last one out puts back the state the first one found, on every
    exit path.  A caller that had the collector off keeps it off.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> "_CollectorPause":
        with self._lock:
            if not self._depth:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1
        return self

    def __exit__(self, *exc) -> bool:
        with self._lock:
            self._depth -= 1
            if not self._depth and self._was_enabled:
                gc.enable()
        return False


_collector_paused = _CollectorPause()


@dataclasses.dataclass
class RecoveryReport:
    """What recovery found and did."""

    checkpoint_seq: int
    #: The scan's read plan — ``"walk"``: roll forward from the
    #: checkpoint through the segments its roster does not list,
    #: lowest first, until a batch holds nothing newer; ``"full"``:
    #: every segment read — and, for ``"full"``, what made the walk
    #: give way to it (``""`` after a walk).
    scan_plan: str = ""
    scan_fallback: str = ""
    #: How the scan accounts for the partition: ``segments_scanned``
    #: tails were read, ``segments_attested`` segments were taken from
    #: the checkpoint roster unread, the roster's quarantined segments
    #: (``segments_quarantined - segments_unreadable``) are never
    #: read, and the rest — all above ``scan_last_segment``, the
    #: highest segment read — were left unread as free space.  Of
    #: those read, ``segments_invalid`` were unusable (never written,
    #: stale, torn or corrupt) and ``segments_unreadable`` failed with
    #: an I/O error; the others are newer than the checkpoint and
    #: sound, or (full plan only) match the roster.
    segments_scanned: int = 0
    segments_attested: int = 0
    scan_last_segment: int = -1
    segments_replayed: int = 0
    segments_invalid: int = 0
    segments_unreadable: int = 0
    #: Segments retired from use: unreadable media found during this
    #: scan, plus segments the checkpoint roster records as
    #: quarantined by an earlier scrub (the QUARANTINE_SEQ sentinel).
    segments_quarantined: int = 0
    entries_replayed: int = 0
    entries_discarded: int = 0
    replay_conflicts: int = 0
    arus_committed: int = 0
    arus_discarded: int = 0
    discarded_aru_ids: List[int] = dataclasses.field(default_factory=list)
    #: Cross-volume (sharded) commit accounting: ARUs found prepared,
    #: the coordinator transaction ids known decided, and how each
    #: prepared ARU was resolved (rolled forward vs discarded).
    arus_prepared: int = 0
    xids_decided: List[int] = dataclasses.field(default_factory=list)
    xids_rolled_forward: List[int] = dataclasses.field(default_factory=list)
    xids_discarded: List[int] = dataclasses.field(default_factory=list)
    #: Highest coordinator transaction id seen in any PREPARE/DECIDE
    #: record or checkpoint (for rebuilding the coordinator counter).
    max_xid: int = 0
    orphan_blocks_freed: List[int] = dataclasses.field(default_factory=list)
    recovery_time_us: float = 0.0
    #: Simulated decode lanes the scan was charged for (the decode
    #: runs on the calling thread whatever the value).
    workers: int = 1
    #: Simulated microseconds per phase: ``scan`` (classification
    #: reads), ``decode`` (CRC + summary decode), ``replay`` (the two
    #: passes and the orphan sweep), ``install`` (tables, usage,
    #: fresh buffer).
    phase_us: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: Host wall-clock seconds for the whole recovery.
    wall_seconds: float = 0.0
    #: Batched-read statistics (deltas over this recovery).
    read_batches: int = 0
    batched_runs: int = 0
    #: Recovery mode: ``"eager"`` (full scan before the volume opens)
    #: or ``"instant"`` (open immediately, redo-on-demand).
    mode: str = "eager"
    #: Instant restore: requests that had to synchronously replay a
    #: log suffix before they could be served.
    on_demand_replays: int = 0
    #: Instant restore: simulated µs spent applying pending segments
    #: after the volume opened (on-demand + background sweep).
    background_sweep_us: float = 0.0
    #: Simulated µs until the volume could serve its first request:
    #: equals ``recovery_time_us`` for eager mode, the phase-A setup
    #: time for instant mode.
    ttfr_us: float = 0.0

    # -- unified-report surface (shared with ShardRecoveryReport, so
    # callers of repro.recovery.recover can read one shape) --

    @property
    def shards(self) -> int:
        """Member count of the recovered volume: always 1 here."""
        return 1

    @property
    def dead_shards(self) -> List[int]:
        """Lost members: a single volume either recovers or raises."""
        return []

    @property
    def parallel_us(self) -> float:
        """Critical-path simulated time (= total for one volume)."""
        return self.recovery_time_us

    @property
    def serial_us(self) -> float:
        return self.recovery_time_us


# ======================================================================
# Replay: the per-entry rules
# ======================================================================


class ReplayRules:
    """The log replay rules, written once.

    ``blocks`` and ``lists`` are dicts mapping ids to persistent
    :class:`BlockVersion` / :class:`ListVersion` records.  Recovery
    hands them over as the volume's tables
    (:meth:`~repro.core.tables._RootTable.adopt`), so an instant
    restore's on-demand replay keeps applying entries to the very
    dicts the volume serves from.  A persistent record is
    always allocated — deallocation removes it — so presence is the
    allocation test.  Entries arrive as the raw field tuples of
    :func:`~repro.lld.summary.decode_entry_tuples`:
    ``(kind, aru_tag, timestamp, a[, b[, c]])``.

    ``committed`` is the set of ARU tags whose entries replay;
    ``report`` is where replayed/discarded work is counted.
    """

    def __init__(
        self, blocks, lists, committed: Set[int], report: RecoveryReport
    ) -> None:
        self.blocks = blocks
        self.lists = lists
        self.committed = committed
        self.report = report
        self.discarded_arus: Set[int] = set()
        self.orphans_freed: Set[int] = set()

    def load_checkpoint(self, ckpt: CheckpointData) -> None:
        """Seed the records with the checkpoint's persistent state."""
        blocks = self.blocks
        lists = self.lists
        persistent = VersionState.PERSISTENT
        for block_id, successor, list_id, ts, segment, slot, flags in ckpt.blocks:
            blocks[block_id] = BlockVersion(
                block_id,
                persistent,
                ARU_NONE,
                True,
                PhysAddr(segment, slot) if flags & FLAG_HAS_ADDR else None,
                successor or None,
                list_id or None,
                ts,
            )
        for list_id, first, last, count, ts in ckpt.lists:
            lists[list_id] = ListVersion(
                list_id,
                persistent,
                ARU_NONE,
                True,
                first or None,
                last or None,
                count,
                ts,
            )

    def replay_segment(self, decoded: DecodedSegment) -> None:
        """Redo one segment's entries in log order.

        Simple entries (tag 0) always apply; an entry tagged with an
        ARU applies only if that ARU committed — the undo of
        uncommitted ARUs, by never redoing them.
        """
        report = self.report
        report.segments_replayed += 1
        segment_no = decoded.segment_no
        committed = self.committed
        discarded_arus = self.discarded_arus
        apply = self.apply
        get_block = self.blocks.get
        replayed = discarded = conflicts = 0
        for fields in decoded.entry_tuples:
            kind = fields[0]
            tag = fields[1]
            if tag and tag not in committed and kind != KIND_COMMIT:
                discarded += 1
                discarded_arus.add(tag)
            elif kind == KIND_WRITE:
                # apply()'s WRITE rule, inline: the most common kind.
                rec = get_block(fields[3])
                if rec is None:
                    conflicts += 1
                else:
                    rec.address = PhysAddr(segment_no, fields[4])
                    rec.timestamp = fields[2]
                    replayed += 1
            elif apply(fields, segment_no):
                replayed += 1
            else:
                conflicts += 1
        report.entries_replayed += replayed
        report.entries_discarded += discarded
        report.replay_conflicts += conflicts

    def apply(self, fields: Tuple[int, ...], segment_no: int) -> bool:
        """Apply one summary entry; False on conflict."""
        kind = fields[0]
        if kind == KIND_WRITE:
            rec = self.blocks.get(fields[3])
            if rec is None:
                return False
            rec.address = PhysAddr(segment_no, fields[4])
            rec.timestamp = fields[2]
            return True
        if kind == KIND_ALLOC_BLOCK:
            self.blocks[fields[3]] = BlockVersion(
                fields[3], VersionState.PERSISTENT, timestamp=fields[2]
            )
            return True
        if kind == KIND_DELETE_BLOCK:
            return self._delete_block(fields[3])
        if kind == KIND_NEW_LIST:
            self.lists[fields[3]] = ListVersion(
                fields[3], VersionState.PERSISTENT, timestamp=fields[2]
            )
            return True
        if kind == KIND_DELETE_LIST:
            return self._delete_list(fields[3])
        if kind == KIND_LINK:
            return self._link(fields[3], fields[4], fields[5], fields[2])
        return True  # COMMIT/PREPARE/DECIDE carry no table state

    def _delete_block(self, block_id: int) -> bool:
        rec = self.blocks.get(block_id)
        if rec is None:
            return False
        if rec.list_id is not None:
            lst = self.lists.get(rec.list_id)
            if lst is not None:
                self._unlink(lst, block_id, rec.successor)
        del self.blocks[block_id]
        return True

    def _delete_list(self, list_id: int) -> bool:
        lst = self.lists.get(list_id)
        if lst is None:
            return False
        cursor = lst.first
        while cursor is not None:
            member = self.blocks.get(cursor)
            if member is None:
                break
            del self.blocks[cursor]
            cursor = member.successor
        del self.lists[list_id]
        return True

    def _link(
        self, list_id: int, block_id: int, pred_id: int, timestamp: int
    ) -> bool:
        lst = self.lists.get(list_id)
        blk = self.blocks.get(block_id)
        if lst is None or blk is None:
            return False
        if blk.list_id is not None:
            return False  # already in a list
        if pred_id == 0:
            blk.successor = lst.first
            if lst.first is None:
                lst.last = block_id
            lst.first = block_id
        else:
            pred = self.blocks.get(pred_id)
            if pred is None or pred.list_id != list_id:
                return False
            blk.successor = pred.successor
            pred.successor = block_id
            if lst.last == pred_id:
                lst.last = block_id
        blk.list_id = list_id
        lst.count += 1
        lst.timestamp = timestamp
        return True

    def _unlink(self, lst: ListVersion, block_id: int, successor) -> None:
        """Remove ``block_id`` from list record ``lst`` (best effort)."""
        if lst.first == block_id:
            lst.first = successor
            if lst.last == block_id:
                lst.last = None
            lst.count -= 1
            return
        cursor = lst.first
        while cursor is not None:
            node = self.blocks.get(cursor)
            if node is None:
                return
            if node.successor == block_id:
                node.successor = successor
                if lst.last == block_id:
                    lst.last = cursor
                lst.count -= 1
                return
            cursor = node.successor

    def sweep_orphans(self, below: Optional[int] = None) -> List[int]:
        """Free allocated blocks that are members of no list.

        Such blocks were allocated by ARUs that never committed.
        ``below`` restricts the sweep to ids under it: an instant
        restore passes the block counter at open, because ids handed
        out by live traffic since then may legitimately sit in
        unfolded committed versions the persistent walk cannot see.
        (Traffic can never link an older block into a list — blocks
        are only ever inserted at allocation — so membership computed
        from the persistent chains is exact for the ids considered.)
        """
        members: Set[int] = set()
        for _lid, lst in self.lists.items():
            cursor = lst.first
            while cursor is not None and cursor not in members:
                members.add(cursor)
                node = self.blocks.get(cursor)
                cursor = node.successor if node is not None else None
        orphans = [
            bid
            for bid, rec in self.blocks.items()
            if (below is None or bid < below)
            and bid not in members
            and rec.list_id is None
        ]
        for bid in orphans:
            del self.blocks[bid]
        return orphans

    def finish(self, sweep_orphans: bool, below: Optional[int] = None) -> None:
        """Close the books once the last segment is replayed: run the
        consistency sweep and report what was undone and freed."""
        if sweep_orphans:
            self.orphans_freed.update(self.sweep_orphans(below))
        self.report.arus_discarded = len(self.discarded_arus)
        self.report.discarded_aru_ids = sorted(self.discarded_arus)
        self.report.orphan_blocks_freed = sorted(self.orphans_freed)

    def live_counts(self) -> Dict[int, int]:
        """Live data slots per segment, from the records' addresses."""
        counts: Dict[int, int] = {}
        for _bid, rec in self.blocks.items():
            if rec.address is not None:
                seg = rec.address.segment
                counts[seg] = counts.get(seg, 0) + 1
        return counts


# ======================================================================
# The pipeline stages: scan, resolve outcomes, install
# ======================================================================


@dataclasses.dataclass
class _Scan:
    """What the scan found.  A log segment in none of these is free
    space: never written, torn, corrupt or stale, or beyond the end of
    the walk and not read."""

    #: Decoded segments newer than the checkpoint, in log (seq) order.
    replayable: List[DecodedSegment]
    #: Segments the checkpoint roster attests: seg -> (seq, live,
    #: total).
    ckpt_segments: Dict[int, Tuple[int, int, int]]
    #: Retired media (roster sentinel or I/O error now).
    quarantined: List[int]


def _scan(
    lld: LLD,
    ckpt: CheckpointData,
    report: RecoveryReport,
    instant: bool,
    workers: int,
) -> _Scan:
    """Find and decode the segments written since the checkpoint.

    One classification rule, two read plans.  The **walk** rolls
    forward from the checkpoint: segments its roster attests are taken
    on its word, unread; the others are read lowest first — the order
    the allocator hands them out — a batch of tails at a time, until a
    batch holds nothing newer than the checkpoint; the rest is free
    space, unread.  Anything a crash could not have left falls back to
    the **full** plan, which classifies every segment not yet read,
    attested ones included (docs/RECOVERY.md, "The roll-forward walk").

    ``instant`` picks the window and the decoder, never the plan or
    the classification: eager must end up holding whole bodies
    (checked by the whole-segment CRC), instant reads one tail window
    per segment (checked by the summary CRC).
    """
    disk = lld.disk
    clock = disk.clock
    size = disk.geometry.segment_size
    scan_start = clock.now_us
    decode_us = 0.0
    scan = _Scan([], {}, [])

    # The roster settles some segments without a read: the ones it
    # records as quarantined (whatever the platter holds must not be
    # trusted), and on the walk the ones it attests.
    attested: List[int] = []
    unattested: List[int] = []
    log_start = lld.checkpoints.reserved_segments
    for seg in range(log_start, disk.geometry.num_segments):
        roster = ckpt.segments.get(seg)
        if roster is None:
            unattested.append(seg)
        elif roster[0] == QUARANTINE_SEQ:
            scan.quarantined.append(seg)
        else:
            attested.append(seg)

    if instant:
        window = min(size, max(TRAILER_SIZE, lld.config.restore_tail_window))
    else:
        # Streaming a segment costs its transfer time; skipping to the
        # next trailer costs a seek.  When the transfer is cheaper, the
        # fastest scan reads *everything* in one sequential sweep (and
        # the replay candidates then need no second read at all).
        model = disk.timer.model
        random_cost = (
            model.avg_seek_us
            + model.avg_rotational_us
            + model.controller_overhead_us
        )
        window = size if model.transfer_us(size) <= random_cost else TRAILER_SIZE

    def classify(segs: List[int]) -> Tuple[Dict[int, bytes], str]:
        """Read the tails of ``segs`` as one batch and sort them into
        ``scan``; returns the replay candidates and the first anomaly."""
        windows = disk.read_many(
            [(seg, size - window, window) for seg in segs], errors="none"
        )
        report.segments_scanned += len(segs)
        report.scan_last_segment = max([report.scan_last_segment, *segs])
        candidates: Dict[int, bytes] = {}
        anomaly = ""
        for seg, raw in zip(segs, windows):
            if raw is None:
                # Hardware-reported fault: retire the segment
                # permanently (a failed CRC could just be a torn
                # rewrite; an I/O error cannot).
                report.segments_unreadable += 1
                scan.quarantined.append(seg)
                anomaly = anomaly or f"segment {seg} is unreadable"
                continue
            trailer = raw[window - TRAILER_SIZE :]
            parsed = parse_trailer(trailer)
            roster = ckpt.segments.get(seg)
            if parsed is None or not parsed[0]:
                # Blank, or not a trailer LLD wrote (sequence numbers
                # start at 1).
                if any(trailer):
                    anomaly = anomaly or (
                        f"segment {seg} ends in neither zeros nor a trailer"
                    )
            elif parsed[0] > ckpt.last_log_seq:
                candidates[seg] = raw
                continue
            elif roster is not None and roster[0] == parsed[0]:
                scan.ckpt_segments[seg] = roster
                continue
            # Else a valid trailer, but freed before the checkpoint.
            report.segments_invalid += 1
        return candidates, anomaly

    def decode_candidates(candidates: Dict[int, bytes]) -> Optional[int]:
        """Fetch (eager) and decode ``candidates`` into
        ``scan.replayable``; returns a segment lost on the way, if any."""
        nonlocal decode_us
        wanted = set(candidates)
        if candidates and not instant and window < size:
            # Candidate bodies, as one batch whose contiguous runs
            # coalesce into sequential transfers.
            bodies = disk.read_many(
                [(seg, 0, size) for seg in candidates], errors="none"
            )
            for seg, body in zip(list(candidates), bodies):
                if body is None:
                    report.segments_unreadable += 1
                    scan.quarantined.append(seg)
                    del candidates[seg]
                else:
                    candidates[seg] = body
        decode_start = clock.now_us
        decode = _decode_tails if instant else _decode_bodies
        decoded = decode(lld, candidates, workers, scan, report)
        decode_us += clock.now_us - decode_start
        scan.replayable += decoded
        return min(wanted.difference(d.segment_no for d in decoded), default=None)

    damaged = lld.checkpoints.damaged_slots
    fallback = f"checkpoint slot {damaged[0]} is damaged" if damaged else ""
    batch = max(WALK_BATCH, lld.config.writeback_depth + 1)
    candidates: Dict[int, bytes] = {}
    walked = 0
    while not fallback and walked < len(unattested):
        found, fallback = classify(unattested[walked : walked + batch])
        walked += batch
        candidates.update(found)
        if not found:
            break
    lost = decode_candidates(candidates)
    if lost is not None and not fallback:
        fallback = f"segment {lost} is newer than the checkpoint but damaged"
    if fallback:
        found, _anomaly = classify(sorted(attested + unattested[walked:]))
        decode_candidates(found)
        scan.replayable.sort(key=lambda d: d.seq)
    else:
        for seg in attested:
            scan.ckpt_segments[seg] = ckpt.segments[seg]
        report.segments_attested = len(attested)
    report.scan_plan = "full" if fallback else "walk"
    report.scan_fallback = fallback
    report.phase_us["scan"] = clock.now_us - scan_start - decode_us
    report.phase_us["decode"] = decode_us
    return scan


def _decode_bodies(
    lld: LLD,
    bodies: Dict[int, bytes],
    workers: int,
    scan: _Scan,
    report: RecoveryReport,
) -> List[DecodedSegment]:
    """Eager decoder: whole-segment CRC + summary parse per candidate,
    on the calling thread.

    ``lanes`` > 1 models ``workers`` decoders overlapping the work in
    simulated time: the counters record everything, the clock only
    advances the critical-path share.
    """
    geometry = lld.disk.geometry
    lanes = max(1, min(workers, len(bodies)))
    decoded: List[DecodedSegment] = []
    for seg, body in bodies.items():
        result = decode_segment(body, geometry, seg)
        if result is None:
            # Valid-looking trailer but a torn/corrupt body.
            report.segments_invalid += 1
        else:
            decoded.append(result)
    if bodies:
        raw_kb = len(bodies) * geometry.segment_size / 1024.0
        lld.meter.charge("crc_kb_us", raw_kb, lanes=lanes)
    entries = sum(d.entry_count for d in decoded)
    if entries:
        lld.meter.charge("decode_entry_us", entries, lanes=lanes)
    decoded.sort(key=lambda d: d.seq)
    return decoded


def _decode_tails(
    lld: LLD,
    tails: Dict[int, bytes],
    workers: int,
    scan: _Scan,
    report: RecoveryReport,
) -> List[DecodedSegment]:
    """Instant decoder: summaries from the tail windows alone.

    A chunk stack longer than its window costs a follow-up batched
    read — one per round, for every still-unresolved segment at once —
    of the longer tail the walk asked for; a closed segment asks for
    exactly its missing bytes.  Only the summary CRCs are charged
    here; the per-entry decode cost is charged when a segment is
    replayed, to whoever triggers that.
    """
    disk = lld.disk
    geometry = disk.geometry
    size = geometry.segment_size
    decoded: List[DecodedSegment] = []
    while tails:
        short: List[Tuple[int, int]] = []
        for seg, tail in tails.items():
            result = decode_segment_tail(tail, geometry, seg)
            if isinstance(result, int):
                short.append((seg, result))
            elif result is None:
                report.segments_invalid += 1
            else:
                decoded.append(result)
        if not short:
            break
        longer = disk.read_many(
            [(seg, size - needed, needed) for seg, needed in short],
            errors="none",
        )
        tails = {}
        for (seg, _needed), tail in zip(short, longer):
            if tail is None:
                report.segments_unreadable += 1
                scan.quarantined.append(seg)
            else:
                tails[seg] = tail
    decoded.sort(key=lambda d: d.seq)
    tail_kb = sum(
        (d.summary_len + d.chunk_count * TRAILER_SIZE) / 1024.0 for d in decoded
    )
    if tail_kb:
        lanes = max(1, min(workers, len(decoded)))
        lld.meter.charge("crc_kb_us", tail_kb, lanes=lanes)
    return decoded


@dataclasses.dataclass
class _Outcomes:
    """Every ARU's fate and the id counters, settled before replay."""

    #: ARU tags whose entries replay: COMMIT found, or PREPARE whose
    #: transaction id was decided.
    committed: Set[int]
    #: Coordinator decisions this volume itself holds (checkpoint set
    #: plus every DECIDE in its log).
    own_decided: Set[int]
    next_block_id: int
    next_list_id: int
    next_aru_id: int


def _resolve_outcomes(
    ckpt: CheckpointData,
    replayable: Iterable[DecodedSegment],
    decided_xids: Optional[Set[int]],
    report: RecoveryReport,
) -> _Outcomes:
    """First pass over the log suffix: who committed, and the counters.

    COMMIT records commit their tag outright.  PREPARE records park
    their tag on a coordinator transaction id, which commits iff a
    DECIDE record for that xid is durable — in this volume's own
    checkpoint or log (the coordinator shard resolves itself), or in
    the ``decided_xids`` the sharded recovery read from the decision
    shards.  Resolution covers the whole suffix before any entry is
    replayed (and, under instant restore, before the volume opens),
    so a prepared ARU is never visible undecided.

    ALLOC_BLOCK/NEW_LIST entries always carry tag 0 and always apply,
    so the id counters are exact from this pass alone.  System-range
    ids (replica mirrors) are forced, not counter-allocated; they
    never advance the counters.
    """
    committed: Set[int] = set()
    prepared: Dict[int, int] = {}
    own_decided: Set[int] = set(ckpt.decided_xids)
    max_aru = ckpt.next_aru_id - 1
    max_block = ckpt.next_block_id - 1
    max_list = ckpt.next_list_id - 1
    for decoded in replayable:
        for fields in decoded.entry_tuples:
            kind = fields[0]
            tag = fields[1]
            if tag > max_aru:
                max_aru = tag
            if kind == KIND_COMMIT:
                committed.add(tag)
            elif kind == KIND_PREPARE:
                prepared[tag] = fields[4]
            elif kind == KIND_DECIDE:
                own_decided.add(fields[3])
            elif kind == KIND_ALLOC_BLOCK:
                if max_block < fields[3] < SYSTEM_ID_BASE:
                    max_block = fields[3]
            elif kind == KIND_NEW_LIST:
                if max_list < fields[3] < SYSTEM_ID_BASE:
                    max_list = fields[3]
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
    return _Outcomes(
        committed=committed,
        own_decided=own_decided,
        next_block_id=max_block + 1,
        next_list_id=max_list + 1,
        next_aru_id=max_aru + 1,
    )


def _install(
    lld: LLD,
    ckpt: CheckpointData,
    scan: _Scan,
    outcomes: _Outcomes,
    live_counts: Dict[int, int],
) -> None:
    """Rebuild the usage table, the counters and the fresh buffer."""
    usage = lld.usage  # fresh: every log segment starts out free
    for seg in scan.quarantined:
        # Failed media stays retired; addresses still pointing here
        # are tombstones for lost blocks (reads raise
        # UnrecoverableBlockError instead of returning garbage).
        usage.restore(seg, SegmentState.QUARANTINED, -1, 0, 0)
    for seg, (seq, _live, total) in scan.ckpt_segments.items():
        usage.restore(
            seg, SegmentState.DIRTY, seq, live_counts.get(seg, 0), total
        )
    max_seq = ckpt.last_log_seq
    for decoded in scan.replayable:
        usage.restore(
            decoded.segment_no,
            SegmentState.DIRTY,
            decoded.seq,
            live_counts.get(decoded.segment_no, 0),
            decoded.block_count,
        )
        max_seq = max(max_seq, decoded.last_seq)

    lld._next_block_id = outcomes.next_block_id
    lld._next_list_id = outcomes.next_list_id
    lld.arus.set_next_id(outcomes.next_aru_id)
    lld._next_seq = max_seq + 1
    lld._last_written_seq = max_seq
    lld._ckpt_seq = ckpt.ckpt_seq
    lld._commit_on_disk = outcomes.committed
    # The coordinator's decision memory survives recovery: checkpoint
    # set plus every DECIDE found in the log (never the borrowed
    # ``decided_xids`` — those belong to the volume that logged them).
    lld._decided_xids = outcomes.own_decided
    try:
        lld._open_new_buffer()
    except DiskFullError:
        # A completely full disk recovers with no open buffer; the
        # lazy buffer machinery opens one when (and if) space allows
        # — deletions can still run via the emergency reserve.
        pass


@_collector_paused
def recover(
    disk: SimulatedDisk,
    sweep_orphans: bool = True,
    workers: Optional[int] = None,
    config: Optional[LLDConfig] = None,
    decided_xids: Optional[Set[int]] = None,
    mode: Optional[str] = None,
    cost_model: Optional[CostModel] = None,
) -> Tuple[LLD, RecoveryReport]:
    """Recover an :class:`LLD` instance from a (crashed) disk.

    ``config`` and ``cost_model`` are what :class:`LLD` takes.
    ``sweep_orphans=False`` skips the consistency sweep, exposing the
    paper's intermediate state where blocks allocated by undone ARUs
    remain allocated.

    ``mode`` is ``"eager"`` (the default, also for ``None``)
    — replay the whole log, then return — or ``"instant"`` — return an
    *open* volume right after the scan; requests replay the log prefix
    they need on demand and a background sweep
    (``restore_drain_segments`` per operation,
    :meth:`~repro.lld.lld.LLD.restore_drain`,
    :meth:`~repro.lld.lld.LLD.complete_restore`) drains the rest.
    Once drained the state is byte-identical to eager recovery.

    ``decided_xids`` supplies coordinator decisions from *another*
    volume's log: a participant shard of a sharded volume
    (:mod:`repro.shard`) rolls a PREPARE-tagged ARU forward iff its
    transaction id appears in its own log/checkpoint or in this set,
    and discards it otherwise (presumed abort).

    ``workers`` is the number of simulated decode lanes the scan is
    charged for (default :data:`DEFAULT_WORKERS`): it changes the
    simulated decode time, never the rebuilt state, and starts no
    thread.

    The cyclic garbage collector stays off while this runs
    (:class:`_CollectorPause`).
    """
    if workers is None:
        workers = DEFAULT_WORKERS
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if mode is None:
        mode = "eager"
    if mode not in ("eager", "instant"):
        raise ValueError(f"unknown recovery mode: {mode!r}")
    instant = mode == "instant"

    wall_start = time.perf_counter()
    clock = disk.clock
    start_us = clock.now_us
    batches_before = disk.timer.batches
    runs_before = disk.timer.batched_runs
    lld = LLD(disk, cost_model=cost_model, config=config, _defer_init=True)
    lld.obs.record("recovery.start", mode=mode, workers=workers)
    metrics = lld.obs.metrics
    metrics.counter("lld.recovery.recoveries").inc()
    if instant:
        metrics.counter("lld.recovery.instant_restores").inc()
    ckpt = lld.checkpoints.load()
    report = RecoveryReport(
        checkpoint_seq=ckpt.ckpt_seq, workers=workers, mode=mode
    )

    lld._recovery_report = report
    scan = _scan(lld, ckpt, report, instant, workers)
    report.segments_quarantined = len(scan.quarantined)
    lld.obs.record(
        "recovery.scan",
        plan=report.scan_plan,
        fallback=report.scan_fallback,
        tails_read=report.segments_scanned,
        attested=report.segments_attested,
        last_segment=report.scan_last_segment,
    )

    replay_start = clock.now_us
    outcomes = _resolve_outcomes(ckpt, scan.replayable, decided_xids, report)
    rules = ReplayRules({}, {}, outcomes.committed, report)
    rules.load_checkpoint(ckpt)
    if not instant:
        for decoded in scan.replayable:
            rules.replay_segment(decoded)
        rules.finish(sweep_orphans)
    report.phase_us["replay"] = clock.now_us - replay_start

    install_start = clock.now_us
    # The replayed records become the tables; an instant restore's
    # replay goes on, later and on demand, in the same dicts.
    lld.bmap.adopt(rules.blocks)
    lld.ltable.adopt(rules.lists)
    if instant:
        # Provisional live counts — the roster's for checkpointed
        # segments, every written slot for pending ones — until the
        # restore completes and recounts from the final addresses
        # (verify_lld knows).
        live_counts = {
            seg: roster[1] for seg, roster in scan.ckpt_segments.items()
        }
        for decoded in scan.replayable:
            live_counts[decoded.segment_no] = decoded.block_count
    else:
        live_counts = rules.live_counts()
    _install(lld, ckpt, scan, outcomes, live_counts)
    if instant:
        lld._restore = RestoreController(
            lld, rules, scan.replayable, sweep_orphans, set(live_counts)
        )
    report.phase_us["install"] = clock.now_us - install_start

    report.recovery_time_us = clock.now_us - start_us
    report.ttfr_us = report.recovery_time_us
    report.wall_seconds = time.perf_counter() - wall_start
    report.read_batches = disk.timer.batches - batches_before
    report.batched_runs = disk.timer.batched_runs - runs_before
    for phase, us in report.phase_us.items():
        metrics.counter(f"lld.recovery.{phase}_us").add(us)
        lld.obs.record("recovery.phase", phase=phase, us=round(us, 3))
    if instant:
        lld.obs.record(
            "restore.open",
            pending_segments=len(scan.replayable),
            ttfr_us=round(report.ttfr_us, 3),
        )
    lld.obs.record(
        "recovery.done",
        segments_replayed=report.segments_replayed,
        arus_committed=report.arus_committed,
        arus_discarded=report.arus_discarded,
        total_us=round(report.recovery_time_us, 3),
    )
    if instant and not scan.replayable:
        # Nothing to drain: run the consistency sweep and collapse to
        # normal operation before the first request.
        lld._restore.complete()
    return lld, report


# ======================================================================
# Instant restore: open immediately, redo-on-demand, background sweep
# ======================================================================


class RestoreController:
    """Redo-on-demand replay engine behind an instantly-restored LLD.

    ``recover(mode="instant")`` installs the checkpoint tables and
    decodes every pending segment's *summary* from a tail window;
    this controller then owns the pending suffix.  The **watermark**
    is the number of pending segments (in log-sequence order) whose
    entries have been applied to the live persistent records.  The
    invariant served to traffic: before any block or list id is read
    or modified, every pending entry naming it lies below the
    watermark — enforced by :meth:`ensure_block` / :meth:`ensure_list`
    hooks in the LLD operations, which advance the watermark as a
    strict log-order prefix (never cherry-picking entries, so replay
    order is exactly eager recovery's).

    Why a prefix per-id ensure suffices: ``block_index[b]`` is the
    *last* pending position naming ``b``, so once the watermark passes
    it no later pending entry can touch ``b`` directly; and ``b``'s
    list membership is frozen beyond that point, so any later
    ``DELETE_LIST`` that could delete ``b`` indexes the list ``b``
    currently belongs to — which the second ensure step also drains.

    The controller performs no disk writes: a crash mid-sweep leaves
    the platter exactly as the original crash did, which is why a
    second crash recovers byte-identically to a single eager recovery.
    """

    def __init__(
        self,
        lld: LLD,
        rules: ReplayRules,
        pending: List[DecodedSegment],
        sweep_orphans: bool,
        restore_era: Set[int],
    ) -> None:
        self.lld = weakref.proxy(lld)
        self.rules = rules
        self.report = rules.report
        self.pending = pending
        self.sweep_orphans = sweep_orphans
        #: Pending segments fully applied (index of the next to apply).
        self.watermark = 0
        self.done = False
        #: id -> last pending position whose entries name the id.
        self.block_index: Dict[int, int] = {}
        self.list_index: Dict[int, int] = {}
        #: Block counter at open: ids at or above it were handed out
        #: by live traffic and are never restore-era state.
        self.open_next_block = lld._next_block_id
        #: Dirty segments whose live counts are provisional until the
        #: sweep completes (checkpoint roster + pending suffix).
        self.restore_era = restore_era
        #: Simulated µs spent applying entries after the volume opened.
        self.apply_us = 0.0
        #: Watermark-invariant violations (must stay empty; verify_lld
        #: surfaces them).
        self.violations: List[str] = []
        m = lld.obs.metrics
        self._c_on_demand = m.counter("lld.recovery.on_demand_replays")
        self._g_pending = m.gauge(
            "lld.recovery.pending_segments", initial=len(pending)
        )
        self._g_watermark = m.gauge("lld.recovery.watermark", initial=0)
        bindex = self.block_index
        lindex = self.list_index
        for pos, decoded in enumerate(pending):
            for fields in decoded.entry_tuples:
                kind = fields[0]
                if kind == KIND_WRITE or kind == KIND_ALLOC_BLOCK:
                    bindex[fields[3]] = pos
                elif kind == KIND_DELETE_BLOCK:
                    bindex[fields[3]] = pos
                    if fields[4]:
                        lindex[fields[4]] = pos
                elif kind == KIND_NEW_LIST or kind == KIND_DELETE_LIST:
                    lindex[fields[3]] = pos
                elif kind == KIND_LINK:
                    lindex[fields[3]] = pos
                    bindex[fields[4]] = pos
                    if fields[5]:
                        bindex[fields[5]] = pos

    # -- public surface ----------------------------------------------

    @property
    def pending_count(self) -> int:
        """Pending segments not yet applied."""
        return len(self.pending) - self.watermark

    def tick(self) -> None:
        """Background sweep quantum: auto-drain per public operation."""
        step = self.lld.config.restore_drain_segments
        if self.done or not step:
            return
        self.drain(step)
        if not self.pending_count:
            # The sweep just retired the last pending segment: run
            # the completion pass so the volume collapses back to
            # normal operation without an explicit call.
            self.complete()

    def drain(self, max_segments: Optional[int] = None) -> None:
        """Apply up to ``max_segments`` pending segments in log order."""
        if max_segments is None or max_segments > self.pending_count:
            max_segments = self.pending_count
        self._advance(self.watermark + max_segments - 1)

    def ensure_block(self, block_id: int) -> None:
        """Drain every pending entry that could affect ``block_id``.

        Two prefix advances: to the block's own last pending mention,
        then to the last mention of the list it (now) belongs to —
        which covers membership-changing entries (``DELETE_LIST`` of
        its list, unlinks by neighbors).  Afterwards the block's
        persistent record is final with respect to the log, so the
        orphan rule eager recovery applies at the end is applied here,
        lazily: a still-unlinked restore-era block is freed before it
        can be served.
        """
        if self.done:
            return
        bid = int(block_id)
        blocks = self.rules.blocks
        advanced = self._advance(self.block_index.get(bid, -1))
        rec = blocks.get(bid)
        if rec is not None and rec.list_id is not None:
            advanced |= self._advance(self.list_index.get(rec.list_id, -1))
        self._served("block", bid, self.block_index, advanced)
        if self.sweep_orphans and bid < self.open_next_block:
            rec = blocks.get(bid)
            if (
                rec is not None
                and rec.list_id is None
                and rec.successor is None
            ):
                del blocks[bid]
                self.rules.orphans_freed.add(bid)

    def ensure_list(self, list_id: int) -> None:
        """Drain every pending entry that could affect ``list_id``.

        Every entry that changes a list's chain structure (LINK,
        DELETE_BLOCK of a member, DELETE_LIST, NEW_LIST) indexes the
        list id, so one prefix advance makes the whole chain — member
        successor fields included — final with respect to the log.
        """
        if self.done:
            return
        lid = int(list_id)
        advanced = self._advance(self.list_index.get(lid, -1))
        self._served("list", lid, self.list_index, advanced)

    def _served(
        self, kind: str, ident: int, index: Dict[int, int], advanced: bool
    ) -> None:
        """Count an on-demand replay; check the watermark invariant."""
        if advanced:
            self._c_on_demand.inc()
            self.report.on_demand_replays += 1
        if index.get(ident, -1) >= self.watermark:
            self.violations.append(
                f"{kind} {ident} served below the replay watermark"
            )

    def complete(self) -> None:
        """Drain everything and collapse to normal operation.

        Runs eager recovery's consistency sweep (silently, on the
        persistent records — never the logging public
        ``sweep_orphan_blocks``) and replaces the provisional live
        counts of every restore-era segment with counts derived from
        the final persistent addresses, exactly what eager recovery's
        usage rebuild computes.
        """
        if self.done:
            return
        lld = self.lld
        self._advance(len(self.pending) - 1)
        start = lld.clock.now_us
        self.rules.finish(self.sweep_orphans, below=self.open_next_block)
        live_counts = self.rules.live_counts()
        for seg in self.restore_era:
            if lld.usage.state(seg) is SegmentState.DIRTY:
                lld.usage.set_live(seg, live_counts.get(seg, 0))
        self.apply_us += lld.clock.now_us - start
        self.report.background_sweep_us = self.apply_us
        self.done = True
        self._g_pending.set(0)
        self._g_watermark.set(self.watermark)
        lld._restore = None
        lld.obs.record(
            "restore.complete",
            on_demand_replays=self.report.on_demand_replays,
            sweep_us=round(self.apply_us, 3),
        )

    def _advance(self, pos: int) -> bool:
        """Apply pending segments through position ``pos`` (inclusive);
        False when the watermark is already past it.

        Strict log-order prefix: segments are applied whole, in
        sequence order, by the same :class:`ReplayRules` eager
        recovery runs (commit filtering included).  The
        summary-decode CPU cost is charged here, to whoever triggered
        the advance — a foreground requester pays for its own
        redo-on-demand.
        """
        if pos < self.watermark or self.done:
            return False
        lld = self.lld
        clock = lld.clock
        start = clock.now_us
        while self.watermark <= pos:
            decoded = self.pending[self.watermark]
            if decoded.entry_count:
                lld.meter.charge("decode_entry_us", decoded.entry_count)
            self.rules.replay_segment(decoded)
            self.watermark += 1
        self.apply_us += clock.now_us - start
        self._g_watermark.set(self.watermark)
        self._g_pending.set(self.pending_count)
        return True
