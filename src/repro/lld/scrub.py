"""Segment scrub & repair: surviving partial media failures online.

The paper motivates ARUs as protection against power failures *and*
partial media failures (Section 3).  Crash recovery already tolerates
damaged segments by treating them as free space, but a *live* system
needs more: blocks whose only on-disk copy sits in a failed segment
should be re-homed while surviving copies still exist, and the failed
segment must never be reused.

:func:`scrub_segments` sweeps the log with one batched
:meth:`~repro.disk.simdisk.SimulatedDisk.read_many` scan, validating
that every on-disk log segment is readable, that its chunks' summary
CRCs hold over every data slot the usage table counted, and that each
slot a WRITE entry names still has the CRC that entry carries.  Every
chunk of a DIRTY segment reached the platter through successful writes
of its data slots and then of the chunk, so a failed CRC here, or a
chunk walk that stops short of the counted slots, is media corruption,
not a torn write — recovery cannot make that call (a reused-then-torn
segment looks the same to it), but the live usage table can.

For every damaged segment the scrubber salvages live blocks, in
order of preference:

1. the block cache (write-behind entries are byte-identical copies),
2. the current in-memory segment buffer,
3. an older persistent copy still in a readable log segment (stale
   data — better than nothing, and counted separately),

relocates them through the cleaner's relocation path (append to the
current buffer, repoint the version record), and finally quarantines
the segment: :class:`~repro.lld.usage.SegmentUsage` drops it from
allocation and cleaning forever, and the checkpoint roster records it
with :data:`~repro.lld.usage.QUARANTINE_SEQ` so the retirement
survives crashes.  Blocks with no surviving copy are *lost*: their
addresses keep pointing into the quarantined segment as tombstones,
and reading them raises :class:`~repro.errors.UnrecoverableBlockError`.

A persistent copy superseded by a committed (post-EndARU) version is
not relocated, mirroring the cleaner's rule: the newer copy is already
in the stream ahead of us.  The cache holds only byte-identical
copies: a degraded read (:func:`degraded_read`, the foreground half of
the same job) never caches its salvage under the failed address.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.records import find_alt
from repro.core.versions import VersionState
from repro.disk.geometry import TRAILER_SIZE
from repro.errors import MediaError, StaleCopyError, UnrecoverableBlockError
from repro.ld.types import ARU_NONE, BlockId, PhysAddr
from repro.lld.segment import (
    DecodedSegment,
    decode_segment,
    decode_stacks,
    slots_hold,
)
from repro.lld.summary import KIND_WRITE
from repro.lld.usage import SegmentState


#: The ``lld.scrub.*`` counters, in ``stats()["scrub"]`` order.
SCRUB_COUNTERS = (
    "scrubs", "segments_quarantined", "blocks_salvaged",
    "blocks_salvaged_stale", "blocks_lost", "degraded_reads",
    "salvaged_reads", "unrecoverable_reads",
)


@dataclasses.dataclass
class ScrubReport:
    """What one scrub pass found and repaired."""

    segments_checked: int = 0
    segments_damaged: int = 0
    segments_quarantined: int = 0
    #: Byte-identical salvages (cache or current buffer).
    blocks_salvaged: int = 0
    #: Salvaged from an older persistent copy in the log (stale data).
    blocks_salvaged_stale: int = 0
    #: Persistent copies a newer committed version already supersedes.
    blocks_superseded: int = 0
    blocks_lost: int = 0
    #: seg -> "unreadable" | "corrupt" for every damaged segment.
    damaged: Dict[int, str] = dataclasses.field(default_factory=dict)
    lost_blocks: List[int] = dataclasses.field(default_factory=list)
    #: The blocks salvaged from an older copy: a replica may hold the
    #: newest bytes.
    stale_blocks: List[int] = dataclasses.field(default_factory=list)
    #: True when the pass ended with a checkpoint persisting the
    #: quarantine roster (requires a checkpoint-safe moment).
    checkpointed: bool = False


def decode_dirty_body(lld, seg: int, raw) -> Optional[DecodedSegment]:
    """The one rule for reading a DIRTY segment's body ``raw``: charge
    its CRCs and decode it, each data slot checked against its WRITE
    entry; None when a check fails or the chunk walk stops short of
    the slots the usage table counted (failed media, see the module
    docstring), else charge the entry decode."""
    lld.meter.charge("crc_kb_us", lld.geometry.segment_size / 1024.0)
    decoded = decode_segment(raw, lld.geometry, seg)
    if decoded is None or decoded.block_count < lld.usage.total_slots(seg):
        return None
    lld.meter.charge("decode_entry_us", decoded.entry_count)
    return decoded


def find_log_copy(
    lld, block_id: BlockId, exclude: Set[int]
) -> Optional[Tuple[bytes, int]]:
    """Search the log for the newest readable copy of ``block_id``.

    Walks DIRTY segments newest-first, skipping ``exclude`` (the
    damaged segments); the first segment whose summary stack names the
    block in a WRITE entry wins (the last such entry within a segment
    is the newest).  Of each candidate it reads the summary stack from
    a tail window (:func:`~repro.lld.segment.decode_stacks`, as the
    cleaner does), and of the winner only the slot that entry names,
    checked against the entry's CRC (:func:`slots_hold`).  An
    unreadable tail or slot, a summary that fails its CRC, a chunk walk
    that stops short of the slots the usage table counted or a slot
    that fails its CRC marks the segment for the scrubber, and the
    search goes on.  Entries tagged with an ARU whose commit record is
    unknown are ignored — salvage must never resurrect uncommitted
    data.  Returns ``(data, seq)`` or None.  Charges CRC and decode
    CPU for what it reads.
    """
    candidates = sorted(
        (
            (seq, seg)
            for seg, _live, seq in lld.usage.dirty_segments()
            if seg not in exclude
        ),
        reverse=True,
    )
    disk = lld.disk
    size = lld.geometry.segment_size
    block_size = lld.geometry.block_size
    window = min(size, max(TRAILER_SIZE, block_size))
    want = int(block_id)
    for seq, seg in candidates:
        (tail,) = disk.read_many([(seg, size - window, window)], errors="none")
        stacks = (
            decode_stacks(disk, {seg: tail})[0] if tail is not None else []
        )
        if not stacks or stacks[0].block_count < lld.usage.total_slots(seg):
            lld._scrub_pending.add(seg)
            continue
        decoded = stacks[0]
        lld.meter.charge("crc_kb_us", decoded.stack_len / 1024.0)
        lld.meter.charge("decode_entry_us", decoded.entry_count)
        chosen = None
        for fields in decoded.entry_tuples:
            if fields[0] != KIND_WRITE or fields[3] != want:
                continue
            tag = fields[1]
            if (
                tag
                and tag not in lld._commit_on_disk
                and tag not in lld._pending_commit_arus
            ):
                continue
            chosen = fields
        if chosen is None:
            continue
        slot = chosen[4]
        try:
            data = disk.read(seg, slot * block_size, block_size)
        except MediaError:
            lld._scrub_pending.add(seg)
            continue
        lld.meter.charge("crc_kb_us", block_size / 1024.0)
        if not slots_hold([chosen], data, block_size, first_slot=slot):
            lld._scrub_pending.add(seg)
            continue
        return data, seq
    return None


def degraded_read(lld, addr: PhysAddr, block_id: BlockId) -> bytes:
    """A foreground read of ``block_id`` whose copy at ``addr`` failed
    (the cache and buffer were already consulted): mark the segment
    for the next scrub and serve the newest older copy that survives
    (:func:`find_log_copy`), never cached under ``addr`` (the scrubber
    takes a cache entry for a byte-identical copy).  Where a peer
    volume holds the block too (``lld.replicated``) that copy is raised
    as :class:`~repro.errors.StaleCopyError` instead; with no copy
    left, :class:`~repro.errors.UnrecoverableBlockError`."""
    lld._ops["degraded_reads"].inc()
    counters = lld._scrub_counters
    counters["degraded_reads"].inc()
    lld.obs.record(
        "media.degraded_read",
        segment=addr.segment,
        slot=addr.slot,
        block=int(block_id),
    )
    if lld.usage.state(addr.segment) is SegmentState.DIRTY:
        lld._scrub_pending.add(addr.segment)
    found = find_log_copy(lld, block_id, exclude={addr.segment})
    if found is None:
        counters["unrecoverable_reads"].inc()
        raise UnrecoverableBlockError(int(block_id), addr.segment)
    data, _seq = found
    counters["salvaged_reads"].inc()
    lld.obs.record("scrub.salvage", block=int(block_id), segment=addr.segment)
    if lld.replicated:
        raise StaleCopyError(int(block_id), addr.segment, data)
    return data


def run_scrub(lld, segments: Optional[Iterable[int]]) -> ScrubReport:
    """One :meth:`~repro.lld.lld.LLD.scrub` pass: a
    :func:`scrub_segments` sweep, folded into the ``lld.scrub.*``
    counters and the ``scrub.quarantine`` / ``scrub.pass`` events."""
    report = scrub_segments(lld, segments)
    counters = lld._scrub_counters
    counters["scrubs"].inc()
    counters["segments_quarantined"].add(report.segments_quarantined)
    counters["blocks_salvaged"].add(report.blocks_salvaged)
    counters["blocks_salvaged_stale"].add(report.blocks_salvaged_stale)
    counters["blocks_lost"].add(report.blocks_lost)
    for segment, kind in sorted(report.damaged.items()):
        lld.obs.record("scrub.quarantine", segment=segment, kind=kind)
    lld.obs.record(
        "scrub.pass",
        checked=report.segments_checked,
        quarantined=report.segments_quarantined,
        salvaged=report.blocks_salvaged,
        lost=report.blocks_lost,
    )
    return report


def scrub_stats(lld) -> dict:
    """``lld.stats()["scrub"]``: the ``lld.scrub.*`` counters, the
    segments marked for the next pass and the quarantined ones."""
    return {
        **{name: counter.value for name, counter in lld._scrub_counters.items()},
        "pending_segments": len(lld._scrub_pending),
        "quarantined_segments": len(lld.usage.quarantined_segments()),
    }


def scrub_segments(lld, segments: Optional[Iterable[int]] = None) -> ScrubReport:
    """Check ``segments`` (default: every on-disk log segment).

    Damaged segments are repaired and quarantined as described in the
    module docstring.  Callers hold the volume's lock and have
    completed any instant restore: salvage compares platter blocks
    against the mapped addresses, which are final only after it.
    Relocations may raise :class:`~repro.errors.DiskFullError` on a
    disk with no workspace left (retry after deleting data).
    """
    report = ScrubReport()
    geometry = lld.geometry
    if segments is None:
        targets = [seg for seg, _live, _seq in lld.usage.dirty_segments()]
        # A full sweep covers everything that can still need a
        # scrub; pending marks on freed/quarantined segments are
        # stale.
        lld._scrub_pending.intersection_update(targets)
    else:
        targets = sorted(
            seg
            for seg in set(segments)
            if lld.usage.state(seg) is SegmentState.DIRTY
        )
    # Requested segments that are no longer DIRTY (cleaned or
    # already quarantined) need no scrub; drop any pending marks.
    if segments is not None:
        for seg in set(segments) - set(targets):
            lld._scrub_pending.discard(seg)
    if not targets:
        return report

    # One scatter-gather read fetches every body; holes are the
    # unreadable segments.
    bodies = lld.disk.read_many(
        [(seg, 0, geometry.segment_size) for seg in targets],
        errors="none",
    )
    for seg, raw in zip(targets, bodies):
        report.segments_checked += 1
        if raw is None:
            report.damaged[seg] = "unreadable"
        elif decode_dirty_body(lld, seg, raw) is None:
            report.damaged[seg] = "corrupt"
        else:
            lld._scrub_pending.discard(seg)
            lld._read_stream.checked(seg)
    report.segments_damaged = len(report.damaged)
    if not report.damaged:
        return report

    _repair(lld, set(report.damaged), report)

    # Quarantine after salvage (the cache copies are a salvage
    # source), then make the relocations durable and persist the
    # quarantine roster when a checkpoint is currently allowed.
    for seg in sorted(report.damaged):
        lld._read_stream.forget(seg)
        lld.usage.quarantine(seg)
        lld._scrub_pending.discard(seg)
        report.segments_quarantined += 1
    lld.flush()
    if lld.checkpoint_safe():
        lld._write_checkpoint()
        report.checkpointed = True
    return report


def _repair(lld, damaged: Set[int], report: ScrubReport) -> None:
    """Salvage and relocate every live block of ``damaged``."""
    bmap = lld.bmap
    for block_id in bmap.ids():
        committed = find_alt(
            bmap.alts.get(block_id), VersionState.COMMITTED, ARU_NONE
        )
        persistent = bmap.persistent.get(block_id)
        if (
            committed is not None
            and committed.address is not None
            and committed.address.segment in damaged
        ):
            _salvage(
                lld,
                block_id,
                committed,
                aru_tag=int(committed.origin_aru),
                allow_stale=False,
                report=report,
            )
        if (
            persistent is not None
            and persistent.address is not None
            and persistent.address.segment in damaged
        ):
            if committed is not None:
                # The cleaner's rule: a committed record means a
                # newer copy is already in the stream ahead of us.
                # Relocating the old copy would collide with it in
                # the buffer's per-block slot.
                report.blocks_superseded += 1
                continue
            _salvage(
                lld,
                block_id,
                persistent,
                aru_tag=0,
                allow_stale=True,
                report=report,
            )


def _salvage(
    lld, block_id: BlockId, version, aru_tag: int, allow_stale: bool,
    report: ScrubReport,
) -> None:
    """Find a surviving copy of one version and relocate it."""
    addr = version.address
    stale = False
    data = lld.cache.peek(addr)
    if data is None and (
        lld._buffer is not None and lld._buffer.contains_block(block_id)
    ):
        data = lld._buffer.get_block(block_id)
    if data is None and allow_stale:
        found = find_log_copy(lld, block_id, exclude=set(report.damaged))
        if found is not None:
            data, _seq = found
            stale = True
    if data is None:
        report.blocks_lost += 1
        report.lost_blocks.append(int(block_id))
        return
    # The cleaner's relocation path: append to the current buffer
    # and repoint the version.  An uncommitted tag is re-attached
    # so recovery keeps honoring the original commit record.
    ts = lld.clock.tick()
    new_addr = lld.log_write(block_id, data, aru_tag, ts)
    version.address = new_addr
    lld.bmap.mark_changed(block_id)
    if version.state is VersionState.COMMITTED:
        # Folding must wait until the relocated copy is durable.
        version.pending_segment = lld._buffer.seq
    if stale:
        report.blocks_salvaged_stale += 1
        report.stale_blocks.append(int(block_id))
    else:
        report.blocks_salvaged += 1
