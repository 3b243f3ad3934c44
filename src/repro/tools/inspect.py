"""Library functions behind the ``lddump`` inspection tool.

Everything here is read-only over a :class:`~repro.disk.simdisk.
SimulatedDisk` (usually loaded from an image file): no simulated time
matters, no state is modified.  The functions return printable
strings so both the CLI and tests can use them directly.
"""

from __future__ import annotations

from typing import List, Optional

from repro.disk.geometry import TRAILER_SIZE
from repro.disk.simdisk import SimulatedDisk
from repro.errors import LDError, MediaError
from repro.fs.filesystem import MinixFS
from repro.lld.checkpoint import CheckpointManager
from repro.lld.config import LLDConfig
from repro.lld.recovery import recover
from repro.lld.segment import decode_segment, parse_trailer
from repro.lld.summary import EntryKind
from repro.lld.usage import QUARANTINE_SEQ


def _survivor(disk: SimulatedDisk) -> SimulatedDisk:
    """The platter of ``disk`` for a recovery to run on, leaving
    ``disk`` live for the sections after it (a handle that is dead
    already is power-cycled instead)."""
    return disk.power_cycle() if disk.crashed else disk.snapshot()


def describe_disk(disk: SimulatedDisk) -> str:
    """One-paragraph geometry and occupancy summary."""
    geo = disk.geometry
    written = len(disk._segments)
    lines = [
        "LD disk image",
        f"  geometry : {geo.num_segments} segments x "
        f"{geo.segment_size // 1024} KB ({geo.partition_size // (1024 * 1024)}"
        f" MB), {geo.block_size} B blocks",
        f"  segments : {written} of {geo.num_segments} ever written",
    ]
    return "\n".join(lines)


def describe_checkpoints(
    disk: SimulatedDisk, slot_segments: Optional[int] = None
) -> str:
    """Both checkpoint slots: validity, the checkpoint each chain
    gives, and each record of the chain (base, then deltas)."""
    manager = CheckpointManager(disk, slot_segments)
    slots = manager.slot_segments
    reserved = slots * disk.geometry.segment_size
    lines = [f"checkpoint region: 2 slots x {slots} segment(s)"]
    for slot in range(2):
        chain = manager.read_slot(slot)
        parsed = chain.data
        if parsed is None:
            state = "damaged" if chain.damaged else "never written"
            lines.append(f"  slot {slot}: {state}")
            continue
        decided = (
            f" decided_xids={len(parsed.decided_xids)}"
            if parsed.decided_xids
            else ""
        )
        state = f"damaged after seq {parsed.ckpt_seq}: " if chain.damaged else ""
        lines.append(
            f"  slot {slot}: {state}ckpt_seq={parsed.ckpt_seq} "
            f"last_log_seq={parsed.last_log_seq} "
            f"blocks={len(parsed.blocks)} lists={len(parsed.lists)} "
            f"segments={len(parsed.segments)}{decided} "
            f"total_len={chain.end} of {reserved} reserved"
        )
        for record in chain.records:
            lines.append(
                f"    {record.kind:<5} seq={record.ckpt_seq} "
                f"block_rows={record.block_rows} list_rows={record.list_rows} "
                f"deleted={record.gone} bytes={record.nbytes}"
            )
    best = manager.load()
    lines.append(f"  newest valid checkpoint: seq {best.ckpt_seq}")
    return "\n".join(lines)


def describe_segments(
    disk: SimulatedDisk,
    slot_segments: Optional[int] = None,
    entries: bool = False,
    limit: Optional[int] = None,
) -> str:
    """Per-segment roster: chunk count and sequence range, block/entry
    counts, validity.

    With ``entries=True`` every summary entry is listed (verbose).
    """
    manager = CheckpointManager(disk, slot_segments)
    reserved = manager.reserved_segments
    geo = disk.geometry
    # The checkpoint roster records quarantined segments with a
    # sentinel sequence so the scrubber's verdict survives restarts;
    # surface that here rather than re-reading failed media.
    quarantined = set()
    try:
        roster = manager.load().segments
        quarantined = {
            seg for seg, (seq, _l, _t) in roster.items()
            if seq == QUARANTINE_SEQ
        }
    except LDError:
        pass
    lines: List[str] = [
        f"log segments (skipping {reserved} reserved checkpoint segments):"
    ]
    if quarantined:
        lines.append(
            f"  quarantined by scrub: {sorted(quarantined)}"
        )
    shown = 0
    fills: List[float] = []
    for seg in range(reserved, geo.num_segments):
        if seg not in disk._segments:
            continue
        if limit is not None and shown >= limit:
            lines.append(f"  ... (limited to {limit} segments)")
            break
        if seg in quarantined:
            lines.append(
                f"  segment {seg:4d}: QUARANTINED (scrubbed media fault)"
            )
            shown += 1
            continue
        try:
            raw = disk.read_segment(seg)
        except MediaError:
            lines.append(f"  segment {seg:4d}: UNREADABLE (media fault)")
            shown += 1
            continue
        trailer = parse_trailer(raw[geo.segment_size - TRAILER_SIZE :])
        if trailer is None:
            lines.append(f"  segment {seg:4d}: invalid trailer")
            shown += 1
            continue
        decoded = decode_segment(raw, geo, seg)
        if decoded is None:
            lines.append(
                f"  segment {seg:4d}: seq {trailer[0]} — TORN/CORRUPT "
                "(checksum failed)"
            )
            shown += 1
            continue
        commits = sum(
            1 for e in decoded.entries if e.kind is EntryKind.COMMIT
        )
        summary_bytes = sum(e.encoded_size() for e in decoded.entries)
        fill = (
            decoded.block_count * geo.block_size + summary_bytes
        ) / geo.usable_size
        fills.append(fill)
        chunks = decoded.chunk_count
        span = (
            f"seq {decoded.seq:6d}"
            if chunks == 1
            else f"seq {decoded.seq}..{decoded.last_seq} ({chunks} chunks)"
        )
        lines.append(
            f"  segment {seg:4d}: {span}  "
            f"{decoded.block_count:3d} blocks  "
            f"{len(decoded.entries):4d} entries  {commits:3d} commits  "
            f"{fill * 100:5.1f}% full"
        )
        data_end = decoded.block_count * geo.block_size
        if not decoded.closed and any(raw[data_end : decoded.summary_start]):
            # Bytes where the free gap should be: a chunk the walk
            # rejected, or the start of one.
            lines.append(
                f"      chain ends after chunk {chunks} "
                "(torn or stale below)"
            )
        shown += 1
        if entries:
            for entry in decoded.entries:
                fields = (
                    f"block={entry.a} slot={entry.b} crc={entry.c:#010x}"
                    if entry.kind is EntryKind.WRITE
                    else f"a={entry.a} b={entry.b} c={entry.c}"
                )
                lines.append(
                    f"      {entry.kind.name:<12s} tag={entry.aru_tag:<6d} "
                    f"ts={entry.timestamp:<8d} {fields}"
                )
    if shown == 0:
        lines.append("  (none written)")
    elif fills:
        lines.append(
            f"  fill (data+summary over usable bytes): avg "
            f"{sum(fills) / len(fills) * 100:.1f}%  min "
            f"{min(fills) * 100:.1f}%  over {len(fills)} valid segments"
        )
    return "\n".join(lines)


def describe_metrics(
    disk: SimulatedDisk, slot_segments: Optional[int] = None
) -> str:
    """Recover the image read-only and print its metrics as JSON.

    Runs LLD recovery against a power-cycled copy of the image and
    returns the recovered system's observability state: the recovery
    report (phase timings included), the frozen ``stats()`` view, and
    the full registry snapshot with latency histograms.
    """
    import json

    survivor = disk.power_cycle()
    ld, report = recover(
        survivor, config=LLDConfig(checkpoint_slot_segments=slot_segments)
    )
    payload = {
        "recovery": {
            "segments_replayed": report.segments_replayed,
            "entries_replayed": report.entries_replayed,
            "arus_committed": report.arus_committed,
            "arus_discarded": report.arus_discarded,
            "checkpoint_seq": report.checkpoint_seq,
            "phase_us": dict(report.phase_us),
        },
        "stats": ld.stats(),
        "registry": ld.obs.snapshot(),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def describe_scan(ld, report) -> str:
    """One line on how recovery read the disk: the plan, and what the
    roll-forward walk saved or why it gave way to the full scan."""
    if report.scan_plan == "full":
        return f"full ({report.scan_fallback})"
    log_segments = ld.usage.num_segments - ld.usage.reserved_count
    return (
        f"walk, {report.segments_scanned} of {log_segments} read "
        f"({report.segments_read_whole} whole), "
        f"{report.segments_attested} attested, ended after segment "
        f"{report.scan_last_segment}"
    )


def describe_restore(
    disk: SimulatedDisk, slot_segments: Optional[int] = None
) -> str:
    """Instant-restore preview: what ``recover(mode="instant")`` sees.

    Opens a power-cycled copy of the image in instant mode and stops
    right after phase A — before any on-demand or background replay —
    so the output shows the volume exactly as it would greet its
    first request: the replay watermark, the pending log suffix and
    the per-segment work still outstanding.
    """
    survivor = _survivor(disk)
    config = LLDConfig(
        checkpoint_slot_segments=slot_segments, restore_drain_segments=0
    )
    ld, report = recover(survivor, mode="instant", config=config)
    lines = [
        "instant-restore preview (phase A only, nothing replayed):",
        f"  checkpoint seq     : {report.checkpoint_seq}",
        f"  time to first req  : {report.ttfr_us:.1f} simulated us",
        f"  scan               : {describe_scan(ld, report)}",
    ]
    controller = ld._restore
    if controller is None:
        lines.append("  pending segments   : 0 (volume fully restored)")
        return "\n".join(lines)
    lines.append(
        f"  replay watermark   : {controller.watermark} of "
        f"{len(controller.pending)} pending segments applied"
    )
    lines.append(
        f"  indexed ids        : {len(controller.block_index)} blocks, "
        f"{len(controller.list_index)} lists await replay"
    )
    lines.append("  pending (log order):")
    for decoded in controller.pending:
        lines.append(
            f"    segment {decoded.segment_no:4d}: "
            f"seq {decoded.seq}..{decoded.last_seq} "
            f"({decoded.chunk_count} chunks)  "
            f"{decoded.block_count:3d} blocks  "
            f"{decoded.entry_count:4d} entries"
        )
    return "\n".join(lines)


def describe_fs(
    disk: SimulatedDisk,
    slot_segments: Optional[int] = None,
    substrate: str = "lld",
    journal_segments: int = 8,
) -> str:
    """Recover the logical disk read-only and print the file tree.

    ``substrate`` selects the recovery procedure: ``"lld"`` (default)
    or ``"jld"`` for images written by the journaling implementation.
    """
    survivor = _survivor(disk)
    if substrate == "jld":
        from repro.jld import recover_jld

        kwargs = {"journal_segments": journal_segments}
        if slot_segments is not None:
            kwargs["checkpoint_slot_segments"] = slot_segments
        ld, jreport = recover_jld(survivor, **kwargs)
        lines = [
            f"recovered (jld): {jreport['entries_replayed']} entries from "
            f"{jreport['segments_replayed']} journal segments "
            f"(checkpoint seq {jreport['checkpoint_seq']})"
        ]
    else:
        ld, report = recover(
            survivor, config=LLDConfig(checkpoint_slot_segments=slot_segments)
        )
        lines = [
            f"recovered: {report.entries_replayed} entries from "
            f"{report.segments_replayed} segments "
            f"(checkpoint seq {report.checkpoint_seq}, "
            f"{report.arus_discarded} ARUs discarded)"
        ]
    try:
        fs = MinixFS.mount(ld)
    except LDError as exc:
        lines.append(f"no mountable MinixFS: {exc}")
        return "\n".join(lines)

    def walk(path: str, depth: int) -> None:
        for name in sorted(fs.listdir(path)):
            child = path.rstrip("/") + "/" + name
            info = fs.stat(child)
            indent = "  " * depth
            if info.is_dir:
                lines.append(f"{indent}{name}/")
                walk(child, depth + 1)
            else:
                suffix = f" ({info.nlinks} links)" if info.nlinks > 1 else ""
                lines.append(f"{indent}{name}  {info.size} bytes{suffix}")

    lines.append("/")
    walk("/", 1)
    return "\n".join(lines)
